//! Criterion bench for Fig. 9(d): scalability in the tableau size TABSZ for
//! CFDs with 3 and 4 attributes.

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let data = tax_data(10_000, 5.0, 23);
    let detector = Detector::new();
    let mut group = c.benchmark_group("fig9d_tabsz");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for tabsz in [200usize, 500, 1_000] {
        for (name, fd) in [
            ("attrs3", EmbeddedFd::ZipCityToState),
            ("attrs4", EmbeddedFd::AreaCityToState),
        ] {
            let cfd = CfdWorkload::new(29).single(fd, tabsz, 50.0);
            group.bench_with_input(BenchmarkId::new(name, tabsz), &data, |b, data| {
                b.iter(|| detector.detect_shared(&cfd, Arc::clone(data)).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
