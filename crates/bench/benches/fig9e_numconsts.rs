//! Criterion bench for Fig. 9(e): scalability in the percentage of constant
//! pattern rows (variables restrict index use and slow detection down).

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let data = tax_data(20_000, 5.0, 31);
    let detector = Detector::new();
    let mut group = c.benchmark_group("fig9e_numconsts");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for pct in [100.0f64, 60.0, 20.0] {
        let cfd = CfdWorkload::new(37).single(EmbeddedFd::ZipCityToState, 200, pct);
        group.bench_with_input(BenchmarkId::new("consts", pct as u64), &data, |b, data| {
            b.iter(|| detector.detect_shared(&cfd, Arc::clone(data)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
