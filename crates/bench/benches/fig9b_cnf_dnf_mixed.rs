//! Criterion bench for Fig. 9(b): CNF vs DNF with 50% variable pattern rows.

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::{Detector, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let cfd = CfdWorkload::new(12).single(EmbeddedFd::ZipCityToState, 100, 50.0);
    let mut group = c.benchmark_group("fig9b_cnf_dnf_mixed");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for sz in [5_000usize, 10_000] {
        let data = tax_data(sz, 5.0, 18);
        for (name, strategy) in [("cnf", Strategy::cnf()), ("dnf", Strategy::dnf())] {
            let detector = Detector::new().with_strategy(strategy);
            group.bench_with_input(BenchmarkId::new(name, sz), &data, |b, data| {
                b.iter(|| detector.detect_shared(&cfd, Arc::clone(data)).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
