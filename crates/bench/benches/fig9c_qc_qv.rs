//! Criterion bench for Fig. 9(c): the QC / QV split of detection time.

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let cfd = CfdWorkload::new(13).single(EmbeddedFd::ZipCityToState, 100, 100.0);
    let detector = Detector::new();
    let mut group = c.benchmark_group("fig9c_qc_qv");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for sz in [10_000usize, 20_000] {
        let data = tax_data(sz, 5.0, 19);
        group.bench_with_input(BenchmarkId::new("qc", sz), &data, |b, data| {
            b.iter(|| detector.qc_only(&cfd, Arc::clone(data)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("qv", sz), &data, |b, data| {
            b.iter(|| detector.qv_only(&cfd, Arc::clone(data)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
