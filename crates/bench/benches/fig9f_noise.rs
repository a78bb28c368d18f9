//! Criterion bench for Fig. 9(f): scalability in the NOISE percentage using
//! the zip→state CFD with a pattern row for every zip→state pair.

use cfd_bench::tax_data;
use cfd_datagen::CfdWorkload;
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let cfd = CfdWorkload::new(41).zip_state_full();
    let detector = Detector::new();
    let mut group = c.benchmark_group("fig9f_noise");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for noise in [0u64, 5, 9] {
        let data = tax_data(20_000, noise as f64, 43 + noise);
        group.bench_with_input(BenchmarkId::new("noise", noise), &data, |b, data| {
            b.iter(|| detector.detect_shared(&cfd, Arc::clone(data)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
