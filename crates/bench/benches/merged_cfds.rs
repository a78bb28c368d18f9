//! Criterion bench for the merged-CFD study: validating a set of CFDs with
//! one query pair per CFD vs the single merged query pair of Section 4.2,
//! plus the direct scan of the same set as the non-SQL comparison point.

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::DirectDetector;
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let data = tax_data(10_000, 5.0, 47);
    let workload = CfdWorkload::new(53);
    let cfds = vec![
        workload.single(EmbeddedFd::ZipToState, 100, 100.0),
        workload.single(EmbeddedFd::ZipCityToState, 100, 100.0),
        workload.single(EmbeddedFd::ZipToCity, 100, 100.0),
    ];
    let detector = Detector::new();
    let mut group = c.benchmark_group("merged_cfds");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("per_cfd_pairs", |b| {
        b.iter(|| detector.detect_set(&cfds, Arc::clone(&data)).unwrap());
    });
    group.bench_function("merged_pair", |b| {
        b.iter(|| {
            detector
                .detect_set_merged(&cfds, Arc::clone(&data))
                .unwrap()
        });
    });
    let direct = DirectDetector::new();
    group.bench_function("direct_interned_ids", |b| {
        b.iter(|| direct.detect_set(&cfds, &data));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
