//! Criterion benches for the design-choice ablations listed in DESIGN.md:
//! SQL strategies vs the direct detector, raw Σ vs its minimal cover, and
//! the reasoning primitives (consistency / implication / MinCover) themselves.

use cfd_bench::tax_data;
use cfd_core::CfdSet;
use cfd_datagen::cust::fig2_cfd_set;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::DirectDetector;
use cfd_repair::Repairer;
use cfd_sql::{Detector, Strategy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn detection_strategies(c: &mut Criterion) {
    let data = tax_data(10_000, 5.0, 59);
    let cfd = CfdWorkload::new(61).single(EmbeddedFd::ZipCityToState, 100, 100.0);
    let mut group = c.benchmark_group("ablation_detection_strategy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("sql_dnf_indexed", |b| {
        let d = Detector::new().with_strategy(Strategy::dnf());
        b.iter(|| d.detect_shared(&cfd, Arc::clone(&data)).unwrap());
    });
    group.bench_function("sql_dnf_unindexed", |b| {
        let d = Detector::new().with_strategy(Strategy::dnf_unindexed());
        b.iter(|| d.detect_shared(&cfd, Arc::clone(&data)).unwrap());
    });
    group.bench_function("sql_cnf", |b| {
        let d = Detector::new().with_strategy(Strategy::cnf());
        b.iter(|| d.detect_shared(&cfd, Arc::clone(&data)).unwrap());
    });
    group.bench_function("direct_hash", |b| {
        let d = DirectDetector::new();
        b.iter(|| d.detect(&cfd, &data));
    });
    group.finish();
}

fn reasoning(c: &mut Criterion) {
    let set = fig2_cfd_set();
    let normal = set.normalize().unwrap();
    let mut group = c.benchmark_group("ablation_reasoning");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("consistency_fig2", |b| {
        b.iter(|| cfd_core::is_consistent(&normal));
    });
    group.bench_function("implication_fig2", |b| {
        let phi = normal[0].clone();
        b.iter(|| cfd_core::implies(&normal, &phi));
    });
    group.bench_function("mincover_fig2", |b| {
        b.iter(|| cfd_core::minimal_cover(&normal));
    });
    group.finish();
}

fn mincover_vs_raw_detection(c: &mut Criterion) {
    let data = tax_data(10_000, 5.0, 67);
    let workload = CfdWorkload::new(71);
    let cfds = vec![
        workload.single(EmbeddedFd::ZipToState, 100, 100.0),
        workload.single(EmbeddedFd::ZipToState, 100, 100.0),
        workload.single(EmbeddedFd::ZipCityToState, 100, 100.0),
    ];
    let cover: Vec<_> = CfdSet::from_cfds(cfds.clone())
        .unwrap()
        .minimal_cover()
        .unwrap()
        .into_iter()
        .collect();
    let detector = Detector::new();
    let mut group = c.benchmark_group("ablation_mincover");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("raw_sigma", |b| {
        b.iter(|| detector.detect_set(&cfds, Arc::clone(&data)).unwrap());
    });
    group.bench_function("minimal_cover", |b| {
        b.iter(|| detector.detect_set(&cover, Arc::clone(&data)).unwrap());
    });
    group.finish();
}

fn repair(c: &mut Criterion) {
    let data = tax_data(2_000, 10.0, 73);
    let cfd = CfdWorkload::new(79).zip_state_full();
    let mut group = c.benchmark_group("ablation_repair");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("repair_zip_state", |b| {
        let repairer = Repairer::new();
        b.iter(|| repairer.repair(std::slice::from_ref(&cfd), &data));
    });
    group.finish();
}

criterion_group!(
    benches,
    detection_strategies,
    reasoning,
    mincover_vs_raw_detection,
    repair
);
criterion_main!(benches);
