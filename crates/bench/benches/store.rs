//! Storage-layer bench: cold and warm out-of-core scans vs. in-memory
//! detection. (The write path is measured end to end by the repository
//! benchmark: `disk_ooc` `commit_p50_ms` and the `store.commit64_*` layers.)
//!
//! Three series over a generated tax-records workload:
//!
//! * `in_memory` — [`DirectDetector`] over the materialized [`Relation`]:
//!   the ceiling a disk-backed scan is compared against;
//! * `warm_scan` — [`ColumnStore::detect`] with the buffer pool left warm
//!   from the previous iteration (page hits, no I/O);
//! * `cold_scan` — the same scan after [`ColumnStore::drop_page_cache`],
//!   so every page is read back through the (out-of-core, 64-frame) pool.
//!
//! Besides the harness output, the bench writes
//! `crates/bench/BENCH_store.json` through [`cfd_bench::report`] —
//! `{rows, series, ns_per_iter (median), min_ns, max_ns, samples}` records
//! under a host line; the file is committed and CI uploads a fresh one.

use cfd::store::{ColumnStore, StoreOptions};
use cfd_bench::report::{time_ns_per_iter, Entry, Report};
use cfd_core::Cfd;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{BatchOp, DirectDetector, Violations};
use cfd_relation::Relation;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::Duration;

fn tax_cfds() -> Vec<Cfd> {
    let workload = CfdWorkload::new(13);
    [
        EmbeddedFd::ZipToState,
        EmbeddedFd::AreaToCity,
        EmbeddedFd::StateMaritalToExemption,
    ]
    .iter()
    .map(|&fd| workload.single(fd, 40, 60.0))
    .collect()
}

fn detect_in_memory(cfds: &[Cfd], data: &Relation) -> Violations {
    let direct = DirectDetector::new();
    let mut out = Violations::new();
    for cfd in cfds {
        out.merge(direct.detect(cfd, data));
    }
    out
}

fn scratch_dir(rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfd-bench-store-{rows}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(c: &mut Criterion) {
    let cfds = tax_cfds();
    let mut report = Report::new("store");

    for rows in [10_000usize, 40_000] {
        let data = TaxGenerator::new(TaxConfig {
            size: rows,
            noise_percent: 5.0,
            seed: 23,
        })
        .generate()
        .relation;

        let dir = scratch_dir(rows);
        let opts = StoreOptions {
            // 64 frames = 256 KiB of page memory; the 40k-row workload
            // holds ~600 pages of cells, so cold scans are out-of-core.
            pool_pages: 64,
            ..StoreOptions::default()
        };
        let mut store =
            ColumnStore::open_or_create(&dir, data.schema(), opts).expect("create store");
        let ops: Vec<BatchOp> = data.to_tuples().into_iter().map(BatchOp::Insert).collect();
        store.apply_batch(&ops).expect("load workload");

        // Sanity outside the timed region: the store scan is byte-identical
        // to in-memory detection, cold or warm.
        let memory_report = detect_in_memory(&cfds, &data);
        assert!(!memory_report.is_clean(), "workload must carry noise");
        store.drop_page_cache().expect("drop cache");
        assert_eq!(
            store.detect(&cfds).expect("cold scan").canonical_bytes(),
            memory_report.canonical_bytes(),
            "cold store scan diverged at {rows} rows"
        );

        let mut group = c.benchmark_group(format!("store/{rows}"));
        group
            .sample_size(5)
            .measurement_time(Duration::from_secs(if rows >= 40_000 { 15 } else { 5 }));
        group.bench_function("in_memory", |b| {
            b.iter(|| detect_in_memory(&cfds, &data));
        });
        group.bench_function("warm_scan", |b| {
            b.iter(|| store.detect(&cfds).expect("warm scan"));
        });
        group.bench_function("cold_scan", |b| {
            b.iter(|| {
                store.drop_page_cache().expect("drop cache");
                store.detect(&cfds).expect("cold scan")
            });
        });
        group.finish();

        // Hand-timed JSON series (the criterion shim prints text only).
        let iters = if rows >= 40_000 { 3 } else { 10 };
        let in_memory = time_ns_per_iter(iters, || detect_in_memory(&cfds, &data));
        let warm = time_ns_per_iter(iters, || store.detect(&cfds).expect("warm"));
        let cold = time_ns_per_iter(iters, || {
            store.drop_page_cache().expect("drop cache");
            store.detect(&cfds).expect("cold")
        });
        for (series, timing) in [
            ("in_memory", in_memory),
            ("warm_scan", warm),
            ("cold_scan", cold),
        ] {
            report.push(
                Entry::new()
                    .num("rows", rows)
                    .text("series", series)
                    .timing(timing),
            );
        }
        let stats = store.pool_stats();
        println!(
            "store/{rows}: in_memory {} ns/iter, warm {} ns/iter, cold {} ns/iter \
             ({:.2}x over in-memory) [pool: capacity {}, peak {}]",
            in_memory.median_ns,
            warm.median_ns,
            cold.median_ns,
            cold.median_ns as f64 / in_memory.median_ns as f64,
            stats.capacity,
            stats.peak_resident
        );
        assert!(
            stats.peak_resident <= stats.capacity,
            "pool exceeded its budget under the bench workload"
        );

        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    report.write();
}

criterion_group!(benches, bench);
criterion_main!(benches);
