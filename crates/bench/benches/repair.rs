//! Repair-engine bench: the full-rescan pass loop vs the equivalence-class
//! engine with incremental violation maintenance.
//!
//! The workload is the noisy tax-records generator at 10k and 100k rows
//! (5% noise) under two CFDs with real repair work of both kinds:
//! `zip_state_full` (all-constant tableau — single-tuple pins) and an
//! `AreaToCity` constant CFD (pins plus multi-tuple merges on collisions).
//!
//! * `heuristic` — [`RepairKind::Heuristic`]: every pass re-runs
//!   `cfd.violations(rel)` from scratch for every CFD
//!   (`O(passes × |Σ| × |I|)`);
//! * `equiv_class` — [`RepairKind::EquivClass`]: one seeding detection pass,
//!   then per-`GROUP BY X`-group re-checks of only the groups each edit
//!   touched.
//!
//! At 100k rows the class engine additionally runs a **worker-thread
//! sweep** (1/2/4/8 threads, `equiv_class_t{n}` series with
//! `speedup_vs_t1`) — the component-parallel planning and batched-recheck
//! paths must be byte-identical to the sequential engine at every budget,
//! asserted outside the timed region.
//!
//! Outside the timed region the bench asserts both engines terminate with
//! instances that every detector path reports as violation-free, and that
//! the class engine is byte-deterministic across runs. Besides the harness
//! output it writes `crates/bench/BENCH_repair.json` through
//! [`cfd_bench::report`] — `{rows, series, ns_per_iter (median), min_ns,
//! max_ns, samples, speedup}` records under a host line — which CI uploads
//! as an artifact.

use cfd_bench::report::{time_ns_per_iter, Entry, Report};
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{DirectDetector, ShardedDetector};
use cfd_repair::{RepairConfig, RepairKind, Repairer};
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let workload = CfdWorkload::new(11);
    let cfds = vec![
        workload.zip_state_full(),
        workload.single(EmbeddedFd::AreaToCity, 300, 100.0),
    ];
    let mut report = Report::new("repair");

    for rows in [10_000usize, 100_000] {
        let noisy = TaxGenerator::new(TaxConfig {
            size: rows,
            noise_percent: 5.0,
            seed: 1234,
        })
        .generate()
        .relation;
        assert!(
            cfds.iter().any(|c| !c.satisfied_by(&noisy)),
            "workload must carry violations at {rows} rows"
        );

        // Sanity outside the timed region: both engines leave instances that
        // the direct, SQL, merged and sharded detector paths all report as
        // violation-free, and the class engine is deterministic.
        let heuristic = RepairKind::Heuristic.repair(&cfds, &noisy);
        let class = RepairKind::EquivClass.repair(&cfds, &noisy);
        for (name, result) in [("heuristic", &heuristic), ("equiv_class", &class)] {
            assert!(result.satisfied, "{name} must converge at {rows} rows");
            let repaired = Arc::new(result.repaired.clone());
            assert!(DirectDetector::new()
                .detect_set(&cfds, &repaired)
                .is_clean());
            assert!(ShardedDetector::new(4)
                .detect_set(&cfds, &repaired)
                .is_clean());
            let sql = Detector::new()
                .detect_set(&cfds, Arc::clone(&repaired))
                .unwrap();
            assert!(sql.is_clean(), "{name}: SQL path found residue");
            let merged = Detector::new().detect_set_merged(&cfds, repaired).unwrap();
            assert!(merged.is_clean(), "{name}: merged path found residue");
        }
        let again = RepairKind::EquivClass.repair(&cfds, &noisy);
        assert_eq!(again.modifications, class.modifications);
        assert_eq!(again.repaired, class.repaired);

        let mut group = c.benchmark_group(format!("repair/{rows}"));
        group
            .sample_size(if rows >= 100_000 { 3 } else { 10 })
            .measurement_time(Duration::from_secs(if rows >= 100_000 { 30 } else { 10 }));
        group.bench_function("heuristic", |b| {
            b.iter(|| RepairKind::Heuristic.repair(&cfds, &noisy));
        });
        group.bench_function("equiv_class", |b| {
            b.iter(|| RepairKind::EquivClass.repair(&cfds, &noisy));
        });
        group.finish();

        // Hand-timed JSON series (the criterion shim prints text only).
        let iters = if rows >= 100_000 { 3 } else { 10 };
        let heuristic_t = time_ns_per_iter(iters, || RepairKind::Heuristic.repair(&cfds, &noisy));
        let class_t = time_ns_per_iter(iters, || RepairKind::EquivClass.repair(&cfds, &noisy));
        let speedup = heuristic_t.median_ns as f64 / class_t.median_ns as f64;
        let series = |name: &str| Entry::new().num("rows", rows).text("series", name);
        report.push(series("heuristic").timing(heuristic_t));
        report.push(
            series("equiv_class")
                .timing(class_t)
                .num("speedup_vs_heuristic", format!("{speedup:.2}")),
        );
        println!(
            "repair/{rows}: heuristic {} ns/iter, equiv_class {} ns/iter ({speedup:.2}x)",
            heuristic_t.median_ns, class_t.median_ns
        );

        // Worker-thread sweep of the class engine, 100k only: 10k rows sit
        // below the spawn-amortization floor, where every budget runs the
        // identical sequential path. Byte-identity across the sweep is
        // asserted outside the timed region; `speedup_vs_t1` is the
        // parallel-efficiency number CI tracks.
        if rows >= 100_000 {
            let repair_at = |threads: usize| {
                Repairer::with_config(RepairConfig {
                    kind: RepairKind::EquivClass,
                    threads,
                    ..RepairConfig::default()
                })
                .repair(&cfds, &noisy)
            };
            let baseline = repair_at(1);
            assert_eq!(baseline.modifications, class.modifications);
            assert_eq!(baseline.repaired, class.repaired);
            let mut t1_ns = 0u128;
            for threads in [1usize, 2, 4, 8] {
                let sweep = repair_at(threads);
                assert_eq!(
                    sweep.modifications, baseline.modifications,
                    "parallel repair at {threads} threads must be byte-identical"
                );
                assert_eq!(sweep.repaired, baseline.repaired);
                let timing = time_ns_per_iter(iters, || repair_at(threads));
                let ns = timing.median_ns;
                if threads == 1 {
                    t1_ns = ns;
                }
                let speedup = t1_ns as f64 / ns as f64;
                report.push(
                    series(&format!("equiv_class_t{threads}"))
                        .timing(timing)
                        .num("speedup_vs_t1", format!("{speedup:.2}")),
                );
                println!(
                    "repair/{rows}: equiv_class_t{threads} {ns} ns/iter \
                     ({speedup:.2}x vs t1)"
                );
            }
        }
    }

    report.write();
}

criterion_group!(benches, bench);
criterion_main!(benches);
