//! Adaptive-planner bench: the Fig. 9 workload grid served by every static
//! [`DetectorKind`] plus [`DetectorKind::Auto`], beside the paper's SQL
//! query pairs ([`Detector`]: per-CFD and merged).
//!
//! Five workload profiles sweep the regimes the cost model distinguishes —
//! a tiny constant tableau, a many-group high-cardinality LHS, a same-LHS
//! family of large tableaux (the fused-scan case), a wide-arity CFD and a
//! mixed rule set. Every kind runs through a prepared [`Session`] (so
//! `Auto` amortizes statistics exactly as in serving), the SQL series call
//! [`Detector`] directly, and `Auto`'s report is checked byte-identical to
//! the direct oracle outside the timed region.
//!
//! Besides the harness output, the bench writes
//! `crates/bench/BENCH_planner.json` through [`cfd_bench::report`]: per
//! workload the plan `Auto` chose (per fused step) and the measured ns/iter
//! of every kind (median over the rounds, with min / max) under a host line
//! — committed, and uploaded fresh by CI, to track that the planner stays
//! within a hair of the best static choice while never riding the worst one.

use cfd::{DetectorKind, Engine, EngineConfig, Session};
use cfd_bench::report::{Entry, Report, Timing};
use cfd_core::Cfd;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{available_cores, DirectDetector, Violations};
use cfd_relation::Relation;
use cfd_sql::Detector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Workload {
    name: &'static str,
    data: Arc<Relation>,
    cfds: Vec<Cfd>,
}

fn tax(size: usize, noise: f64, seed: u64) -> Arc<Relation> {
    Arc::new(
        TaxGenerator::new(TaxConfig {
            size,
            noise_percent: noise,
            seed,
        })
        .generate()
        .relation,
    )
}

/// The workload grid (all seeds fixed; every profile carries real noise).
fn grid() -> Vec<Workload> {
    let w = CfdWorkload::new(17);
    vec![
        // A handful of constant patterns over one FD: planning must add
        // nearly nothing to the cheapest scan.
        Workload {
            name: "tiny_tableau",
            data: tax(10_000, 5.0, 101),
            cfds: vec![w.single(EmbeddedFd::ZipToState, 5, 100.0)],
        },
        // High-cardinality 3-attribute LHS: group count approaches the row
        // count, the regime where sharding (on multi-core hosts) or the
        // plain direct scan wins and index-driven iteration loses.
        Workload {
            name: "many_groups",
            data: tax(30_000, 5.0, 102),
            cfds: vec![w.single(EmbeddedFd::AreaCityToState, 40, 30.0)],
        },
        // Four CFDs sharing one LHS with large tableaux: the fused scan
        // hashes the key columns once for the whole family.
        Workload {
            name: "same_lhs_big_tableaux",
            data: tax(20_000, 5.0, 103),
            cfds: (0..4)
                .map(|i| CfdWorkload::new(40 + i).single(EmbeddedFd::ZipToState, 400, 80.0))
                .collect(),
        },
        // One wide-arity CFD with a mid-size tableau.
        Workload {
            name: "wide_arity",
            data: tax(20_000, 8.0, 104),
            cfds: vec![w.single(EmbeddedFd::AreaCityToState, 150, 50.0)],
        },
        // A mixed set over distinct LHSs, the everyday serving profile.
        Workload {
            name: "mixed_set",
            data: tax(15_000, 5.0, 105),
            cfds: vec![
                w.single(EmbeddedFd::ZipToState, 60, 70.0),
                w.single(EmbeddedFd::AreaToCity, 60, 40.0),
                w.single(EmbeddedFd::StateMaritalToExemption, 30, 60.0),
            ],
        },
    ]
}

fn session_for(kind: DetectorKind, cfds: &[Cfd], data: &Arc<Relation>) -> Session {
    Engine::builder()
        .rules(cfds.iter().cloned())
        .config(EngineConfig::builder().detector(kind).build().unwrap())
        .build()
        .unwrap()
        .session(Arc::clone(data))
        .unwrap()
}

/// One timed series: a name and the detection it repeats.
type Series<'a> = (&'static str, Box<dyn FnMut() -> Violations + 'a>);

/// Steady-state ns/iter for every series over one workload, measured
/// **round-robin**: after a warm-up call per series (building the
/// prepared state — plans, indexes, statistics — so the measurement sees
/// the serving steady state), each round times one batch of every kind
/// back to back, and the recorded value is the median batch mean across
/// rounds, the fastest and slowest round beside it. Interleaving matters on
/// a shared host: measuring kinds sequentially lets clock drift and thermal
/// state bias whichever kind runs last, which on this grid is larger than
/// the real gap between the planner and the best static engine. Batch sizes
/// adapt per kind so a round costs roughly a fifth of a second per kind
/// (means absorb timer granularity on microsecond workloads, the median
/// discards interrupted batches).
fn time_detect_all(series: &mut [Series<'_>]) -> Vec<Timing> {
    let iters: Vec<usize> = series
        .iter_mut()
        .map(|(_, detect)| {
            let warmup = Instant::now();
            std::hint::black_box(detect());
            let once = warmup.elapsed().as_nanos().max(1);
            (200_000_000 / once).clamp(3, 5_000) as usize
        })
        .collect();
    // Visit kinds in ascending order of their warm-up estimate: the close
    // competitors (direct / sharded / auto, within small factors of each
    // other) get measured back to back, instead of minutes apart with the
    // seconds-per-iter SQL batches between them — on a shared host that
    // separation alone drifts more than the gap being measured. Alternate
    // the direction each round so no kind always runs in the wake of the
    // same neighbour (the sharded series churns threads, which taxes
    // whatever runs right after it).
    let mut order: Vec<usize> = (0..series.len()).collect();
    order.sort_by_key(|&k| iters[k]);
    order.reverse(); // largest iter count = cheapest kind first
    let mut rounds = vec![Vec::new(); series.len()];
    for round in 0..8 {
        let round_order: Vec<usize> = if round % 2 == 0 {
            order.clone()
        } else {
            order.iter().rev().copied().collect()
        };
        for k in round_order {
            let (_, detect) = &mut series[k];
            let start = Instant::now();
            for _ in 0..iters[k] {
                std::hint::black_box(detect());
            }
            rounds[k].push(start.elapsed().as_nanos() / iters[k] as u128);
        }
    }
    rounds.into_iter().map(Timing::of).collect()
}

/// Compact one-line rendering of an Auto plan: `cfds [..] -> strategy` per
/// fused step.
fn plan_string(session: &Session) -> String {
    let Some(plan) = session.detection_plan() else {
        return String::from("(none)");
    };
    plan.steps()
        .iter()
        .map(|step| format!("cfds {:?} -> {}", step.cfds(), step.strategy()))
        .collect::<Vec<_>>()
        .join("; ")
}

fn bench(c: &mut Criterion) {
    let cores = available_cores();
    let kinds: [(&str, DetectorKind); 3] = [
        ("direct", DetectorKind::Direct),
        (
            "sharded",
            DetectorKind::Sharded {
                shards: cores.max(2),
            },
        ),
        ("auto", DetectorKind::Auto),
    ];
    let mut report = Report::new("planner");

    for workload in grid() {
        // Correctness guard outside the timed region: Auto must be
        // byte-identical to the direct oracle on every profile.
        let oracle = DirectDetector::new().detect_set(&workload.cfds, &workload.data);
        assert!(
            !oracle.is_clean(),
            "{}: the grid must carry real violations",
            workload.name
        );
        let mut planned = session_for(DetectorKind::Auto, &workload.cfds, &workload.data);
        assert_eq!(
            planned.detect().unwrap().canonical_bytes(),
            oracle.canonical_bytes(),
            "{}: Auto diverged from the direct oracle",
            workload.name
        );
        let chosen_plan = plan_string(&planned);

        let mut group = c.benchmark_group(format!("planner/{}", workload.name));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(5));
        let (cfds, data) = (&workload.cfds, &workload.data);
        let sql = Detector::new();
        let mut series: Vec<Series<'_>> = vec![
            (
                "sql",
                Box::new(move || sql.detect_set(cfds, Arc::clone(data)).unwrap()),
            ),
            (
                "sql_merged",
                Box::new(move || sql.detect_set_merged(cfds, Arc::clone(data)).unwrap()),
            ),
        ];
        for (kind_name, kind) in kinds {
            let mut session = session_for(kind, cfds, data);
            series.push((kind_name, Box::new(move || session.detect().unwrap())));
        }
        for (name, detect) in &mut series {
            group.bench_function(*name, |b| b.iter(&mut *detect));
        }
        group.finish();
        // Hand-timed series for the JSON artifact (the criterion shim
        // prints text only).
        let measured = time_detect_all(&mut series);
        let entry = |kind: &str| {
            Entry::new()
                .text("workload", workload.name)
                .text("kind", kind)
        };
        for ((kind_name, _), timing) in series.iter().zip(measured) {
            report.push(entry(kind_name).timing(timing));
        }
        report.push(entry("auto_plan").text("plan", &chosen_plan));
        println!("planner/{}: auto plan = {chosen_plan}", workload.name);
    }

    report.write();
}

criterion_group!(benches, bench);
criterion_main!(benches);
