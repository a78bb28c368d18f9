//! Prepared-engine amortization bench: repeated small-batch serving through
//! a reused `Engine`/`Session` vs the one-shot facade path.
//!
//! The workload is the acceptance scenario of the API redesign: **100
//! batches of 1 000 tax records each** (5% noise) under two CFDs
//! (`ZipToState`, `AreaToCity`), asking after every batch "what are the
//! violations now?".
//!
//! * `oneshot` — what the pre-redesign facade forced on every batch:
//!   rebuild the accumulated relation, call `cfd::detect_violations`
//!   (which re-validates consistency, re-builds every LHS index) and
//!   re-scan all rows seen so far —
//!   `O(Σ_k k·B) = O(N²/2B)` row scans over the stream;
//! * `prepared` — the redesign: one `Engine` compiled up front, one
//!   `Session`, each batch absorbed by `Session::apply_batch` with
//!   group-local incremental maintenance returning the full report —
//!   `O(batch + touched groups)` per batch.
//!
//! Outside the timed region the bench asserts the two paths report
//! **byte-identically after every batch**, and additionally that a reused
//! session's `detect()` matches the one-shot `Direct`/`Sharded` paths and
//! the merged SQL pair (`Detector`) on the final instance. A second pair measures repeated
//! repair of a fixed 10k-row noisy instance through a reused session
//! (shared LHS indexes) vs the one-shot `repair_violations` path.
//!
//! Besides the harness output it writes `crates/bench/BENCH_prepared.json`
//! — machine-readable `{series, ns_per_iter, speedup}` records — which CI
//! uploads next to the repair artifact.

use cfd::prelude::*;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 100;
const BATCH_ROWS: usize = 1_000;

fn workload_cfds() -> Vec<Cfd> {
    let w = CfdWorkload::new(11);
    vec![
        w.single(EmbeddedFd::ZipToState, 120, 100.0),
        w.single(EmbeddedFd::AreaToCity, 100, 60.0),
    ]
}

/// The stream: 100 × 1k-row batches, pre-split so neither series pays
/// generation inside the timed region.
fn stream_batches() -> (Schema, Vec<Vec<Tuple>>) {
    let all = TaxGenerator::new(TaxConfig {
        size: BATCHES * BATCH_ROWS,
        noise_percent: 5.0,
        seed: 77,
    })
    .generate()
    .relation;
    let schema = all.schema().clone();
    let tuples = all.to_tuples();
    let batches = tuples.chunks(BATCH_ROWS).map(<[Tuple]>::to_vec).collect();
    (schema, batches)
}

/// One full sweep of the one-shot path: per batch, rebuild the accumulated
/// relation and run the free-function facade detection.
fn oneshot_sweep(schema: &Schema, batches: &[Vec<Tuple>], cfds: &[Cfd]) -> Violations {
    let mut accumulated: Vec<Tuple> = Vec::new();
    let mut last = Violations::new();
    for batch in batches {
        accumulated.extend(batch.iter().cloned());
        let rel = Relation::from_rows(schema.clone(), accumulated.clone())
            .expect("stream tuples match the schema");
        last = cfd::detect_violations(DetectorKind::Direct, cfds, Arc::new(rel))
            .expect("one-shot detection succeeds");
    }
    last
}

/// One full sweep of the prepared path: one engine + session, every batch
/// absorbed with incremental maintenance.
fn prepared_sweep(engine: &Engine, schema: &Schema, batches: &[Vec<Tuple>]) -> Violations {
    let mut session = engine
        .session(Arc::new(Relation::new(schema.clone())))
        .expect("schema matches");
    let mut last = Violations::new();
    for batch in batches {
        let ops: Vec<BatchOp> = batch.iter().cloned().map(BatchOp::Insert).collect();
        last = session.apply_batch(&ops).expect("batch applies");
    }
    last
}

/// Times `f` over `iters` iterations (after one warm-up call), returning the
/// mean ns/iter — the number recorded in `BENCH_prepared.json`.
fn time_ns_per_iter<T>(iters: usize, mut f: impl FnMut() -> T) -> u128 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() / iters as u128
}

fn bench(c: &mut Criterion) {
    let cfds = workload_cfds();
    let (schema, batches) = stream_batches();
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .expect("consistent rules");

    // Correctness outside the timed region: byte-identical reports after
    // EVERY batch, across both serving paths.
    {
        let mut session = engine
            .session(Arc::new(Relation::new(schema.clone())))
            .unwrap();
        let mut accumulated: Vec<Tuple> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let ops: Vec<BatchOp> = batch.iter().cloned().map(BatchOp::Insert).collect();
            let prepared = session.apply_batch(&ops).unwrap();
            accumulated.extend(batch.iter().cloned());
            let rel = Relation::from_rows(schema.clone(), accumulated.clone()).unwrap();
            let oneshot =
                cfd::detect_violations(DetectorKind::Direct, &cfds, Arc::new(rel)).unwrap();
            assert_eq!(prepared, oneshot, "batch {i}: prepared vs one-shot");
            assert_eq!(
                prepared.canonical_bytes(),
                oneshot.canonical_bytes(),
                "batch {i}: rendered bytes"
            );
        }
        assert!(
            !session.detect().unwrap().is_clean(),
            "the stream must carry violations"
        );
        // The reused session's configured detector agrees with every
        // one-shot engine on the final instance (Direct/Sharded byte-
        // identical; the multi-CFD merged path on its documented QC
        // guarantee).
        let final_rel = Arc::new(Relation::from_rows(schema.clone(), accumulated).unwrap());
        let session_report = session.detect().unwrap();
        for kind in [DetectorKind::Direct, DetectorKind::Sharded { shards: 4 }] {
            let oneshot = cfd::detect_violations(kind, &cfds, Arc::clone(&final_rel)).unwrap();
            assert_eq!(
                session_report.canonical_bytes(),
                oneshot.canonical_bytes(),
                "final instance, {kind:?}"
            );
        }
        let merged = Detector::new()
            .detect_set_merged(&cfds, Arc::clone(&final_rel))
            .unwrap();
        assert_eq!(
            session_report.constant_violations(),
            merged.constant_violations(),
            "final instance, merged QC"
        );
        assert_eq!(session_report.is_clean(), merged.is_clean());
    }

    let mut group = c.benchmark_group(format!("prepared/{BATCHES}x{BATCH_ROWS}"));
    group
        .sample_size(3)
        .measurement_time(Duration::from_secs(30));
    group.bench_function("oneshot", |b| {
        b.iter(|| oneshot_sweep(&schema, &batches, &cfds));
    });
    group.bench_function("prepared", |b| {
        b.iter(|| prepared_sweep(&engine, &schema, &batches));
    });
    group.finish();

    // Hand-timed JSON series (the criterion shim prints text only).
    let oneshot_ns = time_ns_per_iter(3, || oneshot_sweep(&schema, &batches, &cfds));
    let prepared_ns = time_ns_per_iter(3, || prepared_sweep(&engine, &schema, &batches));
    let speedup = oneshot_ns as f64 / prepared_ns as f64;
    println!(
        "prepared/{BATCHES}x{BATCH_ROWS}: oneshot {oneshot_ns} ns/iter, \
         prepared {prepared_ns} ns/iter ({speedup:.2}x)"
    );

    // Second pair: repeated repair of a fixed noisy instance through a
    // reused session vs the one-shot facade path (10 repairs per iter).
    let noisy = Arc::new(
        TaxGenerator::new(TaxConfig {
            size: 10_000,
            noise_percent: 5.0,
            seed: 1234,
        })
        .generate()
        .relation,
    );
    {
        let mut session = engine.session(Arc::clone(&noisy)).unwrap();
        let prepared = session.repair(RepairKind::EquivClass).unwrap();
        let oneshot =
            cfd::repair_violations(RepairKind::EquivClass, &cfds, Arc::clone(&noisy)).unwrap();
        assert!(prepared.satisfied && oneshot.satisfied);
        assert_eq!(prepared.modifications, oneshot.modifications);
        assert_eq!(prepared.repaired, oneshot.repaired);
    }
    let repair_oneshot_ns = time_ns_per_iter(3, || {
        for _ in 0..10 {
            std::hint::black_box(
                cfd::repair_violations(RepairKind::EquivClass, &cfds, Arc::clone(&noisy)).unwrap(),
            );
        }
    });
    let repair_prepared_ns = time_ns_per_iter(3, || {
        let mut session = engine.session(Arc::clone(&noisy)).unwrap();
        for _ in 0..10 {
            std::hint::black_box(session.repair(RepairKind::EquivClass).unwrap());
        }
    });
    let repair_speedup = repair_oneshot_ns as f64 / repair_prepared_ns as f64;
    println!(
        "prepared/repair10x10k: oneshot {repair_oneshot_ns} ns/iter, \
         prepared {repair_prepared_ns} ns/iter ({repair_speedup:.2}x)"
    );

    // BENCH_prepared.json: one JSON document, entries in measurement order.
    let mut json = String::from("{\n  \"bench\": \"prepared\",\n  \"entries\": [\n");
    let entries = [
        format!(
            "{{\"workload\": \"detect_{BATCHES}x{BATCH_ROWS}\", \"series\": \"oneshot\", \
             \"ns_per_iter\": {oneshot_ns}}}"
        ),
        format!(
            "{{\"workload\": \"detect_{BATCHES}x{BATCH_ROWS}\", \"series\": \"prepared\", \
             \"ns_per_iter\": {prepared_ns}, \"speedup_vs_oneshot\": {speedup:.2}}}"
        ),
        format!(
            "{{\"workload\": \"repair10x10k\", \"series\": \"oneshot\", \
             \"ns_per_iter\": {repair_oneshot_ns}}}"
        ),
        format!(
            "{{\"workload\": \"repair10x10k\", \"series\": \"prepared\", \
             \"ns_per_iter\": {repair_prepared_ns}, \"speedup_vs_oneshot\": {repair_speedup:.2}}}"
        ),
    ];
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "    {e}{sep}");
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_prepared.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
