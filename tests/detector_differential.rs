//! Differential test harness across all detector paths.
//!
//! Independent implementations compute the Section 4 violation sets:
//!
//! 1. [`DirectDetector`] — the single-threaded scan over the one kernel;
//! 2. the SQL `QC`/`QV` query pair ([`Detector::detect`]), per CFD;
//! 3. the merged-tableaux SQL path ([`Detector::detect_set_merged`], the
//!    Section 4.2 `CASE`-masked single query pair);
//! 4. [`ShardedDetector`] — hash-partitioned parallel detection;
//! 5. [`DetectorKind::Auto`] — the cost-based adaptive planner, whose every
//!    chosen strategy (direct, sharded, fused-merged, index-driven) must be
//!    invisible in the report;
//! 6. the serving [`Session`](cfd::Session) under every [`DetectorKind`],
//!    over an in-memory relation **and** over a disk-backed store (the same
//!    kernel fed page chunks through a small buffer pool).
//!
//! The SQL paths are the paper's reproduction, reached through `cfd-sql`'s
//! [`Detector`] directly — a differential reference, not a serving engine.
//!
//! On dozens of seeded randomized workloads (deterministic xoshiro256++
//! [`StdRng`], varying size, noise, constants ratio, tableau size and CFD
//! arity) every path must produce the **identical sorted violation set** —
//! compared byte for byte via [`Violations::canonical_bytes`], not merely up
//! to `Eq`. The merged path is exercised per CFD (where its `QV` key space
//! coincides with the per-CFD paths') and additionally on whole sets for its
//! documented weaker guarantee (identical `QC` component, agreeing
//! emptiness).
//!
//! The randomized workloads additionally run through **both** `cfd-repair`
//! engines (the pass-loop heuristic and the equivalence-class engine), and
//! every detector path must agree byte-for-byte on each repaired instance —
//! so the in-place columnar cell edits are differentially checked across
//! every read path, and whenever an engine reports `satisfied`, all four
//! detector paths must report its instance violation-free.
//!
//! The `#[ignore]`d 100k-row case is the CI-sized version of the same
//! harness (`cargo test --release -- --include-ignored`).

use cfd::{Engine, EngineConfig, Error, StorageConfig};
use cfd_core::{Cfd, CfdSet, PatternTableau, PatternTuple, PatternValue};
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::rng::StdRng;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{BatchOp, DetectorKind, DirectDetector, ShardedDetector, Violations};
use cfd_relation::{Relation, Schema, Tuple, Value};
use cfd_repair::{RepairConfig, RepairKind, RepairResult, Repairer};
use cfd_sql::Detector;
use std::sync::Arc;

/// Typed equality (catches value-type divergences Display would erase) plus
/// byte equality of the rendered report (pins the user-visible form).
fn assert_identical(got: &Violations, want: &Violations, what: &str) {
    assert_eq!(got, want, "{what} (typed Eq)");
    assert_eq!(
        got.canonical_bytes(),
        want.canonical_bytes(),
        "{what} (rendered bytes)"
    );
}

/// Runs all four paths on one CFD and asserts byte-identical reports.
fn assert_paths_agree_on_one_cfd(cfd: &Cfd, rel: &Relation, label: &str) -> Violations {
    let direct = DirectDetector::new().detect(cfd, rel);
    let shared = Arc::new(rel.clone());

    let sql = Detector::new()
        .detect_shared(cfd, Arc::clone(&shared))
        .unwrap()
        .0;
    assert_identical(
        &sql,
        &direct,
        &format!("{label}: SQL qc/qv path vs the direct oracle"),
    );

    // A single-CFD merged tableau has the CFD's own X as its attribute
    // union, so even the QV key space must coincide.
    let merged = Detector::new()
        .detect_set_merged(std::slice::from_ref(cfd), Arc::clone(&shared))
        .unwrap();
    assert_identical(
        &merged,
        &direct,
        &format!("{label}: merged-tableaux path vs the direct oracle"),
    );

    for shards in [2, 4] {
        let sharded = ShardedDetector::new(shards).detect(cfd, rel);
        assert_identical(
            &sharded,
            &direct,
            &format!("{label}: sharded path ({shards} shards) vs the direct oracle"),
        );
    }
    assert_prepared_session_agrees(std::slice::from_ref(cfd), rel, label);
    assert_parallel_repair_identical(std::slice::from_ref(cfd), rel, label);
    direct
}

/// A fresh store directory per call (the harness serves hundreds of small
/// workloads from disk).
fn scratch_dir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cfd-differential-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Prepared-vs-oneshot differential: the same workload served through a
/// reused `Engine`/`Session` must report byte-identically per configured
/// `DetectorKind` — over the in-memory relation and over a disk-backed
/// store holding the same rows — and session repairs must be
/// byte-identical to the one-shot engines. Inconsistent rule sets (which
/// the randomized sweep does generate) must be *rejected at build time* —
/// that rejection path is asserted instead.
fn assert_prepared_session_agrees(cfds: &[Cfd], rel: &Relation, label: &str) {
    let consistent = CfdSet::from_cfds(cfds.to_vec())
        .expect("differential workloads share a schema")
        .ensure_consistent()
        .is_ok();
    if !consistent {
        let err = Engine::builder()
            .rules(cfds.iter().cloned())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::InconsistentRules,
            "{label}: inconsistent sets must be rejected at build time"
        );
        return;
    }
    let shared = Arc::new(rel.clone());
    let dir = scratch_dir();
    let rows: Vec<BatchOp> = rel.to_tuples().into_iter().map(BatchOp::Insert).collect();
    for kind in DetectorKind::all(4) {
        let engine = Engine::builder()
            .rules(cfds.iter().cloned())
            .config(
                EngineConfig::builder()
                    .detector(kind)
                    .storage(StorageConfig {
                        pool_pages: 2,
                        ..StorageConfig::default()
                    })
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let mut session = engine.session(Arc::clone(&shared)).unwrap();
        let prepared = session.detect().unwrap();
        let oneshot = kind.detect_set(cfds, rel);
        assert_identical(
            &prepared,
            &oneshot,
            &format!("{label}: prepared session vs one-shot ({kind:?})"),
        );
        // Reuse: a second detect through the cached prepared state.
        let again = session.detect().unwrap();
        assert_identical(
            &again,
            &oneshot,
            &format!("{label}: reused session ({kind:?})"),
        );
        // The first kind populates the store, the others reopen it.
        let mut on_disk = engine.session_on_disk(&dir).unwrap();
        if on_disk.is_empty() {
            on_disk.ingest(&rows).unwrap();
        }
        let disk = on_disk.detect().unwrap();
        assert_identical(
            &disk,
            &oneshot,
            &format!("{label}: disk session vs one-shot ({kind:?})"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Both repair engines through one reused session, byte-identical to the
    // one-shot facade path on the same snapshot.
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .unwrap();
    let mut session = engine.session(Arc::clone(&shared)).unwrap();
    for kind in [RepairKind::Heuristic, RepairKind::EquivClass] {
        let prepared = session.repair(kind).unwrap();
        let oneshot = kind.repair(cfds, rel);
        assert_eq!(
            prepared.modifications, oneshot.modifications,
            "{label}: session {kind:?} modification log"
        );
        assert_eq!(
            prepared.repaired, oneshot.repaired,
            "{label}: session {kind:?} repaired instance"
        );
        assert_eq!(
            prepared.cost, oneshot.cost,
            "{label}: session {kind:?} cost"
        );
        assert_eq!(
            prepared.satisfied, oneshot.satisfied,
            "{label}: session {kind:?} satisfied"
        );
    }
}

/// Parallel-repair differential: the equivalence-class engine at 2, 4 and
/// 8 worker threads must produce **byte-identical** results to the
/// sequential engine — same modification log, same repaired instance, same
/// cost bits, same placeholder spellings, same satisfaction and pass count.
/// `force_parallel` overrides the spawn-amortization clamps so the
/// component-parallel planning and batched-recheck paths genuinely run on
/// these small instances (without it they would silently fall back to the
/// sequential path and the assertions would be vacuous). Goes through
/// [`Repairer`] directly — no engine consistency gate — so inconsistent
/// sets (which force `PinConflict`s and LHS placeholder edits) are
/// exercised too.
fn assert_parallel_repair_identical(cfds: &[Cfd], rel: &Relation, label: &str) -> RepairResult {
    let repair = |threads: usize, force: bool| {
        Repairer::with_config(RepairConfig {
            kind: RepairKind::EquivClass,
            threads,
            force_parallel: force,
            ..RepairConfig::default()
        })
        .repair(cfds, rel)
    };
    let sequential = repair(1, false);
    for threads in [2, 4, 8] {
        let parallel = repair(threads, true);
        assert_eq!(
            parallel.modifications, sequential.modifications,
            "{label}: modification log at {threads} threads"
        );
        assert_eq!(
            parallel.repaired, sequential.repaired,
            "{label}: repaired instance at {threads} threads"
        );
        assert_eq!(
            parallel.cost.to_bits(),
            sequential.cost.to_bits(),
            "{label}: cost bits at {threads} threads"
        );
        assert_eq!(
            parallel.satisfied, sequential.satisfied,
            "{label}: satisfied at {threads} threads"
        );
        assert_eq!(
            parallel.passes, sequential.passes,
            "{label}: pass count at {threads} threads"
        );
    }
    sequential
}

/// Set-level agreement: the per-CFD paths (SQL included)
/// byte-identically, the merged SQL path on its documented
/// guarantee — `QV` keys over the merged `X` union, so only its `QC`
/// component and its emptiness are comparable on multi-CFD sets.
fn assert_paths_agree_on_set(cfds: &[Cfd], rel: &Relation, label: &str) {
    let direct = DirectDetector::new().detect_set(cfds, rel);
    let shared = Arc::new(rel.clone());
    let sql = Detector::new()
        .detect_set(cfds, Arc::clone(&shared))
        .unwrap();
    assert_identical(&sql, &direct, &format!("{label}: SQL set"));
    let sharded = ShardedDetector::new(4).detect_set(cfds, rel);
    assert_identical(&sharded, &direct, &format!("{label}: sharded set"));
    let merged = Detector::new()
        .detect_set_merged(cfds, Arc::clone(&shared))
        .unwrap();
    assert_eq!(
        merged.constant_violations(),
        direct.constant_violations(),
        "{label}: merged set QC"
    );
    assert_eq!(
        merged.is_clean(),
        direct.is_clean(),
        "{label}: merged set emptiness"
    );
    // The DetectorKind dispatch goes through the same engines.
    for kind in DetectorKind::all(4) {
        let got = kind.detect_set(cfds, rel);
        assert_identical(&got, &direct, &format!("{label}: DetectorKind {kind:?}"));
    }
    assert_prepared_session_agrees(cfds, rel, label);
    assert_parallel_repair_identical(cfds, rel, label);
}

/// ≥20 seeded tax workloads sweeping noise, constants ratio and CFD arity.
#[test]
fn tax_workloads_agree_across_all_paths() {
    // (size, noise%, gen seed) × (embedded FD, tableau size, consts%).
    let fds = [
        EmbeddedFd::ZipToState,              // arity 2
        EmbeddedFd::ZipCityToState,          // arity 3
        EmbeddedFd::AreaToCity,              // arity 3
        EmbeddedFd::AreaCityToState,         // arity 4
        EmbeddedFd::StateMaritalToExemption, // arity 3, tax side
    ];
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut cases = 0usize;
    let mut dirty_cases = 0usize;
    for round in 0..8 {
        let size = 300 + rng.gen_range(0usize..500);
        let noise = [0.0, 2.0, 8.0, 15.0][rng.gen_range(0usize..4)];
        let data = TaxGenerator::new(TaxConfig {
            size,
            noise_percent: noise,
            seed: 1000 + round,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(round * 31 + 7);
        for &fd in &fds[..3 + (round as usize % 3)] {
            let tab = 20 + rng.gen_range(0usize..120);
            let consts = [0.0, 40.0, 100.0][rng.gen_range(0usize..3)];
            let cfd = workload.single(fd, tab, consts);
            let label = format!(
                "round {round}, {fd:?}, SZ={size}, NOISE={noise}, TABSZ={tab}, CONSTS={consts}"
            );
            let report = assert_paths_agree_on_one_cfd(&cfd, &data, &label);
            cases += 1;
            if !report.is_clean() {
                dirty_cases += 1;
            }
        }
        // And the whole workload as one set.
        let set: Vec<Cfd> = fds[..3]
            .iter()
            .map(|&fd| workload.single(fd, 40, 60.0))
            .collect();
        assert_paths_agree_on_set(&set, &data, &format!("round {round} set"));
    }
    assert!(
        cases >= 20,
        "harness must sweep at least 20 workloads, got {cases}"
    );
    assert!(
        dirty_cases > 0,
        "the sweep must include workloads with real violations"
    );
}

fn random_schema_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..5) {
        0 => Value::Null,
        i => Value::from(["a", "b", "c", "d"][i - 1]),
    }
}

fn small_schema() -> Schema {
    Schema::builder("r")
        .text("A")
        .text("B")
        .text("C")
        .text("D")
        .build()
}

fn random_cfd(rng: &mut StdRng) -> Cfd {
    let schema = small_schema();
    let (lhs, rhs) = match rng.gen_range(0usize..3) {
        0 => (
            schema.resolve_all(["A"]).unwrap(),
            schema.resolve_all(["C"]).unwrap(),
        ),
        1 => (
            schema.resolve_all(["A", "B"]).unwrap(),
            schema.resolve_all(["C", "D"]).unwrap(),
        ),
        _ => (
            schema.resolve_all(["A", "B", "C"]).unwrap(),
            schema.resolve_all(["D"]).unwrap(),
        ),
    };
    let mut tableau = PatternTableau::new();
    for _ in 0..rng.gen_range(1usize..5) {
        let cell = |rng: &mut StdRng| {
            if rng.gen_bool(0.55) {
                PatternValue::Wildcard
            } else {
                PatternValue::constant(["a", "b", "c", "d"][rng.gen_range(0usize..4)])
            }
        };
        let l: Vec<PatternValue> = (0..lhs.len()).map(|_| cell(rng)).collect();
        let r: Vec<PatternValue> = (0..rhs.len()).map(|_| cell(rng)).collect();
        tableau.push(PatternTuple::new(l, r));
    }
    Cfd::from_parts(schema, lhs, rhs, tableau).unwrap()
}

/// Randomized small relations (NULLs included, collision-heavy alphabet):
/// the adversarial counterpart to the generated workloads. Each workload is
/// additionally pushed through `cfd-repair` once, and every detector path
/// must agree byte-for-byte on the *repaired* instance too — repair edits
/// cells in place through the columnar store, so this differentially checks
/// the post-edit state of the relation across all read paths.
#[test]
fn randomized_relations_agree_across_all_paths() {
    let mut rng = StdRng::seed_from_u64(0x5EED5);
    let mut repaired_clean = 0usize;
    for case in 0..32 {
        let mut rel = Relation::new(small_schema());
        for _ in 0..rng.gen_range(0usize..40) {
            rel.push(Tuple::new(
                (0..4).map(|_| random_schema_value(&mut rng)).collect(),
            ))
            .unwrap();
        }
        let cfd = random_cfd(&mut rng);
        assert_paths_agree_on_one_cfd(&cfd, &rel, &format!("random case {case}"));
        let set = vec![random_cfd(&mut rng), random_cfd(&mut rng)];
        assert_paths_agree_on_set(&set, &rel, &format!("random set {case}"));

        // Repair with both engines, then re-detect on each edited instance:
        // every detector path must agree byte-for-byte on the repaired
        // relations, and a satisfied engine must leave an instance all four
        // paths report as violation-free.
        let mut satisfied_both = true;
        for kind in [RepairKind::Heuristic, RepairKind::EquivClass] {
            let result = kind.repair(&set, &rel);
            assert_eq!(
                result.repaired.len(),
                rel.len(),
                "{kind:?} repair never drops rows"
            );
            assert_paths_agree_on_set(
                &set,
                &result.repaired,
                &format!("random set {case} after {kind:?} repair"),
            );
            satisfied_both &= result.satisfied;
            if result.satisfied {
                assert!(
                    DirectDetector::new()
                        .detect_set(&set, &result.repaired)
                        .is_clean(),
                    "case {case}: satisfied {kind:?} repair must re-detect clean"
                );
            }
        }
        if satisfied_both {
            repaired_clean += 1;
        }
    }
    assert!(
        repaired_clean > 0,
        "the sweep must include workloads both engines fully repair"
    );
}

/// Section 6's motivating shapes, scaled to many groups: workloads whose
/// only resolutions are **LHS placeholder edits** — via structural
/// `PinConflict`s (incompatible pattern constants reaching one merged
/// class) and via cross-CFD oscillation (the `b1→b2→b1` cycle). The
/// parallel planner must reproduce the sequential engine's victim choices
/// and placeholder spellings exactly, at every thread count.
#[test]
fn parallel_repair_agrees_on_pin_conflict_and_lhs_edit_workloads() {
    let schema = Schema::builder("r").text("A").text("B").text("C").build();
    let lhs_a = schema.resolve_all(["A"]).unwrap();
    let lhs_c = schema.resolve_all(["C"]).unwrap();
    let rhs_b = schema.resolve_all(["B"]).unwrap();
    let fd_a_b = Cfd::from_parts(
        schema.clone(),
        lhs_a,
        rhs_b.clone(),
        PatternTableau::from_rows(vec![PatternTuple::new(
            vec![PatternValue::Wildcard],
            vec![PatternValue::Wildcard],
        )]),
    )
    .unwrap();
    let c_pins_b = |pairs: &[(&str, &str)]| {
        Cfd::from_parts(
            schema.clone(),
            lhs_c.clone(),
            rhs_b.clone(),
            PatternTableau::from_rows(
                pairs
                    .iter()
                    .map(|&(c, b)| {
                        PatternTuple::new(
                            vec![PatternValue::constant(c)],
                            vec![PatternValue::constant(b)],
                        )
                    })
                    .collect(),
            ),
        )
        .unwrap()
    };
    let row = |a: String, b: &str, c: &str| {
        Tuple::new(vec![Value::from(a), Value::from(b), Value::from(c)])
    };

    // Shape 1 — structural pin conflicts: each A-group's two rows disagree
    // on B (the FD merges their B-cells into one class) *and* each row
    // violates its own C-pattern (B ≠ the pattern constant), so the merged
    // class is pinned to b1 *and* b2 in the same round. No RHS assignment
    // satisfies both — every group must take an LHS placeholder edit.
    let mut conflicted = Relation::new(schema.clone());
    for i in 0..24 {
        conflicted.push(row(format!("a{i}"), "b8", "c1")).unwrap();
        conflicted.push(row(format!("a{i}"), "b9", "c2")).unwrap();
    }
    let sigma = vec![fd_a_b.clone(), c_pins_b(&[("c1", "b1"), ("c2", "b2")])];
    let result = assert_parallel_repair_identical(&sigma, &conflicted, "pin-conflict workload");
    let lhs_edits = result
        .modifications
        .iter()
        .filter(|m| cfd_relation::placeholder::is_placeholder_value(&m.new))
        .count();
    assert!(
        lhs_edits >= 24,
        "every conflicted group must force an LHS placeholder edit, got {lhs_edits}"
    );
    assert!(result.satisfied, "placeholder edits resolve every conflict");

    // Shape 2 — plain merges with agreeing pins plus noise rows: exercises
    // the parallel planner's pinned and unpinned target selection together
    // (components of very different sizes, balanced-chunk planning).
    let mut mixed = Relation::new(schema.clone());
    for i in 0..30 {
        let b = ["b1", "b2", "b3"][i % 3];
        mixed.push(row(format!("a{}", i / 3), b, "c3")).unwrap();
    }
    for i in 0..6 {
        mixed.push(row(format!("x{i}"), "b9", "c1")).unwrap();
    }
    let sigma = vec![fd_a_b, c_pins_b(&[("c1", "b1")])];
    let result = assert_parallel_repair_identical(&sigma, &mixed, "mixed-merge workload");
    assert!(result.satisfied);
    assert!(
        result.changes() > 0,
        "the mixed workload must require real edits"
    );
}

/// The CI-sized differential run: the 100k-row generated tax workload
/// (`cargo test --release -- --include-ignored`). The SQL paths are bounded
/// to one CFD to keep the job inside minutes; the direct/sharded comparison
/// covers the full set.
#[test]
#[ignore = "100k-row differential sweep; run with --include-ignored (CI job)"]
fn tax_workload_100k_agrees_across_all_paths() {
    let data = TaxGenerator::new(TaxConfig {
        size: 100_000,
        noise_percent: 5.0,
        seed: 424_242,
    })
    .generate()
    .relation;
    assert_eq!(data.len(), 100_000);
    let workload = CfdWorkload::new(99);
    let cfds = vec![
        workload.single(EmbeddedFd::ZipToState, 120, 100.0),
        workload.single(EmbeddedFd::ZipCityToState, 120, 60.0),
        workload.single(EmbeddedFd::AreaToCity, 120, 40.0),
        workload.single(EmbeddedFd::AreaCityToState, 60, 50.0),
    ];
    let direct = DirectDetector::new().detect_set(&cfds, &data);
    assert!(!direct.is_clean(), "5% noise must be detected at 100k rows");
    for shards in [2, 4, 8] {
        let sharded = ShardedDetector::new(shards).detect_set(&cfds, &data);
        assert_identical(
            &sharded,
            &direct,
            &format!("sharded({shards}) vs direct at 100k rows"),
        );
    }
    // The adaptive planner on the full set, one-shot and through a served
    // session (which plans with reusable indexes — potentially a different
    // strategy mix, same report).
    let shared = Arc::new(data.clone());
    let auto = DetectorKind::Auto.detect_set(&cfds, &data);
    assert_identical(&auto, &direct, "Auto one-shot vs direct at 100k rows");
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .config(
            EngineConfig::builder()
                .detector(DetectorKind::Auto)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session = engine.session(Arc::clone(&shared)).unwrap();
    let served = session.detect().unwrap();
    assert_identical(&served, &direct, "Auto session vs direct at 100k rows");
    assert!(
        session.detection_plan().is_some(),
        "an Auto detection must leave its plan for inspection"
    );
    // SQL paths on the first CFD only (bounded runtime).
    assert_paths_agree_on_one_cfd(&cfds[0], &data, "100k ZipToState");

    // Parallel equivalence-class repair at CI scale: 100k rows clear the
    // spawn-amortization floor, so 2/4/8 threads genuinely fan out — and
    // must stay byte-identical to the sequential engine. Two CFDs bound
    // the runtime.
    let repaired = assert_parallel_repair_identical(&cfds[..2], &data, "100k parallel repair");
    assert!(repaired.satisfied, "the 100k tax workload repairs fully");
    assert!(repaired.changes() > 0, "5% noise requires real edits");
}
