//! Integration tests of the disk-backed session path
//! ([`Engine::session_on_disk`]): backend transparency (disk vs. memory,
//! byte-identical reports across every detector kind and across chunk
//! seams), failure-atomic batch rejection, stale-repair refusal (across a
//! reopen too), commit cost independent of the instance size, bounded page
//! memory on workloads far larger than the buffer pool, and the
//! kill-and-recover harness (a child process `abort()`ed mid-stream must
//! recover to a byte-identical report).

mod common;

use cfd::prelude::*;
use cfd::{RepairKind, StorageConfig};
use cfd_datagen::cust::{cust_instance, fig2_cfd_set};
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::rng::StdRng;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::DirectDetector;
use cfd_relation::Relation;
use cfd_sql::Detector;
use common::{random_batch, random_cfd, random_tuple};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cfd-store-backend-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tax_cfds(seed: u64) -> Vec<Cfd> {
    let workload = CfdWorkload::new(seed);
    [
        EmbeddedFd::ZipToState,
        EmbeddedFd::AreaToCity,
        EmbeddedFd::StateMaritalToExemption,
    ]
    .iter()
    .map(|&fd| workload.single(fd, 40, 60.0))
    .collect()
}

fn insert_ops(data: &Relation) -> Vec<BatchOp> {
    data.to_tuples().into_iter().map(BatchOp::Insert).collect()
}

/// Satellite regression: a rejected batch must not cost the session its
/// prepared state — in particular the cached detection plan of
/// [`DetectorKind::Auto`] must survive, because validation happens before
/// any mutation or cache invalidation.
#[test]
fn a_rejected_batch_preserves_the_cached_detection_plan() {
    let engine = Engine::builder()
        .rule_set(fig2_cfd_set())
        .config(
            EngineConfig::builder()
                .detector(DetectorKind::Auto)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session = engine.session(Arc::new(cust_instance())).unwrap();
    let before = session.detect().unwrap();
    let plan = session.detection_plan().expect("Auto detect caches a plan");
    let steps_before = plan.steps().len();

    let err = session
        .apply_batch(&[BatchOp::Insert(Tuple::nulls(2))])
        .unwrap_err();
    assert!(matches!(err, Error::Relation(_)), "got {err:?}");

    // The plan (and everything else prepared) survived the rejection.
    let plan = session
        .detection_plan()
        .expect("a rejected batch must not clear the cached plan");
    assert_eq!(plan.steps().len(), steps_before);
    let after = session.detect().unwrap();
    assert_eq!(before.canonical_bytes(), after.canonical_bytes());
}

/// The disk path shares the same contract: rejection commits nothing,
/// invalidates nothing, and the in-memory error variant is raised.
#[test]
fn a_rejected_batch_on_a_disk_session_commits_nothing() {
    let dir = scratch_dir("reject");
    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    let mut session = engine.session_on_disk(&dir).unwrap();
    session.apply_batch(&insert_ops(&cust_instance())).unwrap();
    let before = session.detect().unwrap();
    assert_eq!(session.committed_batches(), Some(1));

    let err = session
        .apply_batch(&[
            BatchOp::Insert(cust_instance().to_tuples()[0].clone()),
            BatchOp::Insert(Tuple::nulls(3)),
        ])
        .unwrap_err();
    // Identical variant to the in-memory rejection: backend-transparent
    // even in how a malformed batch fails.
    assert!(matches!(err, Error::Relation(_)), "got {err:?}");
    assert_eq!(session.committed_batches(), Some(1));
    assert_eq!(session.len(), cust_instance().len());
    let after = session.detect().unwrap();
    assert_eq!(before.canonical_bytes(), after.canonical_bytes());
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: the previews validate arity like `apply_batch`
/// does. A short tuple used to index out of bounds inside
/// `Tuple::project_ids` (a panic on a public `Result` API) and a long one was
/// silently accepted; both are now the typed arity error on either backing,
/// and the refusal costs the session nothing — instance, report, cached plan
/// and commit count are as before, and a well-formed preview still answers.
#[test]
fn malformed_preview_tuples_are_refused_on_both_backings() {
    use cfd_relation::RelationError;
    let dir = scratch_dir("preview-arity");
    let engine = Engine::builder()
        .rule_set(fig2_cfd_set())
        .config(
            EngineConfig::builder()
                .detector(DetectorKind::Auto)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let base = cust_instance();
    let arity = base.schema().arity();
    let memory = engine.session(Arc::new(base.clone())).unwrap();
    let mut disk = engine.session_on_disk(&dir).unwrap();
    disk.apply_batch(&insert_ops(&base)).unwrap();

    for mut session in [memory, disk] {
        let label = if session.is_disk_backed() {
            "disk"
        } else {
            "memory"
        };
        let before = session.detect().unwrap();
        let plan_steps = session.detection_plan().map(|p| p.steps().len());
        let commits = session.committed_batches();
        let good = base.to_tuples()[0].clone();
        for got in [arity - 1, arity + 1, 0] {
            let batch = [good.clone(), Tuple::nulls(got)];
            for refused in [
                session.preview_insertions(&batch),
                session.preview_deletions(&batch),
            ] {
                match refused {
                    Err(Error::Relation(RelationError::ArityMismatch { expected, got: g })) => {
                        assert_eq!((expected, g), (arity, got), "{label}");
                    }
                    other => panic!("{label}: arity {got} must be refused, got {other:?}"),
                }
            }
        }
        assert_eq!(session.len(), base.len(), "{label}");
        assert_eq!(session.committed_batches(), commits, "{label}");
        assert_eq!(
            session.detection_plan().map(|p| p.steps().len()),
            plan_steps,
            "{label}: a refused preview must not clear the cached plan"
        );
        let after = session.detect().unwrap();
        assert_eq!(before.canonical_bytes(), after.canonical_bytes(), "{label}");
        let resolved = session
            .preview_deletions(std::slice::from_ref(&good))
            .unwrap();
        assert_eq!(resolved.constant_violations().len(), 1, "{label}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Differential harness over the disk path: for every detector kind, a
/// disk-backed session (the scan kernel fed page chunks through an 8-page
/// pool) must report byte-identically to an in-memory session over the
/// same instance, and to the paper's SQL query pairs.
#[test]
fn disk_and_memory_sessions_agree_across_every_detector_kind() {
    let dir = scratch_dir("differential");
    let data = TaxGenerator::new(TaxConfig {
        size: 1_500,
        noise_percent: 8.0,
        seed: 77,
    })
    .generate()
    .relation;
    let cfds = tax_cfds(7);
    let sql = Detector::new()
        .detect_set(&cfds, Arc::new(data.clone()))
        .unwrap();
    let mut populated = false;
    let mut dirty = false;
    for kind in DetectorKind::all(4) {
        let engine = Engine::builder()
            .rules(cfds.iter().cloned())
            .config(
                EngineConfig::builder()
                    .detector(kind)
                    .storage(StorageConfig {
                        pool_pages: 8,
                        ..StorageConfig::default()
                    })
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let memory = engine
            .session(Arc::new(data.clone()))
            .unwrap()
            .detect()
            .unwrap();
        // One shared store directory: the first kind populates it, every
        // later kind reopens it — so this also sweeps clean recovery.
        let mut session = engine.session_on_disk(&dir).unwrap();
        if !populated {
            session.apply_batch(&insert_ops(&data)).unwrap();
            populated = true;
        }
        let disk = session.detect().unwrap();
        assert_eq!(
            memory.canonical_bytes(),
            disk.canonical_bytes(),
            "disk vs memory report with {kind:?}"
        );
        assert_eq!(
            sql.canonical_bytes(),
            disk.canonical_bytes(),
            "disk report with {kind:?} vs the SQL query pairs"
        );
        dirty |= !disk.is_clean();
    }
    assert!(dirty, "the workload must contain real violations");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chunked store scan against an in-memory mirror when the edits sit
/// on the chunk seams: deletes and `set_cells` edits straddling a
/// `PAGE_CELLS` boundary, one chunk entirely dead, a ragged last chunk, and
/// a 2-page pool far smaller than one CFD's column set × chunk count.
#[test]
fn dead_slots_and_cell_edits_across_chunk_boundaries_match_a_memory_mirror() {
    use cfd::store::{ColumnStore, StoreOptions, PAGE_CELLS};
    let dir = scratch_dir("seams");
    let schema = Schema::builder("seams")
        .text("ID")
        .text("A")
        .text("B")
        .text("C")
        .build();
    // A → B holds except on every 97th row; (A = a7) pins C = c7.
    let row = |i: usize| {
        let b = if i.is_multiple_of(97) { i % 5 } else { i % 40 };
        Tuple::new(vec![
            Value::from(format!("id{i}")),
            Value::from(format!("a{}", i % 40)),
            Value::from(format!("b{b}")),
            Value::from(format!("c{}", i % 9)),
        ])
    };
    let cfds = vec![
        Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap(),
        Cfd::builder(schema.clone(), ["A"], ["C"])
            .pattern(["a7"], ["c7"])
            .pattern(["_"], ["_"])
            .build()
            .unwrap(),
    ];
    let slots = 3 * PAGE_CELLS + 500;
    let mut mirror: Vec<Option<Tuple>> = (0..slots).map(|i| Some(row(i))).collect();
    let opts = StoreOptions {
        pool_pages: 2,
        ..StoreOptions::default()
    };
    let mut store = ColumnStore::open_or_create(&dir, &schema, opts).unwrap();
    let inserts: Vec<BatchOp> = mirror
        .iter()
        .flatten()
        .cloned()
        .map(BatchOp::Insert)
        .collect();
    store.apply_batch(&inserts).unwrap();

    // Deletes: a run across the first seam (sparing slots 1023 and 1024),
    // and all of chunk 2.
    let seam = PAGE_CELLS;
    let dead: Vec<usize> = (seam - 6..seam - 1)
        .chain(seam + 1..seam + 7)
        .chain(2 * PAGE_CELLS..3 * PAGE_CELLS)
        .collect();
    let deletes: Vec<BatchOp> = dead
        .iter()
        .map(|&i| BatchOp::Delete(mirror[i].take().unwrap()))
        .collect();
    store.apply_batch(&deletes).unwrap();
    // Cell edits on both sides of the seam and of the dead chunk: each
    // moves its row into another A-group with a disagreeing B.
    let mut edits = Vec::new();
    for (i, a) in [(seam - 1, "a7"), (seam, "a8"), (3 * PAGE_CELLS, "a7")] {
        let mut cells = mirror[i].take().unwrap().to_values();
        cells[1] = Value::from(a);
        mirror[i] = Some(Tuple::new(cells));
        edits.push((i as u64, 1u32, Value::from(a)));
    }
    store.set_cells(&edits).unwrap();

    let mut memory = Relation::new(schema);
    for tuple in mirror.iter().flatten() {
        memory.push(tuple.clone()).unwrap();
    }
    let want = DirectDetector::new().detect_set(&cfds, &memory);
    assert!(!want.constant_violations().is_empty() && !want.multi_tuple_keys().is_empty());
    let got = store.detect(&cfds).unwrap();
    assert_eq!(got.canonical_bytes(), want.canonical_bytes());
    assert_eq!(store.materialize().unwrap(), memory);
    let stats = store.pool_stats();
    assert!(
        stats.evictions > 0,
        "4 chunks × 2 columns cannot fit 2 pages"
    );
    assert!(stats.peak_resident <= stats.capacity);
    drop(store);

    // The same store through a reopened disk session.
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .config(
            EngineConfig::builder()
                .storage(StorageConfig {
                    pool_pages: 2,
                    ..StorageConfig::default()
                })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session = engine.session_on_disk(&dir).unwrap();
    let served = session.detect().unwrap();
    assert_eq!(served.canonical_bytes(), want.canonical_bytes());
    let stats = session.pool_stats().unwrap();
    assert!(stats.peak_resident <= stats.capacity);
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `RepairResult` that outlived the instance it was computed against is
/// refused with a typed error before anything is edited — on both
/// backings.
#[test]
fn a_stale_repair_result_is_refused_on_both_backings() {
    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    for disk in [false, true] {
        let dir = scratch_dir("stale");
        let mut session = if disk {
            let mut session = engine.session_on_disk(&dir).unwrap();
            session.apply_batch(&insert_ops(&cust_instance())).unwrap();
            session
        } else {
            engine.session(Arc::new(cust_instance())).unwrap()
        };
        let stale = session.repair(RepairKind::EquivClass).unwrap();
        assert!(!stale.modifications.is_empty());
        let extra = cust_instance().to_tuples()[0].clone();
        let report = session.apply_batch(&[BatchOp::Insert(extra)]).unwrap();
        assert!(!report.is_clean());
        let committed = session.committed_batches();

        let err = session.commit_repair(&stale).unwrap_err();
        assert!(
            matches!(err, Error::StaleResult { result, session } if result < session),
            "disk={disk}: got {err:?}"
        );
        assert_eq!(session.committed_batches(), committed, "disk={disk}");
        assert_eq!(
            session.detect().unwrap().canonical_bytes(),
            report.canonical_bytes(),
            "disk={disk}: a refused commit must not touch the instance"
        );

        // Repairing again against the current instance commits fine.
        let fresh = session.repair(RepairKind::EquivClass).unwrap();
        assert!(session.commit_repair(&fresh).unwrap().is_clean());
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A `RepairResult` names rows of the instance it was computed on, so a
/// reopen must not make it current again. A disk session counts the store's
/// durable commits: a result from before the reopen is stale once the
/// reopened session has committed, and still current if it has not.
#[test]
fn a_repair_result_does_not_outlive_a_reopen_that_commits() {
    let dir = scratch_dir("reopen-stale");
    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    let tuples = cust_instance().to_tuples();
    let mut first = engine.session_on_disk(&dir).unwrap();
    first.apply_batch(&insert_ops(&cust_instance())).unwrap();
    first
        .apply_batch(&[BatchOp::Insert(tuples[2].clone())])
        .unwrap();
    let old = first.repair(RepairKind::EquivClass).unwrap();
    assert!(!old.modifications.is_empty());
    assert_eq!(old.generation, 2);
    drop(first);

    // Reopened, two commits on: the old result's rows may name other
    // tuples now, and it is refused before anything is edited.
    let mut second = engine.session_on_disk(&dir).unwrap();
    assert_eq!(second.committed_batches(), Some(2));
    for tuple in &tuples[..2] {
        second
            .apply_batch(&[BatchOp::Insert(tuple.clone())])
            .unwrap();
    }
    let report = second.detect().unwrap();
    let err = second.commit_repair(&old).unwrap_err();
    assert!(
        matches!(
            err,
            Error::StaleResult {
                result: 2,
                session: 4
            }
        ),
        "got {err:?}"
    );
    assert_eq!(second.committed_batches(), Some(4));
    assert_eq!(
        second.detect().unwrap().canonical_bytes(),
        report.canonical_bytes()
    );

    // A reopen that commits nothing leaves the instance, and the result,
    // as they were.
    let current = second.repair(RepairKind::EquivClass).unwrap();
    drop(second);
    let mut third = engine.session_on_disk(&dir).unwrap();
    assert!(third.commit_repair(&current).unwrap().is_clean());
    assert_eq!(third.committed_batches(), Some(5));
    drop(third);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commit cost in the engine's own units rather than wall clock: once the
/// first batch has built the maintained report, a 64-op commit (48 inserts
/// and 16 deletes of tuples the previous batch inserted) costs the same
/// buffer-pool accesses over 4k rows as over 64k — it touches the batch,
/// not the instance — and every report it returns equals a full scan of
/// the same session.
#[test]
fn a_disk_commit_costs_the_same_pool_accesses_at_4k_and_64k_rows() {
    const INSERTS: usize = 48;
    const DELETES: usize = 16;
    const COMMITS: usize = 8;
    let fresh = TaxGenerator::new(TaxConfig {
        size: (COMMITS + 1) * INSERTS,
        noise_percent: 5.0,
        seed: 404,
    })
    .generate()
    .relation
    .to_tuples();
    let accesses_per_commit = |rows: usize| {
        let dir = scratch_dir(&format!("commit-cost-{rows}"));
        let base = TaxGenerator::new(TaxConfig {
            size: rows,
            noise_percent: 5.0,
            seed: 17,
        })
        .generate()
        .relation
        .to_tuples();
        let config = EngineConfig::builder()
            .storage(StorageConfig {
                pool_pages: 64,
                ..StorageConfig::default()
            })
            .build()
            .unwrap();
        let engine = Engine::builder()
            .rules(tax_cfds(2))
            .config(config)
            .build()
            .unwrap();
        let mut session = engine.session_on_disk(&dir).unwrap();
        for chunk in base.chunks(4096) {
            let ops: Vec<BatchOp> = chunk.iter().cloned().map(BatchOp::Insert).collect();
            session.ingest(&ops).unwrap();
        }
        session.checkpoint().unwrap();
        let mut accesses = 0;
        for i in 0..=COMMITS {
            // Batch 0 deletes base rows and is the warm-up.
            let deletes = match i {
                0 => &base[rows - DELETES..],
                _ => &fresh[(i - 1) * INSERTS..][..DELETES],
            };
            let inserts = fresh[i * INSERTS..][..INSERTS].iter().cloned();
            let ops: Vec<BatchOp> = inserts
                .map(BatchOp::Insert)
                .chain(deletes.iter().cloned().map(BatchOp::Delete))
                .collect();
            let before = session.pool_stats().unwrap();
            let report = session.apply_batch(&ops).unwrap();
            let after = session.pool_stats().unwrap();
            if i > 0 {
                accesses += after.hits + after.misses - before.hits - before.misses;
            }
            let scanned = session.detect().unwrap();
            assert_eq!(
                report.canonical_bytes(),
                scanned.canonical_bytes(),
                "{rows} rows, commit {i}"
            );
            assert_eq!(session.len(), rows + (i + 1) * (INSERTS - DELETES));
        }
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
        accesses as f64 / COMMITS as f64
    };
    let small = accesses_per_commit(4_000);
    let large = accesses_per_commit(64_000);
    assert!(
        (large / small - 1.0).abs() <= 0.10,
        "pool accesses per 64-op commit: {small} at 4k rows, {large} at 64k"
    );
}

/// The stateful model test: one disk session against one in-memory session
/// as the model, through random interleavings of everything a session can do
/// to its instance — mixed batches (duplicate inserts, deletes of duplicates
/// and of absent tuples), report-less `ingest`, `repair` + `commit_repair`,
/// a malformed batch both sides must refuse, `checkpoint`, clean reopen and
/// crash reopen (the session is leaked, so nothing is flushed and only the
/// WAL carries the commits since the last checkpoint). The rules come from
/// the stream tests' generator, `@` cells included. After **every** step the
/// two sessions must be indistinguishable: same report bytes, same snapshot
/// **row for row** (so `modifications[].row`, `Explanation::rows` and
/// positional weights mean the same tuple on both backings — a delete by
/// value retires the *latest* duplicate on both), same repair plan, same
/// length, the same insertion and deletion previews of a random batch (both
/// answered from the maintained report, which the interleavings feed,
/// drop and rebuild), and exactly one durable commit per successful write.
fn track_the_memory_model(tag: &str, seeds: Range<u64>, steps: usize) {
    let dir = scratch_dir(tag);
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(0x4D0D_E100 + seed);
        let _ = std::fs::remove_dir_all(&dir);
        // A small pool and WAL budget: pages are evicted and checkpoints
        // trigger from inside commits, not only from the explicit steps.
        let config = EngineConfig::builder()
            .storage(StorageConfig {
                pool_pages: 3,
                wal_checkpoint_bytes: 1 << 11,
            })
            .build()
            .unwrap();
        // The builder refuses inconsistent rule sets; draw until one passes.
        let engine = loop {
            let rules = [random_cfd(&mut rng), random_cfd(&mut rng)];
            if let Ok(engine) = Engine::builder()
                .rules(rules)
                .config(config.clone())
                .build()
            {
                break engine;
            }
        };
        let mut memory = engine
            .session(Arc::new(Relation::new(common::schema())))
            .unwrap();
        let mut disk = engine.session_on_disk(&dir).unwrap();
        let mut commits = 0u64;

        for step in 0..steps {
            let at = format!("seed {seed}, step {step}");
            let mut live = memory.snapshot().unwrap().to_tuples();
            match rng.gen_range(0usize..100) {
                // A mixed batch, with or without a report.
                kind @ 0..=54 => {
                    let mut ops = Vec::new();
                    if !live.is_empty() && rng.gen_bool(0.5) {
                        let twin = live[rng.gen_range(0..live.len())].clone();
                        ops.push(BatchOp::Insert(twin.clone()));
                        live.push(twin);
                    }
                    ops.extend(random_batch(&mut rng, &mut live));
                    let absent = random_tuple(&mut rng);
                    if !live.contains(&absent) {
                        ops.push(BatchOp::Delete(absent));
                    }
                    let want = memory.apply_batch(&ops).unwrap();
                    if kind < 40 {
                        let got = disk.apply_batch(&ops).unwrap();
                        assert_eq!(got.canonical_bytes(), want.canonical_bytes(), "{at}");
                    } else {
                        disk.ingest(&ops).unwrap();
                    }
                    commits += 1;
                }
                55..=69 => {
                    let plan = memory.repair(RepairKind::EquivClass).unwrap();
                    let want = memory.commit_repair(&plan).unwrap();
                    let plan = disk.repair(RepairKind::EquivClass).unwrap();
                    let got = disk.commit_repair(&plan).unwrap();
                    assert_eq!(got.canonical_bytes(), want.canonical_bytes(), "{at}");
                    commits += 1;
                }
                // A wrong-arity op behind a valid one: refused whole.
                70..=76 => {
                    let ops = [
                        BatchOp::Insert(random_tuple(&mut rng)),
                        BatchOp::Delete(Tuple::nulls(3)),
                    ];
                    for session in [&mut memory, &mut disk] {
                        let err = session.apply_batch(&ops).unwrap_err();
                        assert!(matches!(err, Error::Relation(_)), "{at}: got {err:?}");
                    }
                    assert!(matches!(disk.ingest(&ops), Err(Error::Relation(_))), "{at}");
                }
                77..=84 => disk.checkpoint().unwrap(),
                kind => {
                    if kind < 93 {
                        drop(disk);
                    } else {
                        std::mem::forget(disk);
                    }
                    disk = engine
                        .session_on_disk(&dir)
                        .unwrap_or_else(|e| panic!("{at}: reopen failed: {e}"));
                }
            }

            assert_eq!(disk.committed_batches(), Some(commits), "{at}");
            assert_eq!(disk.len(), memory.len(), "{at}");
            assert_eq!(
                disk.detect().unwrap().canonical_bytes(),
                memory.detect().unwrap().canonical_bytes(),
                "{at}"
            );
            assert_eq!(
                disk.snapshot().unwrap().to_tuples(),
                memory.snapshot().unwrap().to_tuples(),
                "{at}: snapshots must agree row for row"
            );
            assert_eq!(
                disk.repair(RepairKind::EquivClass).unwrap().modifications,
                memory.repair(RepairKind::EquivClass).unwrap().modifications,
                "{at}"
            );

            // Previews of a random batch: fresh tuples to insert; live
            // tuples (duplicates included) and a random one to delete.
            let live = memory.snapshot().unwrap().to_tuples();
            let inserts: Vec<Tuple> = (0..rng.gen_range(1usize..4))
                .map(|_| random_tuple(&mut rng))
                .collect();
            let mut deletes = vec![random_tuple(&mut rng)];
            for _ in 0..rng.gen_range(0usize..4) {
                if !live.is_empty() {
                    deletes.push(live[rng.gen_range(0..live.len())].clone());
                }
            }
            assert_eq!(
                disk.preview_insertions(&inserts).unwrap().canonical_bytes(),
                memory
                    .preview_insertions(&inserts)
                    .unwrap()
                    .canonical_bytes(),
                "{at}: insertion preview"
            );
            assert_eq!(
                disk.preview_deletions(&deletes).unwrap().canonical_bytes(),
                memory
                    .preview_deletions(&deletes)
                    .unwrap()
                    .canonical_bytes(),
                "{at}: deletion preview"
            );
        }
        drop(disk);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disk_session_tracks_the_memory_model_through_random_interleavings() {
    track_the_memory_model("model", 0..32, 40);
}

/// CI-sized (`--include-ignored`) variant: 256 seeds × 60 steps.
#[test]
#[ignore = "CI-sized; run with --include-ignored in release"]
fn a_disk_session_tracks_the_memory_model_at_ci_scale() {
    track_the_memory_model("model-ci", 0..256, 60);
}

/// Acceptance: detect + repair on a workload more than 10× the buffer-pool
/// budget, with page memory provably bounded (`peak_resident <= capacity`)
/// and the repaired instance durably committed and clean.
#[test]
fn out_of_core_detect_and_repair_stay_within_the_pool_budget() {
    let dir = scratch_dir("outofcore");
    let data = TaxGenerator::new(TaxConfig {
        size: 3_000,
        noise_percent: 5.0,
        seed: 11,
    })
    .generate()
    .relation;
    let cfds = tax_cfds(3);
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .config(
            EngineConfig::builder()
                .storage(StorageConfig {
                    pool_pages: 2, // clamped pool floor: 2 pages = 8 KiB
                    ..StorageConfig::default()
                })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session = engine.session_on_disk(&dir).unwrap();
    // 3000 rows × 15 attrs = 45 pages of cells — >20× the 2-page pool.
    session.apply_batch(&insert_ops(&data)).unwrap();
    let report = session.detect().unwrap();
    assert!(!report.is_clean(), "noisy workload must have violations");

    let repair = session.repair(RepairKind::EquivClass).unwrap();
    assert!(repair.satisfied);
    let after = session.commit_repair(&repair).unwrap();
    assert!(after.is_clean(), "committed repair leaves a clean instance");

    let stats = session.pool_stats().expect("disk-backed session");
    assert!(
        stats.peak_resident <= stats.capacity,
        "peak_resident {} exceeded pool capacity {}",
        stats.peak_resident,
        stats.capacity
    );
    assert!(stats.evictions > 0, "an out-of-core scan must evict");

    // The repaired instance is durable: a reopened session is still clean.
    drop(session);
    let mut session = engine.session_on_disk(&dir).unwrap();
    assert!(session.detect().unwrap().is_clean());
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI-sized (`--include-ignored`) variant: 40k rows against a 16-page pool.
#[test]
#[ignore = "CI-sized; run with --include-ignored in release"]
fn out_of_core_40k_rows_stay_within_a_16_page_pool() {
    let dir = scratch_dir("outofcore40k");
    let data = TaxGenerator::new(TaxConfig {
        size: 40_000,
        noise_percent: 5.0,
        seed: 19,
    })
    .generate()
    .relation;
    let cfds = tax_cfds(5);
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .config(
            EngineConfig::builder()
                .storage(StorageConfig {
                    pool_pages: 16, // 64 KiB of page memory
                    ..StorageConfig::default()
                })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session = engine.session_on_disk(&dir).unwrap();
    session.apply_batch(&insert_ops(&data)).unwrap();
    let disk = session.detect().unwrap();
    let memory = engine.session(Arc::new(data)).unwrap().detect().unwrap();
    assert_eq!(memory.canonical_bytes(), disk.canonical_bytes());
    let repair = session.repair(RepairKind::EquivClass).unwrap();
    assert!(repair.satisfied);
    assert!(session.commit_repair(&repair).unwrap().is_clean());
    let stats = session.pool_stats().unwrap();
    assert!(
        stats.peak_resident <= stats.capacity,
        "peak_resident {} exceeded pool capacity {}",
        stats.peak_resident,
        stats.capacity
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Kill-and-recover harness
// ---------------------------------------------------------------------------

/// The deterministic batch sequence both the killed child and the in-memory
/// reference apply: five batches of cust-derived rows with per-batch name
/// edits, plus one delete.
fn kill_batches() -> Vec<Vec<BatchOp>> {
    let base = cust_instance().to_tuples();
    let mut batches = Vec::new();
    for k in 0..5u32 {
        let mut ops = Vec::new();
        for (i, t) in base.iter().enumerate() {
            let mut cells = t.to_values();
            cells[3] = Value::from(format!("{}-{k}", ["N", "M", "O"][i % 3]).as_str());
            ops.push(BatchOp::Insert(Tuple::new(cells)));
        }
        if k == 3 {
            // Delete one row inserted by batch 1 (distinct by construction).
            let mut cells = base[0].to_values();
            cells[3] = Value::from("N-1");
            ops.push(BatchOp::Delete(Tuple::new(cells)));
        }
        batches.push(ops);
    }
    batches
}

const KILL_DIR_ENV: &str = "CFD_KILL_AND_RECOVER_DIR";

/// Hidden child half of the harness: only does anything when re-executed by
/// the parent test below with the store directory in the environment.
/// Applies the deterministic batches — every one reporting success, so
/// every one fsynced — then dies the hard way, with no destructors, no
/// checkpoint, no flush.
#[test]
#[ignore = "internal child process of kill_and_recover; no-op when run directly"]
fn kill_and_recover_child() {
    let Ok(dir) = std::env::var(KILL_DIR_ENV) else {
        return; // Not re-executed by the parent: nothing to do.
    };
    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    let mut session = engine.session_on_disk(&dir).unwrap();
    for ops in kill_batches() {
        session.apply_batch(&ops).unwrap();
    }
    std::process::abort();
}

/// Kill-and-recover: a child process is `abort()`ed immediately after its
/// last successful `apply_batch`. Recovery must (a) count exactly the
/// batches that reported success and (b) produce a violation report
/// byte-identical to an in-memory session that applied the same batches —
/// even with torn garbage appended to the WAL after the kill.
#[test]
#[ignore = "spawns and aborts a child process; run with --include-ignored"]
fn kill_and_recover_reports_byte_identically() {
    use std::io::Write as _;
    let dir = scratch_dir("kill");
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args(["--exact", "kill_and_recover_child", "--ignored"])
        .env(KILL_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child");
    assert!(!status.success(), "the child must die by abort()");

    // A torn half-record at the WAL tail, as a crash mid-append would
    // leave: recovery must truncate it, not fail.
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal.log"))
        .expect("child created the store");
    wal.write_all(&[0x77, 0x01, 0x00, 0x00, 0xba, 0xad, 0xf0])
        .unwrap();
    wal.sync_all().unwrap();
    drop(wal);

    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    let batches = kill_batches();
    let mut recovered = engine.session_on_disk(&dir).unwrap();
    assert_eq!(
        recovered.committed_batches(),
        Some(batches.len() as u64),
        "exactly the batches that reported success are recovered"
    );
    let disk = recovered.detect().unwrap();

    // The uncrashed reference: an in-memory session starting from the same
    // empty instance, applying the same batches.
    let mut reference = engine
        .session(Arc::new(Relation::new(cust_instance().schema().clone())))
        .unwrap();
    for ops in &batches {
        reference.apply_batch(ops).unwrap();
    }
    let want = reference.detect().unwrap();
    assert_eq!(
        disk.canonical_bytes(),
        want.canonical_bytes(),
        "recovered report must be byte-identical to the uncrashed reference"
    );
    assert_eq!(recovered.len(), reference.len());
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
