//! Layer probes of the traced run: direct calls into each layer's public
//! functions on the workload's own inputs, for the per-layer metrics the
//! user path cannot expose from outside (a `Session::detect` hides its
//! planning, index build and scan; a disk commit hides its WAL write).
//!
//! Probes repeat a fixed number of times, not for a time box, so the counts
//! they read (`index_keys`, `violations`, `pool_misses`, …) are the same on
//! every run of one commit and seed.

use crate::ctx::{build_engine, err, Ctx};
use crate::host;
use crate::inputs::{Inputs, BATCH_OPS};
use crate::session::{insert_ops, INGEST_OPS};
use crate::stats;
use cfd::core::CfdSet;
use cfd::detect::{IncrementalDetector, Planner};
use cfd::relation::{Index, Relation, RelationStats};
use cfd::repair::Repairer;
use cfd::store::{ColumnStore, StoreOptions};
use std::sync::Arc;

/// 64-op commits timed against the bare store.
const STORE_COMMITS: usize = 20;
/// `B64` batches the store probes consume from a workload's sequence: the
/// timed commits, two 8-commit log tails, three facade batches.
pub const BATCHES_NEEDED: usize = STORE_COMMITS + 2 * 8 + 3;
/// Batches applied to the bare incremental detector.
const INCR_BATCHES: usize = 100;

/// The traced run's probes, under one `bench.probes` span: the in-memory
/// layers always, the store when the workload has one (`pool_pages`).
/// Nothing on an untraced run.
pub fn run(ctx: &mut Ctx, inputs: &Inputs, pool_pages: Option<usize>) -> Result<(), String> {
    if !ctx.rec.tracing() {
        return Ok(());
    }
    ctx.rec.open("bench.probes");
    memory_layers(ctx, inputs, pool_pages.is_none())?;
    if let Some(pool_pages) = pool_pages {
        store_layer(ctx, inputs, pool_pages)?;
    }
    ctx.rec.close();
    Ok(())
}

/// Median of the samples recorded under `name`, in seconds.
fn median_s(ctx: &Ctx, name: &str) -> f64 {
    stats::median(ctx.rec.samples(name))
}

/// Probes of the in-memory layers — `relation`, `core`, `detect`, `repair`
/// and the facade's snapshot regather. `streaming` adds the incremental
/// detector, which the disk path does not run (disk batches re-detect).
fn memory_layers(ctx: &mut Ctx, inputs: &Inputs, streaming: bool) -> Result<(), String> {
    let rules = &inputs.rules;
    let rows = inputs.rows();
    let rel = ctx
        .rec
        .time("relation.from_rows", || {
            Relation::from_rows(inputs.schema.clone(), inputs.base.clone())
        })
        .map_err(err)?;

    // core: what Engine::build pays before any data is seen.
    for _ in 0..3 {
        ctx.rec
            .time("core.consistency", || {
                CfdSet::from_cfds(rules.clone()).and_then(|set| set.ensure_consistent())
            })
            .map_err(err)?;
    }
    let set = CfdSet::from_cfds(rules.clone()).map_err(err)?;
    ctx.rec
        .time("core.mincover", || set.minimal_cover())
        .map_err(err)?;
    ctx.layer
        .insert("core.consistency_s", median_s(ctx, "core.consistency"));
    ctx.layer
        .insert("core.mincover_s", median_s(ctx, "core.mincover"));

    // relation: statistics, LHS indexes, gather, tuple export.
    let mut stats_cache = RelationStats::new(&rel);
    for _ in 0..3 {
        stats_cache = ctx.rec.time("relation.stats", || {
            let mut fresh = RelationStats::new(&rel);
            for rule in rules {
                fresh.group_stats(&rel, rule.lhs());
            }
            fresh
        });
    }
    let mut indexes: Vec<Option<Index>> = Vec::new();
    for _ in 0..3 {
        indexes = ctx.rec.time("relation.index_build", || {
            rules
                .iter()
                .map(|rule| Some(Index::build(&rel, rule.lhs())))
                .collect()
        });
    }
    let index_keys: usize = indexes.iter().flatten().map(Index::distinct_keys).sum();
    let all_rows: Vec<usize> = (0..rows).collect();
    for _ in 0..3 {
        let gathered = ctx
            .rec
            .time("relation.gather", || rel.gather_rows(&all_rows));
        std::hint::black_box(gathered.len());
    }
    if ctx.rec.samples("relation.to_tuples").is_empty() {
        for _ in 0..3 {
            std::hint::black_box(ctx.rec.time("relation.to_tuples", || rel.to_tuples()).len());
        }
    }
    ctx.layer
        .insert("relation.stats_s", median_s(ctx, "relation.stats"));
    ctx.layer.insert(
        "relation.index_build_s",
        median_s(ctx, "relation.index_build"),
    );
    ctx.layer.insert("relation.index_keys", index_keys as f64);
    ctx.layer
        .insert("relation.gather_s", median_s(ctx, "relation.gather"));

    // detect: planning over warm statistics, then the scan itself.
    let planner = Planner::new();
    let mut plan = planner.plan(rules, &rel, &mut stats_cache, true);
    for _ in 0..3 {
        plan = ctx.rec.time("detect.plan", || {
            planner.plan(rules, &rel, &mut stats_cache, true)
        });
    }
    let mut report = planner.execute(&plan, rules, &rel, Some(&indexes));
    for _ in 0..5 {
        report = ctx.rec.time("detect.execute", || {
            planner.execute(&plan, rules, &rel, Some(&indexes))
        });
    }
    let mut report_bytes = 0;
    for _ in 0..5 {
        report_bytes = ctx
            .rec
            .time("detect.canonical_bytes", || report.canonical_bytes())
            .len();
    }
    let est_groups: f64 = plan.steps().iter().map(|s| s.est_groups()).sum();
    let actual_groups: usize = plan
        .steps()
        .iter()
        .filter_map(|s| indexes[s.cfds()[0]].as_ref())
        .map(Index::distinct_keys)
        .sum();
    let execute_s = median_s(ctx, "detect.execute");
    ctx.layer
        .insert("detect.plan_s", median_s(ctx, "detect.plan"));
    ctx.layer
        .insert("detect.plan_steps", plan.steps().len() as f64);
    ctx.layer.insert("detect.execute_s", execute_s);
    ctx.layer
        .insert("detect.scan_rows_per_s", rows as f64 / execute_s);
    ctx.layer.insert("detect.est_groups", est_groups);
    ctx.layer
        .insert("detect.actual_groups", actual_groups as f64);
    ctx.layer
        .insert("detect.group_est_ratio", est_groups / actual_groups as f64);
    ctx.layer.insert("detect.violations", report.total() as f64);
    ctx.layer.insert("detect.report_bytes", report_bytes as f64);
    ctx.layer.insert(
        "detect.canonical_bytes_s",
        median_s(ctx, "detect.canonical_bytes"),
    );

    if streaming {
        let batches = &inputs.streams[0];
        let mut stream = IncrementalDetector::new(rel.clone(), rules.clone());
        for _ in 0..2 {
            stream = ctx.rec.time("detect.incr_build", || {
                IncrementalDetector::new(rel.clone(), rules.clone())
            });
        }
        for batch in batches.iter().take(INCR_BATCHES) {
            ctx.rec
                .time("detect.incr_apply", || stream.apply_batch(batch))
                .map_err(err)?;
        }
        for _ in 0..5 {
            std::hint::black_box(
                ctx.rec
                    .time("detect.incr_report", || stream.violations())
                    .total(),
            );
        }
        for _ in 0..3 {
            let regathered = ctx
                .rec
                .time("detect.incr_regather", || stream.current_relation());
            std::hint::black_box(regathered.len());
        }
        let applies = stats::sorted(ctx.rec.samples("detect.incr_apply"));
        ctx.layer
            .insert("detect.incr_build_s", median_s(ctx, "detect.incr_build"));
        ctx.layer.insert(
            "detect.incr_apply_p50_ms",
            stats::percentile(&applies, 50.0) * 1e3,
        );
        ctx.layer.insert(
            "detect.incr_apply_p99_ms",
            stats::percentile(&applies, 99.0) * 1e3,
        );
        ctx.layer
            .insert("detect.incr_report_s", median_s(ctx, "detect.incr_report"));
        ctx.layer.insert(
            "detect.incr_regather_s",
            median_s(ctx, "detect.incr_regather"),
        );

        // The facade's snapshot regather after a batch: what a tenant flush
        // pays on top of `apply_batch` to publish.
        let engine = build_engine(rules, None)?;
        let mut session = engine.session(Arc::new(rel.clone())).map_err(err)?;
        ctx.rec
            .time("cfd.apply_batch_probe", || session.apply_batch(&[]))
            .map_err(err)?;
        for batch in batches.iter().take(5) {
            ctx.rec
                .time("cfd.apply_batch_probe", || session.apply_batch(batch))
                .map_err(err)?;
            let snapshot = ctx
                .rec
                .time("cfd.snapshot_after_batch", || session.snapshot())
                .map_err(err)?;
            std::hint::black_box(snapshot.len());
        }
    }

    // repair: the class engine over prebuilt indexes, as a session runs it.
    let repairer = Repairer::new();
    let mut result = None;
    for _ in 0..2 {
        let shared = indexes.clone();
        result = Some(ctx.rec.time("repair.repair", || {
            repairer.repair_with_indexes(rules, &rel, shared)
        }));
    }
    let result = result.expect("two repair probes ran");
    let repair_s = median_s(ctx, "repair.repair");
    ctx.layer.insert("repair.repair_s", repair_s);
    ctx.layer.insert(
        "repair.cells_per_s",
        (rows * inputs.schema.arity()) as f64 / repair_s,
    );
    ctx.layer.insert("repair.passes", result.passes as f64);
    ctx.layer
        .insert("repair.modifications", result.modifications.len() as f64);
    ctx.layer.insert("repair.cost", result.cost);
    ctx.checks.expect(result.satisfied, || {
        "the repair probe did not reach a satisfying instance".into()
    });
    Ok(())
}

/// Probes of the `store` layer: a bare `ColumnStore` with the workload's
/// pool size, loaded with the workload's base rows.
fn store_layer(ctx: &mut Ctx, inputs: &Inputs, pool_pages: usize) -> Result<(), String> {
    let rules = &inputs.rules;
    let rows = inputs.rows();
    let batches = &inputs.streams[0];
    if batches.len() < BATCHES_NEEDED {
        return Err(format!(
            "the store probes need {BATCHES_NEEDED} batches, the workload generated {}",
            batches.len()
        ));
    }
    let dir = ctx.scratch.join("probe_store");
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        pool_pages,
        ..StoreOptions::default()
    };
    let open = |ctx: &mut Ctx, name: &'static str| {
        ctx.rec
            .time(name, || {
                ColumnStore::open_or_create(&dir, &inputs.schema, options)
            })
            .map_err(err)
    };

    let mut store = open(ctx, "store.open_create")?;
    for chunk in inputs.base.chunks(INGEST_OPS) {
        let ops = insert_ops(chunk);
        ctx.rec
            .time("store.bulk_apply", || store.apply_batch(&ops))
            .map_err(err)?;
    }
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
    ctx.rec
        .time("store.checkpoint", || store.checkpoint())
        .map_err(err)?;

    ctx.rec
        .time("store.scan_warmup", || store.detect(rules))
        .map_err(err)?;
    for _ in 0..3 {
        ctx.rec
            .time("store.scan_warm", || store.detect(rules))
            .map_err(err)?;
    }
    for _ in 0..2 {
        ctx.rec
            .time("store.drop_page_cache", || store.drop_page_cache())
            .map_err(err)?;
        ctx.rec
            .time("store.scan_cold", || store.detect(rules))
            .map_err(err)?;
    }
    for _ in 0..2 {
        let rel = ctx
            .rec
            .time("store.materialize", || store.materialize())
            .map_err(err)?;
        std::hint::black_box(rel.len());
    }

    // 64-op commits with no detection on top: WAL append + fsync + page
    // apply. Nothing else in the process writes while this loop runs, so
    // the /proc/self/io deltas are the store's own.
    let (wchar_before, syscw_before) = host::write_counters();
    for batch in batches.iter().take(STORE_COMMITS) {
        ctx.rec
            .time("store.commit64", || store.apply_batch(batch))
            .map_err(err)?;
    }
    let (wchar_after, syscw_after) = host::write_counters();
    let commits = ctx.rec.samples("store.commit64").len().max(1);
    let row_bytes = inputs.csv.len() as f64 / rows as f64;
    let user_bytes = (commits * BATCH_OPS) as f64 * row_bytes;

    let pool = store.pool_stats();
    ctx.checks.expect(pool.peak_resident <= pool_pages, || {
        format!(
            "store probe held {} pages, pool budget is {pool_pages}",
            pool.peak_resident
        )
    });

    // Clean reopen: the drop checkpoints, so there is no log to replay.
    for _ in 0..2 {
        drop(store);
        store = open(ctx, "store.open_clean")?;
    }
    // Reopen with a log tail to replay. Dropping a store checkpoints it and
    // empties the log, so the tail is left behind by leaking the handle — a
    // few pages of pool memory per repetition, no further writes through it.
    for rep in 0..2 {
        let tail = &batches[STORE_COMMITS + rep * 8..][..8];
        for batch in tail {
            ctx.rec
                .time("store.commit64_tail", || store.apply_batch(batch))
                .map_err(err)?;
        }
        std::mem::forget(store);
        store = open(ctx, "store.open_replay")?;
    }
    drop(store);

    // The facade's snapshot after a disk batch is a full materialize.
    let engine = build_engine(rules, Some(pool_pages))?;
    let mut session = engine.session_on_disk(&dir).map_err(err)?;
    for batch in batches[STORE_COMMITS + 16..].iter().take(3) {
        ctx.rec
            .time("cfd.apply_batch_probe", || session.apply_batch(batch))
            .map_err(err)?;
        let snapshot = ctx
            .rec
            .time("cfd.snapshot_after_batch", || session.snapshot())
            .map_err(err)?;
        std::hint::black_box(snapshot.len());
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);

    let bulk_s: f64 = ctx.rec.samples("store.bulk_apply").iter().sum();
    let commit64 = stats::sorted(ctx.rec.samples("store.commit64"));
    let layer = &mut ctx.layer;
    layer.insert("store.bulk_rows_per_s", rows as f64 / bulk_s);
    layer.insert(
        "store.commit64_p50_ms",
        stats::percentile(&commit64, 50.0) * 1e3,
    );
    layer.insert(
        "store.commit64_p99_ms",
        stats::percentile(&commit64, 99.0) * 1e3,
    );
    layer.insert(
        "store.commit64_max_ms",
        stats::percentile(&commit64, 100.0) * 1e3,
    );
    layer.insert("store.wal_bytes", wal_bytes as f64);
    layer.insert(
        "store.written_bytes_per_user_byte",
        (wchar_after - wchar_before) as f64 / user_bytes,
    );
    layer.insert(
        "store.write_syscalls_per_commit",
        (syscw_after - syscw_before) as f64 / commits as f64,
    );
    layer.insert(
        "store.pool_hit_rate",
        pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
    );
    layer.insert("store.pool_misses", pool.misses as f64);
    layer.insert("store.pool_evictions", pool.evictions as f64);
    layer.insert("store.pool_writebacks", pool.writebacks as f64);
    layer.insert("store.peak_resident_pages", pool.peak_resident as f64);
    for (metric, samples) in [
        ("store.checkpoint_s", "store.checkpoint"),
        ("store.scan_warm_s", "store.scan_warm"),
        ("store.scan_cold_s", "store.scan_cold"),
        ("store.materialize_s", "store.materialize"),
        ("store.open_clean_s", "store.open_clean"),
        ("store.open_replay_s", "store.open_replay"),
    ] {
        let value = median_s(ctx, samples);
        ctx.layer.insert(metric, value);
    }
    Ok(())
}
