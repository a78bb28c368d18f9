//! The three `Session` workloads — `mem_clean`, `mem_stream`, `disk_ooc` —
//! as one parameterised walk over the facade's public API. A run is a
//! sequence of **rounds**, repeated until `--seconds` is used up; every
//! round does one unit of each kind of work:
//!
//! 1. **load**: CSV text → `csv::from_csv` → `Engine::build` → session
//!    (in memory, or ingested into a fresh store and checkpointed) → first
//!    complete report, on fresh state. One `time_to_report_s` sample.
//! 2. **detect**: warm `Session::detect` on a session that stays on the
//!    base instance; `detect_rows_per_s` samples.
//! 3. **clean**: `repair` + `commit_repair` on a fresh dirty session; one
//!    `clean_rows_per_s` sample.
//! 4. **write**: the next `B64` batches through `Session::apply_batch` on
//!    a session that keeps growing, each returning the updated report;
//!    `commit_p50_ms` and `write_ops_per_s` samples.
//!
//! Rounds, not one phase after another, because the host's speed drifts
//! over seconds: interleaved, every metric's median sees the same mix of
//! fast and slow stretches. The disk workload ends with **recover**: a
//! child process reopens the written store, acknowledges commits over a
//! pipe and `abort()`s; copies of the directory are reopened and detected
//! on. Oracle checks sit between timed calls, never inside one.

use crate::check::{oracle_bytes, Checks};
use crate::ctx::{build_engine, err, Ctx};
use crate::host;
use crate::inputs::{live_after, Inputs};
use crate::stats;
use cfd::detect::{BatchOp, Violations};
use cfd::relation::{csv, Relation, Tuple};
use cfd::{Engine, RepairKind, Session};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Ops per bulk-load commit on the disk path.
pub const INGEST_OPS: usize = 4096;
/// Commits the crash child acknowledges before it aborts.
const CRASH_COMMITS: usize = 8;
/// Copies of the crashed store that are reopened: `recover_s` samples.
const RECOVER_REPS: usize = 3;

/// How a workload obtains its first complete report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstReport {
    /// `Session::detect` — the batch user's path.
    Detect,
    /// `Session::apply_batch(&[])` — builds the stream state and returns
    /// the maintained report; the streaming user's path.
    Stream,
}

#[derive(Debug, Clone, Copy)]
pub struct SessionCfg {
    pub rows: usize,
    /// `Some(pool_pages)` runs on a disk-backed session.
    pub pool_pages: Option<usize>,
    pub first_report: FirstReport,
    /// Warm detections per round.
    pub detects_per_round: usize,
    /// `B64` batches written per round.
    pub batches_per_round: usize,
    /// Length of the `B64` sequence. An in-memory writer that reaches its
    /// end restarts on a fresh session over the base; a disk store cannot
    /// be rewound, so its writer stops there.
    pub batches: usize,
    /// Every this-many-th written batch's report is checked against
    /// from-scratch detection (and the last one of the run).
    pub check_every: usize,
}

impl SessionCfg {
    fn generated_batches(&self) -> usize {
        match self.pool_pages {
            Some(_) => self.batches + CRASH_COMMITS,
            None => self.batches,
        }
    }
}

pub fn insert_ops(tuples: &[Tuple]) -> Vec<BatchOp> {
    tuples.iter().cloned().map(BatchOp::Insert).collect()
}

/// The durable half of "CSV in hand → first report": the parsed relation
/// goes into a fresh store at `dir` in [`INGEST_OPS`]-op commits, then a
/// checkpoint.
pub fn load_store(
    ctx: &mut Ctx,
    engine: &Engine,
    rel: Relation,
    dir: &Path,
) -> Result<Session, String> {
    let tuples = ctx.rec.time("relation.to_tuples", || rel.to_tuples());
    drop(rel);
    let mut session = ctx
        .rec
        .time("cfd.session_on_disk", || engine.session_on_disk(dir))
        .map_err(err)?;
    for chunk in tuples.chunks(INGEST_OPS) {
        let ops = insert_ops(chunk);
        ctx.rec
            .time("cfd.ingest", || session.ingest(&ops))
            .map_err(err)?;
    }
    ctx.rec
        .time("cfd.checkpoint", || session.checkpoint())
        .map_err(err)?;
    Ok(session)
}

/// What one load leaves behind.
struct Loaded {
    engine: Engine,
    session: Session,
    /// The parsed base relation (in-memory workloads only).
    relation: Option<Arc<Relation>>,
    report: Violations,
}

/// One "inputs in hand → first complete report" walk, into `dir` on disk.
fn load_once(
    cfg: &SessionCfg,
    inputs: &Inputs,
    ctx: &mut Ctx,
    dir: &Path,
) -> Result<Loaded, String> {
    let rel = ctx
        .rec
        .time("relation.from_csv", || {
            csv::from_csv(&inputs.schema, &inputs.csv)
        })
        .map_err(err)?;
    let engine = ctx.rec.time("cfd.engine_build", || {
        build_engine(&inputs.rules, cfg.pool_pages)
    })?;
    let (mut session, relation) = if cfg.pool_pages.is_some() {
        (load_store(ctx, &engine, rel, dir)?, None)
    } else {
        let rel = Arc::new(rel);
        let session = ctx
            .rec
            .time("cfd.session", || engine.session(Arc::clone(&rel)))
            .map_err(err)?;
        (session, Some(rel))
    };
    let report = match cfg.first_report {
        FirstReport::Detect => ctx.rec.time("cfd.detect_first", || session.detect()),
        FirstReport::Stream => ctx
            .rec
            .time("cfd.apply_batch_first", || session.apply_batch(&[])),
    }
    .map_err(err)?;
    Ok(Loaded {
        engine,
        session,
        relation,
        report,
    })
}

/// The store must never hold more pages than its pool was given.
fn check_pool(checks: &mut Checks, session: &Session, pool_pages: usize, when: &str) {
    if let Some(stats) = session.pool_stats() {
        checks.expect(stats.peak_resident <= pool_pages, || {
            format!(
                "{when}: store held {} pages, pool budget is {pool_pages}",
                stats.peak_resident
            )
        });
    }
}

/// A fresh session over the dirty base instance: another handle on the
/// parsed relation in memory, a copy of the checkpointed store on disk.
fn open_dirty(
    ctx: &mut Ctx,
    engine: &Engine,
    relation: Option<&Arc<Relation>>,
    pristine: &Path,
    dir: &Path,
) -> Result<Session, String> {
    match relation {
        Some(rel) => ctx
            .rec
            .time("cfd.session", || engine.session(Arc::clone(rel)))
            .map_err(err),
        None => {
            let _ = std::fs::remove_dir_all(dir);
            host::copy_dir(pristine, dir).map_err(err)?;
            ctx.rec
                .time("cfd.session_on_disk", || engine.session_on_disk(dir))
                .map_err(err)
        }
    }
}

/// `n` warm detections on the session that stays on the base instance.
/// Called twice a round — after the load and after the clean — so the
/// samples are spread over the round rather than bunched in one stretch.
fn warm_detects(
    ctx: &mut Ctx,
    reader: &mut Session,
    oracle: &[u8],
    n: usize,
) -> Result<(), String> {
    ctx.rec.open("bench.detect");
    for _ in 0..n {
        let report = ctx
            .rec
            .time("cfd.detect_warm", || reader.detect())
            .map_err(err)?;
        ctx.checks.ran(1);
        ctx.checks.same_report(&report, oracle, "warm detect");
    }
    ctx.rec.close();
    Ok(())
}

/// The written-to session and how far into the `B64` sequence it is.
struct Writer {
    session: Session,
    applied: usize,
    /// The most recent report, until a check consumes it.
    last: Option<Violations>,
}

/// Reference reports by number of batches applied. Every in-memory writer
/// walks the same prefixes of the same sequence, so each is computed once.
struct WriteOracle<'a> {
    engine: Engine,
    inputs: &'a Inputs,
    by_prefix: BTreeMap<usize, Vec<u8>>,
}

impl WriteOracle<'_> {
    fn check(
        &mut self,
        checks: &mut Checks,
        applied: usize,
        report: &Violations,
    ) -> Result<(), String> {
        if !self.by_prefix.contains_key(&applied) {
            let prefix = self.inputs.streams[0][..applied].iter().map(Vec::as_slice);
            let model = live_after(&self.inputs.base, prefix);
            let oracle = oracle_bytes(&self.engine, &self.inputs.schema, model)?;
            self.by_prefix.insert(applied, oracle);
        }
        checks.same_report(
            report,
            &self.by_prefix[&applied],
            "report after written batches",
        );
        Ok(())
    }
}

pub fn run(cfg: &SessionCfg, ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let generate = || Inputs::generate(seed, cfg.rows, 1, cfg.generated_batches());
    let inputs = ctx.setup(generate);
    let rows = inputs.rows() as f64;
    let batches = &inputs.streams[0][..cfg.batches];
    let mut oracle = WriteOracle {
        engine: build_engine(&inputs.rules, None)?,
        inputs: &inputs,
        by_prefix: BTreeMap::new(),
    };
    let oracle_base = oracle_bytes(&oracle.engine, &inputs.schema, inputs.base.clone())?;

    let scratch = ctx.scratch.clone();
    std::fs::create_dir_all(&scratch).map_err(err)?;
    let dirs = |name: &str| scratch.join(name);
    let (base_dir, pristine_dir, live_dir) = (dirs("base"), dirs("pristine"), dirs("live"));

    ctx.rec.open("bench.workload");
    let deadline = ctx.deadline();
    let mut load_s = Vec::new();
    let mut clean_s = Vec::new();
    let mut acked_ops = 0usize;
    // Round 0's load stays: its session serves the warm detections, its
    // relation (or a copy of its store) seeds the clean and write sessions.
    let mut kept: Option<(Engine, Session, Option<Arc<Relation>>)> = None;
    let mut writer: Option<Writer> = None;
    let mut round = 0u32;
    while round < 3 || Instant::now() < deadline {
        ctx.rec.set_rep(round);

        ctx.rec.open("bench.load");
        let dir = if round == 0 {
            base_dir.clone()
        } else {
            dirs("load")
        };
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let loaded = load_once(cfg, &inputs, ctx, &dir)?;
        load_s.push(start.elapsed().as_secs_f64());
        ctx.checks.ran(1);
        ctx.checks
            .same_report(&loaded.report, &oracle_base, "first report");
        if let Some(pool_pages) = cfg.pool_pages {
            check_pool(&mut ctx.checks, &loaded.session, pool_pages, "load");
        }
        if round == 0 {
            if cfg.pool_pages.is_some() {
                // Freshly checkpointed and only read since: the files are
                // the whole instance. Clean and write start from copies.
                ctx.record_store_size(&base_dir, inputs.csv.len());
                host::copy_dir(&base_dir, &pristine_dir).map_err(err)?;
            }
            kept = Some((loaded.engine, loaded.session, loaded.relation));
        }
        ctx.rec.close();
        let (engine, reader, relation) = kept.as_mut().expect("round 0 keeps its load");

        if round == 0 {
            // After a stream-built first report the session has no plan or
            // statistics yet; one untimed detection warms either kind up.
            ctx.rec
                .time("cfd.detect_warmup", || reader.detect())
                .map_err(err)?;
        }
        warm_detects(ctx, reader, &oracle_base, cfg.detects_per_round / 2)?;

        ctx.rec.open("bench.clean");
        let clean_dir = dirs("clean");
        let mut dirty = open_dirty(ctx, engine, relation.as_ref(), &pristine_dir, &clean_dir)?;
        ctx.rec
            .time("cfd.detect_warmup", || dirty.detect())
            .map_err(err)?;
        let start = Instant::now();
        let result = ctx
            .rec
            .time("cfd.repair", || dirty.repair(RepairKind::EquivClass))
            .map_err(err)?;
        let report = ctx
            .rec
            .time("cfd.commit_repair", || dirty.commit_repair(&result))
            .map_err(err)?;
        clean_s.push(start.elapsed().as_secs_f64());
        ctx.checks.ran(2);
        ctx.checks
            .expect(result.satisfied && report.is_clean(), || {
                format!(
                    "round {round}: repair satisfied={}, {} violations left",
                    result.satisfied,
                    report.total()
                )
            });
        if round == 0 {
            // The semantic oracle walks every pattern over every row; once
            // per run is what the time cap affords.
            ctx.rec.open("bench.check");
            let snapshot = dirty.snapshot().map_err(err)?;
            let satisfied = engine.rules().satisfied_by(&snapshot);
            ctx.checks.expect(satisfied, || {
                "commit_repair left an instance that violates the rules".into()
            });
            ctx.rec.close();
            ctx.layer
                .insert("repair.modifications", result.modifications.len() as f64);
            ctx.layer.insert("repair.passes", result.passes as f64);
            ctx.layer.insert("repair.cost", result.cost);
        }
        drop(dirty);
        let _ = std::fs::remove_dir_all(&clean_dir);
        ctx.rec.close();
        warm_detects(ctx, reader, &oracle_base, cfg.detects_per_round / 2)?;

        ctx.rec.open("bench.write");
        let exhausted = writer
            .as_ref()
            .is_none_or(|w| w.applied == batches.len() && relation.is_some());
        if exhausted {
            // Check the retiring writer's last report before it goes.
            if let Some(Writer {
                applied,
                last: Some(report),
                ..
            }) = &writer
            {
                oracle.check(&mut ctx.checks, *applied, report)?;
            }
            drop(writer.take());
            let mut session = open_dirty(ctx, engine, relation.as_ref(), &pristine_dir, &live_dir)?;
            if relation.is_some() {
                // Stream state is built before the clock starts on batches.
                ctx.rec
                    .time("cfd.apply_batch_first", || session.apply_batch(&[]))
                    .map_err(err)?;
            }
            writer = Some(Writer {
                session,
                applied: 0,
                last: None,
            });
        }
        let w = writer.as_mut().expect("just ensured");
        for batch in batches.iter().skip(w.applied).take(cfg.batches_per_round) {
            let report = ctx
                .rec
                .time("cfd.apply_batch", || w.session.apply_batch(batch))
                .map_err(err)?;
            w.applied += 1;
            acked_ops += batch.len();
            ctx.checks.ran(1);
            if w.applied.is_multiple_of(cfg.check_every) {
                ctx.rec.open("bench.check");
                oracle.check(&mut ctx.checks, w.applied, &report)?;
                ctx.rec.close();
                w.last = None;
            } else {
                w.last = Some(report);
            }
        }
        ctx.rec.close();
        drop(ctx.setup(generate));
        round += 1;
    }
    let (engine, reader, _) = kept.expect("at least three rounds ran");
    let Writer {
        session: written,
        applied,
        last,
    } = writer.expect("at least three rounds ran");
    if let Some(report) = &last {
        oracle.check(&mut ctx.checks, applied, report)?;
    }
    if let Some(pool_pages) = cfg.pool_pages {
        check_pool(&mut ctx.checks, &reader, pool_pages, "detect");
        check_pool(&mut ctx.checks, &written, pool_pages, "write");
    }
    drop(reader);

    // Latencies are medians; throughputs are all the work over all the
    // time it took.
    let commits = ctx.rec.samples("cfd.apply_batch");
    let commit_p50_ms = stats::median(commits) * 1e3;
    let write_ops_per_s = acked_ops as f64 / commits.iter().sum::<f64>();
    let detect_rows_per_s = stats::rate(rows, ctx.rec.samples("cfd.detect_warm"));
    ctx.e2e.insert("time_to_report_s", stats::median(&load_s));
    ctx.e2e.insert("detect_rows_per_s", detect_rows_per_s);
    ctx.e2e
        .insert("clean_rows_per_s", stats::rate(rows, &clean_s));
    ctx.e2e.insert("commit_p50_ms", commit_p50_ms);
    ctx.e2e.insert("write_ops_per_s", write_ops_per_s);

    if let Some(pool_pages) = cfg.pool_pages {
        ctx.rec.open("bench.recover");
        let committed_before = written
            .committed_batches()
            .ok_or("a disk session reports committed batches")?;
        // Close the store: the child is about to open the same files.
        drop(written);
        let acked = crash_child(ctx, cfg, pool_pages, &live_dir, applied)?;
        ctx.checks.expect(acked == CRASH_COMMITS, || {
            format!("crash child acknowledged {acked} of {CRASH_COMMITS} commits")
        });
        let mut recover_s = Vec::new();
        let all_batches = &inputs.streams[0];
        for rep in 0..RECOVER_REPS {
            ctx.rec.set_rep(rep as u32);
            let dir = dirs("recover");
            let _ = std::fs::remove_dir_all(&dir);
            host::copy_dir(&live_dir, &dir).map_err(err)?;
            let start = Instant::now();
            let mut reopened = ctx
                .rec
                .time("cfd.reopen", || engine.session_on_disk(&dir))
                .map_err(err)?;
            let report = ctx
                .rec
                .time("cfd.detect_recovered", || reopened.detect())
                .map_err(err)?;
            recover_s.push(start.elapsed().as_secs_f64());
            ctx.checks.ran(2);
            // Durability, at process-kill level: every acknowledged commit
            // is there, and the store holds exactly a prefix of the batches
            // the child was applying.
            let committed = reopened.committed_batches().unwrap_or(0);
            let recovered = committed.saturating_sub(committed_before) as usize;
            ctx.checks
                .expect(recovered >= acked && recovered <= CRASH_COMMITS, || {
                    format!("{recovered} child batches recovered, {acked} were acknowledged")
                });
            let prefix = (applied + recovered).min(all_batches.len());
            let model = live_after(
                &inputs.base,
                all_batches[..prefix].iter().map(Vec::as_slice),
            );
            let expected = oracle_bytes(&oracle.engine, &inputs.schema, model)?;
            ctx.checks
                .same_report(&report, &expected, "report after crash recovery");
            check_pool(&mut ctx.checks, &reopened, pool_pages, "recover");
        }
        ctx.rec.close();
        ctx.layer.insert("cfd.recover_s", stats::median(&recover_s));
    } else {
        drop(written);
    }

    ctx.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    crate::probes::run(ctx, &inputs, cfg.pool_pages)?;
    ctx.rec.close();
    Ok(())
}

/// Runs the crash child over the store in `dir` and returns how many
/// commits it acknowledged before it died. The child is this executable in
/// `--crash-child` mode, started through `sh` only to switch core dumps off.
fn crash_child(
    ctx: &mut Ctx,
    cfg: &SessionCfg,
    pool_pages: usize,
    dir: &Path,
    skip: usize,
) -> Result<usize, String> {
    let exe = std::env::current_exe().map_err(err)?;
    ctx.rec.open("bench.crash_child");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -c 0; exec \"$0\" \"$@\"")
        .arg(exe)
        .arg("--crash-child")
        .arg(dir)
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--rows", &cfg.rows.to_string()])
        .args(["--batches", &cfg.generated_batches().to_string()])
        .args(["--skip", &skip.to_string()])
        .args(["--pool-pages", &pool_pages.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(err)?;
    let pipe = child.stdout.take().ok_or("child stdout is piped")?;
    let acked = BufReader::new(pipe)
        .lines()
        .map_while(Result::ok)
        .filter(|line| line.starts_with("ack "))
        .count();
    let status = child.wait().map_err(err)?;
    ctx.rec.close();
    ctx.checks.expect(!status.success(), || {
        "crash child exited cleanly instead of aborting".into()
    });
    Ok(acked)
}

/// `--crash-child` mode: reopen the store, durably ingest [`CRASH_COMMITS`]
/// batches, acknowledging each on stdout once `ingest` has returned, then
/// die without unwinding — no destructor, no final checkpoint.
pub fn crash_child_main(
    dir: PathBuf,
    seed: u64,
    rows: usize,
    batches: usize,
    skip: usize,
    pool_pages: usize,
) -> Result<(), String> {
    use std::io::Write;
    let inputs = Inputs::generate(seed, rows, 1, batches);
    let engine = build_engine(&inputs.rules, Some(pool_pages))?;
    let mut session = engine.session_on_disk(&dir).map_err(err)?;
    let mut stdout = std::io::stdout();
    let todo = inputs.streams[0].iter().skip(skip).take(CRASH_COMMITS);
    for (i, batch) in todo.enumerate() {
        session.ingest(batch).map_err(err)?;
        writeln!(stdout, "ack {i}").map_err(err)?;
        stdout.flush().map_err(err)?;
    }
    std::process::abort();
}
