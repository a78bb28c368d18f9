//! The two `Server` workloads — `serve_mem`, `serve_disk` — over the public
//! API of `cfd-serve`. Like the session workloads, a run is a sequence of
//! **rounds**, repeated until `--seconds` is used up, each doing one unit
//! of every kind of work:
//!
//! 1. **load**: CSV text → `from_csv` → `Engine::build` → (disk: ingest
//!    into a fresh store, checkpoint, close) → `create_tenant[_on_disk]` →
//!    first `Server::detect`. One `time_to_report_s` sample.
//! 2. **detect**: `Server::detect_fresh` on a tenant that stays on the base
//!    instance; `detect_rows_per_s` samples.
//! 3. **clean**: `Server::repair` on that tenant (a pure read that returns
//!    the repaired instance — the server's whole cleaning surface); one
//!    `clean_rows_per_s` sample.
//! 4. **write**: a burst of `clients` closed-loop threads against a second
//!    tenant that keeps growing, each streaming half a `B64` and then
//!    reading the published report 8 times; `commit_p50_ms` and
//!    `write_ops_per_s` samples, with reads beside writes so a write-side
//!    gain that costs readers shows.
//!
//! Clients and pool workers are `min(nproc, 4)` each: the server is an
//! in-process library, every caller waits for its reply.

use crate::check::{oracle_bytes, oracle_bytes_of, Checks};
use crate::ctx::{build_engine, err, Ctx};
use crate::host;
use crate::inputs::{half_batch, live_after, Inputs, BATCH_OPS};
use crate::session::load_store;
use crate::stats;
use crate::trace::Recorder;
use cfd::detect::BatchOp;
use cfd::relation::csv;
use cfd::RepairKind;
use cfd_serve::{ServeError, Server, ServerConfig, TenantSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot reads a client issues after each write request.
const READS_PER_WRITE: usize = 8;
/// The tenant that stays on the base instance (round 0's load).
const READER: &str = "load_0";
/// The tenant the client bursts write to.
const WRITER: &str = "writer";

#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    pub rows: usize,
    /// `Some(pool_pages)` serves disk tenants.
    pub pool_pages: Option<usize>,
    /// `detect_fresh` calls per round.
    pub detects_per_round: usize,
    /// Write requests per client per round.
    pub requests_per_round: usize,
    /// `B64` batches generated per client: two write requests each. A
    /// client that runs out stops writing.
    pub batches: usize,
    /// Every this-many-th write request's snapshot is checked against
    /// from-scratch detection.
    pub check_every: usize,
}

pub fn clients() -> usize {
    host::nproc().min(4)
}

/// What one client thread brings back from a burst.
struct ClientOutcome {
    checks: Checks,
    /// The requests this client got acknowledged, in order.
    acked: Vec<Vec<BatchOp>>,
    kept: Vec<Arc<TenantSnapshot>>,
    reads_during_flush: u64,
    shed: u64,
}

pub fn run(cfg: &ServeCfg, ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let clients = clients();
    let generate = || Inputs::generate(seed, cfg.rows, clients, cfg.batches);
    let inputs = ctx.setup(generate);
    let rows = inputs.rows() as f64;
    let oracle_engine = build_engine(&inputs.rules, None)?;
    let oracle_base = oracle_bytes(&oracle_engine, &inputs.schema, inputs.base.clone())?;
    let scratch = ctx.scratch.clone();
    std::fs::create_dir_all(&scratch).map_err(err)?;

    ctx.rec.open("bench.workload");
    let server = ctx
        .rec
        .time("serve.start", || {
            Server::with_config(ServerConfig {
                workers: clients,
                ..ServerConfig::default()
            })
        })
        .map_err(err)?;

    let deadline = ctx.deadline();
    let mut load_s = Vec::new();
    let mut burst_s = 0.0;
    let in_flight = AtomicUsize::new(0);
    // Requests each client has had acknowledged so far, in order.
    let mut acked: Vec<Vec<Vec<BatchOp>>> = vec![Vec::new(); clients];
    let (mut reads_during_flush, mut shed) = (0, 0);
    let mut round = 0u32;
    while round < 3 || Instant::now() < deadline {
        ctx.rec.set_rep(round);

        ctx.rec.open("bench.load");
        let tenant = format!("load_{round}");
        let dir = scratch.join(&tenant);
        let start = Instant::now();
        let rel = ctx
            .rec
            .time("relation.from_csv", || {
                csv::from_csv(&inputs.schema, &inputs.csv)
            })
            .map_err(err)?;
        let engine = ctx.rec.time("cfd.engine_build", || {
            build_engine(&inputs.rules, cfg.pool_pages)
        })?;
        if cfg.pool_pages.is_some() {
            let session = load_store(ctx, &engine, rel, &dir)?;
            // The tenant opens the same files: close them first.
            ctx.rec.time("cfd.session_close", || drop(session));
            ctx.rec
                .time("serve.create_tenant", || {
                    server.create_tenant_on_disk(tenant.as_str(), engine.clone(), &dir)
                })
                .map_err(err)?;
        } else {
            ctx.rec
                .time("serve.create_tenant", || {
                    server.create_tenant(tenant.as_str(), engine.clone(), Arc::new(rel))
                })
                .map_err(err)?;
        }
        let report = ctx
            .rec
            .time("serve.detect_first", || server.detect(&tenant))
            .map_err(err)?;
        load_s.push(start.elapsed().as_secs_f64());
        ctx.checks.ran(1);
        ctx.checks
            .same_report(&report, &oracle_base, "first report");
        if round == 0 {
            // This tenant stays as the reader; the writer starts from the
            // same instance — the same relation in memory, a copy of the
            // freshly checkpointed (and since only read) store on disk.
            if cfg.pool_pages.is_some() {
                ctx.record_store_size(&dir, inputs.csv.len());
                let writer_dir = scratch.join(WRITER);
                host::copy_dir(&dir, &writer_dir).map_err(err)?;
                ctx.rec
                    .time("serve.create_writer", || {
                        server.create_tenant_on_disk(WRITER, engine, &writer_dir)
                    })
                    .map_err(err)?;
            } else {
                let base = Arc::clone(server.snapshot(READER).map_err(err)?.relation());
                ctx.rec
                    .time("serve.create_writer", || {
                        server.create_tenant(WRITER, engine, base)
                    })
                    .map_err(err)?;
            }
        } else {
            server.drop_tenant(&tenant).map_err(err)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        ctx.rec.close();

        fresh_detects(ctx, &server, &oracle_base, cfg.detects_per_round / 2)?;

        ctx.rec.open("bench.clean");
        let result = ctx
            .rec
            .time("serve.repair", || {
                server.repair(READER, RepairKind::EquivClass)
            })
            .map_err(err)?;
        ctx.checks.ran(1);
        ctx.checks.expect(result.satisfied, || {
            format!("round {round}: repair did not reach a satisfying instance")
        });
        if round == 0 {
            ctx.rec.open("bench.check");
            ctx.layer
                .insert("repair.modifications", result.modifications.len() as f64);
            ctx.layer.insert("repair.passes", result.passes as f64);
            ctx.layer.insert("repair.cost", result.cost);
            let repaired = Arc::new(result.repaired);
            let satisfied = oracle_engine.rules().satisfied_by(&repaired);
            let report = oracle_engine.detect(repaired).map_err(err)?;
            ctx.checks.expect(satisfied && report.is_clean(), || {
                "the repaired instance still violates the rules".into()
            });
            ctx.rec.close();
        }
        ctx.rec.close();

        fresh_detects(ctx, &server, &oracle_base, cfg.detects_per_round / 2)?;

        ctx.rec.open("bench.write");
        let burst_start = Instant::now();
        let outcomes: Vec<Result<(Recorder, ClientOutcome), String>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .streams
                    .iter()
                    .zip(&acked)
                    .enumerate()
                    .map(|(c, (stream, done))| {
                        let rec = ctx.rec.fork(c as u32 + 1);
                        let (server, in_flight) = (&server, &in_flight);
                        let todo = done.len()..done.len() + cfg.requests_per_round;
                        let check_every = cfg.check_every;
                        scope.spawn(move || {
                            client_burst(rec, server, stream, todo, in_flight, check_every)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("a client thread panicked".into()))
                    })
                    .collect()
            });
        burst_s += burst_start.elapsed().as_secs_f64();
        // Adopt the clients' spans while the burst's span is still open.
        let mut kept = Vec::new();
        for (outcome, done) in outcomes.into_iter().zip(&mut acked) {
            let (rec, outcome) = outcome?;
            ctx.rec.join(rec);
            ctx.checks.merge(outcome.checks);
            done.extend(outcome.acked);
            reads_during_flush += outcome.reads_during_flush;
            shed += outcome.shed;
            kept.extend(outcome.kept);
        }
        ctx.rec.close();
        ctx.rec.open("bench.check");
        for snapshot in kept {
            let oracle = oracle_bytes_of(&oracle_engine, Arc::clone(snapshot.relation()))?;
            ctx.checks
                .same_report(snapshot.report(), &oracle, "published snapshot");
        }
        ctx.rec.close();
        drop(ctx.setup(generate));
        round += 1;
    }

    ctx.rec.open("bench.check");
    // Nothing acknowledged may be missing from the final instance, and
    // nothing else may be in it. (Row order is immaterial to a report.)
    let published = server.snapshot(WRITER).map_err(err)?;
    let model = live_after(&inputs.base, acked.iter().flatten().map(Vec::as_slice));
    ctx.checks
        .expect(published.relation().len() == model.len(), || {
            format!(
                "final snapshot holds {} rows, acknowledged writes leave {}",
                published.relation().len(),
                model.len()
            )
        });
    let oracle = oracle_bytes(&oracle_engine, &inputs.schema, model)?;
    ctx.checks
        .same_report(published.report(), &oracle, "final published report");
    let requests = ctx.rec.samples("serve.stream").len();
    let flush_p50_s = stats::median(ctx.rec.samples("serve.stream"));
    let read_max_s = ctx
        .rec
        .samples("serve.detect")
        .iter()
        .copied()
        .fold(0.0, f64::max);
    // Readers are served from the published snapshot and never wait on a
    // flush: even the slowest read is quicker than a typical flush.
    ctx.checks.expect(read_max_s < flush_p50_s, || {
        format!("slowest read took {read_max_s} s, the median write {flush_p50_s} s")
    });
    ctx.rec.close();

    ctx.e2e.insert("time_to_report_s", stats::median(&load_s));
    // Latencies are medians; throughputs are all the work over all the
    // time it took.
    ctx.e2e.insert(
        "detect_rows_per_s",
        stats::rate(rows, ctx.rec.samples("serve.detect_fresh")),
    );
    ctx.e2e.insert(
        "clean_rows_per_s",
        stats::rate(rows, ctx.rec.samples("serve.repair")),
    );
    ctx.e2e.insert("commit_p50_ms", flush_p50_s * 1e3);
    ctx.e2e.insert(
        "write_ops_per_s",
        (requests * BATCH_OPS / 2) as f64 / burst_s,
    );
    // The writer was created at generation 0.
    ctx.layer.insert(
        "serve.coalesce_ratio",
        requests as f64 / published.generation().max(1) as f64,
    );
    ctx.layer
        .insert("serve.reads_during_flush", reads_during_flush as f64);
    ctx.layer.insert("serve.shed", shed as f64);
    drop(published);

    ctx.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    crate::probes::run(ctx, &inputs, cfg.pool_pages)?;
    ctx.rec.time("serve.shut_down", || server.shut_down());
    ctx.rec.close();
    Ok(())
}

/// `n` from-scratch detections of the tenant that stays on the base
/// instance. Called twice a round — after the load and after the clean —
/// so the samples are spread over the round.
fn fresh_detects(ctx: &mut Ctx, server: &Server, oracle: &[u8], n: usize) -> Result<(), String> {
    ctx.rec.open("bench.detect");
    for _ in 0..n {
        let report = ctx
            .rec
            .time("serve.detect_fresh", || server.detect_fresh(READER))
            .map_err(err)?;
        ctx.checks.ran(1);
        ctx.checks.same_report(&report, oracle, "detect_fresh");
    }
    ctx.rec.close();
    Ok(())
}

/// One client's share of a burst, closed loop: stream half a `B64`, wait
/// for the snapshot it landed in, read the published report
/// [`READS_PER_WRITE`] times; requests `todo` of its sequence, or fewer if
/// the sequence ends first.
fn client_burst(
    mut rec: Recorder,
    server: &Server,
    stream: &[Vec<BatchOp>],
    todo: std::ops::Range<usize>,
    in_flight: &AtomicUsize,
    check_every: usize,
) -> Result<(Recorder, ClientOutcome), String> {
    let mut out = ClientOutcome {
        checks: Checks::default(),
        acked: Vec::new(),
        kept: Vec::new(),
        reads_during_flush: 0,
        shed: 0,
    };
    rec.open("bench.client");
    for i in todo {
        let Some(batch) = stream.get(i / 2) else {
            break;
        };
        let ops = half_batch(batch, i % 2 == 1);
        in_flight.fetch_add(1, Ordering::Relaxed);
        let sent = ops.clone();
        let reply = rec.time("serve.stream", || server.stream(WRITER, sent));
        in_flight.fetch_sub(1, Ordering::Relaxed);
        match reply {
            Ok(snapshot) => {
                out.checks.ran(1);
                out.acked.push(ops);
                if (i + 1).is_multiple_of(check_every) {
                    out.kept.push(snapshot);
                }
            }
            Err(ServeError::TenantBusy(_)) => {
                out.shed += 1;
                out.checks.fail(|| format!("write request {i} was shed"));
                // A shed request was not applied: this client's later
                // deletes would miss. Stop rather than measure no-ops.
                break;
            }
            Err(e) => return Err(e.to_string()),
        }
        for _ in 0..READS_PER_WRITE {
            let writes_in_flight = in_flight.load(Ordering::Relaxed) > 0;
            let total = rec.time("serve.detect", || server.detect(WRITER).map(|r| r.total()));
            std::hint::black_box(total.map_err(err)?);
            out.reads_during_flush += u64::from(writes_in_flight);
        }
        out.checks.ran(READS_PER_WRITE as u64);
    }
    rec.close();
    Ok((rec, out))
}
