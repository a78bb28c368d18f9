//! `cfd-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! cfd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cfd-benchmark [--seed <n>] [--seconds <s>] [--trace] [--out <dir>]
//! cfd-benchmark --repeat-check [--seed <n>] [--seconds <s>] [--trace]
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON result line (the form `BENCHMARK.json` names). The
//! second runs every workload, each in a child process of its own so that
//! `peak_rss_mb` is per workload, and merges the results. The third runs
//! two full sets back to back and fails if any end-to-end metric moved by
//! more than its bound. See `README.md` beside this crate.

mod check;
mod ctx;
mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod probes;
mod serve;
mod session;
mod stats;
mod trace;

use crate::check::Checks;
use crate::ctx::Ctx;
use crate::json::Json;
use crate::metrics::{metrics_json, Values, END_TO_END, PER_LAYER};
use crate::serve::ServeCfg;
use crate::session::{FirstReport, SessionCfg};
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

enum Kind {
    Session(SessionCfg),
    Serve(ServeCfg),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
}

/// The five workloads. Row counts are what fits the driver's time cap with
/// enough repetitions for steady medians; README.md has the reasoning.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mem_clean",
        why: "batch cleaning in memory: CSV load, planner, scan kernels, index build and repair do the work; store and serve do none",
        kind: Kind::Session(SessionCfg {
            rows: 80_000,
            pool_pages: None,
            first_report: FirstReport::Detect,
            detects_per_round: 12,
            batches_per_round: 100,
            batches: 600,
            check_every: 50,
        }),
    },
    Workload {
        name: "mem_stream",
        why: "incremental maintenance in memory: isolates detect::incremental and report materialisation; bypasses snapshot publish, store and serve",
        kind: Kind::Session(SessionCfg {
            rows: 50_000,
            pool_pages: None,
            first_report: FirstReport::Stream,
            detects_per_round: 12,
            batches_per_round: 300,
            batches: 600,
            check_every: 50,
        }),
    },
    Workload {
        name: "disk_ooc",
        why: "the durable path 10x out of core (600 data pages, 64-page pool): store scan under eviction, WAL commit, checkpoint, crash recovery",
        kind: Kind::Session(SessionCfg {
            rows: 40_000,
            pool_pages: Some(64),
            first_report: FirstReport::Detect,
            detects_per_round: 6,
            batches_per_round: 4,
            batches: 100,
            check_every: 50,
        }),
    },
    Workload {
        name: "serve_mem",
        why: "serving writes beside reads on an in-memory tenant: exercises the snapshot publish and group-commit coalescing mem_stream bypasses",
        kind: Kind::Serve(ServeCfg {
            rows: 50_000,
            pool_pages: None,
            detects_per_round: 6,
            requests_per_round: 80,
            batches: 800,
            check_every: 50,
        }),
    },
    Workload {
        name: "serve_disk",
        why: "serving a disk tenant whose 300 pages fit its 1024-page pool: a flush is WAL commit + full detect + materialize; contrast disk_ooc",
        kind: Kind::Serve(ServeCfg {
            rows: 20_000,
            pool_pages: Some(1024),
            detects_per_round: 6,
            requests_per_round: 8,
            batches: 96,
            check_every: 50,
        }),
    },
];

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat_check: bool,
    crash_child: Option<PathBuf>,
    rows: usize,
    batches: usize,
    skip: usize,
    pool_pages: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        repeat_check: false,
        crash_child: None,
        rows: 0,
        batches: 0,
        skip: 0,
        pool_pages: 0,
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => args.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => args.seconds = number(flag, value(flag, &mut it)?)?,
            "--out" => args.out = PathBuf::from(value(flag, &mut it)?),
            "--repeat-check" => args.repeat_check = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--crash-child" => args.crash_child = Some(PathBuf::from(value(flag, &mut it)?)),
            "--rows" => args.rows = number(flag, value(flag, &mut it)?)?,
            "--batches" => args.batches = number(flag, value(flag, &mut it)?)?,
            "--skip" => args.skip = number(flag, value(flag, &mut it)?)?,
            "--pool-pages" => args.pool_pages = number(flag, value(flag, &mut it)?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Removes the scratch store directories on every way out of a run.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Quartiles, tail and count of every sample series a run recorded: the
/// spread behind each reported median.
fn samples_json(rec: &Recorder, names: &[&'static str]) -> Json {
    Json::obj(names.iter().filter_map(|&name| {
        let samples = rec.samples(name);
        let [q1, q2, q3] = stats::quartiles(samples)?;
        let sorted = stats::sorted(samples);
        let mut fields = vec![
            ("n", Json::Num(samples.len() as f64)),
            ("min_s", Json::Num(sorted[0])),
            (
                "mean_s",
                Json::Num(samples.iter().sum::<f64>() / samples.len() as f64),
            ),
            ("q1_s", Json::Num(q1)),
            ("median_s", Json::Num(q2)),
            ("q3_s", Json::Num(q3)),
            ("max_s", Json::Num(stats::percentile(&sorted, 100.0))),
        ];
        if let Some(p) = stats::supported_tail(samples.len()) {
            fields.push(("tail_percentile", Json::Num(p)));
            fields.push(("tail_s", Json::Num(stats::percentile(&sorted, p))));
        }
        Some((name, Json::obj(fields)))
    }))
}

/// Sample series behind the end-to-end metrics, for the summary.
const HEADLINE_SAMPLES: [&str; 12] = [
    "relation.from_csv",
    "cfd.detect_first",
    "cfd.detect_warm",
    "cfd.repair",
    "cfd.commit_repair",
    "cfd.apply_batch",
    "cfd.reopen",
    "serve.create_tenant",
    "serve.detect_fresh",
    "serve.repair",
    "serve.stream",
    "serve.detect",
];

fn print_metrics(title: &str, specs: &[metrics::MetricSpec], values: &Values) {
    println!("{title}");
    for spec in specs {
        if let Some(v) = values.get(spec.name) {
            println!("  {:<36} {:>18.6} {}", spec.name, v, spec.unit);
        }
    }
}

/// Runs one workload in this process; `Ok(correct)`.
fn run_workload(workload: &Workload, args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch(args.out.join(format!(
        "scratch_{}_{}",
        workload.name,
        std::process::id()
    )));
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.0.clone(),
        rec: Recorder::new(args.trace),
        checks: Checks::default(),
        e2e: Values::new(),
        layer: Values::new(),
        setup_s: Vec::new(),
    };
    let (rows, ran) = match &workload.kind {
        Kind::Session(cfg) => (cfg.rows, session::run(cfg, &mut ctx)),
        Kind::Serve(cfg) => (cfg.rows, serve::run(cfg, &mut ctx)),
    };
    if let Err(e) = &ran {
        // An operation failed outright: the run cannot vouch for anything.
        ctx.checks.fail(|| format!("workload aborted: {e}"));
    }
    ctx.e2e.insert("setup_s", stats::median(&ctx.setup_s));
    layers::from_samples(&mut ctx, rows);
    drop(scratch);

    let host = host::fingerprint(args.seed);
    let correct = ctx.checks.failed == 0;
    for message in &ctx.checks.messages {
        eprintln!("FAILED {}: {message}", workload.name);
    }
    println!(
        "workload {} seed {} seconds {} trace {} — {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.why
    );
    print_metrics("end-to-end", END_TO_END, &ctx.e2e);
    for name in HEADLINE_SAMPLES {
        let samples = ctx.rec.samples(name);
        if !samples.is_empty() {
            println!("  samples {:<28} {}", name, stats::describe(samples));
        }
    }
    if args.trace {
        print_metrics("per-layer", PER_LAYER, &ctx.layer);
    }

    let e2e = metrics_json(END_TO_END, &ctx.e2e, true);
    let per_layer = metrics_json(PER_LAYER, &ctx.layer, false)?;
    let suffix = if args.trace { "_trace" } else { "" };
    let result_file = args
        .out
        .join(format!("result_{}{suffix}.json", workload.name));
    write_file(
        &result_file,
        &Json::obj([
            ("host", host.clone()),
            ("workload", Json::str(workload.name)),
            ("why", Json::str(workload.why)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(ctx.checks.attempted as f64)),
            ("failed", Json::Num(ctx.checks.failed as f64)),
            ("end_to_end", e2e.clone().unwrap_or(Json::Null)),
            ("per_layer", per_layer.clone()),
            ("samples", samples_json(&ctx.rec, &HEADLINE_SAMPLES)),
        ]),
    )?;
    if args.trace {
        write_file(
            &args.out.join(format!("trace_{}.json", workload.name)),
            &Json::obj([
                ("host", host),
                ("workload", Json::str(workload.name)),
                ("spans", trace::spans_json(ctx.rec.spans(), workload.name)),
            ]),
        )?;
    }
    ran?;
    let metrics = if args.trace { per_layer } else { e2e? };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(ctx.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(ctx.checks.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(correct)
}

/// Runs `workload` in a child process and returns its result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One workload's result lines: `(workload, untraced, traced)`.
type SetRow = (&'static str, Json, Option<Json>);

/// One full set: every workload untraced (and traced on request), one
/// child process each.
fn run_set(args: &Args) -> Result<Vec<SetRow>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let untraced = run_child(w.name, args, false)?;
            let traced = args
                .trace
                .then(|| run_child(w.name, args, true))
                .transpose()?;
            Ok((w.name, untraced, traced))
        })
        .collect()
}

/// `traced ÷ untraced − 1` of each end-to-end metric, from the result
/// files the two runs of `workload` left in `--out`: what tracing cost.
fn print_trace_overhead(out: &Path, workload: &str) {
    let read = |suffix: &str| {
        std::fs::read_to_string(out.join(format!("result_{workload}{suffix}.json")))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
    };
    let (Some(untraced), Some(traced)) = (read(""), read("_trace")) else {
        return;
    };
    for spec in END_TO_END {
        let value = |run: &Json| {
            run.get("end_to_end")?
                .get(spec.name)?
                .get("value")?
                .as_f64()
        };
        if let (Some(u), Some(t)) = (value(&untraced), value(&traced)) {
            println!(
                "  traced/untraced-1 {workload:<11} {:<22} {:+.4}",
                spec.name,
                t / u - 1.0
            );
        }
    }
}

fn run_all(args: &Args) -> Result<bool, String> {
    let set = run_set(args)?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut merged = Vec::new();
    println!(
        "summary (seed {}, {} s per workload)",
        args.seed, args.seconds
    );
    for (name, untraced, traced) in &set {
        for result in std::iter::once(untraced).chain(traced) {
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (metric, value) in result.get("metrics").map_or(&[][..], Json::fields) {
                let unit = value.get("unit").cloned().unwrap_or(Json::Null);
                let value = value.get("value").cloned().unwrap_or(Json::Null);
                println!(
                    "  {name:<11} {metric:<36} {:>18} {}",
                    value.render(),
                    unit.render().trim_matches('"')
                );
                merged.push((
                    format!("{name}.{metric}"),
                    Json::obj([("value", value), ("unit", unit)]),
                ));
            }
        }
        if traced.is_some() {
            print_trace_overhead(&args.out, name);
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(merged)),
    ]);
    write_file(
        &args.out.join("results.json"),
        &Json::obj([
            ("host", host::fingerprint(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("result", result.clone()),
        ]),
    )?;
    println!("{}", result.render());
    Ok(correct)
}

/// Counts that must repeat exactly between two runs of one commit and seed.
const EXACT_COUNTS: [&str; 4] = [
    "store.space_amp",
    "detect.violations",
    "repair.modifications",
    "relation.index_keys",
];

/// Two full sets, back to back; `Ok(true)` when every end-to-end metric of
/// every workload agrees within its bound (and, traced, the exact counts
/// repeat exactly).
fn repeat_check(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut ok = true;
    println!(
        "repeat check (seed {}, {} s per workload)",
        args.seed, args.seconds
    );
    for ((name, a, a_traced), (_, b, b_traced)) in first.iter().zip(&second) {
        for run in [a, b] {
            ok &= run.get("correct").and_then(Json::as_bool) == Some(true);
        }
        for spec in END_TO_END {
            let (Some(x), Some(y)) = (metric_value(a, spec.name), metric_value(b, spec.name))
            else {
                return Err(format!("{name}: {} missing from a result", spec.name));
            };
            let moved = x.max(y) / x.min(y) - 1.0;
            let verdict = if moved <= spec.bound { "ok" } else { "MOVED" };
            ok &= moved <= spec.bound;
            println!(
                "  {name:<11} {:<22} {x:>16.6} {y:>16.6} {moved:>8.4} (bound {}) {verdict}",
                spec.name, spec.bound
            );
        }
        if let (Some(a), Some(b)) = (a_traced, b_traced) {
            for metric in EXACT_COUNTS {
                let (x, y) = (metric_value(a, metric), metric_value(b, metric));
                let verdict = if x == y { "ok" } else { "DIFFERS" };
                ok &= x == y;
                println!("  {name:<11} {metric:<22} {x:?} {y:?} {verdict}");
            }
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some(dir) = args.crash_child.clone() {
        session::crash_child_main(
            dir,
            args.seed,
            args.rows,
            args.batches,
            args.skip,
            args.pool_pages,
        )?;
        return Ok(false);
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    match &args.workload {
        Some(name) => {
            let workload = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            run_workload(workload, &args)
        }
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cfd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_forms_of_trace_both_parse() {
        let a = parse(&[
            "--workload",
            "mem_clean",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mem_clean"), 9, 3.0, false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--seed", "2"]).unwrap().trace);
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn workload_table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // The layer probes of a traced run draw on the same sequences.
            let batches = match &w.kind {
                Kind::Session(cfg) => cfg.batches,
                Kind::Serve(cfg) => cfg.batches,
            };
            assert!(batches >= probes::BATCHES_NEEDED, "{}", w.name);
        }
    }
}
