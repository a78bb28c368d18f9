//! Per-layer metrics read off the user path: order statistics over the
//! samples the workload recorded around its own calls, and the self-time
//! shares of the trace.

use crate::ctx::Ctx;
use crate::metrics::PER_LAYER;
use crate::stats;
use crate::trace::{self, Recorder};

/// The catalogue's `<layer>.self_share` metric of `layer`, if it has one.
fn self_share_metric(layer: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|spec| spec.name)
        .find(|name| name.strip_suffix(".self_share") == Some(layer))
}

/// Fills `ctx.layer` with everything derivable from the recorded samples
/// and spans. `rows` is the base instance size the rates refer to.
pub fn from_samples(ctx: &mut Ctx, rows: usize) {
    let rec = &ctx.rec;
    let layer = &mut ctx.layer;
    let rows = rows as f64;
    let median = |name: &str| stats::median(rec.samples(name));
    let mut set = |metric: &'static str, value: f64| {
        if value.is_finite() && value != 0.0 {
            layer.insert(metric, value);
        }
    };

    let parse_s = median("relation.from_csv");
    set("relation.csv_parse_s", parse_s);
    set("relation.csv_rows_per_s", rows / parse_s);
    set("relation.to_tuples_s", median("relation.to_tuples"));

    set("cfd.engine_build_s", median("cfd.engine_build"));
    set("cfd.detect_first_s", median("cfd.detect_first"));
    set("cfd.detect_warm_s", median("cfd.detect_warm"));
    set("cfd.repair_s", median("cfd.repair"));
    set("cfd.commit_repair_s", median("cfd.commit_repair"));
    set(
        "cfd.apply_batch_first_ms",
        median("cfd.apply_batch_first") * 1e3,
    );
    let batches = stats::sorted(rec.samples("cfd.apply_batch"));
    set(
        "cfd.apply_batch_p50_ms",
        stats::percentile(&batches, 50.0) * 1e3,
    );
    set(
        "cfd.apply_batch_p99_ms",
        stats::percentile(&batches, 99.0) * 1e3,
    );
    set(
        "cfd.snapshot_after_batch_ms",
        median("cfd.snapshot_after_batch") * 1e3,
    );
    // One checkpoint closes each bulk load, so their count is the number of
    // loads the ingest samples spread over.
    let loads = rec.samples("cfd.checkpoint").len() as f64;
    let ingest_s: f64 = rec.samples("cfd.ingest").iter().sum();
    set("cfd.ingest_rows_per_s", rows * loads / ingest_s);
    set("cfd.reopen_s", median("cfd.reopen"));

    set("serve.create_tenant_s", median("serve.create_tenant"));
    let streams = stats::sorted(rec.samples("serve.stream"));
    set(
        "serve.stream_p50_ms",
        stats::percentile(&streams, 50.0) * 1e3,
    );
    set(
        "serve.stream_p99_ms",
        stats::percentile(&streams, 99.0) * 1e3,
    );
    let reads = stats::sorted(rec.samples("serve.detect"));
    set("serve.read_p50_ns", stats::percentile(&reads, 50.0) * 1e9);
    set("serve.read_p99_ns", stats::percentile(&reads, 99.0) * 1e9);
    set("serve.read_max_us", stats::percentile(&reads, 100.0) * 1e6);
    set("serve.detect_fresh_ms", median("serve.detect_fresh") * 1e3);
    set("serve.repair_ms", median("serve.repair") * 1e3);

    let spans = rec.spans();
    let wall = trace::root_seconds(spans);
    if wall > 0.0 {
        let by_layer = trace::layer_self_seconds(spans);
        for (name, seconds) in &by_layer {
            if let Some(metric) = self_share_metric(name) {
                set(metric, seconds / wall);
            }
        }
        set(
            "bench.layer_sum_share",
            by_layer.values().sum::<f64>() / wall,
        );
        set("bench.traced_wall_s", wall);
        set("bench.spans", spans.len() as f64);
        set(
            "bench.trace_overhead_share",
            Recorder::span_cost_s() * spans.len() as f64 / wall,
        );
    }
    let checks = &ctx.checks;
    set(
        "bench.failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
}
