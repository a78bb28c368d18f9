//! The metric catalogue: every name the benchmark prints, with its unit,
//! its direction and (end-to-end only) its regression bound. `BENCHMARK.json`
//! at the repository root lists the same names; a unit test keeps the two
//! in step.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; per-layer metrics carry none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

/// What a user of the system sees; printed by every workload's untraced
/// run. README.md records how each bound was set.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("time_to_report_s", "s", false, 0.25),
    e2e("detect_rows_per_s", "rows/s", true, 0.25),
    e2e("clean_rows_per_s", "rows/s", true, 0.25),
    e2e("commit_p50_ms", "ms", false, 0.25),
    e2e("write_ops_per_s", "ops/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.20),
];

/// Single layers, timed from outside around one public call or read from
/// a public counter; printed by every workload's traced run. A layer a
/// workload does not exercise reports 0: it did no work there.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("relation.csv_parse_s", "s"),
    higher("relation.csv_rows_per_s", "rows/s"),
    lower("relation.stats_s", "s"),
    lower("relation.index_build_s", "s"),
    lower("relation.index_keys", "count"),
    lower("relation.gather_s", "s"),
    lower("relation.to_tuples_s", "s"),
    lower("relation.self_share", "ratio"),
    lower("core.consistency_s", "s"),
    lower("core.mincover_s", "s"),
    lower("core.self_share", "ratio"),
    lower("cfd.engine_build_s", "s"),
    lower("cfd.detect_first_s", "s"),
    lower("cfd.detect_warm_s", "s"),
    lower("cfd.repair_s", "s"),
    lower("cfd.commit_repair_s", "s"),
    lower("cfd.apply_batch_first_ms", "ms"),
    lower("cfd.apply_batch_p50_ms", "ms"),
    lower("cfd.apply_batch_p99_ms", "ms"),
    lower("cfd.snapshot_after_batch_ms", "ms"),
    higher("cfd.ingest_rows_per_s", "rows/s"),
    lower("cfd.reopen_s", "s"),
    lower("cfd.recover_s", "s"),
    lower("cfd.self_share", "ratio"),
    lower("detect.plan_s", "s"),
    lower("detect.plan_steps", "count"),
    lower("detect.execute_s", "s"),
    higher("detect.scan_rows_per_s", "rows/s"),
    lower("detect.est_groups", "count"),
    lower("detect.actual_groups", "count"),
    lower("detect.group_est_ratio", "ratio"),
    lower("detect.violations", "count"),
    lower("detect.report_bytes", "bytes"),
    lower("detect.canonical_bytes_s", "s"),
    lower("detect.incr_build_s", "s"),
    lower("detect.incr_apply_p50_ms", "ms"),
    lower("detect.incr_apply_p99_ms", "ms"),
    lower("detect.incr_report_s", "s"),
    lower("detect.incr_regather_s", "s"),
    lower("detect.self_share", "ratio"),
    lower("repair.repair_s", "s"),
    higher("repair.cells_per_s", "cells/s"),
    lower("repair.passes", "count"),
    lower("repair.modifications", "count"),
    lower("repair.cost", "cost"),
    lower("repair.self_share", "ratio"),
    higher("store.bulk_rows_per_s", "rows/s"),
    lower("store.commit64_p50_ms", "ms"),
    lower("store.commit64_p99_ms", "ms"),
    lower("store.commit64_max_ms", "ms"),
    lower("store.checkpoint_s", "s"),
    lower("store.scan_warm_s", "s"),
    lower("store.scan_cold_s", "s"),
    lower("store.materialize_s", "s"),
    lower("store.open_clean_s", "s"),
    lower("store.open_replay_s", "s"),
    higher("store.pool_hit_rate", "ratio"),
    lower("store.pool_misses", "count"),
    lower("store.pool_evictions", "count"),
    lower("store.pool_writebacks", "count"),
    lower("store.peak_resident_pages", "pages"),
    lower("store.wal_bytes", "bytes"),
    lower("store.dir_bytes", "bytes"),
    lower("store.written_bytes_per_user_byte", "ratio"),
    lower("store.write_syscalls_per_commit", "count"),
    lower("store.space_amp", "ratio"),
    lower("store.self_share", "ratio"),
    lower("serve.create_tenant_s", "s"),
    lower("serve.stream_p50_ms", "ms"),
    lower("serve.stream_p99_ms", "ms"),
    higher("serve.coalesce_ratio", "ratio"),
    lower("serve.read_p50_ns", "ns"),
    lower("serve.read_p99_ns", "ns"),
    lower("serve.read_max_us", "us"),
    higher("serve.reads_during_flush", "count"),
    lower("serve.shed", "count"),
    lower("serve.detect_fresh_ms", "ms"),
    lower("serve.repair_ms", "ms"),
    lower("serve.self_share", "ratio"),
    lower("bench.self_share", "ratio"),
    lower("bench.layer_sum_share", "ratio"),
    lower("bench.traced_wall_s", "s"),
    lower("bench.spans", "count"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.failed_share", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The `metrics` object of a result line: every metric of `specs`, in
/// catalogue order. A per-layer metric nobody set is 0 (that layer did no
/// work); an end-to-end metric must be set, finite and non-zero.
pub fn metrics_json(
    specs: &[MetricSpec],
    values: &Values,
    must_be_set: bool,
) -> Result<Json, String> {
    let mut fields = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = match values.get(spec.name) {
            Some(v) if v.is_finite() && (*v != 0.0 || !must_be_set) => *v,
            Some(v) => return Err(format!("metric {} has unusable value {v}", spec.name)),
            None if must_be_set => return Err(format!("metric {} was not measured", spec.name)),
            None => 0.0,
        };
        fields.push((
            spec.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(spec.unit))]),
        ));
    }
    Ok(Json::obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(spec.name), "bad metric name {:?}", spec.name);
            assert!(unit_ok(spec.unit), "bad unit {:?}", spec.unit);
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
        }
        assert!(!name_ok(".x") && !name_ok("a b") && !name_ok("µs") && !name_ok(""));
        assert!(END_TO_END.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = manifest.get(key) else {
                panic!("BENCHMARK.json has no {key} array");
            };
            assert_eq!(listed.len(), specs.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(specs) {
                let text = |k: &str| match entry.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key}.{}: {k} is {other:?}", spec.name),
                };
                assert_eq!(text("name"), spec.name);
                assert_eq!(text("unit"), spec.unit, "{}", spec.name);
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text("better"), better, "{}", spec.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(spec.bound), "{}", spec.name);
                } else {
                    assert_eq!(bound, None, "{} carries no bound", spec.name);
                }
            }
        }
        let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
            panic!("BENCHMARK.json has no workloads array");
        };
        let listed: Vec<_> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(s)) => s.as_str(),
                other => panic!("workload name is {other:?}"),
            })
            .collect();
        assert_eq!(listed, crate::WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn result_metrics_reject_unset_zero_and_non_finite_end_to_end_values() {
        let specs = &END_TO_END[..2];
        let mut values = Values::new();
        values.insert("setup_s", 0.5);
        assert!(metrics_json(specs, &values, true).is_err(), "one missing");
        values.insert("time_to_report_s", 0.0);
        assert!(metrics_json(specs, &values, true).is_err(), "zero");
        values.insert("time_to_report_s", f64::INFINITY);
        assert!(metrics_json(specs, &values, true).is_err(), "infinite");
        values.insert("time_to_report_s", 1.25);
        let json = metrics_json(specs, &values, true).unwrap();
        assert_eq!(
            json.render(),
            r#"{"setup_s":{"value":0.5,"unit":"s"},"time_to_report_s":{"value":1.25,"unit":"s"}}"#
        );
        // Per-layer: unset means the layer did no work.
        let json = metrics_json(&PER_LAYER[..1], &Values::new(), false).unwrap();
        assert_eq!(
            json.render(),
            r#"{"relation.csv_parse_s":{"value":0,"unit":"s"}}"#
        );
    }
}
