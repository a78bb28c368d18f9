//! Benchmark harness reproducing the evaluation of Section 5 (Fig. 9).
//!
//! Every panel of Figure 9 has a corresponding experiment function in
//! [`experiments`]; the `experiments` binary runs them and prints the series
//! the paper plots (detection time as a function of SZ, TABSZ, NUMCONSTs,
//! NOISE, …). Absolute numbers differ from the paper — the substrate is this
//! workspace's in-memory SQL engine rather than DB2 on 2007 hardware — but
//! the *shape* of each curve (who wins, what scales linearly, what has no
//! effect) is the reproduction target, and it is pinned — on the executor's
//! counters, not on wall clock — by `crates/sqlgen/tests/fig9_shapes.rs`.
//!
//! [`report`] is the one writer behind the committed `BENCH_*.json` files of
//! the kernel-isolating benches (`repair`, `store`, `planner`); everything
//! end to end is measured by the repository benchmark (`BENCHMARK.json`).
//!
//! Two sizes are supported: `quick` (default; minutes) and `full`
//! (`--full`; closer to the paper's parameters, tens of minutes). The
//! deviations in quick mode are only in data/tableau sizes, never in the
//! experimental structure.

use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_relation::Relation;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

pub mod experiments;
pub mod report;

/// One measured point of an experiment: a series name, the x-axis value, and
/// the measured wall-clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// x-axis value (e.g. `"50K"` tuples, `"30%"` constants).
    pub x: String,
    /// Series the point belongs to (e.g. `"CNF"`, `"DNF"`, `"NumAttrs=3"`).
    pub series: String,
    /// Measured wall-clock time in seconds.
    pub seconds: f64,
    /// Free-form detail (violations found, rows examined, …).
    pub detail: String,
}

/// A full experiment: an identifier (the paper's figure panel), a title and
/// the measured points.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Identifier, e.g. `"fig9a"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Parameters the experiment was run with (printed alongside results).
    pub parameters: String,
    /// The measured points, in series-major order.
    pub points: Vec<Point>,
}

impl Experiment {
    /// Renders the experiment as a Markdown table (one row per x value, one
    /// column per series).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "Parameters: {}\n", self.parameters);
        let mut series: Vec<&str> = Vec::new();
        for p in &self.points {
            if !series.contains(&p.series.as_str()) {
                series.push(&p.series);
            }
        }
        let mut xs: Vec<&str> = Vec::new();
        for p in &self.points {
            if !xs.contains(&p.x.as_str()) {
                xs.push(&p.x);
            }
        }
        let _ = write!(out, "| x |");
        for s in &series {
            let _ = write!(out, " {s} (s) |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for x in &xs {
            let _ = write!(out, "| {x} |");
            for s in &series {
                match self.points.iter().find(|p| p.x == *x && p.series == *s) {
                    Some(p) => {
                        let _ = write!(out, " {:.3} |", p.seconds);
                    }
                    None => {
                        let _ = write!(out, " – |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
        out
    }
}

/// Generates a tax-records instance of the given size and noise, wrapped for
/// sharing with detectors. Callers should reuse the returned `Arc`.
pub fn tax_data(size: usize, noise_percent: f64, seed: u64) -> Arc<Relation> {
    Arc::new(
        TaxGenerator::new(TaxConfig {
            size,
            noise_percent,
            seed,
        })
        .generate()
        .relation,
    )
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats a tuple count the way the paper labels its x axes (`10K`, `500K`).
pub fn fmt_size(n: usize) -> String {
    if n.is_multiple_of(1000) {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_has_one_column_per_series() {
        let exp = Experiment {
            id: "fig9x",
            title: "demo".into(),
            parameters: "none".into(),
            points: vec![
                Point {
                    x: "10K".into(),
                    series: "CNF".into(),
                    seconds: 1.0,
                    detail: String::new(),
                },
                Point {
                    x: "10K".into(),
                    series: "DNF".into(),
                    seconds: 0.5,
                    detail: String::new(),
                },
                Point {
                    x: "20K".into(),
                    series: "CNF".into(),
                    seconds: 2.0,
                    detail: String::new(),
                },
            ],
        };
        let md = exp.to_markdown();
        assert!(md.contains("| x | CNF (s) | DNF (s) |"));
        assert!(md.contains("| 10K | 1.000 | 0.500 |"));
        assert!(md.contains("| 20K | 2.000 | – |"));
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(10_000), "10K");
        assert_eq!(fmt_size(500_000), "500K");
        assert_eq!(fmt_size(1234), "1234");
    }

    #[test]
    fn timing_returns_result_and_elapsed() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn tax_data_builder_produces_requested_size() {
        let data = tax_data(500, 5.0, 1);
        assert_eq!(data.len(), 500);
    }
}
