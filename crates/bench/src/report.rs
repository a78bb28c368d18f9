//! The one writer behind every committed `BENCH_*.json`: hand-timed series
//! as median-of-N with the spread beside it, a host line, and the JSON
//! document itself (the criterion shim prints text only).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed series: the median of `samples` measurements with their
/// extremes, all in ns per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Median sample (the upper one of an even count).
    pub median_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Number of samples.
    pub samples: usize,
}

impl Timing {
    /// Summarizes ns-per-iteration samples (at least one).
    pub fn of(mut samples: Vec<u128>) -> Timing {
        assert!(!samples.is_empty(), "a timed series needs a sample");
        samples.sort_unstable();
        Timing {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            samples: samples.len(),
        }
    }
}

/// Times `f` `samples` times (at least once) after one warm-up call.
pub fn time_ns_per_iter<T>(samples: usize, mut f: impl FnMut() -> T) -> Timing {
    std::hint::black_box(f());
    let timed = |_| {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_nanos()
    };
    Timing::of((0..samples.max(1)).map(timed).collect())
}

/// One record of a report: `"key": value` pairs in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Entry(Vec<String>);

impl Entry {
    /// An empty record.
    pub fn new() -> Entry {
        Entry::default()
    }

    /// Adds a string field (quotes and backslashes escaped).
    pub fn text(mut self, key: &str, value: &str) -> Entry {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push(format!("\"{key}\": \"{escaped}\""));
        self
    }

    /// Adds a number or boolean field, rendered by its `Display`.
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Entry {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    /// Adds a timed series: `ns_per_iter` (the median) with `min_ns`,
    /// `max_ns` and `samples`.
    pub fn timing(self, t: Timing) -> Entry {
        self.num("ns_per_iter", t.median_ns)
            .num("min_ns", t.min_ns)
            .num("max_ns", t.max_ns)
            .num("samples", t.samples)
    }
}

/// A `BENCH_<bench>.json` document: the bench name, the host it ran on and
/// the entries in measurement order.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    entries: Vec<Entry>,
}

impl Report {
    /// An empty report for `bench`.
    pub fn new(bench: &'static str) -> Report {
        Report {
            bench,
            entries: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// The document: a number means little without the host shape it was
    /// taken on, so `host` (cores, arch, os) leads.
    pub fn to_json(&self) -> String {
        let host = Entry::new()
            .num("cores", cfd_detect::available_cores())
            .text("arch", std::env::consts::ARCH)
            .text("os", std::env::consts::OS);
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"host\": {{{}}},\n  \"entries\": [\n",
            self.bench,
            host.0.join(", ")
        );
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(json, "    {{{}}}{sep}", e.0.join(", "));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Writes `crates/bench/BENCH_<bench>.json`; a failure is a warning,
    /// the harness output above it already carries the numbers.
    pub fn write(&self) {
        let path = format!("{}/BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), self.bench);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_the_median_with_its_spread() {
        let t = Timing::of(vec![9, 1, 5]);
        assert_eq!((t.median_ns, t.min_ns, t.max_ns, t.samples), (5, 1, 9, 3));
        let timed = time_ns_per_iter(0, || 1 + 1);
        assert_eq!(timed.samples, 1);
        assert!(timed.min_ns <= timed.median_ns && timed.median_ns <= timed.max_ns);
    }

    #[test]
    fn the_document_carries_host_and_entries_in_order() {
        let mut report = Report::new("demo");
        report.push(Entry::new().num("rows", 10).text("series", "a\"b"));
        report.push(Entry::new().timing(Timing::of(vec![7])));
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"demo\",\n  \"host\": {\"cores\": "));
        assert!(json.contains("    {\"rows\": 10, \"series\": \"a\\\"b\"},\n"));
        assert!(json.contains(
            "    {\"ns_per_iter\": 7, \"min_ns\": 7, \"max_ns\": 7, \"samples\": 1}\n  ]\n}\n"
        ));
    }
}
