//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public API goes through
//! [`Recorder::time`]: it always keeps the call's duration as a named
//! sample (the end-to-end and per-layer metrics are order statistics over
//! these), and in a traced run it also keeps a span — name, start, end,
//! parent. Spans live in memory and are written out once, at exit. Nothing
//! inside the crates under test is instrumented; a span's layer is the
//! crate whose function the benchmark called, read off the name's prefix.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: i64 = -1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `cfd.detect_warm`; `bench.*` is the harness.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, or [`NO_PARENT`].
    pub parent: i64,
    /// Which repetition of its phase the span belongs to.
    pub rep: u32,
    /// 0 for the main thread; `k > 0` for the `k`-th concurrent client. The
    /// client lanes run side by side, so each weighs `1 / lanes` of wall.
    pub lane: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects samples (always) and spans (traced runs) on one thread.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    lane: u32,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            tracing,
            epoch: Instant::now(),
            lane: 0,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// An empty recorder for client thread `lane` (≥ 1) sharing this one's
    /// clock; hand it back through [`Recorder::join`].
    pub fn fork(&self, lane: u32) -> Recorder {
        Recorder {
            lane,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            ..*self
        }
    }

    /// Merges a client thread's samples and spans; the client's root spans
    /// become children of whatever span is open here.
    pub fn join(&mut self, child: Recorder) {
        for (name, mut values) in child.samples {
            self.samples.entry(name).or_default().append(&mut values);
        }
        let offset = self.spans.len() as i64;
        let adopt = self.open.last().map_or(NO_PARENT, |&i| i as i64);
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                adopt
            } else {
                s.parent + offset
            };
            s
        }));
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a harness span (a workload, a phase, a client loop) that later
    /// [`Recorder::time`] calls nest under. No-op when not tracing.
    pub fn open(&mut self, name: &'static str) {
        if self.tracing {
            let start_ns = self.now_ns();
            self.push_open(name, start_ns);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.tracing {
            let end_ns = self.now_ns();
            if let Some(i) = self.open.pop() {
                self.spans[i].end_ns = end_ns;
            }
        }
    }

    fn push_open(&mut self, name: &'static str, start_ns: u64) {
        let parent = self.open.last().map_or(NO_PARENT, |&i| i as i64);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
            lane: self.lane,
        });
    }

    /// Runs `f` — one call into a layer — and records its duration in
    /// seconds under `name` (plus a span when tracing).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.samples
            .entry(name)
            .or_default()
            .push((end - start).as_secs_f64());
        if self.tracing {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.push_open(name, start_ns);
            let i = self.open.pop().expect("just pushed");
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        out
    }

    /// Durations recorded under `name`, in seconds, in call order.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Cost of recording one span, measured here and now: the basis of
    /// `bench.trace_overhead_share`.
    pub fn span_cost_s() -> f64 {
        const N: u32 = 20_000;
        let mut probe = Recorder::new(true);
        let start = Instant::now();
        for _ in 0..N {
            probe.time("bench.calibrate", || std::hint::black_box(0));
        }
        let traced = start.elapsed().as_secs_f64();
        let mut probe = Recorder::new(false);
        let start = Instant::now();
        for _ in 0..N {
            probe.time("bench.calibrate", || std::hint::black_box(0));
        }
        ((traced - start.elapsed().as_secs_f64()) / f64::from(N)).max(0.0)
    }
}

/// Per-span self time: the span's duration minus the part of it its child
/// spans cover (the union of their intervals, clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Wall-equivalent self time per layer, in seconds: main-thread spans count
/// in full, the `n` concurrent client lanes `1 / n` each, so the layers of
/// one trace sum to the wall time of its root spans.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let lanes = spans.iter().map(|s| s.lane).max().unwrap_or(0).max(1);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let weight = if span.lane == 0 {
            1.0
        } else {
            1.0 / f64::from(lanes)
        };
        *out.entry(span.layer()).or_default() += self_ns as f64 * 1e-9 * weight;
    }
    out
}

/// Total duration of the root spans, in seconds: the traced wall.
pub fn root_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// The `spans` array of `trace_<workload>.json`.
pub fn spans_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("workload", Json::str(workload)),
                    ("rep", Json::Num(f64::from(s.rep))),
                    ("lane", Json::Num(f64::from(s.lane))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: i64, lane: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("bench.root", 0, 100, NO_PARENT, 0),
            span("cfd.a", 10, 40, 0, 0),        // sibling 1, has a child
            span("detect.inner", 15, 25, 1, 0), // nested in cfd.a
            span("cfd.b", 50, 70, 0, 0),        // sibling 2
            span("cfd.c", 70, 80, 0, 0),        // sibling 3, adjacent to 2
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 20, 10]);
        // Self times partition the root: nothing counted twice, nothing lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let layers = layer_self_seconds(&spans);
        assert!((layers["bench"] - 40e-9).abs() < 1e-15);
        assert!((layers["cfd"] - 50e-9).abs() < 1e-15);
        assert!((layers["detect"] - 10e-9).abs() < 1e-15);
        assert!((root_seconds(&spans) - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span("bench.phase", 100, 200, NO_PARENT, 0),
            span("bench.client", 100, 200, 0, 1),
            span("bench.client", 90, 210, 0, 2), // sticks out both ends
            span("serve.stream", 120, 180, 1, 1),
            span("serve.stream", 100, 150, 2, 2),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 0, "two overlapping children cover the phase once");
        assert_eq!(selfs[1], 40);
        assert_eq!(selfs[2], 70);
        // Two client lanes weigh half each.
        let layers = layer_self_seconds(&spans);
        assert!((layers["serve"] - (60.0 + 50.0) / 2.0 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_timed_calls_under_open_spans() {
        let mut rec = Recorder::new(true);
        rec.open("bench.workload");
        rec.set_rep(3);
        rec.open("bench.phase");
        assert_eq!(rec.time("cfd.call", || 7), 7);
        let mut client = rec.fork(1);
        client.open("bench.client");
        client.time("serve.stream", || ());
        client.close();
        rec.join(client);
        rec.close();
        rec.close();
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("bench.workload", NO_PARENT),
                ("bench.phase", 0),
                ("cfd.call", 1),
                ("bench.client", 1),
                ("serve.stream", 3),
            ]
        );
        assert_eq!(rec.spans()[2].rep, 3);
        assert_eq!(rec.spans()[4].lane, 1);
        assert_eq!(rec.samples("cfd.call").len(), 1);
        assert_eq!(rec.samples("serve.stream").len(), 1);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times_ns(rec.spans()).iter().sum();
        assert_eq!(total, rec.spans()[0].end_ns - rec.spans()[0].start_ns);
    }

    #[test]
    fn untraced_recorder_keeps_samples_but_no_spans() {
        let mut rec = Recorder::new(false);
        rec.open("bench.workload");
        rec.time("cfd.call", || ());
        rec.close();
        assert!(rec.spans().is_empty());
        assert_eq!(rec.samples("cfd.call").len(), 1);
        assert!(rec.samples("never.called").is_empty());
    }
}
