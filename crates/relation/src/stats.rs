//! Lightweight per-snapshot data statistics for the detection planner.
//!
//! The adaptive planner in `cfd-detect` chooses a detection strategy per CFD
//! from two data-side inputs: how many **distinct values** each column holds
//! (pattern-constant selectivity) and how many **groups** a `GROUP BY X`
//! over an LHS attribute set produces (per-group vs per-row work split).
//! Both must be much cheaper than detection itself, so [`RelationStats`]
//! computes them lazily, caches every answer, and switches from exact
//! counting to a KMV (k-minimum-values) sketch past a row threshold:
//!
//! * **small snapshots** (≤ [`EXACT_ROWS`] rows) are counted exactly with a
//!   hash set — the snapshot is tiny, so the count costs less than the plan
//!   decision it informs;
//! * **large snapshots** keep the `k` smallest distinct 64-bit hashes seen
//!   while streaming the column (or the composite key) once; with `kth` the
//!   largest retained hash, the classic KMV estimator
//!   `(k − 1) / (kth / 2^64)` approximates the distinct count within a few
//!   percent at `k = 256`, reading each cell exactly once and allocating
//!   nothing per row.
//!
//! Everything operates on interned [`ValueId`]s: hashing a cell is hashing
//! one `u32`, and because the interner is injective, id equality is value
//! equality — exact counts are truly exact. All estimates are deterministic
//! (fixed FNV-1a hashing, no `RandomState`), so a planner re-run over the
//! same snapshot reproduces the same plan.
//!
//! Stats are bound to one snapshot, and that binding is enforced at
//! **runtime**: every accessor keys the cache by the relation's row count
//! and discards all cached answers when the offered relation's count
//! differs — so a caller that misses an invalidation gets fresh (correct)
//! statistics instead of silently planning from a superseded instance.
//! This replaced a debug-only assertion: release builds (the only builds
//! that serve traffic) were previously unprotected. The row count cannot
//! distinguish two *different* same-sized instances, so callers that swap
//! content without changing the size (the `Session` facade invalidates on
//! every applied batch, covering this) must still drop the cache
//! explicitly.

use crate::interner::ValueId;
use crate::relation::Relation;
use crate::schema::AttrId;
use std::collections::{HashMap, HashSet};

/// Snapshots up to this many rows are counted exactly; larger ones are
/// sketched.
pub const EXACT_ROWS: usize = 16_384;

/// Sketch size: the number of minimum hashes a [`NdvSketch`] retains.
/// Standard error of the KMV estimator is ≈ `1/√(k−2)` ≈ 6% at 256.
pub const SKETCH_K: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of one interned cell, continuing a
/// running hash — the same construction the sharded detector partitions
/// with, fixed offset and prime, reproducible across runs and platforms.
#[inline]
fn fnv1a_cell(mut h: u64, id: ValueId) -> u64 {
    for byte in id.raw().to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A KMV (k-minimum-values) distinct-count sketch: retains the `k` smallest
/// **distinct** hashes observed and estimates the number of distinct inputs
/// from how densely they pack the low end of the hash space.
#[derive(Debug, Clone)]
pub struct NdvSketch {
    k: usize,
    /// Sorted ascending, distinct, at most `k` entries.
    mins: Vec<u64>,
}

impl NdvSketch {
    /// An empty sketch retaining the `k` smallest distinct hashes
    /// (`k ≥ 2`; estimates degrade below ~16).
    pub fn new(k: usize) -> Self {
        let k = k.max(2);
        NdvSketch {
            k,
            mins: Vec::with_capacity(k),
        }
    }

    /// Feeds one observation hash.
    pub fn observe(&mut self, h: u64) {
        match self.mins.binary_search(&h) {
            Ok(_) => {} // already retained
            Err(pos) => {
                if self.mins.len() < self.k {
                    self.mins.insert(pos, h);
                } else if pos < self.k {
                    // Smaller than the current kth minimum: displace it.
                    self.mins.pop();
                    self.mins.insert(pos, h);
                }
            }
        }
    }

    /// The estimated distinct count. Exact while fewer than `k` distinct
    /// hashes have been seen.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        // wslint: allow(panic_path, "guarded by the mins.len() < k early return above; k >= 2 by construction")
        let kth = *self.mins.last().expect("k >= 2 entries");
        // (k − 1) / fraction-of-hash-space covered by the k minima.
        let fraction = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / fraction
    }

    /// Whether the sketch still holds every distinct hash it has seen
    /// (estimate is exact).
    pub fn is_exact(&self) -> bool {
        self.mins.len() < self.k
    }
}

/// Distinct-value statistics of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Rows of the snapshot the count was taken over.
    pub rows: usize,
    /// (Estimated) number of distinct values in the column.
    pub ndv: f64,
    /// `true` when `ndv` is an exact count rather than a sketch estimate.
    pub exact: bool,
}

/// Group-cardinality statistics of one attribute set (the `GROUP BY X` the
/// `QV` detection query performs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStats {
    /// Rows of the snapshot the count was taken over.
    pub rows: usize,
    /// (Estimated) number of distinct composite keys.
    pub keys: f64,
    /// `true` when `keys` is an exact count rather than a sketch estimate.
    pub exact: bool,
}

/// Lazily-computed, cached statistics over **one** relation snapshot.
///
/// Every accessor takes the relation again because the stats never hold a
/// borrow (the `Session` owns both and hands them out independently); the
/// row count recorded at construction guards against mixing snapshots.
#[derive(Debug, Clone)]
pub struct RelationStats {
    rows: usize,
    columns: HashMap<AttrId, ColumnStats>,
    groups: HashMap<Vec<AttrId>, GroupStats>,
}

impl RelationStats {
    /// Empty cache bound to `rel`'s current row count.
    pub fn new(rel: &Relation) -> Self {
        RelationStats {
            rows: rel.len(),
            columns: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    /// Rows of the snapshot these stats describe.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The runtime staleness guard: when the offered relation's row count
    /// differs from the one the cache is keyed by, every cached answer
    /// describes a superseded instance — drop them all and re-key. A real
    /// check (not a `debug_assert`) because stale stats in a release build
    /// would silently mis-plan detection.
    fn rebind_if_stale(&mut self, rel: &Relation) {
        if rel.len() != self.rows {
            *self = RelationStats::new(rel);
        }
    }

    /// Distinct-value statistics of one column (computed on first request,
    /// cached after).
    pub fn column_stats(&mut self, rel: &Relation, attr: AttrId) -> ColumnStats {
        self.rebind_if_stale(rel);
        if let Some(stats) = self.columns.get(&attr) {
            return *stats;
        }
        let col = rel.column(attr);
        let stats = if col.len() <= EXACT_ROWS {
            let distinct: HashSet<ValueId> = col.iter().copied().collect();
            ColumnStats {
                rows: col.len(),
                ndv: distinct.len() as f64,
                exact: true,
            }
        } else {
            let mut sketch = NdvSketch::new(SKETCH_K);
            for &id in col {
                sketch.observe(fnv1a_cell(FNV_OFFSET, id));
            }
            ColumnStats {
                rows: col.len(),
                ndv: sketch.estimate().min(col.len() as f64),
                exact: sketch.is_exact(),
            }
        };
        self.columns.insert(attr, stats);
        stats
    }

    /// Group-cardinality statistics of an attribute set — how many distinct
    /// composite keys a `GROUP BY attrs` produces (computed on first
    /// request, cached per attribute set).
    pub fn group_stats(&mut self, rel: &Relation, attrs: &[AttrId]) -> GroupStats {
        self.rebind_if_stale(rel);
        if let Some(stats) = self.groups.get(attrs) {
            return *stats;
        }
        let stats = if attrs.len() == 1 {
            let c = self.column_stats(rel, attrs[0]);
            GroupStats {
                rows: c.rows,
                keys: c.ndv,
                exact: c.exact,
            }
        } else {
            let cols = rel.columns_for(attrs);
            if rel.len() <= EXACT_ROWS {
                let mut distinct: HashSet<Vec<ValueId>> = HashSet::new();
                let mut key = Vec::with_capacity(cols.len());
                for i in 0..rel.len() {
                    key.clear();
                    key.extend(cols.iter().map(|col| col[i]));
                    if !distinct.contains(&key) {
                        distinct.insert(key.clone());
                    }
                }
                GroupStats {
                    rows: rel.len(),
                    keys: distinct.len() as f64,
                    exact: true,
                }
            } else {
                let mut sketch = NdvSketch::new(SKETCH_K);
                for i in 0..rel.len() {
                    let mut h = FNV_OFFSET;
                    for col in &cols {
                        h = fnv1a_cell(h, col[i]);
                    }
                    sketch.observe(h);
                }
                GroupStats {
                    rows: rel.len(),
                    keys: sketch.estimate().min(rel.len() as f64),
                    exact: sketch.is_exact(),
                }
            }
        };
        self.groups.insert(attrs.to_vec(), stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn relation_with(rows: usize, distinct_a: usize, distinct_b: usize) -> Relation {
        let schema = Schema::builder("r").text("A").text("B").build();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_values(vec![
                Value::from(format!("a{}", i % distinct_a)),
                Value::from(format!("b{}", i % distinct_b)),
            ])
            .unwrap();
        }
        rel
    }

    #[test]
    fn small_snapshots_are_counted_exactly() {
        let rel = relation_with(1_000, 17, 5);
        let mut stats = RelationStats::new(&rel);
        let a = stats.column_stats(&rel, AttrId(0));
        assert!(a.exact);
        assert_eq!(a.ndv, 17.0);
        let b = stats.column_stats(&rel, AttrId(1));
        assert_eq!(b.ndv, 5.0);
        // Composite keys: lcm(17, 5) = 85 distinct pairs.
        let g = stats.group_stats(&rel, &[AttrId(0), AttrId(1)]);
        assert!(g.exact);
        assert_eq!(g.keys, 85.0);
    }

    #[test]
    fn single_attr_group_stats_reuse_the_column_count() {
        let rel = relation_with(500, 9, 3);
        let mut stats = RelationStats::new(&rel);
        let g = stats.group_stats(&rel, &[AttrId(0)]);
        assert_eq!(g.keys, 9.0);
        assert_eq!(g.rows, 500);
    }

    #[test]
    fn sketch_estimates_large_columns_within_tolerance() {
        let rel = relation_with(40_000, 3_000, 2);
        let mut stats = RelationStats::new(&rel);
        let a = stats.column_stats(&rel, AttrId(0));
        assert!(!a.exact, "40k rows must go through the sketch");
        let err = (a.ndv - 3_000.0).abs() / 3_000.0;
        assert!(err < 0.15, "estimate {} off by {:.1}%", a.ndv, err * 100.0);
        // Few distinct values stay exact even on the sketch path: the sketch
        // never fills.
        let b = stats.column_stats(&rel, AttrId(1));
        assert!(b.exact);
        assert_eq!(b.ndv, 2.0);
    }

    #[test]
    fn sketch_estimates_composite_keys() {
        // 40k rows, lcm(2499, 2) = 4998 distinct pairs.
        let rel = relation_with(40_000, 2_499, 2);
        let mut stats = RelationStats::new(&rel);
        let g = stats.group_stats(&rel, &[AttrId(0), AttrId(1)]);
        assert!(!g.exact);
        let err = (g.keys - 4_998.0).abs() / 4_998.0;
        assert!(err < 0.15, "estimate {} off by {:.1}%", g.keys, err * 100.0);
    }

    #[test]
    fn estimates_are_deterministic_and_cached() {
        let rel = relation_with(20_000, 700, 11);
        let mut first = RelationStats::new(&rel);
        let mut second = RelationStats::new(&rel);
        assert_eq!(
            first.column_stats(&rel, AttrId(0)),
            second.column_stats(&rel, AttrId(0))
        );
        // Cached: asking again returns the identical answer.
        assert_eq!(
            first.column_stats(&rel, AttrId(0)),
            first.column_stats(&rel, AttrId(0))
        );
        assert_eq!(
            first.group_stats(&rel, &[AttrId(0), AttrId(1)]),
            second.group_stats(&rel, &[AttrId(0), AttrId(1)])
        );
    }

    #[test]
    fn estimates_never_exceed_the_row_count() {
        // Every row distinct: the estimator must clamp at n.
        let schema = Schema::builder("r").text("A").build();
        let mut rel = Relation::new(schema);
        for i in 0..20_000 {
            rel.push_values(vec![Value::from(format!("v{i}"))]).unwrap();
        }
        let mut stats = RelationStats::new(&rel);
        let a = stats.column_stats(&rel, AttrId(0));
        assert!(a.ndv <= 20_000.0);
        assert!(a.ndv > 15_000.0, "estimate {} far too low", a.ndv);
    }

    #[test]
    fn stale_reuse_rebinds_instead_of_serving_superseded_counts() {
        // Regression for the release-mode staleness hole: reusing a stats
        // cache against a grown instance used to be guarded only by a
        // debug_assert, so release builds silently planned from stale
        // counts. This test is meaningful in BOTH profiles — it asserts the
        // *answers*, not the assertion.
        let small = relation_with(100, 4, 2);
        let mut stats = RelationStats::new(&small);
        assert_eq!(stats.column_stats(&small, AttrId(0)).ndv, 4.0);
        assert_eq!(stats.group_stats(&small, &[AttrId(0), AttrId(1)]).keys, 4.0);

        // Same attribute, different (bigger) instance through the SAME
        // cache: the runtime key must invalidate and recount.
        let grown = relation_with(1_000, 17, 5);
        let a = stats.column_stats(&grown, AttrId(0));
        assert_eq!(a.rows, 1_000, "stats must describe the offered instance");
        assert_eq!(a.ndv, 17.0, "stale cached count must not survive");
        assert_eq!(stats.rows(), 1_000, "cache re-keys to the new snapshot");
        let g = stats.group_stats(&grown, &[AttrId(0), AttrId(1)]);
        assert_eq!(g.keys, 85.0);

        // Shrinking works too (deletion-heavy batches).
        let shrunk = relation_with(50, 3, 3);
        assert_eq!(stats.column_stats(&shrunk, AttrId(0)).ndv, 3.0);
        assert_eq!(stats.rows(), 50);
    }

    #[test]
    fn sketch_handles_duplicate_hashes() {
        let mut sketch = NdvSketch::new(8);
        for h in [10, 10, 7, 7, 3, 99, 3] {
            sketch.observe(h);
        }
        assert!(sketch.is_exact());
        assert_eq!(sketch.estimate(), 4.0);
    }
}
