//! Sharded parallel violation detection.
//!
//! The detection queries of Section 4 are embarrassingly partitionable by the
//! LHS pattern key: a single-tuple (`QC`) violation depends on one tuple
//! only, and a multi-tuple (`QV`) violation is confined to the set of tuples
//! sharing one `t[X]` projection. Hash-partitioning the rows by their
//! interned LHS key therefore co-locates every `GROUP BY X` group in exactly
//! one shard, and the shards can be detected on independent worker threads
//! with **no cross-shard communication**.
//!
//! [`ShardedDetector`] does exactly that: one cheap sequential pass assigns
//! each row to `hash(t[X]) mod N`, `N` scoped worker threads
//! ([`std::thread::scope`]) run the combined `QC`+`QV` scan over their shard,
//! and the per-shard [`Violations`] are folded into one report.
//!
//! # Determinism contract
//!
//! The report is **byte-identical** to
//! [`DirectDetector`](crate::DirectDetector)'s, for every shard
//! count, every thread interleaving, and across runs:
//!
//! * Shard assignment is a pure function of the row's interned LHS key: a
//!   fixed FNV-1a hash over the `ValueId` cells (no `RandomState`, no
//!   address-dependent seeds). Re-running with the same data and shard count
//!   reproduces the same partition.
//! * Per-shard reports are merged in ascending shard order; since
//!   [`Violations`] stores ordered sets ([`std::collections::BTreeSet`] keyed
//!   by resolved [`cfd_relation::Value`]s, i.e. stable tuple order — never
//!   intern order), the fold is order-insensitive and equals the single-shard
//!   report element for element, byte for byte under [`std::fmt::Display`].
//! * `NULL` cells keep their CFD semantics across shards: every `NULL` is
//!   the one interned [`cfd_relation::ValueId::NULL`], so two tuples whose
//!   keys contain `NULL` in the same position hash identically, land in the
//!   same shard, and group together there — `NULL = NULL`, and `NULL`
//!   matches no pattern constant, exactly as in the unsharded paths.
//! * A group's `QV` verdict needs the *whole* group: the partition key is
//!   the full LHS projection, so the co-location above is what makes the
//!   per-shard scans exhaustive. Sharding by anything finer (e.g. row ranges)
//!   would split groups and lose violations.

use crate::kernels::{scan_group, ScanScratch};
use crate::report::Violations;
use cfd_core::Cfd;
use cfd_relation::{Relation, ValueId};
use std::num::NonZeroUsize;

/// Hash-sharded parallel detector (see the module docs for the contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDetector {
    shards: usize,
}

/// The machine's available parallelism (≥ 1) — the one source both
/// [`ShardedDetector::default`] and the adaptive planner derive worker
/// counts from. Falls back to 1 when the runtime cannot tell.
///
/// Cached after the first call: `std::thread::available_parallelism` reads
/// cgroup quota files on Linux (tens of µs per call), which would otherwise
/// tax every planner construction on the serving path.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Spawn-amortization floor: a worker thread needs at least this many rows
/// (of scan-grade work) before spawn and partitioning overhead can
/// amortize. The **one** such threshold in the workspace — the detection
/// planner's shard-count rule and the parallel repair engine's
/// sequential-fallback rule both derive from it, so 1-core hosts and tiny
/// workloads never pay thread setup on either path.
pub const MIN_ROWS_PER_WORKER: usize = 8_192;

/// FNV-1a over the little-endian bytes of the interned LHS key, read
/// column-wise (`lhs_cols` are the LHS column slices in key order). Fixed
/// offset basis and prime: the partition is reproducible across runs and
/// platforms.
fn shard_of(lhs_cols: &[&[ValueId]], row: usize, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for col in lhs_cols {
        for byte in col[row].raw().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % shards as u64) as usize
}

impl ShardedDetector {
    /// A detector with the given shard/worker count (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        ShardedDetector {
            shards: shards.max(1),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Detects violations of one CFD, returning the same report as
    /// [`DirectDetector::detect`](crate::DirectDetector::detect) (see the
    /// module-level determinism contract).
    pub fn detect(&self, cfd: &Cfd, rel: &Relation) -> Violations {
        let mut out = Violations::new();
        scan_group_sharded(&[cfd], rel, self.shards, &mut out);
        out
    }

    /// Detects violations of a set of CFDs, merging per-CFD reports in input
    /// order — the sharded counterpart of
    /// [`DirectDetector::detect_set`](crate::DirectDetector::detect_set).
    pub fn detect_set(&self, cfds: &[Cfd], rel: &Relation) -> Violations {
        let mut out = Violations::new();
        for cfd in cfds {
            out.merge(self.detect(cfd, rel));
        }
        out
    }
}

impl Default for ShardedDetector {
    /// One shard per available core ([`available_cores`] — the same source
    /// the planner sizes shard counts from), down to a single shard on
    /// 1-core hosts: spawning a second worker there pays thread overhead
    /// with zero overlap, contradicting the planner's own
    /// never-spawn-when-unamortizable rule (at one shard, [`detect`]
    /// degenerates to the direct scan). Explicit counts remain honored
    /// through [`ShardedDetector::new`].
    ///
    /// [`detect`]: ShardedDetector::detect
    fn default() -> Self {
        ShardedDetector::new(available_cores())
    }
}

/// The sharded scan of CFDs sharing one LHS (one for [`ShardedDetector`],
/// a fused family for the planner): one sequential pass assigns each row to
/// `shard_of(t[X])`, every bucket is scanned on a scoped worker with its
/// own scratch, and the per-shard reports merge in ascending shard order
/// into `out`'s ordered sets. Panics propagate — a lost shard must never
/// silently produce a partial report.
pub(crate) fn scan_group_sharded(
    cfds: &[&Cfd],
    rel: &Relation,
    shards: usize,
    out: &mut Violations,
) {
    let Some(first) = cfds.first() else {
        return;
    };
    // Sharding pays for itself only when each worker gets real work;
    // degenerate inputs take the single-threaded scan unchanged (identical
    // output by the contract, so callers can't tell).
    if shards <= 1 || rel.len() < shards * 2 {
        scan_group(cfds, rel, None, &mut ScanScratch::new(), out);
        return;
    }
    // The partition pass touches the |X| column slices, nothing else.
    // (Buckets built per bucket — `vec![..; n]` clones, and clones don't
    // keep the pre-allocated capacity.)
    let lhs_cols = rel.columns_for(first.lhs());
    let mut buckets: Vec<Vec<u32>> = (0..shards)
        .map(|_| Vec::with_capacity(rel.len() / shards + 1))
        .collect();
    for i in 0..rel.len() {
        buckets[shard_of(&lhs_cols, i, shards)].push(i as u32);
    }
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let mut shard_out = Violations::new();
                    scan_group(
                        cfds,
                        rel,
                        Some(bucket),
                        &mut ScanScratch::new(),
                        &mut shard_out,
                    );
                    shard_out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    for report in reports {
        out.merge(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectDetector;
    use cfd_datagen::cust::{cust_instance, fig2_cfd_set, phi1, phi2, phi3_with_fd, phi5};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::{AttrId, Schema, Tuple, Value};

    #[test]
    fn byte_identical_to_direct_on_the_running_example() {
        let rel = cust_instance();
        for cfd in [phi1(), phi2(), phi3_with_fd(), phi5()] {
            let direct = DirectDetector::new().detect(&cfd, &rel);
            for shards in [1, 2, 4, 7] {
                let sharded = ShardedDetector::new(shards).detect(&cfd, &rel);
                assert_eq!(sharded, direct, "{} shards, {:?}", shards, cfd.name());
                assert_eq!(
                    sharded.to_string(),
                    direct.to_string(),
                    "rendered reports must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn byte_identical_to_direct_on_a_generated_workload() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 2_000,
            noise_percent: 8.0,
            seed: 91,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(13);
        let cfds = vec![
            workload.single(EmbeddedFd::ZipToState, 80, 70.0),
            workload.single(EmbeddedFd::AreaToCity, 80, 50.0),
        ];
        let direct = DirectDetector::new().detect_set(&cfds, &noisy);
        assert!(!direct.is_clean(), "workload must catch injected noise");
        let sharded = ShardedDetector::new(4).detect_set(&cfds, &noisy);
        assert_eq!(sharded, direct);
        assert_eq!(sharded.to_string(), direct.to_string());
    }

    #[test]
    fn groups_with_nulls_stay_whole_across_shards() {
        // Tuples whose keys contain NULL must land in one shard and group
        // together there (NULL = NULL), producing the same multi-tuple key
        // as the direct path.
        let schema = Schema::builder("r").text("A").text("B").text("C").build();
        let mut rel = Relation::new(schema.clone());
        for row in [
            vec![Value::Null, Value::from("k"), Value::from("x")],
            vec![Value::Null, Value::from("k"), Value::from("y")],
            vec![Value::from("a"), Value::from("k"), Value::from("z")],
        ] {
            rel.push(Tuple::new(row)).unwrap();
        }
        // Pad so sharding actually engages (len >= 2 * shards).
        for i in 0..30 {
            rel.push(Tuple::new(vec![
                Value::from(format!("p{i}")),
                Value::from("k"),
                Value::from("x"),
            ]))
            .unwrap();
        }
        let cfd = cfd_core::Cfd::fd(schema, ["A", "B"], ["C"]).unwrap();
        let direct = DirectDetector::new().detect(&cfd, &rel);
        assert_eq!(direct.multi_tuple_keys().len(), 1);
        assert_eq!(
            direct.multi_tuple_keys().iter().next().unwrap()[0],
            Value::Null
        );
        for shards in [2, 4, 8] {
            assert_eq!(ShardedDetector::new(shards).detect(&cfd, &rel), direct);
        }
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        let rel = cust_instance();
        let lhs: Vec<AttrId> = (0..2).map(AttrId).collect();
        let cols = rel.columns_for(&lhs);
        for i in 0..rel.len() {
            assert_eq!(shard_of(&cols, i, 5), shard_of(&cols, i, 5));
        }
        // Rows with identical LHS keys land in the same shard.
        assert_eq!(shard_of(&cols, 0, 5), shard_of(&cols, 1, 5));
    }

    #[test]
    fn degenerate_inputs_fall_back_to_the_oracle() {
        let schema = cust_instance().schema().clone();
        let empty = Relation::new(schema);
        let v = ShardedDetector::new(4).detect(&phi2(), &empty);
        assert!(v.is_clean());
        // Tiny relation: fewer rows than 2×shards still reports correctly.
        let rel = cust_instance();
        let v = ShardedDetector::new(64).detect(&phi2(), &rel);
        assert_eq!(v, DirectDetector::new().detect(&phi2(), &rel));
        assert_eq!(ShardedDetector::new(0).shards(), 1);
    }

    #[test]
    fn default_matches_the_available_cores() {
        // One shard per core, never a forced minimum of 2: on a 1-core host
        // the default must not pay spawn overhead for zero overlap.
        assert_eq!(ShardedDetector::default().shards(), available_cores());
        assert!(ShardedDetector::default().shards() >= 1);
        // Explicit counts are still honored verbatim (clamped to >= 1).
        assert_eq!(ShardedDetector::new(7).shards(), 7);
    }

    #[test]
    fn detect_set_merges_in_input_order_like_direct() {
        let rel = cust_instance();
        let cfds: Vec<_> = fig2_cfd_set().into_iter().collect();
        let direct = DirectDetector::new().detect_set(&cfds, &rel);
        let sharded = ShardedDetector::new(3).detect_set(&cfds, &rel);
        assert_eq!(sharded, direct);
    }
}
