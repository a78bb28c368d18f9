//! The [`DetectorKind`] selector over the serving engines.

use crate::direct::DirectDetector;
use crate::report::Violations;
use crate::sharded::ShardedDetector;
use cfd_core::Cfd;
use cfd_relation::Relation;

/// Selects the serving detection engine behind a single entry point
/// ([`DetectorKind::detect_set`]). All variants run the one vectorized scan
/// kernel and report byte-identical violation sets; they differ only in how
/// the work is laid out.
///
/// The paper's SQL path (the `Detector` of the `cfd-sql` crate) is
/// deliberately **not** a kind: it is 55–460× behind the direct scan on every
/// planner workload, so a serving `Session` never dispatches to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// The single-threaded scan ([`DirectDetector`]).
    Direct,
    /// Hash-sharded parallel detection ([`ShardedDetector`]): rows are
    /// partitioned by interned LHS key and scanned on scoped worker threads.
    Sharded {
        /// Shard/worker count (clamped to ≥ 1).
        shards: usize,
    },
    /// Cost-based adaptive detection ([`Planner`](crate::Planner)): a
    /// per-CFD strategy (direct / sharded / merged / index-driven) chosen
    /// from data statistics and rule shape. Reports are byte-identical to
    /// [`DetectorKind::Direct`] — only the execution path adapts.
    Auto,
}

impl DetectorKind {
    /// Detects the violations of `cfds` on `data` with the selected engine.
    pub fn detect_set(&self, cfds: &[Cfd], data: &Relation) -> Violations {
        match self {
            DetectorKind::Direct => DirectDetector::new().detect_set(cfds, data),
            DetectorKind::Sharded { shards } => {
                ShardedDetector::new(*shards).detect_set(cfds, data)
            }
            DetectorKind::Auto => crate::Planner::new().detect_set(cfds, data),
        }
    }

    /// Every selectable engine, for exhaustive differential sweeps.
    pub fn all(parallelism: usize) -> [DetectorKind; 3] {
        [
            DetectorKind::Direct,
            DetectorKind::Sharded {
                shards: parallelism,
            },
            DetectorKind::Auto,
        ]
    }
}
