//! # cfd-detect — detecting CFD violations with SQL (Section 4)
//!
//! Given an instance `I` and a set `Σ` of CFDs, detection finds all the
//! inconsistent tuples — the tuples that (alone or together with others)
//! violate some CFD in `Σ`. The paper's key idea is that detection can be
//! pushed into a pair of SQL queries per CFD:
//!
//! * `QC` finds *single-tuple* violations: tuples matching a pattern row on
//!   the `X` attributes but contradicting one of its constants on `Y`;
//! * `QV` finds *multi-tuple* violations with a
//!   `GROUP BY X HAVING COUNT(DISTINCT Y) > 1`;
//!
//! and that a whole set of CFDs can be validated with a **single** query pair
//! by merging the pattern tableaux into union-compatible `T^X_Σ` / `T^Y_Σ`
//! tables (padding missing attributes with the don't-care symbol `@`) and
//! masking don't-care cells with SQL `CASE` expressions — keeping the query
//! size bounded by the embedded FDs and the number of passes over the data
//! at two.
//!
//! Four implementations of the `QC`/`QV` semantics remain in the workspace:
//! the oracle ([`cfd_core::Cfd::violations`], which everything here is tested
//! against) and, in this crate, the **SQL generator** (reproduction and
//! differential reference), the **block kernel** (hash-grouped scan) and the
//! **index-group evaluator** (groups reached through a
//! [`cfd_relation::Index`]). Everything else lays one of them out:
//!
//! * [`single`], [`merge`], [`merged`] — the SQL generator: `QC`/`QV` for
//!   one CFD (Fig. 5), tableau merging with `@` and tuple ids (Fig. 6/7),
//!   and the one merged query pair with `CASE` masking (Section 4.2.2) over
//!   either form of the merged tableaux,
//! * [`detector`] — the [`Detector`] that runs those queries on the
//!   in-memory SQL engine (per-CFD, merged, paper-form, or in parallel;
//!   [`Detector::with_strategy`] is the Fig. 9(a)/(b) knob), and the
//!   [`DetectorKind`] selector over the serving engines below,
//! * [`kernels`] — the block kernel ([`GroupScan`]): it consumes blocks of
//!   column slices, so an in-memory relation and a disk store's page chunks
//!   go through the same code,
//! * [`groups`] — the index-group evaluator ([`group_witnesses`] is its
//!   one-group form), and [`LhsGroups`], the one maintained "LHS index +
//!   keys dirtied by edits" state,
//! * [`direct`] — the [`DirectDetector`] (one kernel scan per CFD) and
//!   [`detect_with_index`] (every group of a prebuilt LHS index through the
//!   evaluator),
//! * [`sharded`] — the [`ShardedDetector`]: rows hash-partitioned by interned
//!   LHS key and scanned on scoped worker threads, byte-identical reports to
//!   the direct path (extension beyond the paper),
//! * [`planner`] — the cost-based [`Planner`] behind [`DetectorKind::Auto`]
//!   (extension beyond the paper),
//! * [`incremental`] — the [`IncrementalDetector`] stream engine: batched
//!   insert/delete maintenance over one [`LhsGroups`] per CFD (extension
//!   beyond the paper),
//! * [`recheck`] — [`recheck_lhs_keys`]: the oracle's witnesses of a batch
//!   of index groups (`None` for a don't-care CFD, which takes the scan),
//!   what the repair engine drives after each round of edits (extension
//!   beyond the paper).
//!
//! ```
//! use cfd_datagen::cust::{cust_instance, phi2};
//! use cfd_detect::Detector;
//!
//! let violations = Detector::new().detect(&phi2(), &cust_instance()).unwrap();
//! // t1 and t2 of Fig. 1 violate the (01, 908, _ ‖ _, MH, _) pattern.
//! assert_eq!(violations.constant_violations().len(), 2);
//! ```

pub mod detector;
pub mod direct;
pub mod groups;
pub mod incremental;
pub mod kernels;
pub mod merge;
pub mod merged;
pub mod planner;
pub mod recheck;
pub mod report;
pub mod sharded;
pub mod single;

pub use detector::{DetectStats, Detector, DetectorKind};
pub use direct::{detect_with_index, DirectDetector};
pub use groups::{group_witnesses, LhsGroups};
pub use incremental::{BatchOp, IncrementalDetector};
pub use kernels::{scan_group, GroupScan, ScanScratch};
pub use merge::MergedTableaux;
pub use planner::{DetectionPlan, PlanStep, Planner, StepStrategy};
pub use recheck::{recheck_lhs_key, recheck_lhs_keys};
pub use report::{ViolationItem, Violations};
pub use sharded::{available_cores, ShardedDetector, MIN_ROWS_PER_WORKER};
