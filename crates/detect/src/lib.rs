//! # cfd-detect — the serving detection engines (Section 4's semantics)
//!
//! Given an instance `I` and a set `Σ` of CFDs, detection finds all the
//! inconsistent tuples — the tuples that (alone or together with others)
//! violate some CFD in `Σ`. Section 4 of the paper splits the findings of
//! one CFD in two, and every engine here reports exactly that split:
//!
//! * `QC` — *single-tuple* violations: tuples matching a pattern row on the
//!   `X` attributes but contradicting one of its constants on `Y`;
//! * `QV` — *multi-tuple* violations: the `X` groups of tuples matching a
//!   pattern row that carry more than one distinct `Y` projection.
//!
//! The paper pushes both into a pair of SQL queries. That path — query
//! generation, tableau merging with `@` and `CASE` masking, and the
//! `Detector` that runs it — lives in the `cfd-sql` crate: a reproduction
//! artefact and differential oracle that depends on this crate for its
//! [`Violations`] report, not the other way round. What is left here are the two implementations of the
//! `QC`/`QV` semantics that serve — the **block kernel** (hash-grouped
//! scan) and the **index-group evaluator** (groups reached through a
//! [`cfd_relation::Index`]), both tested against the oracle
//! [`cfd_core::Cfd::violations`] — and the layouts over them:
//!
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
//!   (extension beyond the paper), and [`kind`] — the [`DetectorKind`]
//!   selector over the three layouts above,
//! * [`incremental`] — [`ViolationState`], the slot-free maintained report
//!   (per matched LHS key a live count per distinct `Y`, per `QC` violator
//!   a live count) that the [`IncrementalDetector`] stream engine and a
//!   disk-backed session both keep (extension beyond the paper),
//! * [`recheck`] — [`recheck_lhs_keys`]: the oracle's witnesses of a batch
//!   of index groups (`None` for a don't-care CFD, which takes the scan),
//!   what the repair engine drives after each round of edits (extension
//!   beyond the paper).
//!
//! ```
//! use cfd_datagen::cust::{cust_instance, phi2};
//! use cfd_detect::DirectDetector;
//!
//! let violations = DirectDetector::new().detect(&phi2(), &cust_instance());
//! // t1 and t2 of Fig. 1 violate the (01, 908, _ ‖ _, MH, _) pattern.
//! assert_eq!(violations.constant_violations().len(), 2);
//! ```

pub mod direct;
pub mod groups;
pub mod incremental;
pub mod kernels;
pub mod kind;
pub mod planner;
pub mod recheck;
pub mod report;
pub mod sharded;

pub use direct::{detect_with_index, DirectDetector};
pub use groups::{group_witnesses, LhsGroups};
pub use incremental::{BatchOp, IncrementalDetector, ViolationState};
pub use kernels::{scan_group, GroupScan, ScanScratch};
pub use kind::DetectorKind;
pub use planner::{DetectionPlan, PlanStep, Planner, StepStrategy};
pub use recheck::{recheck_lhs_key, recheck_lhs_keys};
pub use report::{ViolationItem, Violations};
pub use sharded::{available_cores, ShardedDetector, MIN_ROWS_PER_WORKER};
