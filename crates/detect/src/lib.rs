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
//! This crate provides the paper's SQL detection as a reproduction and
//! differential reference, and **one** hash-based implementation of the same
//! `QC`/`QV` semantics that everything serving-side runs on:
//!
//! * [`single`] — `QC`/`QV` generation for one CFD (Fig. 5),
//! * [`merge`] — tableau merging with `@` and tuple ids (Fig. 6/7),
//! * [`merged`] — the merged query pair with `CASE` masking (Section 4.2.2),
//! * [`detector`] — the [`Detector`] that runs those queries on the
//!   in-memory SQL engine (per-CFD, merged, paper-form, or in parallel;
//!   [`Detector::with_strategy`] is the Fig. 9(a)/(b) knob), and the
//!   [`DetectorKind`] selector over the serving engines below,
//! * [`kernels`] — the one block-at-a-time `QC`+`QV` group scan
//!   ([`GroupScan`]): it consumes blocks of column slices, so an in-memory
//!   relation and a disk store's page chunks go through the same code,
//! * [`direct`] — the [`DirectDetector`] (one kernel scan per CFD) and the
//!   group-driven [`detect_with_index`] over a prebuilt LHS index,
//! * [`sharded`] — the [`ShardedDetector`]: rows hash-partitioned by interned
//!   LHS key and scanned on scoped worker threads, byte-identical reports to
//!   the direct path (extension beyond the paper),
//! * [`planner`] — the cost-based [`Planner`] behind [`DetectorKind::Auto`]
//!   (extension beyond the paper),
//! * [`incremental`] — the [`IncrementalDetector`] stream engine: batched
//!   insert/delete maintenance with group-local index updates (extension
//!   beyond the paper),
//! * [`recheck`] — [`recheck_lhs_key`]: per-`GROUP BY X`-group violation
//!   re-checking through a maintained LHS [`cfd_relation::Index`], the
//!   incremental-maintenance entry point the repair engine drives after
//!   each applied edit (extension beyond the paper).
//!
//! The semantic oracle all of them are tested against is
//! [`cfd_core::Cfd::violations`].
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
pub use incremental::{BatchOp, IncrementalDetector};
pub use kernels::{scan_group, GroupScan, ScanScratch};
pub use merge::MergedTableaux;
pub use planner::{DetectionPlan, PlanStep, Planner, StepStrategy};
pub use recheck::{recheck_lhs_key, recheck_lhs_keys, RecheckScratch};
pub use report::{ViolationItem, Violations};
pub use sharded::{available_cores, ShardedDetector, MIN_ROWS_PER_WORKER};
