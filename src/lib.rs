//! # cfd — Conditional Functional Dependencies for Data Cleaning
//!
//! Facade crate for the reproduction of *Conditional Functional Dependencies
//! for Data Cleaning* (Bohannon, Fan, Geerts, Jia, Kementsietsidis,
//! ICDE 2007), built around a two-level **prepared-state** model:
//!
//! 1. **[`Engine`]** — a rule set validated once: schema-checked,
//!    consistency-validated (Section 3), optionally minimized. Immutable,
//!    `Send + Sync`, cheap to clone — built via [`EngineBuilder`] with an
//!    [`EngineConfig`].
//! 2. **[`Session`]** — one dataset served against that engine:
//!    [`Session::detect`], [`Session::repair`] (Section 6),
//!    [`Session::apply_batch`] streaming with incremental maintenance, and
//!    [`Session::explain`] provenance for every finding. The per-dataset
//!    LHS indexes are built once and shared between detection and repair.
//!
//! ```
//! use cfd::prelude::*;
//! use std::sync::Arc;
//!
//! let engine = Engine::builder()
//!     .rule_set(cfd::datagen::fig2_cfd_set())
//!     .build()
//!     .unwrap();
//! let mut session = engine.session(Arc::new(cust_instance())).unwrap();
//! let report = session.detect().unwrap();
//! assert_eq!(report.constant_violations().len(), 2);
//! let repair = session.repair(RepairKind::EquivClass).unwrap();
//! assert!(repair.satisfied);
//! ```
//!
//! Every fallible facade call returns the single [`Error`] enum. The free
//! functions [`detect_violations`] / [`repair_violations`] remain as thin
//! one-shot wrappers over a throwaway engine.
//!
//! The workspace crates stay importable for lower-level use:
//!
//! * [`relation`] — values, schemas, tuples, in-memory columnar relations.
//! * [`core`] — CFDs, pattern tableaux, satisfaction, consistency, the
//!   inference system and minimal covers.
//! * [`detect`] — direct, hash-sharded parallel and incremental (streaming)
//!   violation detection over one vectorized scan kernel, selectable via
//!   [`DetectorKind`] — including [`DetectorKind::Auto`], the cost-based
//!   adaptive planner.
//! * [`repair`] — cost-based repair (Section 6) behind [`RepairKind`].
//! * [`store`] — the durable storage layer behind
//!   [`Engine::session_on_disk`]: pager, bounded buffer pool, persisted
//!   value dictionary and a group-commit write-ahead log, serving
//!   detection over instances larger than memory with crash recovery.
//! * [`datagen`] — the `cust` running example and the synthetic tax-records
//!   workload used by the evaluation.
//!
//! `cfd-sql` (the paper's SQL `QC`/`QV` path of Section 4 and its `Detector`:
//! reproduction artefact and differential oracle) and `cfd-discovery` (FD /
//! constant-CFD discovery) are **not** behind this facade, so nothing that
//! serves compiles them; depend on them directly.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use cfd_core as core;
pub use cfd_datagen as datagen;
pub use cfd_detect as detect;
pub use cfd_relation as relation;
pub use cfd_repair as repair;
pub use cfd_store as store;

mod config;
mod engine;
mod error;
mod session;

pub use cfd_detect::{DetectionPlan, DetectorKind, PlanStep, Planner, StepStrategy, ViolationItem};
pub use cfd_repair::RepairKind;
pub use cfd_store::{PoolStats, StoreError, StoreOptions};
pub use config::{EngineConfig, EngineConfigBuilder, StorageConfig};
pub use engine::{Engine, EngineBuilder};
pub use error::{Error, Result};
pub use session::{Explanation, PlannedEdit, Session};

use std::sync::Arc;

/// One-shot detection: compiles `cfds` into a throwaway [`Engine`]
/// configured for `kind` and detects on `data`.
///
/// Prefer building an [`Engine`] once when the same rules serve repeated
/// calls — this wrapper re-validates and re-compiles the rule set every
/// time (and, like the builder, rejects inconsistent rule sets).
///
/// ```
/// use cfd::prelude::*;
/// use std::sync::Arc;
///
/// let data = Arc::new(cust_instance());
/// let cfds = cfd::datagen::fig2_cfd_set();
/// let direct =
///     cfd::detect_violations(DetectorKind::Direct, cfds.cfds(), Arc::clone(&data)).unwrap();
/// let sharded =
///     cfd::detect_violations(DetectorKind::Sharded { shards: 4 }, cfds.cfds(), data).unwrap();
/// assert_eq!(direct, sharded);
/// ```
pub fn detect_violations(
    kind: DetectorKind,
    cfds: &[cfd_core::Cfd],
    data: Arc<cfd_relation::Relation>,
) -> Result<cfd_detect::Violations> {
    Engine::builder()
        .rules(cfds.iter().cloned())
        .config(EngineConfig::builder().detector(kind).build()?)
        .build()?
        .detect(data)
}

/// One-shot repair: compiles `cfds` into a throwaway [`Engine`] and repairs
/// `data` with the selected engine kind.
///
/// Configuration and rule problems surface as [`Error`]s instead of
/// panicking; prefer a long-lived [`Engine`] for repeated repairs.
///
/// ```
/// use cfd::prelude::*;
/// use std::sync::Arc;
///
/// let data = Arc::new(cust_instance());
/// let cfds: Vec<Cfd> = cfd::datagen::fig2_cfd_set().into_iter().collect();
/// let by_classes =
///     cfd::repair_violations(RepairKind::EquivClass, &cfds, Arc::clone(&data)).unwrap();
/// let by_passes = cfd::repair_violations(RepairKind::Heuristic, &cfds, data).unwrap();
/// assert!(by_classes.satisfied && by_passes.satisfied);
/// ```
pub fn repair_violations(
    kind: RepairKind,
    cfds: &[cfd_core::Cfd],
    data: Arc<cfd_relation::Relation>,
) -> Result<cfd_repair::RepairResult> {
    Engine::builder()
        .rules(cfds.iter().cloned())
        .build()?
        .repair(data, kind)
}

/// Commonly used items, importable with `use cfd::prelude::*;`.
pub mod prelude {
    pub use crate::{
        Engine, EngineBuilder, EngineConfig, EngineConfigBuilder, Error, Explanation, PlannedEdit,
        Session, StorageConfig,
    };
    pub use cfd_core::{Cfd, CfdSet, PatternTableau, PatternTuple, PatternValue};
    pub use cfd_datagen::cust::{cust_instance, cust_schema};
    pub use cfd_detect::{
        BatchOp, DetectionPlan, DetectorKind, IncrementalDetector, Planner, ShardedDetector,
        StepStrategy, ViolationItem, Violations,
    };
    pub use cfd_relation::{AttrType, Domain, Relation, Schema, Tuple, TupleWeights, Value};
    pub use cfd_repair::{CostModel, RepairConfig, RepairKind, RepairResult, Repairer};
}
