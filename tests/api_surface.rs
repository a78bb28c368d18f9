//! Public-API surface snapshot (in-tree, no external deps).
//!
//! This test pins the facade's documented surface **at compile time**: the
//! prelude exports, the `Engine`/`Session` method sets with their exact
//! signatures (as typed function items), the free-function signatures, the
//! unified error type, and the `Send + Sync` sharing contract. Renaming a
//! method, changing a parameter type, or dropping a prelude export breaks
//! this file — which is the point: the README migration table and the
//! rustdoc stay honest because this snapshot compiles against them.

#![allow(dead_code, unused_imports, clippy::type_complexity)]

// Every prelude export, imported individually so a removal is a hard error.
use cfd::prelude::{
    cust_instance, cust_schema, AttrType, BatchOp, Cfd, CfdSet, CostModel, DetectionPlan,
    DetectorKind, Domain, Engine, EngineBuilder, EngineConfig, EngineConfigBuilder, Error,
    Explanation, IncrementalDetector, PatternTableau, PatternTuple, PatternValue, PlannedEdit,
    Planner, Relation, RepairConfig, RepairKind, RepairResult, Repairer, Schema, Session,
    ShardedDetector, StepStrategy, StorageConfig, Tuple, TupleWeights, Value, ViolationItem,
    Violations,
};
use cfd_detect::Violations as DetectViolations;
use cfd_repair::RepairResult as RepairResultAlias;
// The paper's SQL path is not behind the facade: `cfd-sql` is a crate of its
// own that only tests, examples and `cfd-bench` depend on.
use cfd_sql::{Detector, SqlError, Strategy};
use std::sync::Arc;

/// The free functions keep their documented signatures, `cfd::Error` being
/// the only error type either can return.
const _FREE_FUNCTIONS: () = {
    let _: fn(DetectorKind, &[Cfd], Arc<Relation>) -> Result<DetectViolations, Error> =
        cfd::detect_violations;
    let _: fn(RepairKind, &[Cfd], Arc<Relation>) -> Result<RepairResultAlias, Error> =
        cfd::repair_violations;
};

/// The `EngineBuilder` → `Engine` → `Session` lifecycle signatures.
const _LIFECYCLE: () = {
    let _: fn() -> EngineBuilder = Engine::builder;
    let _: fn(EngineBuilder, Cfd) -> EngineBuilder = EngineBuilder::rule;
    let _: fn(EngineBuilder, CfdSet) -> EngineBuilder = EngineBuilder::rule_set;
    let _: fn(EngineBuilder, EngineConfig) -> EngineBuilder = EngineBuilder::config;
    let _: fn(EngineBuilder) -> Result<Engine, Error> = EngineBuilder::build;

    let _: fn(&Engine) -> &CfdSet = Engine::rules;
    let _: fn(&Engine) -> &EngineConfig = Engine::config;
    let _: fn(&Engine) -> Option<&Schema> = Engine::schema;
    let _: fn(&Engine, Arc<Relation>) -> Result<Session, Error> = Engine::session;
    let _: fn(&Engine, &std::path::Path) -> Result<Session, Error> =
        |engine, dir| engine.session_on_disk(dir);
    let _: fn(&Engine, Arc<Relation>) -> Result<Violations, Error> = Engine::detect;
    let _: fn(&Engine, Arc<Relation>, RepairKind) -> Result<RepairResult, Error> = Engine::repair;
};

/// The `Session` method set: detect/repair/stream/explain from one handle.
const _SESSION: () = {
    let _: fn(&Session) -> &Engine = Session::engine;
    let _: fn(&Session) -> &Schema = Session::schema;
    let _: fn(&Session) -> usize = Session::len;
    let _: fn(&Session) -> bool = Session::is_empty;
    let _: fn(&mut Session) -> Result<Arc<Relation>, Error> = Session::snapshot;
    let _: fn(&mut Session) -> Result<Violations, Error> = Session::detect;
    let _: fn(&mut Session, RepairKind) -> Result<RepairResult, Error> = Session::repair;
    let _: fn(&mut Session, &[BatchOp]) -> Result<Violations, Error> = Session::apply_batch;
    let _: fn(&mut Session, &[BatchOp]) -> Result<(), Error> = Session::ingest;
    let _: fn(&mut Session, &RepairResult) -> Result<Violations, Error> = Session::commit_repair;
    let _: fn(&Session) -> bool = Session::is_disk_backed;
    let _: fn(&Session) -> Option<cfd::PoolStats> = Session::pool_stats;
    let _: fn(&Session) -> Option<u64> = Session::committed_batches;
    let _: fn(&mut Session) -> Result<(), Error> = Session::checkpoint;
    let _: fn(&mut Session, &[Tuple]) -> Result<Violations, Error> = Session::preview_insertions;
    let _: fn(&mut Session, &[Tuple]) -> Result<Violations, Error> = Session::preview_deletions;
    let _: fn(&mut Session, &ViolationItem) -> Result<Vec<Explanation>, Error> = Session::explain;
};

/// The consolidated configuration builder.
const _CONFIG: () = {
    let _: fn() -> EngineConfigBuilder = EngineConfig::builder;
    let _: fn(EngineConfigBuilder, DetectorKind) -> EngineConfigBuilder =
        EngineConfigBuilder::detector;
    let _: fn(EngineConfigBuilder, RepairKind) -> EngineConfigBuilder =
        EngineConfigBuilder::repair_kind;
    let _: fn(EngineConfigBuilder, usize) -> EngineConfigBuilder = EngineConfigBuilder::max_passes;
    let _: fn(EngineConfigBuilder, CostModel) -> EngineConfigBuilder =
        EngineConfigBuilder::cost_model;
    let _: fn(EngineConfigBuilder, bool) -> EngineConfigBuilder =
        EngineConfigBuilder::allow_lhs_edits;
    let _: fn(EngineConfigBuilder, bool) -> EngineConfigBuilder =
        EngineConfigBuilder::typed_placeholders;
    let _: fn(EngineConfigBuilder) -> Result<EngineConfig, Error> = EngineConfigBuilder::build;

    let _: fn(&EngineConfig) -> DetectorKind = EngineConfig::detector;
    let _: fn(&EngineConfig) -> &RepairConfig = EngineConfig::repair;
};

/// The serving selector is three scan layouts over one kernel; the paper's
/// SQL reproduction is `cfd_sql::Detector`, with its own strategy knob
/// (Fig. 9(a)/(b)), reporting into the same `Violations`.
const _DETECTION: () = {
    let _: fn(usize) -> [DetectorKind; 3] = DetectorKind::all;
    let _: fn(&DetectorKind, &[Cfd], &Relation) -> Violations = DetectorKind::detect_set;
    let _: fn(Detector, Strategy) -> Detector = Detector::with_strategy;
    let _: fn(&Detector, &[Cfd], Arc<Relation>) -> Result<Violations, SqlError> =
        Detector::detect_set;
    let _: fn(&Detector, &[Cfd], Arc<Relation>) -> Result<Violations, SqlError> =
        Detector::detect_set_merged;
    let _: fn(&Detector, &[Cfd], Arc<Relation>) -> Result<Violations, SqlError> =
        Detector::detect_set_merged_paper_form;
    // A repair result carries the generation `commit_repair` checks.
    let _: fn(&RepairResult) -> u64 = |result| result.generation;
};

/// Report iteration fuses with explain through `ViolationItem`.
const _REPORT: () = {
    let _: fn(&ViolationItem) -> &[Value] = ViolationItem::values;
};

/// The documented sharing contract: `Engine` is shareable across threads;
/// `Session` is owned per thread but may move between them. `cfd::Error` is
/// a real `std` error.
fn _contracts() {
    fn send_sync<T: Send + Sync>() {}
    fn send<T: Send>() {}
    fn std_error<T: std::error::Error>() {}
    send_sync::<Engine>();
    send_sync::<EngineConfig>();
    send::<Session>();
    std_error::<Error>();
}

/// `From` conversions into the unified error (compile-time check), and its
/// variant set: the match is exhaustive without a wildcard, so adding or
/// removing a variant breaks this file.
fn _error_conversions() {
    fn from_relation(e: cfd_relation::RelationError) -> Error {
        e.into()
    }
    fn from_rules(e: cfd_core::CfdError) -> Error {
        e.into()
    }
    fn from_store(e: cfd::StoreError) -> Error {
        e.into()
    }
    fn variants(e: &Error) {
        match e {
            Error::Rules(_)
            | Error::InconsistentRules
            | Error::Config(_)
            | Error::SchemaMismatch { .. }
            | Error::StaleResult { .. }
            | Error::WorkerPanicked
            | Error::Relation(_)
            | Error::Store(_) => {}
        }
    }
    let _ = (from_relation, from_rules, from_store, variants);
}

/// A documented-lifecycle smoke run: the quickstart flow compiles and works
/// exactly as the README shows it.
#[test]
fn documented_lifecycle_compiles_and_runs() {
    let engine: Engine = Engine::builder()
        .rule_set(cfd::datagen::fig2_cfd_set())
        .config(
            EngineConfig::builder()
                .detector(DetectorKind::Direct)
                .repair_kind(RepairKind::EquivClass)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let mut session: Session = engine.session(Arc::new(cust_instance())).unwrap();
    let report: Violations = session.detect().unwrap();
    assert_eq!(report.constant_violations().len(), 2);
    for item in report.items() {
        let explanations: Vec<Explanation> = session.explain(&item).unwrap();
        assert!(!explanations.is_empty());
    }
    let repair: RepairResult = session.repair(RepairKind::EquivClass).unwrap();
    assert!(repair.satisfied);
}
