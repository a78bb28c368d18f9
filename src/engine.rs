//! The prepared engine: compile a rule set once, serve many sessions.
//!
//! The paper's workflow (Sections 4–6) runs detect → incrementally maintain
//! → repair against a *fixed* CFD set Σ. [`Engine`] is that fixed set in
//! validated form: schema-checked, consistency-validated (Section 3),
//! optionally reduced to its minimal cover, and paired with one
//! [`EngineConfig`]. Serving a dataset is then [`Engine::session`] — all
//! per-dataset state (LHS indexes, column statistics and the plan of the
//! adaptive detection planner, the embedded stream detector) lives in the
//! [`Session`], never in the engine.

use crate::config::EngineConfig;
use crate::error::Result;
use crate::session::Session;
use cfd_core::{Cfd, CfdSet};
use cfd_detect::Violations;
use cfd_relation::{Relation, Schema};
use cfd_repair::{RepairKind, RepairResult};
use std::sync::Arc;

#[derive(Debug)]
struct EngineInner {
    rules: CfdSet,
    config: EngineConfig,
}

/// A rule set compiled for serving: immutable, cheap to clone, and shared
/// across threads.
///
/// # Sharing contract
///
/// `Engine` is **immutable** and `Send + Sync`: after [`EngineBuilder::build`]
/// succeeds, nothing about it ever changes — the validated [`CfdSet`] and
/// the [`EngineConfig`] are frozen. Cloning an `Engine` clones an [`Arc`]
/// handle to that frozen state, so one engine can serve any number of
/// concurrent [`Session`]s, each on its own thread and dataset, with no
/// locking anywhere. Mutable per-dataset state (LHS indexes, statistics,
/// plans, stream maintenance) lives exclusively in the `Session`.
///
/// # Determinism guarantees
///
/// For a fixed engine, every serving path is deterministic:
/// [`Session::detect`] reports are byte-identical to running the configured
/// [`DetectorKind`](cfd_detect::DetectorKind) from scratch on the session's
/// current instance, [`Session::repair`] produces byte-identical modification
/// logs and repaired instances to the one-shot
/// [`repair_violations`](crate::repair_violations) on the same snapshot, and
/// [`Session::apply_batch`] maintains exactly the report a from-scratch
/// detection of the post-batch instance would produce. The root
/// `tests/detector_differential.rs` harness pins all three.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Starts an [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The compiled rule set Σ.
    pub fn rules(&self) -> &CfdSet {
        &self.inner.rules
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The schema the rules are compiled against (`None` for an empty rule
    /// set, which accepts any data).
    pub fn schema(&self) -> Option<&Schema> {
        self.inner.rules.schema()
    }

    /// Opens a serving session over `data`.
    ///
    /// Cheap: per-dataset state (LHS indexes, statistics, the stream
    /// detector) is built lazily by the session methods that need it.
    /// Errors with [`Error::SchemaMismatch`](crate::Error::SchemaMismatch) when `data`'s schema differs
    /// from the rules' schema.
    pub fn session(&self, data: Arc<Relation>) -> Result<Session> {
        Session::new(self.clone(), data)
    }

    /// Opens a **disk-backed** serving session over the store directory
    /// `dir`, creating an empty store there on first use and recovering
    /// (WAL replay) from whatever a previous process left behind
    /// otherwise.
    ///
    /// The session serves the store's live tuples exactly as an in-memory
    /// session serves a [`Relation`]: detection reports are byte-identical
    /// to the in-memory path, and [`Session::apply_batch`] is durable —
    /// see the durability contract on [`cfd_store::ColumnStore`]. Storage
    /// knobs come from [`EngineConfig::storage`].
    ///
    /// Errors with [`Error::Config`](crate::Error::Config) for an engine
    /// with no rules (an empty rule set has no schema to create a store
    /// with), and with
    /// [`Error::Store`](crate::Error::Store)`(StoreError::SchemaMismatch)`
    /// when `dir` holds a store created under a different schema.
    pub fn session_on_disk(&self, dir: impl AsRef<std::path::Path>) -> Result<Session> {
        let schema = self.schema().ok_or_else(|| {
            crate::error::Error::Config(
                "session_on_disk needs an engine with rules: an empty rule set has no schema \
                 to create a store with"
                    .into(),
            )
        })?;
        let store = cfd_store::ColumnStore::open_or_create(
            dir.as_ref(),
            schema,
            self.config().storage().to_options(),
        )?;
        Ok(Session::on_store(self.clone(), store))
    }

    /// One-shot convenience: open a throwaway session over `data` and
    /// detect with the configured
    /// [`DetectorKind`](cfd_detect::DetectorKind).
    pub fn detect(&self, data: Arc<Relation>) -> Result<Violations> {
        self.session(data)?.detect()
    }

    /// One-shot convenience: open a throwaway session over `data` and
    /// repair with the given engine (remaining repair options from the
    /// engine configuration).
    pub fn repair(&self, data: Arc<Relation>, kind: RepairKind) -> Result<RepairResult> {
        self.session(data)?.repair(kind)
    }
}

/// Builder for [`Engine`]: collect rules, pick a configuration, then
/// [`EngineBuilder::build`] validates and compiles everything once.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    rules: Vec<Cfd>,
    config: EngineConfig,
}

impl EngineBuilder {
    /// An empty builder with the default configuration.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Adds one CFD.
    pub fn rule(mut self, cfd: Cfd) -> Self {
        self.rules.push(cfd);
        self
    }

    /// Adds CFDs in order.
    pub fn rules(mut self, cfds: impl IntoIterator<Item = Cfd>) -> Self {
        self.rules.extend(cfds);
        self
    }

    /// Adds every CFD of an existing [`CfdSet`].
    pub fn rule_set(self, set: CfdSet) -> Self {
        self.rules(set)
    }

    /// Sets the engine configuration (defaults otherwise).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates the rules and builds the engine.
    ///
    /// Build-time validation, in order:
    ///
    /// 1. all rules must share one schema ([`Error::Rules`](crate::Error::Rules));
    /// 2. the set must be **consistent** (Section 3.1) — an inconsistent Σ
    ///    admits no nonempty satisfying instance, so it is rejected with
    ///    [`Error::InconsistentRules`](crate::Error::InconsistentRules) before any data is touched
    ///    (don't-care `@` tableaux are exempt; see
    ///    [`CfdSet::ensure_consistent`]).
    pub fn build(self) -> Result<Engine> {
        let mut rules = CfdSet::from_cfds(self.rules)?;
        rules.ensure_consistent()?;
        // With minimize_rules configured, serve the minimal cover instead
        // of Σ itself (MINCOVER, Section 3.3): equivalent by implication,
        // fewer steps to plan and execute.
        if self.config.minimize_rules() {
            rules = rules.minimal_cover()?;
        }

        Ok(Engine {
            inner: Arc::new(EngineInner {
                rules,
                config: self.config,
            }),
        })
    }
}

/// Compile-time proof of the sharing contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineBuilder>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use cfd_datagen::cust::{cust_instance, fig2_cfd_set, phi2};
    use cfd_relation::Value;

    #[test]
    fn builder_compiles_the_fig2_set() {
        let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
        assert_eq!(engine.rules().len(), 3);
        assert_eq!(engine.schema().unwrap().name(), "cust");
        assert_eq!(engine.config().detector(), cfd_detect::DetectorKind::Direct);
    }

    #[test]
    fn engines_are_cheap_to_clone_and_share() {
        let engine = Engine::builder().rule(phi2()).build().unwrap();
        let clone = engine.clone();
        let data = Arc::new(cust_instance());
        let handle = {
            let engine = clone;
            let data = Arc::clone(&data);
            std::thread::spawn(move || engine.detect(data).unwrap())
        };
        let here = engine.detect(data).unwrap();
        assert_eq!(here, handle.join().unwrap());
        assert_eq!(here.constant_violations().len(), 2);
    }

    #[test]
    fn inconsistent_rules_are_rejected_at_build_time() {
        let s = cfd_relation::Schema::builder("r")
            .text("A")
            .text("B")
            .build();
        let to_b = Cfd::builder(s.clone(), ["A"], ["B"])
            .pattern(["_"], ["b"])
            .build()
            .unwrap();
        let to_c = Cfd::builder(s, ["A"], ["B"])
            .pattern(["_"], ["c"])
            .build()
            .unwrap();
        let err = Engine::builder().rule(to_b).rule(to_c).build().unwrap_err();
        assert_eq!(err, Error::InconsistentRules);
    }

    #[test]
    fn mixed_schemas_are_rejected_at_build_time() {
        let s1 = cfd_relation::Schema::builder("r1")
            .text("A")
            .text("B")
            .build();
        let s2 = cfd_relation::Schema::builder("r2")
            .text("A")
            .text("B")
            .build();
        let err = Engine::builder()
            .rule(Cfd::fd(s1, ["A"], ["B"]).unwrap())
            .rule(Cfd::fd(s2, ["A"], ["B"]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Rules(cfd_core::CfdError::MixedSchemas { .. })
        ));
    }

    #[test]
    fn empty_engine_serves_any_schema_and_reports_clean() {
        let engine = Engine::builder().build().unwrap();
        assert!(engine.schema().is_none());
        let report = engine.detect(Arc::new(cust_instance())).unwrap();
        assert!(report.is_clean());
        let repair = engine
            .repair(Arc::new(cust_instance()), RepairKind::EquivClass)
            .unwrap();
        assert!(repair.satisfied);
        assert_eq!(repair.changes(), 0);
    }

    #[test]
    fn schema_mismatch_is_rejected_at_session_time() {
        let engine = Engine::builder().rule(phi2()).build().unwrap();
        let other = cfd_relation::Schema::builder("other").text("X").build();
        let mut rel = Relation::new(other);
        rel.push_values(vec![Value::from("v")]).unwrap();
        let err = engine.session(Arc::new(rel)).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch { .. }));
    }
}
