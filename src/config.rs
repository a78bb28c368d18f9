//! One consolidated engine configuration.
//!
//! Detection and repair options used to be scattered — shard counts on
//! [`DetectorKind`], weights, distances and placeholder typing on
//! `cfd_repair::RepairConfig`, pool and WAL sizes on
//! `cfd_store::StoreOptions`.
//! [`EngineConfig`] gathers all of them behind one **validated** builder:
//! invalid combinations (zero shards, a zero round budget, negative weights,
//! …) are rejected at [`EngineConfigBuilder::build`] with
//! [`Error::Config`] instead of panicking or silently misbehaving deep
//! inside a run.

use crate::error::{Error, Result};
use cfd_detect::DetectorKind;
use cfd_repair::{CostModel, RepairConfig, RepairKind};
use cfd_store::StoreOptions;

/// Storage-layer knobs of disk-backed sessions
/// ([`Engine::session_on_disk`](crate::Engine::session_on_disk)): the
/// buffer-pool page budget and the WAL size that triggers a checkpoint.
/// Maps onto [`cfd_store::StoreOptions`]; the default matches
/// `StoreOptions::default()` (256 pages = 1 MiB of page cache, 4 MiB WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Buffer-pool capacity in pages. The store's page memory never
    /// exceeds this; must be ≥ 1 (the pool itself clamps to 2).
    pub pool_pages: usize,
    /// WAL size in bytes that triggers a checkpoint after a commit.
    pub wal_checkpoint_bytes: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        let opts = StoreOptions::default();
        StorageConfig {
            pool_pages: opts.pool_pages,
            wal_checkpoint_bytes: opts.wal_checkpoint_bytes,
        }
    }
}

impl StorageConfig {
    pub(crate) fn to_options(self) -> StoreOptions {
        StoreOptions {
            pool_pages: self.pool_pages,
            wal_checkpoint_bytes: self.wal_checkpoint_bytes,
        }
    }
}

/// The complete configuration of an [`Engine`](crate::Engine): which
/// detection engine serves [`Session::detect`](crate::Session::detect),
/// the full repair configuration (engine kind, round budget, cost model,
/// LHS-edit policy) and the storage knobs of disk-backed sessions. Construct via [`EngineConfig::builder`]; the `Default` instance
/// is the validated default configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    detector: DetectorKind,
    repair: RepairConfig,
    minimize: bool,
    storage: StorageConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            detector: DetectorKind::Direct,
            repair: RepairConfig::default(),
            minimize: false,
            storage: StorageConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Starts a configuration builder from the validated defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The detection engine [`Session::detect`](crate::Session::detect)
    /// dispatches to.
    pub fn detector(&self) -> DetectorKind {
        self.detector
    }

    /// The repair configuration (kind, round budget, cost model, LHS-edit
    /// policy, placeholder typing).
    pub fn repair(&self) -> &RepairConfig {
        &self.repair
    }

    /// Whether [`Engine::builder`](crate::Engine::builder) replaces the rule
    /// set with its minimal cover before compiling plans.
    pub fn minimize_rules(&self) -> bool {
        self.minimize
    }

    /// The storage-layer configuration of disk-backed sessions.
    pub fn storage(&self) -> StorageConfig {
        self.storage
    }
}

/// Builder for [`EngineConfig`]; every setter is chainable and
/// [`EngineConfigBuilder::build`] validates the combination.
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Selects the detection engine (default: [`DetectorKind::Direct`]).
    ///
    /// [`DetectorKind::Auto`] delegates the choice to the cost-based
    /// detection planner: per CFD (or fused same-LHS group), the session
    /// picks direct, sharded, merged or index-driven execution from column
    /// statistics of the served snapshot, with provenance available through
    /// [`Session::detection_plan`](crate::Session::detection_plan).
    pub fn detector(mut self, kind: DetectorKind) -> Self {
        self.config.detector = kind;
        self
    }

    /// Selects the default repair engine (default:
    /// [`RepairKind::EquivClass`]).
    pub fn repair_kind(mut self, kind: RepairKind) -> Self {
        self.config.repair.kind = kind;
        self
    }

    /// Maximum repair passes/rounds (default 16; must be ≥ 1).
    pub fn max_passes(mut self, passes: usize) -> Self {
        self.config.repair.max_passes = passes;
        self
    }

    /// The cost model pricing repairs and selecting class targets.
    ///
    /// Per-row `TupleWeights` overrides are positional: they refer to row
    /// indices of the instance a session currently serves, and do not
    /// follow tuples across batches that delete rows (see
    /// [`Session::apply_batch`](crate::Session::apply_batch)).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.config.repair.cost_model = model;
        self
    }

    /// Whether repairs may fall back to LHS placeholder edits (default
    /// `true`).
    pub fn allow_lhs_edits(mut self, allow: bool) -> Self {
        self.config.repair.allow_lhs_edits = allow;
        self
    }

    /// Whether LHS placeholders respect the column's declared type (default
    /// `true`).
    pub fn typed_placeholders(mut self, typed: bool) -> Self {
        self.config.repair.typed_placeholders = typed;
        self
    }

    /// Whether to replace Σ with its minimal cover (the paper's MINCOVER,
    /// Section 3.3) at [`Engine`](crate::Engine) build time, before plans
    /// are compiled (default `false`).
    ///
    /// The cover is equivalent to Σ — an instance is clean under the cover
    /// iff it is clean under Σ — so detection's *verdict* and repair's
    /// fixpoint are unaffected, while redundant rules stop costing plan
    /// steps and scans. Note the *report* is keyed by the rules that remain:
    /// removing a redundant CFD whose LHS differs from its witnesses'
    /// (e.g. a transitively implied FD) also removes the violation keys only
    /// that CFD produced. Byte-identical reports are guaranteed when every
    /// removed rule shares its LHS with a kept rule (duplicates,
    /// pattern-specialized rows of the same embedded FD).
    pub fn minimize_rules(mut self, minimize: bool) -> Self {
        self.config.minimize = minimize;
        self
    }

    /// Worker-thread budget of the equivalence-class repair engine (default:
    /// the machine's available cores; must be ≥ 1). The engine clamps the
    /// budget by the spawn-amortization rule shared with the detection
    /// planner, so small instances run sequentially regardless; repairs are
    /// byte-identical at any budget.
    pub fn repair_threads(mut self, threads: usize) -> Self {
        self.config.repair.threads = threads;
        self
    }

    /// Sets the storage-layer knobs used by
    /// [`Engine::session_on_disk`](crate::Engine::session_on_disk)
    /// (default: [`StorageConfig::default`]).
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.config.storage = storage;
        self
    }

    /// Validates the combination and returns the configuration.
    ///
    /// Rejected combinations (each with [`Error::Config`]):
    ///
    /// * `DetectorKind::Sharded { shards: 0 }` — a shard count of zero has
    ///   no partition to scan;
    /// * `max_passes == 0` — a zero round budget cannot repair anything
    ///   while still reporting `satisfied = false` on dirty data;
    /// * `storage.pool_pages == 0` — a disk-backed session needs at least
    ///   one buffer-pool frame;
    /// * `repair_threads == 0` — the repair engine needs at least one
    ///   worker (one means the sequential path);
    /// * non-finite or negative `replace_distance`/`placeholder_distance` —
    ///   cost minimization over such prices is meaningless;
    /// * a non-finite or negative tuple weight (default or override) — same.
    pub fn build(self) -> Result<EngineConfig> {
        let config = self.config;
        if config.detector == (DetectorKind::Sharded { shards: 0 }) {
            return Err(Error::Config("shard count must be at least 1".into()));
        }
        if config.repair.max_passes == 0 {
            return Err(Error::Config("max_passes must be at least 1".into()));
        }
        if config.storage.pool_pages == 0 {
            return Err(Error::Config(
                "storage pool_pages must be at least 1".into(),
            ));
        }
        if config.repair.threads == 0 {
            return Err(Error::Config(
                "repair_threads must be at least 1 (1 selects the sequential path)".into(),
            ));
        }
        let model = &config.repair.cost_model;
        for (name, d) in [
            ("replace_distance", model.replace_distance),
            ("placeholder_distance", model.placeholder_distance),
        ] {
            if !d.is_finite() || d < 0.0 {
                return Err(Error::Config(format!(
                    "{name} must be finite and non-negative, got {d}"
                )));
            }
        }
        let weights = &model.weights;
        let valid = |w: f64| w.is_finite() && w >= 0.0;
        if !valid(weights.default_weight()) {
            return Err(Error::Config(format!(
                "default tuple weight must be finite and non-negative, got {}",
                weights.default_weight()
            )));
        }
        if let Some(row) = (0..weights.override_len()).find(|&r| !valid(weights.get(r))) {
            return Err(Error::Config(format!(
                "tuple weight of row {row} must be finite and non-negative, got {}",
                weights.get(row)
            )));
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relation::TupleWeights;

    #[test]
    fn defaults_validate() {
        let config = EngineConfig::builder().build().unwrap();
        assert_eq!(config.detector(), DetectorKind::Direct);
        assert_eq!(config.repair().kind, RepairKind::EquivClass);
        assert_eq!(config.repair().max_passes, 16);
        assert!(config.repair().allow_lhs_edits);
        assert!(config.repair().typed_placeholders);
        assert_eq!(config.repair().threads, cfd_detect::available_cores());
        assert!(!config.repair().force_parallel);
    }

    #[test]
    fn every_setter_reaches_the_config() {
        let config = EngineConfig::builder()
            .detector(DetectorKind::Sharded { shards: 4 })
            .repair_kind(RepairKind::Heuristic)
            .max_passes(5)
            .cost_model(CostModel::with_edit_distance())
            .allow_lhs_edits(false)
            .typed_placeholders(false)
            .repair_threads(3)
            .build()
            .unwrap();
        assert_eq!(config.detector(), DetectorKind::Sharded { shards: 4 });
        assert_eq!(config.repair().kind, RepairKind::Heuristic);
        assert_eq!(config.repair().max_passes, 5);
        assert!(!config.repair().allow_lhs_edits);
        assert!(!config.repair().typed_placeholders);
        assert_eq!(config.repair().threads, 3);
    }

    #[test]
    fn zero_shards_are_rejected() {
        let err = EngineConfig::builder()
            .detector(DetectorKind::Sharded { shards: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("shard")));
    }

    #[test]
    fn zero_max_passes_is_rejected() {
        let err = EngineConfig::builder().max_passes(0).build().unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("max_passes")));
    }

    #[test]
    fn zero_storage_pool_pages_are_rejected() {
        let err = EngineConfig::builder()
            .storage(StorageConfig {
                pool_pages: 0,
                ..StorageConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("pool_pages")));
    }

    #[test]
    fn storage_config_reaches_the_config() {
        let storage = StorageConfig {
            pool_pages: 8,
            wal_checkpoint_bytes: 1024,
        };
        let config = EngineConfig::builder().storage(storage).build().unwrap();
        assert_eq!(config.storage(), storage);
        assert_eq!(
            EngineConfig::default().storage(),
            StorageConfig::default(),
            "default matches StoreOptions::default()"
        );
    }

    #[test]
    fn zero_repair_threads_are_rejected() {
        let err = EngineConfig::builder()
            .repair_threads(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("repair_threads")));
    }

    #[test]
    fn non_finite_replace_distance_is_rejected() {
        let err = EngineConfig::builder()
            .cost_model(CostModel {
                replace_distance: f64::NAN,
                ..CostModel::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("replace_distance")));
    }

    #[test]
    fn negative_placeholder_distance_is_rejected() {
        let err = EngineConfig::builder()
            .cost_model(CostModel {
                placeholder_distance: -1.0,
                ..CostModel::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("placeholder_distance")));
    }

    #[test]
    fn invalid_tuple_weights_are_rejected() {
        // A negative default weight.
        let err = EngineConfig::builder()
            .cost_model(CostModel {
                weights: TupleWeights::uniform(-2.0),
                ..CostModel::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("default tuple weight")));
        // A non-finite per-row override.
        let mut weights = TupleWeights::default();
        weights.set(3, f64::INFINITY);
        let err = EngineConfig::builder()
            .cost_model(CostModel {
                weights,
                ..CostModel::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(msg) if msg.contains("row 3")));
    }

    #[test]
    fn valid_nonzero_combinations_pass() {
        for kind in [
            DetectorKind::Direct,
            DetectorKind::Sharded { shards: 8 },
            DetectorKind::Auto,
        ] {
            EngineConfig::builder().detector(kind).build().unwrap();
        }
    }
}
