//! The serving session: one dataset, one engine, all prepared state.
//!
//! A [`Session`] owns everything about serving one evolving dataset against
//! a compiled [`Engine`]:
//!
//! * the **current instance** — an in-memory relation, or a disk-backed
//!   [`ColumnStore`] behind the same API;
//! * the per-CFD **LHS indexes**, built once per snapshot and *shared*
//!   between the detector ([`cfd_detect::detect_with_index`]),
//!   [`Session::explain`] and the repair engine's dirty-group tracking
//!   ([`Repairer::repair_with_indexes`](cfd_repair::Repairer::repair_with_indexes));
//! * the **column statistics** and the [`DetectionPlan`] the adaptive
//!   planner derived from them;
//! * a maintained [`ViolationState`] — inside an embedded
//!   [`IncrementalDetector`] in memory, beside the store on disk — so
//!   [`Session::apply_batch`] streams mixed insert/delete batches against
//!   the same handle at `O(batch)` cost instead of rescans.
//!
//! Everything is built lazily by the first method that needs it, so opening
//! a session is cheap, and a pure streaming session never builds indexes or
//! plans it does not use.

use crate::engine::Engine;
use crate::error::{Error, Result};
use cfd_core::{Cfd, PatternTuple, ViolationKind, ViolationWitness, WitnessCells};
use cfd_detect::{
    detect_with_index, group_witnesses, BatchOp, DetectionPlan, DetectorKind, DirectDetector,
    IncrementalDetector, Planner, ShardedDetector, ViolationItem, ViolationState, Violations,
};
use cfd_relation::{
    project_attrs, AttrId, Index, Relation, RelationStats, Schema, Tuple, Value, ValueId,
};
use cfd_repair::{RepairKind, RepairResult, Repairer};
use cfd_store::{ColumnStore, PoolStats, StoreError};
use std::sync::Arc;

/// Who owns the served instance. Every state names its owner, so reading
/// the instance never has to assume one exists.
#[derive(Debug)]
enum Backing {
    /// In memory ([`Engine::session`]).
    Memory(Memory),
    /// On disk ([`Engine::session_on_disk`]): the store is the instance and
    /// batches commit through its WAL. `snapshot` is a materialized view
    /// every commit drops; `state` is the maintained report, built by one
    /// chunked pass over the store on first use and fed by every commit
    /// after that.
    Disk {
        store: Box<ColumnStore>,
        snapshot: Option<Arc<Relation>>,
        state: Option<ViolationState>,
    },
}

/// An in-memory instance.
#[derive(Debug)]
enum Memory {
    /// Snapshot current: `rel` is the instance and `stream` (built by the
    /// first preview or batch) mirrors it.
    Fresh {
        rel: Arc<Relation>,
        stream: Option<IncrementalDetector>,
    },
    /// Batches applied since the last snapshot: the stream detector's slot
    /// store is the instance.
    Streamed(IncrementalDetector),
}

impl Memory {
    /// The current instance, regathered from the stream detector when stale.
    fn snapshot(&mut self) -> Arc<Relation> {
        match self {
            Memory::Fresh { rel, .. } => Arc::clone(rel),
            Memory::Streamed(stream) => {
                let rel = Arc::new(stream.current_relation());
                // The detector moves into the fresh state, beside the
                // snapshot it now mirrors.
                let fresh = Memory::Fresh {
                    rel: Arc::clone(&rel),
                    stream: None,
                };
                if let Memory::Streamed(stream) = std::mem::replace(self, fresh) {
                    *self = Memory::Fresh {
                        rel: Arc::clone(&rel),
                        stream: Some(stream),
                    };
                }
                rel
            }
        }
    }

    /// The stream detector over the current instance, built on first use.
    fn stream(&mut self, cfds: &[Cfd]) -> &mut IncrementalDetector {
        match self {
            Memory::Fresh { rel, stream } => stream
                .get_or_insert_with(|| IncrementalDetector::new((**rel).clone(), cfds.to_vec())),
            Memory::Streamed(stream) => stream,
        }
    }
}

impl Backing {
    fn schema(&self) -> &Schema {
        match self {
            Backing::Memory(Memory::Fresh { rel, .. }) => rel.schema(),
            Backing::Memory(Memory::Streamed(stream)) => stream.schema(),
            Backing::Disk { store, .. } => store.schema(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backing::Memory(Memory::Fresh { rel, .. }) => rel.len(),
            Backing::Memory(Memory::Streamed(stream)) => stream.len(),
            Backing::Disk { store, .. } => store.len(),
        }
    }

    fn store(&self) -> Option<&ColumnStore> {
        match self {
            Backing::Disk { store, .. } => Some(store),
            Backing::Memory(_) => None,
        }
    }

    /// The current instance as a relation, regathered from the stream
    /// detector or materialized from the store when stale.
    fn snapshot(&mut self) -> Result<Arc<Relation>> {
        match self {
            Backing::Memory(memory) => Ok(memory.snapshot()),
            Backing::Disk {
                store, snapshot, ..
            } => materialized(store, snapshot),
        }
    }

    /// Retires the snapshot after a committed change: an in-memory stream
    /// detector becomes the owner, a disk session drops its materialized
    /// view (the maintained state followed the commit).
    fn supersede(&mut self) {
        match self {
            Backing::Memory(Memory::Fresh { stream, .. }) => {
                if let Some(stream) = stream.take() {
                    *self = Backing::Memory(Memory::Streamed(stream));
                }
            }
            Backing::Memory(Memory::Streamed(_)) => {}
            Backing::Disk { snapshot, .. } => *snapshot = None,
        }
    }
}

/// The store's live tuples as a relation (live-slot order), cached in
/// `snapshot` until the next commit.
fn materialized(
    store: &mut ColumnStore,
    snapshot: &mut Option<Arc<Relation>>,
) -> Result<Arc<Relation>> {
    let current = match snapshot.take() {
        Some(current) => current,
        None => Arc::new(store.materialize()?),
    };
    Ok(Arc::clone(snapshot.insert(current)))
}

/// The maintained report of the store, built on first use by one chunked
/// pass over it through the buffer pool (never through
/// [`ColumnStore::materialize`]).
fn maintained<'s>(
    store: &mut ColumnStore,
    state: &'s mut Option<ViolationState>,
    cfds: &[Cfd],
) -> Result<&'s mut ViolationState> {
    let built = match state.take() {
        Some(built) => built,
        None => {
            let mut built = ViolationState::new(store.schema().arity(), cfds.to_vec());
            store.for_each_chunk(|chunk| {
                built.extend(chunk);
                Ok(())
            })?;
            built
        }
    };
    Ok(state.insert(built))
}

/// The error of a failed store commit. Only the store's validation refuses
/// a batch before it mutates anything; any other failure may leave the
/// store ahead of the maintained state, which is then dropped, to be
/// rebuilt from the store on next use.
fn commit_failed(state: &mut Option<ViolationState>, e: StoreError) -> Error {
    if !matches!(e, StoreError::Relation(_)) {
        *state = None;
    }
    e.into()
}

/// The per-CFD LHS indexes over `snapshot`, built on first use. Don't-care
/// CFDs get a `None` slot: their tableaux group by attribute subsets a
/// full-LHS index cannot reproduce, so they are scanned instead.
fn ensure_indexes<'a>(
    slot: &'a mut Option<Vec<Option<Index>>>,
    cfds: &[Cfd],
    snapshot: &Relation,
) -> &'a [Option<Index>] {
    slot.get_or_insert_with(|| {
        cfds.iter()
            .map(|cfd| (!cfd.has_dont_care()).then(|| snapshot.build_index(cfd.lhs())))
            .collect()
    })
}

/// A serving session over one dataset (see the crate docs for the
/// lifecycle).
///
/// Obtained from [`Engine::session`] or [`Engine::session_on_disk`]. Methods
/// take `&mut self` because the session caches prepared per-snapshot state
/// internally; for concurrent serving, open one session per thread over the
/// same shared `Engine` and `Arc<Relation>`.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    backing: Backing,
    /// Commits applied so far ([`Session::apply_batch`], [`Session::ingest`],
    /// [`Session::commit_repair`]): what a [`RepairResult`] is stamped with
    /// and checked against. A disk-backed session counts the store's
    /// durable commits, so the count survives a reopen.
    generation: u64,
    /// Per-CFD LHS indexes over the snapshot, built once per snapshot.
    indexes: Option<Vec<Option<Index>>>,
    /// Column/group statistics of the snapshot, collected lazily by the
    /// first [`DetectorKind::Auto`] detection and grown on demand as the
    /// planner asks about new attribute sets.
    stats: Option<RelationStats>,
    /// The detection plan of the most recent [`DetectorKind::Auto`] run.
    plan: Option<DetectionPlan>,
}

impl Session {
    pub(crate) fn new(engine: Engine, data: Arc<Relation>) -> Result<Self> {
        if let Some(rules_schema) = engine.schema() {
            if data.schema() != rules_schema {
                return Err(Error::SchemaMismatch {
                    rules: rules_schema.name().to_owned(),
                    data: data.schema().name().to_owned(),
                });
            }
        }
        let backing = Backing::Memory(Memory::Fresh {
            rel: data,
            stream: None,
        });
        Ok(Session::over(engine, backing))
    }

    /// Opens a session over an already-recovered [`ColumnStore`] (the
    /// store's schema was checked against the engine's when it was opened).
    pub(crate) fn on_store(engine: Engine, store: ColumnStore) -> Self {
        let backing = Backing::Disk {
            store: Box::new(store),
            snapshot: None,
            state: None,
        };
        Session::over(engine, backing)
    }

    fn over(engine: Engine, backing: Backing) -> Self {
        Session {
            generation: backing.store().map_or(0, ColumnStore::committed_batches),
            engine,
            backing,
            indexes: None,
            stats: None,
            plan: None,
        }
    }

    /// Whether this session serves a disk-backed store
    /// ([`Engine::session_on_disk`]) rather than an in-memory relation.
    pub fn is_disk_backed(&self) -> bool {
        self.backing.store().is_some()
    }

    /// Buffer-pool accounting of the disk-backed store (`None` for
    /// in-memory sessions). `peak_resident` is the page-memory high-water
    /// mark — bounded by the configured
    /// [`StorageConfig::pool_pages`](crate::StorageConfig) however large
    /// the instance is.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.backing.store().map(ColumnStore::pool_stats)
    }

    /// Batches durably committed by the disk-backed store (`None` for
    /// in-memory sessions). After a crash and reopen, exactly the batches
    /// whose [`Session::apply_batch`]/[`Session::ingest`] call reported
    /// success are counted — the kill-and-recover harness asserts this.
    pub fn committed_batches(&self) -> Option<u64> {
        self.backing.store().map(ColumnStore::committed_batches)
    }

    /// Forces the disk-backed store to checkpoint now (no-op result on
    /// in-memory sessions): dirty pages, dictionary and metadata are made
    /// durable and the WAL is truncated.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Backing::Disk { store, .. } = &mut self.backing {
            store.checkpoint()?;
        }
        Ok(())
    }

    /// The engine this session serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The schema of the served instance.
    pub fn schema(&self) -> &Schema {
        self.backing.schema()
    }

    /// Number of live rows in the served instance.
    pub fn len(&self) -> usize {
        self.backing.len()
    }

    /// Whether the served instance is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current instance as a shared snapshot: re-gathered from the
    /// stream state when batches have been applied since the last call, and
    /// **materialized from the store** (in live-slot order) on disk-backed
    /// sessions — which is the only way this can fail.
    pub fn snapshot(&mut self) -> Result<Arc<Relation>> {
        self.backing.snapshot()
    }

    /// Detects the violations of the current instance with the engine's
    /// configured [`DetectorKind`]:
    ///
    /// * `Direct` — the group-driven scan over the session's shared LHS
    ///   indexes (don't-care CFDs fall back to the row scan);
    /// * `Sharded` — hash-partitioned parallel scan of the snapshot;
    /// * `Auto` — the cost-based [`Planner`](cfd_detect::Planner): per-CFD
    ///   strategies chosen from cached column statistics of the snapshot
    ///   (index-driven steps reuse the session's shared LHS indexes); the
    ///   chosen plan is kept for inspection via [`Session::detection_plan`].
    ///
    /// Reports are byte-identical to running the same [`DetectorKind`] from
    /// scratch on [`Session::snapshot`] — and to the paper's SQL query pairs
    /// (the `Detector` of `cfd-sql`); the differential harness pins both.
    ///
    /// On a **disk-backed** session every kind runs as
    /// [`ColumnStore::detect`]: the same scan kernel fed one page chunk at a
    /// time, page memory bounded by the buffer pool, without materializing
    /// the instance.
    pub fn detect(&mut self) -> Result<Violations> {
        let cfds = self.engine.rules().cfds();
        if let Backing::Disk { store, .. } = &mut self.backing {
            return Ok(store.detect(cfds)?);
        }
        let snapshot = self.backing.snapshot()?;
        match self.engine.config().detector() {
            DetectorKind::Direct => {
                let indexes = ensure_indexes(&mut self.indexes, cfds, &snapshot);
                let mut out = Violations::new();
                for (cfd, index) in cfds.iter().zip(indexes) {
                    match index {
                        Some(index) => out.merge(detect_with_index(cfd, &snapshot, index)),
                        None => out.merge(DirectDetector::new().detect(cfd, &snapshot)),
                    }
                }
                Ok(out)
            }
            DetectorKind::Sharded { shards } => {
                Ok(ShardedDetector::new(shards).detect_set(cfds, &snapshot))
            }
            DetectorKind::Auto => {
                let planner = Planner::new();
                // The plan is prepared state like the indexes: computed
                // once per snapshot (commits invalidate it with the
                // statistics it came from) and served from cache on
                // repeated detections. Indexes amortize across detections
                // on a served snapshot, so plan with `index_reusable`.
                let plan = match self.plan.take() {
                    Some(plan) => plan,
                    None => {
                        let stats = self
                            .stats
                            .get_or_insert_with(|| RelationStats::new(&snapshot));
                        planner.plan(cfds, &snapshot, stats, true)
                    }
                };
                let plan = self.plan.insert(plan);
                if plan.needs_indexes() {
                    ensure_indexes(&mut self.indexes, cfds, &snapshot);
                }
                Ok(planner.execute(plan, cfds, &snapshot, self.indexes.as_deref()))
            }
        }
    }

    /// The plan chosen by the most recent [`DetectorKind::Auto`] detection
    /// on this session: per fused step, the strategy the cost model picked,
    /// every scored candidate, and the group-cardinality estimate it was
    /// based on. `None` before the first `Auto` detection and after every
    /// commit (which invalidates the statistics the plan was built from).
    /// Disk-backed sessions run `Auto` as the streaming store scan and
    /// never populate a plan.
    pub fn detection_plan(&self) -> Option<&DetectionPlan> {
        self.plan.as_ref()
    }

    /// Repairs the current instance with the given engine kind (all other
    /// repair options from the engine configuration), handing the
    /// equivalence-class engine the session's shared LHS indexes.
    ///
    /// The session itself is **not** mutated — the result carries the
    /// repaired instance, byte-identical to the one-shot
    /// [`repair_violations`](crate::repair_violations) on
    /// [`Session::snapshot`]. To keep serving the repaired data, hand the
    /// result to [`Session::commit_repair`].
    pub fn repair(&mut self, kind: RepairKind) -> Result<RepairResult> {
        let threads = self.engine.config().repair().threads;
        self.repair_with_threads(kind, threads)
    }

    /// [`Session::repair`] with an explicit worker-thread budget for the
    /// equivalence-class engine, overriding the configured
    /// `repair_threads` (clamped to ≥ 1; the engine further clamps by its
    /// spawn-amortization rule). Results are **byte-identical at any
    /// budget** — this knob only trades wall-clock for cores, which is how
    /// the serving layer caps a tenant's repair fan-out without changing
    /// its answers.
    ///
    /// The result is stamped with the session's current generation
    /// ([`RepairResult::generation`]), which [`Session::commit_repair`]
    /// checks.
    pub fn repair_with_threads(
        &mut self,
        kind: RepairKind,
        threads: usize,
    ) -> Result<RepairResult> {
        let cfds = self.engine.rules().cfds();
        let snapshot = self.backing.snapshot()?;
        let mut config = self.engine.config().repair().clone();
        config.kind = kind;
        config.threads = threads.max(1);
        let repairer = Repairer::with_config(config);
        // Only the class engine consumes LHS indexes; the pass-loop
        // heuristic re-detects from scratch, so don't build or clone any
        // for it.
        let mut result = if kind == RepairKind::Heuristic {
            repairer.repair(cfds, &snapshot)
        } else {
            let indexes = ensure_indexes(&mut self.indexes, cfds, &snapshot).to_vec();
            repairer.repair_with_indexes(cfds, &snapshot, indexes)
        };
        result.generation = self.generation;
        Ok(result)
    }

    /// Applies a mixed insert/delete batch to the served instance through
    /// the embedded [`IncrementalDetector`](cfd_detect::IncrementalDetector)
    /// and returns the complete violation report of the **new** instance —
    /// equal to a from-scratch detection, at group-local maintenance cost
    /// (`O(batch + touched groups)` instead of `O(|I|)`).
    ///
    /// Note on per-row cost-model weights: `TupleWeights` overrides in the
    /// engine's [`CostModel`](cfd_repair::CostModel) are bound to **row
    /// positions of the current snapshot**. Deletions renumber subsequent
    /// rows, so positional weight overrides do not follow tuples across
    /// batches that delete — use uniform weights (the default) on streaming
    /// sessions, or re-open a session with re-derived weights after
    /// deletions.
    ///
    /// # Failure atomicity
    ///
    /// A **rejected** batch (e.g. an op whose arity does not match the
    /// schema) leaves the session exactly as it was: the instance is
    /// untouched *and* every piece of prepared per-snapshot state — LHS
    /// indexes, column statistics, the cached [`Session::detection_plan`],
    /// the generation outstanding [`RepairResult`]s carry — remains valid
    /// and is **not** invalidated. Validation happens before any mutation,
    /// and caches are only cleared after the batch succeeds, so an error
    /// never costs the session its prepared state (the root regression test
    /// pins this).
    ///
    /// On a **disk-backed** session the batch additionally commits through
    /// the store's WAL before this returns — see the durability contract
    /// on [`cfd_store::ColumnStore`] — and the report comes from the
    /// session's maintained [`ViolationState`], fed the ops the commit
    /// applied. The first call builds that state by one chunked pass over
    /// the store, before the commit; every later one costs the WAL commit
    /// plus `O(batch)`. An error therefore never leaves a commit behind:
    /// after a failed call, [`Session::committed_batches`] is unchanged.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<Violations> {
        let cfds = self.engine.rules().cfds();
        let report = match &mut self.backing {
            Backing::Memory(memory) => memory.stream(cfds).apply_batch(ops)?,
            Backing::Disk { store, state, .. } => {
                let current = maintained(store, state, cfds)?;
                match store.commit_batch(ops) {
                    Ok(applied) => {
                        current.apply(ops, &applied);
                        current.violations()
                    }
                    Err(e) => return Err(commit_failed(state, e)),
                }
            }
        };
        // The snapshot and everything bound to it are now stale — including
        // the column statistics and the detection plan derived from them:
        // the planner must never choose a strategy against counts of a
        // superseded instance.
        self.invalidate_after_commit();
        Ok(report)
    }

    /// Durably applies a batch to a **disk-backed** session without
    /// computing a violation report — the bulk-load path: the WAL commit is
    /// the whole cost (one WAL fsync, preceded by a dictionary fsync when
    /// the batch brings values the store has never held), detection is
    /// deferred until the next [`Session::detect`]. The maintained report
    /// [`Session::apply_batch`] keeps is fed the batch when it exists, and
    /// not built when it does not. Errors with
    /// [`Error::Config`](crate::Error::Config) on in-memory sessions
    /// (whose `apply_batch` always maintains a report anyway).
    ///
    /// Shares [`Session::apply_batch`]'s failure atomicity: a rejected
    /// batch mutates nothing and invalidates nothing.
    pub fn ingest(&mut self, ops: &[BatchOp]) -> Result<()> {
        let Backing::Disk { store, state, .. } = &mut self.backing else {
            return Err(Error::Config(
                "ingest requires a disk-backed session (use apply_batch on in-memory sessions)"
                    .into(),
            ));
        };
        // Validation happens inside the store before any mutation; on
        // error nothing below runs and all caches stay valid.
        match store.commit_batch(ops) {
            Ok(applied) => {
                if let Some(state) = state {
                    state.apply(ops, &applied);
                }
            }
            Err(e) => return Err(commit_failed(state, e)),
        }
        self.invalidate_after_commit();
        Ok(())
    }

    /// Applies a [`RepairResult`] from [`Session::repair`] on **this**
    /// session back to the served instance and returns the report of the
    /// repaired instance.
    ///
    /// On a disk-backed session the modifications become one durably
    /// logged cell-edit batch ([`cfd_store::ColumnStore::set_cells`] —
    /// one WAL record), translated from the result's live-row indices to
    /// store slots, and the maintained report is dropped (the next
    /// [`Session::apply_batch`] rebuilds it); on an in-memory session the
    /// session simply adopts `result.repaired` as its new snapshot. Either
    /// way the session serves the repaired data afterwards.
    ///
    /// The result's row indices are positions of the snapshot the repair
    /// ran over, so it must come from the session's **current** instance: a
    /// result computed before an intervening [`Session::apply_batch`],
    /// [`Session::ingest`] or `commit_repair` is refused with
    /// [`Error::StaleResult`] before anything is edited.
    pub fn commit_repair(&mut self, result: &RepairResult) -> Result<Violations> {
        if result.generation != self.generation {
            return Err(Error::StaleResult {
                result: result.generation,
                session: self.generation,
            });
        }
        match &mut self.backing {
            Backing::Disk { store, state, .. } => {
                let live = store.live_slots();
                let mut edits = Vec::with_capacity(result.modifications.len());
                for m in &result.modifications {
                    let slot = *live.get(m.row).ok_or_else(|| {
                        Error::Config(format!(
                            "repair result row {} is out of range for this instance \
                             ({} live rows); was it produced by another session?",
                            m.row,
                            live.len()
                        ))
                    })?;
                    edits.push((slot, m.attr.index() as u32, m.new.clone()));
                }
                store
                    .set_cells(&edits)
                    .map_err(|e| commit_failed(state, e))?;
                *state = None;
            }
            Backing::Memory(memory) => {
                *memory = Memory::Fresh {
                    rel: Arc::new(result.repaired.clone()),
                    stream: None,
                };
            }
        }
        self.invalidate_after_commit();
        self.detect()
    }

    /// Advances the generation — on disk to the store's commit count, which
    /// every commit path advances by exactly one WAL record — and drops
    /// every cache bound to the superseded snapshot.
    fn invalidate_after_commit(&mut self) {
        self.generation = match self.backing.store() {
            Some(store) => store.committed_batches(),
            None => self.generation + 1,
        };
        self.backing.supersede();
        self.indexes = None;
        self.stats = None;
        self.plan = None;
    }

    /// Previews the violations `batch` would introduce if inserted — the
    /// violations of `current ∪ batch` involving at least one batch tuple —
    /// without changing the session. Both backings answer from their
    /// maintained report (built on first use, as by
    /// [`Session::apply_batch`]).
    pub fn preview_insertions(&mut self, batch: &[Tuple]) -> Result<Violations> {
        let cfds = self.engine.rules().cfds();
        let report = match &mut self.backing {
            Backing::Memory(memory) => memory.stream(cfds).detect_insertions(batch)?,
            Backing::Disk { store, state, .. } => {
                maintained(store, state, cfds)?.preview_insertions(batch)?
            }
        };
        Ok(report)
    }

    /// Previews the currently-reported violations that deleting `batch`
    /// (bag semantics) would resolve, without changing the session. Which
    /// occurrences the deletion would retire is the instance owner's call —
    /// the stream detector's value map in memory, a read-only slot walk on
    /// disk — and what that resolves is the maintained report's.
    pub fn preview_deletions(&mut self, batch: &[Tuple]) -> Result<Violations> {
        let cfds = self.engine.rules().cfds();
        let report = match &mut self.backing {
            Backing::Memory(memory) => memory.stream(cfds).detect_deletions(batch)?,
            Backing::Disk { store, state, .. } => {
                let current = maintained(store, state, cfds)?;
                current.check_arity(batch)?;
                let hits = store.retirable(batch)?;
                let retired = batch.iter().zip(hits).filter(|&(_, hit)| hit);
                let retired: Vec<&[ValueId]> = retired.map(|(t, _)| t.ids()).collect();
                current.preview_deletions(&retired)
            }
        };
        Ok(report)
    }

    /// Explains one report finding: which CFDs and pattern tuples it
    /// violates, on which rows, with the witness-cell obligations and the
    /// repair plan the cost model would choose.
    ///
    /// Takes the [`ViolationItem`]s yielded by
    /// [`Violations::items`](cfd_detect::Violations::items), fusing report
    /// iteration with provenance lookup. Each returned [`Explanation`]
    /// carries the violated pattern tuple, the involved row indices, the
    /// cell-level obligations ([`Cfd::witness_cells`]) and — for every RHS
    /// obligation — the [`PlannedEdit`] with the chosen class target and its
    /// weighted cost. Findings that no longer exist on the current instance
    /// (or were produced by other rules) explain to an empty list.
    ///
    /// Multi-tuple keys are interpreted in each same-arity CFD's own LHS
    /// attribute order — the key space of every [`DetectorKind`]. (The
    /// paper's merged SQL pair, `Detector::detect_set_merged` of `cfd-sql`,
    /// reports multi-CFD `QV` keys over the *merged* `X`-attribute union
    /// instead; those union keys generally resolve to no per-CFD group
    /// here.)
    ///
    /// Planned edits apply the cost model's selection rule to **this
    /// witness's cells in isolation**. The equivalence-class repair engine
    /// additionally unions cells across *all* witnesses of a round, so when
    /// witnesses overlap (a row shared by several patterns or CFDs) the
    /// larger merged class can settle on a different target than the
    /// per-witness preview shows — [`Session::repair`] is the authority on
    /// what actually gets applied.
    ///
    /// Results are ordered by `(CFD index, rows, pattern index)` and are
    /// deterministic.
    pub fn explain(&mut self, item: &ViolationItem) -> Result<Vec<Explanation>> {
        let engine = &self.engine;
        let cfds = engine.rules().cfds();
        let snapshot = self.backing.snapshot()?;
        let indexes = ensure_indexes(&mut self.indexes, cfds, &snapshot);
        // A value never interned cannot occur in any relation: no provenance.
        let ids: Option<Vec<ValueId>> = item.values().iter().map(ValueId::get).collect();
        let Some(ids) = ids else {
            return Ok(Vec::new());
        };
        let all_attrs: Vec<AttrId> = snapshot.schema().attr_ids().collect();
        let mut out = Vec::new();
        for (cfd_index, (cfd, index)) in cfds.iter().zip(indexes).enumerate() {
            // The attributes the finding spells out, its witness kind, and
            // the LHS key of the group it lives in under this CFD.
            let (attrs, kind, key) = match item {
                ViolationItem::Constant(_) if ids.len() == all_attrs.len() => (
                    all_attrs.as_slice(),
                    ViolationKind::SingleTuple,
                    project_attrs(&ids, cfd.lhs()),
                ),
                ViolationItem::MultiTupleKey(_) if ids.len() == cfd.lhs().len() => {
                    (cfd.lhs(), ViolationKind::MultiTuple, ids.clone())
                }
                _ => continue,
            };
            // That one group, evaluated the way detection reported it.
            let rows = group_rows(index.as_ref(), cfd, &snapshot, &key);
            let witnesses = group_witnesses(cfd, &snapshot, &key, &rows);
            let cols = snapshot.columns_for(attrs);
            let spelled = |&row: &usize| cols.iter().zip(&ids).all(|(col, id)| col[row] == *id);
            for witness in witnesses {
                if witness.kind == kind && witness.rows.iter().any(spelled) {
                    out.push(explanation(engine, cfd_index, cfd, &snapshot, witness));
                }
            }
        }
        out.sort_by(|a, b| {
            (a.cfd_index, &a.rows, a.pattern_index).cmp(&(b.cfd_index, &b.rows, b.pattern_index))
        });
        Ok(out)
    }
}

/// The rows whose full-LHS projection under `cfd` equals `key`: an index
/// lookup for keyed CFDs, a column scan for don't-care ones (whose `QV`
/// keys the direct detector also reports over the full LHS).
fn group_rows(
    index: Option<&Index>,
    cfd: &Cfd,
    snapshot: &Relation,
    key: &[ValueId],
) -> Vec<usize> {
    if let Some(index) = index {
        return index.lookup_ids(key).to_vec();
    }
    let xcols = snapshot.columns_for(cfd.lhs());
    (0..snapshot.len())
        .filter(|&i| xcols.iter().zip(key).all(|(col, id)| col[i] == *id))
        .collect()
}

/// Packages one witness into an [`Explanation`] with its planned edits.
fn explanation(
    engine: &Engine,
    cfd_index: usize,
    cfd: &Cfd,
    snapshot: &Relation,
    witness: ViolationWitness,
) -> Explanation {
    let cells = cfd.witness_cells(&witness);
    let model = &engine.config().repair().cost_model;
    let mut planned = Vec::new();
    // Pin obligations: one edit per pinned RHS attribute (all pins of
    // one attribute share the pattern constant), priced over the
    // disagreeing cells.
    let mut pinned_attrs: Vec<(AttrId, ValueId)> = Vec::new();
    for &(_, attr, target) in &cells.pins {
        if !pinned_attrs.contains(&(attr, target)) {
            pinned_attrs.push((attr, target));
        }
    }
    for (attr, target) in pinned_attrs {
        let rows: Vec<usize> = cells
            .pins
            .iter()
            .filter(|&&(_, a, t)| a == attr && t == target)
            .map(|&(row, _, _)| row)
            .collect();
        let target_value = target.resolve();
        let cost: f64 = rows
            .iter()
            .filter(|&&row| snapshot.column(attr)[row] != target)
            .map(|&row| {
                model.weight(row)
                    * model
                        .distance
                        .distance(snapshot.column(attr)[row].resolve(), target_value)
            })
            .sum();
        planned.push(PlannedEdit {
            attr,
            rows,
            target: target_value.clone(),
            cost,
        });
    }
    // Merge obligations: the class target the cost model would choose.
    for (attr, rows) in &cells.merges {
        let class: Vec<(usize, AttrId)> = rows.iter().map(|&r| (r, *attr)).collect();
        if let Some((target, cost)) = model.class_target(snapshot, &class) {
            planned.push(PlannedEdit {
                attr: *attr,
                rows: rows.clone(),
                target: target.resolve().clone(),
                cost,
            });
        }
    }
    Explanation {
        cfd_index,
        cfd_name: cfd.name().map(str::to_owned),
        pattern_index: witness.pattern_index,
        pattern: cfd.tableau().rows()[witness.pattern_index].clone(),
        kind: witness.kind,
        rows: witness.rows,
        cells,
        planned,
    }
}

/// The provenance of one report finding (see [`Session::explain`]): the
/// violated CFD and pattern tuple, the involved rows, the witness-cell
/// obligations, and the repair plan the cost model would choose.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Index of the violated CFD within [`Engine::rules`].
    pub cfd_index: usize,
    /// The CFD's name, when it has one.
    pub cfd_name: Option<String>,
    /// Index of the violated pattern tuple within the CFD's tableau.
    pub pattern_index: usize,
    /// The violated pattern tuple itself.
    pub pattern: PatternTuple,
    /// Single- or multi-tuple violation.
    pub kind: ViolationKind,
    /// The involved row indices (sorted).
    pub rows: Vec<usize>,
    /// The cell-level repair obligations ([`Cfd::witness_cells`]): which
    /// cells must agree, which are pinned to pattern constants.
    pub cells: WitnessCells,
    /// Per RHS obligation, the edit a repair would apply.
    pub planned: Vec<PlannedEdit>,
}

/// One planned repair edit of an [`Explanation`]: the target value the cost
/// model selects for an equivalence class (or the pattern constant a pin
/// demands) and its weighted cost over the disagreeing cells — the same
/// selection rule as [`cfd_repair::CostModel::class_target`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedEdit {
    /// The edited attribute.
    pub attr: AttrId,
    /// The rows of the obligation's cells.
    pub rows: Vec<usize>,
    /// The chosen target value.
    pub target: Value,
    /// `Σ weight(row) × dist(current, target)` over the disagreeing cells.
    pub cost: f64,
}

/// Sessions hold only owned state and can move across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, fig2_cfd_set};

    #[test]
    fn the_snapshot_follows_the_stream_through_batches_and_repairs() {
        // Fresh -> (preview) Fresh+stream -> (batch) Streamed -> (snapshot)
        // Fresh+stream -> (commit_repair) Fresh: len/schema/snapshot agree
        // in every state.
        let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
        let base = cust_instance();
        let extra = base.to_tuples()[0].clone();
        let mut session = engine.session(Arc::new(base.clone())).unwrap();
        assert!(matches!(
            session.backing,
            Backing::Memory(Memory::Fresh { stream: None, .. })
        ));
        session
            .preview_insertions(std::slice::from_ref(&extra))
            .unwrap();
        assert!(matches!(
            session.backing,
            Backing::Memory(Memory::Fresh {
                stream: Some(_),
                ..
            })
        ));
        session.apply_batch(&[BatchOp::Insert(extra)]).unwrap();
        assert!(matches!(
            session.backing,
            Backing::Memory(Memory::Streamed(_))
        ));
        assert_eq!(session.len(), base.len() + 1);
        assert_eq!(session.schema(), base.schema());
        assert_eq!(session.snapshot().unwrap().len(), base.len() + 1);
        assert!(matches!(
            session.backing,
            Backing::Memory(Memory::Fresh {
                stream: Some(_),
                ..
            })
        ));
        let repair = session.repair(RepairKind::EquivClass).unwrap();
        assert!(session.commit_repair(&repair).unwrap().is_clean());
        assert!(matches!(
            session.backing,
            Backing::Memory(Memory::Fresh { stream: None, .. })
        ));
        assert_eq!(session.len(), base.len() + 1);
    }
}
