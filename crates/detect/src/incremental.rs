//! Incremental violation detection over a stream of batched edits.
//!
//! The paper detects violations by scanning the whole instance. In a data
//! cleaning pipeline the instance *evolves*: tuples arrive and are retired in
//! batches, and re-running the full query pair on every batch wastes a pass
//! over data whose status cannot have changed. This module provides the
//! natural incremental engine (an extension beyond the paper) in two parts:
//!
//! * [`ViolationState`] — the maintained report, **slot-free**. Per CFD it
//!   keeps, for every LHS key some pattern row matches, a live count per
//!   distinct `Y` projection (the key is a `QV` finding exactly when it has
//!   two or more), and a live count per `QC`-violating tuple. An insert or a
//!   delete moves one group's count of one `Y` by one, so the state is
//!   updated from each edit's own cells — no group is re-walked and no cell
//!   is read back — and it needs no copy of the instance: a disk-backed
//!   session keeps one beside its store in `O(groups)` memory. Matching and
//!   the `QC` verdict go through [`groups`](crate::groups), where the
//!   semantics of a group are stated once.
//! * [`IncrementalDetector`] — the in-memory owner of an evolving instance:
//!   a slot store and a value → live-slots map, which decide whether a
//!   delete hits and which occurrence it retires, beside one
//!   `ViolationState`. Its reports equal a from-scratch
//!   [`DirectDetector`](crate::DirectDetector) run.
//!
//! Three entry points mirror the maintenance lifecycle:
//!
//! * [`IncrementalDetector::detect_insertions`] — a non-mutating preview:
//!   the violations of `current ∪ batch` that involve at least one batch
//!   tuple. Single-tuple (`QC`) violations are checked on the batch alone;
//!   multi-tuple (`QV`) groups combine the batch **with itself** and with
//!   the distinct `Y` values the state holds for the key.
//! * [`IncrementalDetector::detect_deletions`] — the deletion-side preview:
//!   the currently-reported violations that deleting the batch would
//!   *resolve* (deletions never create violations, so the interesting
//!   question is what they clean up).
//! * [`IncrementalDetector::apply_batch`] — full batched maintenance: apply
//!   a mixed insert/delete batch to the owned instance, fold the edits into
//!   the state, and return the complete report of the *new* instance —
//!   identical to re-detecting from scratch.
//!
//! The engine does not require the instance to be clean: construction folds
//! the initial relation in once and carries any pre-existing violations
//! forward.

use crate::groups::{values, GroupEval};
use crate::report::Violations;
use cfd_core::Cfd;
use cfd_relation::{
    project_attrs, project_cols_into, Relation, RelationError, Schema, Tuple, ValueId,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One edit of a mixed maintenance batch (see
/// [`IncrementalDetector::apply_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Append a tuple to the instance.
    Insert(Tuple),
    /// Remove one occurrence of an identical tuple (bag semantics). Deleting
    /// a tuple with no live occurrence is a no-op.
    Delete(Tuple),
}

impl BatchOp {
    /// The tuple the edit inserts or deletes.
    pub fn tuple(&self) -> &Tuple {
        match self {
            BatchOp::Insert(tuple) | BatchOp::Delete(tuple) => tuple,
        }
    }
}

/// Live counts keyed by interned cells.
type Counts = HashMap<Vec<ValueId>, usize>;

/// Moves the count of `key` one up (`arrive`) or one down, dropping it at 0.
fn bump(counts: &mut Counts, key: &[ValueId], arrive: bool) {
    match counts.get_mut(key) {
        Some(n) if arrive => *n += 1,
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            counts.remove(key);
        }
        None if arrive => {
            counts.insert(key.to_vec(), 1);
        }
        None => {}
    }
}

/// Live members per distinct `Y` projection of one group.
type Ys = Vec<(Vec<ValueId>, usize)>;

/// Moves the member count of `y` one up (`arrive`) or one down, dropping it
/// at 0.
fn tally(ys: &mut Ys, y: &[ValueId], arrive: bool) {
    match ys.iter().position(|(seen, _)| seen == y) {
        Some(i) if arrive => ys[i].1 += 1,
        Some(i) if ys[i].1 > 1 => ys[i].1 -= 1,
        Some(i) => {
            ys.swap_remove(i);
        }
        None if arrive => ys.push((y.to_vec(), 1)),
        None => {}
    }
}

/// The maintained `QC`/`QV` state of one CFD.
#[derive(Debug, Default)]
struct CfdCounts {
    /// Per LHS key some pattern row matches: its live members per distinct
    /// `Y` projection (`cfd.rhs()` order).
    groups: HashMap<Vec<ValueId>, Ys>,
    /// The keys of `groups` with two or more distinct `Y` — the `QV`
    /// findings, kept apart so a report costs `O(violations)`.
    multi: HashSet<Vec<ValueId>>,
    /// Live occurrences per `QC`-violating full tuple.
    qc: Counts,
}

impl CfdCounts {
    /// Edits the distinct-`Y` counts of group `key` (empty when new),
    /// keeping `groups` free of empty groups and `multi` in step.
    fn edit_group(&mut self, key: &[ValueId], edit: impl FnOnce(&mut Ys)) {
        let ys = match self.groups.get_mut(key) {
            Some(ys) => ys,
            None => self.groups.entry(key.to_vec()).or_default(),
        };
        let before = ys.len();
        edit(ys);
        let after = ys.len();
        if after == 0 {
            self.groups.remove(key);
        }
        match (before > 1, after > 1) {
            (false, true) => {
                self.multi.insert(key.to_vec());
            }
            (true, false) => {
                self.multi.remove(key);
            }
            _ => {}
        }
    }
}

/// The maintained violation report of an evolving instance, **slot-free**
/// (see the [module docs](self)): per CFD, live counts per distinct `Y` of
/// every matched LHS group and live counts per `QC`-violating tuple. It is
/// fed the cells of the tuples that arrive and leave — never reads the
/// instance back — so it serves the in-memory [`IncrementalDetector`] and a
/// disk-backed session alike, in `O(groups)` memory.
#[derive(Debug)]
pub struct ViolationState {
    arity: usize,
    cfds: Vec<Cfd>,
    counts: Vec<CfdCounts>,
}

impl ViolationState {
    /// The state of an empty instance of `arity` attributes under `cfds`.
    pub fn new(arity: usize, cfds: Vec<Cfd>) -> Self {
        let counts = cfds.iter().map(|_| CfdCounts::default()).collect();
        ViolationState {
            arity,
            cfds,
            counts,
        }
    }

    /// Counts every row of `rel` (of the instance's schema) in as an
    /// arrival — how a state is built over an initial instance, whole or a
    /// chunk at a time. Rows are grouped through one LHS index per CFD, so
    /// each key is matched against the tableau once.
    pub fn extend(&mut self, rel: &Relation) {
        for (cfd, counts) in self.cfds.iter().zip(&mut self.counts) {
            let index = rel.build_index(cfd.lhs());
            let ycols = rel.columns_for(cfd.rhs());
            let (mut eval, mut y, mut violators) = (GroupEval::cells(cfd), Vec::new(), Vec::new());
            for (key, rows) in index.iter() {
                if !eval.begin(key) {
                    continue;
                }
                violators.clear();
                counts.edit_group(key, |ys| {
                    for &row in rows {
                        project_cols_into(&ycols, row, &mut y);
                        eval.add_cells(&y);
                        if eval.violated().next().is_some() {
                            violators.push(row);
                        }
                        tally(ys, &y, true);
                    }
                });
                for row in violators.iter().filter_map(|&row| rel.row(row)) {
                    bump(&mut counts.qc, &row.to_ids(), true);
                }
            }
        }
    }

    /// Folds in the ops of a batch its owner has applied: `applied[i]`
    /// says whether op `i` changed the instance (every insert does, a delete
    /// only when it retired a live occurrence). Ops of another arity are
    /// skipped — every owner refuses them before applying anything.
    pub fn apply(&mut self, ops: &[BatchOp], applied: &[bool]) {
        let arity = self.arity;
        let edits: Vec<&BatchOp> = ops
            .iter()
            .zip(applied)
            .filter(|&(op, &hit)| hit && op.tuple().arity() == arity)
            .map(|(op, _)| op)
            .collect();
        for (cfd, counts) in self.cfds.iter().zip(&mut self.counts) {
            let mut eval = GroupEval::cells(cfd);
            for op in &edits {
                let cells = op.tuple().ids();
                let key = project_attrs(cells, cfd.lhs());
                if !eval.begin(&key) {
                    continue;
                }
                let y = project_attrs(cells, cfd.rhs());
                let arrive = matches!(op, BatchOp::Insert(_));
                eval.add_cells(&y);
                if eval.violated().next().is_some() {
                    bump(&mut counts.qc, cells, arrive);
                }
                counts.edit_group(&key, |ys| tally(ys, &y, arrive));
            }
        }
    }

    /// The complete violation report of the current instance — what a
    /// from-scratch [`DirectDetector::detect_set`](crate::DirectDetector)
    /// over it would return.
    pub fn violations(&self) -> Violations {
        let mut out = Violations::new();
        for counts in &self.counts {
            for cells in counts.qc.keys() {
                out.add_constant_violation(values(cells));
            }
            for key in &counts.multi {
                out.add_multi_tuple_key(values(key));
            }
        }
        out
    }

    /// Rejects the first of `tuples` whose arity is not the instance's, with
    /// the error every write path of the workspace returns for it.
    pub fn check_arity<'t>(
        &self,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> Result<(), RelationError> {
        let expected = self.arity;
        let bad = tuples.into_iter().find(|t| t.arity() != expected);
        bad.map_or(Ok(()), |t| {
            let got = t.arity();
            Err(RelationError::ArityMismatch { expected, got })
        })
    }

    /// The violations of `current ∪ batch` that involve at least one batch
    /// tuple (see [`IncrementalDetector::detect_insertions`]).
    ///
    /// Errors if any tuple's arity differs from the instance's.
    pub fn preview_insertions(&self, batch: &[Tuple]) -> Result<Violations, RelationError> {
        self.check_arity(batch)?;
        let mut out = Violations::new();
        for (cfd, counts) in self.cfds.iter().zip(&self.counts) {
            // Group the batch by LHS key; each group is the batch members
            // (the only `QC` candidates) followed by the distinct `Y` values
            // the key already holds.
            let mut members: BTreeMap<Vec<ValueId>, Vec<&Tuple>> = BTreeMap::new();
            for tuple in batch {
                let key = tuple.project_ids(cfd.lhs());
                members.entry(key).or_default().push(tuple);
            }
            let mut eval = GroupEval::cells(cfd);
            for (key, members) in &members {
                if !eval.begin(key) {
                    continue;
                }
                let mut multi = false;
                for tuple in members {
                    multi = eval.add_cells(&tuple.project_ids(cfd.rhs()));
                    if eval.violated().next().is_some() {
                        out.add_constant_violation(tuple.to_values());
                    }
                }
                let mut current = counts.groups.get(key).into_iter().flatten();
                if multi || current.any(|(y, _)| eval.add_cells(y)) {
                    out.add_multi_tuple_key(values(key));
                }
            }
        }
        Ok(out)
    }

    /// The current violations that retiring the live occurrences `retired`
    /// (full cells, one entry per occurrence, as the instance's owner
    /// resolved them) would **resolve** (see
    /// [`IncrementalDetector::detect_deletions`]).
    pub fn preview_deletions(&self, retired: &[&[ValueId]]) -> Violations {
        let mut taken: HashMap<&[ValueId], usize> = HashMap::new();
        for &cells in retired {
            *taken.entry(cells).or_insert(0) += 1;
        }

        // The merged report of `current \ retired`: a `QC` entry survives
        // while live occurrences remain; a `QV` key the retirement does not
        // touch carries over, a touched one survives while two of its
        // distinct `Y` keep live members.
        let mut after = Violations::new();
        for (cfd, counts) in self.cfds.iter().zip(&self.counts) {
            for (cells, &live) in &counts.qc {
                if live > taken.get(cells.as_slice()).copied().unwrap_or(0) {
                    after.add_constant_violation(values(cells));
                }
            }
            let mut lost: HashMap<Vec<ValueId>, Vec<(Vec<ValueId>, usize)>> = HashMap::new();
            for (&cells, &n) in &taken {
                let key = project_attrs(cells, cfd.lhs());
                if counts.multi.contains(&key) {
                    let y = project_attrs(cells, cfd.rhs());
                    lost.entry(key).or_default().push((y, n));
                }
            }
            for key in &counts.multi {
                let survives = match (lost.get(key), counts.groups.get(key)) {
                    (None, _) => true,
                    (Some(lost), Some(ys)) => {
                        let gone = |y: &[ValueId]| -> usize {
                            lost.iter().filter(|(g, _)| g == y).map(|(_, n)| n).sum()
                        };
                        ys.iter()
                            .filter(|(y, live)| *live > gone(y))
                            .nth(1)
                            .is_some()
                    }
                    (Some(_), None) => false,
                };
                if survives {
                    after.add_multi_tuple_key(values(key));
                }
            }
        }

        // Resolved = current merged report − simulated merged report.
        let before = self.violations();
        let mut out = Violations::new();
        for t in before.constant_violations() {
            if !after.constant_violations().contains(t) {
                out.add_constant_violation(t.clone());
            }
        }
        for k in before.multi_tuple_keys() {
            if !after.multi_tuple_keys().contains(k) {
                out.add_multi_tuple_key(k.clone());
            }
        }
        out
    }
}

/// Dead-slot floor below which [`IncrementalDetector`] never compacts:
/// keeps short streams free of regather churn while still bounding a
/// long-running engine's memory to `O(live)`.
const COMPACT_MIN_DEAD: usize = 1024;

/// The live slots of every distinct full cell vector of `store`, in slot
/// order.
fn slots_by_value(store: &Relation) -> HashMap<Vec<ValueId>, Vec<usize>> {
    let mut by_value: HashMap<Vec<ValueId>, Vec<usize>> = HashMap::new();
    for (slot, row) in store.iter() {
        by_value.entry(row.to_ids()).or_default().push(slot);
    }
    by_value
}

/// Incremental detection engine owning the evolving instance.
#[derive(Debug)]
pub struct IncrementalDetector {
    /// The slot store: a columnar [`Relation`] holding every slot ever
    /// appended (live and dead).
    store: Relation,
    /// Liveness per slot. When dead slots outnumber live ones (past
    /// [`COMPACT_MIN_DEAD`]), `apply_batch` compacts: live rows are
    /// gathered column-wise into a fresh store, so memory tracks the live
    /// size rather than total inserts ever seen. The report state is
    /// slot-free and survives compaction untouched.
    alive: Vec<bool>,
    live: usize,
    /// Full cell vector → live slots, for bag-semantics deletion by value.
    by_value: HashMap<Vec<ValueId>, Vec<usize>>,
    state: ViolationState,
}

impl IncrementalDetector {
    /// Builds the engine over an initial instance, folding it into the
    /// report state once. The instance does **not** have to be clean;
    /// pre-existing violations are reported alongside stream-induced ones.
    /// The relation is taken over as the engine's slot store — no copy.
    pub fn new(base: Relation, cfds: Vec<Cfd>) -> Self {
        let mut state = ViolationState::new(base.schema().arity(), cfds);
        state.extend(&base);
        IncrementalDetector {
            alive: vec![true; base.len()],
            live: base.len(),
            by_value: slots_by_value(&base),
            store: base,
            state,
        }
    }

    /// The CFDs being enforced.
    pub fn cfds(&self) -> &[Cfd] {
        &self.state.cfds
    }

    /// Number of live tuples in the maintained instance.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the maintained instance is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The schema of the maintained instance.
    pub fn schema(&self) -> &Schema {
        self.store.schema()
    }

    /// The complete violation report of the current instance — what a
    /// from-scratch [`DirectDetector::detect_set`](crate::DirectDetector)
    /// over [`IncrementalDetector::current_relation`] would return.
    pub fn violations(&self) -> Violations {
        self.state.violations()
    }

    /// Materializes the current instance (live rows, insertion order) by a
    /// column-wise gather of the live slots. Meant for audits and
    /// differential tests; detection itself never needs it.
    pub fn current_relation(&self) -> Relation {
        let live = (0..self.alive.len()).filter(|&slot| self.alive[slot]);
        self.store.gather_rows(&live.collect::<Vec<_>>())
    }

    /// Detects all violations of `current ∪ batch` that involve at least one
    /// batch tuple, without modifying the engine. Conflicts **among batch
    /// tuples** are reported the same as batch-vs-current conflicts: the
    /// group a batch tuple lands in is evaluated over the union.
    ///
    /// Errors if any tuple's arity differs from the instance schema.
    pub fn detect_insertions(&self, batch: &[Tuple]) -> Result<Violations, RelationError> {
        self.state.preview_insertions(batch)
    }

    /// The violations of the current instance that deleting `batch` (bag
    /// semantics — one occurrence per listed tuple) would **resolve**,
    /// without modifying the engine: the set difference between the current
    /// report and the report of the shrunken instance. Deletions never
    /// create violations, so this preview is the deletion-side answer to
    /// [`IncrementalDetector::detect_insertions`].
    ///
    /// Reports are merged across CFDs, and the difference is taken on the
    /// *merged* reports: an item only counts as resolved when no CFD still
    /// produces it afterwards (two CFDs sharing an LHS can report the same
    /// key — resolving it for one of them resolves nothing).
    ///
    /// Errors if any tuple's arity differs from the instance schema.
    pub fn detect_deletions(&self, batch: &[Tuple]) -> Result<Violations, RelationError> {
        self.state.check_arity(batch)?;
        // Per listed tuple one live occurrence; deleting an absent tuple is
        // a no-op.
        let mut taken: HashMap<&[ValueId], usize> = HashMap::new();
        let mut retired = Vec::new();
        for tuple in batch {
            let live = self.by_value.get(tuple.ids()).map_or(0, Vec::len);
            let taken = taken.entry(tuple.ids()).or_insert(0);
            if *taken < live {
                *taken += 1;
                retired.push(tuple.ids());
            }
        }
        Ok(self.state.preview_deletions(&retired))
    }

    /// Applies a mixed insert/delete batch to the owned instance, folding
    /// each edit into the report state, and returns the complete violation
    /// report of the **new** instance (equal to a from-scratch detection run
    /// — including conflicts created entirely within this batch).
    ///
    /// Errors (leaving the engine untouched) if any tuple's arity differs
    /// from the instance schema. Deleting a tuple with no live occurrence is
    /// a no-op; otherwise the **latest** live occurrence goes.
    ///
    /// The state update is `O(batch)`; materializing the returned report
    /// costs `O(current violations)`. Streams that keep heavily-dirty
    /// instances and don't need a report per batch can ignore the return
    /// value — the next [`IncrementalDetector::violations`] call produces
    /// the same report on demand.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<Violations, RelationError> {
        self.state.check_arity(ops.iter().map(BatchOp::tuple))?;
        let mut applied = Vec::with_capacity(ops.len());
        for op in ops {
            applied.push(match op {
                BatchOp::Insert(tuple) => {
                    let slot = self.store.len();
                    self.store.push_ids(tuple.ids())?;
                    self.alive.push(true);
                    self.live += 1;
                    let slots = self.by_value.entry(tuple.ids().to_vec()).or_default();
                    slots.push(slot);
                    true
                }
                BatchOp::Delete(tuple) => self.retire(tuple.ids()),
            });
        }
        self.state.apply(ops, &applied);
        self.maybe_compact();
        Ok(self.violations())
    }

    /// Retires the latest live occurrence of `cells`; `false` when there is
    /// none.
    fn retire(&mut self, cells: &[ValueId]) -> bool {
        let Some(slots) = self.by_value.get_mut(cells) else {
            return false;
        };
        let Some(slot) = slots.pop() else {
            return false;
        };
        if slots.is_empty() {
            self.by_value.remove(cells);
        }
        self.alive[slot] = false;
        self.live -= 1;
        true
    }

    /// Regathers the live slots when dead ones dominate, bounding memory to
    /// `O(live)` over arbitrarily long streams. Amortized cost: a compaction
    /// copies `O(live)` rows and is triggered only after at least as many
    /// deletions; the report state is slot-free, so it is left as it is.
    fn maybe_compact(&mut self) {
        let dead = self.store.len() - self.live;
        if dead <= self.live.max(COMPACT_MIN_DEAD) {
            return;
        }
        // Column-wise gather of the live slots into a fresh store (u32
        // copies, no per-row allocation).
        self.store = self.current_relation();
        self.alive = vec![true; self.live];
        self.by_value = slots_by_value(&self.store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDetector;
    use cfd_datagen::cust::{cust_instance, cust_schema, phi2, phi3_with_fd};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::Value;

    fn tuple(values: &[&str]) -> Tuple {
        Tuple::new(values.iter().map(|s| Value::from(*s)).collect())
    }

    /// A cust base instance that satisfies ϕ2 (Fig. 1 with t1/t2's city fixed).
    fn clean_base() -> Relation {
        let mut rel = cust_instance();
        let ct = cust_schema().resolve("CT").unwrap();
        rel.set_value(0, ct, Value::from("MH"));
        rel.set_value(1, ct, Value::from("MH"));
        rel
    }

    #[test]
    fn clean_insertions_report_nothing() {
        let detector = IncrementalDetector::new(clean_base(), vec![phi2(), phi3_with_fd()]);
        let batch = vec![tuple(&[
            "01", "215", "5555555", "Deb", "Oak Ave.", "PHI", "02394",
        ])];
        assert!(detector.detect_insertions(&batch).unwrap().is_clean());
        assert_eq!(detector.cfds().len(), 2);
        assert!(detector.violations().is_clean());
    }

    #[test]
    fn constant_violation_in_the_batch_is_caught() {
        let detector = IncrementalDetector::new(clean_base(), vec![phi2()]);
        // Area code 908 but city NYC: violates the (01, 908, _ ‖ _, MH, _) row.
        let bad = tuple(&["01", "908", "9999999", "Eve", "Pine St.", "NYC", "07974"]);
        let report = detector
            .detect_insertions(std::slice::from_ref(&bad))
            .unwrap();
        assert_eq!(report.constant_violations().len(), 1);
        assert!(report.multi_tuple_keys().is_empty());
    }

    #[test]
    fn conflict_between_batch_and_base_is_caught() {
        let detector = IncrementalDetector::new(clean_base(), vec![phi3_with_fd()]);
        // Same (CC, AC) as Ian but a different city: a multi-tuple violation
        // that only exists in the combined instance.
        let bad = tuple(&["44", "131", "7777777", "Una", "Low Rd.", "GLA", "G1"]);
        let report = detector
            .detect_insertions(std::slice::from_ref(&bad))
            .unwrap();
        assert_eq!(report.multi_tuple_keys().len(), 1);
        assert_eq!(
            report.multi_tuple_keys().iter().next().unwrap(),
            &vec![Value::from("44"), Value::from("131")]
        );
    }

    /// Regression pin for the within-batch insertion path: two batch tuples
    /// that conflict only with *each other* (their group has no base rows)
    /// must be reported, both by the preview and by `apply_batch`. An
    /// implementation that checks each inserted tuple against the pre-batch
    /// state alone misses this group.
    #[test]
    fn conflict_within_the_batch_is_caught() {
        let base = clean_base();
        let batch = vec![
            tuple(&["49", "030", "1", "Ann", "A St.", "BER", "10115"]),
            tuple(&["49", "030", "2", "Bob", "B St.", "MUC", "80331"]),
        ];
        let expected_key = vec![Value::from("49"), Value::from("030")];

        let detector = IncrementalDetector::new(base.clone(), vec![phi3_with_fd()]);
        let preview = detector.detect_insertions(&batch).unwrap();
        assert_eq!(preview.multi_tuple_keys().len(), 1);
        assert_eq!(
            preview.multi_tuple_keys().iter().next().unwrap(),
            &expected_key
        );

        let mut engine = IncrementalDetector::new(base, vec![phi3_with_fd()]);
        let applied = engine
            .apply_batch(
                &batch
                    .iter()
                    .cloned()
                    .map(BatchOp::Insert)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(applied.multi_tuple_keys().len(), 1);
        assert_eq!(
            applied.multi_tuple_keys().iter().next().unwrap(),
            &expected_key
        );
    }

    #[test]
    fn incremental_matches_full_detection_on_the_combined_instance() {
        // Build a clean tax base, a noisy batch, and compare against running
        // full detection on base ∪ batch.
        let base = TaxGenerator::new(TaxConfig {
            size: 600,
            noise_percent: 0.0,
            seed: 3,
        })
        .generate()
        .relation;
        let batch_rel = TaxGenerator::new(TaxConfig {
            size: 80,
            noise_percent: 20.0,
            seed: 4,
        })
        .generate()
        .relation;
        let batch: Vec<Tuple> = batch_rel.to_tuples();
        let cfds = vec![
            CfdWorkload::new(1).zip_state_full(),
            CfdWorkload::new(1).single(EmbeddedFd::AreaToCity, 200, 100.0),
        ];

        let incremental = IncrementalDetector::new(base.clone(), cfds.clone())
            .detect_insertions(&batch)
            .unwrap();

        let mut combined = base;
        for t in &batch {
            combined.push(t.clone()).unwrap();
        }
        let full = DirectDetector::new().detect_set(&cfds, &combined);

        // The base is clean, so every full-detection finding involves the
        // batch and must be found incrementally, and vice versa.
        assert_eq!(incremental, full);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut detector = IncrementalDetector::new(clean_base(), vec![phi2(), phi3_with_fd()]);
        assert!(detector.detect_insertions(&[]).unwrap().is_clean());
        assert!(detector.detect_deletions(&[]).unwrap().is_clean());
        assert!(detector.apply_batch(&[]).unwrap().is_clean());
    }

    #[test]
    fn construction_reports_preexisting_violations() {
        // The unfixed Fig. 1 instance violates ϕ2 on t1 and t2.
        let engine = IncrementalDetector::new(cust_instance(), vec![phi2()]);
        let report = engine.violations();
        assert_eq!(report.constant_violations().len(), 2);
        assert_eq!(
            report,
            DirectDetector::new().detect(&phi2(), &cust_instance())
        );
    }

    #[test]
    fn apply_batch_maintains_the_full_report() {
        let schema = cust_schema();
        let mut engine = IncrementalDetector::new(clean_base(), vec![phi2(), phi3_with_fd()]);
        // Insert a conflicting pair, then delete one of them again.
        let a = tuple(&["49", "030", "1", "Ann", "A St.", "BER", "10115"]);
        let b = tuple(&["49", "030", "2", "Bob", "B St.", "MUC", "80331"]);
        let after_insert = engine
            .apply_batch(&[BatchOp::Insert(a), BatchOp::Insert(b.clone())])
            .unwrap();
        assert_eq!(after_insert.multi_tuple_keys().len(), 1);
        assert_eq!(engine.len(), clean_base().len() + 2);

        let after_delete = engine.apply_batch(&[BatchOp::Delete(b)]).unwrap();
        assert!(after_delete.is_clean(), "deleting Bob resolves the group");
        assert_eq!(engine.len(), clean_base().len() + 1);

        // The maintained report always equals a from-scratch run.
        assert_eq!(engine.schema(), &schema);
        let from_scratch =
            DirectDetector::new().detect_set(engine.cfds(), &engine.current_relation());
        assert_eq!(engine.violations(), from_scratch);
    }

    #[test]
    fn detect_deletions_previews_resolved_violations() {
        // Dirty base: Fig. 1's t1/t2 violate ϕ2 (both are QC violations with
        // distinct cells, and no QV group).
        let engine = IncrementalDetector::new(cust_instance(), vec![phi2()]);
        let t1 = cust_instance().row(0).unwrap().to_tuple();
        // Deleting t1 resolves its QC violation (its only occurrence)…
        let resolved = engine.detect_deletions(std::slice::from_ref(&t1)).unwrap();
        assert_eq!(resolved.constant_violations().len(), 1);
        // …but the engine itself is unchanged (preview only).
        assert_eq!(engine.violations().constant_violations().len(), 2);
        // Deleting an unrelated clean tuple resolves nothing.
        let t6 = cust_instance().row(5).unwrap().to_tuple();
        assert!(engine
            .detect_deletions(std::slice::from_ref(&t6))
            .unwrap()
            .is_clean());
        // Deleting a tuple that is not in the instance is a no-op.
        let ghost = tuple(&["00", "000", "0", "No", "One", "NW", "00000"]);
        assert!(engine
            .detect_deletions(std::slice::from_ref(&ghost))
            .unwrap()
            .is_clean());
    }

    #[test]
    fn detect_deletions_keeps_groups_with_remaining_conflicts() {
        let schema = cust_schema();
        let mut rel = Relation::new(schema);
        // Three tuples in one (CC, AC) group with two distinct cities: the
        // group stays violating unless the odd one out is removed.
        rel.push(tuple(&["49", "030", "1", "Ann", "A St.", "BER", "10115"]))
            .unwrap();
        rel.push(tuple(&["49", "030", "2", "Bob", "B St.", "BER", "10115"]))
            .unwrap();
        rel.push(tuple(&["49", "030", "3", "Cid", "C St.", "MUC", "80331"]))
            .unwrap();
        let engine = IncrementalDetector::new(rel.clone(), vec![phi3_with_fd()]);
        assert_eq!(engine.violations().multi_tuple_keys().len(), 1);
        // Deleting Ann leaves Bob vs Cid conflicting: nothing resolved.
        assert!(engine
            .detect_deletions(&[rel.row(0).unwrap().to_tuple()])
            .unwrap()
            .is_clean());
        // Deleting Cid resolves the group.
        let resolved = engine
            .detect_deletions(&[rel.row(2).unwrap().to_tuple()])
            .unwrap();
        assert_eq!(resolved.multi_tuple_keys().len(), 1);
        // Deleting Ann *and* Bob also resolves it (one distinct Y remains).
        let resolved = engine
            .detect_deletions(&[
                rel.row(0).unwrap().to_tuple(),
                rel.row(1).unwrap().to_tuple(),
            ])
            .unwrap();
        assert_eq!(resolved.multi_tuple_keys().len(), 1);
    }

    /// Regression pin: two CFDs sharing an LHS report the *same* key, so the
    /// resolved-set must be computed on the merged report — resolving the
    /// group for one CFD while the other still violates resolves nothing.
    #[test]
    fn deletion_preview_is_cross_cfd_on_shared_lhs_keys() {
        use cfd_relation::Schema;
        let schema = Schema::builder("r")
            .text("A")
            .text("B")
            .text("C")
            .text("D")
            .build();
        let to_c = Cfd::fd(schema.clone(), ["A", "B"], ["C"]).unwrap();
        let to_d = Cfd::fd(schema.clone(), ["A", "B"], ["D"]).unwrap();
        let rows: Vec<Tuple> = [
            ["a", "b", "x", "p"],
            ["a", "b", "y", "q"],
            ["a", "b", "x", "r"],
        ]
        .iter()
        .map(|r| Tuple::new(r.iter().map(|s| Value::from(*s)).collect()))
        .collect();
        let rel = Relation::from_rows(schema, rows.clone()).unwrap();
        let mut engine = IncrementalDetector::new(rel, vec![to_c, to_d]);
        assert_eq!(engine.violations().multi_tuple_keys().len(), 1);

        // Deleting (a,b,y,q) collapses C to {x} but leaves D = {p,r}: the
        // key [a,b] is still reported afterwards, so nothing is resolved.
        let preview = engine
            .detect_deletions(std::slice::from_ref(&rows[1]))
            .unwrap();
        assert!(
            preview.is_clean(),
            "key still violating under the second CFD must not count as resolved"
        );
        let applied = engine
            .apply_batch(&[BatchOp::Delete(rows[1].clone())])
            .unwrap();
        assert_eq!(applied.multi_tuple_keys().len(), 1);

        // Also deleting (a,b,x,r) collapses D to {p}: now the key resolves.
        let preview = engine
            .detect_deletions(std::slice::from_ref(&rows[2]))
            .unwrap();
        assert_eq!(preview.multi_tuple_keys().len(), 1);
    }

    #[test]
    fn deleting_one_of_two_identical_qc_violators_resolves_nothing() {
        let mut rel = cust_instance();
        let dup = rel.row(0).unwrap().to_tuple();
        rel.push(dup.clone()).unwrap();
        let mut engine = IncrementalDetector::new(rel, vec![phi2()]);
        // t1 appears twice; deleting one occurrence keeps the QC entry live.
        assert!(engine
            .detect_deletions(std::slice::from_ref(&dup))
            .unwrap()
            .constant_violations()
            .is_empty());
        let report = engine.apply_batch(&[BatchOp::Delete(dup.clone())]).unwrap();
        assert_eq!(report.constant_violations().len(), 2);
        // Deleting the second occurrence resolves it.
        let report = engine.apply_batch(&[BatchOp::Delete(dup)]).unwrap();
        assert_eq!(report.constant_violations().len(), 1);
    }

    #[test]
    fn long_streams_compact_to_live_size() {
        let mut engine = IncrementalDetector::new(clean_base(), vec![phi2(), phi3_with_fd()]);
        let live_target = engine.len();
        // Churn far past the compaction floor: every batch inserts and then
        // deletes the same tuple, so the live size never changes.
        let t = tuple(&["01", "215", "5555555", "Deb", "Oak Ave.", "PHI", "02394"]);
        for _ in 0..(3 * COMPACT_MIN_DEAD) {
            let report = engine
                .apply_batch(&[BatchOp::Insert(t.clone()), BatchOp::Delete(t.clone())])
                .unwrap();
            assert!(report.is_clean());
        }
        assert_eq!(engine.len(), live_target);
        assert!(
            engine.store.len() <= live_target + 2 * COMPACT_MIN_DEAD + 2,
            "slot store must be bounded by compaction, got {} slots for {} live rows",
            engine.store.len(),
            live_target
        );
        // Post-compaction state still answers exactly like from scratch.
        let report = engine.apply_batch(&[BatchOp::Insert(t)]).unwrap();
        assert_eq!(
            report,
            DirectDetector::new().detect_set(engine.cfds(), &engine.current_relation())
        );
    }

    #[test]
    fn arity_mismatch_is_rejected_before_any_mutation() {
        let mut engine = IncrementalDetector::new(clean_base(), vec![phi2()]);
        let before = engine.len();
        let err = engine
            .apply_batch(&[
                BatchOp::Insert(tuple(&["01", "215", "1", "Ok", "St.", "PHI", "02394"])),
                BatchOp::Insert(Tuple::new(vec![Value::from("short")])),
            ])
            .unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(engine.len(), before, "failed batch must not be applied");
        // The previews validate the same way, short or long.
        let long = Tuple::nulls(engine.schema().arity() + 1);
        for bad in [Tuple::new(vec![Value::from("short")]), long] {
            let bad = std::slice::from_ref(&bad);
            for refused in [engine.detect_insertions(bad), engine.detect_deletions(bad)] {
                assert!(matches!(refused, Err(RelationError::ArityMismatch { .. })));
            }
        }
    }
}
