//! LHS groups: the one index-group `QC`/`QV` evaluator and the one
//! maintained "LHS index + dirtied keys" state of the workspace.
//!
//! Everything that reaches a CFD's `GROUP BY X` groups through a
//! [`cfd_relation::Index`] evaluates them here: index-driven detection
//! ([`detect_with_index`](crate::detect_with_index)), group re-checking
//! ([`recheck_lhs_keys`](crate::recheck_lhs_keys), and through it the class
//! repair engine) and the facade's `Session::explain` ([`group_witnesses`]).
//! The maintained report ([`ViolationState`](crate::ViolationState)) matches
//! keys and decides `QC` here too, member by member from their cells. The
//! hash-grouped counterpart is the block kernel in [`kernels`](crate::kernels).
//!
//! # Semantics of one group
//!
//! A group is an LHS key and the rows carrying it. `GroupEval` decides
//!
//! * which pattern rows **match** the key (constants equal, `_` and `@`
//!   match anything) — nothing in an unmatched group can violate;
//! * per member, which matched pattern rows it **violates** by contradicting
//!   one of their RHS constants (`QC`);
//! * whether the members carry **more than one distinct `Y` projection**
//!   (`QV`, once per matched pattern row).
//!
//! These are the block kernel's semantics on every tableau — `@` is read as
//! `_` over the full LHS, as in every serving report — so folded into a
//! [`Violations`] report they are byte-equal to
//! [`DirectDetector`](crate::DirectDetector). Folded into
//! [`ViolationWitness`]es ([`group_witnesses`]) they equal [`Cfd::violations`]
//! only for tableaux without the don't-care symbol `@` (the oracle groups
//! such pattern rows by their *effective* attributes, which a full-LHS index
//! cannot reproduce). The entry point that promises the oracle's witnesses,
//! [`recheck_lhs_keys`](crate::recheck_lhs_keys), therefore returns `None`
//! for a don't-care CFD and its caller takes the scan: that is a type, not a
//! convention.

use crate::report::Violations;
use cfd_core::{Cfd, ViolationKind, ViolationWitness};
use cfd_relation::{project_attrs, project_cols_into, AttrId, Index, Relation, Value, ValueId};
use std::collections::BTreeSet;

/// What a report prints for interned cells.
pub(crate) fn values(ids: &[ValueId]) -> Vec<Value> {
    ids.iter().map(|id| id.resolve().clone()).collect()
}

/// The group evaluator (see the [module docs](self)): [`GroupEval::begin`] a
/// key, add its members, read the facts. Buffers are reused across groups.
pub(crate) struct GroupEval<'a> {
    cfd: &'a Cfd,
    /// The relation [`GroupEval::add_row`] reads members from; `None` for
    /// an evaluator fed cells only ([`GroupEval::cells`]).
    rel: Option<&'a Relation>,
    ycols: Vec<&'a [ValueId]>,
    /// Tableau rows matching the current key.
    matched: Vec<usize>,
    /// `Y` cells of the group's first and of its latest member.
    first: Vec<ValueId>,
    last: Vec<ValueId>,
    empty: bool,
    multi: bool,
    /// Sorted rows of the group under [`GroupEval::witnesses`].
    rows: Vec<usize>,
}

impl<'a> GroupEval<'a> {
    pub(crate) fn new(cfd: &'a Cfd, rel: &'a Relation) -> Self {
        GroupEval {
            rel: Some(rel),
            ycols: rel.columns_for(cfd.rhs()),
            ..GroupEval::cells(cfd)
        }
    }

    /// An evaluator whose members are handed over by their cells
    /// ([`GroupEval::add_cells`]), never read from a relation.
    pub(crate) fn cells(cfd: &'a Cfd) -> Self {
        GroupEval {
            cfd,
            rel: None,
            ycols: Vec::new(),
            matched: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            empty: true,
            multi: false,
            rows: Vec::new(),
        }
    }

    /// Starts the group keyed `key` (in `cfd.lhs()` order); `false` when no
    /// pattern row matches it.
    pub(crate) fn begin(&mut self, key: &[ValueId]) -> bool {
        let tableau = self.cfd.tableau().iter().enumerate();
        self.matched.clear();
        self.matched
            .extend(tableau.filter_map(|(i, p)| p.lhs_matches_ids(key).then_some(i)));
        self.empty = true;
        self.multi = false;
        !self.matched.is_empty()
    }

    /// Adds row `row` of the relation given to [`GroupEval::new`] to the
    /// group; `true` once the group holds more than one distinct `Y`.
    pub(crate) fn add_row(&mut self, row: usize) -> bool {
        project_cols_into(&self.ycols, row, &mut self.last);
        self.added()
    }

    /// Adds a member that is not a row of the relation, by its `Y` cells
    /// (`cfd.rhs()` order) — a tuple an insertion preview has yet to store.
    pub(crate) fn add_cells(&mut self, y: &[ValueId]) -> bool {
        self.last.clear();
        self.last.extend_from_slice(y);
        self.added()
    }

    fn added(&mut self) -> bool {
        if self.empty {
            self.first.clone_from(&self.last);
            self.empty = false;
        } else if self.first != self.last {
            self.multi = true;
        }
        self.multi
    }

    /// The matched pattern rows whose RHS constants the latest member
    /// contradicts.
    pub(crate) fn violated(&self) -> impl Iterator<Item = usize> + '_ {
        let patterns = self.cfd.tableau().rows();
        let violates = move |&p: &usize| !patterns[p].rhs_matches_ids(&self.last);
        self.matched.iter().copied().filter(violates)
    }

    /// Walks the whole group `key` over `rows`, handing every `QC` violator
    /// to `violator`; returns the `QV` verdict.
    pub(crate) fn fold(
        &mut self,
        key: &[ValueId],
        rows: &[usize],
        mut violator: impl FnMut(usize),
    ) -> bool {
        if !self.begin(key) {
            return false;
        }
        for &row in rows {
            self.add_row(row);
            if self.violated().next().is_some() {
                violator(row);
            }
        }
        self.multi
    }

    /// Folds one group into a report: the full tuple of every `QC` violator,
    /// the key of a `QV` group.
    pub(crate) fn report(&mut self, key: &[ValueId], rows: &[usize], out: &mut Violations) {
        let rel = self.rel;
        let violator = |row| {
            if let Some(tuple) = rel.and_then(|rel| rel.row(row)) {
                out.add_constant_violation(tuple.to_values());
            }
        };
        if self.fold(key, rows, violator) {
            out.add_multi_tuple_key(values(key));
        }
    }

    /// Folds one group into witnesses, appended to `out` in the
    /// deterministic `(pattern_index, rows, kind)` order of
    /// [`Cfd::violations`], rows sorted (`posting` is an index posting list,
    /// which loses row order across remove/insert cycles).
    pub(crate) fn witnesses(
        &mut self,
        key: &[ValueId],
        posting: &[usize],
        out: &mut Vec<ViolationWitness>,
    ) {
        if posting.is_empty() || !self.begin(key) {
            return;
        }
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        rows.extend_from_slice(posting);
        rows.sort_unstable();
        let start = out.len();
        let witness = |pattern_index, kind, rows| ViolationWitness {
            pattern_index,
            kind,
            rows,
        };
        for &row in &rows {
            self.add_row(row);
            let hit = |p| witness(p, ViolationKind::SingleTuple, vec![row]);
            out.extend(self.violated().map(hit));
        }
        if self.multi {
            let hit = |&p| witness(p, ViolationKind::MultiTuple, rows.clone());
            out.extend(self.matched.iter().map(hit));
        }
        out[start..].sort_by(ViolationWitness::deterministic_cmp);
        self.rows = rows;
    }
}

/// The witnesses of the one full-LHS group `key` of `cfd` over `rows` (any
/// order), in the deterministic order of [`Cfd::violations`] — what a report
/// finding about this group is made of. They are the oracle's witnesses
/// exactly when `cfd` has no `@` (see the [module docs](self)).
pub fn group_witnesses(
    cfd: &Cfd,
    rel: &Relation,
    key: &[ValueId],
    rows: &[usize],
) -> Vec<ViolationWitness> {
    let mut out = Vec::new();
    GroupEval::new(cfd, rel).witnesses(key, rows, &mut out);
    out
}

/// The maintained state of one CFD: an [`Index`] over its LHS kept in sync
/// with an evolving instance, plus the keys of the groups dirtied since the
/// last [`LhsGroups::drain_dirty`] — the only groups whose violations can
/// have changed. The class repair engine maintains its instance through this
/// type and re-evaluates what it hands back.
#[derive(Debug)]
pub struct LhsGroups {
    index: Index,
    rhs: Vec<AttrId>,
    dirty: BTreeSet<Vec<ValueId>>,
}

impl LhsGroups {
    /// Indexes `rel` on `cfd`'s LHS.
    pub fn build(cfd: &Cfd, rel: &Relation) -> Self {
        let (index, rhs) = (rel.build_index(cfd.lhs()), cfd.rhs().to_vec());
        let dirty = BTreeSet::new();
        LhsGroups { index, rhs, dirty }
    }

    /// Takes over a prebuilt `index`, which must be in sync with the
    /// instance. `None` when `index` does not cover `cfd.lhs()` in order.
    pub fn over(cfd: &Cfd, index: Index) -> Option<Self> {
        let (rhs, dirty) = (cfd.rhs().to_vec(), BTreeSet::new());
        (index.attrs() == cfd.lhs()).then_some(LhsGroups { index, rhs, dirty })
    }

    /// The maintained LHS index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// Registers the new row `row` with the full cell vector `cells`,
    /// dirtying the group it joins.
    pub fn insert_row(&mut self, row: usize, cells: &[ValueId]) {
        self.index.insert_row(row, cells);
        self.mark(cells);
    }

    /// Unregisters `row` (inserted with `cells`), dirtying the group it
    /// leaves.
    pub fn remove_row(&mut self, row: usize, cells: &[ValueId]) {
        self.index.remove_row(row, cells);
        self.mark(cells);
    }

    /// Records that cell `attr` of `row` changed from its value in `old`
    /// (the row's full cell vector before the edit) to `new`. An LHS edit
    /// moves the row between groups and dirties both, an RHS edit dirties
    /// the group it sits in, any other attribute is none of this CFD's
    /// business.
    pub fn edit_cell(&mut self, row: usize, old: &[ValueId], attr: AttrId, new: ValueId) {
        if self.index.attrs().contains(&attr) {
            let mut cells = old.to_vec();
            cells[attr.index()] = new;
            self.remove_row(row, old);
            self.insert_row(row, &cells);
        } else if self.rhs.contains(&attr) {
            self.mark(old);
        }
    }

    /// Dirties the group a row with the full cell vector `cells` sits in.
    pub fn mark(&mut self, cells: &[ValueId]) {
        self.dirty.insert(project_attrs(cells, self.index.attrs()));
    }

    /// Takes the dirtied keys, sorted — including keys whose group has since
    /// emptied, which evaluate to nothing.
    pub fn drain_dirty(&mut self) -> BTreeSet<Vec<ValueId>> {
        std::mem::take(&mut self.dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_with_index, recheck_lhs_key, recheck_lhs_keys, DirectDetector};
    use cfd_core::{PatternTableau, PatternTuple, PatternValue};
    use cfd_datagen::rng::StdRng;
    use cfd_relation::{Schema, Tuple, Value};
    use std::collections::BTreeMap;

    fn schema() -> Schema {
        Schema::builder("r")
            .text("A")
            .text("B")
            .text("C")
            .text("D")
            .build()
    }

    /// A random data cell: NULL or one of three letters.
    fn data_cell(rng: &mut StdRng) -> Value {
        match rng.gen_range(0usize..4) {
            0 => Value::Null,
            i => Value::from(["a", "b", "c"][i - 1]),
        }
    }

    fn random_tuple(rng: &mut StdRng) -> Tuple {
        Tuple::new((0..4).map(|_| data_cell(rng)).collect())
    }

    /// A random CFD over one of three LHS/RHS shapes. `case` cycles through
    /// mixed tableaux, all-constant-LHS tableaux (the probe shortcut) and —
    /// when `dont_care` — tableaux with `@` cells. Constants include `z`,
    /// which no data cell holds, and every tableau repeats its first row.
    fn random_cfd(rng: &mut StdRng, case: usize, dont_care: bool) -> Cfd {
        let shapes: [(&[&str], &[&str]); 3] = [
            (&["A"], &["B"]),
            (&["A", "B"], &["C", "D"]),
            (&["B", "A", "C"], &["D"]),
        ];
        let (lhs, rhs) = shapes[case % shapes.len()];
        let all_constant = case % 3 == 1;
        let constant = |rng: &mut StdRng| {
            PatternValue::constant(["a", "b", "c", "z"][rng.gen_range(0usize..4)])
        };
        let cell = |rng: &mut StdRng, lhs: bool| match rng.gen_range(0usize..10) {
            _ if lhs && all_constant => constant(rng),
            0..=3 => PatternValue::Wildcard,
            4 if dont_care => PatternValue::DontCare,
            _ => constant(rng),
        };
        let mut tableau = PatternTableau::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let x = (0..lhs.len()).map(|_| cell(rng, true)).collect();
            let y = (0..rhs.len()).map(|_| cell(rng, false)).collect();
            tableau.push(PatternTuple::new(x, y));
        }
        tableau.push(tableau.rows()[0].clone());
        let schema = schema();
        let lhs = schema.resolve_all(lhs.iter().copied()).unwrap();
        let rhs = schema.resolve_all(rhs.iter().copied()).unwrap();
        Cfd::from_parts(schema, lhs, rhs, tableau).unwrap()
    }

    /// Every group of `index` re-checked in sorted key order.
    fn all_witnesses(cfd: &Cfd, rel: &Relation, index: &Index) -> Option<Vec<ViolationWitness>> {
        let mut keys: Vec<&Vec<ValueId>> = index.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        let found = recheck_lhs_keys(cfd, rel, index, &keys)?.collect();
        Some(found)
    }

    #[test]
    fn every_group_evaluates_to_the_oracle_and_folds_to_the_direct_report() {
        let mut rng = StdRng::seed_from_u64(0x6209);
        let (mut dirty, mut probed, mut dont_care) = (0usize, 0usize, 0usize);
        for case in 0..210 {
            let mut rel = Relation::new(schema());
            for _ in 0..rng.gen_range(0usize..120) {
                rel.push(random_tuple(&mut rng)).unwrap();
            }
            // The last 60 cases may draw `@` cells.
            let cfd = random_cfd(&mut rng, case, case >= 150);

            // The report fold has the block kernel's semantics on every
            // tableau …
            let index = rel.build_index(cfd.lhs());
            let folded = detect_with_index(&cfd, &rel, &index);
            let direct = DirectDetector::new().detect(&cfd, &rel);
            assert_eq!(
                folded.canonical_bytes(),
                direct.canonical_bytes(),
                "case {case}"
            );

            // … the witness fold equals the oracle only without `@`, and
            // that is what the re-check refuses.
            let Some(mut witnesses) = all_witnesses(&cfd, &rel, &index) else {
                assert!(cfd.has_dont_care());
                dont_care += 1;
                continue;
            };
            assert!(!cfd.has_dont_care());
            witnesses.sort_by(ViolationWitness::deterministic_cmp);
            assert_eq!(witnesses, cfd.violations(&rel), "case {case}");
            dirty += usize::from(!witnesses.is_empty());
            probed += usize::from(case % 3 == 1);
        }
        assert!(dirty > 60, "dirty groups must be swept, got {dirty}");
        assert!(probed >= 50, "the probe shortcut must be swept too");
        assert!(
            dont_care > 20,
            "`@` tableaux must be swept, got {dont_care}"
        );
    }

    #[test]
    fn an_index_over_other_attributes_is_refused() {
        let rel = Relation::new(schema());
        let cfd = random_cfd(&mut StdRng::seed_from_u64(1), 1, false);
        let other = rel.schema().resolve_all(["B", "A"]).unwrap();
        assert!(LhsGroups::over(&cfd, rel.build_index(&other)).is_none());
        assert!(recheck_lhs_key(&cfd, &rel, &rel.build_index(&other), &[]).is_none());
        assert!(LhsGroups::over(&cfd, rel.build_index(cfd.lhs())).is_some());
    }

    /// Model test of the maintained state: random inserts, removals and
    /// cell edits over a slot store, re-checking only the drained dirty keys
    /// after each step, against every group of a freshly indexed copy of the
    /// live rows.
    #[test]
    fn draining_dirty_keys_tracks_a_freshly_built_index() {
        let mut rng = StdRng::seed_from_u64(0x0D17);
        let mut steps_with_witnesses = 0usize;
        for case in 0..40 {
            let cfd = random_cfd(&mut rng, case, false);
            let mut store = Relation::new(schema());
            let mut live: Vec<usize> = Vec::new();
            let mut groups = LhsGroups::build(&cfd, &store);
            let mut current: BTreeMap<Vec<ValueId>, Vec<ViolationWitness>> = BTreeMap::new();
            for step in 0..60 {
                match rng.gen_range(0usize..4) {
                    0 if !live.is_empty() => {
                        let slot = live.remove(rng.gen_range(0..live.len()));
                        groups.remove_row(slot, &store.row(slot).unwrap().to_ids());
                    }
                    1 if !live.is_empty() => {
                        let slot = live[rng.gen_range(0..live.len())];
                        let attr = AttrId(rng.gen_range(0usize..4));
                        let new = ValueId::of(&data_cell(&mut rng));
                        let old = store.row(slot).unwrap().to_ids();
                        store.set_id(slot, attr, new);
                        groups.edit_cell(slot, &old, attr, new);
                    }
                    _ => {
                        let tuple = random_tuple(&mut rng);
                        live.push(store.len());
                        groups.insert_row(store.len(), tuple.ids());
                        store.push(tuple).unwrap();
                    }
                }
                for key in groups.drain_dirty() {
                    let witnesses = recheck_lhs_key(&cfd, &store, groups.index(), &key).unwrap();
                    if witnesses.is_empty() {
                        current.remove(&key);
                    } else {
                        current.insert(key, witnesses);
                    }
                }
                assert!(groups.drain_dirty().is_empty(), "a drain empties the set");

                // The reference: index the live rows from scratch and
                // evaluate every group, mapping rows back to slots.
                let fresh_rel = store.gather_rows(&live);
                let fresh = fresh_rel.build_index(cfd.lhs());
                let mut want = all_witnesses(&cfd, &fresh_rel, &fresh).unwrap();
                for witness in &mut want {
                    for row in &mut witness.rows {
                        *row = live[*row];
                    }
                }
                let got: Vec<ViolationWitness> = current.values().flatten().cloned().collect();
                assert_eq!(got, want, "case {case}, step {step}");
                steps_with_witnesses += usize::from(!got.is_empty());
            }
        }
        assert!(steps_with_witnesses > 500, "got {steps_with_witnesses}");
    }
}
