//! The equivalence-class repair engine with incremental violation
//! maintenance.
//!
//! # Algorithm
//!
//! 1. **Seed** — one [`LhsGroups`] per CFD is built (or adopted from the
//!    caller's index), and one detection pass per CFD yields the initial
//!    witness set. The pass is group-driven ([`cfd_detect::recheck_lhs_keys`]
//!    over every index key; [`cfd_detect::groups`] states how a group is
//!    evaluated), so seeding costs `O(|Tp| × #groups + |I|)` rather than the
//!    `O(|Tp| × |I|)` of the row-wise scan — the large-constant-tableau
//!    workloads of Section 5 have orders of magnitude fewer groups than
//!    rows. (The re-check refuses CFDs with don't-care cells; they fall
//!    back to [`Cfd::violations`] whenever one of their groups is dirty.)
//! 2. **Classes** — every witness contributes its cell obligations
//!    ([`Cfd::witness_cells`]): multi-tuple witnesses union the involved
//!    RHS cells into equivalence classes, RHS pattern constants pin classes
//!    (see [`crate::classes`]).
//! 3. **Targets** — each unpinned class takes the candidate value (among the
//!    values its cells currently hold) minimizing the weighted cost
//!    `Σ weight(row) × dist(current, candidate)` under the configured
//!    [`CostModel`](crate::cost::CostModel); ties break on the smallest
//!    resolved [`cfd_relation::Value`]. Pinned
//!    classes take their pin. Classes with *conflicting* pins cannot be
//!    satisfied by RHS edits (Section 6's motivating observation) — an LHS
//!    attribute of one involved row is overwritten with a fresh typed
//!    placeholder instead.
//! 4. **Incremental re-check** — applying an edit goes through
//!    [`LhsGroups::edit_cell`], which dirties only the `GROUP BY X` groups
//!    it can affect. The next round drains and re-detects **only those
//!    groups** via [`cfd_detect::recheck_lhs_keys`]; nothing is ever
//!    re-scanned from scratch. A round whose exact witness signature was
//!    already seen is a proven cross-CFD oscillation and forces one LHS
//!    edit. Rounds continue until no witnesses remain, only unsatisfiable
//!    work is left with LHS edits disabled, or the round budget is
//!    exhausted.
//!
//! # Determinism
//!
//! Witnesses are processed in the sorted order [`Cfd::violations`] /
//! [`cfd_detect::recheck_lhs_keys`] guarantee, dirty keys drain sorted,
//! classes finalize sorted, and target ties break on resolved values — no
//! hash-map iteration order or interner id numbering influences any choice,
//! so identical inputs produce identical modification sequences.
//!
//! # Parallelism
//!
//! Planning fans out over connected components of the cell-equivalence
//! graph, and seeding / dirty-group re-checking / the final satisfaction
//! sweep over sorted key batches; the apply phase stays a sequential
//! single-writer merge. Results are byte-identical at any thread count —
//! [`crate::parallel`] states the budget rule and the full argument.

use crate::classes::CellClasses;
use crate::parallel::{self, ParallelCtx};
use crate::repair::{
    lhs_edit_attr, mint_placeholder_for, Modification, RepairConfig, RepairResult,
};
use cfd_core::{Cfd, ViolationWitness};
use cfd_detect::LhsGroups;
use cfd_relation::{AttrId, Index, Relation, ValueId};
use std::collections::{BTreeSet, HashSet};

/// Entry point: repairs `rel` w.r.t. `cfds` under `config`, adopting the
/// **prebuilt** per-CFD LHS `indexes` (one slot per CFD, in CFD order; the
/// engine indexes the instance itself for a missing or `None` slot). Each
/// supplied index must cover its CFD's LHS attributes in order (one that
/// does not is rebuilt) and be in sync with `rel`; the engine
/// takes them over and maintains them across its edits. Results do not
/// depend on what is supplied — seeding visits index keys in sorted order,
/// so index provenance never influences a choice.
pub(crate) fn repair(
    cfds: &[Cfd],
    rel: &Relation,
    config: &RepairConfig,
    indexes: Vec<Option<Index>>,
) -> RepairResult {
    Engine::new(cfds, rel, config, indexes).run()
}

/// One witness's identity within a round signature:
/// `(cfd index, pattern index, kind, rows)`.
type WitnessSig = (usize, usize, u8, Vec<usize>);

struct Engine<'a> {
    cfds: &'a [Cfd],
    config: &'a RepairConfig,
    rel: Relation,
    /// Per-CFD maintained LHS groups: the index and the keys dirtied since
    /// the last re-check.
    groups: Vec<LhsGroups>,
    modifications: Vec<Modification>,
    /// Run-scoped placeholder candidate number (reproducibility across
    /// runs — see [`mint_placeholder_for`]).
    placeholder_counter: u64,
    /// Per-phase spawn decisions (thread budget + amortization clamps) of
    /// the component-parallel paths — see [`crate::parallel`].
    ctx: ParallelCtx,
}

impl<'a> Engine<'a> {
    fn new(
        cfds: &'a [Cfd],
        rel: &Relation,
        config: &'a RepairConfig,
        mut prebuilt: Vec<Option<Index>>,
    ) -> Self {
        let rel = rel.clone();
        prebuilt.resize(cfds.len(), None);
        let ctx = ParallelCtx::new(config.threads, rel.len(), config.force_parallel);
        let groups = parallel::build_groups(&rel, cfds, prebuilt, ctx);
        Engine {
            cfds,
            config,
            rel,
            groups,
            modifications: Vec::new(),
            placeholder_counter: 0,
            ctx,
        }
    }

    fn run(mut self) -> RepairResult {
        // Seed the dirty set from one (group-driven) detection pass.
        let mut witnesses = self.sweep(usize::MAX);

        let mut rounds = 0usize;
        // Witness signatures of every round seen so far: a round whose exact
        // violation scope reappeared is a proven oscillation (the b1→b2→b1
        // cross-CFD cycles of Section 6), the only situation that warrants a
        // forced LHS edit. A count-based stall check would compare different
        // scopes (full seed set vs dirty groups only) and could destroy a
        // correct LHS cell on a transiently-growing cascade that the next
        // round's RHS edits would have converged anyway.
        let mut seen_rounds: HashSet<Vec<WitnessSig>> = HashSet::new();
        while !witnesses.is_empty() && rounds < self.config.max_passes {
            rounds += 1;
            let mut signature: Vec<WitnessSig> = witnesses
                .iter()
                .map(|(i, w)| (*i, w.pattern_index, w.kind as u8, w.rows.clone()))
                .collect();
            signature.sort_unstable();
            let cycling = !seen_rounds.insert(signature);

            // Build the cell classes of this round's witnesses.
            let mut classes = CellClasses::new(self.rel.schema().arity());
            for (cfd_idx, w) in &witnesses {
                let cells = self.cfds[*cfd_idx].witness_cells(w);
                for (attr, rows) in &cells.merges {
                    for &row in rows.iter().skip(1) {
                        classes.union((rows[0], *attr), (row, *attr));
                    }
                }
                for &(row, attr, target) in &cells.pins {
                    classes.pin(row, attr, target, *cfd_idx, w.pattern_index);
                }
            }

            // Plan: RHS edits per class, LHS edits per conflicted class —
            // fanned out over contiguous chunks of the canonical component
            // order (byte-identical merge; see [`crate::parallel`]).
            let components = classes.into_components();
            let plan_workers = self.ctx.workers_for(
                components
                    .total_cells()
                    .saturating_mul(parallel::PLAN_CELL_COST),
                components.len(),
            );
            let plan = parallel::plan_components(
                &self.rel,
                &self.config.cost_model,
                &components,
                plan_workers,
            );
            let mut edits = plan.edits;
            let mut victims = plan.victims;
            let conflict_rows: BTreeSet<usize> = plan.conflict_rows.into_iter().collect();

            // Proven oscillation without pin conflicts (cross-CFD cycles):
            // force one LHS edit on the first open witness.
            if cycling && victims.is_empty() {
                if let Some((cfd_idx, w)) = witnesses.first() {
                    if let Some(&row) = w.rows.first() {
                        victims.push((*cfd_idx, w.pattern_index, row));
                    }
                }
            }
            if !self.config.allow_lhs_edits {
                victims.clear();
            }
            victims.sort_unstable();
            victims.dedup();

            if edits.is_empty() && victims.is_empty() {
                // Only unsatisfiable classes remain and LHS edits are off.
                break;
            }

            edits.sort_unstable_by_key(|&(row, attr, _)| (row, attr));
            for (row, attr, target) in edits {
                self.apply_edit(row, attr, target);
            }
            for (cfd_idx, pattern_idx, row) in victims {
                if let Some(attr) = lhs_edit_attr(&self.cfds[cfd_idx], pattern_idx) {
                    let ph = mint_placeholder_for(
                        &self.rel,
                        attr,
                        self.config.typed_placeholders,
                        &mut self.placeholder_counter,
                    );
                    self.apply_edit(row, attr, ph);
                }
            }
            // Conflicted classes resolved nothing: queue every group their
            // rows sit in (post-edit keys) so the surviving obligations are
            // re-derived next round.
            for row in conflict_rows {
                self.dirty_row_groups(row);
            }

            witnesses = self.collect_dirty_witnesses();
        }

        // Full-semantics satisfaction check, priced like the seed pass.
        let satisfied = self.sweep(1).is_empty();
        let config = self.config;
        let Engine {
            rel, modifications, ..
        } = self;
        RepairResult::finish(rel, modifications, rounds, satisfied, &config.cost_model)
    }

    /// One full detection pass — every group of every CFD in sorted key
    /// order (see the [module docs](self) for its cost) — stopping each
    /// worker at `at_most` witnesses.
    fn sweep(&self, at_most: usize) -> Vec<(usize, ViolationWitness)> {
        let mut out = Vec::new();
        for (cfd_idx, groups) in self.groups.iter().enumerate() {
            let keys = groups.index().iter().map(|(key, _)| key.as_slice());
            let mut keys: Vec<&[ValueId]> = keys.collect();
            keys.sort_unstable();
            self.recheck(cfd_idx, &keys, at_most, &mut out);
        }
        out
    }

    /// Re-checks the groups `keys` (sorted) of CFD `cfd_idx` into `out`. The
    /// fan-out is sized by the work at hand, `#keys × mean group size` (it
    /// steers spawn decisions, never results).
    fn recheck(
        &self,
        cfd_idx: usize,
        keys: &[&[ValueId]],
        at_most: usize,
        out: &mut Vec<(usize, ViolationWitness)>,
    ) {
        if keys.is_empty() {
            return;
        }
        let (cfd, index) = (&self.cfds[cfd_idx], self.groups[cfd_idx].index());
        let units = keys.len() * self.rel.len() / index.distinct_keys().max(1);
        let workers = self.ctx.workers_for(units, keys.len());
        // A don't-care CFD takes the oracle scan, with the oracle's own early
        // exit when one witness is all that is asked for.
        let scan = || match at_most {
            1 => cfd.first_violation(&self.rel).into_iter().collect(),
            _ => cfd.violations(&self.rel),
        };
        let found = parallel::recheck_keys_sharded(cfd, &self.rel, index, keys, workers, at_most)
            .unwrap_or_else(scan);
        out.extend(found.into_iter().map(|w| (cfd_idx, w)));
    }

    /// Applies one cell edit: updates the relation, the per-CFD LHS groups
    /// (which record the keys the edit dirties) and the modification log.
    fn apply_edit(&mut self, row: usize, attr: AttrId, new_id: ValueId) {
        let Some(old_cells) = self.rel.row(row).map(|r| r.to_ids()) else {
            return;
        };
        let old_id = old_cells[attr.index()];
        if old_id == new_id {
            return;
        }
        self.rel.set_id(row, attr, new_id);
        self.modifications.push(Modification {
            row,
            attr,
            old: old_id.resolve().clone(),
            new: new_id.resolve().clone(),
        });
        for groups in &mut self.groups {
            groups.edit_cell(row, &old_cells, attr, new_id);
        }
    }

    /// Marks every CFD's group containing `row` (under its current key) for
    /// re-checking — used for the rows of conflicted classes, whose
    /// obligations were deliberately left unresolved this round.
    fn dirty_row_groups(&mut self, row: usize) {
        let Some(cells) = self.rel.row(row).map(|r| r.to_ids()) else {
            return;
        };
        for groups in &mut self.groups {
            groups.mark(&cells);
        }
    }

    /// Drains the dirty sets into the next round's witnesses: only the
    /// dirtied groups are re-checked, in the sorted order they drain in.
    fn collect_dirty_witnesses(&mut self) -> Vec<(usize, ViolationWitness)> {
        let mut out = Vec::new();
        for cfd_idx in 0..self.cfds.len() {
            let keys = self.groups[cfd_idx].drain_dirty();
            let keys: Vec<&[ValueId]> = keys.iter().map(Vec::as_slice).collect();
            self.recheck(cfd_idx, &keys, usize::MAX, &mut out);
        }
        out
    }
}
