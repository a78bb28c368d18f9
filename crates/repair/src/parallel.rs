//! Component-parallel planning and batched group re-checking for the
//! equivalence-class repair engine.
//!
//! # Why components parallelize
//!
//! Cells in different connected components of the cell-equivalence graph
//! never share a class target — target selection, pin resolution and
//! conflict detection are all component-local. The planning phase of each
//! repair round is therefore embarrassingly parallel across components, and
//! the detection-side work (seeding, dirty-group re-checks, the final
//! satisfaction check) is embarrassingly parallel across `GROUP BY X`
//! groups. Only the **apply** phase — mutating the relation, maintaining
//! the LHS indexes, logging modifications — has cross-component effects; it
//! stays a sequential single-writer merge in the engine.
//!
//! # Determinism contract
//!
//! Parallel repairs are **byte-identical** to the sequential engine at any
//! worker count (pinned by the differential harness at 1/2/4/8 threads):
//!
//! * Planning workers receive **contiguous chunks of the canonical
//!   component order** ([`Components::chunks`]; canonical = sorted by each
//!   component's minimum `(row, attr)` cell). Concatenating per-chunk plans
//!   in chunk order reproduces the sequential class-iteration order
//!   exactly, so the merged edit list, victim list and conflict-row set are
//!   the very vectors the sequential loop would have produced.
//! * **Placeholder candidate numbers follow canonical component order**:
//!   LHS-edit victims are emitted per component in canonical order, merged
//!   in that same order, then sorted and deduplicated exactly as the
//!   sequential engine sorts its victim list — the engine's single-writer
//!   phase mints placeholders from that sorted list against one run-scoped
//!   counter, so the k-th placeholder of a round names the same cell and
//!   carries the same spelling regardless of worker count.
//! * Re-check fan-out splits the **sorted key list** into contiguous
//!   chunks; each worker runs [`cfd_detect::recheck_lhs_keys`] over its
//!   chunk (witnesses sorted within each group), and concatenating the
//!   per-chunk results in chunk order equals the sequential key-by-key
//!   sweep.
//!
//! # Spawn amortization
//!
//! Thread setup is only paid where it amortizes: the worker count of every
//! phase derives from the workspace-wide
//! [`cfd_detect::MIN_ROWS_PER_WORKER`] floor — the same rule the detection
//! planner's shard-count decision uses — scaled by [`PLAN_CELL_COST`] for
//! planning work (class-target selection is far heavier per unit than a
//! row scan). One-core hosts and tiny dirty sets run the sequential path
//! without ever constructing a scope. The differential harness overrides
//! the clamp (`RepairConfig::force_parallel`) so byte-identity is exercised
//! on small instances too.
//!
//! Planning workers hold their own [`TargetScratch`] arena and every
//! re-check chunk its own group evaluator: steady-state planning and
//! re-checking allocate nothing per class or per group beyond the result
//! vectors, mirroring the kernels-crate arena discipline.

use crate::classes::{CellClass, Components};
use crate::cost::{CostModel, TargetScratch};
use cfd_core::{Cfd, ViolationWitness};
use cfd_detect::{recheck_lhs_keys, LhsGroups, MIN_ROWS_PER_WORKER};
use cfd_relation::{AttrId, Index, Relation, ValueId};

/// How many scan-grade work units one class-member cell is worth when
/// deciding the planning fan-out. Selecting a class target resolves values,
/// runs the distance metric and scans candidates — roughly this many times
/// the cost of one kernel row visit — so planning amortizes a worker thread
/// at `MIN_ROWS_PER_WORKER / PLAN_CELL_COST` cells rather than demanding a
/// full row quota of cells.
pub const PLAN_CELL_COST: usize = 16;

/// The per-phase spawn decision of the parallel repair engine.
///
/// Built once per repair run from the configured thread budget and the
/// instance size; every phase then asks [`ParallelCtx::workers_for`] with
/// its own work estimate. `budget` is the engine-level ceiling (never
/// exceeded), `force` is the differential-testing override that skips the
/// amortization clamps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParallelCtx {
    /// Engine-level worker ceiling, ≥ 1.
    pub budget: usize,
    /// Skip amortization clamps (differential-testing override).
    pub force: bool,
}

impl ParallelCtx {
    /// Derives the engine-level budget from the configured thread count and
    /// the instance row count, mirroring the detection planner's shard-count
    /// rule: no parallelism below two threads or below
    /// `2 × MIN_ROWS_PER_WORKER` rows, otherwise at most one worker per
    /// `MIN_ROWS_PER_WORKER` rows. `force` keeps the configured count as-is
    /// so small differential workloads still exercise the parallel paths.
    pub fn new(threads: usize, rows: usize, force: bool) -> Self {
        let threads = threads.max(1);
        let budget = if force {
            threads
        } else if threads < 2 || rows < 2 * MIN_ROWS_PER_WORKER {
            1
        } else {
            threads.min(rows / MIN_ROWS_PER_WORKER).max(2)
        };
        ParallelCtx { budget, force }
    }

    /// Worker count for one phase processing `items` independent work items
    /// totalling `units` scan-grade work units: the budget, clamped so no
    /// worker is spawned for less than `MIN_ROWS_PER_WORKER` units of work
    /// and never more workers than items. Returns 1 (sequential) when the
    /// work cannot amortize a spawn.
    pub fn workers_for(&self, units: usize, items: usize) -> usize {
        let cap = self.budget.min(items.max(1));
        if cap < 2 {
            return 1;
        }
        if self.force {
            return cap;
        }
        if units < 2 * MIN_ROWS_PER_WORKER {
            return 1;
        }
        cap.min((units / MIN_ROWS_PER_WORKER).max(2))
    }
}

/// The merged output of the planning phase — exactly the three collections
/// the sequential class loop accumulates, in the same order.
#[derive(Debug, Default)]
pub(crate) struct PlanOutput {
    /// `(row, attr, target)` RHS edits in canonical component order.
    pub edits: Vec<(usize, AttrId, ValueId)>,
    /// `(cfd, pattern, row)` LHS-edit victims in canonical component order.
    pub victims: Vec<(usize, usize, usize)>,
    /// Rows of conflicted classes (unsorted; the engine folds them into its
    /// ordered set).
    pub conflict_rows: Vec<usize>,
}

impl PlanOutput {
    fn merge(parts: Vec<PlanOutput>) -> PlanOutput {
        let mut out = PlanOutput::default();
        for part in parts {
            out.edits.extend(part.edits);
            out.victims.extend(part.victims);
            out.conflict_rows.extend(part.conflict_rows);
        }
        out
    }
}

/// Plans one round's edits over the components: RHS targets per class, LHS
/// victims per conflicted class. With `workers < 2` (or fewer components
/// than workers would need) the chunk loop runs inline; otherwise each
/// contiguous canonical-order chunk is planned on its own scoped thread
/// with a worker-local [`TargetScratch`], and the per-chunk outputs are
/// concatenated in chunk order — see the [module docs](self) for why that
/// merge is byte-identical to the sequential loop.
pub(crate) fn plan_components(
    rel: &Relation,
    model: &CostModel,
    components: &Components,
    workers: usize,
) -> PlanOutput {
    let plan = |chunk: &[CellClass]| {
        let mut out = PlanOutput::default();
        plan_chunk(rel, model, chunk, &mut TargetScratch::new(), &mut out);
        out
    };
    let chunks = components.chunks(workers);
    if chunks.len() < 2 {
        return plan(components.classes());
    }
    PlanOutput::merge(scoped_map(chunks, plan))
}

/// Runs `work` over every item on its own scoped thread and returns the
/// results in item order; a worker's panic resumes on the caller.
fn scoped_map<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        let join = |h: std::thread::ScopedJoinHandle<'_, R>| {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
        };
        handles.into_iter().map(join).collect()
    })
}

/// The sequential class loop over one contiguous chunk of the canonical
/// component order — the one copy of the planning logic both the inline and
/// the threaded path run.
fn plan_chunk(
    rel: &Relation,
    model: &CostModel,
    classes: &[CellClass],
    scratch: &mut TargetScratch,
    out: &mut PlanOutput,
) {
    for class in classes {
        if let Some(conflict) = class.conflict {
            // Conflicted class: break the later-arriving constraint with an
            // LHS edit; remember every involved row for next round.
            out.victims.push((
                conflict.conflicting.cfd,
                conflict.conflicting.pattern,
                conflict.conflicting.row,
            ));
            out.conflict_rows
                .extend(class.cells.iter().map(|&(row, _)| row));
            continue;
        }
        let target = match class.pin {
            Some(pin) => pin.target,
            None => {
                model
                    .class_target_with(rel, &class.cells, scratch)
                    // wslint: allow(panic_path, "classes are created non-empty and cells are only ever added")
                    .expect("a class always has at least one cell")
                    .0
            }
        };
        for &(row, attr) in &class.cells {
            if rel.column(attr)[row] != target {
                out.edits.push((row, attr, target));
            }
        }
    }
}

/// Re-checks a batch of LHS keys, fanned out over `workers` scoped threads
/// when the batch warrants it. Keys are split into contiguous chunks, each
/// worker drives [`cfd_detect::recheck_lhs_keys`] over its chunk until it
/// holds `at_most` witnesses, and the per-chunk witness lists are
/// concatenated in chunk order — identical to the sequential sweep because
/// the re-check preserves key order and sorts witnesses within each group.
/// The engine's satisfaction sweep is the same call with `at_most == 1`:
/// every worker stops at its first witness, clean iff nothing comes back.
/// `None` for a don't-care CFD, which takes the scan.
pub(crate) fn recheck_keys_sharded(
    cfd: &Cfd,
    rel: &Relation,
    index: &Index,
    keys: &[&[ValueId]],
    workers: usize,
    at_most: usize,
) -> Option<Vec<ViolationWitness>> {
    let recheck = |chunk| {
        let found = recheck_lhs_keys(cfd, rel, index, chunk)?;
        Some(found.take(at_most).collect::<Vec<_>>())
    };
    if workers < 2 || keys.len() < 2 {
        return recheck(keys);
    }
    let chunks = keys.chunks(keys.len().div_ceil(workers));
    let parts: Option<Vec<_>> = scoped_map(chunks, recheck).into_iter().collect();
    Some(parts?.into_iter().flatten().collect())
}

/// Builds the per-CFD [`LhsGroups`], adopting the `prebuilt` index of a slot
/// where it fits and indexing the instance for the others — in parallel when
/// the instance and budget warrant it. Builds are independent per CFD, and
/// index provenance never influences repair choices (seeding visits keys in
/// sorted order), so this fan-out needs no ordering argument at all.
pub(crate) fn build_groups(
    rel: &Relation,
    cfds: &[Cfd],
    prebuilt: Vec<Option<Index>>,
    ctx: ParallelCtx,
) -> Vec<LhsGroups> {
    let adopt = |(cfd, index): (&Cfd, Option<Index>)| LhsGroups::over(cfd, index?);
    let adopted: Vec<Option<LhsGroups>> = cfds.iter().zip(prebuilt).map(adopt).collect();
    let unserved = cfds.iter().zip(&adopted).filter(|(_, slot)| slot.is_none());
    let pending: Vec<&Cfd> = unserved.map(|(cfd, _)| cfd).collect();
    let workers = ctx.workers_for(rel.len().saturating_mul(pending.len()), pending.len());
    let build = |cfd| LhsGroups::build(cfd, rel);
    let built: Vec<LhsGroups> = if workers < 2 {
        pending.into_iter().map(build).collect()
    } else {
        scoped_map(pending, build)
    };
    let mut built = built.into_iter();
    let filled = adopted
        .into_iter()
        .map(|slot| slot.or_else(|| built.next()));
    filled.flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_budget_mirrors_the_planner_rule() {
        // Below two threads or below the row floor: sequential.
        assert_eq!(ParallelCtx::new(1, usize::MAX, false).budget, 1);
        assert_eq!(
            ParallelCtx::new(8, 2 * MIN_ROWS_PER_WORKER - 1, false).budget,
            1
        );
        // At the floor: at least two workers, at most one per work quota.
        assert_eq!(
            ParallelCtx::new(8, 2 * MIN_ROWS_PER_WORKER, false).budget,
            2
        );
        assert_eq!(ParallelCtx::new(8, 100_000, false).budget, 8);
        assert_eq!(ParallelCtx::new(4, 100_000, false).budget, 4);
        // Zero threads clamps to one.
        assert_eq!(ParallelCtx::new(0, 100_000, false).budget, 1);
        // Force keeps the configured count even on tiny instances.
        assert_eq!(ParallelCtx::new(8, 10, true).budget, 8);
    }

    #[test]
    fn phase_workers_respect_budget_items_and_amortization() {
        let ctx = ParallelCtx::new(8, 1_000_000, false);
        assert_eq!(ctx.budget, 8);
        // Tiny phases run sequentially even under a large budget.
        assert_eq!(ctx.workers_for(100, 50), 1);
        // Large phases use the full budget.
        assert_eq!(ctx.workers_for(1_000_000, 10_000), 8);
        // Work-quota clamp between the extremes.
        let w = ctx.workers_for(3 * MIN_ROWS_PER_WORKER, 10_000);
        assert_eq!(w, 3);
        // Never more workers than items.
        assert_eq!(ctx.workers_for(1_000_000, 3), 3);

        let forced = ParallelCtx {
            budget: 4,
            force: true,
        };
        assert_eq!(forced.workers_for(1, 100), 4);
        assert_eq!(forced.workers_for(1, 2), 2);
        assert_eq!(forced.workers_for(1, 1), 1);
    }
}
