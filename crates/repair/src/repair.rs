//! Repair engine selection, shared result types, and the pass-loop
//! heuristic (the reference engine).

use crate::class_engine;
use crate::cost::CostModel;
use cfd_core::{Cfd, ViolationKind, ViolationWitness};
use cfd_relation::{placeholder, AttrId, AttrType, Relation, Value, ValueId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// One cell modification performed by the repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modification {
    /// Index of the modified row.
    pub row: usize,
    /// Modified attribute.
    pub attr: AttrId,
    /// Value before the modification.
    pub old: Value,
    /// Value after the modification.
    pub new: Value,
}

impl fmt::Display for Modification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row {} attr {}: {} -> {}",
            self.row, self.attr, self.old, self.new
        )
    }
}

/// Which repair engine to run. Both engines terminate with instances the
/// detection layer verifies identically (the differential harness pins
/// this), but they differ in strategy and asymptotics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepairKind {
    /// The per-witness pass loop: every pass re-detects all violations of
    /// every CFD from scratch and resolves them witness by witness
    /// (`O(passes × |Σ| × |I|)`). Kept as the reference path for
    /// differential testing.
    Heuristic,
    /// The equivalence-class engine: one seeding detection pass, cell
    /// classes with weighted cost-minimal target selection, and incremental
    /// per-group re-checking after each edit (see
    /// [`crate::class_engine`]). The default.
    #[default]
    EquivClass,
}

impl RepairKind {
    /// Repairs `rel` with the selected engine under the default
    /// configuration.
    pub fn repair(&self, cfds: &[Cfd], rel: &Relation) -> RepairResult {
        Repairer::with_config(RepairConfig {
            kind: *self,
            ..RepairConfig::default()
        })
        .repair(cfds, rel)
    }
}

/// Configuration shared by both repair engines.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// The engine to run.
    pub kind: RepairKind,
    /// Maximum number of passes (heuristic) / rounds (class engine) before
    /// giving up.
    pub max_passes: usize,
    /// Cost model used to price modifications and select class targets.
    pub cost_model: CostModel,
    /// Whether LHS placeholder edits are allowed as a last resort.
    pub allow_lhs_edits: bool,
    /// Whether LHS placeholders respect the column's declared type
    /// (`INTEGER` columns receive integer sentinels). When `false`, every
    /// placeholder is a fresh string — the explicit bypass.
    pub typed_placeholders: bool,
    /// Worker-thread budget of the equivalence-class engine (the pass-loop
    /// heuristic is unaffected; clamped to ≥ 1 when used). The engine
    /// additionally clamps the budget by the spawn-amortization rule shared
    /// with the detection planner ([`cfd_detect::MIN_ROWS_PER_WORKER`]), so
    /// 1-core hosts and instances too small to amortize thread setup run
    /// the sequential path regardless of this setting. Repairs are
    /// **byte-identical at any budget** (see [`crate::parallel`]). Defaults
    /// to the machine's available cores.
    pub threads: usize,
    /// Differential-testing override: honor `threads` even on instances too
    /// small to amortize thread spawn. Production paths leave this `false`;
    /// the differential harness sets it to force the component-parallel
    /// planning and batched-recheck code paths on small workloads, where
    /// the amortization clamp would otherwise silently fall back to the
    /// sequential path and make byte-identity assertions vacuous.
    pub force_parallel: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            kind: RepairKind::default(),
            max_passes: 16,
            cost_model: CostModel::default(),
            allow_lhs_edits: true,
            typed_placeholders: true,
            threads: cfd_detect::available_cores(),
            force_parallel: false,
        }
    }
}

/// The outcome of a repair run.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// The repaired instance.
    pub repaired: Relation,
    /// Every modification applied, in application order (the raw log —
    /// a cell edited in several passes appears once per touch).
    pub modifications: Vec<Modification>,
    /// Total cost of the **net** per-cell changes under the configured cost
    /// model: each modified cell is priced once, from its original value to
    /// its final value; cells that returned to their original value cost
    /// nothing.
    pub cost: f64,
    /// Whether the repaired instance satisfies every input CFD.
    pub satisfied: bool,
    /// Number of passes/rounds the engine used.
    pub passes: usize,
    /// The generation of the serving session this repair was computed
    /// against — stamped by `cfd::Session::repair` and checked by
    /// `cfd::Session::commit_repair`, so a result that outlived the
    /// instance it describes is refused instead of editing other tuples.
    /// `0` for one-shot [`Repairer`] results.
    pub generation: u64,
}

impl RepairResult {
    pub(crate) fn finish(
        repaired: Relation,
        modifications: Vec<Modification>,
        passes: usize,
        satisfied: bool,
        model: &CostModel,
    ) -> Self {
        let cost = net_fold(&modifications)
            .into_iter()
            .map(|((row, _), (old, new))| model.change_cost(row, &old, &new))
            .sum();
        RepairResult {
            repaired,
            modifications,
            cost,
            satisfied,
            passes,
            generation: 0,
        }
    }

    /// Number of modification-log entries (cells touched, counting repeats).
    pub fn changes(&self) -> usize {
        self.modifications.len()
    }

    /// The net per-cell changes, ordered by `(row, attr)`: one entry per
    /// cell whose final value differs from its original value, pricing-wise
    /// the only changes that matter (see [`RepairResult::cost`]).
    pub fn net_modifications(&self) -> Vec<Modification> {
        net_fold(&self.modifications)
            .into_iter()
            .map(|((row, attr), (old, new))| Modification {
                row,
                attr,
                old,
                new,
            })
            .collect()
    }
}

/// Folds a modification log into `(row, attr) → (first old, final new)`,
/// dropping cells that ended where they started. `BTreeMap` so both the cost
/// summation order and [`RepairResult::net_modifications`] are
/// deterministic.
fn net_fold(modifications: &[Modification]) -> BTreeMap<(usize, AttrId), (Value, Value)> {
    let mut net: BTreeMap<(usize, AttrId), (Value, Value)> = BTreeMap::new();
    for m in modifications {
        net.entry((m.row, m.attr))
            .and_modify(|e| e.1 = m.new.clone())
            .or_insert_with(|| (m.old.clone(), m.new.clone()));
    }
    net.retain(|_, (old, new)| old != new);
    net
}

/// Number of distinct violating `(cfd, pattern, row)` pairs — the progress
/// measure of both engines' stall checks. Counting *witnesses* instead is
/// wrong: merging two multi-tuple witnesses into one (while fixing nothing)
/// shrinks the witness count and reads as progress.
pub(crate) fn count_violating_pairs<'a, I>(witnesses: I) -> usize
where
    I: IntoIterator<Item = (usize, &'a ViolationWitness)>,
{
    let mut pairs: HashSet<(usize, usize, usize)> = HashSet::new();
    for (cfd_idx, w) in witnesses {
        for &row in &w.rows {
            pairs.insert((cfd_idx, w.pattern_index, row));
        }
    }
    pairs.len()
}

/// The LHS attribute an LHS edit should overwrite for `cfd`'s pattern row
/// `pattern_idx`: prefer an attribute whose pattern cell is a constant (so
/// the placeholder breaks the match), else the first LHS attribute.
pub(crate) fn lhs_edit_attr(cfd: &Cfd, pattern_idx: usize) -> Option<AttrId> {
    let pattern = &cfd.tableau().rows()[pattern_idx];
    cfd.lhs()
        .iter()
        .zip(pattern.lhs())
        .find(|(_, cell)| cell.is_const())
        .map(|(a, _)| *a)
        .or_else(|| cfd.lhs().first().copied())
}

/// Mints the placeholder an LHS edit writes into `attr` of `rel`, honouring
/// the typed-placeholder flag. `counter` is the *run-scoped* candidate
/// number (both engines start every run at 0), which makes placeholder
/// spellings — and therefore whole repairs — reproducible across repeated
/// runs: a candidate spelling already interned by an earlier run is
/// **reused** when it provably is a placeholder and does not occur in `rel`;
/// a spelling that exists as real data (or as any non-placeholder value) is
/// skipped, exactly like the global mint does.
pub(crate) fn mint_placeholder_for(
    rel: &Relation,
    attr: AttrId,
    typed_placeholders: bool,
    counter: &mut u64,
) -> ValueId {
    let ty = if typed_placeholders {
        rel.schema()
            .domain(attr)
            .map(|d| d.attr_type())
            .unwrap_or(AttrType::Text)
    } else {
        AttrType::Text
    };
    loop {
        let n = *counter;
        *counter += 1;
        let cand = placeholder::candidate(ty, n);
        match ValueId::get(&cand) {
            None => return placeholder::register(cand),
            Some(id) if placeholder::is_placeholder(id) && !relation_contains(rel, id) => {
                return id;
            }
            Some(_) => continue,
        }
    }
}

/// Whether any cell of `rel` holds `id` (column scan; only runs on the rare
/// placeholder-reuse path).
fn relation_contains(rel: &Relation, id: ValueId) -> bool {
    rel.schema().attr_ids().any(|a| rel.column(a).contains(&id))
}

/// The repair front-end: dispatches to the configured engine.
#[derive(Debug, Clone, Default)]
pub struct Repairer {
    config: RepairConfig,
}

impl Repairer {
    /// A repairer with the default configuration (the equivalence-class
    /// engine).
    pub fn new() -> Self {
        Repairer::default()
    }

    /// A repairer running the pass-loop heuristic (the reference engine).
    pub fn heuristic() -> Self {
        Repairer::with_config(RepairConfig {
            kind: RepairKind::Heuristic,
            ..RepairConfig::default()
        })
    }

    /// A repairer with an explicit configuration.
    pub fn with_config(config: RepairConfig) -> Self {
        Repairer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// Repairs `rel` with respect to `cfds` by attribute-value modification.
    ///
    /// The input CFD set should be consistent (an inconsistent set admits no
    /// repair; the result will report `satisfied == false`).
    pub fn repair(&self, cfds: &[Cfd], rel: &Relation) -> RepairResult {
        self.repair_with_indexes(cfds, rel, Vec::new())
    }

    /// Like [`Repairer::repair`], but handing the equivalence-class engine
    /// **prebuilt** per-CFD LHS indexes (one slot per CFD in CFD order) so a
    /// prepared session can share the indexes it already maintains for
    /// detection instead of letting the engine rebuild them from scratch.
    ///
    /// Every supplied index must cover its CFD's LHS attributes in order and
    /// be in sync with `rel`; `None` slots (and slots of don't-care CFDs)
    /// are built or handled internally as usual. The pass-loop heuristic
    /// does not use LHS indexes, so it ignores them. Results are
    /// **byte-identical** to [`Repairer::repair`] on the same inputs.
    pub fn repair_with_indexes(
        &self,
        cfds: &[Cfd],
        rel: &Relation,
        indexes: Vec<Option<cfd_relation::Index>>,
    ) -> RepairResult {
        match self.config.kind {
            RepairKind::Heuristic => self.repair_heuristic(cfds, rel),
            RepairKind::EquivClass => class_engine::repair(cfds, rel, &self.config, indexes),
        }
    }

    /// The pass-loop heuristic: re-detect everything each pass, resolve
    /// witness by witness, fall back to an LHS edit on stall.
    fn repair_heuristic(&self, cfds: &[Cfd], rel: &Relation) -> RepairResult {
        let mut repaired = rel.clone();
        let mut modifications: Vec<Modification> = Vec::new();
        let mut passes = 0usize;
        let mut placeholder_counter = 0u64;

        // The stall measure: distinct violating (cfd, pattern, row) pairs.
        let pair_count = |rel: &Relation| {
            let all: Vec<(usize, ViolationWitness)> = cfds
                .iter()
                .enumerate()
                .flat_map(|(i, c)| c.violations(rel).into_iter().map(move |w| (i, w)))
                .collect();
            count_violating_pairs(all.iter().map(|(i, w)| (*i, w)))
        };

        // One sweep up front; afterwards each pass's `after` count carries
        // over as the next pass's `before` (recomputed only when an LHS edit
        // mutates the relation between the two), so the dominant detection
        // sweep runs once per pass, not twice.
        let mut before = pair_count(&repaired);
        for _ in 0..self.config.max_passes {
            if before == 0 {
                break;
            }
            passes += 1;

            for cfd in cfds {
                self.resolve_constant_violations(cfd, &mut repaired, &mut modifications);
                self.resolve_group_violations(cfd, &mut repaired, &mut modifications);
            }

            let after = pair_count(&repaired);
            if after == 0 {
                break;
            }
            if after >= before {
                // RHS edits are oscillating or stuck (the cross-CFD
                // interaction of Section 6): fall back to an LHS edit, which
                // removes one violating tuple from the pattern's scope.
                if !self.config.allow_lhs_edits
                    || !self.apply_lhs_edit(
                        cfds,
                        &mut repaired,
                        &mut modifications,
                        &mut placeholder_counter,
                    )
                {
                    break;
                }
                before = pair_count(&repaired);
            } else {
                before = after;
            }
        }

        let satisfied = cfds.iter().all(|c| c.satisfied_by(&repaired));
        RepairResult::finish(
            repaired,
            modifications,
            passes,
            satisfied,
            &self.config.cost_model,
        )
    }

    /// Overwrites RHS attributes that contradict a pattern constant.
    /// Current cells are compared as interned ids straight off the columns;
    /// values are resolved only when a modification is recorded.
    fn resolve_constant_violations(
        &self,
        cfd: &Cfd,
        rel: &mut Relation,
        modifications: &mut Vec<Modification>,
    ) {
        let witnesses: Vec<_> = cfd
            .violations(rel)
            .into_iter()
            .filter(|w| w.kind == ViolationKind::SingleTuple)
            .collect();
        for w in witnesses {
            let pattern = &cfd.tableau().rows()[w.pattern_index];
            for &row_idx in &w.rows {
                for (attr, cell) in cfd.rhs().iter().zip(pattern.rhs()) {
                    if let Some(target) = cell.const_id() {
                        let current = rel.column(*attr)[row_idx];
                        if current != target {
                            rel.set_id(row_idx, *attr, target);
                            modifications.push(Modification {
                                row: row_idx,
                                attr: *attr,
                                old: current.resolve().clone(),
                                new: target.resolve().clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Resolves multi-tuple violations per equivalence class by moving the
    /// minority to the plurality `Y` projection. Counting runs on interned
    /// id keys; count ties break deterministically on the resolved values
    /// (never on hash-map iteration order).
    fn resolve_group_violations(
        &self,
        cfd: &Cfd,
        rel: &mut Relation,
        modifications: &mut Vec<Modification>,
    ) {
        let witnesses: Vec<_> = cfd
            .violations(rel)
            .into_iter()
            .filter(|w| w.kind == ViolationKind::MultiTuple)
            .collect();
        for w in witnesses {
            // Count the Y projections in this class and pick the plurality.
            let mut counts: HashMap<Vec<ValueId>, usize> = HashMap::new();
            for &row_idx in &w.rows {
                // wslint: allow(panic_path, "witness rows were produced by detection over this same relation")
                let key = rel.row(row_idx).expect("witness row in range");
                *counts.entry(key.project_ids(cfd.rhs())).or_insert(0) += 1;
            }
            // Resolve each distinct key once, then pick the highest count,
            // breaking ties on the smallest resolved key (deterministic and
            // allocation-free inside the comparison loop).
            // wslint: allow(hash_iteration, "order-independent: the plurality pick below is max_by with a total-order tie-break")
            let resolved: Vec<(Vec<ValueId>, usize, Vec<&Value>)> = counts
                .into_iter()
                .map(|(k, c)| {
                    let vals: Vec<&Value> = k.iter().map(|id| id.resolve()).collect();
                    (k, c, vals)
                })
                .collect();
            let Some((target, _, _)) = resolved
                .into_iter()
                .max_by(|(_, ca, va), (_, cb, vb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
            else {
                continue;
            };
            for &row_idx in &w.rows {
                for (pos, attr) in cfd.rhs().iter().enumerate() {
                    let current = rel.column(*attr)[row_idx];
                    if current != target[pos] {
                        rel.set_id(row_idx, *attr, target[pos]);
                        modifications.push(Modification {
                            row: row_idx,
                            attr: *attr,
                            old: current.resolve().clone(),
                            new: target[pos].resolve().clone(),
                        });
                    }
                }
            }
        }
    }

    /// Breaks one remaining violation by overwriting an LHS attribute of one
    /// violating tuple with a fresh (typed) placeholder, taking it out of
    /// the pattern's scope. Returns whether an edit was applied.
    fn apply_lhs_edit(
        &self,
        cfds: &[Cfd],
        rel: &mut Relation,
        modifications: &mut Vec<Modification>,
        placeholder_counter: &mut u64,
    ) -> bool {
        for cfd in cfds {
            // `violations` is deterministically sorted, so the first witness
            // (and therefore the whole repair) is reproducible run to run.
            let Some(witness) = cfd.violations(rel).into_iter().next() else {
                continue;
            };
            let Some(&row_idx) = witness.rows.first() else {
                continue;
            };
            let Some(attr) = lhs_edit_attr(cfd, witness.pattern_index) else {
                continue;
            };
            let old = rel.column(attr)[row_idx].resolve().clone();
            let new_id = mint_placeholder_for(
                rel,
                attr,
                self.config.typed_placeholders,
                placeholder_counter,
            );
            rel.set_id(row_idx, attr, new_id);
            modifications.push(Modification {
                row: row_idx,
                attr,
                old,
                new: new_id.resolve().clone(),
            });
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{UnitDistance, ValueDistance};
    use cfd_core::CfdSet;
    use cfd_datagen::cust::{cust_instance, cust_schema, fig2_cfd_set, phi2};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::{Schema, TupleWeights};
    use std::sync::Arc;

    const BOTH: [RepairKind; 2] = [RepairKind::Heuristic, RepairKind::EquivClass];

    #[test]
    fn repairs_the_running_example() {
        // Fig. 1 violates ϕ2 (area code 908 should imply city MH).
        let rel = cust_instance();
        let cfds: Vec<Cfd> = fig2_cfd_set().into_iter().collect();
        for kind in BOTH {
            let result = kind.repair(&cfds, &rel);
            assert!(result.satisfied, "{kind:?} must satisfy the CFDs");
            assert!(
                result.changes() >= 2,
                "{kind:?}: both t1 and t2 need their city fixed"
            );
            let ct = cust_schema().resolve("CT").unwrap();
            assert_eq!(result.repaired.row(0).unwrap()[ct], Value::from("MH"));
            assert_eq!(result.repaired.row(1).unwrap()[ct], Value::from("MH"));
            assert!(result.cost >= 2.0);
            // Untouched rows stay untouched.
            assert_eq!(result.repaired.row(4).unwrap(), rel.row(4).unwrap());
        }
    }

    #[test]
    fn clean_data_is_left_unchanged() {
        let rel = cust_instance();
        for kind in BOTH {
            let result = kind.repair(&[cfd_datagen::cust::phi1()], &rel);
            assert!(result.satisfied);
            assert_eq!(result.changes(), 0, "{kind:?}");
            assert_eq!(result.cost, 0.0);
            assert_eq!(result.repaired, rel);
        }
    }

    #[test]
    fn multi_tuple_violations_move_minority_to_plurality() {
        // Three tuples agree on the LHS; two say "PHI", one says "NYC".
        let schema = Schema::builder("r").text("A").text("B").build();
        let mut rel = Relation::new(schema.clone());
        for b in ["PHI", "PHI", "NYC"] {
            rel.push_values(vec![Value::from("x"), Value::from(b)])
                .unwrap();
        }
        let fd = Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap();
        for kind in BOTH {
            let result = kind.repair(std::slice::from_ref(&fd), &rel);
            assert!(result.satisfied);
            assert_eq!(result.changes(), 1, "{kind:?}");
            let b = schema.resolve("B").unwrap();
            assert!(result
                .repaired
                .iter()
                .all(|(_, t)| t[b] == Value::from("PHI")));
        }
    }

    #[test]
    fn tuple_weights_override_the_plurality_vote() {
        // Two rows say "PHI", one says "NYC" — but the NYC row carries ten
        // times the weight, so the weighted cost-minimal target is NYC.
        let schema = Schema::builder("r").text("A").text("B").build();
        let mut rel = Relation::new(schema.clone());
        for b in ["PHI", "PHI", "NYC"] {
            rel.push_values(vec![Value::from("x"), Value::from(b)])
                .unwrap();
        }
        let fd = Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap();
        let mut weights = TupleWeights::default();
        weights.set(2, 10.0);
        let config = RepairConfig {
            kind: RepairKind::EquivClass,
            cost_model: CostModel {
                weights,
                ..CostModel::default()
            },
            ..RepairConfig::default()
        };
        let result = Repairer::with_config(config).repair(&[fd], &rel);
        assert!(result.satisfied);
        assert_eq!(result.changes(), 2, "both PHI rows move to NYC");
        let b = schema.resolve("B").unwrap();
        assert!(result
            .repaired
            .iter()
            .all(|(_, t)| t[b] == Value::from("NYC")));
        // Net cost: two unit edits.
        assert!((result.cost - 2.0).abs() < 1e-9);
    }

    fn section6_sigma() -> (Schema, Relation, Vec<Cfd>) {
        // Section 6's example: attr(R) = (A, B, C), I = {(a1,b1,c1), (a1,b2,c2)},
        // Σ = { (A -> B, (_ ‖ _)), (C -> B, {(c1, b1), (c2, b2)}) }.
        // Any repair must touch an LHS attribute of one of the embedded FDs.
        let schema = Schema::builder("R").text("A").text("B").text("C").build();
        let mut rel = Relation::new(schema.clone());
        rel.push_values(vec!["a1".into(), "b1".into(), "c1".into()])
            .unwrap();
        rel.push_values(vec!["a1".into(), "b2".into(), "c2".into()])
            .unwrap();
        let fd_ab = Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap();
        let cfd_cb = Cfd::builder(schema.clone(), ["C"], ["B"])
            .pattern(["c1"], ["b1"])
            .pattern(["c2"], ["b2"])
            .build()
            .unwrap();
        (schema, rel, vec![fd_ab, cfd_cb])
    }

    #[test]
    fn lhs_edit_needed_for_the_paper_example() {
        let (schema, rel, sigma) = section6_sigma();
        assert!(CfdSet::from_cfds(sigma.clone())
            .unwrap()
            .is_consistent()
            .unwrap());

        for kind in BOTH {
            let result = kind.repair(&sigma, &rel);
            assert!(result.satisfied, "{kind:?} must find a repair");
            // At least one modification touches A or C (an LHS attribute).
            let a = schema.resolve("A").unwrap();
            let c = schema.resolve("C").unwrap();
            assert!(
                result
                    .modifications
                    .iter()
                    .any(|m| m.attr == a || m.attr == c),
                "{kind:?}: this instance cannot be repaired by RHS edits alone: {:?}",
                result.modifications
            );

            // With LHS edits disabled the engines cannot fully repair it.
            let stuck = Repairer::with_config(RepairConfig {
                kind,
                allow_lhs_edits: false,
                ..RepairConfig::default()
            })
            .repair(&sigma, &rel);
            assert!(!stuck.satisfied, "{kind:?}");
        }
    }

    #[test]
    fn conflicted_class_keeps_its_merge_and_pin_obligations() {
        // Like the Section 6 instance, but with B values (b9, b8) matching
        // NEITHER pin: one class carries an FD merge plus two incompatible
        // pins. Resolving the conflict with an LHS edit must not drop the
        // class's surviving obligations (the kept pin and the merge) — they
        // live in groups the LHS edit itself never touches.
        let schema = Schema::builder("R").text("A").text("B").text("C").build();
        let mut rel = Relation::new(schema.clone());
        rel.push_values(vec!["a1".into(), "b9".into(), "c1".into()])
            .unwrap();
        rel.push_values(vec!["a1".into(), "b8".into(), "c2".into()])
            .unwrap();
        let fd_ab = Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap();
        let cfd_cb = Cfd::builder(schema, ["C"], ["B"])
            .pattern(["c1"], ["b1"])
            .pattern(["c2"], ["b2"])
            .build()
            .unwrap();
        let sigma = vec![fd_ab, cfd_cb];
        for kind in BOTH {
            let result = kind.repair(&sigma, &rel);
            assert!(
                result.satisfied,
                "{kind:?} must fully repair the conflicted instance: {:?}",
                result.modifications
            );
            assert!(sigma.iter().all(|c| c.satisfied_by(&result.repaired)));
        }
    }

    #[test]
    fn lhs_edit_repairs_are_reproducible_within_a_process() {
        // Placeholder spellings are numbered per run (with safe reuse), so
        // repeating a repair that needs LHS edits yields byte-identical
        // modification logs — including the placeholder values themselves.
        let (_, rel, sigma) = section6_sigma();
        for kind in BOTH {
            let first = kind.repair(&sigma, &rel);
            assert!(first.satisfied);
            assert!(
                first
                    .modifications
                    .iter()
                    .any(|m| placeholder::is_placeholder_value(&m.new)),
                "{kind:?}: the workload must exercise an LHS edit"
            );
            for run in 0..3 {
                let again = kind.repair(&sigma, &rel);
                assert_eq!(
                    again.modifications, first.modifications,
                    "{kind:?} run {run}: LHS-edit repairs diverged"
                );
                assert_eq!(again.repaired, first.repaired, "{kind:?} run {run}");
            }
        }
    }

    #[test]
    fn oscillating_cross_cfd_edits_do_not_inflate_the_net_cost() {
        // In the Section 6 instance the heuristic's first pass drives row 1's
        // B cell b2 → b1 (FD plurality, smallest-value tie) and straight back
        // b1 → b2 (the (c2 ‖ b2) pattern constant): a raw per-touch sum would
        // charge that cell twice although it ends where it started. The net
        // cost prices first-old → final-new per cell.
        let (_, rel, sigma) = section6_sigma();
        let result = RepairKind::Heuristic.repair(&sigma, &rel);
        assert!(result.satisfied);
        let b = AttrId(1);
        let b_touches = result
            .modifications
            .iter()
            .filter(|m| m.attr == b && m.row == 1)
            .count();
        assert!(
            b_touches >= 2,
            "the raw log must show the oscillation: {:?}",
            result.modifications
        );
        // The oscillating cell nets out; only the placeholder LHS edit is
        // priced (placeholder_distance = 1.5 by default).
        let net = result.net_modifications();
        assert!(
            net.iter().all(|m| !(m.attr == b && m.row == 1)),
            "the oscillating cell must net out: {net:?}"
        );
        assert!(
            (result.cost - 1.5).abs() < 1e-9,
            "only the LHS placeholder edit is priced, got {}",
            result.cost
        );
    }

    #[test]
    fn net_modifications_fold_the_raw_log() {
        let mods = vec![
            Modification {
                row: 0,
                attr: AttrId(1),
                old: "x".into(),
                new: "y".into(),
            },
            Modification {
                row: 0,
                attr: AttrId(1),
                old: "y".into(),
                new: "x".into(),
            },
            Modification {
                row: 2,
                attr: AttrId(0),
                old: "p".into(),
                new: "q".into(),
            },
        ];
        let result = RepairResult {
            repaired: Relation::new(Schema::builder("r").text("A").text("B").build()),
            modifications: mods,
            cost: 0.0,
            satisfied: true,
            passes: 1,
            generation: 0,
        };
        let net = result.net_modifications();
        assert_eq!(net.len(), 1, "the oscillating cell folds away");
        assert_eq!(net[0].row, 2);
        assert_eq!(net[0].old, Value::from("p"));
        assert_eq!(net[0].new, Value::from("q"));
    }

    #[test]
    fn stall_check_counts_pairs_not_witnesses() {
        // Two single-tuple witnesses over the same (pattern, row) collapse to
        // one pair; distinct rows count separately.
        let w1 = ViolationWitness {
            pattern_index: 0,
            kind: ViolationKind::SingleTuple,
            rows: vec![3],
        };
        let w2 = ViolationWitness {
            pattern_index: 0,
            kind: ViolationKind::MultiTuple,
            rows: vec![3, 4],
        };
        assert_eq!(count_violating_pairs([(0, &w1), (0, &w2)]), 2);
        // The same rows under another CFD are new pairs.
        assert_eq!(count_violating_pairs([(0, &w1), (1, &w1)]), 2);
        assert_eq!(
            count_violating_pairs([] as [(usize, &ViolationWitness); 0]),
            0
        );
    }

    #[test]
    fn typed_placeholders_respect_integer_columns() {
        // An FD whose LHS is an INTEGER column, violated so only an LHS edit
        // can repair it: [SA] -> [TX] merged with two CFDs pinning the same
        // SA group to different TX constants (pattern constants built from
        // typed values — the string builder would intern "100" as text).
        use cfd_core::{PatternTableau, PatternTuple, PatternValue};
        let schema = Schema::builder("r").integer("SA").integer("TX").build();
        let mut rel = Relation::new(schema.clone());
        rel.push_values(vec![Value::Int(100), Value::Int(10)])
            .unwrap();
        rel.push_values(vec![Value::Int(100), Value::Int(20)])
            .unwrap();
        let fd = Cfd::fd(schema.clone(), ["SA"], ["TX"]).unwrap();
        let sa = schema.resolve("SA").unwrap();
        let tx = schema.resolve("TX").unwrap();
        let pin_to = |target: i64| {
            let mut t = PatternTableau::new();
            t.push(PatternTuple::new(
                vec![PatternValue::from(Value::Int(100))],
                vec![PatternValue::from(Value::Int(target))],
            ));
            Cfd::from_parts(schema.clone(), vec![sa], vec![tx], t).unwrap()
        };
        let pin10 = pin_to(10);
        let pin20 = pin_to(20);

        for kind in BOTH {
            let result = kind.repair(&[fd.clone(), pin10.clone(), pin20.clone()], &rel);
            // The conflicting pins force LHS (SA) placeholder edits; SA is an
            // integer column, so the placeholder must be an integer.
            let sa_placeholders: Vec<&Modification> = result
                .modifications
                .iter()
                .filter(|m| m.attr == sa && placeholder::is_placeholder_value(&m.new))
                .collect();
            assert!(
                !sa_placeholders.is_empty(),
                "{kind:?} must fall back to an LHS edit: {:?}",
                result.modifications
            );
            for m in &sa_placeholders {
                assert!(
                    matches!(m.new, Value::Int(_)),
                    "{kind:?}: integer column received a non-integer placeholder: {m}"
                );
            }
            // Schema typing is preserved across the whole repaired instance.
            for (_, row) in result.repaired.iter() {
                assert!(matches!(row[sa], Value::Int(_)));
                assert!(matches!(row[tx], Value::Int(_)));
            }
        }

        // The explicit bypass: untyped placeholders are strings even on
        // integer columns.
        let config = RepairConfig {
            typed_placeholders: false,
            ..RepairConfig::default()
        };
        let result = Repairer::with_config(config).repair(&[fd, pin10, pin20], &rel);
        let ph = result
            .modifications
            .iter()
            .find(|m| placeholder::is_placeholder_value(&m.new))
            .expect("an LHS placeholder edit must occur");
        assert!(matches!(ph.new, Value::Str(_)));
    }

    #[test]
    fn repairs_noisy_tax_records() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 400,
            noise_percent: 10.0,
            seed: 77,
        })
        .generate();
        let workload = CfdWorkload::new(3);
        let cfds = vec![
            workload.zip_state_full(),
            workload.single(EmbeddedFd::AreaToCity, 400, 100.0),
        ];
        assert!(cfds.iter().any(|c| !c.satisfied_by(&noisy.relation)));
        for kind in BOTH {
            let result = kind.repair(&cfds, &noisy.relation);
            assert!(
                result.satisfied,
                "{kind:?}: tax workload must be repairable"
            );
            assert!(result.changes() > 0);
            assert!(
                result.changes() <= noisy.dirty_rows.len() * 3,
                "{kind:?}: repair should not rewrite much more than the injected noise"
            );
        }
    }

    #[test]
    fn class_engine_repairs_are_byte_deterministic() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 300,
            noise_percent: 12.0,
            seed: 4242,
        })
        .generate();
        let workload = CfdWorkload::new(5);
        let cfds = vec![
            workload.zip_state_full(),
            workload.single(EmbeddedFd::AreaToCity, 200, 100.0),
        ];
        let first = RepairKind::EquivClass.repair(&cfds, &noisy.relation);
        assert!(first.satisfied);
        assert!(
            first
                .modifications
                .iter()
                .all(|m| !placeholder::is_placeholder_value(&m.new)),
            "this workload repairs without LHS edits"
        );
        for _ in 0..3 {
            let again = RepairKind::EquivClass.repair(&cfds, &noisy.relation);
            assert_eq!(again.modifications, first.modifications);
            assert_eq!(again.repaired, first.repaired);
            assert_eq!(again.cost, first.cost);
            assert_eq!(again.passes, first.passes);
        }
    }

    #[test]
    fn repair_of_phi2_only_touches_rhs_attributes() {
        let rel = cust_instance();
        for kind in BOTH {
            let result = kind.repair(&[phi2()], &rel);
            assert!(result.satisfied);
            let rhs: Vec<AttrId> = phi2().rhs().to_vec();
            assert!(
                result.modifications.iter().all(|m| rhs.contains(&m.attr)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn dont_care_cfds_fall_back_to_full_rescans_soundly() {
        // A merged-style tableau with @ cells: the class engine must not use
        // keyed rechecks for it, and still converge.
        let schema = cust_schema();
        let cfd = Cfd::builder(schema, ["CC", "AC", "CT"], ["CT", "AC"])
            .pattern(["01", "215", "@"], ["PHI", "@"])
            .build()
            .unwrap();
        let mut rel = cust_instance();
        rel.set_value(4, AttrId(5), Value::from("NYC"));
        assert!(!cfd.satisfied_by(&rel));
        for kind in BOTH {
            let result = kind.repair(std::slice::from_ref(&cfd), &rel);
            assert!(result.satisfied, "{kind:?}");
            assert_eq!(
                result.repaired.row(4).unwrap()[AttrId(5)],
                Value::from("PHI")
            );
        }
    }

    #[test]
    fn result_reports_passes_and_display() {
        let rel = cust_instance();
        for kind in BOTH {
            let result = kind.repair(&[phi2()], &rel);
            assert!(result.passes >= 1, "{kind:?}");
            let m = &result.modifications[0];
            let shown = m.to_string();
            assert!(shown.contains("->"));
        }
    }

    #[test]
    fn prebuilt_indexes_give_byte_identical_repairs() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 350,
            noise_percent: 10.0,
            seed: 90,
        })
        .generate();
        let workload = CfdWorkload::new(4);
        let cfds = vec![
            workload.zip_state_full(),
            workload.single(EmbeddedFd::AreaToCity, 150, 100.0),
        ];
        for kind in BOTH {
            let repairer = Repairer::with_config(RepairConfig {
                kind,
                ..RepairConfig::default()
            });
            let fresh = repairer.repair(&cfds, &noisy.relation);
            let shared: Vec<Option<cfd_relation::Index>> = cfds
                .iter()
                .map(|c| Some(noisy.relation.build_index(c.lhs())))
                .collect();
            let reused = repairer.repair_with_indexes(&cfds, &noisy.relation, shared);
            assert_eq!(reused.modifications, fresh.modifications, "{kind:?}");
            assert_eq!(reused.repaired, fresh.repaired, "{kind:?}");
            assert_eq!(reused.cost, fresh.cost, "{kind:?}");
            assert_eq!(reused.passes, fresh.passes, "{kind:?}");
            assert_eq!(reused.satisfied, fresh.satisfied, "{kind:?}");
            // `None` slots fall back to internal index building.
            let partial = repairer.repair_with_indexes(
                &cfds,
                &noisy.relation,
                vec![None, Some(noisy.relation.build_index(cfds[1].lhs()))],
            );
            assert_eq!(partial.modifications, fresh.modifications, "{kind:?}");
        }
    }

    #[test]
    fn class_target_helper_matches_engine_choice() {
        // Two rows say PHI, one says NYC: the unit-distance class target is
        // the plurality value, with its selection cost.
        let schema = Schema::builder("r").text("A").text("B").build();
        let mut rel = Relation::new(schema.clone());
        for b in ["PHI", "PHI", "NYC"] {
            rel.push_values(vec![Value::from("x"), Value::from(b)])
                .unwrap();
        }
        let b = schema.resolve("B").unwrap();
        let model = CostModel::default();
        let (target, cost) = model.class_target(&rel, &[(0, b), (1, b), (2, b)]).unwrap();
        assert_eq!(target.resolve(), &Value::from("PHI"));
        assert!((cost - 1.0).abs() < 1e-9, "one disagreeing row, got {cost}");
        assert!(model.class_target(&rel, &[]).is_none());
    }

    #[test]
    fn repairer_front_end_dispatches_and_exposes_config() {
        let r = Repairer::new();
        assert_eq!(r.config().kind, RepairKind::EquivClass);
        let h = Repairer::heuristic();
        assert_eq!(h.config().kind, RepairKind::Heuristic);
        assert!(Arc::strong_count(&r.config().cost_model.distance) >= 1);
        // The default distance is the unit metric.
        assert_eq!(
            r.config()
                .cost_model
                .distance
                .distance(&Value::from("a"), &Value::from("b")),
            UnitDistance.distance(&Value::from("a"), &Value::from("b"))
        );
    }
}
