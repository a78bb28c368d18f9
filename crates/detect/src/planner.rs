//! The cost-based adaptive detection planner behind
//! [`DetectorKind::Auto`](crate::DetectorKind::Auto).
//!
//! The paper's Fig. 9 experiments show that no static detection strategy
//! wins everywhere: merged tableaux beat per-CFD passes only past a
//! tableau-size threshold, sharding only pays when LHS groups are numerous
//! and cores are available, and index-driven detection only pays when the
//! grouping work it skips dominates. [`Planner`] makes that choice per CFD
//! from two inputs:
//!
//! * **data statistics** ([`RelationStats`], the `cfd-relation` stats
//!   layer): row count, per-column distinct values (pattern-constant
//!   selectivity) and group cardinalities of the LHS attribute sets;
//! * **rule shape**: tableau size, constants vs wildcards per pattern row,
//!   LHS/RHS arity, don't-care presence.
//!
//! Candidate strategies per plan step (costed in comparable abstract units,
//! roughly nanoseconds of the vectorized kernels):
//!
//! * [`StepStrategy::Direct`] — the single-threaded block scan
//!   ([`scan_group`]);
//! * [`StepStrategy::Sharded`] — the same scan hash-partitioned over worker
//!   threads; the shard count comes from the data size and
//!   [`available_cores`] (the same source as
//!   [`ShardedDetector::default`](crate::ShardedDetector));
//! * [`StepStrategy::Merged`] — several CFDs with **identical LHS
//!   attribute lists** fused into one scan that pays hashing and grouping
//!   once (the planner's merged-tableaux mode; unlike the SQL merged plan
//!   of Section 4.2 it preserves each CFD's own `QV` key space, so reports
//!   stay byte-identical to the per-CFD paths);
//! * [`StepStrategy::IndexDriven`] — the group-driven scan over a prebuilt
//!   LHS [`Index`] ([`detect_with_index`]), considered when an index can be
//!   reused across detections (a serving `Session`) and the CFD has no
//!   don't-care cells.
//!
//! # Never worse than static, by intent
//!
//! The planner's goal is that `DetectorKind::Auto` never loses
//! meaningfully to the best static engine and avoids the worst one: every
//! candidate it chooses from **is** one of the static paths, planning reads
//! cached statistics (collected in one cheap pass per snapshot), and the
//! cost model only has to rank strategies, not predict absolute runtimes.
//! When estimates are off the penalty is bounded by the best static
//! engine's own cost profile — the differential harness pins that the
//! *report* is byte-identical to [`DirectDetector`](crate::DirectDetector)
//! regardless.
//!
//! Plans are inspectable: [`DetectionPlan`] records, per step, the chosen
//! strategy and every candidate's estimated cost ([`PlanStep::candidates`]),
//! and renders a human-readable summary via `Display`.

use crate::direct::detect_with_index;
use crate::kernels::{scan_group, ScanScratch, FUSE_MAX};
use crate::report::Violations;
use crate::sharded::{available_cores, scan_group_sharded, MIN_ROWS_PER_WORKER};
use cfd_core::Cfd;
use cfd_relation::{Index, Relation, RelationStats};
use std::fmt;

// Abstract cost units (≈ ns of the vectorized kernels on one core).
/// Hashing one key column cell into the block hash.
const HASH: f64 = 2.0;
/// Group-table probe per row.
const PROBE: f64 = 6.0;
/// Comparing one `Y` column cell.
const YCMP: f64 = 1.0;
/// Evaluating one pattern cell.
const CELL: f64 = 1.0;
/// Creating one group entry.
const GROUP_NEW: f64 = 10.0;
/// Partitioning one key column cell (sharded pre-pass).
const PARTITION: f64 = 2.0;
/// Spawning and joining one worker thread.
const SPAWN: f64 = 60_000.0;
/// Scanning one row in a `QC` constant prefilter (a branch-predictable
/// slice compare, cheaper than a hash).
const QC_SCAN: f64 = 0.5;
/// Per-row overhead of the index-driven scan (the `Y` scratch gather).
const INDEX_ROW: f64 = 2.0;
/// Per matched pattern row, the per-data-row RHS check of the index-driven
/// scan — the term that prices index iteration out for wildcard-heavy
/// tableaux, where every row is re-checked against every matching pattern.
const PATTERN_CMP: f64 = 2.0;
/// Per-group overhead of iterating a hash index (pointer chasing).
const INDEX_ITER: f64 = 32.0;

/// How one plan step executes (see the module docs for when each wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStrategy {
    /// Single-threaded vectorized block scan.
    Direct,
    /// Hash-partitioned parallel block scan.
    Sharded {
        /// Worker/shard count the cost model settled on.
        shards: usize,
    },
    /// Fused same-LHS multi-CFD scan (`shards == 1` runs single-threaded).
    Merged {
        /// Worker/shard count the cost model settled on.
        shards: usize,
    },
    /// Group-driven scan over a prebuilt LHS index.
    IndexDriven,
}

impl fmt::Display for StepStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepStrategy::Direct => write!(f, "direct"),
            StepStrategy::Sharded { shards } => write!(f, "sharded({shards})"),
            StepStrategy::Merged { shards } if *shards > 1 => write!(f, "merged({shards})"),
            StepStrategy::Merged { .. } => write!(f, "merged"),
            StepStrategy::IndexDriven => write!(f, "index"),
        }
    }
}

/// One step of a [`DetectionPlan`]: the CFDs it covers (indices into the
/// planned set — more than one only for [`StepStrategy::Merged`]), the
/// chosen strategy, and the cost estimates behind the choice.
#[derive(Debug, Clone)]
pub struct PlanStep {
    cfds: Vec<usize>,
    strategy: StepStrategy,
    candidates: Vec<(StepStrategy, f64)>,
    est_groups: f64,
    tableau_rows: usize,
}

impl PlanStep {
    /// Indices (into the planned CFD set) this step detects.
    pub fn cfds(&self) -> &[usize] {
        &self.cfds
    }

    /// The strategy the cost model chose.
    pub fn strategy(&self) -> StepStrategy {
        self.strategy
    }

    /// Every candidate the cost model considered, with its estimated cost
    /// (abstract units; lower is better). The chosen strategy is the
    /// minimum.
    pub fn candidates(&self) -> &[(StepStrategy, f64)] {
        &self.candidates
    }

    /// Estimated number of LHS groups (`GROUP BY X` keys) of this step.
    pub fn est_groups(&self) -> f64 {
        self.est_groups
    }

    /// Total pattern-tableau rows across the step's CFDs.
    pub fn tableau_rows(&self) -> usize {
        self.tableau_rows
    }
}

/// An executable detection plan with full provenance — obtain via
/// [`Planner::plan`], inspect via [`DetectionPlan::steps`] or `Display`,
/// run via [`Planner::execute`].
#[derive(Debug, Clone)]
pub struct DetectionPlan {
    steps: Vec<PlanStep>,
    rows: usize,
    parallelism: usize,
}

impl DetectionPlan {
    /// The plan's steps, in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Rows of the snapshot the plan was made for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The parallelism budget the planner assumed.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether any step wants a prebuilt LHS index.
    pub fn needs_indexes(&self) -> bool {
        self.steps
            .iter()
            .any(|s| s.strategy == StepStrategy::IndexDriven)
    }

    /// The strategy chosen for one CFD (by index into the planned set).
    pub fn strategy_for(&self, cfd_index: usize) -> Option<StepStrategy> {
        self.steps
            .iter()
            .find(|s| s.cfds.contains(&cfd_index))
            .map(|s| s.strategy)
    }
}

impl fmt::Display for DetectionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "detection plan: {} rows, parallelism {}",
            self.rows, self.parallelism
        )?;
        for step in &self.steps {
            write!(
                f,
                "  cfds {:?} -> {} (groups~{:.0}, tableau {}; candidates:",
                step.cfds, step.strategy, step.est_groups, step.tableau_rows
            )?;
            for (strategy, cost) in &step.candidates {
                write!(f, " {strategy}={cost:.0}")?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

/// Per-CFD rule-shape features the cost model consumes (derived once per
/// plan call — all O(tableau) to compute).
struct RuleShape {
    arity: usize,
    rhs_arity: usize,
    tableau_rows: usize,
    keyed: bool,
}

impl RuleShape {
    fn of(cfd: &Cfd) -> RuleShape {
        RuleShape {
            arity: cfd.lhs().len(),
            rhs_arity: cfd.rhs().len(),
            tableau_rows: cfd.tableau().len(),
            keyed: !cfd.has_dont_care(),
        }
    }
}

/// The adaptive planner. Construct with [`Planner::new`] (machine
/// parallelism) or [`Planner::with_parallelism`] (tests, capped serving).
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    parallelism: usize,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner budgeting [`available_cores`] worker threads — the same
    /// parallelism source as [`ShardedDetector::default`](crate::ShardedDetector).
    pub fn new() -> Self {
        Planner {
            parallelism: available_cores(),
        }
    }

    /// A planner with an explicit worker budget (≥ 1). Shard counts never
    /// exceed it; `1` disables sharded candidates entirely.
    pub fn with_parallelism(parallelism: usize) -> Self {
        Planner {
            parallelism: parallelism.max(1),
        }
    }

    /// The worker budget.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Plans the detection of `cfds` over `rel`, reading (and lazily
    /// filling) `stats`. `index_reusable` says whether a prebuilt LHS index
    /// would amortize across detections — `true` for a serving `Session`
    /// that caches indexes per snapshot, `false` for one-shot detection
    /// (where building an index costs more than the scan it replaces, so
    /// index-driven steps are never chosen).
    pub fn plan(
        &self,
        cfds: &[Cfd],
        rel: &Relation,
        stats: &mut RelationStats,
        index_reusable: bool,
    ) -> DetectionPlan {
        let rows = rel.len();
        let shapes: Vec<RuleShape> = cfds.iter().map(RuleShape::of).collect();

        // Fuse CFDs with identical LHS attribute lists (preserving set
        // order): they share hash, probe and group table in one scan.
        let mut fused: Vec<Vec<usize>> = Vec::new();
        for (i, cfd) in cfds.iter().enumerate() {
            match fused
                .iter_mut()
                .find(|g| cfds[g[0]].lhs() == cfd.lhs() && g.len() < FUSE_MAX)
            {
                Some(group) => group.push(i),
                None => fused.push(vec![i]),
            }
        }

        let mut steps = Vec::with_capacity(fused.len());
        for group in fused {
            let groups_est = stats.group_stats(rel, cfds[group[0]].lhs()).keys;
            let scan = self.scan_cost(&group, cfds, &shapes, rel, stats, groups_est);

            let mut candidates: Vec<(StepStrategy, f64)> = Vec::new();
            let single = group.len() == 1;
            let direct_like = if single {
                StepStrategy::Direct
            } else {
                StepStrategy::Merged { shards: 1 }
            };
            candidates.push((direct_like, scan));
            if !single {
                // Unfused per-CFD scans, for provenance: what merging saves.
                let per_cfd: f64 = group
                    .iter()
                    .map(|&i| self.scan_cost(&[i], cfds, &shapes, rel, stats, groups_est))
                    .sum();
                candidates.push((StepStrategy::Direct, per_cfd));
            }
            if let Some(shards) = self.shard_count(rows) {
                let arity = shapes[group[0]].arity as f64;
                let cost =
                    PARTITION * rows as f64 * arity + scan / shards as f64 + SPAWN * shards as f64;
                let strategy = if single {
                    StepStrategy::Sharded { shards }
                } else {
                    StepStrategy::Merged { shards }
                };
                candidates.push((strategy, cost));
            }
            if single && index_reusable && shapes[group[0]].keyed {
                let cost = self.index_cost(group[0], cfds, &shapes, rel, stats, groups_est);
                candidates.push((StepStrategy::IndexDriven, cost));
            }

            // `candidates` always holds the Direct entry pushed above, but
            // the planner must not be able to panic: fall back to Direct
            // rather than unwrap.
            let (strategy, _) = candidates
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((StepStrategy::Direct, f64::INFINITY));
            let tableau_rows = group.iter().map(|&i| shapes[i].tableau_rows).sum();
            steps.push(PlanStep {
                cfds: group,
                strategy,
                candidates,
                est_groups: groups_est,
                tableau_rows,
            });
        }

        DetectionPlan {
            steps,
            rows,
            parallelism: self.parallelism,
        }
    }

    /// Executes a plan produced by [`Planner::plan`] over the same CFD set
    /// and snapshot. `indexes` supplies prebuilt per-CFD LHS indexes
    /// (`None` slots for unkeyed CFDs); index-driven steps build their own
    /// when absent. The report is byte-identical to
    /// [`DirectDetector::detect_set`](crate::DirectDetector::detect_set) —
    /// every strategy is one of the
    /// proven-equivalent paths.
    pub fn execute(
        &self,
        plan: &DetectionPlan,
        cfds: &[Cfd],
        rel: &Relation,
        indexes: Option<&[Option<Index>]>,
    ) -> Violations {
        let mut out = Violations::new();
        let mut scratch = ScanScratch::new();
        for step in &plan.steps {
            let refs: Vec<&Cfd> = step.cfds.iter().map(|&i| &cfds[i]).collect();
            match step.strategy {
                StepStrategy::Direct | StepStrategy::Merged { shards: 1 } => {
                    scan_group(&refs, rel, None, &mut scratch, &mut out);
                }
                StepStrategy::Sharded { shards } | StepStrategy::Merged { shards } => {
                    scan_group_sharded(&refs, rel, shards, &mut out);
                }
                StepStrategy::IndexDriven => {
                    let cfd_index = step.cfds[0];
                    let cfd = &cfds[cfd_index];
                    let prebuilt = indexes
                        .and_then(|slots| slots.get(cfd_index))
                        .and_then(Option::as_ref);
                    match prebuilt {
                        Some(index) => out.merge(detect_with_index(cfd, rel, index)),
                        None => {
                            let index = rel.build_index(cfd.lhs());
                            out.merge(detect_with_index(cfd, rel, &index));
                        }
                    }
                }
            }
        }
        out
    }

    /// One-shot adaptive detection: collect stats, plan (without reusable
    /// indexes), execute. This is what [`DetectorKind::Auto`](crate::DetectorKind::Auto)
    /// dispatches to outside a serving session.
    pub fn detect_set(&self, cfds: &[Cfd], rel: &Relation) -> Violations {
        let mut stats = RelationStats::new(rel);
        let plan = self.plan(cfds, rel, &mut stats, false);
        self.execute(&plan, cfds, rel, None)
    }

    /// Shard-count proposal for `rows`, or `None` when sharding cannot pay
    /// (single worker budget, or too few rows per worker).
    fn shard_count(&self, rows: usize) -> Option<usize> {
        if self.parallelism < 2 || rows < 2 * MIN_ROWS_PER_WORKER {
            return None;
        }
        Some(self.parallelism.min(rows / MIN_ROWS_PER_WORKER).max(2))
    }

    /// Estimated cost of one fused block scan over `group`.
    fn scan_cost(
        &self,
        group: &[usize],
        cfds: &[Cfd],
        shapes: &[RuleShape],
        rel: &Relation,
        stats: &mut RelationStats,
        groups_est: f64,
    ) -> f64 {
        let n = stats.rows() as f64;
        let arity = shapes[group[0]].arity as f64;
        let mut cost = n * (arity * HASH + PROBE) + groups_est * GROUP_NEW;
        for &i in group {
            let shape = &shapes[i];
            cost += n * shape.rhs_arity as f64 * YCMP;
            cost += groups_est * shape.tableau_rows as f64 * arity * CELL;
            cost += self.qc_cost(&cfds[i], rel, stats);
        }
        cost
    }

    /// Estimated cost of the constant-prefilter `QC` kernel for one CFD:
    /// per pattern row with RHS constants, one column scan plus the
    /// surviving fraction (from column distinct counts) times the residual
    /// per-row work.
    fn qc_cost(&self, cfd: &Cfd, rel: &Relation, stats: &mut RelationStats) -> f64 {
        let n = stats.rows() as f64;
        let mut cost = 0.0;
        for pattern in cfd.tableau().iter() {
            let rhs_consts = pattern.rhs().iter().filter(|c| c.is_const()).count();
            if rhs_consts == 0 {
                continue; // never QC-violated, skipped by the kernel too
            }
            let lhs_consts: Vec<_> = pattern
                .lhs()
                .iter()
                .zip(cfd.lhs())
                .filter(|(cell, _)| cell.is_const())
                .collect();
            match lhs_consts.split_first() {
                None => cost += n * rhs_consts as f64 * YCMP,
                Some(((_, &attr), rest)) => {
                    let ndv = stats.column_stats(rel, attr).ndv.max(1.0);
                    let survivors = n / ndv;
                    cost +=
                        n * QC_SCAN + survivors * (rest.len() as f64 + rhs_consts as f64) * YCMP;
                }
            }
        }
        cost
    }

    /// Estimated cost of the index-driven scan (index already built): per
    /// visited group, iteration plus tableau matching; per row of *matched*
    /// groups, the `Y` gather plus one RHS check per pattern the group
    /// matches. Two selectivity figures drive it:
    ///
    /// * the **matched fraction** (capped sum of the per-pattern
    ///   LHS-constant selectivities) bounds the rows visited at all — a
    ///   tableau of selective constants touches a fraction of the data no
    ///   full scan can skip;
    /// * the **expected match count** (the same sum, uncapped) prices the
    ///   per-row pattern re-checks — wildcard rows match every group, so a
    ///   wildcard-heavy tableau makes every data row pay `|Tp|` RHS checks
    ///   here where the block scan pays a hash and one probe.
    ///
    /// An all-constant-LHS tableau flips [`detect_with_index`] into its
    /// key-probe mode, visiting at most `|Tp|` groups regardless of the
    /// group count.
    fn index_cost(
        &self,
        cfd_index: usize,
        cfds: &[Cfd],
        shapes: &[RuleShape],
        rel: &Relation,
        stats: &mut RelationStats,
        groups_est: f64,
    ) -> f64 {
        let cfd = &cfds[cfd_index];
        let shape = &shapes[cfd_index];
        let n = stats.rows() as f64;
        let mut matched_fraction: f64 = 0.0;
        let mut expected_matches: f64 = 0.0;
        let mut all_const = true;
        for pattern in cfd.tableau().iter() {
            let mut sel = 1.0;
            for (cell, &attr) in pattern.lhs().iter().zip(cfd.lhs()) {
                if cell.is_const() {
                    sel /= stats.column_stats(rel, attr).ndv.max(1.0);
                } else {
                    all_const = false;
                }
            }
            matched_fraction = (matched_fraction + sel).min(1.0);
            expected_matches += sel;
        }
        let tableau_rows = shape.tableau_rows as f64;
        let groups_visited = if all_const {
            tableau_rows.min(groups_est)
        } else {
            groups_est
        };
        let rows_touched = n * matched_fraction;
        let per_row = INDEX_ROW + shape.rhs_arity as f64 * (YCMP + expected_matches * PATTERN_CMP);
        groups_visited * (INDEX_ITER + tableau_rows * shape.arity as f64 * CELL)
            + rows_touched * per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectDetector;
    use cfd_core::Cfd;
    use cfd_datagen::cust::{cust_instance, fig2_cfd_set, phi2};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::{Relation, Schema, Value};

    /// `rows` rows over (A, B, C) with `distinct_a` distinct A values.
    fn synthetic(rows: usize, distinct_a: usize) -> Relation {
        let schema = Schema::builder("r").text("A").text("B").text("C").build();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_values(vec![
                Value::from(format!("a{}", i % distinct_a)),
                Value::from(format!("b{}", i % 7)),
                Value::from(format!("c{}", i % 3)),
            ])
            .unwrap();
        }
        rel
    }

    fn fd_a_to_b(rel: &Relation) -> Cfd {
        Cfd::fd(rel.schema().clone(), ["A"], ["B"]).unwrap()
    }

    #[test]
    fn tiny_tableau_small_data_plans_direct() {
        let rel = synthetic(500, 50);
        let cfd = fd_a_to_b(&rel);
        for parallelism in [1, 8] {
            let planner = Planner::with_parallelism(parallelism);
            let mut stats = RelationStats::new(&rel);
            let plan = planner.plan(std::slice::from_ref(&cfd), &rel, &mut stats, false);
            assert_eq!(plan.steps().len(), 1);
            assert_eq!(plan.strategy_for(0), Some(StepStrategy::Direct));
        }
    }

    #[test]
    fn many_groups_on_many_cores_plan_sharded() {
        // Every row its own group: per-group work scales with N and the
        // scan parallelizes well.
        let rel = synthetic(40_000, 40_000);
        let cfd = fd_a_to_b(&rel);
        let planner = Planner::with_parallelism(8);
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(std::slice::from_ref(&cfd), &rel, &mut stats, false);
        assert!(
            matches!(plan.strategy_for(0), Some(StepStrategy::Sharded { shards }) if shards >= 2),
            "{plan}"
        );
        // A single-core budget must never shard.
        let single = Planner::with_parallelism(1);
        let mut stats = RelationStats::new(&rel);
        let plan = single.plan(&[cfd], &rel, &mut stats, false);
        assert_eq!(plan.strategy_for(0), Some(StepStrategy::Direct), "{plan}");
    }

    #[test]
    fn same_lhs_large_tableaux_plan_merged() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 4_000,
            noise_percent: 5.0,
            seed: 9,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(3);
        let cfds = vec![
            workload.single(EmbeddedFd::ZipToState, 120, 80.0),
            workload.single(EmbeddedFd::ZipToState, 90, 40.0),
        ];
        let planner = Planner::with_parallelism(1);
        let mut stats = RelationStats::new(&noisy);
        let plan = planner.plan(&cfds, &noisy, &mut stats, false);
        assert_eq!(plan.steps().len(), 1, "{plan}");
        assert_eq!(plan.steps()[0].cfds(), &[0, 1]);
        assert!(
            matches!(plan.steps()[0].strategy(), StepStrategy::Merged { .. }),
            "{plan}"
        );
        // Provenance records what fusing saved over per-CFD scans.
        let step = &plan.steps()[0];
        let merged_cost = step
            .candidates()
            .iter()
            .find(|(s, _)| matches!(s, StepStrategy::Merged { shards: 1 }))
            .unwrap()
            .1;
        let per_cfd_cost = step
            .candidates()
            .iter()
            .find(|(s, _)| *s == StepStrategy::Direct)
            .unwrap()
            .1;
        assert!(merged_cost < per_cfd_cost);
    }

    #[test]
    fn few_groups_with_reusable_indexes_plan_index_driven() {
        // 8k rows, 80 groups: group-driven iteration skips per-row hashing.
        let rel = synthetic(8_000, 80);
        let cfd = fd_a_to_b(&rel);
        let planner = Planner::with_parallelism(1);
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(std::slice::from_ref(&cfd), &rel, &mut stats, true);
        assert_eq!(
            plan.strategy_for(0),
            Some(StepStrategy::IndexDriven),
            "{plan}"
        );
        assert!(plan.needs_indexes());
        // One-shot (no reusable index): the same profile scans directly.
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(std::slice::from_ref(&cfd), &rel, &mut stats, false);
        assert_eq!(plan.strategy_for(0), Some(StepStrategy::Direct), "{plan}");
        // All-distinct keys: index iteration overhead loses to the scan
        // even with a reusable index — the stats flip the choice.
        let unique = synthetic(8_000, 8_000);
        let cfd = fd_a_to_b(&unique);
        let mut stats = RelationStats::new(&unique);
        let plan = planner.plan(&[cfd], &unique, &mut stats, true);
        assert_eq!(plan.strategy_for(0), Some(StepStrategy::Direct), "{plan}");
    }

    #[test]
    fn dont_care_cfds_never_plan_index_driven() {
        let schema = Schema::builder("r").text("A").text("B").text("C").build();
        let cfd = Cfd::builder(schema.clone(), ["A", "B"], ["C"])
            .pattern(["_", "@"], ["_"])
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..64 {
            rel.push_values(vec![
                Value::from(format!("a{}", i % 4)),
                Value::from("b"),
                Value::from(format!("c{i}")),
            ])
            .unwrap();
        }
        let planner = Planner::with_parallelism(1);
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(&[cfd], &rel, &mut stats, true);
        assert_eq!(plan.strategy_for(0), Some(StepStrategy::Direct), "{plan}");
    }

    #[test]
    fn plans_are_deterministic() {
        let rel = cust_instance();
        let cfds: Vec<Cfd> = fig2_cfd_set().into_iter().collect();
        let planner = Planner::with_parallelism(4);
        let mut stats_a = RelationStats::new(&rel);
        let mut stats_b = RelationStats::new(&rel);
        let a = planner.plan(&cfds, &rel, &mut stats_a, true);
        let b = planner.plan(&cfds, &rel, &mut stats_b, true);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn execute_matches_direct_for_every_strategy() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 20_000,
            noise_percent: 6.0,
            seed: 31,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(7);
        let cfds = vec![
            workload.single(EmbeddedFd::ZipToState, 60, 70.0),
            workload.single(EmbeddedFd::ZipToState, 30, 30.0),
            workload.single(EmbeddedFd::AreaToCity, 40, 50.0),
            workload.single(EmbeddedFd::StateMaritalToExemption, 20, 0.0),
        ];
        let reference = DirectDetector::new().detect_set(&cfds, &noisy);
        assert!(!reference.is_clean());
        for parallelism in [1, 4] {
            for index_reusable in [false, true] {
                let planner = Planner::with_parallelism(parallelism);
                let mut stats = RelationStats::new(&noisy);
                let plan = planner.plan(&cfds, &noisy, &mut stats, index_reusable);
                let got = planner.execute(&plan, &cfds, &noisy, None);
                assert_eq!(
                    got, reference,
                    "parallelism={parallelism} reusable={index_reusable}\n{plan}"
                );
                assert_eq!(got.canonical_bytes(), reference.canonical_bytes());
            }
        }
    }

    #[test]
    fn one_shot_detect_set_matches_direct() {
        let rel = cust_instance();
        let cfds: Vec<Cfd> = fig2_cfd_set().into_iter().collect();
        let auto = Planner::new().detect_set(&cfds, &rel);
        let direct = DirectDetector::new().detect_set(&cfds, &rel);
        assert_eq!(auto, direct);
        // And single-CFD.
        let auto = Planner::new().detect_set(std::slice::from_ref(&phi2()), &rel);
        assert_eq!(auto, DirectDetector::new().detect(&phi2(), &rel));
    }

    #[test]
    fn display_renders_choice_and_candidates() {
        let rel = synthetic(1_000, 10);
        let cfd = fd_a_to_b(&rel);
        let planner = Planner::with_parallelism(2);
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(&[cfd], &rel, &mut stats, true);
        let text = plan.to_string();
        assert!(text.contains("detection plan: 1000 rows"), "{text}");
        assert!(text.contains("candidates:"), "{text}");
        assert!(text.contains("index") || text.contains("direct"), "{text}");
    }

    #[test]
    fn empty_rule_sets_plan_nothing() {
        let rel = cust_instance();
        let planner = Planner::new();
        let mut stats = RelationStats::new(&rel);
        let plan = planner.plan(&[], &rel, &mut stats, false);
        assert!(plan.steps().is_empty());
        assert!(!plan.needs_indexes());
        assert!(planner.execute(&plan, &[], &rel, None).is_clean());
    }
}
