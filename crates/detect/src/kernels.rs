//! Vectorized columnar scan kernels: the one block-at-a-time `QC`+`QV`
//! scan of the workspace, underneath [`DirectDetector`](crate::DirectDetector),
//! the sharded workers, the adaptive planner and — one page chunk at a
//! time — `cfd_store::ColumnStore::detect`.
//!
//! The kernel consumes **blocks of column slices**, not a relation: a
//! [`GroupScan`] is fed any number of blocks (an in-memory relation is one
//! block over its whole columns, a disk store one block per 1024-slot page
//! chunk) and never dereferences a block after [`GroupScan::scan_block`]
//! returns. Inside a block the scan works on [`BLOCK`]-sized runs:
//!
//! * **Block key hashing** — the LHS key hash of a whole run is computed
//!   column-major into a reused scratch buffer: one pass per key column
//!   over contiguous `u32`s, not one gather per row.
//! * **Arena groups** — a group's key cells and its first row's `Y` cells
//!   are copied once into the scratch's flat cell arena. The group table
//!   maps `hash → arena chain`; a probe verifies candidates by comparing
//!   the probe row's LHS cells against the arena, and the distinct-`Y`
//!   check compares its `Y` cells against the group's first. No key vector
//!   is allocated per group, and a group whose first row lies in an
//!   earlier block needs nothing from that block.
//! * **Constant-prefilter `QC`** — pattern rows whose RHS holds no constant
//!   can never produce a single-tuple violation and are skipped outright;
//!   for the rest, the run's candidate rows are narrowed by scanning the
//!   LHS **constant** columns first (a selection vector per run), so the
//!   full per-row pattern evaluation runs only on rows that already match
//!   every LHS constant. Hits are handed back as positions into the block
//!   for the caller to materialize from whatever backs it.
//! * **Fused same-LHS tableaux** — a scan takes *several* CFDs sharing one
//!   LHS attribute list and detects them in a single pass: the hash, the
//!   group probe and the group table are paid once, per-CFD verdicts live
//!   in bitmasks ([`FUSE_MAX`] CFDs per scan). This is the planner's
//!   "merged tableaux" execution mode — unlike the SQL merged plan of
//!   Section 4.2 it keeps every CFD's own `QV` key space, so its report
//!   stays byte-identical to the per-CFD paths.
//!
//! All scratch state lives in [`ScanScratch`], which callers reuse across
//! CFDs, blocks and detect calls; cleared containers keep their capacity, so
//! a steady-state scan performs **zero allocations per row and per group**
//! (pinned by the `scratch_reuse_allocates_nothing_in_steady_state` test).
//!
//! [`Violations`] stores ordered sets, so only membership matters: the
//! report does not depend on how the rows were cut into blocks (pinned by
//! the `block_boundaries_never_change_the_report` property test) and equals
//! the semantic oracle [`Cfd::violations`] on every tableau without the
//! don't-care symbol.

use crate::report::Violations;
use cfd_core::{Cfd, PatternTuple};
use cfd_relation::{AttrId, Relation, ValueId};
use std::collections::HashMap;

/// Rows per scan run: small enough that the per-run scratch (hashes, row
/// ids, selection vectors) stays in L1/L2, large enough to amortize the
/// per-run setup.
pub const BLOCK: usize = 2048;

/// Maximum CFDs one fused [`GroupScan`] accepts (per-CFD verdicts are `u64`
/// bitmasks).
pub const FUSE_MAX: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Arena chain terminator.
const NONE: u32 = u32::MAX;

/// One LHS group of the fused scan, chained per hash bucket, with per-CFD
/// verdict bits. Entry `i` owns cells `i·stride..(i+1)·stride` of
/// [`ScanScratch::cells`]: the key, then each CFD's `Y` projection of the
/// group's first row (the `QV` representative).
#[derive(Debug, Clone, Copy)]
struct GroupEntry {
    /// Next arena index in this hash bucket's chain ([`NONE`] = end).
    next: u32,
    /// Bit `i` set ⇔ some pattern of CFD `i` matches this LHS key.
    matched: u64,
    /// Bit `i` set ⇔ CFD `i` has seen ≥ 2 distinct `Y` projections here.
    many: u64,
}

/// Reusable scratch state of the vectorized kernels. Construct once, lend
/// to every [`GroupScan`]: cleared maps and vectors keep their capacity, so
/// repeated scans over similar data allocate nothing.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Per-run FNV-1a hashes of the LHS key, filled column-major.
    hashes: Vec<u64>,
    /// Per-run positions into the block's columns (identity for full scans,
    /// gathered for row subsets).
    rows: Vec<u32>,
    /// `QC` selection vector: run-local positions surviving the constant
    /// prefilter.
    sel: Vec<u32>,
    /// Run-local `QC` hit flags (one report entry per violating row, even
    /// when several patterns or CFDs flag it).
    qc_hit: Vec<bool>,
    /// Group table: key hash → head of the arena chain.
    map: HashMap<u64, u32>,
    /// Group arena, append-only during one scan.
    arena: Vec<GroupEntry>,
    /// The groups' key and first-`Y` cells, `stride` per arena entry.
    cells: Vec<ValueId>,
}

impl ScanScratch {
    /// Fresh scratch (allocates lazily on first use).
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// Number of distinct LHS groups the last scan saw (diagnostic).
    pub fn groups_seen(&self) -> usize {
        self.arena.len()
    }
}

/// Extends a running FNV-1a×4-fold hash with one interned cell. One xor +
/// one multiply per key column per row; collisions are resolved exactly by
/// the arena key comparison, so mixing quality only affects bucket balance.
#[inline]
fn mix(h: u64, id: ValueId) -> u64 {
    (h ^ u64::from(id.raw())).wrapping_mul(FNV_PRIME)
}

/// Whether the block row at `row` carries exactly `cells` in `cols`.
#[inline]
fn cells_eq(cells: &[ValueId], cols: &[&[ValueId]], row: usize) -> bool {
    cells.iter().zip(cols).all(|(&cell, col)| col[row] == cell)
}

/// Whether some pattern of `cfd` LHS-matches the block row at `row` (read
/// directly from the LHS column slices — no projection).
#[inline]
fn lhs_matches_at(cfd: &Cfd, xcols: &[&[ValueId]], row: usize) -> bool {
    cfd.tableau().iter().any(|p| {
        p.lhs()
            .iter()
            .zip(xcols)
            .all(|(cell, col)| cell.matches_id(col[row]))
    })
}

/// One pattern row's compiled `QC` shape: the LHS constants to prefilter on
/// and the RHS constants whose contradiction *is* the violation. Patterns
/// without RHS constants produce no entry — they cannot be `QC`-violated.
struct QcPattern {
    /// `(column position within the CFD's LHS, required id)`.
    lhs_consts: Vec<(usize, ValueId)>,
    /// `(column position within the CFD's RHS, required id)`.
    rhs_consts: Vec<(usize, ValueId)>,
}

impl QcPattern {
    fn compile(pattern: &PatternTuple) -> Option<QcPattern> {
        let rhs_consts: Vec<(usize, ValueId)> = pattern
            .rhs()
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| cell.const_id().map(|id| (i, id)))
            .collect();
        if rhs_consts.is_empty() {
            // Wildcard/don't-care RHS matches everything: never a violation.
            return None;
        }
        let lhs_consts = pattern
            .lhs()
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| cell.const_id().map(|id| (i, id)))
            .collect();
        Some(QcPattern {
            lhs_consts,
            rhs_consts,
        })
    }
}

/// One fused `QC`+`QV` scan in progress over CFDs sharing one LHS attribute
/// list (at most [`FUSE_MAX`] of them): feed it the instance as blocks of
/// column slices with [`GroupScan::scan_block`], then collect the
/// multi-tuple keys with [`GroupScan::finish`].
///
/// A block is a list of equally long column slices in [`GroupScan::attrs`]
/// order — the shared LHS attributes, then each CFD's RHS attributes in
/// turn. Groups persist across blocks in the borrowed [`ScanScratch`], so
/// the blocks together must cover every row exactly once and may cut the
/// instance anywhere.
pub struct GroupScan<'a> {
    cfds: &'a [&'a Cfd],
    qc: Vec<Vec<QcPattern>>,
    /// Start of each CFD's `Y` cells within a block's column list and
    /// within a group's arena cells (the key occupies `0..key_arity`).
    y_starts: Vec<usize>,
    key_arity: usize,
    stride: usize,
    scratch: &'a mut ScanScratch,
}

impl<'a> GroupScan<'a> {
    /// Starts a scan of `cfds`, clearing the group table of `scratch`.
    ///
    /// # Panics
    ///
    /// When more than [`FUSE_MAX`] CFDs are fused.
    pub fn new(cfds: &'a [&'a Cfd], scratch: &'a mut ScanScratch) -> Self {
        assert!(
            cfds.len() <= FUSE_MAX,
            "a fused scan takes at most {FUSE_MAX} CFDs"
        );
        let key_arity = cfds.first().map_or(0, |c| c.lhs().len());
        debug_assert!(
            cfds.windows(2).all(|w| w[0].lhs() == w[1].lhs()),
            "fused CFDs must share one LHS attribute list"
        );
        let mut stride = key_arity;
        let y_starts = cfds
            .iter()
            .map(|c| {
                let start = stride;
                stride += c.rhs().len();
                start
            })
            .collect();
        scratch.map.clear();
        scratch.arena.clear();
        scratch.cells.clear();
        GroupScan {
            cfds,
            qc: cfds
                .iter()
                .map(|c| c.tableau().iter().filter_map(QcPattern::compile).collect())
                .collect(),
            y_starts,
            key_arity,
            stride,
            scratch,
        }
    }

    /// The attributes whose column slices make up a block, in block order.
    pub fn attrs(&self) -> Vec<AttrId> {
        let lhs = self.cfds.first().map_or(&[][..], |c| c.lhs());
        lhs.iter()
            .chain(self.cfds.iter().flat_map(|c| c.rhs()))
            .copied()
            .collect()
    }

    /// Scans one block: `cols` in [`GroupScan::attrs`] order, restricted to
    /// the positions `rows` when given (the sharded workers' partitions).
    /// Positions of `QC`-violating rows are appended to `qc_hits` for the
    /// caller to materialize; nothing of the block is referenced afterwards.
    pub fn scan_block(
        &mut self,
        cols: &[&[ValueId]],
        rows: Option<&[u32]>,
        qc_hits: &mut Vec<u32>,
    ) {
        debug_assert_eq!(cols.len(), self.stride, "block columns follow attrs()");
        let (stride, key_arity) = (self.stride, self.key_arity);
        let xcols = &cols[..key_arity];
        let scratch = &mut *self.scratch;
        let total = rows.map_or(cols.first().map_or(0, |c| c.len()), <[u32]>::len);
        let mut start = 0;
        while start < total {
            let end = (start + BLOCK).min(total);
            let n = end - start;

            // Run positions: identity for full scans, the subset otherwise.
            scratch.rows.clear();
            match rows {
                Some(subset) => scratch.rows.extend_from_slice(&subset[start..end]),
                None => scratch.rows.extend(start as u32..end as u32),
            }

            // Column-major run hash of the LHS key.
            scratch.hashes.clear();
            scratch.hashes.resize(n, FNV_OFFSET);
            for col in xcols {
                for (h, &row) in scratch.hashes.iter_mut().zip(&scratch.rows) {
                    *h = mix(*h, col[row as usize]);
                }
            }

            // QV grouping: probe/insert each row's group, trip per-CFD
            // `many` bits on a second distinct Y projection.
            for j in 0..n {
                let row = scratch.rows[j] as usize;
                let h = scratch.hashes[j];
                let mut found = NONE;
                let mut slot = scratch.map.get(&h).copied().unwrap_or(NONE);
                while slot != NONE {
                    let key = &scratch.cells[slot as usize * stride..][..key_arity];
                    if cells_eq(key, xcols, row) {
                        found = slot;
                        break;
                    }
                    slot = scratch.arena[slot as usize].next;
                }
                if found == NONE {
                    let mut matched = 0u64;
                    for (i, cfd) in self.cfds.iter().enumerate() {
                        if lhs_matches_at(cfd, xcols, row) {
                            matched |= 1 << i;
                        }
                    }
                    let idx = scratch.arena.len() as u32;
                    let head = scratch.map.entry(h).or_insert(NONE);
                    scratch.arena.push(GroupEntry {
                        next: *head,
                        matched,
                        many: 0,
                    });
                    scratch.cells.extend(cols.iter().map(|col| col[row]));
                    *head = idx;
                } else {
                    let entry = &mut scratch.arena[found as usize];
                    let cells = &scratch.cells[found as usize * stride..][..stride];
                    let mut pending = entry.matched & !entry.many;
                    while pending != 0 {
                        let i = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        let y = self.y_starts[i];
                        if !cells_eq(&cells[y..][..self.cfds[i].rhs().len()], &cols[y..], row) {
                            entry.many |= 1 << i;
                        }
                    }
                }
            }

            // QC: per compiled pattern, narrow the run by the LHS constant
            // columns, then test the RHS constants on the survivors.
            scratch.qc_hit.clear();
            scratch.qc_hit.resize(n, false);
            for (patterns, &y) in self.qc.iter().zip(&self.y_starts) {
                let ycols = &cols[y..];
                for pattern in patterns {
                    scratch.sel.clear();
                    match pattern.lhs_consts.split_first() {
                        None => scratch.sel.extend(0..n as u32),
                        Some((&(c0, id0), rest)) => {
                            let col = xcols[c0];
                            scratch
                                .sel
                                .extend(scratch.rows.iter().enumerate().filter_map(|(j, &row)| {
                                    (col[row as usize] == id0).then_some(j as u32)
                                }));
                            for &(c, id) in rest {
                                let col = xcols[c];
                                let run_rows = &scratch.rows;
                                scratch
                                    .sel
                                    .retain(|&j| col[run_rows[j as usize] as usize] == id);
                            }
                        }
                    }
                    for &j in &scratch.sel {
                        let row = scratch.rows[j as usize] as usize;
                        if pattern
                            .rhs_consts
                            .iter()
                            .any(|&(c, id)| ycols[c][row] != id)
                        {
                            scratch.qc_hit[j as usize] = true;
                        }
                    }
                }
            }
            qc_hits.extend(
                scratch
                    .qc_hit
                    .iter()
                    .zip(&scratch.rows)
                    .filter_map(|(&hit, &row)| hit.then_some(row)),
            );

            start = end;
        }
    }

    /// Ends the scan, adding the multi-tuple keys to `out`: every fused CFD
    /// shares the LHS, so a group tripped by any CFD contributes the same
    /// key exactly once.
    pub fn finish(self, out: &mut Violations) {
        let keys = self.scratch.cells.chunks_exact(self.stride.max(1));
        for (entry, cells) in self.scratch.arena.iter().zip(keys) {
            if entry.many != 0 {
                out.add_multi_tuple_key(
                    cells[..self.key_arity]
                        .iter()
                        .map(|id| id.resolve().clone())
                        .collect(),
                );
            }
        }
    }
}

/// Detects `cfds` (all sharing one LHS attribute list, at most [`FUSE_MAX`]
/// of them) over the in-memory `rel` as one block of its column slices,
/// adding findings to `out`. `rows` restricts the scan to a row subset (the
/// sharded workers' partitions); `None` scans everything.
///
/// The report contribution is byte-identical to running
/// [`DirectDetector::detect`](crate::DirectDetector::detect) per CFD and
/// merging — the differential harness pins this for every workload.
pub fn scan_group(
    cfds: &[&Cfd],
    rel: &Relation,
    rows: Option<&[u32]>,
    scratch: &mut ScanScratch,
    out: &mut Violations,
) {
    if cfds.is_empty() {
        return;
    }
    let mut scan = GroupScan::new(cfds, scratch);
    let cols = rel.columns_for(&scan.attrs());
    let mut qc_hits = Vec::new();
    scan.scan_block(&cols, rows, &mut qc_hits);
    for row in qc_hits {
        // wslint: allow(panic_path, "hits are positions of this relation's own columns")
        out.add_constant_violation(rel.row(row as usize).expect("row in range").to_values());
    }
    scan.finish(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectDetector;
    use cfd_core::{PatternTableau, PatternValue, ViolationKind};
    use cfd_datagen::cust::{cust_instance, phi1, phi2, phi3_with_fd, phi5};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::rng::StdRng;
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::{Schema, Tuple, Value};

    fn scan_one(cfd: &Cfd, rel: &Relation) -> Violations {
        let mut scratch = ScanScratch::new();
        let mut out = Violations::new();
        scan_group(&[cfd], rel, None, &mut scratch, &mut out);
        out
    }

    /// The report of the semantic oracle [`Cfd::violations`] (tableaux
    /// without `@`, whose `QV` groups are keyed by the full LHS).
    fn oracle(cfd: &Cfd, rel: &Relation) -> Violations {
        let mut out = Violations::new();
        for witness in cfd.violations(rel) {
            let row = rel.row(witness.rows[0]).unwrap();
            match witness.kind {
                ViolationKind::SingleTuple => out.add_constant_violation(row.to_values()),
                ViolationKind::MultiTuple => out.add_multi_tuple_key(row.project(cfd.lhs())),
            }
        }
        out
    }

    /// Scans `rel` cut into blocks of the sizes `next_len` yields. Every
    /// block is an owned copy dropped right after its scan: a group whose
    /// first row lies in an earlier block has only the arena to go by.
    fn scan_in_blocks(
        cfds: &[&Cfd],
        rel: &Relation,
        scratch: &mut ScanScratch,
        mut next_len: impl FnMut() -> usize,
    ) -> Violations {
        let mut out = Violations::new();
        let mut scan = GroupScan::new(cfds, scratch);
        let cols = rel.columns_for(&scan.attrs());
        let mut start = 0;
        while start < rel.len() {
            let end = (start + next_len().max(1)).min(rel.len());
            let block: Vec<Vec<ValueId>> = cols.iter().map(|c| c[start..end].to_vec()).collect();
            let slices: Vec<&[ValueId]> = block.iter().map(Vec::as_slice).collect();
            let mut hits = Vec::new();
            scan.scan_block(&slices, None, &mut hits);
            for hit in hits {
                out.add_constant_violation(rel.row(start + hit as usize).unwrap().to_values());
            }
            start = end;
        }
        scan.finish(&mut out);
        out
    }

    #[test]
    fn matches_the_oracle_on_the_running_example() {
        let rel = cust_instance();
        for cfd in [phi1(), phi2(), phi3_with_fd(), phi5()] {
            let vectorized = scan_one(&cfd, &rel);
            let want = oracle(&cfd, &rel);
            assert_eq!(vectorized, want, "{:?}", cfd.name());
            assert_eq!(vectorized.canonical_bytes(), want.canonical_bytes());
        }
    }

    #[test]
    fn matches_the_oracle_on_a_noisy_workload() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 3_000,
            noise_percent: 7.0,
            seed: 77,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(5);
        for (fd, tab, consts) in [
            (EmbeddedFd::ZipToState, 60, 80.0),
            (EmbeddedFd::AreaToCity, 90, 50.0),
            (EmbeddedFd::StateMaritalToExemption, 40, 0.0),
        ] {
            let cfd = workload.single(fd, tab, consts);
            let vectorized = scan_one(&cfd, &noisy);
            let want = oracle(&cfd, &noisy);
            assert!(!vectorized.is_clean() || want.is_clean());
            assert_eq!(vectorized, want, "{fd:?}");
        }
    }

    #[test]
    fn row_subsets_cover_exactly_the_given_rows() {
        // A subset scan must agree with a gathered sub-relation scan.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 900,
            noise_percent: 10.0,
            seed: 3,
        })
        .generate()
        .relation;
        let cfd = CfdWorkload::new(1).single(EmbeddedFd::ZipToState, 30, 60.0);
        let subset: Vec<u32> = (0..900).filter(|i| i % 3 != 1).collect();
        let mut out = Violations::new();
        scan_group(
            &[&cfd],
            &noisy,
            Some(&subset),
            &mut ScanScratch::new(),
            &mut out,
        );
        let gathered = noisy.gather_rows(&subset.iter().map(|&i| i as usize).collect::<Vec<_>>());
        let expect = DirectDetector::new().detect(&cfd, &gathered);
        assert_eq!(out, expect);
    }

    #[test]
    fn fused_scan_equals_per_cfd_merge() {
        // Two CFDs over the same LHS with different tableaux/RHS.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 2_500,
            noise_percent: 9.0,
            seed: 12,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(8);
        let a = workload.single(EmbeddedFd::ZipToState, 50, 70.0);
        let b = workload.single(EmbeddedFd::ZipToState, 25, 20.0);
        assert_eq!(a.lhs(), b.lhs());
        let mut fused = Violations::new();
        scan_group(&[&a, &b], &noisy, None, &mut ScanScratch::new(), &mut fused);
        let per_cfd = DirectDetector::new().detect_set(&[a, b], &noisy);
        assert_eq!(fused, per_cfd);
        assert_eq!(fused.canonical_bytes(), per_cfd.canonical_bytes());
    }

    /// A random tableau over `lhs_arity`/`rhs_arity` cells: wildcards,
    /// constants from the data alphabet and (when asked) don't-cares.
    fn random_tableau(
        rng: &mut StdRng,
        lhs_arity: usize,
        rhs_arity: usize,
        dont_care: bool,
    ) -> PatternTableau {
        let cell = |rng: &mut StdRng| match rng.gen_range(0usize..10) {
            0..=4 => PatternValue::Wildcard,
            5 if dont_care => PatternValue::DontCare,
            _ => PatternValue::constant(["a", "b", "c"][rng.gen_range(0usize..3)]),
        };
        let mut tableau = PatternTableau::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let lhs = (0..lhs_arity).map(|_| cell(rng)).collect();
            let rhs = (0..rhs_arity).map(|_| cell(rng)).collect();
            tableau.push(PatternTuple::new(lhs, rhs));
        }
        tableau
    }

    #[test]
    fn block_boundaries_never_change_the_report() {
        // Random collision-heavy relations (NULLs included) under random
        // fused same-LHS sets, don't-care tableaux among them: one block,
        // random block sizes and one-row blocks must all report the same
        // bytes from one reused scratch.
        let schema = Schema::builder("r")
            .text("A")
            .text("B")
            .text("C")
            .text("D")
            .build();
        let shapes: [(&[&str], &[&[&str]]); 3] = [
            (&["A"], &[&["B"], &["C", "D"], &["B"]]),
            (&["A", "B"], &[&["C"], &["C", "D"]]),
            (&["B", "A", "C"], &[&["D"]]),
        ];
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let mut scratch = ScanScratch::new();
        let (mut dirty, mut late_groups) = (0usize, 0usize);
        for case in 0..120 {
            let mut rel = Relation::new(schema.clone());
            for _ in 0..rng.gen_range(0usize..160) {
                let cell = |rng: &mut StdRng| match rng.gen_range(0usize..4) {
                    0 => Value::Null,
                    i => Value::from(["a", "b", "c"][i - 1]),
                };
                rel.push(Tuple::new((0..4).map(|_| cell(&mut rng)).collect()))
                    .unwrap();
            }
            let (lhs, rhss) = shapes[case % shapes.len()];
            let dont_care = case % 4 == 3;
            let cfds: Vec<Cfd> = rhss[..rng.gen_range(1usize..rhss.len() + 1)]
                .iter()
                .map(|rhs| {
                    let tableau = random_tableau(&mut rng, lhs.len(), rhs.len(), dont_care);
                    Cfd::from_parts(
                        schema.clone(),
                        schema.resolve_all(lhs.iter().copied()).unwrap(),
                        schema.resolve_all(rhs.iter().copied()).unwrap(),
                        tableau,
                    )
                    .unwrap()
                })
                .collect();
            let refs: Vec<&Cfd> = cfds.iter().collect();

            let mut whole = Violations::new();
            scan_group(&refs, &rel, None, &mut scratch, &mut whole);
            let max = rng.gen_range(1usize..40);
            let random = scan_in_blocks(&refs, &rel, &mut scratch, || rng.gen_range(1..max + 1));
            let single_rows = scan_in_blocks(&refs, &rel, &mut scratch, || 1);
            assert_eq!(
                whole.canonical_bytes(),
                random.canonical_bytes(),
                "case {case}: blocks of up to {max} rows"
            );
            assert_eq!(
                whole.canonical_bytes(),
                single_rows.canonical_bytes(),
                "case {case}: one-row blocks"
            );
            if !cfds.iter().any(Cfd::has_dont_care) {
                let mut want = Violations::new();
                for cfd in &cfds {
                    want.merge(oracle(cfd, &rel));
                }
                assert_eq!(
                    whole.canonical_bytes(),
                    want.canonical_bytes(),
                    "case {case}"
                );
            }
            dirty += usize::from(!whole.multi_tuple_keys().is_empty());
            late_groups += usize::from(scratch.groups_seen() < rel.len());
        }
        assert!(
            dirty > 20,
            "the sweep must trip real QV groups, got {dirty}"
        );
        assert!(
            late_groups > 60,
            "most cases must revisit a group from an earlier one-row block"
        );
    }

    #[test]
    fn empty_inputs_are_clean() {
        let rel = cust_instance();
        let mut out = Violations::new();
        scan_group(&[], &rel, None, &mut ScanScratch::new(), &mut out);
        assert!(out.is_clean());
        let empty = Relation::new(rel.schema().clone());
        let cfd = phi2();
        let mut out = Violations::new();
        scan_group(&[&cfd], &empty, None, &mut ScanScratch::new(), &mut out);
        assert!(out.is_clean());
    }

    #[test]
    fn scratch_reuse_allocates_nothing_in_steady_state() {
        // The group table lives in the scratch's arenas: after a warm-up
        // scan over the same data shape, a rescan reuses every container —
        // capacities (and the arena's address) must not change.
        let noisy = TaxGenerator::new(TaxConfig {
            size: 5_000,
            noise_percent: 6.0,
            seed: 42,
        })
        .generate()
        .relation;
        let cfd = CfdWorkload::new(2).single(EmbeddedFd::ZipToState, 40, 50.0);
        let mut scratch = ScanScratch::new();
        let mut out = Violations::new();
        scan_group(&[&cfd], &noisy, None, &mut scratch, &mut out);
        let groups = scratch.groups_seen();
        assert!(groups > 0);
        let arena_cap = scratch.arena.capacity();
        let arena_ptr = scratch.arena.as_ptr();
        let cells_ptr = scratch.cells.as_ptr();
        let map_cap = scratch.map.capacity();
        let hashes_cap = scratch.hashes.capacity();
        let sel_cap = scratch.sel.capacity();
        let mut out2 = Violations::new();
        scan_group(&[&cfd], &noisy, None, &mut scratch, &mut out2);
        assert_eq!(out, out2);
        assert_eq!(scratch.groups_seen(), groups);
        assert_eq!(scratch.arena.capacity(), arena_cap);
        assert_eq!(scratch.arena.as_ptr(), arena_ptr, "arena must not move");
        assert_eq!(scratch.cells.as_ptr(), cells_ptr, "cells must not move");
        assert_eq!(scratch.map.capacity(), map_cap);
        assert_eq!(scratch.hashes.capacity(), hashes_cap);
        assert_eq!(scratch.sel.capacity(), sel_cap);
        // And the per-run buffers never exceed one run.
        assert!(scratch.hashes.capacity() <= BLOCK.next_power_of_two());
    }

    #[test]
    fn fuse_width_is_enforced() {
        let result = std::panic::catch_unwind(|| {
            let rel = cust_instance();
            let cfd = phi2();
            let refs: Vec<&Cfd> = std::iter::repeat_n(&cfd, FUSE_MAX + 1).collect();
            let mut out = Violations::new();
            scan_group(&refs, &rel, None, &mut ScanScratch::new(), &mut out);
        });
        assert!(result.is_err());
    }
}
