//! [`ColumnStore`]: the disk-backed columnar instance.
//!
//! # Layout of a store directory
//!
//! | file        | contents |
//! |-------------|----------|
//! | `pages.dat` | fixed-size pages of `u32` store-id cells ([`Pager`]) |
//! | `dict.dat`  | append-only value dictionary ([`Dict`](crate::dict::Dict)) |
//! | `wal.log`   | commit records since the last checkpoint ([`Wal`](crate::wal::Wal)) |
//! | `meta.dat`  | one CRC-framed checkpoint record (schema, slot counts, tombstones) |
//!
//! Columns live in **chunk runs**: the cells of attribute `a` for slots
//! `[c·1024, (c+1)·1024)` occupy page `c · arity + a`, so any column chunk
//! is one computed page and columns grow in lockstep without a directory.
//!
//! # Commit protocol (WAL-before-apply)
//!
//! [`ColumnStore::apply_batch`] and [`ColumnStore::set_cells`]:
//!
//! 1. validate every op up front — a rejected batch mutates **nothing** —
//!    and resolve every delete to the slot it retires, which is what the
//!    log records;
//! 2. register all new values in the dictionary, write them with one
//!    `write` and fsync it (skipped when the batch brings no new value);
//! 3. append one commit record to the WAL and fsync it — *the commit
//!    point*, one WAL fsync per (group-committed) batch;
//! 4. apply the ops to pages through the buffer pool (no fsync — eviction
//!    writebacks and the next checkpoint carry them to disk).
//!
//! A crash after step 3 loses nothing: open replays the WAL, rewriting
//! every cell the batch touched and tombstoning the logged slots — replay
//! never searches pages, which may already hold later edits written back
//! before the crash. A crash before step 3 loses exactly the
//! batches that never reported success (a torn tail record is truncated).
//! Page writes from step 4 that reached disk for an *uncommitted* batch are
//! harmless — its slots lie at or past the durable slot watermark and the
//! replayed tail rewrites everything below it.
//!
//! # Checkpoints
//!
//! When the WAL exceeds [`StoreOptions::wal_checkpoint_bytes`] (and on
//! drop), the store checkpoints: dictionary fsync → dirty-page flush →
//! data-file fsync → atomic `meta.dat` replace (tmp + rename + directory
//! fsync) → WAL truncate. Recovery always ends with a checkpoint, so a
//! reopened store starts with an empty log.

use crate::dict::Dict;
use crate::encode::{frame, put_str, put_u32, put_u64, put_value, scan_frames, take_value, Reader};
use crate::error::{Result, StoreError};
use crate::pager::{Pager, PAGE_CELLS};
use crate::pool::{BufferPool, PoolStats};
use crate::wal::{StoreOp, Wal};
use cfd_core::Cfd;
use cfd_detect::kernels::{GroupScan, ScanScratch};
use cfd_detect::{BatchOp, Violations};
use cfd_relation::{AttrType, Domain, Relation, RelationError, Schema, Tuple, Value, ValueId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const META_MAGIC: u32 = 0x4346_4453; // "CFDS"
const META_VERSION: u32 = 1;

/// Tuning knobs of a [`ColumnStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Buffer-pool capacity in pages (clamped to at least 2). The store's
    /// page memory never exceeds this — out-of-core scans hold
    /// `peak_resident <= pool_pages`.
    pub pool_pages: usize,
    /// WAL size that triggers a checkpoint after a commit.
    pub wal_checkpoint_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            pool_pages: 256,
            wal_checkpoint_bytes: 4 << 20,
        }
    }
}

/// A durable, bounded-memory columnar store for one relation.
///
/// # Durability contract
///
/// * [`ColumnStore::apply_batch`] and [`ColumnStore::set_cells`] return
///   only after their commit record is fsynced to the WAL: a batch that
///   reported success is replayed verbatim by any later
///   [`ColumnStore::open_or_create`], whatever the process did afterwards (crash,
///   `abort()`, power cut between fsyncs).
/// * Both are **failure-atomic**: a batch rejected by validation leaves
///   the store (disk and memory) exactly as it was.
/// * Detection over a recovered store is byte-identical
///   ([`Violations::canonical_bytes`]) to detection over a store that
///   applied the same committed batches without crashing.
/// * Batches durable at the moment of a crash = exactly those counted by
///   [`ColumnStore::committed_batches`] after recovery, a prefix of the
///   apply order.
pub struct ColumnStore {
    dir: PathBuf,
    schema: Schema,
    arity: usize,
    pager: Pager,
    pool: BufferPool,
    dict: Dict,
    wal: Wal,
    /// Physical slots ever allocated (live + tombstoned).
    slots: u64,
    /// Tombstoned slots, ordered for deterministic iteration.
    dead: BTreeSet<u64>,
    /// Committed batches so far == next WAL sequence number.
    committed: u64,
    wal_checkpoint_bytes: u64,
}

impl std::fmt::Debug for ColumnStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnStore")
            .field("dir", &self.dir)
            .field("schema", &self.schema.name())
            .field("slots", &self.slots)
            .field("dead", &self.dead.len())
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl ColumnStore {
    /// Opens the store at `dir`, creating an empty one when no `meta.dat`
    /// exists yet. An existing store's persisted schema must equal the
    /// offered one ([`StoreError::SchemaMismatch`] otherwise). Opening
    /// replays any WAL tail and finishes with a checkpoint, so recovery is
    /// complete before this returns.
    pub fn open_or_create(dir: &Path, schema: &Schema, opts: StoreOptions) -> Result<ColumnStore> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("mkdir", dir, &e))?;
        let meta_path = dir.join("meta.dat");
        let meta = if meta_path.exists() {
            let stored = read_meta(&meta_path)?;
            if stored.schema != *schema {
                return Err(StoreError::SchemaMismatch {
                    stored: describe_schema(&stored.schema),
                    offered: describe_schema(schema),
                });
            }
            stored
        } else {
            let meta = Meta {
                schema: schema.clone(),
                slots: 0,
                committed: 0,
                dead: BTreeSet::new(),
            };
            write_meta(dir, &meta_path, &meta)?;
            meta
        };
        let pager = Pager::open(&dir.join("pages.dat"))?;
        let dict = Dict::open(&dir.join("dict.dat"))?;
        let (wal, tail) = Wal::open(&dir.join("wal.log"))?;
        let mut store = ColumnStore {
            dir: dir.to_path_buf(),
            arity: meta.schema.arity(),
            schema: meta.schema,
            pager,
            pool: BufferPool::new(opts.pool_pages),
            dict,
            wal,
            slots: meta.slots,
            dead: meta.dead,
            committed: meta.committed,
            wal_checkpoint_bytes: opts.wal_checkpoint_bytes,
        };
        let replayed = !tail.is_empty();
        for (seq, ops) in tail {
            if seq != store.committed {
                return Err(StoreError::corrupt(
                    &store.dir.join("wal.log"),
                    format!(
                        "commit sequence gap: expected {}, found {seq}",
                        store.committed
                    ),
                ));
            }
            let sids = store.store_ids(&ops);
            store.apply_ops(&ops, &sids)?;
            store.committed += 1;
        }
        if replayed {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// The stored schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live tuples (slots minus tombstones).
    pub fn len(&self) -> usize {
        (self.slots - self.dead.len() as u64) as usize
    }

    /// `true` when the store holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical slots ever allocated, including tombstoned ones.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Batches durably committed so far — after recovery, exactly the
    /// prefix of applied batches whose `apply_batch`/`set_cells` call
    /// reported success before the crash.
    pub fn committed_batches(&self) -> u64 {
        self.committed
    }

    /// Buffer-pool accounting — `peak_resident` is the store's page-memory
    /// high-water mark.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The physical slot of each live row, in live-row order. Index `r` of
    /// the returned vector is the slot backing row `r` of
    /// [`ColumnStore::materialize`]'s relation — the mapping a repair
    /// commit uses to turn row edits into [`ColumnStore::set_cells`] ops.
    pub fn live_slots(&self) -> Vec<u64> {
        let mut dead = self.dead.iter().copied().peekable();
        let mut out = Vec::with_capacity(self.len());
        for slot in 0..self.slots {
            if dead.peek() == Some(&slot) {
                dead.next();
                continue;
            }
            out.push(slot);
        }
        out
    }

    /// Durably applies one batch of inserts/deletes. See the type-level
    /// durability contract; group commit makes this one WAL fsync
    /// regardless of the batch size, preceded by one dictionary fsync when
    /// the batch brings values the store has never held.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
        self.commit_batch(ops).map(drop)
    }

    /// [`ColumnStore::apply_batch`], reporting per op whether it changed the
    /// instance: every insert does, a delete only when it retired a live
    /// slot (the latest holding an identical tuple). This is what a
    /// maintained report needs to follow the commit without reading the
    /// store back.
    pub fn commit_batch(&mut self, ops: &[BatchOp]) -> Result<Vec<bool>> {
        for tuple in ops.iter().map(BatchOp::tuple) {
            // Same error the in-memory stream path raises, so a session is
            // backend-transparent even in how it rejects a malformed batch.
            if tuple.arity() != self.arity {
                return Err(StoreError::Relation(RelationError::ArityMismatch {
                    expected: self.arity,
                    got: tuple.arity(),
                }));
            }
        }
        let (store_ops, applied) = self.resolve(ops)?;
        self.commit(&store_ops)?;
        Ok(applied)
    }

    /// Which of `tuples`, deleted in order with bag semantics, would retire
    /// a live slot — without changing anything: the deletion-side preview
    /// of a disk-backed session asks this before asking its maintained
    /// report what the retirement resolves.
    pub fn retirable(&mut self, tuples: &[Tuple]) -> Result<Vec<bool>> {
        let deletes: Vec<BatchOp> = tuples.iter().cloned().map(BatchOp::Delete).collect();
        Ok(self.resolve(&deletes)?.1)
    }

    /// The store ops committing `ops` logs, and per op whether it changes
    /// the instance, without changing anything. A delete resolves to the
    /// **latest** live slot holding an identical tuple — the batch's own
    /// earlier inserts included, slots its earlier deletes retired excluded
    /// — and is dropped when there is none. Latest, because that is the one
    /// `IncrementalDetector::apply_batch` pops in memory: the same history
    /// then leaves the same row order on both backings (and any future
    /// tuple → slot locator must keep this rule).
    fn resolve(&mut self, ops: &[BatchOp]) -> Result<(Vec<StoreOp>, Vec<bool>)> {
        let mut store_ops = Vec::with_capacity(ops.len());
        let mut applied = Vec::with_capacity(ops.len());
        // The batch's inserts as (slot, cells), and the slots it retires.
        let mut inserted: Vec<(u64, &[ValueId])> = Vec::new();
        let mut retired: BTreeSet<u64> = BTreeSet::new();
        for op in ops {
            match op {
                BatchOp::Insert(tuple) => {
                    inserted.push((self.slots + inserted.len() as u64, tuple.ids()));
                    store_ops.push(StoreOp::Insert(tuple.ids().to_vec()));
                    applied.push(true);
                }
                BatchOp::Delete(tuple) => {
                    let live = |&&(slot, ids): &&(u64, &[ValueId])| {
                        ids == tuple.ids() && !retired.contains(&slot)
                    };
                    let slot = match inserted.iter().rev().find(live) {
                        Some(&(slot, _)) => Some(slot),
                        None => self.find_live(tuple.ids(), &retired)?,
                    };
                    if let Some(slot) = slot {
                        retired.insert(slot);
                        store_ops.push(StoreOp::Delete { slot });
                    }
                    applied.push(slot.is_some());
                }
            }
        }
        Ok((store_ops, applied))
    }

    /// Durably overwrites cells of live slots — the logged form of a
    /// repair's edits, committed as one batch (one WAL fsync, preceded by a
    /// dictionary fsync when a new value is written).
    pub fn set_cells(&mut self, edits: &[(u64, u32, Value)]) -> Result<()> {
        let mut store_ops = Vec::with_capacity(edits.len());
        for &(slot, attr, ref value) in edits {
            if slot >= self.slots || self.dead.contains(&slot) {
                return Err(StoreError::InvalidOp {
                    detail: format!("set_cells targets slot {slot}, which is not live"),
                });
            }
            if attr as usize >= self.arity {
                return Err(StoreError::InvalidOp {
                    detail: format!("set_cells attr {attr} out of arity {}", self.arity),
                });
            }
            store_ops.push(StoreOp::SetCell {
                slot,
                attr,
                value: ValueId::of(value),
            });
        }
        self.commit(&store_ops)
    }

    /// Detects all violations of `cfds` by streaming the store through the
    /// one `QC`/`QV` scan kernel ([`cfd_detect::kernels`]) a page chunk at
    /// a time: per CFD and chunk, the `X ∪ Y` column pages are read through
    /// the pool, translated store id → runtime id with tombstoned slots
    /// compacted out, and handed to the kernel as one block. Page memory is
    /// bounded by the pool (`peak_resident ≤ pool_pages`); the group state
    /// is the kernel's, the same as over an in-memory relation. The few
    /// `QC`-violating tuples are materialized by point reads afterwards.
    ///
    /// The report is byte-identical to detection over
    /// [`ColumnStore::materialize`]'d data (reports are ordered sets, so
    /// neither scan order nor block boundaries matter).
    pub fn detect(&mut self, cfds: &[Cfd]) -> Result<Violations> {
        let mut out = Violations::new();
        let mut scratch = ScanScratch::new();
        let mut qc_slots: Vec<u64> = Vec::new();
        for cfd in cfds {
            self.scan_cfd(cfd, &mut scratch, &mut qc_slots, &mut out)?;
        }
        qc_slots.sort_unstable();
        qc_slots.dedup();
        for slot in qc_slots {
            let mut values = Vec::with_capacity(self.arity);
            for attr in 0..self.arity {
                values.push(self.read_id(slot, attr as u32)?.resolve().clone());
            }
            out.add_constant_violation(values);
        }
        Ok(out)
    }

    /// One CFD's kernel scan over every chunk: multi-tuple keys go to
    /// `out`, the slots of `QC`-violating tuples are appended to `qc_slots`.
    fn scan_cfd(
        &mut self,
        cfd: &Cfd,
        scratch: &mut ScanScratch,
        qc_slots: &mut Vec<u64>,
        out: &mut Violations,
    ) -> Result<()> {
        let cfds = [cfd];
        let mut scan = GroupScan::new(&cfds, scratch);
        let attrs = scan.attrs();
        let mut cols: Vec<Vec<ValueId>> = vec![Vec::new(); attrs.len()];
        let mut raw: Vec<u32> = Vec::new();
        // Offsets of the chunk's live slots: position `i` of a compacted
        // column is slot `base + live[i]`.
        let mut live: Vec<u32> = Vec::new();
        let mut hits: Vec<u32> = Vec::new();
        for chunk in 0..self.chunks() {
            let base = self.live_offsets(chunk, &mut live);
            if live.is_empty() {
                continue; // an entirely dead chunk costs no page read
            }
            for (col, attr) in cols.iter_mut().zip(&attrs) {
                self.read_live(chunk, attr.index() as u32, &live, &mut raw, col)?;
            }
            let block: Vec<&[ValueId]> = cols.iter().map(Vec::as_slice).collect();
            hits.clear();
            scan.scan_block(&block, None, &mut hits);
            qc_slots.extend(hits.iter().map(|&i| base + u64::from(live[i as usize])));
        }
        scan.finish(out);
        Ok(())
    }

    /// Hands the live tuples to `visit` one chunk at a time, in slot order:
    /// per chunk of [`PAGE_CELLS`] slots, every column page is read through
    /// the pool, translated store id → runtime id with tombstoned slots
    /// compacted out, and passed on as a relation of at most [`PAGE_CELLS`]
    /// rows. One pass over the store, never more than one chunk in memory
    /// of its own — how a maintained report is built over a store, and how
    /// [`ColumnStore::materialize`] reads it. Stops at the first error
    /// `visit` returns.
    pub fn for_each_chunk(&mut self, mut visit: impl FnMut(&Relation) -> Result<()>) -> Result<()> {
        let (mut live, mut raw) = (Vec::new(), Vec::new());
        let mut cols: Vec<Vec<ValueId>> = vec![Vec::new(); self.arity];
        let mut row = Vec::with_capacity(self.arity);
        for chunk in 0..self.chunks() {
            self.live_offsets(chunk, &mut live);
            if live.is_empty() {
                continue;
            }
            for (attr, col) in cols.iter_mut().enumerate() {
                self.read_live(chunk, attr as u32, &live, &mut raw, col)?;
            }
            let mut rel = Relation::with_capacity(self.schema.clone(), live.len());
            for i in 0..live.len() {
                row.clear();
                row.extend(cols.iter().map(|col| col[i]));
                rel.push_ids(&row)?;
            }
            visit(&rel)?;
        }
        Ok(())
    }

    /// Materializes the live tuples as an in-memory [`Relation`] in
    /// live-slot order (the order [`ColumnStore::live_slots`] documents).
    pub fn materialize(&mut self) -> Result<Relation> {
        let mut rel = Relation::with_capacity(self.schema.clone(), self.len());
        let mut row = Vec::with_capacity(self.arity);
        self.for_each_chunk(|chunk| {
            for (_, tuple) in chunk.iter() {
                row.clear();
                row.extend(tuple.ids());
                rel.push_ids(&row)?;
            }
            Ok(())
        })?;
        Ok(rel)
    }

    /// Flushes everything to disk and empties the WAL. Called
    /// automatically when the WAL passes its size threshold, at the end of
    /// recovery, and on drop.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.dict.sync()?;
        self.pool.flush_all(&mut self.pager)?;
        self.pager.sync()?;
        let meta = Meta {
            schema: self.schema.clone(),
            slots: self.slots,
            committed: self.committed,
            dead: self.dead.clone(),
        };
        write_meta(&self.dir, &self.dir.join("meta.dat"), &meta)?;
        self.wal.truncate()
    }

    /// Drops every cached page (flushing dirty ones) so the next scan
    /// reads cold from disk — used by benchmarks and tests.
    pub fn drop_page_cache(&mut self) -> Result<()> {
        self.pool.clear(&mut self.pager)
    }

    /// The resolved-ops half of the commit protocol: dictionary write +
    /// fsync, WAL fsync (commit point), page apply, checkpoint when due.
    fn commit(&mut self, ops: &[StoreOp]) -> Result<()> {
        let sids = self.store_ids(ops);
        self.dict.sync()?;
        self.wal.append_commit(self.committed, ops)?;
        self.apply_ops(ops, &sids)?;
        self.committed += 1;
        if self.wal.size() > self.wal_checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The store id of every cell `ops` write, in op order
    /// ([`StoreOp::cells`]), adding dictionary entries for values the store
    /// has never held — each cell is translated once per commit.
    fn store_ids(&mut self, ops: &[StoreOp]) -> Vec<u32> {
        ops.iter()
            .flat_map(StoreOp::cells)
            .map(|&id| self.dict.store_id(id))
            .collect()
    }

    /// Applies already-committed ops to pages, `sids` being their cells'
    /// [`ColumnStore::store_ids`] (both the live path after a WAL append
    /// and the replay path during recovery run exactly this).
    fn apply_ops(&mut self, ops: &[StoreOp], sids: &[u32]) -> Result<()> {
        let mut rest = sids;
        for op in ops {
            let (cells, tail) = rest.split_at(op.cells().len());
            rest = tail;
            match op {
                StoreOp::Insert(_) => {
                    if cells.len() != self.arity {
                        return Err(StoreError::corrupt(
                            &self.dir.join("wal.log"),
                            format!(
                                "insert arity {} does not match schema arity {}",
                                cells.len(),
                                self.arity
                            ),
                        ));
                    }
                    let slot = self.slots;
                    for (attr, &sid) in cells.iter().enumerate() {
                        self.write_sid(slot, attr as u32, sid)?;
                    }
                    self.slots += 1;
                }
                StoreOp::Delete { slot } => {
                    if *slot >= self.slots || !self.dead.insert(*slot) {
                        return Err(StoreError::corrupt(
                            &self.dir.join("wal.log"),
                            format!("delete of slot {slot}, which is not live"),
                        ));
                    }
                }
                StoreOp::SetCell { slot, attr, .. } => {
                    if *slot >= self.slots
                        || self.dead.contains(slot)
                        || *attr as usize >= self.arity
                    {
                        return Err(StoreError::corrupt(
                            &self.dir.join("wal.log"),
                            format!("set-cell on slot {slot} attr {attr} is out of range"),
                        ));
                    }
                    self.write_sid(*slot, *attr, cells[0])?;
                }
            }
        }
        Ok(())
    }

    /// The latest stored live slot, outside `skip`, whose tuple equals
    /// `ids` (see [`ColumnStore::resolve`]), by a walk from the end.
    /// Comparison is by store id, so values the dictionary has never seen
    /// cannot match.
    fn find_live(&mut self, ids: &[ValueId], skip: &BTreeSet<u64>) -> Result<Option<u64>> {
        let target: Option<Vec<u32>> = ids.iter().map(|&id| self.dict.lookup(id)).collect();
        let Some(target) = target else {
            return Ok(None);
        };
        'slots: for slot in (0..self.slots).rev() {
            if self.dead.contains(&slot) || skip.contains(&slot) {
                continue;
            }
            for (attr, &sid) in target.iter().enumerate() {
                if self.read_sid(slot, attr as u32)? != sid {
                    continue 'slots;
                }
            }
            return Ok(Some(slot));
        }
        Ok(None)
    }

    /// The page holding `(slot, attr)` and the cell offset within it.
    fn locate(&self, slot: u64, attr: u32) -> (u64, usize) {
        let chunk = slot / PAGE_CELLS as u64;
        let offset = (slot % PAGE_CELLS as u64) as usize;
        (chunk * self.arity as u64 + u64::from(attr), offset)
    }

    fn write_sid(&mut self, slot: u64, attr: u32, sid: u32) -> Result<()> {
        let (page, offset) = self.locate(slot, attr);
        self.pool.write_cell(&mut self.pager, page, offset, sid)
    }

    fn read_sid(&mut self, slot: u64, attr: u32) -> Result<u32> {
        let (page, offset) = self.locate(slot, attr);
        self.pool.read_cell(&mut self.pager, page, offset)
    }

    /// The runtime [`ValueId`] stored at `(slot, attr)`.
    fn read_id(&mut self, slot: u64, attr: u32) -> Result<ValueId> {
        let sid = self.read_sid(slot, attr)?;
        self.dict.runtime_id(sid)
    }

    /// Number of chunks holding allocated slots.
    fn chunks(&self) -> u64 {
        self.slots.div_ceil(PAGE_CELLS as u64)
    }

    /// Fills `live` with the offsets of the live slots of `chunk` (slot
    /// `base + live[i]`) and returns `base`.
    fn live_offsets(&self, chunk: u64, live: &mut Vec<u32>) -> u64 {
        let base = chunk * PAGE_CELLS as u64;
        let end = (base + PAGE_CELLS as u64).min(self.slots);
        let mut dead = self.dead.range(base..end).peekable();
        live.clear();
        live.extend(
            (base..end)
                .filter(|slot| dead.next_if_eq(&slot).is_none())
                .map(|slot| (slot - base) as u32),
        );
        base
    }

    /// Reads the `live` cells of `attr` in `chunk` into `col` as runtime
    /// ids (`raw` is the page buffer).
    fn read_live(
        &mut self,
        chunk: u64,
        attr: u32,
        live: &[u32],
        raw: &mut Vec<u32>,
        col: &mut Vec<ValueId>,
    ) -> Result<()> {
        raw.clear();
        let page = chunk * self.arity as u64 + u64::from(attr);
        self.pool
            .read_cells(&mut self.pager, page, 0, PAGE_CELLS, raw)?;
        col.clear();
        for &offset in live {
            col.push(self.dict.runtime_id(raw[offset as usize])?);
        }
        Ok(())
    }
}

impl Drop for ColumnStore {
    fn drop(&mut self) {
        // Best-effort: a failed checkpoint here is recovered from the WAL
        // on the next open, so the error is deliberately discarded.
        let _ = self.checkpoint();
    }
}

/// The decoded contents of `meta.dat`.
struct Meta {
    schema: Schema,
    slots: u64,
    committed: u64,
    dead: BTreeSet<u64>,
}

fn describe_schema(s: &Schema) -> String {
    let attrs: Vec<&str> = s.attributes().iter().map(|a| a.name.as_str()).collect();
    format!("{}({})", s.name(), attrs.join(", "))
}

const DOMAIN_TAG_TEXT: u8 = 0;
const DOMAIN_TAG_INTEGER: u8 = 1;
const DOMAIN_TAG_BOOLEAN: u8 = 2;
const DOMAIN_TAG_FINITE: u8 = 3;

fn write_meta(dir: &Path, path: &Path, meta: &Meta) -> Result<()> {
    let mut payload = Vec::new();
    put_u32(&mut payload, META_MAGIC);
    put_u32(&mut payload, META_VERSION);
    put_str(&mut payload, meta.schema.name());
    put_u32(&mut payload, meta.schema.arity() as u32);
    for a in meta.schema.attributes() {
        put_str(&mut payload, &a.name);
        match &a.domain {
            Domain::Unrestricted(AttrType::Text) => payload.push(DOMAIN_TAG_TEXT),
            Domain::Unrestricted(AttrType::Integer) => payload.push(DOMAIN_TAG_INTEGER),
            Domain::Unrestricted(AttrType::Boolean) => payload.push(DOMAIN_TAG_BOOLEAN),
            Domain::Finite(values) => {
                payload.push(DOMAIN_TAG_FINITE);
                put_u32(&mut payload, values.len() as u32);
                for v in values {
                    put_value(&mut payload, v);
                }
            }
        }
    }
    put_u64(&mut payload, meta.slots);
    put_u64(&mut payload, meta.committed);
    put_u32(&mut payload, meta.dead.len() as u32);
    for &slot in &meta.dead {
        put_u64(&mut payload, slot);
    }
    let mut record = Vec::new();
    frame(&mut record, &payload);

    // Atomic replace: a crash leaves either the old or the new checkpoint.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &record).map_err(|e| StoreError::io("write", &tmp, &e))?;
    let f = std::fs::File::open(&tmp).map_err(|e| StoreError::io("open", &tmp, &e))?;
    f.sync_all().map_err(|e| StoreError::io("sync", &tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", path, &e))?;
    let d = std::fs::File::open(dir).map_err(|e| StoreError::io("open", dir, &e))?;
    d.sync_all().map_err(|e| StoreError::io("sync", dir, &e))?;
    Ok(())
}

fn read_meta(path: &Path) -> Result<Meta> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io("read", path, &e))?;
    let mut meta: Option<Meta> = None;
    scan_frames(&bytes, |payload| {
        let mut r = Reader::new(payload, path);
        if r.take_u32()? != META_MAGIC {
            return Err(StoreError::corrupt(path, "bad checkpoint magic"));
        }
        let version = r.take_u32()?;
        if version != META_VERSION {
            return Err(StoreError::corrupt(
                path,
                format!("unsupported checkpoint version {version}"),
            ));
        }
        let name = r.take_str()?;
        let arity = r.take_u32()? as usize;
        let mut builder = Schema::builder(name);
        for _ in 0..arity {
            let attr_name = r.take_str()?;
            let domain = match r.take_u8()? {
                DOMAIN_TAG_TEXT => Domain::text(),
                DOMAIN_TAG_INTEGER => Domain::integer(),
                DOMAIN_TAG_BOOLEAN => Domain::boolean(),
                DOMAIN_TAG_FINITE => {
                    let n = r.take_u32()? as usize;
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(take_value(&mut r)?);
                    }
                    Domain::finite(values)
                }
                tag => {
                    return Err(StoreError::corrupt(
                        path,
                        format!("unknown domain tag {tag}"),
                    ))
                }
            };
            builder = builder.attr_domain(attr_name, domain);
        }
        let slots = r.take_u64()?;
        let committed = r.take_u64()?;
        let ndead = r.take_u32()? as usize;
        let mut dead = BTreeSet::new();
        for _ in 0..ndead {
            dead.insert(r.take_u64()?);
        }
        meta = Some(Meta {
            schema: builder.build(),
            slots,
            committed,
            dead,
        });
        Ok(())
    })?;
    meta.ok_or_else(|| StoreError::corrupt(path, "checkpoint file holds no valid record"))
}
