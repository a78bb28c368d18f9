//! The write-ahead log: one CRC-framed commit record per applied batch.
//!
//! # Record format
//!
//! Each record is `[len: u32][crc32(payload): u32][payload]` with payload
//!
//! ```text
//! seq: u64              — batch sequence number (== committed batches so far)
//! nops: u32             — number of ops in the batch
//! ops: nops ×           — tag u8:
//!   0 Insert  + arity values        (tagged Value encoding)
//!   2 SetCell + slot u64 + attr u32 + value
//!   3 Delete  + slot u64
//! ```
//!
//! Ops carry **values**, never ids — replay re-interns, so the log is
//! independent of both the process-local interner and the store dictionary.
//! In memory a [`StoreOp`] holds runtime [`ValueId`]s: an insert is logged
//! by resolving its ids, and replay interns every logged value once.
//! A delete carries the **slot** it retired, resolved when it committed:
//! replay must not search pages for a matching tuple, because pages written
//! back before a crash may already hold later edits. Tag 1 (a delete by
//! value) is retired: a record carrying it is refused as corrupt.
//!
//! # Group commit
//!
//! One record = one coalesced batch = **one fsync**, whatever the batch
//! size; the serving layer's micro-batching leader collects concurrent
//! writers into a single `apply_batch`, so its fsync is amortized over all
//! of them. The commit point of a batch is this record's fsync: everything
//! before it (dictionary appends) is made durable first, everything after
//! it (page mutations) is recomputable by replay.
//!
//! # Recovery
//!
//! The log is truncated at every checkpoint, so on open every record in it
//! is newer than the checkpoint. Replay applies records in order, verifying
//! the sequence numbers are contiguous; the first torn or corrupt frame
//! ends replay and is truncated away (a crash mid-append loses only the
//! batch that never reported success).

use crate::encode::{frame, put_u32, put_u64, put_value, scan_frames, take_value, Reader};
use crate::error::{Result, StoreError};
use cfd_relation::ValueId;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One durable mutation of the store, as logged and replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreOp {
    /// Append a tuple (cells in schema order).
    Insert(Vec<ValueId>),
    /// Tombstone a live slot — the one a delete by value retired when it
    /// committed (the latest live slot holding an identical tuple).
    Delete {
        /// The physical slot.
        slot: u64,
    },
    /// Overwrite one cell of a live slot — the logged form of a repair's
    /// `set_id` edit.
    SetCell {
        /// The physical slot (not the live row index).
        slot: u64,
        /// The attribute position.
        attr: u32,
        /// The new value.
        value: ValueId,
    },
}

impl StoreOp {
    /// The cells the op writes, in the order it writes them: an insert's
    /// tuple, a set-cell's value, nothing for a delete.
    pub(crate) fn cells(&self) -> &[ValueId] {
        match self {
            StoreOp::Insert(cells) => cells,
            StoreOp::Delete { .. } => &[],
            StoreOp::SetCell { value, .. } => std::slice::from_ref(value),
        }
    }
}

const TAG_INSERT: u8 = 0;
const TAG_SET_CELL: u8 = 2;
const TAG_DELETE: u8 = 3;

/// One committed batch as replayed from the log: its sequence number and
/// its ops in apply order.
pub(crate) type ReplayedBatch = (u64, Vec<StoreOp>);

/// The open write-ahead log.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` and returns it together
    /// with the replayable committed batches `(seq, ops)` in order. A torn
    /// tail is truncated.
    pub fn open(path: &Path) -> Result<(Wal, Vec<ReplayedBatch>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io("open", path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError::io("read", path, &e))?;
        let mut batches = Vec::new();
        let valid = scan_frames(&bytes, |payload| {
            let mut r = Reader::new(payload, path);
            let seq = r.take_u64()?;
            let nops = r.take_u32()? as usize;
            let mut ops = Vec::with_capacity(nops);
            for _ in 0..nops {
                ops.push(take_op(&mut r, path)?);
            }
            batches.push((seq, ops));
            Ok(())
        })?;
        if valid as u64 != bytes.len() as u64 {
            file.set_len(valid as u64)
                .map_err(|e| StoreError::io("truncate", path, &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", path, &e))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: valid as u64,
            },
            batches,
        ))
    }

    /// Appends and fsyncs one commit record — the durability point of a
    /// batch (one fsync per group-committed batch).
    pub fn append_commit(&mut self, seq: u64, ops: &[StoreOp]) -> Result<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, seq);
        put_u32(&mut payload, ops.len() as u32);
        for op in ops {
            put_op(&mut payload, op);
        }
        let mut record = Vec::new();
        frame(&mut record, &payload);
        self.file
            .write_all(&record)
            .map_err(|e| StoreError::io("write", &self.path, &e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync", &self.path, &e))?;
        self.len += record.len() as u64;
        Ok(())
    }

    /// Current log size in bytes (the checkpoint trigger input).
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Empties the log — called at the end of a checkpoint, after pages,
    /// dictionary and metadata are all durable.
    pub fn truncate(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| StoreError::io("truncate", &self.path, &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::io("seek", &self.path, &e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync", &self.path, &e))?;
        self.len = 0;
        Ok(())
    }
}

fn put_op(out: &mut Vec<u8>, op: &StoreOp) {
    match op {
        StoreOp::Insert(values) => {
            out.push(TAG_INSERT);
            put_u32(out, values.len() as u32);
            for v in values {
                put_value(out, v.resolve());
            }
        }
        StoreOp::Delete { slot } => {
            out.push(TAG_DELETE);
            put_u64(out, *slot);
        }
        StoreOp::SetCell { slot, attr, value } => {
            out.push(TAG_SET_CELL);
            put_u64(out, *slot);
            put_u32(out, *attr);
            put_value(out, value.resolve());
        }
    }
}

fn take_op(r: &mut Reader<'_>, path: &Path) -> Result<StoreOp> {
    let tag = r.take_u8()?;
    match tag {
        TAG_INSERT => {
            let nvals = r.take_u32()? as usize;
            let mut values = Vec::with_capacity(nvals);
            for _ in 0..nvals {
                values.push(ValueId::from_value(take_value(r)?));
            }
            Ok(StoreOp::Insert(values))
        }
        TAG_DELETE => Ok(StoreOp::Delete {
            slot: r.take_u64()?,
        }),
        TAG_SET_CELL => {
            let slot = r.take_u64()?;
            let attr = r.take_u32()?;
            let value = ValueId::from_value(take_value(r)?);
            Ok(StoreOp::SetCell { slot, attr, value })
        }
        tag => Err(StoreError::corrupt(path, format!("unknown op tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relation::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_ops() -> Vec<StoreOp> {
        vec![
            StoreOp::Insert(vec![
                ValueId::of(&Value::from("01")),
                ValueId::of(&Value::Int(908)),
                ValueId::NULL,
            ]),
            StoreOp::Delete { slot: 3 },
            StoreOp::SetCell {
                slot: 7,
                attr: 2,
                value: ValueId::of(&Value::from("MH")),
            },
        ]
    }

    #[test]
    fn commits_replay_in_order() {
        let path = tmp("replay");
        let (mut wal, batches) = Wal::open(&path).unwrap();
        assert!(batches.is_empty());
        wal.append_commit(0, &sample_ops()).unwrap();
        wal.append_commit(1, &[StoreOp::Insert(vec![ValueId::of(&Value::Int(5))])])
            .unwrap();
        assert!(wal.size() > 0);
        drop(wal);
        let (_, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, 0);
        assert_eq!(batches[0].1, sample_ops());
        assert_eq!(batches[1].0, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn records_encode_values_as_before_ops_carried_ids() {
        // The record of `sample_ops()` as the log wrote it while ops still
        // carried owned values: logging through `resolve` changes no byte,
        // so stores written by either version recover with the other.
        const RECORD: [u8; 71] = [
            63, 0, 0, 0, 40, 60, 127, 212, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0, 4, 2,
            0, 0, 0, 48, 49, 3, 140, 3, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0,
            0, 0, 0, 0, 0, 2, 0, 0, 0, 4, 2, 0, 0, 0, 77, 72,
        ];
        let path = tmp("bytes");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_commit(0, &sample_ops()).unwrap();
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), RECORD);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_torn_commit_is_discarded() {
        let path = tmp("torn");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_commit(0, &sample_ops()).unwrap();
        drop(wal);
        let good = std::fs::metadata(&path).unwrap().len();
        // A half-written next record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);
        let (wal, batches) = Wal::open(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(wal.size(), good, "torn tail truncated");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = tmp("truncate");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_commit(0, &sample_ops()).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.size(), 0);
        drop(wal);
        let (_, batches) = Wal::open(&path).unwrap();
        assert!(batches.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
