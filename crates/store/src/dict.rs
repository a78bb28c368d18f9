//! The persisted value dictionary: store-local dense ids that survive
//! restart.
//!
//! The process-wide interner's [`ValueId`]s are explicitly **not** stable
//! across processes (its docs forbid persisting them), so pages never
//! contain runtime ids. Instead each store keeps its own dense `u32` id
//! space: the dictionary file is an append-only sequence of CRC-framed
//! encoded [`Value`]s, record `n` defining store id `n`. Opening a store
//! replays the file, re-interns every value, and rebuilds the two-way map —
//! page cells are translated store id → runtime id on read and runtime id →
//! store id on write.
//!
//! Durability: new entries get their ids at once but are buffered in memory
//! as batches are prepared; [`Dict::sync`] writes them with one `write` and
//! fsyncs, and it is called **before** the WAL commit fsync of any batch
//! referencing them, so every store id reachable from committed data is
//! always durable. Entries left behind by an uncommitted batch are harmless
//! — they occupy ids nothing references.

use crate::encode::{frame, put_value, scan_frames, take_value, Reader};
use crate::error::{Result, StoreError};
use cfd_relation::ValueId;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The two-way store-id ↔ runtime-id map plus its append-only backing file.
#[derive(Debug)]
pub(crate) struct Dict {
    file: File,
    path: PathBuf,
    store_to_runtime: Vec<ValueId>,
    runtime_to_store: HashMap<ValueId, u32>,
    /// Bytes of whole frames in the file.
    len: u64,
    /// Framed entries not yet written: [`Dict::sync`] writes them.
    pending: Vec<u8>,
    /// Entries added since the last successful [`Dict::sync`].
    dirty: bool,
}

impl Dict {
    /// Opens (creating if absent) the dictionary at `path`, replaying every
    /// valid record and truncating any torn tail.
    pub fn open(path: &Path) -> Result<Dict> {
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
        let mut store_to_runtime = Vec::new();
        let mut runtime_to_store = HashMap::new();
        let valid = scan_frames(&bytes, |payload| {
            let mut r = Reader::new(payload, path);
            let value = take_value(&mut r)?;
            let id = ValueId::from_value(value);
            runtime_to_store
                .entry(id)
                .or_insert(store_to_runtime.len() as u32);
            store_to_runtime.push(id);
            Ok(())
        })?;
        if valid as u64 != bytes.len() as u64 {
            // Torn tail from a crash mid-append: cut it off.
            file.set_len(valid as u64)
                .map_err(|e| StoreError::io("truncate", path, &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", path, &e))?;
        Ok(Dict {
            file,
            path: path.to_path_buf(),
            store_to_runtime,
            runtime_to_store,
            len: valid as u64,
            pending: Vec::new(),
            dirty: false,
        })
    }

    /// Number of defined store ids.
    pub fn len(&self) -> usize {
        self.store_to_runtime.len()
    }

    /// The store id of runtime `id`, adding a new dictionary entry when the
    /// value has never been stored here. A new entry resolves at once and
    /// reaches the file at the next [`Dict::sync`].
    pub fn store_id(&mut self, id: ValueId) -> u32 {
        if let Some(&sid) = self.runtime_to_store.get(&id) {
            return sid;
        }
        let sid = self.store_to_runtime.len() as u32;
        let mut payload = Vec::new();
        put_value(&mut payload, id.resolve());
        frame(&mut self.pending, &payload);
        self.store_to_runtime.push(id);
        self.runtime_to_store.insert(id, sid);
        self.dirty = true;
        sid
    }

    /// The store id of runtime `id` if the value has ever been stored here,
    /// without appending (used by delete matching: an unknown value cannot
    /// occur in any page).
    pub fn lookup(&self, id: ValueId) -> Option<u32> {
        self.runtime_to_store.get(&id).copied()
    }

    /// The runtime id of store id `sid`.
    pub fn runtime_id(&self, sid: u32) -> Result<ValueId> {
        self.store_to_runtime
            .get(sid as usize)
            .copied()
            .ok_or_else(|| {
                StoreError::corrupt(
                    &self.path,
                    format!("store id {sid} out of range ({} defined)", self.len()),
                )
            })
    }

    /// Writes the buffered entries with one `write` and forces them to
    /// stable storage. Must complete before the WAL commit of any batch
    /// whose pages reference them. A failed call leaves the entries to the
    /// next one: a partial write is cut off again, so the file only ever
    /// grows by whole frames.
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        // Taken, not cleared: a bulk load's buffer is not kept alive.
        let pending = std::mem::take(&mut self.pending);
        if let Err(e) = self.file.write_all(&pending) {
            // Best-effort: what a failed cut leaves behind is a torn tail,
            // which the next open truncates.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            self.pending = pending;
            return Err(StoreError::io("write", &self.path, &e));
        }
        self.len += pending.len() as u64;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync", &self.path, &e))?;
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_relation::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-dict-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("dict.dat")
    }

    #[test]
    fn ids_are_dense_stable_and_survive_reopen() {
        let path = tmp("reopen");
        let v = [
            Value::from("NYC"),
            Value::from("MH"),
            Value::Int(908),
            Value::Null,
        ];
        let ids: Vec<ValueId> = v.iter().map(ValueId::of).collect();
        let mut dict = Dict::open(&path).unwrap();
        assert_eq!(dict.store_id(ids[0]), 0);
        assert_eq!(dict.store_id(ids[1]), 1);
        assert_eq!(dict.store_id(ids[0]), 0, "idempotent");
        assert_eq!(dict.store_id(ids[2]), 2);
        assert_eq!(dict.store_id(ids[3]), 3);
        dict.sync().unwrap();
        drop(dict);

        let mut dict = Dict::open(&path).unwrap();
        assert_eq!(dict.len(), 4);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(dict.runtime_id(i as u32).unwrap(), *id);
            assert_eq!(dict.store_id(*id), i as u32);
        }
        assert!(dict.runtime_id(4).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn new_entries_resolve_before_sync_and_reach_the_file_in_one_write() {
        let path = tmp("buffered");
        let values = [Value::from("kept"), Value::Int(7), Value::from("also")];
        let ids: Vec<ValueId> = values.iter().map(ValueId::of).collect();
        let mut dict = Dict::open(&path).unwrap();
        let sids: Vec<u32> = ids.iter().map(|&id| dict.store_id(id)).collect();
        assert_eq!(sids, [0, 1, 2]);
        // Resolvable both ways before anything is written…
        for (&sid, &id) in sids.iter().zip(&ids) {
            assert_eq!(dict.runtime_id(sid).unwrap(), id);
            assert_eq!(dict.lookup(id), Some(sid));
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // …and on disk after one sync, with the same ids after a reopen.
        dict.sync().unwrap();
        let synced = std::fs::metadata(&path).unwrap().len();
        assert!(synced > 0);
        dict.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), synced);
        drop(dict);
        let dict = Dict::open(&path).unwrap();
        assert_eq!(dict.len(), 3);
        for (&sid, &id) in sids.iter().zip(&ids) {
            assert_eq!(dict.runtime_id(sid).unwrap(), id);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        let mut dict = Dict::open(&path).unwrap();
        dict.store_id(ValueId::of(&Value::from("kept")));
        dict.sync().unwrap();
        drop(dict);
        let before = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 7]).unwrap(); // partial frame header
        drop(f);
        let dict = Dict::open(&path).unwrap();
        assert_eq!(dict.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
