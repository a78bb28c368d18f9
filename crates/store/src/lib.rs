//! `cfd-store` — the durable, bounded-memory storage layer.
//!
//! The rest of the workspace works over fully in-memory [`Relation`]s;
//! this crate adds a disk-backed backend with the same detection
//! semantics: a [`ColumnStore`] keeps interned columns in fixed-size
//! pages on disk, caches them through a bounded [`BufferPool`], persists
//! its value dictionary so ids survive restart, and makes every applied
//! batch durable through a write-ahead log with group commit.
//!
//! The design is classic out-of-core database machinery in miniature:
//!
//! * [`Pager`] — fixed 4 KiB pages over a single `pages.dat`, page
//!   numbers computed from `(chunk, attr)` so no directory is needed;
//! * [`BufferPool`] — pin/unpin, LRU-ish eviction, dirty-page writeback;
//!   its [`PoolStats::peak_resident`] is the proof that scans over
//!   instances much larger than the pool stay within the page budget;
//! * a persisted dictionary mapping store-local dense `u32` ids to
//!   runtime [`ValueId`](cfd_relation::ValueId)s (runtime ids are
//!   process-local and must never reach disk);
//! * a WAL ([`StoreOp`] records, CRC-framed, one WAL fsync per batch) whose
//!   replay makes [`ColumnStore::apply_batch`] crash-recoverable — see
//!   the durability contract on [`ColumnStore`].
//!
//! Detection runs directly over the store: [`ColumnStore::detect`] feeds
//! the one `QC`/`QV` scan kernel of `cfd-detect` a page chunk at a time, so
//! reports are byte-identical to the in-memory detectors (same kernel,
//! ordered-set reports) and the engine's detect/repair layers work
//! unchanged over either backing. A session that maintains its report
//! instead builds it once through [`ColumnStore::for_each_chunk`] and then
//! follows [`ColumnStore::commit_batch`], which says which ops changed the
//! instance.
//!
//! [`Relation`]: cfd_relation::Relation

mod dict;
mod encode;
mod error;
mod pager;
mod pool;
mod store;
mod wal;

pub use error::{Result, StoreError};
pub use pager::{Pager, PAGE_BYTES, PAGE_CELLS};
pub use pool::{BufferPool, PoolStats};
pub use store::{ColumnStore, StoreOptions};
pub use wal::StoreOp;
