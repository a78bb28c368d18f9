//! Recovery-protocol tests of [`ColumnStore`]: clean reopen, WAL replay
//! when the final checkpoint was skipped (simulated crash via
//! `std::mem::forget`), torn-tail truncation, and the stored-schema check.
//!
//! The process-kill variant (a child process `abort()`ed mid-stream) lives
//! in the root crate's `tests/store_backend.rs`; these tests cover the same
//! protocol in-process, where each step can be arranged precisely.

use cfd_datagen::cust::{cust_instance, cust_schema, fig2_cfd_set};
use cfd_detect::BatchOp;
use cfd_relation::{Relation, Value};
use cfd_store::{ColumnStore, StoreError, StoreOptions};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cfd-store-recovery-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_pool() -> StoreOptions {
    StoreOptions {
        pool_pages: 4,
        ..StoreOptions::default()
    }
}

fn insert_all(store: &mut ColumnStore, data: &Relation) {
    let ops: Vec<BatchOp> = data.to_tuples().into_iter().map(BatchOp::Insert).collect();
    store.apply_batch(&ops).expect("insert batch");
}

#[test]
fn data_and_report_survive_a_clean_reopen() {
    let dir = scratch_dir("clean");
    let cfds: Vec<_> = fig2_cfd_set().into_iter().collect();
    let before = {
        let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        insert_all(&mut store, &cust_instance());
        store.detect(&cfds).unwrap()
        // Drop checkpoints: pages flushed, meta written, WAL truncated.
    };
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    assert_eq!(store.committed_batches(), 1);
    assert_eq!(store.len(), cust_instance().len());
    assert_eq!(store.materialize().unwrap(), cust_instance());
    let after = store.detect(&cfds).unwrap();
    assert_eq!(before.canonical_bytes(), after.canonical_bytes());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_recovers_commits_after_a_skipped_checkpoint() {
    let dir = scratch_dir("replay");
    let data = cust_instance();
    {
        let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        insert_all(&mut store, &data);
        // A tuple distinct from every existing row, so the delete can only
        // match the insert from the same batch (bag semantics remove *one*
        // matching live tuple).
        let mut cells = data.row(0).unwrap().to_values();
        cells[3] = Value::from("Zed");
        let extra = cfd_relation::Tuple::new(cells);
        store
            .apply_batch(&[BatchOp::Insert(extra.clone()), BatchOp::Delete(extra)])
            .expect("second batch");
        // Simulate a crash after the commit fsyncs: skip Drop's checkpoint,
        // so recovery must come entirely from meta + WAL replay.
        std::mem::forget(store);
    }
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    assert_eq!(
        store.committed_batches(),
        2,
        "every batch that reported success is recovered"
    );
    assert_eq!(store.materialize().unwrap(), data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_edits_survive_wal_replay() {
    let dir = scratch_dir("edits");
    let data = cust_instance();
    let edited = Value::from("99");
    {
        let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        insert_all(&mut store, &data);
        store
            .set_cells(&[(0, 0, edited.clone()), (1, 0, edited.clone())])
            .expect("edit cells");
        std::mem::forget(store);
    }
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    let recovered = store.materialize().unwrap();
    assert_eq!(recovered.row(0).unwrap().to_values()[0], edited);
    assert_eq!(recovered.row(1).unwrap().to_values()[0], edited);
    // Untouched cells are untouched.
    assert_eq!(
        recovered.row(2).unwrap().to_values(),
        data.row(2).unwrap().to_values()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay must not resolve a logged delete against page contents: pages
/// written back before a crash may already hold a *later* edit. Here the
/// edit turns the surviving row into a copy of the deleted one and reaches
/// disk by eviction; searching pages on replay would retire the survivor
/// and then find the edit aimed at a dead slot.
#[test]
fn replay_retires_the_slot_a_delete_resolved_to_not_a_later_lookalike() {
    let dir = scratch_dir("lookalike");
    let data = cust_instance();
    let (gone, kept) = (data.row(0).unwrap(), data.row(1).unwrap());
    {
        let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        insert_all(&mut store, &data);
        store.checkpoint().unwrap();
        store
            .apply_batch(&[BatchOp::Delete(gone.to_tuple())])
            .unwrap();
        let edits: Vec<(u64, u32, Value)> = (0..data.schema().arity())
            .map(|attr| (1, attr as u32, gone.to_values()[attr].clone()))
            .collect();
        store.set_cells(&edits).unwrap();
        // The edited pages reach disk, the checkpoint does not.
        store.drop_page_cache().unwrap();
        std::mem::forget(store);
    }
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    assert_eq!(store.committed_batches(), 3);
    let recovered = store.materialize().unwrap();
    assert_eq!(recovered.len(), data.len() - 1);
    assert_eq!(recovered.row(0).unwrap().to_tuple(), gone.to_tuple());
    assert_ne!(kept.to_tuple(), gone.to_tuple());
    for row in 1..recovered.len() {
        assert_eq!(
            recovered.row(row).unwrap().to_tuple(),
            data.row(row + 1).unwrap().to_tuple()
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_wal_tail_is_truncated_not_fatal() {
    use std::io::Write as _;
    let dir = scratch_dir("torn");
    let data = cust_instance();
    {
        let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        insert_all(&mut store, &data);
        std::mem::forget(store);
    }
    // A record whose write was cut mid-way: a plausible length prefix with
    // too few payload bytes behind it.
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal.log"))
        .unwrap();
    wal.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad])
        .unwrap();
    wal.sync_all().unwrap();
    drop(wal);
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    assert_eq!(store.committed_batches(), 1, "the valid prefix replays");
    assert_eq!(store.materialize().unwrap(), data);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_with_a_different_schema_is_rejected() {
    let dir = scratch_dir("schema");
    {
        let store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
        drop(store);
    }
    let other = cfd_relation::Schema::builder("other")
        .text("a")
        .text("b")
        .build();
    let err = ColumnStore::open_or_create(&dir, &other, tiny_pool()).unwrap_err();
    assert!(
        matches!(err, StoreError::SchemaMismatch { .. }),
        "got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rejected_batch_leaves_the_store_untouched() {
    let dir = scratch_dir("atomic");
    let data = cust_instance();
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    insert_all(&mut store, &data);
    let bad = cfd_relation::Tuple::nulls(2); // wrong arity
    let err = store
        .apply_batch(&[
            BatchOp::Insert(data.to_tuples()[0].clone()),
            BatchOp::Insert(bad),
        ])
        .unwrap_err();
    assert!(matches!(err, StoreError::Relation(_)), "got {err:?}");
    assert_eq!(store.committed_batches(), 1, "nothing was committed");
    assert_eq!(store.materialize().unwrap(), data);
    // A crash right now must agree: reopen sees only the good batch.
    std::mem::forget(store);
    let mut store = ColumnStore::open_or_create(&dir, &cust_schema(), tiny_pool()).unwrap();
    assert_eq!(store.committed_batches(), 1);
    assert_eq!(store.materialize().unwrap(), data);
    let _ = std::fs::remove_dir_all(&dir);
}
