//! Heap allocations of a CSV load whose values the process already holds,
//! counted by a global allocator that delegates to [`System`] and counts
//! per thread (so the harness's other threads do not disturb the count).
//!
//! A re-load must be allocation-free per cell: cells are borrowed from the
//! text, looked up without building a `Value`, and interned a record at a
//! time into reused buffers. What is left is per load (the schema clone,
//! the header) and the growth of the relation's columns, far fewer than
//! one allocation per record.

use cfd::relation::{csv, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not the one
    // measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell<usize>`, which never allocates and has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc_zeroed` contract is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's `realloc` contract is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn reloading_an_interned_csv_allocates_less_than_once_per_record() {
    const ROWS: usize = 20_000;
    const COLS: usize = 15;
    let mut builder = Schema::builder("wide").integer("ID");
    for c in 1..COLS {
        builder = builder.text(format!("T{c}"));
    }
    let schema = builder.build();
    let mut text = (0..COLS)
        .map(|c| schema.attributes()[c].name.clone())
        .collect::<Vec<_>>()
        .join(",");
    text.push('\n');
    for r in 0..ROWS {
        text.push_str(&r.to_string());
        for c in 1..COLS {
            // Low- and high-cardinality columns, and a NULL now and then.
            match c % 3 {
                0 => text.push_str(&format!(",city {}", r % 97)),
                1 => text.push_str(&format!(",row-{r}-{c}")),
                _ if r % 11 == 0 => text.push(','),
                _ => text.push_str(&format!(",{}", r % 7)),
            }
        }
        text.push('\n');
    }
    // The first load interns every value; the second only looks them up.
    let first = csv::from_csv(&schema, &text).unwrap();
    let before = allocations();
    let again = csv::from_csv(&schema, &text).unwrap();
    let made = allocations() - before;
    assert_eq!(again.len(), ROWS);
    assert!(
        made < ROWS,
        "{made} heap allocations re-loading {ROWS} records of {COLS} cells"
    );
    assert_eq!(again, first);
}
