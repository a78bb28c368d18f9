//! Global value interning: the dictionary behind every relation cell.
//!
//! # Why interning
//!
//! Every hot path of the CFD pipeline — pattern matching, the `QC`/`QV`
//! detection joins, hash indexes, `GROUP BY` keys — ultimately reduces to
//! *equality* of attribute values. The seed implementation compared and
//! cloned [`Value::Str(String)`](crate::Value) everywhere, making a string
//! comparison (and often an allocation) out of every probe. Discovery-
//! oriented systems avoid this with dictionary encoding: each distinct value
//! is assigned a small integer once, and all further equality is an integer
//! compare.
//!
//! This module provides that dictionary. It is **global and append-only**:
//! interned values live for the lifetime of the process (they are stored in
//! a static arena that never frees or moves an entry), so a [`ValueId`] is
//! meaningful across relations, pattern tableaux, indexes and threads, and
//! [`ValueId::resolve`] can hand out `&'static Value` borrows without
//! lifetime gymnastics.
//!
//! # Borrowed and batched interning
//!
//! One hash map from value to id serves every lookup. It is keyed so that a
//! borrowed [`ValueRef`] finds an entry without building a [`Value`]
//! ([`ValueId::of_ref`], [`ValueId::get_ref`]): a cell the process has
//! already seen costs a hash and a probe, never an allocation — a string is
//! copied once, the first time it is interned. A loader hands over a whole
//! record at a time ([`ValueId::intern_row`]): one read guard looks every
//! cell up, and the misses, if any, are inserted afterwards under one write
//! guard.
//!
//! **Ids follow first-sight order.** Ids are handed out densely in the
//! order values are first interned, and `intern_row` inserts its misses in
//! cell order — a value repeated within the record gets the id of its first
//! occurrence — so a single thread gets exactly the ids it would get by
//! interning the cells one by one. A loader that batches therefore assigns
//! the same ids as one that does not.
//!
//! # Lock-free resolve
//!
//! Values live in an append-only arena of write-once cells ([`OnceLock`]s)
//! in blocks of 1024, found through doubling segments of block slots, so an
//! id names a fixed cell and no entry ever moves. Cells are written only
//! under the write guard, before the id is handed out; [`ValueId::resolve`]
//! takes no lock at all — it computes the cell and reads it, so concurrent
//! resolvers never contend on the lock's reader count.
//!
//! # Panic robustness
//!
//! Because the state is append-only, it is valid after *any* panic: an
//! insertion fills its arena cell, advances the id counter and then enters
//! the map, all under one write guard, so a value is either fully
//! registered or unreachable (an id that never entered the map is never
//! handed out, and the next insertion takes the next cell). Lock poisoning
//! is therefore recovered with [`PoisonError::into_inner`] instead of
//! propagating — a thread that panicked *near* the interner (or even while
//! holding the guard) must never wedge every other thread of a multi-tenant
//! process into a panic cascade. `resolve` reads the arena only and cannot
//! observe a poisoned lock at all.
//!
//! # The equality contract
//!
//! The interner is *injective*: two [`ValueId`]s are equal **iff** the
//! [`Value`]s they denote are equal (`ValueId` equality ⇔ `Value` equality).
//! In particular the CFD semantics for `NULL` are preserved exactly:
//!
//! * [`Value::Null`] interns to the fixed id [`ValueId::NULL`];
//! * `NULL = NULL` holds (id 0 == id 0) and `NULL` equals **no other value**
//!   — matching how this workspace treats `Null` as an ordinary constant that
//!   is only equal to itself (see [`crate::value`]).
//!
//! `Value::Bool(false)` / `Value::Bool(true)` also get fixed ids
//! ([`ValueId::FALSE`] / [`ValueId::TRUE`]) so the SQL layer can evaluate
//! predicates entirely on ids.
//!
//! # What a `ValueId` is *not*
//!
//! Ids are assigned in first-intern order, so **`ValueId` ordering is not
//! `Value` ordering**. Code that needs the total order of
//! [`Value`] (sorted active domains, deterministic reports)
//! must resolve ids first. Similarly, ids must never be persisted: they are
//! only stable within one process.

use crate::value::{Value, ValueRef};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dictionary id of an interned [`Value`]. Equality of ids is equivalent to
/// equality of the underlying values; comparison is a single `u32` compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The id of [`Value::Null`]. `NULL` equals only itself, which the
    /// interner preserves by construction (one id per distinct value).
    pub const NULL: ValueId = ValueId(0);
    /// The id of `Value::Bool(false)`.
    pub const FALSE: ValueId = ValueId(1);
    /// The id of `Value::Bool(true)`.
    pub const TRUE: ValueId = ValueId(2);
    /// Never handed out (the arena ends below it): marks a cell
    /// [`ValueId::intern_row`] has not resolved yet.
    const UNSET: ValueId = ValueId(u32::MAX);

    /// Interns `v`, returning its id. Inserts on first sight.
    pub fn of(v: &Value) -> ValueId {
        ValueId::of_ref(v.into())
    }

    /// Interns a borrowed value, returning its id. A hit builds nothing; on
    /// first sight the value is copied into the arena.
    pub fn of_ref(v: ValueRef<'_>) -> ValueId {
        match ValueId::get_ref(v) {
            Some(id) => id,
            None => write().intern(v),
        }
    }

    /// Interns an owned value without cloning it on first sight.
    pub fn from_value(v: Value) -> ValueId {
        if let Some(id) = ValueId::get(&v) {
            return id;
        }
        let mut st = write();
        match st.lookup((&v).into()) {
            Some(id) => id,
            None => st.push(v),
        }
    }

    /// Interns one record's cells, appending their ids to `out` in cell
    /// order. One read guard looks every cell up; misses are then inserted
    /// under one write guard in cell order, so the ids are exactly those
    /// [`ValueId::of_ref`] cell by cell would give (see the module docs on
    /// first-sight order).
    pub fn intern_row(cells: &[ValueRef<'_>], out: &mut Vec<ValueId>) {
        let start = out.len();
        let mut missed = false;
        {
            let st = read();
            out.extend(cells.iter().map(|&cell| {
                st.lookup(cell).unwrap_or_else(|| {
                    missed = true;
                    ValueId::UNSET
                })
            }));
        }
        if missed {
            let mut st = write();
            for (&cell, id) in cells.iter().zip(&mut out[start..]) {
                if *id == ValueId::UNSET {
                    *id = st.intern(cell);
                }
            }
        }
    }

    /// Looks `v` up **without** inserting. `None` means the value has never
    /// been interned — and therefore cannot occur in any interned relation,
    /// which probe paths (index lookups) exploit to answer "no match" early.
    pub fn get(v: &Value) -> Option<ValueId> {
        ValueId::get_ref(v.into())
    }

    /// [`ValueId::get`] for a borrowed value.
    pub fn get_ref(v: ValueRef<'_>) -> Option<ValueId> {
        if v == ValueRef::Null {
            return Some(ValueId::NULL);
        }
        read().lookup(v)
    }

    /// The interned value this id denotes. Takes no lock: the id names a
    /// write-once arena cell that was filled before the id was handed out.
    pub fn resolve(self) -> &'static Value {
        ARENA.value(self.0)
    }

    /// The raw dictionary index (diagnostics / tests only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

impl From<&Value> for ValueId {
    fn from(v: &Value) -> Self {
        ValueId::of(v)
    }
}

impl From<Value> for ValueId {
    fn from(v: Value) -> Self {
        ValueId::from_value(v)
    }
}

/// Cells per arena block: ids `b · 1024 .. (b + 1) · 1024` live in block `b`.
const BLOCK_BITS: u32 = 10;
/// Segments of block slots: segment `k` holds `2^k` of them (blocks
/// `2^k − 1 .. 2^(k+1) − 1`), so the arena holds `1024 · (2^22 − 1)` values
/// and every id stays below [`ValueId::UNSET`].
const SEGMENTS: usize = 22;
/// The values behind the fixed ids, in the order of the `ValueId` constants.
const FIXED: [Value; 3] = [Value::Null, Value::Bool(false), Value::Bool(true)];

type Block = Box<[OnceLock<Value>]>;

/// The append-only value store behind [`ValueId::resolve`]: doubling
/// segments of slots for fixed-size blocks of write-once cells. A block is
/// allocated when its first value arrives, so the arena never holds more
/// than one partly used block. Segments, blocks and cells are created only
/// under the interner's write guard (except block 0, born holding the
/// fixed-id values, which a first `resolve` may also create) and are read
/// without a lock.
struct Arena {
    segments: [OnceLock<Box<[OnceLock<Block>]>>; SEGMENTS],
}

static ARENA: Arena = Arena {
    segments: [const { OnceLock::new() }; SEGMENTS],
};

impl Arena {
    /// The cell of id `id`.
    fn cell(&'static self, id: u32) -> &'static OnceLock<Value> {
        let block = (id >> BLOCK_BITS) + 1;
        let seg = block.ilog2() as usize;
        let blocks = self.segments[seg].get_or_init(|| {
            std::iter::repeat_with(OnceLock::new)
                .take(1 << seg)
                .collect()
        });
        let cells = blocks[(block - (1 << seg)) as usize].get_or_init(|| new_block(block == 1));
        &cells[(id & ((1 << BLOCK_BITS) - 1)) as usize]
    }

    /// The value of a handed-out id. Its cell was filled before the id left
    /// the write guard, so the wait returns at once.
    fn value(&'static self, id: u32) -> &'static Value {
        self.cell(id).wait()
    }

    /// Stores `v` as id `id`, a cell no id has been handed out for yet.
    fn fill(&'static self, id: u32, v: Value) -> &'static Value {
        self.cell(id).get_or_init(|| v)
    }
}

fn new_block(first: bool) -> Block {
    FIXED
        .into_iter()
        .filter(|_| first)
        .map(OnceLock::from)
        .chain(std::iter::repeat_with(OnceLock::new))
        .take(1 << BLOCK_BITS)
        .collect()
}

/// An entry of the value → id map: the id beside the value's borrowed
/// form, which points into the arena — a string's bytes are one hop from
/// the bucket, and the id shares the bucket with the key. Entries hash and
/// compare by value alone, so that a probing [`ValueRef`] finds them.
enum Interned {
    Null { id: u32 },
    Bool { id: u32, b: bool },
    Int { id: u32, i: i64 },
    Str { id: u32, s: &'static str },
}

impl Interned {
    fn new(id: u32, v: &'static Value) -> Interned {
        match v.into() {
            ValueRef::Null => Interned::Null { id },
            ValueRef::Bool(b) => Interned::Bool { id, b },
            ValueRef::Int(i) => Interned::Int { id, i },
            ValueRef::Str(s) => Interned::Str { id, s },
        }
    }

    fn id(&self) -> ValueId {
        match *self {
            Interned::Null { id }
            | Interned::Bool { id, .. }
            | Interned::Int { id, .. }
            | Interned::Str { id, .. } => ValueId(id),
        }
    }
}

/// What both sides of a map lookup present: a stored [`Interned`] entry
/// and a probing [`ValueRef`].
trait Key {
    fn key(&self) -> ValueRef<'_>;
}

impl Key for Interned {
    fn key(&self) -> ValueRef<'_> {
        match *self {
            Interned::Null { .. } => ValueRef::Null,
            Interned::Bool { b, .. } => ValueRef::Bool(b),
            Interned::Int { i, .. } => ValueRef::Int(i),
            Interned::Str { s, .. } => ValueRef::Str(s),
        }
    }
}

impl Key for ValueRef<'_> {
    fn key(&self) -> ValueRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Key + 'a> for Interned {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl Hash for dyn Key + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn Key + '_ {}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Interned {}

struct InternerState {
    /// The value → id map: entries carry their id (see [`Interned`]).
    map: HashSet<Interned>,
    /// Ids handed out so far: the next id, and the next arena cell.
    len: u32,
}

impl InternerState {
    fn lookup(&self, v: ValueRef<'_>) -> Option<ValueId> {
        self.map.get(&v as &dyn Key).map(Interned::id)
    }

    fn intern(&mut self, v: ValueRef<'_>) -> ValueId {
        match self.lookup(v) {
            Some(id) => id,
            None => self.push(v.into()),
        }
    }

    /// Registers `v`, which the map does not hold: arena cell, counter,
    /// then map entry (see the module docs on panic robustness).
    fn push(&mut self, v: Value) -> ValueId {
        let id = self.len;
        let stored = ARENA.fill(id, v);
        self.len += 1;
        self.map.insert(Interned::new(id, stored));
        ValueId(id)
    }
}

fn state() -> &'static RwLock<InternerState> {
    static STATE: OnceLock<RwLock<InternerState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let mut map = HashSet::with_capacity(1024);
        for id in 0..FIXED.len() as u32 {
            map.insert(Interned::new(id, ARENA.value(id)));
        }
        RwLock::new(InternerState {
            map,
            len: FIXED.len() as u32,
        })
    })
}

fn read() -> RwLockReadGuard<'static, InternerState> {
    state().read().unwrap_or_else(PoisonError::into_inner)
}

fn write() -> RwLockWriteGuard<'static, InternerState> {
    state().write().unwrap_or_else(PoisonError::into_inner)
}

/// Number of distinct values interned so far (diagnostics).
pub fn interned_count() -> usize {
    read().len as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ids_for_null_and_booleans() {
        assert_eq!(ValueId::of(&Value::Null), ValueId::NULL);
        assert_eq!(ValueId::of(&Value::Bool(false)), ValueId::FALSE);
        assert_eq!(ValueId::of(&Value::Bool(true)), ValueId::TRUE);
        assert_eq!(ValueId::NULL.resolve(), &Value::Null);
        assert_eq!(ValueId::TRUE.resolve(), &Value::Bool(true));
    }

    #[test]
    fn intern_resolve_round_trip() {
        for v in [
            Value::from("NYC"),
            Value::from(""),
            Value::Int(42),
            Value::Int(-42),
            Value::Bool(true),
            Value::Null,
            Value::from("O'Hare"),
        ] {
            let id = ValueId::of(&v);
            assert_eq!(id.resolve(), &v, "intern→resolve must be the identity");
            assert_eq!(ValueId::from_value(v.clone()), id);
            assert_eq!(ValueId::get(&v), Some(id));
        }
    }

    #[test]
    fn id_equality_iff_value_equality() {
        let samples = [
            Value::from("a"),
            Value::from("b"),
            Value::from("42"),
            Value::Int(42),
            Value::Bool(true),
            Value::Null,
        ];
        for x in &samples {
            for y in &samples {
                assert_eq!(
                    ValueId::of(x) == ValueId::of(y),
                    x == y,
                    "id equality must coincide with value equality for {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn null_only_equals_null() {
        assert_eq!(ValueId::of(&Value::Null), ValueId::of(&Value::Null));
        assert_ne!(ValueId::of(&Value::Null), ValueId::of(&Value::Int(0)));
        assert_ne!(ValueId::of(&Value::Null), ValueId::of(&Value::from("")));
        assert_ne!(ValueId::of(&Value::Null), ValueId::of(&Value::from("NULL")));
    }

    #[test]
    fn get_does_not_insert() {
        // Note: the global count cannot be asserted here — parallel tests in
        // this process may intern values concurrently. Probe the value itself.
        let probe = Value::from("__interner_get_probe_never_used_elsewhere__");
        assert_eq!(ValueId::get(&probe), None);
        assert_eq!(ValueId::get(&probe), None, "a lookup miss must not insert");
        let id = ValueId::of(&probe);
        assert_eq!(ValueId::get(&probe), Some(id));
    }

    #[test]
    fn interning_survives_a_panicked_thread_holding_the_lock() {
        // A thread panics while holding the write guard: the lock is now
        // poisoned, but the append-only state is valid — every accessor must
        // recover and keep serving instead of cascading the panic. (The
        // interner is process-global, so this also proves recovery for every
        // other test sharing this binary.)
        let before = ValueId::of(&Value::from("poison-survivor-before"));
        let panicked = std::thread::spawn(|| {
            let _guard = state().write().unwrap_or_else(PoisonError::into_inner);
            panic!("deliberate panic while holding the interner lock");
        })
        .join();
        assert!(panicked.is_err(), "the thread must actually panic");
        // Reads, writes and lookups all still work across the poisoned lock.
        assert_eq!(ValueId::of(&Value::from("poison-survivor-before")), before);
        let after = ValueId::of(&Value::from("poison-survivor-after"));
        assert_ne!(after, before);
        assert_eq!(after.resolve(), &Value::from("poison-survivor-after"));
        assert_eq!(
            ValueId::get(&Value::from("poison-survivor-after")),
            Some(after)
        );
        assert!(interned_count() > 0);
        // And a *fresh* thread can intern too — the process is not wedged.
        let from_thread = std::thread::spawn(|| ValueId::of(&Value::from("poison-survivor-after")))
            .join()
            .expect("interning on a new thread succeeds after poisoning");
        assert_eq!(from_thread, after);
    }

    #[test]
    fn interning_is_idempotent_across_threads() {
        let ids: Vec<ValueId> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| ValueId::of(&Value::from("shared-value"))))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn batch_and_single_cell_interning_agree() {
        // Fresh values, one repeated: the repeat gets its first
        // occurrence's id and the new values consecutive ids in cell order
        // — the order cell-by-cell interning assigns.
        let row = [
            ValueRef::Str("batch-a"),
            ValueRef::Int(-917_311),
            ValueRef::Str("batch-a"),
            ValueRef::Null,
            ValueRef::Str("batch-b"),
            ValueRef::Bool(true),
        ];
        let mut out = vec![ValueId::FALSE];
        ValueId::intern_row(&row, &mut out);
        assert_eq!(out[0], ValueId::FALSE, "intern_row appends");
        let ids = &out[1..];
        assert_eq!(ids[2], ids[0]);
        assert_eq!(ids[3], ValueId::NULL);
        assert_eq!(ids[5], ValueId::TRUE);
        assert_eq!(ids[1].raw(), ids[0].raw() + 1);
        assert_eq!(ids[4].raw(), ids[1].raw() + 1);
        for (&cell, &id) in row.iter().zip(ids) {
            assert_eq!(ValueId::of_ref(cell), id);
            assert_eq!(ValueId::of(&Value::from(cell)), id);
            assert_eq!(ValueId::get_ref(cell), Some(id));
            assert_eq!(ValueRef::from(id.resolve()), cell);
        }
        // Cell by cell first, then as a batch: the same ids.
        let fresh = [ValueRef::Str("single-x"), ValueRef::Int(-917_312)];
        let single: Vec<ValueId> = fresh.iter().map(|&c| ValueId::of_ref(c)).collect();
        assert!(single[0] < single[1], "first-sight order");
        let mut batch = Vec::new();
        ValueId::intern_row(&fresh, &mut batch);
        assert_eq!(batch, single);
        assert_eq!(ValueId::get_ref(ValueRef::Str("never-interned-ref")), None);
    }

    #[test]
    fn resolve_returns_its_value_while_other_threads_intern() {
        // Eight threads intern fresh values — enough to open new arena
        // blocks — while eight others resolve ids handed out before.
        let known: Vec<(ValueId, Value)> = (0..2_000)
            .map(|i| {
                let v = Value::from(format!("race-known-{i}"));
                (ValueId::of(&v), v)
            })
            .collect();
        let start = std::sync::Barrier::new(16);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut ids = Vec::new();
                    for i in 0..1_000 {
                        let cells: Vec<String> =
                            (0..4).map(|c| format!("race-fresh-{t}-{i}-{c}")).collect();
                        let row: Vec<ValueRef<'_>> =
                            cells.iter().map(|s| ValueRef::Str(s)).collect();
                        ids.clear();
                        ValueId::intern_row(&row, &mut ids);
                        for (id, cell) in ids.iter().zip(&row) {
                            assert_eq!(ValueRef::from(id.resolve()), *cell);
                        }
                    }
                });
            }
            for _ in 0..8 {
                let (start, known) = (&start, &known);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        for (id, v) in known {
                            assert_eq!(id.resolve(), v);
                        }
                    }
                });
            }
        });
    }
}
