//! Random tuple / CFD / batch generators shared by the stream property
//! tests (`incremental_stream.rs`) and the disk-vs-memory model test
//! (`store_backend.rs`): a four-attribute schema over a collision-heavy
//! alphabet, so batches keep creating and resolving violations.

use cfd_core::{Cfd, PatternTableau, PatternTuple, PatternValue};
use cfd_datagen::rng::StdRng;
use cfd_detect::BatchOp;
use cfd_relation::{Schema, Tuple, Value};

pub fn schema() -> Schema {
    Schema::builder("r")
        .text("A")
        .text("B")
        .text("C")
        .text("D")
        .build()
}

/// Collision-heavy alphabet (NULL included) so batches keep creating and
/// resolving violations.
pub fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..4) {
        0 => Value::Null,
        i => Value::from(["a", "b", "c"][i - 1]),
    }
}

pub fn random_tuple(rng: &mut StdRng) -> Tuple {
    Tuple::new((0..4).map(|_| random_value(rng)).collect())
}

pub fn random_cfd(rng: &mut StdRng) -> Cfd {
    let schema = schema();
    // Variants 0 and 3 share an LHS with different RHS attributes: pairs of
    // them report the *same* QV keys, exercising the merged-report
    // difference semantics of `detect_deletions`.
    let (lhs, rhs) = match rng.gen_range(0usize..4) {
        0 => (
            schema.resolve_all(["A", "B"]).unwrap(),
            schema.resolve_all(["C"]).unwrap(),
        ),
        1 => (
            schema.resolve_all(["A"]).unwrap(),
            schema.resolve_all(["B", "C"]).unwrap(),
        ),
        2 => (
            schema.resolve_all(["B", "C"]).unwrap(),
            schema.resolve_all(["D"]).unwrap(),
        ),
        _ => (
            schema.resolve_all(["A", "B"]).unwrap(),
            schema.resolve_all(["D"]).unwrap(),
        ),
    };
    let mut tableau = PatternTableau::new();
    for _ in 0..rng.gen_range(1usize..4) {
        // `@` is drawn too: every serving detector, the stream included,
        // reads it as `_` over the full LHS.
        let cell = |rng: &mut StdRng| match rng.gen_range(0usize..10) {
            0..=4 => PatternValue::Wildcard,
            5 => PatternValue::DontCare,
            _ => PatternValue::constant(["a", "b", "c"][rng.gen_range(0usize..3)]),
        };
        let l: Vec<PatternValue> = (0..lhs.len()).map(|_| cell(rng)).collect();
        let r: Vec<PatternValue> = (0..rhs.len()).map(|_| cell(rng)).collect();
        tableau.push(PatternTuple::new(l, r));
    }
    Cfd::from_parts(schema, lhs, rhs, tableau).unwrap()
}

/// A mixed batch over the mirror instance: inserts of fresh random tuples,
/// deletes of currently-live tuples (kept in lock-step with the engine).
pub fn random_batch(rng: &mut StdRng, mirror: &mut Vec<Tuple>) -> Vec<BatchOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1usize..8) {
        let delete = !mirror.is_empty() && rng.gen_bool(0.4);
        if delete {
            let victim = mirror.remove(rng.gen_range(0..mirror.len()));
            ops.push(BatchOp::Delete(victim));
        } else {
            let t = random_tuple(rng);
            mirror.push(t.clone());
            ops.push(BatchOp::Insert(t));
        }
    }
    ops
}
