//! Incremental equivalence property tests (deterministic randomized,
//! offline — no proptest): random insert/delete batches replayed through
//! [`IncrementalDetector::apply_batch`] must leave the engine's maintained
//! violation report equal to a from-scratch [`DirectDetector`] run after
//! **every** batch, and the non-mutating previews must agree with their
//! from-scratch characterizations:
//!
//! * `detect_insertions(batch)` over a clean instance equals full detection
//!   of `current ∪ batch`;
//! * `detect_deletions(batch)` equals the set difference between the current
//!   report and the report of `current \ batch` (the *resolved* violations).

mod common;

use cfd_core::Cfd;
use cfd_datagen::rng::StdRng;
use cfd_detect::{DirectDetector, IncrementalDetector, Violations};
use cfd_relation::{Relation, Tuple};
use common::{random_batch, random_cfd, random_tuple, schema};

fn from_scratch(cfds: &[Cfd], rows: &[Tuple]) -> Violations {
    let rel = Relation::from_rows(schema(), rows.to_vec()).unwrap();
    DirectDetector::new().detect_set(cfds, &rel)
}

/// The core property: after every applied batch, the engine's report equals
/// a from-scratch detection run over the same instance — byte for byte.
#[test]
fn apply_batch_equals_from_scratch_after_every_batch() {
    let mut rng = StdRng::seed_from_u64(0x57124_u64);
    for case in 0..24 {
        let cfds = vec![random_cfd(&mut rng), random_cfd(&mut rng)];
        let mut mirror: Vec<Tuple> = (0..rng.gen_range(0usize..12))
            .map(|_| random_tuple(&mut rng))
            .collect();
        let base = Relation::from_rows(schema(), mirror.clone()).unwrap();
        let mut engine = IncrementalDetector::new(base, cfds.clone());
        let initial = from_scratch(&cfds, &mirror);
        assert_eq!(engine.violations(), initial, "case {case}: initial state");
        assert_eq!(
            engine.violations().canonical_bytes(),
            initial.canonical_bytes(),
            "case {case}: initial state (rendered bytes)"
        );
        for batch_no in 0..6 {
            let ops = random_batch(&mut rng, &mut mirror);
            let report = engine.apply_batch(&ops).unwrap();
            let expected = from_scratch(&cfds, &mirror);
            assert_eq!(
                report, expected,
                "case {case}, batch {batch_no}: maintained report diverged (ops {ops:?})"
            );
            assert_eq!(
                report.canonical_bytes(),
                expected.canonical_bytes(),
                "case {case}, batch {batch_no}: rendered bytes diverged"
            );
            assert_eq!(engine.len(), mirror.len(), "case {case}, batch {batch_no}");
        }
        // The materialized instance matches the mirror as a bag (the engine
        // deletes the most recent live occurrence of a duplicate value, the
        // mirror a specific position, so only the multiset is comparable).
        let mut got = engine.current_relation().to_tuples();
        let mut want = mirror.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }
}

/// Insertion previews over a *clean* engine equal full detection of the
/// combined instance (the paper-facing contract of `detect_insertions`).
#[test]
fn insertion_preview_equals_full_detection_on_clean_instances() {
    let mut rng = StdRng::seed_from_u64(0xC1EA_u64);
    let mut checked = 0usize;
    for _ in 0..400 {
        let cfds = vec![random_cfd(&mut rng), random_cfd(&mut rng)];
        let rows: Vec<Tuple> = (0..rng.gen_range(0usize..10))
            .map(|_| random_tuple(&mut rng))
            .collect();
        if !from_scratch(&cfds, &rows).is_clean() {
            continue; // the clean-base contract
        }
        checked += 1;
        let batch: Vec<Tuple> = (0..rng.gen_range(1usize..6))
            .map(|_| random_tuple(&mut rng))
            .collect();
        let engine = IncrementalDetector::new(
            Relation::from_rows(schema(), rows.clone()).unwrap(),
            cfds.clone(),
        );
        let preview = engine.detect_insertions(&batch).unwrap();
        let mut combined = rows.clone();
        combined.extend(batch.iter().cloned());
        let full = from_scratch(&cfds, &combined);
        assert_eq!(
            preview, full,
            "preview must equal full detection of base ∪ batch"
        );
        assert_eq!(preview.canonical_bytes(), full.canonical_bytes());
        // Previews never mutate.
        assert_eq!(engine.len(), rows.len());
    }
    assert!(checked >= 50, "too few clean bases generated ({checked})");
}

/// Deletion previews equal the violations a real deletion would resolve:
/// current report minus the report of the shrunken instance.
#[test]
fn deletion_preview_equals_resolved_difference() {
    let mut rng = StdRng::seed_from_u64(0xDE1E7E_u64);
    for case in 0..40 {
        let cfds = vec![random_cfd(&mut rng), random_cfd(&mut rng)];
        let mut mirror: Vec<Tuple> = (0..rng.gen_range(2usize..14))
            .map(|_| random_tuple(&mut rng))
            .collect();
        let engine = IncrementalDetector::new(
            Relation::from_rows(schema(), mirror.clone()).unwrap(),
            cfds.clone(),
        );
        let before = engine.violations();
        // Delete a random subset (bag semantics, like apply_batch).
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            if mirror.is_empty() {
                break;
            }
            batch.push(mirror.remove(rng.gen_range(0..mirror.len())));
        }
        let preview = engine.detect_deletions(&batch).unwrap();
        let after = from_scratch(&cfds, &mirror);

        let mut resolved = Violations::new();
        for t in before.constant_violations() {
            if !after.constant_violations().contains(t) {
                resolved.add_constant_violation(t.clone());
            }
        }
        for k in before.multi_tuple_keys() {
            if !after.multi_tuple_keys().contains(k) {
                resolved.add_multi_tuple_key(k.clone());
            }
        }
        assert_eq!(
            preview, resolved,
            "case {case}: deletion preview must equal the resolved difference"
        );
        assert_eq!(preview.canonical_bytes(), resolved.canonical_bytes());
    }
}
