//! Property-style tests (deterministic randomized, offline — no proptest):
//! the SQL-based detector, under every evaluation strategy, agrees with the
//! independent direct detector on arbitrary data and arbitrary CFDs; the
//! interned detection path returns byte-identical reports to a
//! value-comparison reference kept here; and the paper's invariants about query generation
//! hold (query size independent of tableau size, merged vs per-CFD
//! consistency of the QC component).

use cfd_core::{Cfd, PatternTableau, PatternTuple, PatternValue};
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::rng::StdRng;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::{DirectDetector, Violations};
use cfd_relation::{Relation, Schema, Tuple, Value};
use cfd_sql::{Detector, Strategy as SqlStrategy};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const CASES: usize = 64;

/// Small value alphabet: collisions are likely, so FD/CFD violations are too.
fn random_value(rng: &mut StdRng) -> Value {
    Value::from(["a", "b", "c"][rng.gen_range(0usize..3)])
}

fn schema() -> Schema {
    Schema::builder("r")
        .text("A")
        .text("B")
        .text("C")
        .text("D")
        .build()
}

/// A relation with up to 24 rows over the 4-attribute schema.
fn random_relation(rng: &mut StdRng) -> Relation {
    let mut rel = Relation::new(schema());
    for _ in 0..rng.gen_range(0usize..24) {
        let row: Vec<Value> = (0..4).map(|_| random_value(rng)).collect();
        rel.push(Tuple::new(row)).unwrap();
    }
    rel
}

/// A pattern cell: a constant from the alphabet or the unnamed variable.
fn random_cell(rng: &mut StdRng) -> PatternValue {
    if rng.gen_bool(0.6) {
        PatternValue::Wildcard
    } else {
        PatternValue::constant(random_value(rng))
    }
}

/// A CFD over the fixed schema: X = {A, B}, Y = {C} or {C, D}, 1..4 pattern rows.
fn random_cfd(rng: &mut StdRng) -> Cfd {
    let schema = schema();
    let lhs = schema.resolve_all(["A", "B"]).unwrap();
    let wide_rhs = rng.gen_bool(0.5);
    let rhs = if wide_rhs {
        schema.resolve_all(["C", "D"]).unwrap()
    } else {
        schema.resolve_all(["C"]).unwrap()
    };
    let mut tableau = PatternTableau::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let l: Vec<PatternValue> = (0..2).map(|_| random_cell(rng)).collect();
        let r: Vec<PatternValue> = (0..rhs.len()).map(|_| random_cell(rng)).collect();
        tableau.push(PatternTuple::new(l, r));
    }
    Cfd::from_parts(schema, lhs, rhs, tableau).unwrap()
}

/// The SQL detector (any strategy) and the direct detector are identical.
#[test]
fn sql_equals_direct() {
    let mut rng = StdRng::seed_from_u64(0xD7EC7);
    for case in 0..CASES {
        let rel = random_relation(&mut rng);
        let cfd = random_cfd(&mut rng);
        let expected = DirectDetector::new().detect(&cfd, &rel);
        let shared = Arc::new(rel);
        for strategy in [
            SqlStrategy::dnf(),
            SqlStrategy::cnf(),
            SqlStrategy::dnf_unindexed(),
            SqlStrategy::as_written(),
        ] {
            let got = Detector::new()
                .with_strategy(strategy)
                .detect_shared(&cfd, Arc::clone(&shared))
                .unwrap()
                .0;
            assert_eq!(
                got, expected,
                "case {case}, strategy {strategy:?}, cfd {cfd}"
            );
        }
    }
}

/// The `QC`/`QV` semantics spelled over resolved [`Value`]s — string
/// compares and owned-value hash keys, no dictionary ids anywhere: the
/// reference that pins "equal ids ⇔ equal values" for the interned paths.
fn value_path(cfd: &Cfd, rel: &Relation) -> Violations {
    let mut out = Violations::new();
    let mut groups: HashMap<Vec<Value>, HashSet<Vec<Value>>> = HashMap::new();
    for (_, tuple) in rel.iter() {
        let x = tuple.project_ref(cfd.lhs());
        let y = tuple.project_ref(cfd.rhs());
        let mut matched = false;
        let mut contradicted = false;
        for pattern in cfd.tableau().iter().filter(|p| p.lhs_matches(&x)) {
            matched = true;
            contradicted |= !pattern.rhs_matches(&y);
        }
        if contradicted {
            out.add_constant_violation(tuple.to_values());
        }
        if matched {
            groups
                .entry(tuple.project(cfd.lhs()))
                .or_default()
                .insert(tuple.project(cfd.rhs()));
        }
    }
    for (key, y_projections) in groups {
        if y_projections.len() > 1 {
            out.add_multi_tuple_key(key);
        }
    }
    out
}

/// The interned detection path returns byte-identical `Violations` to the
/// value-comparison path on arbitrary data and CFDs.
#[test]
fn interned_equals_value_path_on_random_cases() {
    let mut rng = StdRng::seed_from_u64(0x1D5);
    for case in 0..CASES {
        let rel = random_relation(&mut rng);
        let cfd = random_cfd(&mut rng);
        let interned = DirectDetector::new().detect(&cfd, &rel);
        let value_path = value_path(&cfd, &rel);
        assert_eq!(
            interned, value_path,
            "case {case}: interned vs value path, cfd {cfd}"
        );
    }
}

/// The acceptance check of the interning refactor: on a ≥10k-tuple generated
/// tax workload, the interned detectors (direct hash path and SQL path)
/// report exactly the same violation sets as the Value-comparison path.
#[test]
fn interned_equals_value_path_on_generated_workload() {
    let noisy = TaxGenerator::new(TaxConfig {
        size: 10_000,
        noise_percent: 6.0,
        seed: 2026,
    })
    .generate()
    .relation;
    assert!(noisy.len() >= 10_000);
    let workload = CfdWorkload::new(77);
    let cfds = [
        workload.zip_state_full(),
        workload.single(EmbeddedFd::ZipCityToState, 150, 100.0),
        workload.single(EmbeddedFd::AreaToCity, 150, 60.0),
        workload.single(EmbeddedFd::StateMaritalToExemption, 60, 100.0),
    ];
    let shared = Arc::new(noisy.clone());
    for cfd in &cfds {
        let value_path = value_path(cfd, &noisy);
        let interned = DirectDetector::new().detect(cfd, &noisy);
        assert_eq!(
            interned,
            value_path,
            "interned direct detection differs from the value path for {:?}",
            cfd.name()
        );
        let sql = Detector::new()
            .detect_shared(cfd, Arc::clone(&shared))
            .unwrap()
            .0;
        assert_eq!(
            sql,
            value_path,
            "interned SQL detection differs from the value path for {:?}",
            cfd.name()
        );
    }
    // The workload as a whole must catch the injected noise.
    let total: usize = cfds
        .iter()
        .map(|c| DirectDetector::new().detect(c, &noisy).total())
        .sum();
    assert!(total > 0, "workload CFDs must catch the injected noise");
}

/// Detection is empty iff the CFD is satisfied (semantics agreement with cfd-core).
#[test]
fn detection_matches_satisfaction() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let rel = random_relation(&mut rng);
        let cfd = random_cfd(&mut rng);
        let report = Detector::new().detect(&cfd, &rel).unwrap();
        assert_eq!(
            report.is_clean(),
            cfd.satisfied_by(&rel),
            "case {case}, cfd {cfd}"
        );
    }
}

/// The merged query pair finds exactly the same single-tuple (QC)
/// violations as running one query pair per CFD.
#[test]
fn merged_qc_equals_per_cfd_qc() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let rel = random_relation(&mut rng);
        let cfds = vec![random_cfd(&mut rng), random_cfd(&mut rng)];
        let shared = Arc::new(rel);
        let per_cfd = Detector::new()
            .detect_set(&cfds, Arc::clone(&shared))
            .unwrap();
        let merged = Detector::new()
            .detect_set_merged(&cfds, Arc::clone(&shared))
            .unwrap();
        assert_eq!(
            per_cfd.constant_violations(),
            merged.constant_violations(),
            "case {case}"
        );
        // Multi-tuple violations use different key spaces, but emptiness must
        // agree with the semantic satisfaction of the set.
        let all_satisfied = cfds.iter().all(|c| c.satisfied_by(&shared));
        assert_eq!(merged.is_clean(), all_satisfied, "case {case}");
        assert_eq!(per_cfd.is_clean(), all_satisfied, "case {case}");
    }
}

/// Query size (number of WHERE atoms) does not depend on the tableau size.
#[test]
fn query_size_independent_of_tableau() {
    let mut rng = StdRng::seed_from_u64(0x51CE);
    for _ in 0..CASES {
        let cfd = random_cfd(&mut rng);
        let detector = Detector::new();
        let (qc, qv) = detector.sql_for(&cfd, "r");
        let expected_qc_atoms = cfd.lhs().len() * 3 + cfd.rhs().len() * 3;
        assert_eq!(qc.where_clause.unwrap().atom_count(), expected_qc_atoms);
        assert_eq!(qv.where_clause.unwrap().atom_count(), cfd.lhs().len() * 3);
        assert_eq!(qv.group_by.len(), cfd.lhs().len());
    }
}
