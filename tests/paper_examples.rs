//! Cross-crate integration tests replaying the paper's running examples:
//! Fig. 1/2, Example 2.2 (satisfaction), Example 3.1 (consistency),
//! Example 3.2 (implication), Example 3.3 (minimal cover), Example 4.1 and
//! Fig. 5 (detection SQL), and the Fig. 6–8 merged-tableau pipeline.

use cfd::prelude::*;
use cfd_core::NormalCfd;
use cfd_datagen::cust::{phi1, phi2, phi3, phi3_with_fd, phi5};
use cfd_relation::Schema as RSchema;
use cfd_sql::{Detector, MergedTableaux};
use std::sync::Arc;

#[test]
fn example_2_2_satisfaction_of_fig2_cfds_on_fig1() {
    let data = cust_instance();
    assert!(phi1().satisfied_by(&data), "ϕ1 holds on Fig. 1");
    assert!(phi3().satisfied_by(&data), "ϕ3 holds on Fig. 1");
    assert!(!phi2().satisfied_by(&data), "ϕ2 is violated by t1 and t2");
}

#[test]
fn example_1_1_traditional_fds_hold_but_refinements_fail() {
    let data = cust_instance();
    let f1 = Cfd::fd(cust_schema(), ["CC", "AC", "PN"], ["STR", "CT", "ZIP"]).unwrap();
    let f2 = Cfd::fd(cust_schema(), ["CC", "AC"], ["CT"]).unwrap();
    assert!(f1.satisfied_by(&data));
    assert!(f2.satisfied_by(&data));
    // The refinement ϕ1 of f1 (pattern 01/908 -> MH) is violated.
    assert!(!phi2().satisfied_by(&data));
}

#[test]
fn example_3_1_consistency() {
    let schema = RSchema::builder("R").text("A").text("B").build();
    let p1 = NormalCfd::parse(&schema, ["A"], &["_"], "B", "b").unwrap();
    let p2 = NormalCfd::parse(&schema, ["A"], &["_"], "B", "c").unwrap();
    assert!(cfd_core::is_consistent(std::slice::from_ref(&p1)));
    assert!(!cfd_core::is_consistent(&[p1, p2]));
    // The Fig. 2 constraint set, in contrast, is consistent.
    assert!(cfd_datagen::fig2_cfd_set().is_consistent().unwrap());
}

#[test]
fn example_3_2_implication_and_derivation() {
    let schema = RSchema::builder("R").text("A").text("B").text("C").build();
    let psi1 = NormalCfd::parse(&schema, ["A"], &["_"], "B", "b").unwrap();
    let psi2 = NormalCfd::parse(&schema, ["B"], &["_"], "C", "c").unwrap();
    let sigma = vec![psi1.clone(), psi2.clone()];
    let phi = NormalCfd::parse(&schema, ["A"], &["a"], "C", "_").unwrap();
    assert!(cfd_core::implies(&sigma, &phi));

    // Reconstruct the derivation (1)-(5) of Example 3.2 with the rules of I.
    let step3 = cfd_core::inference::fd3(&[psi1], &psi2).unwrap().unwrap();
    let a = schema.resolve("A").unwrap();
    let step4 = cfd_core::inference::fd5(&step3, a, cfd_relation::Value::from("a"))
        .unwrap()
        .unwrap();
    let step5 = cfd_core::inference::fd6(&step4).unwrap().unwrap();
    assert_eq!(step5, phi);
    // Soundness of every step w.r.t. the semantic implication.
    for step in [step3, step4, step5] {
        assert!(cfd_core::implies(&sigma, &step));
    }
}

#[test]
fn example_3_3_minimal_cover() {
    let schema = RSchema::builder("R").text("A").text("B").text("C").build();
    let psi1 = NormalCfd::parse(&schema, ["A"], &["_"], "B", "b").unwrap();
    let psi2 = NormalCfd::parse(&schema, ["B"], &["_"], "C", "c").unwrap();
    let phi = NormalCfd::parse(&schema, ["A"], &["a"], "C", "_").unwrap();
    let cover = cfd_core::minimal_cover(&[psi1, psi2, phi]);
    assert_eq!(cover.len(), 2);
    assert!(cover.contains(&NormalCfd::parse(&schema, [], &[], "B", "b").unwrap()));
    assert!(cover.contains(&NormalCfd::parse(&schema, [], &[], "C", "c").unwrap()));
}

#[test]
fn example_4_1_detection_queries_on_fig1() {
    let data = cust_instance();
    let detector = Detector::new();
    let report = detector.detect(&phi2(), &data).unwrap();
    // QC returns t1 and t2 (the 908/NYC tuples).
    assert_eq!(report.constant_violations().len(), 2);
    let nm = cust_schema().resolve("NM").unwrap();
    let names: Vec<_> = report
        .constant_violations()
        .iter()
        .map(|t| t[nm.index()].clone())
        .collect();
    assert!(names.contains(&cfd_relation::Value::from("Mike")));
    assert!(names.contains(&cfd_relation::Value::from("Rick")));
    // The generated SQL has the Fig. 5 shape.
    let (qc, qv) = detector.sql_for(&phi2(), "cust");
    assert!(qc
        .to_string()
        .contains("SELECT t.* FROM cust t, Tp tp WHERE"));
    assert!(qv
        .to_string()
        .contains("HAVING count(distinct t.STR, t.CT, t.ZIP) > 1"));
}

#[test]
fn fig6_to_fig8_merged_tableaux_pipeline() {
    // Merge ϕ3 (with the FD row) and ϕ5 as in Fig. 7, then run the merged
    // query pair; ϕ5 ([CT] → [AC]) is violated by the NYC tuples (Fig. 8).
    let cfds = vec![phi3_with_fd(), phi5()];
    let merged = MergedTableaux::build(&cfds).unwrap();
    assert_eq!(merged.x_attrs(), &["CC", "AC", "CT"]);
    assert_eq!(merged.len(), 4);

    let data = Arc::new(cust_instance());
    let report = Detector::new()
        .detect_set_merged(&cfds, Arc::clone(&data))
        .unwrap();
    assert!(
        report
            .multi_tuple_keys()
            .iter()
            .any(|k| k.contains(&cfd_relation::Value::from("NYC"))),
        "the NYC group must be flagged: {report}"
    );
    // The per-CFD validation agrees on whether violations exist at all.
    let per_cfd = Detector::new().detect_set(&cfds, data).unwrap();
    assert_eq!(per_cfd.is_clean(), report.is_clean());
}

#[test]
fn section6_repair_example_requires_lhs_modification() {
    // attr(R) = (A, B, C); I = {(a1, b1, c1), (a1, b2, c2)};
    // Σ = {(A → B, (_ ‖ _)), (C → B, {(c1, b1), (c2, b2)})}.
    let schema = RSchema::builder("R").text("A").text("B").text("C").build();
    let mut rel = cfd_relation::Relation::new(schema.clone());
    rel.push_values(vec!["a1".into(), "b1".into(), "c1".into()])
        .unwrap();
    rel.push_values(vec!["a1".into(), "b2".into(), "c2".into()])
        .unwrap();
    let sigma = vec![
        Cfd::fd(schema.clone(), ["A"], ["B"]).unwrap(),
        Cfd::builder(schema.clone(), ["C"], ["B"])
            .pattern(["c1"], ["b1"])
            .pattern(["c2"], ["b2"])
            .build()
            .unwrap(),
    ];
    assert!(CfdSet::from_cfds(sigma.clone())
        .unwrap()
        .is_consistent()
        .unwrap());
    assert!(!sigma.iter().all(|c| c.satisfied_by(&rel)));

    let result = Repairer::new().repair(&sigma, &rel);
    assert!(result.satisfied);
    let a = schema.resolve("A").unwrap();
    let c = schema.resolve("C").unwrap();
    assert!(
        result
            .modifications
            .iter()
            .any(|m| m.attr == a || m.attr == c),
        "the paper's example cannot be repaired by RHS-only edits"
    );
}
