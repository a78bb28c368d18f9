//! Integration tests of the prepared `Engine`/`Session` lifecycle: serving
//! equivalence with the one-shot paths, streaming through `apply_batch`,
//! and the `explain` provenance accessor on the paper's running example.

use cfd::prelude::*;
use cfd_core::{ViolationKind, WitnessCells};
use cfd_datagen::cust::{fig2_cfd_set, phi2};
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_relation::AttrId;
use cfd_sql::Detector;
use std::sync::Arc;

fn tax_cfds(seed: u64) -> Vec<Cfd> {
    let w = CfdWorkload::new(seed);
    vec![
        w.single(EmbeddedFd::ZipToState, 100, 100.0),
        w.single(EmbeddedFd::AreaToCity, 80, 60.0),
    ]
}

fn noisy_tax(rows: usize, seed: u64) -> Relation {
    TaxGenerator::new(TaxConfig {
        size: rows,
        noise_percent: 8.0,
        seed,
    })
    .generate()
    .relation
}

#[test]
fn session_detect_matches_one_shot_for_every_detector_kind() {
    let cfds = tax_cfds(21);
    let data = Arc::new(noisy_tax(600, 7));
    let dir = std::env::temp_dir().join(format!("cfd-engine-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for kind in DetectorKind::all(3) {
        let engine = Engine::builder()
            .rules(cfds.iter().cloned())
            .config(EngineConfig::builder().detector(kind).build().unwrap())
            .build()
            .unwrap();
        let mut session = engine.session(Arc::clone(&data)).unwrap();
        let prepared = session.detect().unwrap();
        let oneshot = kind.detect_set(&cfds, &data);
        assert_eq!(prepared, oneshot, "kind {kind:?}");
        assert_eq!(
            prepared.canonical_bytes(),
            oneshot.canonical_bytes(),
            "kind {kind:?} rendered bytes"
        );
        // A second detect re-uses the prepared state and must not drift.
        assert_eq!(session.detect().unwrap(), oneshot, "kind {kind:?} again");
        // The same rows behind a disk-backed session (populated by the
        // first kind, reopened by the others).
        let mut on_disk = engine.session_on_disk(&dir).unwrap();
        if on_disk.is_empty() {
            let rows: Vec<BatchOp> = data.to_tuples().into_iter().map(BatchOp::Insert).collect();
            on_disk.ingest(&rows).unwrap();
        }
        assert_eq!(
            on_disk.detect().unwrap().canonical_bytes(),
            oneshot.canonical_bytes(),
            "kind {kind:?} on disk"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The paper's SQL query pairs — reached through `cfd_sql::Detector`,
    // not through a session — against the same oracle: per-CFD byte for
    // byte, merged on its documented guarantee (`QV` keys over the merged
    // `X` union: identical `QC` component, agreeing emptiness).
    let oracle = DetectorKind::Direct.detect_set(&cfds, &data);
    let sql = Detector::new();
    let per_cfd = sql.detect_set(&cfds, Arc::clone(&data)).unwrap();
    assert_eq!(per_cfd.canonical_bytes(), oracle.canonical_bytes());
    let merged = sql.detect_set_merged(&cfds, Arc::clone(&data)).unwrap();
    assert_eq!(merged.constant_violations(), oracle.constant_violations());
    assert_eq!(merged.is_clean(), oracle.is_clean());
}

#[test]
fn session_repair_matches_one_shot_and_does_not_mutate() {
    let cfds = tax_cfds(33);
    let data = Arc::new(noisy_tax(400, 13));
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .unwrap();
    let mut session = engine.session(Arc::clone(&data)).unwrap();
    let before = session.detect().unwrap();
    assert!(!before.is_clean());
    for kind in [RepairKind::EquivClass, RepairKind::Heuristic] {
        let prepared = session.repair(kind).unwrap();
        let oneshot = cfd::repair_violations(kind, &cfds, Arc::clone(&data)).unwrap();
        assert_eq!(prepared.modifications, oneshot.modifications, "{kind:?}");
        assert_eq!(prepared.repaired, oneshot.repaired, "{kind:?}");
        assert_eq!(prepared.cost, oneshot.cost, "{kind:?}");
        assert_eq!(prepared.passes, oneshot.passes, "{kind:?}");
        assert!(prepared.satisfied, "{kind:?}");
        // The session still serves the *unrepaired* snapshot.
        assert_eq!(session.detect().unwrap(), before, "{kind:?}");
    }
}

#[test]
fn streamed_batches_serve_the_same_reports_as_from_scratch_detection() {
    let cfds = tax_cfds(55);
    let schema = noisy_tax(1, 1).schema().clone();
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .unwrap();
    let mut session = engine
        .session(Arc::new(Relation::new(schema.clone())))
        .unwrap();

    let all = noisy_tax(900, 99);
    let tuples = all.to_tuples();
    let mut accumulated = Relation::new(schema);
    for chunk in tuples.chunks(300) {
        let ops: Vec<BatchOp> = chunk.iter().cloned().map(BatchOp::Insert).collect();
        let streamed = session.apply_batch(&ops).unwrap();
        for t in chunk {
            accumulated.push(t.clone()).unwrap();
        }
        let scratch =
            cfd::detect_violations(DetectorKind::Direct, &cfds, Arc::new(accumulated.clone()))
                .unwrap();
        assert_eq!(streamed, scratch, "maintained report after batch");
        // The session's configured detector agrees on the refreshed snapshot.
        assert_eq!(session.detect().unwrap(), scratch);
        assert_eq!(session.len(), accumulated.len());
    }
    assert!(!session.detect().unwrap().is_clean(), "noise must surface");

    // Deletions stream too: removing every tuple empties the report.
    let ops: Vec<BatchOp> = tuples.into_iter().map(BatchOp::Delete).collect();
    let after = session.apply_batch(&ops).unwrap();
    assert!(after.is_clean());
    assert!(session.is_empty());
}

#[test]
fn previews_answer_without_mutating_the_session() {
    let engine = Engine::builder().rule(phi2()).build().unwrap();
    let mut session = engine.session(Arc::new(cust_instance())).unwrap();
    let before = session.detect().unwrap();

    // A tuple violating ϕ2's (01, 908, _ ‖ _, MH, _) pattern.
    let bad = Tuple::new(
        ["01", "908", "9999999", "Eve", "Pine St.", "NYC", "07974"]
            .iter()
            .map(|s| Value::from(*s))
            .collect(),
    );
    let preview = session
        .preview_insertions(std::slice::from_ref(&bad))
        .unwrap();
    assert_eq!(preview.constant_violations().len(), 1);

    // Deleting t1 resolves its QC violation.
    let t1 = cust_instance().row(0).unwrap().to_tuple();
    let resolved = session
        .preview_deletions(std::slice::from_ref(&t1))
        .unwrap();
    assert_eq!(resolved.constant_violations().len(), 1);

    // Neither preview changed the served instance.
    assert_eq!(session.detect().unwrap(), before);
    assert_eq!(session.len(), 6);
}

/// The satellite requirement: `explain` on the Fig. 2 `cust` example —
/// violating pattern tuple, witness cells, and the chosen class target with
/// its cost.
#[test]
fn explain_reports_pattern_cells_and_repair_targets_on_fig2() {
    let engine = Engine::builder().rule_set(fig2_cfd_set()).build().unwrap();
    let mut session = engine.session(Arc::new(cust_instance())).unwrap();
    let report = session.detect().unwrap();
    assert_eq!(report.constant_violations().len(), 2);

    let ct = cust_schema().resolve("CT").unwrap();
    let mut explained = 0usize;
    for item in report.items() {
        let explanations = session.explain(&item).unwrap();
        assert!(!explanations.is_empty(), "every finding has provenance");
        for e in &explanations {
            explained += 1;
            // ϕ2 is the only violated CFD of the Fig. 2 set…
            assert_eq!(e.cfd_index, 1, "only ϕ2 is violated");
            assert_eq!(e.kind, ViolationKind::SingleTuple);
            // …on its (01, 908, _ ‖ _, MH, _) pattern row.
            assert_eq!(e.pattern_index, 0);
            assert_eq!(
                e.pattern.lhs()[1].const_id().unwrap().resolve().to_string(),
                "908"
            );
            assert!(e.rows == vec![0] || e.rows == vec![1], "t1 or t2");
            // Witness cells pin CT to the pattern constant MH.
            let WitnessCells { pins, merges } = &e.cells;
            assert!(merges.is_empty());
            assert!(pins
                .iter()
                .any(|&(_, attr, target)| attr == ct && target.resolve() == &Value::from("MH")));
            // The planned edit: CT → MH at unit cost (the cell reads NYC).
            let edit = e
                .planned
                .iter()
                .find(|p| p.attr == ct)
                .expect("a CT edit is planned");
            assert_eq!(edit.target, Value::from("MH"));
            assert!((edit.cost - 1.0).abs() < 1e-9, "unit distance, weight 1");
        }
    }
    assert_eq!(explained, 2, "one explanation per violating tuple");
}

#[test]
fn explain_reports_class_targets_for_multi_tuple_keys() {
    // Give Rick a different street: the (01, 908, 1111111) group now has two
    // distinct Y projections under ϕ2's wildcard pattern.
    let mut rel = cust_instance();
    rel.set_value(1, AttrId(4), Value::from("Other Ave."));
    let engine = Engine::builder().rule(phi2()).build().unwrap();
    let mut session = engine.session(Arc::new(rel)).unwrap();
    let report = session.detect().unwrap();
    assert_eq!(report.multi_tuple_keys().len(), 1);

    let key = report
        .items()
        .find(|i| matches!(i, ViolationItem::MultiTupleKey(_)))
        .unwrap();
    let explanations = session.explain(&key).unwrap();
    assert!(!explanations.is_empty());
    let e = explanations
        .iter()
        .find(|e| e.kind == ViolationKind::MultiTuple)
        .expect("a multi-tuple witness");
    assert_eq!(e.rows, vec![0, 1], "t1 and t2 form the group");
    // The STR class must merge rows {0, 1}; the cost-minimal target is the
    // smaller resolved value ("Other Ave." < "Tree Ave.") at unit cost 1.
    let str_attr = AttrId(4);
    assert!(e
        .cells
        .merges
        .iter()
        .any(|(a, rows)| *a == str_attr && rows == &vec![0, 1]));
    let edit = e
        .planned
        .iter()
        .find(|p| p.attr == str_attr)
        .expect("a planned STR edit");
    assert_eq!(edit.target, Value::from("Other Ave."));
    assert!((edit.cost - 1.0).abs() < 1e-9);

    // A key produced by no rule explains to nothing.
    let ghost = ViolationItem::MultiTupleKey(vec![Value::from("no"), Value::from("such")]);
    assert!(session.explain(&ghost).unwrap().is_empty());
}

/// Detection reads `@` as `_` over the full LHS, and `explain` must read it
/// the same way: t1 and t2 differ only on the `@`-masked ZIP, which the
/// oracle's effective-attribute grouping would not call a violation.
#[test]
fn explain_reads_dont_care_cfds_the_way_detection_reports_them() {
    let mut rel = cust_instance();
    rel.set_value(1, AttrId(6), Value::from("00000"));
    let masked = Cfd::builder(cust_schema(), ["CC", "AC"], ["CT", "ZIP"])
        .pattern(["01", "908"], ["_", "@"])
        .build()
        .unwrap();
    assert!(masked.has_dont_care() && masked.violations(&rel).is_empty());
    let engine = Engine::builder().rule(masked).build().unwrap();
    let mut session = engine.session(Arc::new(rel)).unwrap();
    let report = session.detect().unwrap();
    assert_eq!(report.multi_tuple_keys().len(), 1);
    for item in report.items() {
        let explanations = session.explain(&item).unwrap();
        assert_eq!(explanations.len(), 1, "{item:?}");
        assert_eq!(explanations[0].kind, ViolationKind::MultiTuple);
        assert_eq!(explanations[0].rows, vec![0, 1], "the full-LHS group");
    }
}

#[test]
fn sessions_move_across_threads_and_share_one_engine() {
    let cfds = tax_cfds(77);
    let data = Arc::new(noisy_tax(500, 3));
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .unwrap();
    let reference = engine.session(Arc::clone(&data)).unwrap().detect().unwrap();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let engine = engine.clone();
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                let mut session = engine.session(data).unwrap();
                session.detect().unwrap()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), reference);
    }
}
