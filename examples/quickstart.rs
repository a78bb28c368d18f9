//! Quickstart: compile CFDs into an `Engine` once, open a `Session` over
//! the data, detect, explain the findings, and repair — the prepared
//! lifecycle the facade is built around.
//!
//! Run with `cargo run --example quickstart`.

use cfd::prelude::*;
use cfd_sql::Detector;
use std::sync::Arc;

fn main() {
    // The cust relation of Fig. 1 and the CFDs of Fig. 2.
    let data = Arc::new(cust_instance());
    println!("== data ==\n{data}");

    // 1. Compile the rule set once: schema-checked, consistency-validated
    //    (Section 3), detection queries generated (Section 4). The engine is
    //    immutable and Send + Sync — share it across threads freely.
    let engine = Engine::builder()
        .rule_set(cfd::datagen::fig2_cfd_set())
        .config(
            EngineConfig::builder()
                .detector(DetectorKind::Direct)
                .repair_kind(RepairKind::EquivClass)
                .build()
                .expect("valid configuration"),
        )
        .build()
        .expect("consistent rule set");
    println!("== rules ==\n{}", engine.rules());

    // 2. The SQL a relational backend would run for ϕ2 (Fig. 5): the
    //    paper's reproduction path, a crate of its own beside the facade.
    let (qc, qv) = Detector::new().sql_for(&engine.rules().cfds()[1], "cust");
    println!("== generated SQL for phi2 ==\nQC: {qc}\nQV: {qv}");

    // 3. Serve the dataset: one session holds the per-dataset state (LHS
    //    indexes, prepared plans) and answers detect/explain/repair.
    let mut session = engine.session(Arc::clone(&data)).expect("schema matches");
    let report = session.detect().expect("detection succeeds");
    println!("== violations ==\n{report}");

    // 4. Provenance: which pattern is violated, and what a repair would do.
    for item in report.items() {
        for e in session.explain(&item).expect("explain succeeds") {
            println!(
                "row(s) {:?} violate {} pattern #{}; planned: {}",
                e.rows,
                e.cfd_name.as_deref().unwrap_or("?"),
                e.pattern_index,
                e.planned
                    .iter()
                    .map(|p| format!("set attr {} to {} (cost {:.1})", p.attr, p.target, p.cost))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
    }

    // 5. Repair by value modification (Section 6), through the same handle.
    let repair = session.repair(RepairKind::EquivClass).expect("repair runs");
    println!(
        "\n== repair ==\n{} change(s), cost {:.1}, satisfied afterwards: {}",
        repair.changes(),
        repair.cost,
        repair.satisfied
    );
    for m in &repair.modifications {
        println!("  {m}");
    }
}
