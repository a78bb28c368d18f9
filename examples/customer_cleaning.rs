//! The full paper walkthrough on the customer relation: reasoning about the
//! CFDs of Fig. 2 (consistency, implication, minimal cover) and validating
//! several CFDs at once with the merged tableaux of Section 4.2.
//!
//! Run with `cargo run --example customer_cleaning`.

use cfd::prelude::*;
use cfd_core::NormalCfd;
use cfd_datagen::cust::{phi3_with_fd, phi5};
use cfd_sql::{Detector, MergedTableaux};
use std::sync::Arc;

fn main() {
    let schema = cust_schema();
    let data = cust_instance();
    let sigma = cfd_datagen::fig2_cfd_set();

    // --- Reasoning (Section 3) ---------------------------------------------
    println!(
        "Σ (Fig. 2) is consistent: {}",
        sigma.is_consistent().unwrap()
    );

    // Example 3.2: {ψ1 = (A→B, (_‖b)), ψ2 = (B→C, (_‖c))} ⊨ (A→C, (a‖_)).
    let abc = cfd_relation::Schema::builder("R")
        .text("A")
        .text("B")
        .text("C")
        .build();
    let psi1 = NormalCfd::parse(&abc, ["A"], &["_"], "B", "b").unwrap();
    let psi2 = NormalCfd::parse(&abc, ["B"], &["_"], "C", "c").unwrap();
    let phi = NormalCfd::parse(&abc, ["A"], &["a"], "C", "_").unwrap();
    println!(
        "Example 3.2: {{ψ1, ψ2}} ⊨ ({phi})?  {}",
        cfd_core::implies(&[psi1.clone(), psi2.clone()], &phi)
    );

    // Example 3.3: the minimal cover of {ψ1, ψ2, ϕ} is {(∅→B, b), (∅→C, c)}.
    let cover = cfd_core::minimal_cover(&[psi1, psi2, phi]);
    println!("Example 3.3 minimal cover:");
    for c in &cover {
        println!("  {c}");
    }

    // The Fig. 2 set itself also shrinks a little when covered.
    let fig2_cover = sigma.minimal_cover().unwrap();
    println!(
        "Fig. 2 set: {} pattern rows; minimal cover: {} pattern rows",
        sigma.total_patterns(),
        fig2_cover.total_patterns()
    );

    // --- Merged detection (Section 4.2) -------------------------------------
    let cfds = vec![phi3_with_fd(), phi5()];
    let merged = MergedTableaux::build(&cfds).unwrap();
    println!(
        "\nMerged tableaux (Fig. 7): T^X_Σ =\n{}",
        merged.x_relation("TX")
    );
    println!("T^Y_Σ =\n{}", merged.y_relation("TY"));

    let detector = Detector::new();
    let report = detector
        .detect_set_merged(&cfds, Arc::new(data.clone()))
        .unwrap();
    println!("Merged detection on Fig. 1:\n{report}");

    // --- Repair through a prepared session ----------------------------------
    let engine = Engine::builder()
        .rule_set(sigma)
        .build()
        .expect("the Fig. 2 set is consistent");
    let mut session = engine
        .session(std::sync::Arc::new(data))
        .expect("schema matches");
    let repair = session.repair(RepairKind::EquivClass).expect("repair runs");
    println!(
        "Repair of Fig. 1 w.r.t. Fig. 2: {} change(s), satisfied = {}",
        repair.changes(),
        repair.satisfied
    );
    let _ = schema;
}
