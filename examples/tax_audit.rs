//! Auditing a synthetic tax-records table — the workload of the paper's
//! evaluation: first with the paper's SQL query pairs (`cfd_sql::Detector`), then
//! through the prepared `Engine`/`Session` API — validate the constraint
//! set once, serve detection with several engines, stream a
//! batch of late-arriving records with incremental maintenance, then
//! repair and re-validate from the same handle.
//!
//! Run with `cargo run --release --example tax_audit`.

use cfd::prelude::*;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::Detector;
use std::sync::Arc;
use std::time::Instant;

/// Runs one detection and prints how long it took and what it found.
fn timed(name: &str, detect: impl FnOnce() -> Violations) {
    let start = Instant::now();
    let report = detect();
    println!(
        "{name} detection: {:?}, {} findings",
        start.elapsed(),
        report.total()
    );
}

fn main() {
    // 20K tax records, 5% of which carry an injected error.
    let generated = TaxGenerator::new(TaxConfig {
        size: 20_000,
        noise_percent: 5.0,
        seed: 2026,
    })
    .generate();
    println!(
        "generated {} tax records, {} of them dirty",
        generated.relation.len(),
        generated.dirty_rows.len()
    );

    // The constraints of Section 5: zip→state, zip+city→state, area-code→city,
    // state+marital-status→exemption, plus state+salary→tax-rate.
    let workload = CfdWorkload::new(7);
    let cfds = [
        workload.zip_state_full(),
        workload.single(EmbeddedFd::ZipCityToState, 500, 100.0),
        workload.single(EmbeddedFd::AreaToCity, 400, 100.0),
        workload.single(EmbeddedFd::StateMaritalToExemption, 100, 100.0),
        workload.single(EmbeddedFd::StateSalaryToTax, 50, 100.0),
    ];
    let data = Arc::new(generated.relation);

    // The paper's detection (Section 4), run as SQL on the in-memory
    // engine: per-CFD query pairs (2 × |Σ| passes) and the merged pair
    // (2 passes).
    let sql = Detector::new();
    timed("per-CFD SQL", || {
        sql.detect_set(&cfds, Arc::clone(&data)).unwrap()
    });
    timed("merged SQL", || {
        sql.detect_set_merged(&cfds, Arc::clone(&data)).unwrap()
    });

    // The serving engines over the one scan kernel: the direct scan and the
    // cost-based planner, one engine per kind sharing the validated rules.
    for kind in [DetectorKind::Direct, DetectorKind::Auto] {
        let engine = Engine::builder()
            .rules(cfds.iter().cloned())
            .config(EngineConfig::builder().detector(kind).build().unwrap())
            .build()
            .expect("consistent rules");
        let mut session = engine.session(Arc::clone(&data)).unwrap();
        timed(&format!("{kind:?}"), || {
            session.detect().expect("detection succeeds")
        });
    }

    // The serving path: one prepared engine, one session, streamed updates.
    let engine = Engine::builder()
        .rules(cfds.iter().cloned())
        .build()
        .expect("consistent rules");
    let mut session = engine.session(Arc::clone(&data)).unwrap();

    let late = TaxGenerator::new(TaxConfig {
        size: 500,
        noise_percent: 10.0,
        seed: 2027,
    })
    .generate();
    let batch: Vec<BatchOp> = late
        .relation
        .to_tuples()
        .into_iter()
        .map(BatchOp::Insert)
        .collect();
    let start = Instant::now();
    let after_batch = session.apply_batch(&batch).expect("batch applies");
    println!(
        "streamed {} late records in {:?} (group-local maintenance), report now {} findings",
        batch.len(),
        start.elapsed(),
        after_batch.total()
    );

    // Repair and re-validate from the same handle. The session's shared LHS
    // indexes feed the equivalence-class engine's dirty-group tracking.
    let start = Instant::now();
    let repair = session.repair(RepairKind::EquivClass).expect("repair runs");
    println!(
        "repair: {} cell change(s) in {:?}, cost {:.1}, satisfied afterwards: {}",
        repair.changes(),
        start.elapsed(),
        repair.cost,
        repair.satisfied
    );
    let clean = engine
        .detect(Arc::new(repair.repaired))
        .expect("re-validation succeeds");
    println!("violations after repair: {}", clean.total());
}
