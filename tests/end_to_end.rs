//! End-to-end pipeline tests on the tax-records workload:
//! generate → reason about Σ → detect (SQL per-CFD, SQL merged, direct) →
//! repair → re-detect, plus discovery on clean data.

use cfd::prelude::*;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_detect::DirectDetector;
use cfd_discovery::{discover_constant_cfds, DiscoveryConfig};
use cfd_sql::Detector;
use std::sync::Arc;

fn workload_cfds() -> Vec<Cfd> {
    let w = CfdWorkload::new(101);
    vec![
        w.zip_state_full(),
        w.single(EmbeddedFd::ZipCityToState, 150, 100.0),
        w.single(EmbeddedFd::AreaToCity, 150, 100.0),
        w.single(EmbeddedFd::StateMaritalToExemption, 60, 100.0),
    ]
}

#[test]
fn clean_data_passes_and_noisy_data_fails_validation() {
    let cfds = workload_cfds();
    let clean = TaxGenerator::new(TaxConfig {
        size: 1_500,
        noise_percent: 0.0,
        seed: 5,
    })
    .generate()
    .relation;
    let noisy = TaxGenerator::new(TaxConfig {
        size: 1_500,
        noise_percent: 8.0,
        seed: 5,
    })
    .generate();

    let detector = Detector::new();
    let clean_report = detector.detect_set(&cfds, Arc::new(clean)).unwrap();
    assert!(
        clean_report.is_clean(),
        "clean data must validate: {clean_report}"
    );

    let noisy_report = detector
        .detect_set(&cfds, Arc::new(noisy.relation.clone()))
        .unwrap();
    assert!(!noisy_report.is_clean(), "noise must be detected");

    // Every reported single-tuple violation corresponds to an injected error:
    // its row must be one of the generator's dirty rows.
    let dirty: std::collections::HashSet<cfd_relation::Tuple> = noisy
        .dirty_rows
        .iter()
        .map(|&i| noisy.relation.row(i).unwrap().to_tuple())
        .collect();
    for tuple in noisy_report.constant_violations() {
        let as_tuple = cfd_relation::Tuple::new(tuple.clone());
        assert!(
            dirty.contains(&as_tuple),
            "reported violation is not an injected error: {as_tuple}"
        );
    }
}

#[test]
fn workload_constraint_set_is_consistent_and_coverable() {
    // A scaled-down version of the workload set: MinCover's implication
    // checks are cubic in |Σ| (Section 3.3), so the full 1 200-row zip→state
    // tableau would make this test needlessly slow in debug builds.
    let w = CfdWorkload::new(101);
    let cfds = vec![
        w.single(EmbeddedFd::ZipToState, 40, 100.0),
        w.single(EmbeddedFd::ZipCityToState, 40, 100.0),
        w.single(EmbeddedFd::AreaToCity, 40, 100.0),
        w.single(EmbeddedFd::StateMaritalToExemption, 20, 100.0),
    ];
    let set = CfdSet::from_cfds(cfds).unwrap();
    assert!(set.is_consistent().unwrap());
    let cover = set.minimal_cover().unwrap();
    assert!(set.equivalent_to(&cover).unwrap());
    assert!(cover.total_patterns() <= set.normalize().unwrap().len());
}

#[test]
fn per_cfd_merged_and_direct_detection_agree_on_findings() {
    let cfds = workload_cfds();
    let noisy = TaxGenerator::new(TaxConfig {
        size: 1_200,
        noise_percent: 6.0,
        seed: 9,
    })
    .generate()
    .relation;
    let shared = Arc::new(noisy.clone());
    let detector = Detector::new();

    let per_cfd = detector.detect_set(&cfds, Arc::clone(&shared)).unwrap();
    let merged = detector
        .detect_set_merged(&cfds, Arc::clone(&shared))
        .unwrap();
    let direct = DirectDetector::new().detect_set(&cfds, &noisy);

    assert_eq!(per_cfd, direct);
    assert_eq!(per_cfd.constant_violations(), merged.constant_violations());
    assert_eq!(per_cfd.is_clean(), merged.is_clean());
}

#[test]
fn repair_then_revalidate_is_clean() {
    let cfds = workload_cfds();
    let noisy = TaxGenerator::new(TaxConfig {
        size: 800,
        noise_percent: 10.0,
        seed: 13,
    })
    .generate();
    let result = Repairer::new().repair(&cfds, &noisy.relation);
    assert!(result.satisfied, "repair must converge on the tax workload");
    assert!(result.changes() > 0);

    let after = Detector::new()
        .detect_set(&cfds, Arc::new(result.repaired.clone()))
        .unwrap();
    assert!(
        after.is_clean(),
        "no violations may remain after repair: {after}"
    );
    // The repair should not touch vastly more cells than the injected noise
    // (each dirty row has exactly one corrupted cell).
    assert!(result.changes() <= noisy.dirty_rows.len() * 3 + 3);
}

#[test]
fn discovery_rediscovers_workload_rules_and_they_validate_clean_data() {
    let clean = TaxGenerator::new(TaxConfig {
        size: 1_000,
        noise_percent: 0.0,
        seed: 17,
    })
    .generate()
    .relation;
    let config = DiscoveryConfig {
        max_lhs_size: 1,
        min_support: 2,
        min_confidence: 1.0,
    };
    let mined = discover_constant_cfds(&clean, &config);
    let zip_state = mined
        .iter()
        .find(|d| d.cfd.lhs_names() == vec!["ZIP"] && d.cfd.rhs_names() == vec!["ST"])
        .expect("zip -> state patterns rediscovered");
    // The discovered constraint holds on the data it was mined from...
    assert!(Detector::new()
        .detect(&zip_state.cfd, &clean)
        .unwrap()
        .is_clean());
    // ...and flags errors on a noisy instance.
    let noisy = TaxGenerator::new(TaxConfig {
        size: 1_000,
        noise_percent: 10.0,
        seed: 18,
    })
    .generate()
    .relation;
    let report = Detector::new().detect(&zip_state.cfd, &noisy).unwrap();
    assert!(!report.is_clean());
}

#[test]
fn csv_round_trip_preserves_detection_results() {
    let cfds = workload_cfds();
    let noisy = TaxGenerator::new(TaxConfig {
        size: 400,
        noise_percent: 10.0,
        seed: 23,
    })
    .generate()
    .relation;
    let text = cfd_relation::csv::to_csv(&noisy);
    let back = cfd_relation::csv::from_csv(noisy.schema(), &text).unwrap();
    assert_eq!(back, noisy);
    let a = Detector::new().detect_set(&cfds, Arc::new(noisy)).unwrap();
    let b = Detector::new().detect_set(&cfds, Arc::new(back)).unwrap();
    assert_eq!(a, b);
}
