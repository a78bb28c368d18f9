//! A direct, hash-based violation detector.
//!
//! This detector computes exactly what the `QC`/`QV` SQL queries of Section 4
//! compute, but without going through the SQL layer: it groups tuples in one
//! pass per CFD over the vectorized [`kernels`](crate::kernels). It is the
//! serving fast path, and an **independent counterpart** of the SQL-based
//! `Detector` of the `cfd-sql` crate — the differential harness asserts that
//! both return identical reports on arbitrary data.

use crate::groups::GroupEval;
use crate::kernels::{scan_group, ScanScratch};
use crate::report::Violations;
use cfd_core::{Cfd, PatternValue};
use cfd_relation::{Index, Relation, ValueId};

/// The group-driven `QC`+`QV` scan over a **prebuilt** LHS [`Index`] — the
/// prepared-engine counterpart of [`DirectDetector::detect`], consumed by a
/// serving session that builds its per-CFD indexes once and shares them
/// between detection and the repair engine's dirty-group tracking.
///
/// Every index group goes through the one group evaluator
/// ([`groups`](crate::groups)), so the report is byte-identical to
/// [`DirectDetector::detect`] on every tableau (the detector-equivalence
/// tests pin it). Grouping costs nothing at detection time — it was paid when
/// the index was built — so a repeated detection over an unchanged instance
/// is `O(|Tp| × #groups + |I_matched|)` with no hashing at all.
///
/// When **every** pattern row is constant on the whole LHS, only the keys
/// spelled out in the tableau can match any pattern at all, so the scan
/// probes those keys directly instead of iterating the index —
/// `O(|Tp| + |I_matched|)`, independent of the group count.
///
/// `index` must cover `cfd.lhs()` in LHS order and be in sync with `rel`.
pub fn detect_with_index(cfd: &Cfd, rel: &Relation, index: &Index) -> Violations {
    debug_assert_eq!(
        index.attrs(),
        cfd.lhs(),
        "the index must cover the CFD's LHS attributes in order"
    );
    let mut eval = GroupEval::new(cfd, rel);
    let mut out = Violations::new();
    // `Some` iff every LHS cell of every pattern row is a constant: the
    // tableau's own keys (a duplicate would only re-insert into the report's
    // ordered sets, but the work is pointless).
    let constant_keys: Option<Vec<Vec<ValueId>>> = cfd
        .tableau()
        .iter()
        .map(|p| p.lhs().iter().map(PatternValue::const_id).collect())
        .collect();
    match constant_keys {
        Some(mut keys) => {
            keys.sort_unstable();
            keys.dedup();
            for key in &keys {
                eval.report(key, index.lookup_ids(key), &mut out);
            }
        }
        None => {
            for (key, rows) in index.iter() {
                eval.report(key, rows, &mut out);
            }
        }
    }
    out
}

/// Stateless direct detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectDetector;

impl DirectDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        DirectDetector
    }

    /// Detects violations of one CFD, reporting the same items as the SQL
    /// query pair: full tuples for single-tuple violations, `X`-projection
    /// keys for multi-tuple violations.
    ///
    /// Entirely interned and columnar: pattern matching, grouping and the
    /// distinct-`Y` tracking all work on [`ValueId`]s (`u32` compares and
    /// hashes) read straight from the `X ∪ Y` column slices; values are
    /// resolved only when a finding enters the report. The scan itself is
    /// the vectorized block kernel
    /// ([`scan_group`]), shared with the
    /// sharded workers and the adaptive planner.
    pub fn detect(&self, cfd: &Cfd, rel: &Relation) -> Violations {
        self.detect_set(std::slice::from_ref(cfd), rel)
    }

    /// Detects violations of a set of CFDs by running the vectorized scan
    /// per CFD into one report, reusing one
    /// [`ScanScratch`] across the whole set —
    /// equal to merging per-CFD [`DirectDetector::detect`] reports.
    pub fn detect_set(&self, cfds: &[Cfd], rel: &Relation) -> Violations {
        let mut out = Violations::new();
        let mut scratch = ScanScratch::new();
        for cfd in cfds {
            scan_group(&[cfd], rel, None, &mut scratch, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, phi1, phi2, phi3_with_fd};
    use cfd_relation::{AttrId, Value};

    #[test]
    fn example_4_1_qc_part() {
        let v = DirectDetector::new().detect(&phi2(), &cust_instance());
        // t1 and t2 are the constant violations (city should be MH for 908).
        assert_eq!(v.constant_violations().len(), 2);
        assert!(v
            .constant_violations()
            .iter()
            .all(|t| t.contains(&Value::from("908")) && t.contains(&Value::from("NYC"))));
        // No group with the same (CC, AC, PN) has two distinct (STR, CT, ZIP).
        assert!(v.multi_tuple_keys().is_empty());
    }

    #[test]
    fn multi_tuple_group_detection() {
        let mut rel = cust_instance();
        // Give Rick a different street: the (01, 908, 1111111) group now has
        // two distinct Y projections.
        rel.set_value(1, AttrId(4), Value::from("Other Ave."));
        let v = DirectDetector::new().detect(&phi2(), &rel);
        assert_eq!(v.multi_tuple_keys().len(), 1);
        let key = v.multi_tuple_keys().iter().next().unwrap();
        assert_eq!(
            key,
            &vec![
                Value::from("01"),
                Value::from("908"),
                Value::from("1111111")
            ]
        );
    }

    #[test]
    fn clean_cfds_report_nothing() {
        let rel = cust_instance();
        assert!(DirectDetector::new().detect(&phi1(), &rel).is_clean());
        assert!(DirectDetector::new()
            .detect(&phi3_with_fd(), &rel)
            .is_clean());
    }

    #[test]
    fn detect_set_merges_reports() {
        let rel = cust_instance();
        let v = DirectDetector::new().detect_set(&[phi1(), phi2(), phi3_with_fd()], &rel);
        assert_eq!(v.constant_violations().len(), 2);
    }

    #[test]
    fn index_driven_detection_matches_the_row_scan() {
        use cfd_datagen::records::{TaxConfig, TaxGenerator};
        use cfd_datagen::{CfdWorkload, EmbeddedFd};
        let noisy = TaxGenerator::new(TaxConfig {
            size: 700,
            noise_percent: 9.0,
            seed: 51,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(2);
        for (fd, tab, consts) in [
            (EmbeddedFd::ZipToState, 80, 100.0),
            (EmbeddedFd::AreaToCity, 60, 40.0),
            (EmbeddedFd::StateMaritalToExemption, 40, 0.0),
        ] {
            let cfd = workload.single(fd, tab, consts);
            let index = noisy.build_index(cfd.lhs());
            let via_index = detect_with_index(&cfd, &noisy, &index);
            let via_scan = DirectDetector::new().detect(&cfd, &noisy);
            assert_eq!(via_index, via_scan, "{fd:?}");
            assert_eq!(via_index.canonical_bytes(), via_scan.canonical_bytes());
        }
        // And on the running example, multi-tuple keys included.
        let mut rel = cust_instance();
        rel.set_value(1, AttrId(4), Value::from("Other Ave."));
        let cfd = phi2();
        let index = rel.build_index(cfd.lhs());
        assert_eq!(
            detect_with_index(&cfd, &rel, &index),
            DirectDetector::new().detect(&cfd, &rel)
        );
    }

    #[test]
    fn all_constant_tableaux_probe_instead_of_iterating() {
        // Every pattern row fully constant on the LHS: the index path must
        // take the key-probe branch — including duplicate tableau keys and
        // constants absent from the data — and still report byte-identically
        // to the full scan.
        let rel = cust_instance();
        let schema = rel.schema().clone();
        let cfd = Cfd::builder(schema, ["CC", "ZIP"], ["STR", "CT"])
            .pattern(["01", "07974"], ["_", "NJC"])
            .pattern(["01", "07974"], ["Tree Ave.", "_"]) // duplicate key
            .pattern(["01", "99999"], ["_", "AK"]) // key not in the data
            .pattern(["44", "EH4 1DT"], ["_", "EDI"])
            .build()
            .unwrap();
        assert!(cfd
            .tableau()
            .iter()
            .all(|p| p.lhs().iter().all(cfd_core::PatternValue::is_const)));
        let index = rel.build_index(cfd.lhs());
        let probed = detect_with_index(&cfd, &rel, &index);
        let scanned = DirectDetector::new().detect(&cfd, &rel);
        assert_eq!(probed, scanned);
        assert_eq!(probed.canonical_bytes(), scanned.canonical_bytes());
    }

    #[test]
    fn index_driven_detection_tracks_maintained_indexes() {
        // Edit a cell, maintain the index, re-detect through the same index.
        let mut rel = cust_instance();
        let cfd = phi2();
        let mut index = rel.build_index(cfd.lhs());
        assert_eq!(
            detect_with_index(&cfd, &rel, &index)
                .constant_violations()
                .len(),
            2
        );
        let ct = rel.schema().resolve("CT").unwrap();
        for row in [0usize, 1] {
            let old = rel.row(row).unwrap().to_ids();
            rel.set_value(row, ct, Value::from("MH"));
            let new = rel.row(row).unwrap().to_ids();
            index.remove_row(row, &old);
            index.insert_row(row, &new);
        }
        assert!(detect_with_index(&cfd, &rel, &index).is_clean());
    }
}
