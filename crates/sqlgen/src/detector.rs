//! The SQL-based detector of Section 4 — the paper's `QC`/`QV` query pairs
//! run on the in-memory engine, per CFD or merged.
//!
//! [`Detector`] is the reproduction artefact and the differential reference:
//! the Fig. 9 benches and the differential harness call it directly. It is
//! deliberately **not** a [`cfd_detect::DetectorKind`]: the SQL path is
//! 55–460× behind the direct scan on every planner workload, so a serving
//! `Session` never dispatches to it.

use crate::merge::MergedTableaux;
use crate::merged::{self, TableauSource};
use crate::single;
use crate::{Catalog, ExecStats, Executor, Result, SelectQuery, SqlError, Strategy};
use cfd_core::Cfd;
use cfd_detect::Violations;
use cfd_relation::{Relation, Value};
use std::sync::Arc;

/// Execution counters for one detection run (one CFD or one merged set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Counters of the `QC` (constant-violation) query.
    pub qc: ExecStats,
    /// Counters of the `QV` (multi-tuple) query.
    pub qv: ExecStats,
}

/// Internal catalog names used by the detector.
const DATA_NAME: &str = "__data";
const TABLEAU_NAME: &str = "__tableau";
const JOINED_NAME: &str = "__tableau_xy";
const TX_NAME: &str = "__tableau_x";
const TY_NAME: &str = "__tableau_y";

/// Folds the result rows of a `QC`/`QV` query pair into a report.
fn report(qc: &[Vec<Value>], qv: &[Vec<Value>]) -> Violations {
    let mut out = Violations::new();
    for row in qc {
        out.add_constant_violation(row.clone());
    }
    for row in qv {
        out.add_multi_tuple_key(row.clone());
    }
    out
}

/// SQL-based CFD violation detector (Section 4).
#[derive(Debug, Clone, Copy)]
pub struct Detector {
    strategy: Strategy,
}

impl Detector {
    /// A detector using the default (DNF + indexes) evaluation strategy.
    pub fn new() -> Self {
        Detector {
            strategy: Strategy::default(),
        }
    }

    /// Sets the SQL evaluation strategy (CNF vs DNF — the Fig. 9(a)/(b) knob).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Detects violations of a single CFD. Convenience wrapper that clones
    /// the relation into the internal catalog; use [`Detector::detect_shared`]
    /// when the relation is already shared.
    pub fn detect(&self, cfd: &Cfd, rel: &Relation) -> Result<Violations> {
        self.detect_shared(cfd, Arc::new(rel.clone()))
            .map(|(v, _)| v)
    }

    /// Detects violations of a single CFD, returning execution counters too.
    pub fn detect_shared(
        &self,
        cfd: &Cfd,
        data: Arc<Relation>,
    ) -> Result<(Violations, DetectStats)> {
        self.with_tableau(cfd, data, |executor| {
            let (qc_rows, qc) =
                executor.run_with_stats(&single::qc_query(cfd, DATA_NAME, TABLEAU_NAME))?;
            let (qv_rows, qv) =
                executor.run_with_stats(&single::qv_query(cfd, DATA_NAME, TABLEAU_NAME))?;
            Ok((
                report(qc_rows.rows(), qv_rows.rows()),
                DetectStats { qc, qv },
            ))
        })
    }

    /// Runs only the `QC` query of one CFD (used by the Fig. 9(c) split).
    pub fn qc_only(&self, cfd: &Cfd, data: Arc<Relation>) -> Result<(Violations, ExecStats)> {
        self.with_tableau(cfd, data, |executor| {
            let (rows, stats) =
                executor.run_with_stats(&single::qc_query(cfd, DATA_NAME, TABLEAU_NAME))?;
            Ok((report(rows.rows(), &[]), stats))
        })
    }

    /// Runs only the `QV` query of one CFD (used by the Fig. 9(c) split).
    pub fn qv_only(&self, cfd: &Cfd, data: Arc<Relation>) -> Result<(Violations, ExecStats)> {
        self.with_tableau(cfd, data, |executor| {
            let (rows, stats) =
                executor.run_with_stats(&single::qv_query(cfd, DATA_NAME, TABLEAU_NAME))?;
            Ok((report(&[], rows.rows()), stats))
        })
    }

    /// Registers `data` and `cfd`'s pattern tableau in a fresh catalog and
    /// hands `run` an executor over it.
    fn with_tableau<T>(
        &self,
        cfd: &Cfd,
        data: Arc<Relation>,
        run: impl FnOnce(&Executor<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut catalog = Catalog::new();
        catalog.register_arc(DATA_NAME, data);
        catalog.register_as(TABLEAU_NAME, single::tableau_relation(cfd, TABLEAU_NAME));
        run(&Executor::new(&catalog).with_strategy(self.strategy))
    }

    /// Validates a set of CFDs with one query pair per CFD (the naive
    /// `2 × |Σ|`-pass approach of Section 4.2).
    // Arc by value: every detection entry point shares the same signature
    // shape so callers hand out snapshots uniformly, even where this
    // particular path only clones.
    #[allow(clippy::needless_pass_by_value)]
    pub fn detect_set(&self, cfds: &[Cfd], data: Arc<Relation>) -> Result<Violations> {
        let mut out = Violations::new();
        for cfd in cfds {
            let (v, _) = self.detect_shared(cfd, Arc::clone(&data))?;
            out.merge(v);
        }
        Ok(out)
    }

    /// Validates a set of CFDs with a single merged query pair (two passes,
    /// Section 4.2). The multi-tuple keys are reported over the merged `X`
    /// attribute union, with `@` masking don't-care positions.
    pub fn detect_set_merged(&self, cfds: &[Cfd], data: Arc<Relation>) -> Result<Violations> {
        self.run_merged(cfds, data, false)
    }

    /// Like [`Detector::detect_set_merged`] but executing the queries in the
    /// exact three-table form printed in the paper (data ⋈ `T^X_Σ` ⋈ `T^Y_Σ`
    /// on id). Intended for small instances and for inspecting plans; the
    /// pre-joined form is preferred for large data.
    pub fn detect_set_merged_paper_form(
        &self,
        cfds: &[Cfd],
        data: Arc<Relation>,
    ) -> Result<Violations> {
        self.run_merged(cfds, data, true)
    }

    /// Registers the merged tableaux of `cfds` in the form asked for and runs
    /// the one merged query pair ([`merged`]) over them.
    fn run_merged(&self, cfds: &[Cfd], data: Arc<Relation>, paper: bool) -> Result<Violations> {
        let merged = MergedTableaux::build(cfds)
            .map_err(|e| SqlError::Unsupported(format!("cannot merge tableaux: {e}")))?;
        let mut catalog = Catalog::new();
        catalog.register_arc(DATA_NAME, data);
        let source = if paper {
            catalog.register_as(TX_NAME, merged.x_relation(TX_NAME));
            catalog.register_as(TY_NAME, merged.y_relation(TY_NAME));
            TableauSource::Split {
                tx: TX_NAME,
                ty: TY_NAME,
            }
        } else {
            catalog.register_as(JOINED_NAME, merged.joined_relation(JOINED_NAME));
            TableauSource::Joined(JOINED_NAME)
        };
        let executor = Executor::new(&catalog).with_strategy(self.strategy);
        let qc = executor.run(&merged::qc_merged(&merged, DATA_NAME, source))?;
        let qv = executor.run(&merged::qv_merged(&merged, DATA_NAME, source))?;
        Ok(report(qc.rows(), qv.rows()))
    }

    /// The SQL text of the query pair for one CFD, for inspection and
    /// documentation (Fig. 5).
    pub fn sql_for(&self, cfd: &Cfd, data_name: &str) -> (SelectQuery, SelectQuery) {
        (
            single::qc_query(cfd, data_name, "Tp"),
            single::qv_query(cfd, data_name, "Tp"),
        )
    }
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, fig2_cfd_set, phi1, phi2, phi3_with_fd, phi5};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_detect::{scan_group, DetectorKind, DirectDetector, IncrementalDetector, ScanScratch};
    use cfd_relation::Tuple;

    #[test]
    fn example_4_1_detection_via_sql() {
        let v = Detector::new().detect(&phi2(), &cust_instance()).unwrap();
        assert_eq!(v.constant_violations().len(), 2);
        assert!(v.multi_tuple_keys().is_empty());
        let clean = Detector::new().detect(&phi1(), &cust_instance()).unwrap();
        assert!(clean.is_clean());
    }

    #[test]
    fn sql_direct_and_the_block_kernel_agree_on_the_running_example() {
        let rel = cust_instance();
        let mut scratch = ScanScratch::new();
        for cfd in [phi1(), phi2(), phi3_with_fd(), phi5()] {
            let sql = Detector::new().detect(&cfd, &rel).unwrap();
            let direct = DirectDetector::new().detect(&cfd, &rel);
            assert_eq!(sql, direct, "detectors disagree on {:?}", cfd.name());
            let mut kernel = Violations::new();
            scan_group(&[&cfd], &rel, None, &mut scratch, &mut kernel);
            assert_eq!(sql, kernel, "kernel disagrees on {:?}", cfd.name());
        }
    }

    #[test]
    fn cnf_and_dnf_strategies_agree() {
        let rel = Arc::new(cust_instance());
        for cfd in [phi2(), phi3_with_fd(), phi5()] {
            let dnf = Detector::new()
                .with_strategy(Strategy::dnf())
                .detect_shared(&cfd, Arc::clone(&rel))
                .unwrap()
                .0;
            let cnf = Detector::new()
                .with_strategy(Strategy::cnf())
                .detect_shared(&cfd, Arc::clone(&rel))
                .unwrap()
                .0;
            assert_eq!(dnf, cnf);
        }
    }

    #[test]
    fn qc_and_qv_split_match_the_combined_run() {
        let rel = Arc::new(cust_instance());
        let cfd = phi2();
        let (combined, stats) = Detector::new()
            .detect_shared(&cfd, Arc::clone(&rel))
            .unwrap();
        let (qc, qc_stats) = Detector::new().qc_only(&cfd, Arc::clone(&rel)).unwrap();
        let (qv, qv_stats) = Detector::new().qv_only(&cfd, Arc::clone(&rel)).unwrap();
        assert_eq!(qc.constant_violations(), combined.constant_violations());
        assert_eq!(qv.multi_tuple_keys(), combined.multi_tuple_keys());
        assert_eq!(qc_stats.output_rows, stats.qc.output_rows);
        assert_eq!(qv_stats.output_rows, stats.qv.output_rows);
    }

    #[test]
    fn per_cfd_and_merged_set_detection_agree_on_qc() {
        let rel = Arc::new(cust_instance());
        let cfds: Vec<_> = fig2_cfd_set().into_iter().collect();
        let per_cfd = Detector::new().detect_set(&cfds, Arc::clone(&rel)).unwrap();
        let merged = Detector::new()
            .detect_set_merged(&cfds, Arc::clone(&rel))
            .unwrap();
        // Constant violations are full tuples in both schemes, so they agree
        // exactly; multi-tuple keys use different key spaces (per-CFD X vs the
        // merged X union), so only their emptiness is compared here.
        assert_eq!(per_cfd.constant_violations(), merged.constant_violations());
        assert_eq!(
            per_cfd.multi_tuple_keys().is_empty(),
            merged.multi_tuple_keys().is_empty()
        );
    }

    #[test]
    fn merged_paper_form_agrees_with_exec_form() {
        let rel = Arc::new(cust_instance());
        let cfds = vec![phi2(), phi3_with_fd(), phi5()];
        let exec_form = Detector::new()
            .detect_set_merged(&cfds, Arc::clone(&rel))
            .unwrap();
        let paper_form = Detector::new()
            .detect_set_merged_paper_form(&cfds, Arc::clone(&rel))
            .unwrap();
        assert_eq!(exec_form, paper_form);
    }

    #[test]
    fn detection_on_generated_tax_workload_finds_only_noise() {
        let clean = TaxGenerator::new(TaxConfig {
            size: 800,
            noise_percent: 0.0,
            seed: 21,
        })
        .generate();
        let noisy = TaxGenerator::new(TaxConfig {
            size: 800,
            noise_percent: 10.0,
            seed: 21,
        })
        .generate();
        let cfd = CfdWorkload::new(5).single(EmbeddedFd::ZipToState, 200, 100.0);
        let detector = Detector::new();
        assert!(detector.detect(&cfd, &clean.relation).unwrap().is_clean());
        let report = detector.detect(&cfd, &noisy.relation).unwrap();
        assert!(!report.is_clean(), "noise must be detected");
        // Every reported constant violation is indeed a dirty row.
        let schema = noisy.relation.schema().clone();
        let zip = schema.resolve("ZIP").unwrap();
        let st = schema.resolve("ST").unwrap();
        for tuple in report.constant_violations() {
            let zip_v = tuple[zip.index()].clone();
            let st_v = tuple[st.index()].clone();
            let true_state = cfd_datagen::geo::state_of_zip(zip_v.as_str().unwrap()).unwrap();
            assert_ne!(
                st_v,
                Value::from(true_state),
                "reported tuple is actually clean"
            );
        }
    }

    #[test]
    fn sql_and_direct_agree_on_the_tax_workload() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 600,
            noise_percent: 8.0,
            seed: 33,
        })
        .generate();
        let workload = CfdWorkload::new(9);
        for fd in [
            EmbeddedFd::ZipToState,
            EmbeddedFd::ZipCityToState,
            EmbeddedFd::AreaToCity,
        ] {
            let cfd = workload.single(fd, 120, 60.0);
            let sql = Detector::new().detect(&cfd, &noisy.relation).unwrap();
            let direct = DirectDetector::new().detect(&cfd, &noisy.relation);
            assert_eq!(sql, direct, "detectors disagree on {fd:?}");
        }
    }

    #[test]
    fn incremental_insertions_match_full_sql_detection_on_the_combined_instance() {
        // A clean tax base and a noisy batch: the stream engine's insertion
        // preview against the SQL pair over base ∪ batch.
        let tax = |size, noise_percent, seed| {
            TaxGenerator::new(TaxConfig {
                size,
                noise_percent,
                seed,
            })
            .generate()
            .relation
        };
        let base = tax(600, 0.0, 3);
        let batch: Vec<Tuple> = tax(80, 20.0, 4).to_tuples();
        let cfds = vec![
            CfdWorkload::new(1).zip_state_full(),
            CfdWorkload::new(1).single(EmbeddedFd::AreaToCity, 200, 100.0),
        ];

        let incremental = IncrementalDetector::new(base.clone(), cfds.clone())
            .detect_insertions(&batch)
            .unwrap();

        let mut combined = base;
        for t in &batch {
            combined.push(t.clone()).unwrap();
        }
        let full = Detector::new()
            .detect_set(&cfds, Arc::new(combined))
            .unwrap();

        // The base is clean, so every full-detection finding involves the
        // batch and must be found incrementally, and vice versa.
        assert_eq!(incremental, full);
    }

    #[test]
    fn detector_kind_dispatches_every_engine() {
        let rel = cust_instance();
        let cfds = vec![phi2(), phi3_with_fd(), phi5()];
        let reference = Detector::new()
            .detect_set(&cfds, Arc::new(rel.clone()))
            .unwrap();
        for kind in DetectorKind::all(3) {
            assert_eq!(kind.detect_set(&cfds, &rel), reference, "kind {kind:?}");
        }
    }

    #[test]
    fn sql_for_returns_the_query_pair() {
        let (qc, qv) = Detector::new().sql_for(&phi2(), "cust");
        assert!(qc.to_string().contains("SELECT t.* FROM cust t, Tp tp"));
        assert!(qv.to_string().contains("HAVING count(distinct"));
    }
}
