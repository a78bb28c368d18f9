//! Fig. 9 of the paper as **shape assertions** on the executor's counters.
//!
//! The reproduction target of Section 5 is the shape of each panel — who
//! wins, what scales linearly, what has no effect — not DB2's absolute
//! seconds on 2007 hardware. [`ExecStats::rows_examined`] is the in-memory
//! engine's unit of work, it is deterministic, and at 2k–8k tax records it
//! is cheap enough for the default test run; so the panels are pinned here
//! on counters, with no wall clock anywhere. (The `fig9*` benches and the
//! `experiments` binary of `cfd-bench` time the same workloads.)
//!
//! Unless a panel says otherwise: one CFD over `[ZIP, CT] -> [ST]`
//! (NUMATTRs 3), TABSZ 100, NOISE 5 %, DNF + indexes.

use cfd_core::Cfd;
use cfd_datagen::records::{TaxConfig, TaxGenerator};
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_relation::Relation;
use cfd_sql::{DetectStats, Detector, Strategy};
use std::sync::Arc;

const TABSZ: usize = 100;
const SIZES: [usize; 3] = [2_000, 4_000, 8_000];

fn tax(size: usize, noise_percent: f64) -> Arc<Relation> {
    let config = TaxConfig {
        size,
        noise_percent,
        seed: 17,
    };
    Arc::new(TaxGenerator::new(config).generate().relation)
}

fn zip_city_to_state(tabsz: usize, pct_consts: f64) -> Cfd {
    CfdWorkload::new(11).single(EmbeddedFd::ZipCityToState, tabsz, pct_consts)
}

/// Counters of the query pair, and how many findings it reported.
fn run(strategy: Strategy, cfd: &Cfd, data: &Arc<Relation>) -> (DetectStats, usize) {
    let (report, stats) = Detector::new()
        .with_strategy(strategy)
        .detect_shared(cfd, Arc::clone(data))
        .unwrap();
    (stats, report.total())
}

fn examined(stats: DetectStats) -> usize {
    stats.qc.rows_examined + stats.qv.rows_examined
}

/// `after` is `2 × before`, give or take 5 %.
fn doubles(before: usize, after: usize) -> bool {
    let ratio = after as f64 / before as f64;
    (1.9..=2.1).contains(&ratio)
}

/// Fig. 9(a)/(b): CNF scans the whole data × tableau product for each query
/// whatever the tableau holds; DNF probes an index per constant pattern and
/// examines a sliver of that — under 0.1 % of it with NUMCONSTs 100 %, under
/// 15 % with 50 % (a pattern row with variables matches, and so examines,
/// far more tuples than a constant one). Both are linear in SZ.
#[test]
fn fig9ab_dnf_examines_a_fraction_of_cnf_and_both_are_linear_in_sz() {
    for (pct_consts, dnf_share) in [(100.0, 0.001), (50.0, 0.15)] {
        let cfd = zip_city_to_state(TABSZ, pct_consts);
        let mut series: Vec<(usize, usize)> = Vec::new();
        for sz in SIZES {
            let data = tax(sz, 5.0);
            let (cnf, cnf_found) = run(Strategy::cnf(), &cfd, &data);
            let (dnf, dnf_found) = run(Strategy::dnf(), &cfd, &data);
            assert_eq!(cnf_found, dnf_found, "the strategies agree on findings");
            assert_eq!(cnf.qc.rows_examined, sz * TABSZ, "CNF QC, SZ {sz}");
            assert_eq!(cnf.qv.rows_examined, sz * TABSZ, "CNF QV, SZ {sz}");
            assert_eq!((cnf.qc.index_probes, cnf.qv.index_probes), (0, 0));
            assert!(
                (examined(dnf) as f64) < dnf_share * examined(cnf) as f64,
                "NUMCONSTs {pct_consts}%, SZ {sz}: DNF examined {} of CNF's {}",
                examined(dnf),
                examined(cnf)
            );
            series.push((examined(cnf), examined(dnf)));
        }
        for pair in series.windows(2) {
            assert!(doubles(pair[0].0, pair[1].0), "CNF {series:?}");
            assert!(doubles(pair[0].1, pair[1].1), "DNF {series:?}");
        }
    }
}

/// Fig. 9(c): detection time is `QV`'s. With variable pattern rows `QV`
/// groups every tuple they match — over 500× the rows `QC` looks at, which
/// only visits the constant rows' matches; with an all-constant tableau the
/// two queries probe the same patterns and examine exactly the same rows.
#[test]
fn fig9c_qv_dominates_qc_unless_the_tableau_is_all_constants() {
    for sz in SIZES {
        let data = tax(sz, 5.0);
        let (mixed, _) = run(Strategy::dnf(), &zip_city_to_state(TABSZ, 50.0), &data);
        assert!(
            mixed.qv.rows_examined >= 500 * mixed.qc.rows_examined,
            "SZ {sz}: QC {:?}, QV {:?}",
            mixed.qc,
            mixed.qv
        );
        let (constant, _) = run(Strategy::dnf(), &zip_city_to_state(TABSZ, 100.0), &data);
        assert_eq!(
            constant.qc.rows_examined, constant.qv.rows_examined,
            "SZ {sz}"
        );
        assert_eq!(constant.qc.index_probes, TABSZ, "one probe per pattern");
    }
}

/// Fig. 9(d): work grows with the tableau — both queries, every doubling.
#[test]
fn fig9d_rows_examined_grow_with_tabsz() {
    let data = tax(4_000, 5.0);
    let at = |tabsz| run(Strategy::dnf(), &zip_city_to_state(tabsz, 50.0), &data).0;
    let series = [at(50), at(100), at(200)];
    for pair in series.windows(2) {
        let (smaller, larger) = (pair[0], pair[1]);
        assert!(
            smaller.qc.rows_examined < larger.qc.rows_examined,
            "{series:?}"
        );
        assert!(
            smaller.qv.rows_examined < larger.qv.rows_examined,
            "{series:?}"
        );
        assert!(
            smaller.qv.index_probes < larger.qv.index_probes,
            "{series:?}"
        );
    }
}

/// Fig. 9(e): the more constants in the tableau, the less `QV` has to look
/// at — a constant row selects its few matches through the index, a variable
/// row matches (and groups) everything. `QC` has nothing to check at all
/// against a tableau without constants.
#[test]
fn fig9e_rows_examined_shrink_as_constants_grow() {
    let data = tax(4_000, 5.0);
    let at = |pct_consts| {
        run(
            Strategy::dnf(),
            &zip_city_to_state(TABSZ, pct_consts),
            &data,
        )
        .0
    };
    let (none, half, all) = (at(0.0), at(50.0), at(100.0));
    assert!(
        none.qv.rows_examined > half.qv.rows_examined
            && half.qv.rows_examined > all.qv.rows_examined,
        "QV {none:?} / {half:?} / {all:?}"
    );
    assert_eq!(
        none.qc.rows_examined, 0,
        "no constant, nothing to contradict"
    );
}

/// Fig. 9(f): noise has no effect on the work, only on the findings. The
/// panel's CFD is zip→state with a pattern row per zip code, so every tuple
/// is examined exactly once per query at any noise level, while the reported
/// violations grow from none with every step of NOISE.
#[test]
fn fig9f_noise_moves_the_findings_not_the_work() {
    let cfd = CfdWorkload::new(11).zip_state_full();
    let mut findings = Vec::new();
    for noise in [0.0, 3.0, 6.0, 9.0] {
        let (stats, found) = run(Strategy::dnf(), &cfd, &tax(4_000, noise));
        assert_eq!(stats.qc.rows_examined, 4_000, "QC at NOISE {noise}%");
        assert_eq!(stats.qv.rows_examined, 4_000, "QV at NOISE {noise}%");
        findings.push(found);
    }
    assert_eq!(findings[0], 0, "clean data reports nothing");
    assert!(findings.windows(2).all(|w| w[0] < w[1]), "{findings:?}");
}
