//! Narrow per-group re-checking — the incremental-violation-maintenance
//! entry point consumed by `cfd-repair`.
//!
//! After a repair engine edits a handful of cells, a violation can only
//! appear or disappear inside the `GROUP BY X` groups the edits touched: the
//! group a row left, the group it joined, or the group it already sat in.
//! [`LhsGroups`](crate::LhsGroups) tracks exactly those keys, and
//! [`recheck_lhs_keys`] re-evaluates them through its index —
//! `O(|touched groups|)` instead of `O(|I|)` per round. What "evaluates"
//! means is stated once in [`groups`](crate::groups).
//!
//! # Contract
//!
//! `index` must be in sync with `rel`. The re-check promises the **oracle's**
//! witnesses, so it returns `None` — the caller takes the scan — when `cfd`
//! has don't-care cells or `index` does not cover `cfd.lhs()` in order.
//! Otherwise the witnesses are exactly the subset of [`Cfd::violations`]
//! whose group key is among `keys`: key by key in the order given, each
//! key's witnesses in the oracle's deterministic `(pattern_index, rows,
//! kind)` order — byte-determinism of repair rests on this. Re-checking a
//! sorted key list in contiguous chunks and concatenating is therefore
//! identical to re-checking it whole. Clean and absent keys contribute
//! nothing. Groups are evaluated lazily, as the iterator is pulled, so a
//! satisfaction sweep stops at its first witness.

use crate::groups::GroupEval;
use cfd_core::{Cfd, ViolationWitness};
use cfd_relation::{Index, Relation, ValueId};

/// Re-checks one `GROUP BY X` group of `cfd`: a one-key [`recheck_lhs_keys`].
pub fn recheck_lhs_key(
    cfd: &Cfd,
    rel: &Relation,
    index: &Index,
    key: &[ValueId],
) -> Option<Vec<ViolationWitness>> {
    Some(recheck_lhs_keys(cfd, rel, index, &[key])?.collect())
}

/// Re-checks a batch of `GROUP BY X` groups of `cfd` (keys in `cfd.lhs()`
/// order) through one evaluator; see the [module docs](self) for the
/// contract.
pub fn recheck_lhs_keys<'a, K: AsRef<[ValueId]>>(
    cfd: &'a Cfd,
    rel: &'a Relation,
    index: &'a Index,
    keys: &'a [K],
) -> Option<impl Iterator<Item = ViolationWitness> + 'a> {
    if cfd.has_dont_care() || index.attrs() != cfd.lhs() {
        return None;
    }
    let mut eval = GroupEval::new(cfd, rel);
    Some(keys.iter().flat_map(move |key| {
        let (key, mut out) = (key.as_ref(), Vec::new());
        eval.witnesses(key, index.lookup_ids(key), &mut out);
        out
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, phi2, phi3};
    use cfd_datagen::records::{TaxConfig, TaxGenerator};
    use cfd_datagen::{CfdWorkload, EmbeddedFd};
    use cfd_relation::Value;
    use std::collections::BTreeSet;

    fn one(cfd: &Cfd, rel: &Relation, index: &Index, key: &[ValueId]) -> Vec<ViolationWitness> {
        recheck_lhs_key(cfd, rel, index, key).unwrap()
    }

    fn many(
        cfd: &Cfd,
        rel: &Relation,
        index: &Index,
        keys: &[Vec<ValueId>],
    ) -> Vec<ViolationWitness> {
        recheck_lhs_keys(cfd, rel, index, keys).unwrap().collect()
    }

    /// Rechecking every group of an instance must reproduce Cfd::violations
    /// exactly (same witnesses, same per-group order).
    fn assert_recheck_covers_full_detection(cfd: &Cfd, rel: &Relation, label: &str) {
        let index = rel.build_index(cfd.lhs());
        let mut keys: BTreeSet<Vec<ValueId>> = BTreeSet::new();
        for (key, _) in index.iter() {
            keys.insert(key.clone());
        }
        let mut rechecked: Vec<ViolationWitness> = keys
            .iter()
            .flat_map(|key| one(cfd, rel, &index, key))
            .collect();
        rechecked.sort_by(ViolationWitness::deterministic_cmp);
        assert_eq!(rechecked, cfd.violations(rel), "{label}");
    }

    #[test]
    fn recheck_agrees_with_full_detection_on_the_running_example() {
        let rel = cust_instance();
        assert_recheck_covers_full_detection(&phi2(), &rel, "phi2");
        assert_recheck_covers_full_detection(&phi3(), &rel, "phi3");
    }

    #[test]
    fn recheck_agrees_with_full_detection_on_noisy_tax_data() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 500,
            noise_percent: 10.0,
            seed: 7,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(3);
        for (fd, tab, consts) in [
            (EmbeddedFd::ZipToState, 60, 100.0),
            (EmbeddedFd::AreaToCity, 80, 40.0),
            (EmbeddedFd::StateMaritalToExemption, 40, 60.0),
        ] {
            let cfd = workload.single(fd, tab, consts);
            assert_recheck_covers_full_detection(&cfd, &noisy, &format!("{fd:?}"));
        }
    }

    #[test]
    fn recheck_of_a_clean_or_absent_group_is_empty() {
        let rel = cust_instance();
        let cfd = phi2();
        let index = rel.build_index(cfd.lhs());
        // A clean group: Ben's (01, 215, 3333333).
        let clean_key: Vec<ValueId> = ["01", "215", "3333333"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        assert!(one(&cfd, &rel, &index, &clean_key).is_empty());
        // A key no row carries.
        let absent: Vec<ValueId> = ["99", "999", "0000000"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        assert!(one(&cfd, &rel, &index, &absent).is_empty());
    }

    /// The batched form must be byte-identical to flat-mapping the one-key
    /// form over the same key list — including witness order — however the
    /// list is cut into batches (the parallel repair engine's fan-out).
    #[test]
    fn batched_recheck_equals_the_per_key_loop() {
        let noisy = TaxGenerator::new(TaxConfig {
            size: 800,
            noise_percent: 12.0,
            seed: 21,
        })
        .generate()
        .relation;
        let workload = CfdWorkload::new(5);
        for (fd, tab, consts) in [
            (EmbeddedFd::ZipToState, 60, 100.0),
            (EmbeddedFd::AreaToCity, 80, 40.0),
        ] {
            let cfd = workload.single(fd, tab, consts);
            let index = noisy.build_index(cfd.lhs());
            let keys: BTreeSet<Vec<ValueId>> = index.iter().map(|(k, _)| k.clone()).collect();
            let keys: Vec<Vec<ValueId>> = keys.into_iter().collect();
            let looped: Vec<ViolationWitness> = keys
                .iter()
                .flat_map(|key| one(&cfd, &noisy, &index, key))
                .collect();
            let batched = many(&cfd, &noisy, &index, &keys);
            assert_eq!(batched, looped, "{fd:?}: whole-key-space batch");
            let mut chunked = Vec::new();
            for chunk in keys.chunks(7) {
                chunked.extend(many(&cfd, &noisy, &index, chunk));
            }
            assert_eq!(chunked, looped, "{fd:?}: chunked batches");
        }
    }

    /// A batch containing clean and absent keys contributes nothing for
    /// them, exactly like the one-key form.
    #[test]
    fn batched_recheck_skips_clean_and_absent_groups() {
        let rel = cust_instance();
        let cfd = phi2();
        let index = rel.build_index(cfd.lhs());
        let dirty: Vec<ValueId> = ["01", "908", "1111111"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        let clean: Vec<ValueId> = ["01", "215", "3333333"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        let absent: Vec<ValueId> = ["99", "999", "0000000"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        let batch = [clean.clone(), dirty.clone(), absent.clone()];
        let got = many(&cfd, &rel, &index, &batch);
        assert_eq!(got, one(&cfd, &rel, &index, &dirty));
        assert!(many(&cfd, &rel, &index, &[clean, absent]).is_empty());
    }

    #[test]
    fn recheck_tracks_index_maintenance_after_an_edit() {
        // Fix t1's city through the columnar edit path, maintain the index,
        // and observe the group's violation set shrink.
        let mut rel = cust_instance();
        let cfd = phi2();
        let mut index = rel.build_index(cfd.lhs());
        let key: Vec<ValueId> = ["01", "908", "1111111"]
            .iter()
            .map(|s| ValueId::of(&Value::from(*s)))
            .collect();
        let before = one(&cfd, &rel, &index, &key);
        assert_eq!(before.len(), 2, "t1 and t2 both violate the 908 pattern");

        let ct = rel.schema().resolve("CT").unwrap();
        for row in [0usize, 1] {
            let old = rel.row(row).unwrap().to_ids();
            rel.set_value(row, ct, Value::from("MH"));
            let new = rel.row(row).unwrap().to_ids();
            // CT is not an LHS attribute of phi2, so the index is unchanged —
            // but exercise the maintenance calls anyway.
            index.remove_row(row, &old);
            index.insert_row(row, &new);
        }
        assert!(one(&cfd, &rel, &index, &key).is_empty());
    }
}
