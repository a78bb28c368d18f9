//! Everything the benchmark feeds the program, derived from `--seed` alone.
//!
//! The program under test only ever sees what this module produces: CSV
//! text, tuples wrapped in [`BatchOp`]s, and the rule set `R4`. Two calls
//! with the same seed produce byte-identical inputs (a unit test pins
//! this), so two runs of one commit measure the same work.

use cfd::core::Cfd;
use cfd::datagen::{CfdWorkload, EmbeddedFd, TaxConfig, TaxGenerator};
use cfd::detect::BatchOp;
use cfd::relation::{csv, Relation, Schema, Tuple};
use std::collections::HashMap;

/// `NOISE` of Section 5: the share of generated tuples with one wrong cell.
pub const NOISE_PERCENT: f64 = 5.0;
/// Inserts per `B64` write batch.
pub const BATCH_INSERTS: usize = 48;
/// Deletes-by-value per `B64` write batch.
pub const BATCH_DELETES: usize = 16;
/// Ops per `B64` write batch.
pub const BATCH_OPS: usize = BATCH_INSERTS + BATCH_DELETES;
/// A batch deletes tuples inserted this many batches earlier, so every
/// delete hits a live tuple whatever the base instance holds.
const DELETE_LAG: usize = 4;

/// The rule set `R4`: constant and variable patterns, two CFDs sharing
/// `ZIP`. `(embedded FD, TABSZ, NUMCONSTs %)` per rule.
const R4: [(EmbeddedFd, usize, f64); 4] = [
    (EmbeddedFd::ZipToState, 120, 100.0),
    (EmbeddedFd::AreaToCity, 100, 60.0),
    (EmbeddedFd::StateMaritalToExemption, 40, 60.0),
    (EmbeddedFd::ZipCityToState, 200, 50.0),
];

/// Sub-seeds, so the base rows, the streamed rows and each client's rows
/// never coincide.
const STREAM_SALT: u64 = 0x5EED_0B64_0000_0000;

/// One workload's generated inputs.
pub struct Inputs {
    pub schema: Schema,
    /// The base instance as the CSV text a user would hand over.
    pub csv: String,
    /// The base instance's tuples, in CSV order: the first-four-batches
    /// delete targets and the oracle's starting point.
    pub base: Vec<Tuple>,
    pub rules: Vec<Cfd>,
    /// One `B64` sequence per writer (one for the session workloads, one
    /// per client for the serve workloads).
    pub streams: Vec<Vec<Vec<BatchOp>>>,
}

impl Inputs {
    /// `rows` base tuples and `writers` independent sequences of `batches`
    /// `B64` batches each.
    pub fn generate(seed: u64, rows: usize, writers: usize, batches: usize) -> Inputs {
        let relation = tax_rows(seed, rows);
        let csv = csv::to_csv(&relation);
        let base = relation.to_tuples();
        let workload = CfdWorkload::new(seed);
        let rules = R4
            .iter()
            .map(|&(fd, tab_size, pct_consts)| workload.single(fd, tab_size, pct_consts))
            .collect();
        let streams = (0..writers)
            .map(|w| b64_sequence(seed, w, writers, &base, batches))
            .collect();
        Inputs {
            schema: relation.schema().clone(),
            csv,
            base,
            rules,
            streams,
        }
    }

    pub fn rows(&self) -> usize {
        self.base.len()
    }
}

fn tax_rows(seed: u64, size: usize) -> Relation {
    TaxGenerator::new(TaxConfig {
        size,
        noise_percent: NOISE_PERCENT,
        seed,
    })
    .generate()
    .relation
}

/// Writer `w`'s `B64` sequence: batch `i` inserts 48 fresh tuples and
/// deletes 16 of the tuples batch `i - 4` inserted; the first four batches
/// delete base rows instead (a range no other writer touches).
fn b64_sequence(
    seed: u64,
    w: usize,
    writers: usize,
    base: &[Tuple],
    batches: usize,
) -> Vec<Vec<BatchOp>> {
    let fresh = tax_rows(
        seed ^ STREAM_SALT.wrapping_add(w as u64),
        batches * BATCH_INSERTS,
    )
    .to_tuples();
    assert!(
        base.len() >= writers * DELETE_LAG * BATCH_DELETES,
        "base instance too small for the first {DELETE_LAG} batches' deletes"
    );
    (0..batches)
        .map(|i| {
            let inserts = &fresh[i * BATCH_INSERTS..(i + 1) * BATCH_INSERTS];
            let deletes = if i < DELETE_LAG {
                let at = (w * DELETE_LAG + i) * BATCH_DELETES;
                &base[at..at + BATCH_DELETES]
            } else {
                let at = (i - DELETE_LAG) * BATCH_INSERTS;
                &fresh[at..at + BATCH_DELETES]
            };
            inserts
                .iter()
                .cloned()
                .map(BatchOp::Insert)
                .chain(deletes.iter().cloned().map(BatchOp::Delete))
                .collect()
        })
        .collect()
}

/// The first or second half of a `B64` batch (24 inserts + 8 deletes): one
/// serve client's write request. The second half's deletes still target
/// tuples of batch `i - 4`'s first half, so they are live too.
pub fn half_batch(batch: &[BatchOp], second: bool) -> Vec<BatchOp> {
    let (ins, del) = batch.split_at(BATCH_INSERTS);
    let (ih, dh) = (BATCH_INSERTS / 2, BATCH_DELETES / 2);
    let (ins, del) = if second {
        (&ins[ih..], &del[dh..])
    } else {
        (&ins[..ih], &del[..dh])
    };
    ins.iter().chain(del).cloned().collect()
}

/// The live tuples after applying `applied` (whole batches, in order) to
/// `base`: the oracle's model of the instance. Bag semantics — each delete
/// removes one occurrence of an equal tuple, and is a no-op without one;
/// row order is immaterial to a violation report, so the earliest
/// occurrence goes.
pub fn live_after<'a>(
    base: &'a [Tuple],
    applied: impl IntoIterator<Item = &'a [BatchOp]> + Clone,
) -> Vec<Tuple> {
    let mut deletes: HashMap<&Tuple, usize> = HashMap::new();
    let ops = || applied.clone().into_iter().flatten();
    for op in ops() {
        if let BatchOp::Delete(t) = op {
            *deletes.entry(t).or_default() += 1;
        }
    }
    let inserted = ops().filter_map(|op| match op {
        BatchOp::Insert(t) => Some(t),
        BatchOp::Delete(_) => None,
    });
    base.iter()
        .chain(inserted)
        .filter(|t| match deletes.get_mut(t) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> (String, String, String) {
        let rules = inputs
            .rules
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let mut stream = String::new();
        for batch in inputs.streams.iter().flatten() {
            for op in batch {
                let (tag, t) = match op {
                    BatchOp::Insert(t) => ('+', t),
                    BatchOp::Delete(t) => ('-', t),
                };
                stream.push_str(&format!("{tag}{:?}\n", t.to_values()));
            }
        }
        (inputs.csv.clone(), rules, stream)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = fingerprint(&Inputs::generate(7, 600, 2, 8));
        let b = fingerprint(&Inputs::generate(7, 600, 2, 8));
        assert!(a.0 == b.0, "csv differs");
        assert!(a.1 == b.1, "rules differ");
        assert!(a.2 == b.2, "B64 sequence differs");
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let a = fingerprint(&Inputs::generate(7, 600, 2, 8));
        let b = fingerprint(&Inputs::generate(8, 600, 2, 8));
        assert_ne!(a.0, b.0, "csv");
        assert_ne!(a.1, b.1, "rules");
        assert_ne!(a.2, b.2, "B64 sequence");
    }

    #[test]
    fn every_delete_hits_a_live_tuple() {
        let inputs = Inputs::generate(3, 400, 2, 12);
        // Interleave the writers half-batch by half-batch, as concurrent
        // clients would; after every request the model must have grown by
        // exactly inserts - deletes.
        let mut applied: Vec<Vec<BatchOp>> = Vec::new();
        for i in 0..12 {
            for second in [false, true] {
                for stream in &inputs.streams {
                    let half = half_batch(&stream[i], second);
                    assert_eq!(half.len(), BATCH_OPS / 2);
                    applied.push(half);
                    let live = live_after(&inputs.base, applied.iter().map(Vec::as_slice));
                    let net = (BATCH_INSERTS - BATCH_DELETES) / 2;
                    assert_eq!(live.len(), 400 + applied.len() * net, "a delete missed");
                }
            }
        }
    }
}
