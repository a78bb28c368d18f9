//! Oracle checks: run inside the benchmark command, outside every timed
//! region, counted into `attempted` / `failed`, fatal at exit.

use cfd::detect::Violations;
use cfd::relation::{Relation, Schema, Tuple};
use cfd::Engine;
use std::sync::Arc;

/// Tally of operations and checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that completed (their failures arrive through
    /// [`Checks::fail`]).
    pub fn ran(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(what());
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what);
        }
    }

    /// `report` must be byte-identical to `oracle`.
    pub fn same_report(&mut self, report: &Violations, oracle: &[u8], what: &str) {
        self.expect(report.canonical_bytes() == oracle, || {
            format!("{what}: report differs from the oracle's")
        });
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(20);
    }
}

/// The reference report: `Engine::detect` over a fresh in-memory copy of
/// `rows`, as canonical bytes.
pub fn oracle_bytes(engine: &Engine, schema: &Schema, rows: Vec<Tuple>) -> Result<Vec<u8>, String> {
    let copy = Relation::from_rows(schema.clone(), rows).map_err(|e| e.to_string())?;
    oracle_bytes_of(engine, Arc::new(copy))
}

/// The reference report of an already-materialized instance.
pub fn oracle_bytes_of(engine: &Engine, rel: Arc<Relation>) -> Result<Vec<u8>, String> {
    engine
        .detect(rel)
        .map(|report| report.canonical_bytes())
        .map_err(|e| e.to_string())
}
