//! State one workload run threads through its rounds.

use crate::check::Checks;
use crate::inputs::Inputs;
use crate::metrics::Values;
use crate::trace::Recorder;
use cfd::core::Cfd;
use cfd::{DetectorKind, Engine, EngineConfig, RepairKind, StorageConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: how long the measured rounds go on.
    pub seconds: f64,
    /// Scratch directory for store files; the caller removes it on exit.
    pub scratch: PathBuf,
    pub rec: Recorder,
    pub checks: Checks,
    pub e2e: Values,
    pub layer: Values,
    /// How long each generation of the inputs took.
    pub setup_s: Vec<f64>,
}

impl Ctx {
    /// Generates the workload's inputs, timed: one `setup_s` sample. A run
    /// sets up once before its first round and once more in every round
    /// (same seed, so identical inputs, dropped at once), so that set-up
    /// time is sampled across the run like everything else; `setup_s` is
    /// the median.
    pub fn setup(&mut self, generate: impl FnOnce() -> Inputs) -> Inputs {
        self.rec.open("bench.setup");
        let start = Instant::now();
        let inputs = generate();
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.rec.close();
        inputs
    }

    /// The end of the run's time box: `--seconds` from now. Rounds repeat
    /// until it passes (and at least a minimum number of times).
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// Records the size of a freshly checkpointed store directory holding
    /// the base instance: `store.dir_bytes` and, against the CSV text of the
    /// same rows, `store.space_amp`.
    pub fn record_store_size(&mut self, dir: &Path, csv_bytes: usize) {
        let dir_bytes = crate::host::dir_bytes(dir) as f64;
        self.layer.insert("store.dir_bytes", dir_bytes);
        self.layer
            .insert("store.space_amp", dir_bytes / csv_bytes as f64);
    }
}

/// Any error as the message the run reports it with.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The engine every workload runs: rule set `R4`, `DetectorKind::Auto`,
/// `RepairKind::EquivClass`, everything else default — except the buffer
/// pool size of the disk workloads.
pub fn build_engine(rules: &[Cfd], pool_pages: Option<usize>) -> Result<Engine, String> {
    let mut storage = StorageConfig::default();
    if let Some(pages) = pool_pages {
        storage.pool_pages = pages;
    }
    let config = EngineConfig::builder()
        .detector(DetectorKind::Auto)
        .repair_kind(RepairKind::EquivClass)
        .storage(storage)
        .build()
        .map_err(err)?;
    Engine::builder()
        .rules(rules.iter().cloned())
        .config(config)
        .build()
        .map_err(err)
}
