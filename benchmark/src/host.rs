//! What the numbers were measured on, and the `/proc` counters the
//! benchmark reads about its own process.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Cores the process may use: the cap on client threads and on pool workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a tool's stdout, or `"unknown"` when it cannot be run
/// (the driver's checkout is not a git repository, for one).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host fingerprint stamped into every output file.
pub fn fingerprint(seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// The first number after `key` in a `/proc` "key: value" listing.
fn field(listing: &str, key: &str) -> Option<u64> {
    listing
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(wchar, syscw)` of `/proc/self/io`: bytes passed to write calls and the
/// number of write calls, process-wide.
pub fn write_counters() -> (u64, u64) {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    (
        field(&io, "wchar:").unwrap_or(0),
        field(&io, "syscw:").unwrap_or(0),
    )
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|meta| meta.len())
        .sum()
}

/// Copies the regular files of store directory `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
