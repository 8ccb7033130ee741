//! # ftspm-bench — the reproduction driver
//!
//! * the **`repro` binary** (`cargo run --release -p ftspm-bench --bin
//!   repro -- all`) regenerates every table and figure of the paper's
//!   evaluation from live simulation, printing human-readable tables and
//!   writing CSV into `results/`;
//! * [`sweeps`] holds the fault and scrub sweeps `repro` renders, shared
//!   with the benchmark (`perfbench/`), whose traced run
//!   (`--trace 1`) is the repository's one host-time ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweeps;

use std::path::{Path, PathBuf};
use std::{fs, io};

/// Writes `contents` into `results/<name>`, creating the directory, and
/// returns the path written. Filesystem refusals surface as `Err` so the
/// caller (the `repro` binary) can report them instead of panicking.
pub fn write_result(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}
