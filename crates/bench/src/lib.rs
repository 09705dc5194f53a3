//! Experiment harness for the Pufferfish reproduction.
//!
//! One binary target per paper table/figure (see `DESIGN.md` §4 for the
//! full index). Every binary prints the same rows/series the paper
//! reports, side by side with the paper's reference values where they are
//! published, and appends a machine-readable record under `results/`.
//!
//! Common infrastructure lives here: console [`table`] rendering, the
//! quick/full [`scale`] switch, and the shared bench-scale [`setups`]
//! (datasets and scaled models used consistently across experiments).

pub mod probe_demo;
pub mod scale;
pub mod setups;
pub mod table;

use std::io::Write as _;
use std::path::PathBuf;

/// Appends a result line to `results/<name>.txt` (best-effort: failures to
/// write are reported to stderr but never abort an experiment).
pub fn record_result(name: &str, line: &str) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: cannot create {}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.txt"));
    match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// The `results/` directory at the workspace root (falls back to the
/// current directory when the workspace root cannot be located).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two levels up.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_result_appends() {
        record_result("selftest", "hello");
        let path = results_dir().join("selftest.txt");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("hello"));
        std::fs::remove_file(path).ok();
    }
}
