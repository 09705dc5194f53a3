//! Noise-aware comparison of two records written with `--out` — the perf
//! regression check.
//!
//! Usage:
//!
//! ```text
//! puffer-bench diff <baseline.jsonl> <candidate.jsonl>
//! ```
//!
//! Each file's *last* line is compared (a file accumulates one line per
//! run). Timing leaves (`*_s`/`*_ms`/`*_us`/`*_ns`) regress when they
//! grow, throughput leaves (`gflops`, `speedup*`) when they shrink — in
//! both cases only beyond [`puffer_insight::diff::DEFAULT_THRESHOLD`]
//! *and* a 1 ms absolute noise floor. Boolean `pass`/`all_pass` leaves are
//! hard gates. Keys present on only one side are notes, never failures, so
//! record schemas can evolve without breaking old baselines. Any
//! regression fails the `no_regressions` gate, i.e. exits 1.
//!
//! A leaf's key in a record is its table column, and most tables keep the
//! paper's headings (`end-to-end (s)`, `Epoch Time (sec.)`), which carry no
//! such suffix and are therefore information only. What `diff` gates
//! between two records today: every gate's `pass` and `all_pass`,
//! `gemm-scaling`'s `median_s` and `gflops`, `fault-sweep`'s `total_s` and
//! `comm_s`, and `soak`'s `p50_us`/`p99_us`/`max_us`.

use crate::{Args, Record};
use puffer_insight::{diff, DiffOptions};
use puffer_probe::json;
use std::path::Path;

fn load(path: &Path) -> Result<json::Json, String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let last = doc.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    json::parse(last).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares the two files `args.paths` names, baseline first.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("diff");
    let [baseline, candidate] = &args.paths[..] else {
        rec.gate("usage", false, "puffer-bench diff <baseline.jsonl> <candidate.jsonl>".into());
        return rec;
    };
    let (old, new) = match (load(baseline), load(candidate)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            rec.gate("inputs_parse", false, e);
            return rec;
        }
    };
    let opts = DiffOptions::default();
    let report = diff(&old, &new, opts);
    println!(
        "comparing {} (baseline) vs {} (candidate), threshold {:.0}%",
        baseline.display(),
        candidate.display(),
        opts.threshold * 100.0
    );
    print!("{}", report.render());
    let regressed: Vec<&str> = report.regressions().iter().map(|e| e.path.as_str()).collect();
    rec.gate(
        "no_regressions",
        regressed.is_empty(),
        format!("{} leaves compared; regressed: [{}]", report.entries.len(), regressed.join(" ")),
    );
    rec
}
