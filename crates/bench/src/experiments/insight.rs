//! Renders the puffer-insight report for an exported run.
//!
//! Usage:
//!
//! ```text
//! puffer-bench insight <trace.json> [metrics.jsonl]
//! ```
//!
//! Prints the text report; the insight gates (round reconstruction,
//! straggler attribution, α–β reconciliation) become the record's gates,
//! so a report with a failed gate exits 1. `puffer-bench trace-demo`
//! under `PUFFER_TRACE` / `PUFFER_METRICS` produces a pair of inputs.

use crate::{Args, Record};
use puffer_insight::{analyze, ingest};
use std::path::Path;

fn read_opt(path: &Path) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("note: cannot read {}: {e}", path.display());
            None
        }
    }
}

/// Analyzes `args.paths` (a trace, optionally its metrics file).
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("insight");
    let (Some(trace_path), true) = (args.paths.first(), args.paths.len() <= 2) else {
        rec.gate("usage", false, "puffer-bench insight <trace.json> [metrics.jsonl]".into());
        return rec;
    };
    let trace_doc = read_opt(trace_path);
    let metrics_doc = args.paths.get(1).and_then(|p| read_opt(p));
    let rd = match ingest::load(trace_doc.as_deref(), metrics_doc.as_deref()) {
        Ok(rd) => rd,
        Err(e) => {
            rec.gate("ingest", false, e.to_string());
            return rec;
        }
    };
    let stem = trace_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "run".to_string());
    let report = analyze(&rd, &stem);
    print!("{}", report.text);
    for (name, pass, detail) in report.gates {
        rec.gate(name, pass, detail);
    }
    rec
}
