//! Benchmarks the `puffer-lint` semantic pass over the real workspace and
//! writes `BENCH_lint.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p puffer-bench --bin lint_bench [-- --check]
//! ```
//!
//! Each sample is a full cold analysis — walk, lex, `#[cfg(test)]`-mask,
//! parse, symbol table, call graph, every rule — timed with
//! `puffer_probe::Stopwatch`. The JSON carries the scan census (files,
//! manifests, rules) and two hard gates `bench_diff --check` understands:
//! the workspace must be **clean** (zero findings — the semantic rules
//! gate, they are not advisory) and the median scan must stay under the
//! 5 s budget so `scripts/check.sh` stays cheap. `--check` exits non-zero
//! if either gate fails.

use puffer_lint::{run, Config, RULES};
use puffer_probe::Stopwatch;
use std::fmt::Write as _;
use std::path::PathBuf;

const SAMPLES: usize = 5;
const BUDGET_S: f64 = 5.0;

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| PathBuf::from(p).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let root = workspace_root();

    let mut times_s = Vec::with_capacity(SAMPLES);
    let mut report = None;
    for _ in 0..SAMPLES {
        let sw = Stopwatch::start();
        match run(&Config::new(&root)) {
            Ok(r) => {
                times_s.push(sw.elapsed().as_secs_f64());
                report = Some(r);
            }
            Err(e) => {
                eprintln!("lint_bench: scan failed: {e}");
                std::process::exit(2);
            }
        }
    }
    let report = report.expect("at least one sample ran");
    times_s.sort_by(|a, b| a.total_cmp(b));
    let median_s = times_s[times_s.len() / 2];
    let max_s = *times_s.last().expect("non-empty samples");

    let clean = report.is_clean();
    let under_budget = median_s < BUDGET_S;
    let all_pass = clean && under_budget;

    println!(
        "lint_bench: {} file(s), {} rule(s), {} finding(s); \
         median {:.4}s over {SAMPLES} cold scans (budget {BUDGET_S}s)",
        report.files_scanned,
        RULES.len(),
        report.diagnostics.len(),
        median_s,
    );
    if !clean {
        for d in &report.diagnostics {
            eprintln!("  {}:{}:{}: {}: {}", d.file, d.line, d.col, d.rule, d.message);
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"lint_semantic_pass\",");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(json, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(json, "  \"rules_run\": {},", RULES.len());
    let _ = writeln!(json, "  \"findings\": {},", report.diagnostics.len());
    let _ = writeln!(json, "  \"scan_median_s\": {median_s:.6},");
    let _ = writeln!(json, "  \"scan_max_s\": {max_s:.6},");
    let _ = writeln!(json, "  \"budget_s\": {BUDGET_S:.1},");
    let _ = writeln!(json, "  \"clean_pass\": {clean},");
    let _ = writeln!(json, "  \"budget_pass\": {under_budget},");
    let _ = writeln!(json, "  \"all_pass\": {all_pass}");
    json.push_str("}\n");

    let out = root.join("BENCH_lint.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", out.display()),
    }

    if check && !all_pass {
        eprintln!(
            "lint_bench --check FAILED: clean={clean} (findings must be 0), \
             under_budget={under_budget} (median {median_s:.3}s vs {BUDGET_S}s)"
        );
        std::process::exit(1);
    }
    if check {
        println!("lint_bench --check ok: workspace clean, scan within budget");
    }
}
