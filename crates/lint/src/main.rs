//! CLI for `puffer-lint`.
//!
//! ```text
//! cargo run --release -p puffer-lint                # lint the workspace
//! cargo run --release -p puffer-lint -- --json      # machine-readable
//! cargo run --release -p puffer-lint -- --rules no-vec-alloc-in-kernel,simd-needs-feature-gate
//! cargo run --release -p puffer-lint -- --root path/to/tree
//! cargo run --release -p puffer-lint -- --list      # print the rule catalog
//! cargo run --release -p puffer-lint -- --explain bucket-apply-order-pinned
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use puffer_lint::{run, Config, RULES};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: puffer-lint [--root DIR] [--rules a,b,...] [--json] [--list] [--explain RULE]"
}

/// Prints one rule's rationale and minimal before/after example. The
/// catalog in `RULES` is the single source of truth — DESIGN.md's §8
/// table is checked against it by `catalog_docs_sync`.
fn explain(name: &str) -> ExitCode {
    let Some(rule) = RULES.iter().find(|r| r.name == name) else {
        eprintln!(
            "unknown rule `{name}` (known: {})",
            RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{}", rule.name);
    println!("  {}\n", rule.description);
    println!("why:");
    println!("  {}\n", rule.rationale);
    println!("violates:");
    for line in rule.example_bad.lines() {
        println!("    {line}");
    }
    println!("\nfixed:");
    for line in rule.example_good.lines() {
        println!("    {line}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut config = Config::new(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => {
                for rule in RULES {
                    println!("{:30} {}", rule.name, rule.description);
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(name) => return explain(&name),
                None => {
                    eprintln!("--explain needs a rule name\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => config.root = dir.into(),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--rules" => match args.next().map(|s| puffer_lint::parse_rules_filter(&s)) {
                Some(Ok(set)) => config.rules = Some(set),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--rules needs a comma-separated list\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("puffer-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{}:{}:{}: {}: {}", d.file, d.line, d.col, d.rule, d.message);
        }
        eprintln!(
            "puffer-lint: {} finding(s) across {} source file(s)",
            report.diagnostics.len(),
            report.files_scanned
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
