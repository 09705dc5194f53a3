//! `puffer-lint`: the workspace's own token-level analyzer.
//!
//! Most of the repo's correctness contracts are held by the compiler tool
//! chain — clippy denies in `puffer-dist` and the worker-side codecs, the
//! workspace lint table, and the `clippy.toml` `disallowed-types` /
//! `disallowed-methods` lists (DESIGN.md §8). Four are about how code is
//! *written* rather than what it resolves to, which no type-resolved lint
//! expresses: kernel scratch comes from the workspace arena, SIMD
//! intrinsics sit behind `#[target_feature]` plus a runtime gate, gradient
//! accumulation stays in its two pinned owners, and quantile math lives in
//! the probe. Those used to be awk/grep lines in `scripts/check.sh` —
//! comment-blind, string-blind, and blind to everything after the first
//! `#[cfg(test)]` in a file. This crate checks them on real tokens:
//!
//! 1. [`lexer`] — a full Rust token model (nested block comments, raw
//!    strings, lifetimes vs. chars, raw identifiers);
//! 2. [`scope`] — exact per-token `#[cfg(test)]` masking, nested and
//!    repeated test modules included;
//! 3. [`rules`] — the rule catalog and the file-local token rules.
//!
//! [`run`] walks a workspace root and returns a [`Report`]; the binary
//! renders it as `file:line:col` diagnostics or `--json`.

pub mod lexer;
pub mod rules;
pub mod scope;

pub use rules::{Diagnostic, RuleInfo, RULES};

use puffer_probe::append;
use puffer_probe::json::escape_into;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// What to scan and which rules to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (diagnostic paths are reported relative to it).
    pub root: PathBuf,
    /// Rule-name filter; `None` runs everything.
    pub rules: Option<BTreeSet<String>>,
}

impl Config {
    /// All rules over `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Config { root: root.into(), rules: None }
    }

    fn enabled(&self, rule: &str) -> bool {
        self.rules.as_ref().is_none_or(|set| set.contains(rule))
    }
}

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col).
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files lexed.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the machine-readable `--json` document (schema: object with
    /// `version`, `files_scanned`, and `diagnostics`, an array of
    /// `{file, line, col, rule, message}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        append!(out, "  \"version\": 2,\n  \"files_scanned\": {},\n", self.files_scanned);
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"file\": ");
            escape_into(&mut out, &d.file);
            append!(out, ", \"line\": {}, \"col\": {}, \"rule\": ", d.line, d.col);
            escape_into(&mut out, d.rule);
            out.push_str(", \"message\": ");
            escape_into(&mut out, &d.message);
            out.push('}');
        }
        out.push_str(if self.diagnostics.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }
}

/// Directory names never descended into: build output, VCS metadata, and
/// the lint suite's own deliberately-violating fixtures.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name.starts_with('.')
}

fn walk(dir: &Path, rs: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk(&path, rs)?;
            }
        } else if name.ends_with(".rs") {
            rs.push(path);
        }
    }
    Ok(())
}

/// Runs the configured rules over the workspace.
///
/// # Errors
///
/// Returns a message if the root cannot be walked or a file cannot be
/// read; individual rule findings are *not* errors (they land in the
/// [`Report`]).
pub fn run(config: &Config) -> Result<Report, String> {
    let mut rs_files = Vec::new();
    walk(&config.root, &mut rs_files)?;
    rs_files.sort();

    let mut report = Report { files_scanned: rs_files.len(), ..Report::default() };
    for path in &rs_files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let tokens = lexer::lex(&src);
        let mask = scope::test_mask(&tokens);
        let rel = path.strip_prefix(&config.root).unwrap_or(path);
        let ctx = rules::FileContext::new(rel, &tokens, &mask);
        report.diagnostics.extend(rules::check_tokens(&ctx, &|rule| config.enabled(rule)));
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Resolves a `--rules` filter string, rejecting unknown rule names.
///
/// # Errors
///
/// Returns the offending name if it is not in [`RULES`].
pub fn parse_rules_filter(spec: &str) -> Result<BTreeSet<String>, String> {
    let mut set = BTreeSet::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !RULES.iter().any(|r| r.name == name) {
            return Err(format!(
                "unknown rule `{name}` (known: {})",
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ));
        }
        set.insert(name.to_string());
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_filter_rejects_unknown() {
        assert!(parse_rules_filter("no-vec-alloc-in-kernel, simd-needs-feature-gate").is_ok());
        assert!(parse_rules_filter("no-such-rule").is_err());
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let r = Report::default();
        let j = r.to_json();
        assert!(j.contains("\"diagnostics\": []"));
    }
}
