//! The lint's self-test: run the engine over `tests/fixtures/` — a
//! miniature workspace seeded with one violation per rule edge case — and
//! pin every finding to its exact `file:line`.
//!
//! This is also the regression suite for the two bugs the lexer-based
//! lint fixes over the old awk/grep gate:
//!
//! 1. **comment/string blindness** — `+=` in comments and string literals
//!    must produce *zero* findings (`bucket_apply.rs`);
//! 2. **the first-`#[cfg(test)]` early exit** — code after an early test
//!    module must still be scanned (`after_test_module.rs`).
//!
//! And it pins the configuration of the contracts that moved to clippy
//! (`compiler_held_contracts_stay_configured`).

use puffer_lint::{run, Config};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every seeded violation: (file, line, rule).
const EXPECTED: &[(&str, u32, &str)] = &[
    ("crates/dist/src/after_test_module.rs", 24, "bucket-apply-order-pinned"),
    ("crates/dist/src/bucket_apply.rs", 17, "bucket-apply-order-pinned"),
    ("crates/other/src/percentiles.rs", 7, "no-raw-percentile-math"),
    ("crates/tensor/src/matmul.rs", 17, "no-vec-alloc-in-kernel"),
    ("crates/tensor/src/matmul.rs", 21, "no-vec-alloc-in-kernel"),
    ("crates/tensor/src/simd.rs", 21, "simd-needs-feature-gate"),
    ("crates/tensor/src/simd_nodetect.rs", 7, "simd-needs-feature-gate"),
];

#[test]
fn every_seeded_violation_is_reported_at_its_exact_position() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let got: Vec<(String, u32, &str)> =
        report.diagnostics.iter().map(|d| (d.file.clone(), d.line, d.rule)).collect();
    let want: Vec<(String, u32, &str)> =
        EXPECTED.iter().map(|(f, l, r)| (f.to_string(), *l, *r)).collect();
    assert_eq!(got, want, "fixture findings diverged");
}

#[test]
fn awk_gate_regression_code_after_early_test_module_is_scanned() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let after: Vec<_> =
        report.diagnostics.iter().filter(|d| d.file.ends_with("after_test_module.rs")).collect();
    // The early test module ends on line 20; every finding sits below it —
    // exactly the region the awk gate never scanned.
    assert!(!after.is_empty(), "post-test-module code was not scanned");
    assert!(after.iter().all(|d| d.line > 20));
}

#[test]
fn bucket_apply_fixture_flags_only_the_unpinned_accumulation() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let apply: Vec<_> =
        report.diagnostics.iter().filter(|d| d.rule == "bucket-apply-order-pinned").collect();
    // bucket_apply.rs seeds one live violation plus the exempt sites
    // (comment/string decoys, plain store, indexed read, lint:allow,
    // #[cfg(test)]); after_test_module.rs seeds the other.
    assert_eq!(apply.len(), 2, "{apply:?}");
    assert!(apply.iter().any(|d| d.file.ends_with("bucket_apply.rs") && d.line == 17));
}

#[test]
fn rules_filter_restricts_findings() {
    let mut config = Config::new(fixtures_root());
    config.rules = Some(BTreeSet::from(["bucket-apply-order-pinned".to_string()]));
    let report = run(&config).expect("fixture scan");
    assert_eq!(report.diagnostics.len(), 2);
    assert!(report.diagnostics.iter().all(|d| d.rule == "bucket-apply-order-pinned"));

    config.rules = Some(BTreeSet::from(["no-vec-alloc-in-kernel".to_string()]));
    let report = run(&config).expect("fixture scan");
    assert_eq!(report.diagnostics.len(), 2);
    assert!(report.diagnostics.iter().all(|d| d.file.ends_with("tensor/src/matmul.rs")));
}

#[test]
fn design_doc_rule_table_matches_the_published_catalog() {
    // DESIGN.md §8's rule table and `rules::RULES` must name exactly the
    // same rules — the doc is the human half of the catalog, and a rule
    // added to one but not the other is a broken contract either way.
    let design_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("DESIGN.md");
    let design = std::fs::read_to_string(&design_path).expect("read DESIGN.md");
    let section = design
        .split("## 8.")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md §8 missing");
    let documented: BTreeSet<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .filter_map(|l| l.trim_start_matches("| `").split('`').next())
        .collect();
    let published: BTreeSet<&str> = puffer_lint::RULES.iter().map(|r| r.name).collect();
    assert_eq!(documented, published, "DESIGN.md §8 rule table out of sync with rules::RULES");
}

#[test]
fn compiler_held_contracts_stay_configured() {
    // The retired rules live on as clippy configuration (DESIGN.md §8, "held
    // by the compiler"). A dropped `clippy.toml` entry fails clippy itself on
    // the `clippy_canaries` modules; a dropped `deny` cannot — an `#[expect]`
    // switches its own lint on — so the deny lists are pinned here.
    const PANIC_FAMILY: [&str; 7] = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::indexing_slicing",
    ];
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    for rel in [
        "crates/dist/src/lib.rs",
        "crates/compress/src/powersgd.rs",
        "crates/compress/src/none.rs",
        "crates/compress/src/signum.rs",
        "crates/compress/src/topk.rs",
        "crates/compress/src/quant.rs",
        "crates/compress/src/atomo.rs",
    ] {
        let src = read(rel);
        let deny = src
            .split("#![cfg_attr(\n    not(test),\n    deny(")
            .nth(1)
            .and_then(|rest| rest.split(")\n)]").next())
            .unwrap_or_else(|| panic!("{rel}: no `#![cfg_attr(not(test), deny(..))]` block"));
        for lint in PANIC_FAMILY {
            assert!(deny.contains(lint), "{rel} no longer denies {lint}");
        }
        // The trainer's function budget: the lint level in the crate, the
        // threshold in the clippy.toml nearest to it.
        if rel == "crates/dist/src/lib.rs" {
            assert!(deny.contains("clippy::too_many_lines"), "{rel} lost its function budget");
            let config = read("crates/dist/clippy.toml");
            assert!(config.contains("\ntoo-many-lines-threshold = 120\n"), "budget moved");
        }
    }
    // puffer-dist shares nothing but messages, with one exception that
    // carries its own liveness argument: the locks stay banned, and the
    // admission counter in membership.rs stays the only place that is let
    // off (lib.rs's canaries expect the lint bare, to show it still fires).
    let config = read("crates/dist/clippy.toml");
    for banned in ["std::sync::Mutex", "std::sync::RwLock", "std::sync::Condvar"] {
        assert!(config.contains(&format!("path = \"{banned}\"")), "puffer-dist allows {banned}");
    }
    let let_off = |src: &str| {
        let src: String = src.split_whitespace().collect();
        ["expect(clippy::disallowed_types,", "allow(clippy::disallowed_types"]
            .iter()
            .map(|attr| src.matches(attr).count())
            .sum::<usize>()
    };
    for file in std::fs::read_dir(root.join("crates/dist/src")).expect("dist sources").flatten() {
        let src = std::fs::read_to_string(file.path()).expect("dist source");
        let want = usize::from(file.file_name() == "membership.rs");
        assert_eq!(let_off(&src), want, "{}", file.path().display());
    }
    let manifest = read("Cargo.toml");
    let lints = manifest.split("[workspace.lints.clippy]").nth(1).expect("workspace lint table");
    assert!(lints.contains("let_underscore_must_use = \"deny\""));
    for manifest in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        let text = std::fs::read_to_string(manifest.path().join("Cargo.toml")).expect("manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} opts out of the workspace lint table",
            manifest.path().display()
        );
    }
}

#[test]
fn scan_counts_cover_the_fixture_tree() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    assert_eq!(report.files_scanned, 7, "fixture .rs census changed");
    assert!(!report.is_clean());
}
