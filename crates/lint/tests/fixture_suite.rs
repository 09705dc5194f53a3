//! The lint's self-test: run the engine over `tests/fixtures/` — a
//! miniature workspace seeded with one violation per rule edge case — and
//! pin every finding to its exact `file:line`.
//!
//! This is also the regression suite for the two bugs the lexer-based
//! lint fixes over the old awk/grep gate:
//!
//! 1. **comment/string blindness** — decoy `"set_num_threads("` literals
//!    and `+=` in comments must produce *zero* findings
//!    (`pool_width.rs`, `bucket_apply.rs`);
//! 2. **the first-`#[cfg(test)]` early exit** — code after an early test
//!    module must still be scanned (`after_test_module.rs`).

use puffer_lint::{run, Config};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every seeded violation: (file, line, rule).
const EXPECTED: &[(&str, u32, &str)] = &[
    ("crates/dist/src/after_test_module.rs", 22, "dist-no-instant"),
    ("crates/dist/src/after_test_module.rs", 22, "no-wall-clock-outside-probe"),
    ("crates/dist/src/after_test_module.rs", 25, "dist-no-instant"),
    ("crates/dist/src/after_test_module.rs", 25, "no-wall-clock-outside-probe"),
    ("crates/dist/src/bucket_apply.rs", 17, "bucket-apply-order-pinned"),
    ("crates/dist/src/guard_block.rs", 14, "guard-across-blocking-op"),
    ("crates/dist/src/lock_order.rs", 18, "lock-order-consistency"),
    ("crates/dist/src/lock_order.rs", 24, "lock-order-consistency"),
    ("crates/dist/src/pool_width.rs", 14, "dist-pool-width-via-membership"),
    ("crates/dist/src/reachable.rs", 24, "dist-panic-reachability"),
    ("crates/dist/src/reachable.rs", 25, "dist-panic-reachability"),
    ("crates/other/src/discards.rs", 12, "discarded-result"),
    ("crates/other/src/discards.rs", 16, "discarded-result"),
    ("crates/other/src/float_reduce.rs", 9, "nondeterministic-float-reduction"),
    ("crates/other/src/percentiles.rs", 7, "no-raw-percentile-math"),
    ("crates/other/src/wall_clock.rs", 3, "no-wall-clock-outside-probe"),
    ("crates/other/src/wall_clock.rs", 4, "no-wall-clock-outside-probe"),
    ("crates/other/src/wall_clock.rs", 7, "no-wall-clock-outside-probe"),
    ("crates/other/src/wall_clock.rs", 8, "no-wall-clock-outside-probe"),
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
fn probe_fixture_stays_clean() {
    // A raw Instant inside crates/probe is the one place it belongs.
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    assert!(!report.diagnostics.iter().any(|d| d.file.contains("probe")));
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
fn pool_width_fixture_flags_only_the_unexempted_mutation() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let pool: Vec<_> =
        report.diagnostics.iter().filter(|d| d.rule == "dist-pool-width-via-membership").collect();
    // pool_width.rs seeds one live violation plus three exempt call sites
    // (string decoy, lint:allow, #[cfg(test)]); membership.rs — the module
    // that owns the pool width — must stay clean.
    assert_eq!(pool.len(), 1, "{pool:?}");
    assert!(pool[0].file.ends_with("pool_width.rs"));
    assert!(!report.diagnostics.iter().any(|d| d.file.ends_with("membership.rs")));
}

#[test]
fn bucket_apply_fixture_flags_only_the_unpinned_accumulation() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let apply: Vec<_> =
        report.diagnostics.iter().filter(|d| d.rule == "bucket-apply-order-pinned").collect();
    // bucket_apply.rs seeds one live violation plus four exempt sites
    // (comment/string decoys, plain store, indexed read, lint:allow,
    // #[cfg(test)]); the pinned owners bucket.rs/ring.rs never appear.
    assert_eq!(apply.len(), 1, "{apply:?}");
    assert!(apply[0].file.ends_with("bucket_apply.rs"));
}

#[test]
fn seeded_deep_unwrap_reports_its_full_call_chain_in_json() {
    // The acceptance case for dist-panic-reachability: reachable.rs seeds
    // an `.unwrap()` three calls below `Trainer::run` (run → round →
    // pack_refs → deep_unwrap), and the chain must survive into the
    // `--json` document verbatim.
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let unwrap_finding = report
        .diagnostics
        .iter()
        .find(|d| d.file.ends_with("reachable.rs") && d.message.contains("`.unwrap()`"))
        .expect("seeded deep unwrap not found");
    assert_eq!(unwrap_finding.rule, "dist-panic-reachability");
    assert_eq!(unwrap_finding.line, 25);
    assert!(
        unwrap_finding.message.contains("run → round → pack_refs → deep_unwrap"),
        "call chain missing from finding: {}",
        unwrap_finding.message
    );
    let json = report.to_json();
    assert!(
        json.contains("run → round → pack_refs → deep_unwrap"),
        "call chain missing from --json output"
    );
}

#[test]
fn semantic_fixtures_honor_allows_and_test_exemption() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    // reachable.rs: the allowed slice access (line 27) and the test-module
    // unwrap stay silent; only the two seeded sites fire.
    assert_eq!(report.diagnostics.iter().filter(|d| d.file.ends_with("reachable.rs")).count(), 2);
    // lock_order.rs: the c/d pair reverses like a/b but both sides carry
    // allows, and the test module's reversal is exempt — only a/b fires.
    let lock: Vec<_> =
        report.diagnostics.iter().filter(|d| d.file.ends_with("lock_order.rs")).collect();
    assert_eq!(lock.len(), 2, "{lock:?}");
    assert!(lock.iter().all(|d| d.line < 26), "suppressed c/d pair leaked: {lock:?}");
    // guard_block.rs / float_reduce.rs / discards.rs: exactly the
    // unsuppressed non-test sites from EXPECTED, nothing else.
    for (file, n) in [("guard_block.rs", 1), ("float_reduce.rs", 1), ("discards.rs", 2)] {
        assert_eq!(
            report.diagnostics.iter().filter(|d| d.file.ends_with(file)).count(),
            n,
            "{file} finding count"
        );
    }
}

#[test]
fn rules_filter_restricts_findings() {
    let mut config = Config::new(fixtures_root());
    config.rules = Some(BTreeSet::from(["dist-no-instant".to_string()]));
    let report = run(&config).expect("fixture scan");
    assert_eq!(report.diagnostics.len(), 2);
    assert!(report.diagnostics.iter().all(|d| d.rule == "dist-no-instant"));

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
fn scan_counts_cover_the_fixture_tree() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    assert_eq!(report.files_scanned, 16, "fixture .rs census changed");
    assert!(!report.is_clean());
}
