//! Schema-checks `puffer-lint --json` with `puffer-probe`'s own JSON
//! parser — the two zero-dependency crates keep each other honest: the
//! lint's writer must produce documents the probe's strict RFC 8259
//! reader accepts, field for field.

use puffer_lint::{run, Config};
use puffer_probe::json::{parse, Json};
use std::path::PathBuf;

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn json_output_parses_and_matches_the_report() {
    let report = run(&Config::new(fixtures_root())).expect("fixture scan");
    let doc = parse(&report.to_json()).expect("lint --json must be valid JSON");

    assert_eq!(num(&doc, "version"), 2.0);
    assert_eq!(num(&doc, "files_scanned") as usize, report.files_scanned);

    let diags = doc.get("diagnostics").and_then(Json::as_arr).expect("diagnostics array");
    assert_eq!(diags.len(), report.diagnostics.len());

    for (parsed, original) in diags.iter().zip(&report.diagnostics) {
        assert_eq!(parsed.get("file").and_then(Json::as_str), Some(original.file.as_str()));
        assert_eq!(num(parsed, "line") as u32, original.line);
        assert_eq!(num(parsed, "col") as u32, original.col);
        assert_eq!(parsed.get("rule").and_then(Json::as_str), Some(original.rule));
        assert_eq!(parsed.get("message").and_then(Json::as_str), Some(original.message.as_str()));
        // Rule names in the output must come from the published catalog.
        let rule = parsed.get("rule").and_then(Json::as_str).unwrap();
        assert!(
            puffer_lint::RULES.iter().any(|r| r.name == rule),
            "unknown rule {rule} in JSON output"
        );
    }
}

#[test]
fn empty_report_is_valid_json() {
    // Filter down to a rule with no findings in the insight fixture
    // subtree: the resulting empty diagnostics array must still parse.
    let mut config = Config::new(fixtures_root().join("crates/insight"));
    config.rules = Some(std::collections::BTreeSet::from(["no-vec-alloc-in-kernel".to_string()]));
    let report = run(&config).expect("scan");
    assert!(report.is_clean());
    let doc = parse(&report.to_json()).expect("empty report must be valid JSON");
    assert_eq!(doc.get("diagnostics").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}
