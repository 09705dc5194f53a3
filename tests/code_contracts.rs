//! The workspace's source contracts that live outside the type system
//! (DESIGN.md §8), checked on the committed files:
//!
//! * one quantile implementation: no `fn median` / `percentile` /
//!   `quantile` / `pNN` outside `crates/probe` and `crates/insight`, unless
//!   the line or the one above carries `lint:allow(no-raw-percentile-math)`;
//! * the lint levels and `clippy.toml` entries that hold the rest. A dropped
//!   `clippy.toml` entry fails clippy itself on the `clippy_canaries`
//!   modules; a dropped `deny` cannot, because an `#[expect]` switches its
//!   own lint on, so the deny lists are pinned here.

use std::fs;
use std::path::{Path, PathBuf};

/// The suppression marker of the quantile rule.
const MARKER: &str = "lint:allow(no-raw-percentile-math)";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Whether a function name claims to compute a quantile: the generic
/// statistics names, or `p` and two or more digits (`p50`, `p999`).
/// Compound names like `p50_seconds` consume a quantile rather than derive
/// one, and `p3` is a cluster preset (`ClusterProfile::p3`).
fn is_percentile_fn_name(name: &str) -> bool {
    matches!(name, "median" | "percentile" | "percentiles" | "quantile" | "quantiles")
        || name
            .strip_prefix('p')
            .is_some_and(|rest| rest.len() >= 2 && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// `(line, name)` of every quantile fn `src` defines without the marker on
/// its line or the line above. Text after `//` is not code.
fn percentile_definitions(src: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        let mut words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        while let Some(word) = words.next() {
            if word != "fn" {
                continue;
            }
            let Some(name) = words.find(|w| !w.is_empty()) else { break };
            let marked = line.contains(MARKER) || (i > 0 && lines[i - 1].contains(MARKER));
            if is_percentile_fn_name(name) && !marked {
                found.push((i + 1, name.to_string()));
            }
        }
    }
    found
}

/// Every `.rs` file under `dir`, skipping build output, test and bench
/// directories and the two crates that own quantile math.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())).flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            let owner = path.ends_with("crates/probe") || path.ends_with("crates/insight");
            if !owner && !matches!(name.as_str(), "target" | "tests" | "benches") {
                sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn quantile_math_lives_in_the_probe_and_insight() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "benchmark/src"] {
        sources(&root().join(dir), &mut files);
    }
    for must in ["crates/tensor/src/gemm.rs", "src/lib.rs", "benchmark/src/stats.rs"] {
        assert!(files.contains(&root().join(must)), "the scan missed {must}");
    }
    let mut findings = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for (line, name) in percentile_definitions(&src) {
            let rel = path.strip_prefix(root()).unwrap_or(path).display().to_string();
            findings.push(format!("{rel}:{line}: `fn {name}`"));
        }
    }
    assert!(
        findings.is_empty(),
        "quantile helpers outside crates/probe and crates/insight; record into \
         puffer_probe::Histogram and read p50/p90/p99 from it so every percentile shares one \
         definition, or mark a deliberate exception with `{MARKER}`:\n{}",
        findings.join("\n")
    );
}

#[test]
fn percentile_scan_flags_quantile_definitions() {
    let median = "fn median(mut xs: Vec<f64>) -> f64 {\n    xs[xs.len() / 2]\n}";
    assert_eq!(percentile_definitions(median), [(1, "median".to_string())]);
    let quantile = "struct S;\nimpl S {\n    pub(crate) fn quantile(&self, q: f64) -> f64 { q }\n}";
    assert_eq!(percentile_definitions(quantile), [(3, "quantile".to_string())]);
    let p99 = "pub fn p99(xs: &[f64]) -> f64 { xs[xs.len() * 99 / 100] }";
    assert_eq!(percentile_definitions(p99), [(1, "p99".to_string())]);
    assert!(is_percentile_fn_name("p999") && is_percentile_fn_name("percentiles"));
}

#[test]
fn percentile_scan_spares_consumers_presets_and_comments() {
    let consumer = "fn p50_seconds(h: &Histogram) -> f64 { h.p50() as f64 / 1e9 }";
    assert!(percentile_definitions(consumer).is_empty());
    let preset = "impl ClusterProfile {\n    pub fn p3() -> Self { todo!() }\n}";
    assert!(percentile_definitions(preset).is_empty());
    let binding = "fn f(h: &Histogram) { let median = h.p50(); report(median); }";
    assert!(percentile_definitions(binding).is_empty());
    let call = "fn g(xs: &[f64]) -> f64 { stats::median(xs) }";
    assert!(percentile_definitions(call).is_empty());
    let comment = "// fn median was here; use the probe\nfn f() {}";
    assert!(percentile_definitions(comment).is_empty());
    for name in ["p", "p3", "print", "p2p_send", "medians_of"] {
        assert!(!is_percentile_fn_name(name), "{name}");
    }
}

#[test]
fn percentile_scan_honours_the_marker() {
    let above =
        format!("// exact median needed here. {MARKER}\nfn median(xs: &[f64]) -> f64 {{ xs[0] }}");
    assert!(percentile_definitions(&above).is_empty());
    let same = format!("fn median(xs: &[f64]) -> f64 {{ xs[0] }} // {MARKER}");
    assert!(percentile_definitions(&same).is_empty());
    let two_above = format!("// {MARKER}\n\nfn median(xs: &[f64]) -> f64 {{ xs[0] }}");
    assert_eq!(percentile_definitions(&two_above).len(), 1);
    let other_rule = "// lint:allow(some-other-rule)\nfn median(xs: &[f64]) -> f64 { xs[0] }";
    assert_eq!(percentile_definitions(other_rule).len(), 1);
}

/// The `path = ".."` entries of the TOML array that follows `key`.
fn banned_paths<'a>(config: &'a str, key: &str) -> Vec<&'a str> {
    let Some(list) = config.split(&format!("\n{key} = [")).nth(1) else { return Vec::new() };
    let list = list.split("\n]").next().unwrap_or_default();
    list.split("path = \"").skip(1).filter_map(|rest| rest.split('"').next()).collect()
}

#[test]
fn compiler_held_contracts_stay_configured() {
    const PANIC_FAMILY: [&str; 7] = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::indexing_slicing",
    ];
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
        // The trainer's function budget, the lint level in the crate and the
        // threshold in the clippy.toml nearest to it; and float arithmetic,
        // which only the two owners of gradient summation order may do
        // without saying why.
        if rel == "crates/dist/src/lib.rs" {
            assert!(deny.contains("clippy::too_many_lines"), "{rel} lost its function budget");
            let config = read("crates/dist/clippy.toml");
            assert!(config.contains("\ntoo-many-lines-threshold = 120\n"), "budget moved");
            assert!(deny.contains("clippy::float_arithmetic"), "{rel} lost the summation owners");
        }
    }

    // puffer-dist shares nothing but messages, with one exception that
    // carries its own liveness argument: the locks stay banned, and the
    // admission counter in membership.rs stays the only place that is let
    // off (lib.rs's canaries expect the lint bare, to show it still fires).
    // Float arithmetic is let off with `expect` only: an `allow` would stay
    // silent over a gradient sum added under it later.
    let config = read("crates/dist/clippy.toml");
    for banned in ["std::sync::Mutex", "std::sync::RwLock", "std::sync::Condvar"] {
        assert!(
            banned_paths(&config, "disallowed-types").contains(&banned),
            "dist allows {banned}"
        );
    }
    let count = |src: &str, attrs: &[&str]| {
        let src: String = src.split_whitespace().collect();
        attrs.iter().map(|attr| src.matches(attr).count()).sum::<usize>()
    };
    for file in fs::read_dir(root().join("crates/dist/src")).expect("dist sources").flatten() {
        let src = fs::read_to_string(file.path()).expect("dist source");
        let types = ["expect(clippy::disallowed_types,", "allow(clippy::disallowed_types"];
        let want = usize::from(file.file_name() == "membership.rs");
        assert_eq!(count(&src, &types), want, "{}", file.path().display());
        let floats = ["allow(clippy::float_arithmetic"];
        assert_eq!(count(&src, &floats), 0, "{}", file.path().display());
    }

    // Every crate opts into the workspace lint table, which keeps unsafe
    // operations in documented blocks and results from being dropped.
    let manifest = read("Cargo.toml");
    let rust = manifest.split("[workspace.lints.rust]").nth(1).expect("workspace rust lints");
    assert!(rust.contains("\nunsafe_op_in_unsafe_fn = \"deny\"\n"), "unsafe fns lost their blocks");
    let clippy = manifest.split("[workspace.lints.clippy]").nth(1).expect("workspace lint table");
    assert!(clippy.contains("\nundocumented_unsafe_blocks = \"deny\"\n"));
    assert!(clippy.contains("\nlet_underscore_must_use = \"deny\"\n"));
    for crate_dir in fs::read_dir(root().join("crates")).expect("crates/").flatten() {
        let text = fs::read_to_string(crate_dir.path().join("Cargo.toml")).expect("manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} opts out of the workspace lint table",
            crate_dir.path().display()
        );
    }
}

#[test]
fn kernel_scratch_stays_in_the_arena() {
    // The tensor crate's clippy.toml bans the two fresh-buffer calls; the
    // crate allows them and each kernel module denies them outside tests.
    for module in ["attention", "matmul", "gemm", "conv", "conv_direct"] {
        let src = read(&format!("crates/tensor/src/{module}.rs"));
        assert!(
            src.contains("\n#![cfg_attr(not(test), deny(clippy::disallowed_methods))]\n"),
            "crates/tensor/src/{module}.rs no longer denies fresh buffers"
        );
    }
    // clippy does not merge clippy.toml files: the crate's own repeats the
    // workspace's type bans, as dist's does.
    let tensor = read("crates/tensor/clippy.toml");
    assert_eq!(
        banned_paths(&tensor, "disallowed-methods"),
        ["alloc::vec::from_elem", "alloc::vec::Vec::with_capacity"]
    );
    let workspace = read("clippy.toml");
    let types = banned_paths(&workspace, "disallowed-types");
    assert_eq!(types.len(), 4, "the workspace's type bans");
    let dist = read("crates/dist/clippy.toml");
    for banned in types {
        assert!(banned_paths(&tensor, "disallowed-types").contains(&banned), "tensor: {banned}");
        assert!(banned_paths(&dist, "disallowed-types").contains(&banned), "dist: {banned}");
    }
}
