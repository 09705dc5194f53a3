//! The `puffer-bench` binary from the outside: what it writes (nothing,
//! unless `--out` names a file), what one `--out` line holds, what `list`
//! names, and how `diff` judges two records.

use puffer_probe::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_puffer-bench");

/// A fresh empty directory under the system temp dir.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("puffer_bench_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .env_remove("PUFFER_TRACE")
        .env_remove("PUFFER_METRICS")
        .output()
        .expect("puffer-bench must launch")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Pins a bug: a binary that finds the workspace root through the *runtime*
/// `CARGO_MANIFEST_DIR` and is started directly writes into whatever its
/// cwd is. Without `--out`, a run creates nothing there.
#[test]
fn a_run_without_out_leaves_its_cwd_empty() {
    let cwd = empty_dir("clean");
    let out = bench(&cwd, &["table1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| Factorized FC "), "Table 1 must print:\n{stdout}");
    assert!(stdout.contains("formulas_match_instantiated_layers"), "gates must print:\n{stdout}");
    assert_eq!(entries(&cwd), Vec::<String>::new(), "the run wrote into its cwd");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn out_appends_one_parseable_line_per_run_with_header_and_gates() {
    let cwd = empty_dir("out");
    for run in 1..=2 {
        let out = bench(&cwd, &["table1-complexity", "--out", "records.jsonl"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(entries(&cwd), ["records.jsonl"], "--out names the only file written");
        let doc = std::fs::read_to_string(cwd.join("records.jsonl")).expect("records.jsonl");
        assert!(doc.ends_with('\n'));
        assert_eq!(doc.lines().count(), run, "each run appends exactly one line");
    }

    let doc = std::fs::read_to_string(cwd.join("records.jsonl")).expect("records.jsonl");
    let rec = json::parse(doc.lines().last().expect("a line")).expect("a record line is JSON");
    assert_eq!(rec.get("experiment").and_then(Json::as_str), Some("table1-complexity"));
    let header = rec.get("header").expect("header");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        header.get("hardware_threads").and_then(Json::as_num),
        Some(hardware_threads as f64)
    );
    assert!(header.get("pool_threads").and_then(Json::as_num).is_some_and(|n| n >= 1.0));
    assert!(header.get("simd").and_then(Json::as_str).is_some());
    let rows = rec.get("tables").and_then(Json::as_arr).expect("tables")[0]
        .get("rows")
        .and_then(Json::as_arr)
        .expect("rows");
    assert_eq!(rows.len(), 10, "Table 1 has ten rows");
    assert_eq!(rows[0].get("Network").and_then(Json::as_str), Some("Vanilla FC"));
    let gate = &rec.get("gates").and_then(Json::as_arr).expect("gates")[0];
    assert_eq!(gate.get("gate").and_then(Json::as_str), Some("formulas_match_instantiated_layers"));
    assert_eq!(gate.get("pass"), Some(&Json::Bool(true)));
    assert!(gate.get("detail").and_then(Json::as_str).is_some_and(|d| !d.is_empty()));
    assert_eq!(rec.get("all_pass"), Some(&Json::Bool(true)));
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn list_names_every_subcommand_and_bad_invocations_exit_2() {
    let cwd = empty_dir("list");
    let out = bench(&cwd, &["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 33, "24 paper experiments + 9 tools:\n{stdout}");
    let tools = "soak overlap-sweep alloc-churn gemm-scaling conv-roofline fault-sweep trace-demo insight diff";
    for tool in tools.split_whitespace() {
        assert!(names.contains(&tool), "list lacks {tool}:\n{stdout}");
    }
    for bad in [&[][..], &["no-such-experiment"], &["table1", "--check"], &["soak", "--out"]] {
        assert_eq!(bench(&cwd, bad).status.code(), Some(2), "{bad:?}");
    }
    // The two file tools check their own operands: a failed `usage` gate.
    for short in [&["diff", "only-one"][..], &["insight"]] {
        let out = bench(&cwd, short);
        assert_eq!(out.status.code(), Some(1), "{short:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage"), "{short:?}");
    }
    assert_eq!(entries(&cwd), Vec::<String>::new());
    std::fs::remove_dir_all(&cwd).ok();
}

/// `diff` over two `--out` files: equal records pass, a gate that went
/// `true → false` is a regression and exits 1.
#[test]
fn diff_passes_equal_records_and_fails_a_lost_gate() {
    let cwd = empty_dir("diff");
    for file in ["a.jsonl", "b.jsonl"] {
        assert!(bench(&cwd, &["table1", "--out", file]).status.success());
    }
    let same = bench(&cwd, &["diff", "a.jsonl", "b.jsonl"]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stdout));

    let b = std::fs::read_to_string(cwd.join("b.jsonl")).expect("b.jsonl");
    assert!(b.contains("\"pass\":true"));
    std::fs::write(cwd.join("lost.jsonl"), b.replace("\"pass\":true", "\"pass\":false"))
        .expect("write lost.jsonl");
    let lost = bench(&cwd, &["diff", "a.jsonl", "lost.jsonl"]);
    assert_eq!(lost.status.code(), Some(1), "{}", String::from_utf8_lossy(&lost.stdout));
    assert!(String::from_utf8_lossy(&lost.stdout).contains("no_regressions"));
    std::fs::remove_dir_all(&cwd).ok();
}
