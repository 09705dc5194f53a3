//! All four workloads, each in a process of its own, gathered into
//! `results.json`; plus the noise self-check and the golden-loss writer.

use crate::json::{arr, num, obj, parse, render, text, Json};
use crate::metrics::{END_TO_END, EXACT_PER_LAYER};
use crate::procfs;
use crate::stats::rel_diff;
use crate::workloads::{self, NAMES};
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Clone)]
pub struct SuiteSpec {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub golden_path: PathBuf,
    pub git_rev: String,
    pub rustc: String,
}

/// File a single run leaves its detail in.
pub fn detail_file(workload: &str, trace: bool) -> String {
    format!("{workload}.trace{}.json", trace as u8)
}

/// Runs one workload in a child process and returns the detail it wrote.
/// The child inherits stdout, so its metric table is what the user reads.
fn run_child(
    spec: &SuiteSpec,
    out: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    use_golden: bool,
) -> Result<Json, String> {
    let detail = out.join(detail_file(workload, trace));
    // A stale file from an earlier run must not pass for this one's.
    match std::fs::remove_file(&detail) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("remove {}: {e}", detail.display()))
        }
        _ => {}
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if use_golden {
        cmd.arg("--golden").arg(&spec.golden_path);
    }
    if spec.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("start {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) exited with {status}", trace as u8));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("read {}: {e}", detail.display()))?;
    parse(&text).map_err(|e| format!("parse {}: {e}", detail.display()))
}

fn context(spec: &SuiteSpec) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("nproc", num(nproc as f64)),
        ("cpu_model", text(procfs::cpu_model())),
        ("simd_supported", Json::Bool(puffer_tensor::gemm::simd_supported())),
        ("pool_width_alg1", num(workloads::alg1_pool_width() as f64)),
        ("pool_width_per_dp_worker", num(1.0)),
        ("dp_workers", num(workloads::DataParallel::WORKERS as f64)),
        ("git_rev", text(&spec.git_rev)),
        ("rustc", text(&spec.rustc)),
        ("seed", num(spec.seed as f64)),
        ("seconds", num(spec.seconds)),
        ("quick", Json::Bool(spec.quick)),
        ("prng", text("benchmark/shims/rand: streams differ from the published rand crate")),
    ])
}

/// One workload untraced, then (if asked) traced.
fn run_workload(spec: &SuiteSpec, out: &Path, name: &str) -> Result<Json, String> {
    let mut fields =
        vec![("end_to_end".to_owned(), run_child(spec, out, name, spec.seed, false, true)?)];
    if spec.trace {
        fields.push(("per_layer".to_owned(), run_child(spec, out, name, spec.seed, true, true)?));
    }
    Ok(Json::Obj(fields))
}

/// Gathers the workloads of one set into `results.json` in `out`.
fn write_results(
    spec: &SuiteSpec,
    out: &Path,
    per_workload: Vec<(String, Json)>,
) -> Result<Json, String> {
    let results = obj([("context", context(spec)), ("workloads", Json::Obj(per_workload))]);
    let path = out.join("results.json");
    crate::run::write_out(out, "results.json", &(render(&results) + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(results)
}

/// One full set: every workload in turn. Writes `results.json` into `out`
/// and returns it.
pub fn run_set(spec: &SuiteSpec, out: &Path) -> Result<Json, String> {
    let mut per_workload = Vec::new();
    for name in NAMES {
        per_workload.push((name.to_owned(), run_workload(spec, out, name)?));
    }
    write_results(spec, out, per_workload)
}

fn metric(results: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_num()
}

fn failed_steps(results: &Json, workload: &str, section: &str) -> Option<f64> {
    results.get("workloads")?.get(workload)?.get(section)?.get("failed")?.as_num()
}

/// Regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<(&'static str, f64)>, String> {
    let listed =
        benchmark_json.get("end_to_end").and_then(Json::as_arr).ok_or("no `end_to_end` array")?;
    END_TO_END
        .iter()
        .map(|d| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name))
                .and_then(|m| m.get("bound")?.as_num())
                .map(|b| (d.name, b))
                .ok_or_else(|| format!("no bound for `{}`", d.name))
        })
        .collect()
}

/// Every way two sets of the same code disagree by more than the
/// benchmark's own bounds. Empty = the benchmark can tell a regression of
/// that size from noise on this machine.
pub fn disagreements(a: &Json, b: &Json, bounds: &[(&str, f64)], traced: bool) -> Vec<String> {
    let mut out = Vec::new();
    for w in NAMES {
        for set in [a, b] {
            if failed_steps(set, w, "end_to_end") != Some(0.0) {
                out.push(format!("{w}: a set has failed steps"));
            }
        }
        for (name, bound) in bounds {
            match (metric(a, w, "end_to_end", name), metric(b, w, "end_to_end", name)) {
                (Some(x), Some(y)) => {
                    // Either direction counts: the two sets are the same
                    // code, and `rel_diff` does not care which ran first.
                    let diff = rel_diff(x, y);
                    if diff > *bound {
                        out.push(format!(
                            "{w}: {name} {x} vs {y} differs by {:.1}% > {:.0}%",
                            diff * 100.0,
                            bound * 100.0
                        ));
                    }
                }
                _ => out.push(format!("{w}: {name} missing from a set")),
            }
        }
        if traced {
            for name in EXACT_PER_LAYER {
                let (x, y) = (metric(a, w, "per_layer", name), metric(b, w, "per_layer", name));
                if x.is_none() || x != y {
                    out.push(format!("{w}: count {name} did not repeat: {x:?} vs {y:?}"));
                }
            }
        }
    }
    out
}

/// Runs two full sets and fails if they disagree. The sets alternate
/// workload by workload, so that a slow stretch of the machine falls on both
/// sets of a workload and not on one whole set.
pub fn selfcheck(spec: &SuiteSpec, benchmark_json: &Json) -> Result<(), String> {
    let bounds = bounds(benchmark_json)?;
    let outs = [spec.out.join("selfcheck_a"), spec.out.join("selfcheck_b")];
    let mut sets = [Vec::new(), Vec::new()];
    for name in NAMES {
        for (set, out) in sets.iter_mut().zip(&outs) {
            set.push((name.to_owned(), run_workload(spec, out, name)?));
        }
    }
    let [a, b] = sets;
    let a = write_results(spec, &outs[0], a)?;
    let b = write_results(spec, &outs[1], b)?;
    let bad = disagreements(&a, &b, &bounds, spec.trace);
    if bad.is_empty() {
        println!("selfcheck: two sets agree within the bounds of BENCHMARK.json");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", bad.join("\n  ")))
    }
}

/// Measures one unit per workload and seed and writes their final losses
/// to `golden.json`. Run after a change that legitimately alters the
/// arithmetic (the tolerance absorbs a reduction-order change).
pub fn write_golden(spec: &SuiteSpec, seeds: std::ops::RangeInclusive<u64>) -> Result<(), String> {
    let quick =
        SuiteSpec { quick: true, trace: false, out: spec.out.join("golden_runs"), ..spec.clone() };
    let mut per_workload = Vec::new();
    for name in NAMES {
        let mut per_seed = Vec::new();
        for seed in seeds.clone() {
            let detail = run_child(&quick, &quick.out, name, seed, false, false)?;
            if detail.get("failed").and_then(Json::as_num) != Some(0.0) {
                return Err(format!("{name} seed {seed} fails its checks; not recording it"));
            }
            let loss = detail
                .get("final_loss")
                .and_then(Json::as_num)
                .ok_or("run reported no final loss")?;
            per_seed.push((seed.to_string(), num(loss)));
        }
        per_workload.push((name.to_owned(), Json::Obj(per_seed)));
    }
    let doc = obj([
        ("what", text("final training loss of one unit, per workload and seed; checked to 5 %")),
        ("seeds", arr([num(*seeds.start() as f64), num(*seeds.end() as f64)])),
        ("final_loss", Json::Obj(per_workload)),
    ]);
    std::fs::write(&spec.golden_path, render(&doc) + "\n")
        .map_err(|e| format!("write {}: {e}", spec.golden_path.display()))?;
    println!("wrote {}", spec.golden_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(samples_per_s: f64, params: f64) -> Json {
        let m = |v: f64| obj([("value", num(v)), ("unit", text("x"))]);
        let e2e = obj([
            ("failed", num(0.0)),
            (
                "metrics",
                obj([
                    ("samples_per_s", m(samples_per_s)),
                    ("cpu_s_per_ksample", m(10.0)),
                    ("peak_rss_mb", m(100.0)),
                    ("setup_s", m(1.0)),
                ]),
            ),
        ]);
        let layer = obj([("metrics", obj(EXACT_PER_LAYER.iter().map(|n| (*n, m(params)))))]);
        let w = obj([("end_to_end", e2e), ("per_layer", layer)]);
        obj([("workloads", obj(NAMES.iter().map(|n| (*n, w.clone()))))])
    }

    const BOUNDS: [(&str, f64); 4] = [
        ("samples_per_s", 0.1),
        ("cpu_s_per_ksample", 0.1),
        ("peak_rss_mb", 0.05),
        ("setup_s", 0.25),
    ];

    #[test]
    fn sets_within_bounds_agree_in_both_directions() {
        assert!(disagreements(&set(100.0, 5.0), &set(108.0, 5.0), &BOUNDS, true).is_empty());
        assert!(disagreements(&set(108.0, 5.0), &set(100.0, 5.0), &BOUNDS, true).is_empty());
        // 80 against 100 is a quarter of the smaller, in whichever order.
        for (x, y) in [(100.0, 80.0), (80.0, 100.0)] {
            let bad = disagreements(&set(x, 5.0), &set(y, 5.0), &BOUNDS, false);
            assert_eq!(bad.len(), NAMES.len(), "{x} vs {y}");
            assert!(bad[0].contains("25.0%"), "{}", bad[0]);
        }
    }

    #[test]
    fn a_swing_beyond_the_bound_is_reported_per_workload() {
        let bad = disagreements(&set(100.0, 5.0), &set(80.0, 5.0), &BOUNDS, false);
        assert_eq!(bad.len(), NAMES.len());
        assert!(bad[0].contains("samples_per_s"));
    }

    #[test]
    fn counts_must_repeat_exactly_when_traced() {
        let bad = disagreements(&set(100.0, 5.0), &set(100.0, 6.0), &BOUNDS, true);
        assert_eq!(bad.len(), NAMES.len() * EXACT_PER_LAYER.len());
        assert!(disagreements(&set(100.0, 5.0), &set(100.0, 6.0), &BOUNDS, false).is_empty());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), END_TO_END.len());
        assert!(b.iter().all(|(_, v)| *v > 0.0 && *v <= 0.25));
        let setup = b.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        assert!(b.iter().all(|(_, v)| *v <= setup), "setup_s carries the largest bound");
    }
}
