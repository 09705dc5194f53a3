//! Noise-aware comparison of two bench records (`puffer-bench --out`).
//!
//! Every numeric leaf is classified by its key: timing suffixes
//! (`*_ns`/`*_us`/`*_ms`/`*_s`) are lower-better, throughput-shaped keys
//! (`gflops`, `speedup*`, `*throughput*`) are higher-better, boolean
//! `pass`/`all_pass` leaves are hard gates, and everything else is
//! informational. A metric only counts as a **regression** when it moves
//! in the bad direction by more than the relative threshold *and* by more
//! than an absolute noise floor (1 ms for timings), so micro-benchmarks
//! jittering around a few hundred microseconds cannot fail a build.
//!
//! Schema evolution is deliberately non-fatal: keys present on only one
//! side are reported as notes, never as regressions — a bench that gains
//! a field must not break the gate that compares it to an old baseline.

use puffer_probe::appendln;
use puffer_probe::json::Json;

/// Default relative threshold: a bad-direction move under 40% is noise.
pub const DEFAULT_THRESHOLD: f64 = 0.4;

/// How a numeric leaf is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Smaller is better (timings); carries an absolute noise floor.
    LowerBetter,
    /// Larger is better (throughput, speedup).
    HigherBetter,
    /// Boolean gate: `true → false` is always a regression.
    Gate,
    /// Reported but never gated.
    Info,
}

/// Classifies a dotted-path leaf key and returns its kind plus the
/// absolute noise floor in the metric's own units.
#[must_use]
pub fn classify(path: &str) -> (MetricKind, f64) {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf == "pass" || leaf == "all_pass" {
        return (MetricKind::Gate, 0.0);
    }
    // Timing suffixes: floor is 1 ms expressed in the suffix's unit.
    if leaf.ends_with("_ns") {
        return (MetricKind::LowerBetter, 1e6);
    }
    if leaf.ends_with("_us") {
        return (MetricKind::LowerBetter, 1e3);
    }
    if leaf.ends_with("_ms") {
        return (MetricKind::LowerBetter, 1.0);
    }
    if leaf.ends_with("_s") {
        return (MetricKind::LowerBetter, 1e-3);
    }
    if leaf.contains("gflops") || leaf.contains("speedup") || leaf.contains("throughput") {
        return (MetricKind::HigherBetter, 0.0);
    }
    (MetricKind::Info, 0.0)
}

/// Comparison options.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative threshold for a bad-direction move (0.4 = 40%).
    pub threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { threshold: DEFAULT_THRESHOLD }
    }
}

/// One compared numeric or boolean leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the leaf (array elements by index).
    pub path: String,
    /// Metric classification.
    pub kind: MetricKind,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// `new / old` (1.0 when the baseline is 0).
    pub ratio: f64,
    /// Bad-direction move beyond threshold and floor.
    pub regressed: bool,
    /// Good-direction move beyond threshold.
    pub improved: bool,
}

/// The full comparison of two documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every compared leaf.
    pub entries: Vec<DiffEntry>,
    /// Structural observations (added/removed keys, type changes) — never
    /// regressions.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// The leaves that regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.regressed).collect()
    }

    /// Renders the comparison as a deterministic text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let regressions = self.regressions();
        appendln!(
            out,
            "diff: {} leaves compared, {} regression(s), {} note(s)",
            self.entries.len(),
            regressions.len(),
            self.notes.len()
        );
        for e in &self.entries {
            if !e.regressed && !e.improved {
                continue;
            }
            appendln!(
                out,
                "  [{}] {}: {} -> {} ({:+.1}%)",
                if e.regressed { "REGRESSED" } else { "improved" },
                e.path,
                fmt_num(e.old),
                fmt_num(e.new),
                (e.ratio - 1.0) * 100.0
            );
        }
        for n in &self.notes {
            appendln!(out, "  [note] {n}");
        }
        if regressions.is_empty() {
            appendln!(out, "  ok: no regressions beyond threshold");
        }
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

fn compare_leaf(path: &str, old: f64, new: f64, opts: DiffOptions, report: &mut DiffReport) {
    let (kind, floor) = classify(path);
    let ratio = if old == 0.0 {
        if new == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        new / old
    };
    let (regressed, improved) = match kind {
        MetricKind::LowerBetter => (
            new > old * (1.0 + opts.threshold) && (new - old) > floor,
            new < old / (1.0 + opts.threshold) && (old - new) > floor,
        ),
        MetricKind::HigherBetter => (
            new < old / (1.0 + opts.threshold) && (old - new) > floor,
            new > old * (1.0 + opts.threshold) && (new - old) > floor,
        ),
        MetricKind::Gate | MetricKind::Info => (false, false),
    };
    report.entries.push(DiffEntry {
        path: path.to_string(),
        kind,
        old,
        new,
        ratio,
        regressed,
        improved,
    });
}

fn walk(path: &str, old: &Json, new: &Json, opts: DiffOptions, report: &mut DiffReport) {
    match (old, new) {
        (Json::Obj(of), Json::Obj(nf)) => {
            for (k, ov) in of {
                match nf.iter().find(|(nk, _)| nk == k) {
                    Some((_, nv)) => walk(&join(path, k), ov, nv, opts, report),
                    None => report.notes.push(format!("{} removed in candidate", join(path, k))),
                }
            }
            for (k, _) in nf {
                if !of.iter().any(|(ok, _)| ok == k) {
                    report.notes.push(format!("{} added in candidate", join(path, k)));
                }
            }
        }
        (Json::Arr(oa), Json::Arr(na)) => {
            if oa.len() != na.len() {
                report.notes.push(format!("{path}: length {} -> {}", oa.len(), na.len()));
            }
            for (i, (ov, nv)) in oa.iter().zip(na.iter()).enumerate() {
                walk(&join(path, &i.to_string()), ov, nv, opts, report);
            }
        }
        (Json::Num(o), Json::Num(n)) => compare_leaf(path, *o, *n, opts, report),
        (Json::Bool(o), Json::Bool(n)) => {
            let (kind, _) = classify(path);
            let gate = kind == MetricKind::Gate;
            report.entries.push(DiffEntry {
                path: path.to_string(),
                kind,
                old: f64::from(u8::from(*o)),
                new: f64::from(u8::from(*n)),
                ratio: 1.0,
                regressed: gate && *o && !*n,
                improved: gate && !*o && *n,
            });
        }
        (Json::Str(o), Json::Str(n)) => {
            if o != n {
                report.notes.push(format!("{path}: \"{o}\" -> \"{n}\""));
            }
        }
        (Json::Null, Json::Null) => {}
        _ => report.notes.push(format!("{path}: type changed")),
    }
}

/// Compares two parsed bench documents.
#[must_use]
pub fn diff(old: &Json, new: &Json, opts: DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    walk("", old, new, opts, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_probe::json::parse;

    const BASELINE: &str = r#"{
      "bench": "gemm",
      "results": [
        {"m": 256, "kind": "square", "median_s": 0.0100, "gflops": 42.5, "speedup_vs_1_thread": 3.8},
        {"m": 512, "kind": "square", "median_s": 0.0800, "gflops": 40.1, "speedup_vs_1_thread": 3.6}
      ],
      "all_pass": true
    }"#;

    #[test]
    fn identical_documents_have_no_regressions() {
        let a = parse(BASELINE).unwrap();
        let rep = diff(&a, &a, DiffOptions::default());
        assert!(rep.regressions().is_empty(), "{}", rep.render());
        assert!(rep.notes.is_empty());
        assert!(rep.entries.len() >= 7, "numeric + gate leaves compared");
        // Deterministic rendering.
        assert_eq!(rep.render(), diff(&a, &a, DiffOptions::default()).render());
    }

    #[test]
    fn a_2x_time_regression_is_caught_and_attributed() {
        let a = parse(BASELINE).unwrap();
        let b = parse(&BASELINE.replace("\"median_s\": 0.0800", "\"median_s\": 0.1600")).unwrap();
        let rep = diff(&a, &b, DiffOptions::default());
        let regs = rep.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "results.1.median_s");
        assert!((regs[0].ratio - 2.0).abs() < 1e-12);
        assert!(rep.render().contains("REGRESSED"));
    }

    #[test]
    fn improvements_and_sub_threshold_noise_pass() {
        let a = parse(BASELINE).unwrap();
        // 2× faster + 20% slower elsewhere: both inside the gate.
        let b = parse(
            &BASELINE
                .replace("\"median_s\": 0.0800", "\"median_s\": 0.0400")
                .replace("\"median_s\": 0.0100", "\"median_s\": 0.0120"),
        )
        .unwrap();
        let rep = diff(&a, &b, DiffOptions::default());
        assert!(rep.regressions().is_empty(), "{}", rep.render());
        assert!(rep.entries.iter().any(|e| e.improved));
    }

    #[test]
    fn sub_floor_absolute_moves_never_regress() {
        // 3× relative but only 200µs absolute — below the 1ms floor.
        let a = parse("{\"warmup_s\": 0.0001}").unwrap();
        let b = parse("{\"warmup_s\": 0.0003}").unwrap();
        assert!(diff(&a, &b, DiffOptions::default()).regressions().is_empty());
        // Same move in a _us-suffixed key: 100µs → 300µs, still sub-floor.
        let a = parse("{\"apply_p99_us\": 100.0}").unwrap();
        let b = parse("{\"apply_p99_us\": 300.0}").unwrap();
        assert!(diff(&a, &b, DiffOptions::default()).regressions().is_empty());
        // But a macro move in the same key regresses.
        let b = parse("{\"apply_p99_us\": 90000.0}").unwrap();
        let a = parse("{\"apply_p99_us\": 10000.0}").unwrap();
        assert_eq!(diff(&a, &b, DiffOptions::default()).regressions().len(), 1);
    }

    #[test]
    fn throughput_metrics_gate_in_the_opposite_direction() {
        let a = parse(BASELINE).unwrap();
        let b = parse(&BASELINE.replace("\"gflops\": 42.5", "\"gflops\": 20.0")).unwrap();
        let rep = diff(&a, &b, DiffOptions::default());
        assert_eq!(rep.regressions().len(), 1);
        assert_eq!(rep.regressions()[0].path, "results.0.gflops");
        // Rising time-suffix metrics regress, rising throughput does not.
        let b = parse(&BASELINE.replace("\"gflops\": 42.5", "\"gflops\": 90.0")).unwrap();
        assert!(diff(&a, &b, DiffOptions::default()).regressions().is_empty());
    }

    #[test]
    fn gate_flips_and_schema_drift() {
        let a = parse(BASELINE).unwrap();
        let b = parse(&BASELINE.replace("\"all_pass\": true", "\"all_pass\": false")).unwrap();
        let rep = diff(&a, &b, DiffOptions::default());
        assert_eq!(rep.regressions().len(), 1);
        assert_eq!(rep.regressions()[0].path, "all_pass");
        // Added/removed keys are notes, not regressions.
        let b = parse(&BASELINE.replace("\"all_pass\": true", "\"all_pass\": true, \"extra\": 1"))
            .unwrap();
        let rep = diff(&a, &b, DiffOptions::default());
        assert!(rep.regressions().is_empty());
        assert_eq!(rep.notes.len(), 1);
        assert!(rep.notes[0].contains("added"));
    }

    #[test]
    fn custom_threshold_tightens_the_gate() {
        let a = parse("{\"step_ms\": 100.0}").unwrap();
        let b = parse("{\"step_ms\": 125.0}").unwrap();
        assert!(diff(&a, &b, DiffOptions::default()).regressions().is_empty(), "25% < 40%");
        let tight = DiffOptions { threshold: 0.1 };
        assert_eq!(diff(&a, &b, tight).regressions().len(), 1, "25% > 10%");
    }
}
