//! The per-run insight report: text rendering, its JSON form, and the
//! gates `puffer-bench insight` (and `scripts/check.sh`, through
//! `crates/bench/tests/trace_demo_pipeline.rs`) asserts.
//!
//! Rendering is deterministic — the same [`RunData`] produces
//! byte-identical text and JSON — so a report can itself be diffed across
//! runs. Percentiles come from the exporter's histogram records when the
//! run carried them, and are otherwise rebuilt from the raw spans with
//! the same `puffer_probe::Histogram` (same bucketing, same numbers).

use crate::alphabeta::{fit_collectives, reconcile, AlphaBetaFit, ModelReconciliation};
use crate::ingest::{num, str_field, RunData};
use crate::rounds::{extract_rounds, Bound, Round};
use puffer_probe::json::Json;
use puffer_probe::{append, appendln, Histogram};
use std::collections::BTreeMap;

/// Tolerance for the analytic-model reconciliation gate: measured comm
/// may exceed the configured α–β prediction by per-round jitter (the
/// trainer stretches comm by a seeded factor ≤ 1 + jitter), so the gate
/// allows a generous mean relative error.
pub const RECONCILE_TOLERANCE: f64 = 0.35;

/// One per-phase latency summary row (microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Span family name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Median (µs).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Maximum (µs).
    pub max_us: f64,
}

/// The rendered analysis of one run.
#[derive(Debug, Clone)]
pub struct InsightReport {
    /// Human-readable report (what `puffer-bench insight` prints).
    pub text: String,
    /// Machine-readable report: the same analysis as one JSON document.
    pub json: String,
    /// `(gate, pass, detail)` triples.
    pub gates: Vec<(String, bool, String)>,
    /// Whether every gate passed.
    pub all_pass: bool,
    /// The reconstructed rounds the report describes.
    pub rounds: Vec<Round>,
    /// Per-phase latency percentiles.
    pub phases: Vec<PhaseStats>,
    /// Per-collective α–β fits.
    pub fits: Vec<AlphaBetaFit>,
    /// Reconciliation against the header-configured profile, if stamped.
    pub reconciliations: Vec<ModelReconciliation>,
}

/// `dist`-phase span families summarized in the phase table.
const DIST_PHASES: &[&str] = &[
    "round",
    "worker_compute",
    "compute",
    "encode",
    "allreduce",
    "tree_allreduce",
    "hier_allreduce",
    "allgather",
    "decode",
    "apply",
];

fn phase_stats(rd: &RunData) -> Vec<PhaseStats> {
    // Prefer the exporter's histogram records; fall back to rebuilding
    // from spans with the identical Histogram primitive.
    let mut out = Vec::new();
    for name in DIST_PHASES {
        if let Some(row) = rd
            .hist_rows
            .iter()
            .find(|r| str_field(r, "cat") == Some("dist") && str_field(r, "name") == Some(name))
        {
            out.push(PhaseStats {
                name: (*name).to_string(),
                count: num(row, "count").unwrap_or(0.0) as u64,
                p50_us: num(row, "p50_ns").unwrap_or(0.0) / 1e3,
                p90_us: num(row, "p90_ns").unwrap_or(0.0) / 1e3,
                p99_us: num(row, "p99_ns").unwrap_or(0.0) / 1e3,
                max_us: num(row, "max_ns").unwrap_or(0.0) / 1e3,
            });
            continue;
        }
        let mut h = Histogram::new();
        for sp in rd.spans.iter().filter(|s| s.cat == "dist" && s.name == *name) {
            h.record((sp.dur_us * 1e3).max(0.0) as u64);
        }
        if !h.is_empty() {
            out.push(PhaseStats {
                name: (*name).to_string(),
                count: h.count(),
                p50_us: h.p50() as f64 / 1e3,
                p90_us: h.p90() as f64 / 1e3,
                p99_us: h.p99() as f64 / 1e3,
                max_us: h.max() as f64 / 1e3,
            });
        }
    }
    out
}

fn bound_counts(rounds: &[Round]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> =
        [("compute", 0), ("comm", 0), ("straggler", 0), ("skipped", 0)].into_iter().collect();
    for r in rounds {
        *counts.entry(r.bound.as_str()).or_insert(0) += 1;
    }
    counts
}

/// Median round time over fault-free, non-skipped rounds (µs).
fn clean_round_baseline(rounds: &[Round]) -> Option<f64> {
    let mut clean: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.skipped && r.faults.is_empty() && r.round_us > 0.0)
        .map(|r| r.round_us)
        .collect();
    if clean.is_empty() {
        return None;
    }
    clean.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(clean[clean.len() / 2])
}

fn header_value(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => format!("{n}"),
        Json::Bool(b) => format!("{b}"),
        Json::Null => "null".to_string(),
        _ => "...".to_string(),
    }
}

fn gates_for(
    rounds: &[Round],
    reconciliations: &[ModelReconciliation],
    header_profile: Option<(f64, f64)>,
) -> Vec<(String, bool, String)> {
    let mut gates = Vec::new();
    gates.push((
        "rounds_reconstructed".to_string(),
        !rounds.is_empty(),
        format!("{} rounds reassembled from spans", rounds.len()),
    ));
    let attributed = rounds
        .iter()
        .filter(|r| !r.skipped && r.compute_us > 0.0 && r.comm_us > 0.0 && r.collective.is_some())
        .count();
    gates.push((
        "phases_attributed".to_string(),
        rounds.iter().all(|r| r.skipped) || attributed > 0,
        format!("{attributed} rounds carry complete compute/encode/comm/decode phases"),
    ));
    let straggler_faulted: Vec<u64> = rounds
        .iter()
        .filter(|r| r.faults.iter().any(|f| f == "straggler_delay"))
        .map(|r| r.step)
        .collect();
    let straggler_bound = rounds
        .iter()
        .filter(|r| r.bound == Bound::Straggler && r.faults.iter().any(|f| f == "straggler_delay"))
        .count();
    let (pass, detail) = if straggler_faulted.is_empty() {
        (true, "no straggler faults injected".to_string())
    } else {
        (
            straggler_bound > 0,
            format!(
                "{straggler_bound}/{} straggler-faulted rounds classified straggler-bound",
                straggler_faulted.len()
            ),
        )
    };
    gates.push(("straggler_attributed".to_string(), pass, detail));
    let (pass, detail) = match header_profile {
        None => (true, "no alpha/beta stamped in the run header".to_string()),
        Some(_) if reconciliations.is_empty() => (true, "no comm rounds to reconcile".to_string()),
        Some(_) => {
            let worst = reconciliations.iter().map(|r| r.mean_rel_err).fold(0.0f64, f64::max);
            (
                worst <= RECONCILE_TOLERANCE,
                format!(
                    "worst mean relative error {:.4} vs configured α–β (tolerance {RECONCILE_TOLERANCE})",
                    worst
                ),
            )
        }
    };
    gates.push(("model_reconciles".to_string(), pass, detail));
    gates
}

/// Analyzes a run and renders both report forms. `source` names the run
/// in the output (e.g. `"trace_demo"`).
#[must_use]
pub fn analyze(rd: &RunData, source: &str) -> InsightReport {
    let rounds = extract_rounds(rd);
    let phases = phase_stats(rd);
    let fits = fit_collectives(&rounds);
    let header_profile = match (num(&rd.header, "alpha"), num(&rd.header, "beta")) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    };
    let reconciliations = match header_profile {
        Some((a, b)) => reconcile(&rounds, a, b),
        None => Vec::new(),
    };
    let gates = gates_for(&rounds, &reconciliations, header_profile);
    let all_pass = gates.iter().all(|(_, p, _)| *p);
    let counts = bound_counts(&rounds);
    let baseline = clean_round_baseline(&rounds);

    // ---- text report ----
    let mut t = String::new();
    appendln!(t, "puffer-insight report — source: {source}");
    if !rd.header.is_empty() {
        appendln!(t, "\n== run context ==");
        for (k, v) in &rd.header {
            appendln!(t, "  {k} = {}", header_value(v));
        }
    }
    appendln!(t, "\n== rounds ==");
    appendln!(
        t,
        "  {:>4} {:>5} {:>10} {:>14} {:>11} {:>11} {:>11}  faults",
        "step",
        "nodes",
        "bound",
        "critical",
        "round_us",
        "compute_us",
        "comm_us"
    );
    for r in &rounds {
        let critical = r
            .critical_phase()
            .map(|s| match s.worker {
                Some(w) => format!("{}@w{w}", s.phase),
                None => s.phase.clone(),
            })
            .unwrap_or_else(|| "-".to_string());
        appendln!(
            t,
            "  {:>4} {:>5} {:>10} {:>14} {:>11.1} {:>11.1} {:>11.1}  {}",
            r.step,
            r.nodes,
            r.bound.as_str(),
            critical,
            r.round_us,
            r.compute_us,
            r.comm_us,
            if r.faults.is_empty() { "-".to_string() } else { r.faults.join(",") }
        );
    }
    appendln!(t, "\n== bound summary ==");
    for (k, v) in &counts {
        appendln!(t, "  {k:>10}: {v}");
    }
    if let Some(base) = baseline {
        appendln!(
            t,
            "\n== fault attribution (round-time inflation vs clean median {base:.1} µs) =="
        );
        for r in rounds.iter().filter(|r| !r.faults.is_empty() && r.round_us > 0.0) {
            appendln!(
                t,
                "  step {:>3}: {:>6.2}x  ({})",
                r.step,
                r.round_us / base,
                r.faults.join(",")
            );
        }
    }
    if !phases.is_empty() {
        appendln!(t, "\n== phase latency percentiles (µs) ==");
        appendln!(
            t,
            "  {:>16} {:>7} {:>11} {:>11} {:>11} {:>11}",
            "phase",
            "count",
            "p50",
            "p90",
            "p99",
            "max"
        );
        for p in &phases {
            appendln!(
                t,
                "  {:>16} {:>7} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
                p.name,
                p.count,
                p.p50_us,
                p.p90_us,
                p.p99_us,
                p.max_us
            );
        }
    }
    if !fits.is_empty() {
        appendln!(t, "\n== measured α–β per collective ==");
        for f in &fits {
            appendln!(
                t,
                "  {:>10}: α = {:.3e} s, β = {:.3e} s/B over {} rounds{} (max residual {:.4})",
                f.collective,
                f.alpha,
                f.beta,
                f.points,
                if f.degenerate {
                    " [degenerate: single operating point, α pinned 0]"
                } else {
                    ""
                },
                f.max_rel_residual
            );
        }
        for r in &reconciliations {
            appendln!(
                t,
                "  {:>10}: configured-model reconciliation over {} rounds: mean rel err {:.4}, max {:.4}",
                r.collective, r.rounds, r.mean_rel_err, r.max_rel_err
            );
        }
    }
    appendln!(t, "\n== gates ==");
    for (gate, pass, detail) in &gates {
        appendln!(t, "  [{}] {gate}: {detail}", if *pass { "PASS" } else { "FAIL" });
    }
    appendln!(t, "\nall gates pass: {all_pass}");

    // ---- JSON form ----
    let mut j = String::new();
    append!(j, "{{\n  \"bench\": \"insight\",\n  \"source\": ");
    puffer_probe::json::escape_into(&mut j, source);
    append!(j, ",\n  \"rounds\": {},\n  \"bounds\": {{", rounds.len());
    for (i, (k, v)) in counts.iter().enumerate() {
        append!(j, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    append!(j, "}},\n  \"straggler_rounds\": [");
    let stragglers: Vec<String> =
        rounds.iter().filter(|r| r.bound == Bound::Straggler).map(|r| r.step.to_string()).collect();
    append!(j, "{}]", stragglers.join(", "));
    append!(j, ",\n  \"phases\": {{");
    for (i, p) in phases.iter().enumerate() {
        append!(
            j,
            "{}\n    \"{}\": {{\"count\": {}, \"p50_us\": {:.3}, \"p90_us\": {:.3}, \"p99_us\": {:.3}, \"max_us\": {:.3}}}",
            if i > 0 { "," } else { "" },
            p.name,
            p.count,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.max_us
        );
    }
    append!(j, "\n  }},\n  \"fits\": [");
    for (i, f) in fits.iter().enumerate() {
        append!(
            j,
            "{}\n    {{\"collective\": \"{}\", \"points\": {}, \"alpha_s\": {:.6e}, \"beta_s_per_byte\": {:.6e}, \"degenerate\": {}, \"max_rel_residual\": {:.6}}}",
            if i > 0 { "," } else { "" },
            f.collective,
            f.points,
            f.alpha,
            f.beta,
            f.degenerate,
            f.max_rel_residual
        );
    }
    append!(j, "\n  ],\n  \"reconciliation\": [");
    for (i, r) in reconciliations.iter().enumerate() {
        append!(
            j,
            "{}\n    {{\"collective\": \"{}\", \"rounds\": {}, \"mean_rel_err\": {:.6}, \"max_rel_err\": {:.6}}}",
            if i > 0 { "," } else { "" },
            r.collective,
            r.rounds,
            r.mean_rel_err,
            r.max_rel_err
        );
    }
    append!(j, "\n  ],\n  \"gates\": [");
    for (i, (gate, pass, detail)) in gates.iter().enumerate() {
        append!(
            j,
            "{}\n    {{\"gate\": \"{gate}\", \"pass\": {pass}, \"detail\": ",
            if i > 0 { "," } else { "" }
        );
        puffer_probe::json::escape_into(&mut j, detail);
        append!(j, "}}");
    }
    append!(j, "\n  ],\n  \"all_pass\": {all_pass}\n}}\n");

    InsightReport { text: t, json: j, gates, all_pass, rounds, phases, fits, reconciliations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::parse_trace;

    /// A two-round, two-worker synthetic trace: round 0 is clean and
    /// comm-bound; round 1 has an injected straggler on worker 1.
    const TRACE: &str = r#"[
{"name":"run_context","ph":"M","pid":1,"tid":0,"ts":0,"args":{"alpha":0.00005,"beta":8e-10,"seed":9,"workers":2,"scheme":"none"}},
{"name":"round","cat":"dist","ph":"X","pid":1,"tid":9,"ts":0,"dur":500.0,"args":{"step":0,"epoch":0,"live":2}},
{"name":"worker_compute","cat":"dist","ph":"X","pid":1,"tid":1,"ts":0,"dur":80.0,"args":{"worker":0,"step":0}},
{"name":"worker_compute","cat":"dist","ph":"X","pid":1,"tid":2,"ts":0,"dur":82.0,"args":{"worker":1,"step":0}},
{"name":"compute","cat":"dist","ph":"X","pid":1,"tid":9,"ts":100,"dur":82.0,"args":{"step":0}},
{"name":"encode","cat":"dist","ph":"X","pid":1,"tid":9,"ts":200,"dur":3.0,"args":{"step":0}},
{"name":"allreduce","cat":"dist","ph":"X","pid":1,"tid":9,"ts":210,"dur":103.35,"args":{"step":0,"nodes":2,"bytes":8000,"bytes_per_worker":4000}},
{"name":"decode","cat":"dist","ph":"X","pid":1,"tid":9,"ts":320,"dur":2.0,"args":{"step":0}},
{"name":"apply","cat":"dist","ph":"X","pid":1,"tid":1,"ts":330,"dur":4.0,"args":{"worker":0,"step":0}},
{"name":"apply","cat":"dist","ph":"X","pid":1,"tid":2,"ts":330,"dur":5.0,"args":{"worker":1,"step":0}},
{"name":"round","cat":"dist","ph":"X","pid":1,"tid":9,"ts":600,"dur":900.0,"args":{"step":1,"epoch":0,"live":2}},
{"name":"worker_compute","cat":"dist","ph":"X","pid":1,"tid":1,"ts":600,"dur":80.0,"args":{"worker":0,"step":1}},
{"name":"worker_compute","cat":"dist","ph":"X","pid":1,"tid":2,"ts":600,"dur":81.0,"args":{"worker":1,"step":1}},
{"name":"straggler_delay","cat":"fault","ph":"i","pid":1,"tid":2,"ts":690,"s":"t","args":{"worker":1,"step":1,"delay_us":120}},
{"name":"compute","cat":"dist","ph":"X","pid":1,"tid":9,"ts":700,"dur":201.0,"args":{"step":1}},
{"name":"encode","cat":"dist","ph":"X","pid":1,"tid":9,"ts":910,"dur":3.0,"args":{"step":1}},
{"name":"allreduce","cat":"dist","ph":"X","pid":1,"tid":9,"ts":920,"dur":103.35,"args":{"step":1,"nodes":2,"bytes":8000,"bytes_per_worker":4000}},
{"name":"decode","cat":"dist","ph":"X","pid":1,"tid":9,"ts":1030,"dur":2.0,"args":{"step":1}},
{"name":"apply","cat":"dist","ph":"X","pid":1,"tid":1,"ts":1040,"dur":4.0,"args":{"worker":0,"step":1}},
{"name":"apply","cat":"dist","ph":"X","pid":1,"tid":2,"ts":1040,"dur":4.5,"args":{"worker":1,"step":1}}
]"#;

    #[test]
    fn analyze_renders_deterministically_and_gates_pass() {
        let rd = parse_trace(TRACE).unwrap();
        let rep = analyze(&rd, "fixture");
        assert!(rep.all_pass, "gates: {:?}", rep.gates);
        assert_eq!(rep.rounds.len(), 2);
        assert_eq!(rep.rounds[0].bound, Bound::Comm, "comm 103µs > compute 82µs");
        assert_eq!(rep.rounds[1].bound, Bound::Straggler);
        assert_eq!(rep.rounds[1].slowest_worker, Some(1));
        // Deterministic rendering: analyze twice, byte-identical output.
        let rep2 = analyze(&rd, "fixture");
        assert_eq!(rep.text, rep2.text);
        assert_eq!(rep.json, rep2.json);
        // The JSON is parseable and self-consistent.
        let parsed = puffer_probe::json::parse(&rep.json).unwrap();
        assert_eq!(parsed.get("rounds").unwrap().as_num(), Some(2.0));
        assert_eq!(parsed.get("all_pass"), Some(&Json::Bool(true)));
        assert!(rep.text.contains("straggler"));
    }

    #[test]
    fn reconciliation_gate_fails_on_a_wrong_model() {
        // Stamp a 10× wrong alpha/beta into the header: the measured comm
        // no longer reconciles and the gate must fail.
        let doc =
            TRACE.replace("\"alpha\":0.00005,\"beta\":8e-10", "\"alpha\":0.0005,\"beta\":8e-9");
        let rd = parse_trace(&doc).unwrap();
        let rep = analyze(&rd, "fixture");
        assert!(!rep.all_pass);
        assert!(rep.gates.iter().any(|(g, pass, _)| g == "model_reconciles" && !*pass));
    }
}
