//! Acceptance check for the observability layer and the insight pipeline
//! on the real demo workload: the seeded 4-worker faulty hybrid run,
//! collected in memory, must render a schema-valid Chrome trace that
//! contains spans from every layer of the stack and at least three
//! distinct fault event types; re-ingested, the report must attribute at
//! least one injected straggler round as straggler-bound, hold every
//! insight gate, and be deterministic (byte-identical re-render). One test
//! in this file — the probe's state is process-global.

use puffer_bench::experiments::trace_demo::{run_trace_demo, DEMO_STEPS, DEMO_WORKERS};
use puffer_insight::{analyze, ingest, Bound};
use puffer_probe as probe;
use std::collections::BTreeSet;

#[test]
fn trace_demo_validates_covers_every_layer_and_insight_attributes_its_stragglers() {
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());

    let outcome = run_trace_demo();
    assert!(!outcome.faults.is_clean(), "the demo must actually be faulty");

    let mut events = probe::take_events();
    // Append what the file exporter would add (run-context header +
    // per-family histograms) so the in-memory trace matches flush output.
    events.extend(probe::trace_extras());
    let doc = probe::render_chrome_trace(&events);
    let metrics = probe::metrics_rows().join("\n");
    probe::reset();
    let summary = probe::validate_chrome_trace(&doc).expect("demo trace must be schema-valid");

    // Tensor-pool worker occupancy: the kernel chunks ran on named pool
    // threads, which appear as thread_name metadata lanes.
    assert!(
        summary.has_thread_prefix("puffer-pool-"),
        "trace must contain tensor-pool worker lanes; threads: {:?}",
        summary.thread_names
    );
    assert!(summary.has_name("chunk"), "pool chunk spans missing");

    // nn layer: forward/backward spans from the per-worker replicas.
    assert!(summary.has_name("forward") && summary.has_name("backward"));
    assert!(summary.cats.contains("nn"));

    // dist layer: all round phases (the Fig.-4 bins, comm named after its
    // collective) plus the worker-side apply of the broadcast mean.
    for phase in ["compute", "encode", "allreduce", "decode", "apply"] {
        assert!(
            events.iter().any(|e| e.phase == 'X' && e.cat == "dist" && e.name == phase),
            "dist round phase {phase:?} missing"
        );
    }

    // Structured fault events: at least three distinct types, each an
    // instant event in the `fault` category.
    let fault_kinds: BTreeSet<&str> =
        events.iter().filter(|e| e.phase == 'i' && e.cat == "fault").map(|e| e.name).collect();
    assert!(fault_kinds.len() >= 3, "expected ≥3 distinct fault event types, got {fault_kinds:?}");

    // Run-level metadata: the demo stamps a run_context header, and every
    // span family accumulated a histogram record.
    assert!(summary.has_name("run_context"), "run header missing from trace");
    assert!(summary.has_name("histogram"), "span-family histograms missing from trace");

    // ---- The same trace through puffer-insight. ----
    let rd = ingest::load(Some(&doc), Some(&metrics)).expect("demo trace must re-ingest");
    assert!(!rd.header.is_empty(), "run_context header must be stamped");
    assert_eq!(ingest::num(&rd.header, "workers"), Some(DEMO_WORKERS as f64));

    let insight = analyze(&rd, "trace_demo");
    assert!(insight.all_pass, "insight gates must hold on the demo run: {:?}", insight.gates);
    assert_eq!(insight.rounds.len(), DEMO_STEPS, "every demo step reconstructs to a round");

    // The acceptance criterion: at least one round with an injected
    // straggler delay is classified straggler-bound, attributed to the
    // slowed worker (the demo slows worker 1: `demo_faults`).
    let straggler_rounds: Vec<_> = insight
        .rounds
        .iter()
        .filter(|r| r.bound == Bound::Straggler && r.faults.iter().any(|f| f == "straggler_delay"))
        .collect();
    assert!(
        !straggler_rounds.is_empty(),
        "no straggler-faulted round was classified straggler-bound; rounds: {:?}",
        insight.rounds.iter().map(|r| (r.step, r.bound, r.faults.clone())).collect::<Vec<_>>()
    );
    assert!(
        straggler_rounds.iter().all(|r| r.slowest_worker == Some(1)),
        "the slowed worker must own the critical path"
    );

    // The demo's crash changes the node count mid-run, so the α–β fit is
    // well-posed and must reconcile against the stamped profile.
    assert!(insight.fits.iter().any(|f| f.collective == "allreduce" && !f.degenerate));
    assert!(!insight.reconciliations.is_empty(), "header α–β must be reconciled");

    // Determinism: analyzing the same ingested data again is byte-identical.
    let again = analyze(&rd, "trace_demo");
    assert_eq!(insight.text, again.text);
    assert_eq!(insight.json, again.json);

    // The JSON form parses and carries the gate verdicts.
    let parsed = probe::json::parse(&insight.json).expect("the report's JSON form must be valid");
    assert_eq!(parsed.get("all_pass"), Some(&probe::Json::Bool(true)));
}
