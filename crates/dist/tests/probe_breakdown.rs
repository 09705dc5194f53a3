//! Satellite guarantee: the trainer's `EpochBreakdown` and the probe's
//! `dist`-category spans are the *same numbers* — `BreakdownAccumulator`
//! mirrors every duration it accumulates onto the trace, so the span sums
//! must equal the breakdown fields exactly (`Duration` equality, not
//! approximate). With a worker-side codec the encode and decode phases are
//! measured on the workers: the aggregator books the slowest contributor's
//! encode per phase and, once the run is over, the slowest worker's decode
//! per step — the round's critical path — through the same accumulator, so
//! the identity still holds. This file holds a single test because the
//! probe's state is process-global.

use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_dist::cost::ClusterProfile;
use puffer_dist::fault::FaultPlan;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_tensor::Tensor;
use std::time::Duration;

fn mlp(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 16, true, seed).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, seed + 1).unwrap()),
    ])
}

fn batches(n: usize, rows: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n)
        .map(|b| {
            let x = Tensor::randn(&[rows, 6], 1.0, 300 + b as u64);
            let labels = (0..rows).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

/// Sums the durations of every `dist`-category complete span with `name`.
fn span_sum(events: &[probe::TraceEvent], name: &str) -> Duration {
    events
        .iter()
        .filter(|e| e.phase == 'X' && e.cat == "dist" && e.name == name)
        .map(|e| e.dur)
        .sum()
}

#[test]
fn breakdown_equals_probe_span_sums_exactly() {
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());

    // Inject a non-finite gradient so the run contains a skipped step:
    // its compute must appear in both the breakdown and the span sums
    // (the `EpochBreakdown::total` invariant), with no encode/comm/decode.
    let cfg = DistConfig {
        workers: 2,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        profile: ClusterProfile::p3_like(2),
    };
    let opts =
        RunOptions { faults: FaultPlan::new(11).with_nonfinite(0, 1), ..RunOptions::default() };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(21), &batches(4, 8), &mut comp, &cfg, &opts)
        .expect("faulty run must degrade, not fail");
    assert_eq!(out.breakdown.skipped_steps, 1, "the NaN step must be skipped");

    let events = probe::take_events();
    let b = out.breakdown;
    // The comm phase is named after its collective (NoCompression sums on
    // an allreduce), so per-collective histograms and α–β fits fall out of
    // the span family.
    assert_eq!(span_sum(&events, "compute"), b.compute, "compute spans ≠ breakdown.compute");
    assert_eq!(span_sum(&events, "encode"), b.encode, "encode spans ≠ breakdown.encode");
    assert_eq!(span_sum(&events, "allreduce"), b.comm, "allreduce spans ≠ breakdown.comm");
    assert_eq!(span_sum(&events, "decode"), b.decode, "decode spans ≠ breakdown.decode");
    // And therefore total() == the sum over all four phase span sums.
    let phases = ["compute", "encode", "allreduce", "decode"];
    let total: Duration = phases.iter().map(|p| span_sum(&events, p)).sum();
    assert_eq!(total, b.total(), "total() must equal the probe's phase span sum");
    // Every phase span carries its step, so a round can be reassembled
    // from the trace alone.
    assert!(events
        .iter()
        .filter(|e| e.phase == 'X' && e.cat == "dist" && phases.contains(&e.name))
        .all(|e| e.args.iter().any(|(k, _)| *k == "step")));

    // The skipped step's round played no encode/comm/decode: exactly one
    // compute span carries the skipped marker, and there is one fewer
    // encode span than compute spans.
    let skipped_spans = events
        .iter()
        .filter(|e| {
            e.phase == 'X' && e.name == "compute" && e.args.iter().any(|(k, _)| *k == "skipped")
        })
        .count();
    assert_eq!(skipped_spans, 1);
    let n = |name| {
        events.iter().filter(|e| e.phase == 'X' && e.cat == "dist" && e.name == name).count()
    };
    assert_eq!(n("compute"), n("encode") + 1);

    // The skip itself surfaced as a structured fault event with step
    // attribution.
    assert!(events.iter().any(|e| e.phase == 'i' && e.cat == "fault" && e.name == "step_skipped"));

    // ---- The same identities with PowerSGD's two-phase worker codec. ----
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());
    let mut comp = PowerSgd::new(2, 9);
    let out = train_data_parallel_with(|_| mlp(21), &batches(4, 8), &mut comp, &cfg, &opts)
        .expect("faulty run must degrade, not fail");
    assert_eq!(out.breakdown.skipped_steps, 1);
    let events = probe::take_events();
    let b = out.breakdown;
    assert!(b.encode > Duration::ZERO && b.decode > Duration::ZERO, "workers time the codec");
    assert_eq!(span_sum(&events, "compute"), b.compute);
    assert_eq!(span_sum(&events, "encode"), b.encode);
    assert_eq!(span_sum(&events, "allreduce"), b.comm);
    assert_eq!(span_sum(&events, "decode"), b.decode);
    let total: Duration = phases.iter().map(|p| span_sum(&events, p)).sum();
    assert_eq!(total, b.total());
    let n = |name| {
        events.iter().filter(|e| e.phase == 'X' && e.cat == "dist" && e.name == name).count()
    };
    assert_eq!(n("compute"), 4);
    assert_eq!((n("encode"), n("allreduce"), n("decode")), (3, 3, 3), "one of each per round");

    // No full-size gradient crosses a thread: the largest message a worker
    // sent is its P payload (P of both weight matrices at rank 2 next to
    // the two raw biases), the largest broadcast the mean of it, and a
    // round moves Σ(m+n)·r + Σ|1-D| floats per worker — not the 163 floats
    // of the gradient. The MLP is 6 → 16 → 3.
    let p_floats = (16 * 2 + 16) + (3 * 2 + 3);
    let q_floats = 6 * 2 + 16 * 2;
    let sent = probe::hist_value("dist", "message_bytes").expect("workers sent messages");
    let broadcast = probe::hist_value("dist", "broadcast_bytes").expect("means were broadcast");
    assert_eq!(sent.max(), p_floats * 4);
    assert_eq!(sent.min(), q_floats * 4);
    assert_eq!(broadcast.max(), p_floats * 4);
    // 3 played rounds of 2 phases and the skipped round's first phase.
    assert_eq!(sent.count(), 2 * (3 * 2 + 1));
    assert_eq!(broadcast.count(), 3 * 2);

    probe::reset();
}
