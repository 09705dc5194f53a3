//! Emits a loadable Chrome trace of a faulty 4-worker hybrid training
//! run — the observability quick-start.
//!
//! Usage:
//!
//! ```text
//! PUFFER_TRACE=trace.json PUFFER_METRICS=metrics.jsonl puffer-bench trace-demo
//! ```
//!
//! Open the trace in `chrome://tracing` or <https://ui.perfetto.dev>, or
//! hand both files to `puffer-bench insight`. With neither variable set
//! the run is collected in memory and only the summary is printed.
//!
//! The workload ([`run_trace_demo`]) is a small run of a Pufferfish
//! *hybrid* model (dense + low-rank layers) with the probe collecting, so
//! the resulting trace shows every layer of the stack at once —
//! tensor-pool kernel chunks on the `puffer-pool-*` threads, `nn`
//! forward/backward/optimizer spans, the `dist` round phases
//! (compute/encode/allreduce/decode/apply — the Fig.-4 bins, with the
//! comm phase named after its collective), and structured fault events
//! with worker/step attribution. `tests/trace_demo_pipeline.rs` runs the
//! same function in memory and validates the trace it renders.

use crate::setups::{gaussian_batches, stamp_run_header};
use crate::{Args, Record};
use puffer_compress::none::NoCompression;
use puffer_dist::fault::FaultPlan;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, DistOutcome, RunOptions};
use puffer_nn::activation::Relu;
use puffer_nn::linear::{Linear, LowRankLinear};
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_probe::ProbeConfig;
use puffer_tensor::{pool, Tensor};

/// Seed for the demo's model init, data, and fault sites.
pub const DEMO_SEED: u64 = 17;

/// Workers in the demo cluster.
pub const DEMO_WORKERS: usize = 4;

/// Steps the demo trains for.
pub const DEMO_STEPS: usize = 6;

/// The hybrid demo network: a dense first layer (the paper keeps early
/// layers full-rank) followed by a factorized middle layer.
fn demo_model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(12, 32, true, seed).expect("demo linear")),
        Box::new(Relu::new()),
        Box::new(LowRankLinear::new(32, 32, 4, true, seed + 1).expect("demo low-rank")),
        Box::new(Relu::new()),
        Box::new(Linear::new(32, 4, true, seed + 2).expect("demo head")),
    ])
}

/// The demo's fault schedule: one straggler, one dropped-then-resent
/// message, one non-finite gradient (skipped step), one corrupted
/// message, and one worker crash — at least five distinct fault event
/// types on the trace. The straggler's factor is what it takes for the
/// injected delay to dominate a scheduler time slice: the demo's compute is
/// some 60 µs a step, so ×250 is a sleep of about 15 ms, and no descheduled
/// neighbour outlasts the slowed worker on a box with fewer cores than the
/// demo has workers.
pub fn demo_faults() -> FaultPlan {
    FaultPlan::new(DEMO_SEED)
        .with_slowdown(1, 250.0)
        .with_drop(2, 1)
        .with_nonfinite(0, 2)
        .with_corrupt(3, 1)
        .with_crash(3, 4)
}

/// Runs the demo workload. The probe must already be configured
/// (collecting); the caller flushes or drains the events afterwards.
///
/// # Panics
///
/// Panics if the training run itself errors — the injected faults are all
/// within what the trainer degrades through gracefully.
pub fn run_trace_demo() -> DistOutcome {
    // Kernel warm-up at an explicit pool width: guarantees the trace shows
    // tensor-pool worker occupancy (`puffer-pool-*` thread lanes) even on
    // single-core machines, where the pool would otherwise stay inline.
    let prior_width = pool::num_threads();
    pool::set_num_threads(DEMO_WORKERS);
    {
        let _sp = probe::span("demo", "warmup_gemm");
        let a = Tensor::randn(&[128, 128], 1.0, DEMO_SEED + 1);
        let b = Tensor::randn(&[128, 128], 1.0, DEMO_SEED + 2);
        let _ = puffer_tensor::matmul::matmul(&a, &b).expect("warmup gemm");
    }

    let cfg = DistConfig { weight_decay: 0.0, ..DistConfig::p3(DEMO_WORKERS, 0.05) };
    stamp_run_header("trace_demo", DEMO_SEED, DEMO_STEPS, &cfg);
    let opts = RunOptions { faults: demo_faults(), ..RunOptions::default() };
    let mut comp = NoCompression::new();
    let data = gaussian_batches(DEMO_STEPS, &[16, 12], 4, DEMO_SEED + 100);
    let outcome = {
        let _sp = probe::span("demo", "faulty_hybrid_run");
        train_data_parallel_with(|_| demo_model(DEMO_SEED), &data, &mut comp, &cfg, &opts)
            .expect("the demo's faults must degrade gracefully, not abort")
    };
    pool::set_num_threads(prior_width);
    outcome
}

/// Runs the demo workload under the probe and flushes whatever
/// `PUFFER_TRACE` / `PUFFER_METRICS` name.
pub fn run(_args: &Args) -> Record {
    let mut rec = Record::new("trace-demo");
    probe::reset();
    if !probe::init_from_env() {
        probe::configure(ProbeConfig::in_memory());
    }

    let outcome = run_trace_demo();
    rec.absorb_probe_header();
    let b = outcome.breakdown;
    println!(
        "faulty hybrid run: {DEMO_WORKERS} workers, {DEMO_STEPS} steps, {} survivors",
        outcome.faults.survivors
    );
    println!(
        "breakdown: compute {:.3}ms  encode {:.3}ms  comm {:.3}ms  decode {:.3}ms  ({} skipped)",
        b.compute.as_secs_f64() * 1e3,
        b.encode.as_secs_f64() * 1e3,
        b.comm.as_secs_f64() * 1e3,
        b.decode.as_secs_f64() * 1e3,
        b.skipped_steps
    );
    let f = &outcome.faults;
    println!(
        "faults absorbed: {} crashed, {} corrupted, {} stale, {} skipped, {} lost contributions",
        f.crashed.len(),
        f.corrupted_messages,
        f.stale_messages,
        f.skipped_steps.len(),
        f.lost_contributions
    );

    match probe::flush() {
        Ok(rep) => {
            if let Some(p) = rep.trace_path {
                println!(
                    "wrote {} ({} events) — open in chrome://tracing",
                    p.display(),
                    rep.trace_events
                );
            }
            if let Some(p) = rep.metrics_path {
                println!("wrote {} ({} rows + counters)", p.display(), rep.metrics_rows);
            }
            if rep.dropped_events > 0 {
                eprintln!("warning: {} events dropped at the buffer cap", rep.dropped_events);
            }
        }
        Err(e) => eprintln!("warning: probe flush failed: {e}"),
    }
    probe::reset();
    rec
}
