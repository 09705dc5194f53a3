//! Bucketed comm/compute-overlap sweep — the exposed-communication gate
//! for the trainer's DDP-style bucketing, written to `BENCH_dist.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p puffer-bench --bin overlap_sweep [-- --check]
//! ```
//!
//! Runs the same straggler-free 8-worker epoch twice on the seeded
//! p3-like α–β profile: once synchronously (one flat bucket, every comm
//! nanosecond exposed) and once with size-targeted buckets reduced as
//! backward produces them. Four gates under `--check`:
//!
//! * **overlap** — exposed comm drops by at least [`REDUCTION_FLOOR`]
//!   versus the synchronous run. This one is a wall-clock measurement of
//!   [`WORKERS`] threads running side by side, so it gates only where
//!   [`std::thread::available_parallelism`] is at least [`WORKERS`]; on a
//!   smaller machine the workers time-slice, the measured exposure is the
//!   scheduler's, and `overlap_pass` is recorded as information;
//! * **bitwise** — both runs end in identical parameters (overlap is a
//!   schedule, not an algorithm);
//! * **alloc** — a warmed-up [`BucketedReducer`] round allocates nothing
//!   (`alloc.fresh_bytes` and `alloc.pool_misses` both flat);
//! * **reconcile** — puffer-insight re-ingests the overlapped trace and
//!   recovers the stamped α–β within its tolerance, every insight gate
//!   green.
//!
//! The trace lands in `results/overlap_sweep.json` for inspection.

use puffer_bench::results_dir;
use puffer_compress::none::NoCompression;
use puffer_compress::pack::PackLayout;
use puffer_dist::bucket::{BucketPlan, BucketedReducer};
use puffer_dist::cost::{ClusterProfile, CollectiveAlgo};
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_insight::{analyze, ingest};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::{Layer, Sequential};
use puffer_probe as probe;
use puffer_probe::appendln;
use puffer_tensor::Tensor;

const WORKERS: usize = 8;
const STEPS: usize = 4;
const ROWS: usize = 256;
const SEED: u64 = 47;
/// ~1.77 MiB of gradients over nine similar layers → five-ish buckets.
const BUCKET_BYTES: usize = 384 * 1024;
const REDUCTION_FLOOR: f64 = 0.30;
/// Steady-state reducer rounds measured after the warm-up rounds.
const ALLOC_WARMUP: usize = 2;
const ALLOC_ROUNDS: usize = 16;

/// A deep stack of equal-width layers, so gradient buckets become ready
/// spread across backward instead of in one dominant burst.
fn model(seed: u64) -> Sequential {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(Linear::new(6, 256, true, seed).unwrap()));
    layers.push(Box::new(Relu::new()));
    for i in 0..7 {
        layers.push(Box::new(Linear::new(256, 256, true, seed + 1 + i).unwrap()));
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(Linear::new(256, 3, true, seed + 8).unwrap()));
    Sequential::new(layers)
}

fn batches() -> Vec<(Tensor, Vec<usize>)> {
    (0..STEPS)
        .map(|b| {
            let x = Tensor::randn(&[ROWS, 6], 1.0, 800 + b as u64);
            let labels = (0..ROWS).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

fn run(bucket_bytes: usize) -> puffer_dist::trainer::DistOutcome {
    let cfg = DistConfig {
        workers: WORKERS,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        profile: ClusterProfile::p3_like(WORKERS),
    };
    let opts = RunOptions {
        bucket_bytes: Some(bucket_bytes),
        collective: Some(CollectiveAlgo::Ring),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    train_data_parallel_with(|_| model(SEED), &batches(), &mut comp, &cfg, &opts)
        .expect("straggler-free sweep run")
}

/// Drives a warmed-up [`BucketedReducer`] through full rounds and returns
/// the `(fresh_bytes, pool_misses)` the steady-state rounds cost.
fn steady_state_allocs(layout: &PackLayout) -> (f64, f64) {
    let mut red = BucketedReducer::new(BucketPlan::new(layout, BUCKET_BYTES));
    let grads: Vec<Vec<f32>> = (0..WORKERS)
        .map(|w| (0..layout.total_len()).map(|i| ((w + i) % 7) as f32).collect())
        .collect();
    let expected: Vec<usize> = (0..WORKERS).collect();
    let mut sink = 0.0f32;
    let mut mark = (0.0, 0.0);
    for round in 0..ALLOC_WARMUP + ALLOC_ROUNDS {
        if round == ALLOC_WARMUP {
            mark = (
                probe::counter_value("alloc.fresh_bytes").unwrap_or(0.0),
                probe::counter_value("alloc.pool_misses").unwrap_or(0.0),
            );
        }
        red.start_round();
        for (w, grad) in grads.iter().enumerate() {
            for b in 0..red.plan().buckets() {
                let r = red.plan().range(b);
                red.accept(w, b, &grad[r]);
            }
            red.try_reduce(&expected);
        }
        let mean = red.finalize(&expected);
        sink += mean.as_slice()[0];
    }
    assert!(sink.is_finite());
    (
        probe::counter_value("alloc.fresh_bytes").unwrap_or(0.0) - mark.0,
        probe::counter_value("alloc.pool_misses").unwrap_or(0.0) - mark.1,
    )
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let profile = ClusterProfile::p3_like(WORKERS);

    // Synchronous reference first, with the probe still disabled: the
    // exported trace should hold exactly the overlapped run.
    let sync = run(usize::MAX);

    let dir = results_dir();
    let trace_path = dir.join("overlap_sweep.json");
    probe::configure(probe::ProbeConfig {
        trace_path: Some(trace_path.clone()),
        metrics_path: None,
        collect: false,
    });
    probe::run_header(&[
        ("bench", "overlap_sweep".into()),
        ("seed", SEED.into()),
        ("workers", WORKERS.into()),
        ("steps", STEPS.into()),
        ("scheme", "none".into()),
        ("alpha", profile.alpha.into()),
        ("beta", profile.beta.into()),
    ]);
    let bucketed = run(BUCKET_BYTES);

    // Steady-state allocation probe on the same gradient geometry.
    let m = model(SEED);
    let params = m.params();
    let grad_refs: Vec<&Tensor> = params.iter().map(|p| &p.grad).collect();
    let layout = PackLayout::of_refs(&grad_refs);
    let buckets = BucketPlan::new(&layout, BUCKET_BYTES).buckets();
    let (fresh_bytes, pool_misses) = steady_state_allocs(&layout);

    if let Err(e) = probe::flush() {
        eprintln!("warning: probe flush failed: {e}");
    }

    // Re-ingest the overlapped trace through puffer-insight: rounds must
    // reassemble from the per-bucket spans and the stamped α–β must be
    // recovered within the reconcile tolerance.
    let (insight_pass, worst_rel_err, insight_detail) = match std::fs::read_to_string(&trace_path) {
        Ok(doc) => match ingest::load(Some(&doc), None) {
            Ok(rd) => {
                let report = analyze(&rd, "overlap_sweep");
                let worst =
                    report.reconciliations.iter().map(|r| r.mean_rel_err).fold(0.0f64, f64::max);
                let detail = report
                    .gates
                    .iter()
                    .map(|(g, p, _)| format!("{g}={p}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                (report.all_pass && !report.reconciliations.is_empty(), worst, detail)
            }
            Err(e) => (false, f64::NAN, format!("ingest failed: {e}")),
        },
        Err(e) => (false, f64::NAN, format!("cannot read trace: {e}")),
    };

    let sync_exposed = sync.breakdown.comm_exposed.as_secs_f64();
    let bucketed_exposed = bucketed.breakdown.comm_exposed.as_secs_f64();
    let reduction = if sync_exposed > 0.0 { 1.0 - bucketed_exposed / sync_exposed } else { 0.0 };

    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let overlap_gated = hardware_threads >= WORKERS;
    let overlap_pass = reduction >= REDUCTION_FLOOR;
    let bitwise_pass = bucketed.final_params == sync.final_params;
    let alloc_pass = fresh_bytes == 0.0 && pool_misses == 0.0;
    let all_pass = (overlap_pass || !overlap_gated) && bitwise_pass && alloc_pass && insight_pass;

    println!(
        "overlap_sweep: {WORKERS} workers, {STEPS} steps, {buckets} buckets of ≤{BUCKET_BYTES} B \
         over {} grad bytes",
        layout.total_bytes()
    );
    println!(
        "  sync     comm {:9.3}ms exposed {:9.3}ms",
        sync.breakdown.comm.as_secs_f64() * 1e3,
        sync_exposed * 1e3
    );
    println!(
        "  bucketed comm {:9.3}ms exposed {:9.3}ms  ({:.1}% exposure cut, floor {:.0}%)",
        bucketed.breakdown.comm.as_secs_f64() * 1e3,
        bucketed_exposed * 1e3,
        reduction * 100.0,
        REDUCTION_FLOOR * 100.0
    );
    if !overlap_gated {
        println!(
            "  {hardware_threads} hardware threads for {WORKERS} workers: the exposure cut is \
             information here, not a gate"
        );
    }
    println!(
        "  steady-state reducer: {fresh_bytes:.0} fresh bytes, {pool_misses:.0} pool misses \
         over {ALLOC_ROUNDS} rounds"
    );
    println!("  insight on the overlapped trace: {insight_detail}");

    let mut json = String::from("{\n");
    appendln!(json, "  \"bench\": \"dist_overlap_sweep\",");
    appendln!(json, "  \"workers\": {WORKERS},");
    appendln!(json, "  \"hardware_threads\": {hardware_threads},");
    appendln!(json, "  \"steps\": {STEPS},");
    appendln!(json, "  \"buckets\": {buckets},");
    appendln!(json, "  \"bucket_bytes\": {BUCKET_BYTES},");
    appendln!(json, "  \"grad_bytes\": {},", layout.total_bytes());
    // Wall-clock seconds live under info-classified keys (no `_s` suffix):
    // sub-ms exposed-comm readings swing several-fold with machine load, so
    // cross-run gating rides the `*_pass` bools — the within-run paired
    // reduction floor — not absolute timings.
    appendln!(json, "  \"wall_seconds\": {{");
    appendln!(json, "    \"sync_comm\": {:.6},", sync.breakdown.comm.as_secs_f64());
    appendln!(json, "    \"sync_exposed\": {sync_exposed:.6},");
    appendln!(json, "    \"bucketed_comm\": {:.6},", bucketed.breakdown.comm.as_secs_f64());
    appendln!(json, "    \"bucketed_exposed\": {bucketed_exposed:.6}");
    appendln!(json, "  }},");
    appendln!(json, "  \"exposed_reduction\": {reduction:.4},");
    appendln!(json, "  \"reduction_floor\": {REDUCTION_FLOOR:.2},");
    appendln!(json, "  \"steady_fresh_bytes\": {fresh_bytes:.0},");
    appendln!(json, "  \"steady_pool_misses\": {pool_misses:.0},");
    appendln!(json, "  \"insight_worst_rel_err\": {worst_rel_err:.6},");
    appendln!(json, "  \"overlap_gated\": {overlap_gated},");
    appendln!(json, "  \"overlap_pass\": {overlap_pass},");
    appendln!(json, "  \"bitwise_pass\": {bitwise_pass},");
    appendln!(json, "  \"alloc_pass\": {alloc_pass},");
    appendln!(json, "  \"reconcile_pass\": {insight_pass},");
    appendln!(json, "  \"all_pass\": {all_pass}");
    json.push_str("}\n");

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| std::path::PathBuf::from(p).join("../.."))
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let out = root.join("BENCH_dist.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", out.display()),
    }

    if check && !all_pass {
        eprintln!(
            "overlap_sweep --check FAILED: overlap={overlap_pass} (cut {reduction:.3} vs floor \
             {REDUCTION_FLOOR}, gated={overlap_gated}), bitwise={bitwise_pass}, alloc={alloc_pass} \
             ({fresh_bytes:.0} B / {pool_misses:.0} misses), reconcile={insight_pass}"
        );
        std::process::exit(1);
    }
    if check {
        let cut = if overlap_gated { "exposure cut" } else { "exposure cut not gated" };
        println!("overlap_sweep --check ok: {cut}, bitwise params, allocation-free, reconciled");
    }
}
