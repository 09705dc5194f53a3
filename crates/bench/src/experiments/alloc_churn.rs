//! Allocation-churn benchmark for the scratch-arena workspace: how many
//! bytes a steady-state training step allocates with the buffer pool off
//! vs on, and what that does to step time, on the Table 6 mini-benchmark
//! setups (bench-scale VGG-19 and ResNet-18 on the CIFAR stand-in).
//!
//! Reuse must be free in accuracy terms: the run also checks that pooled
//! and fresh execution produce **bitwise identical** logits and parameters
//! after several optimizer steps.
//!
//! Setup: steady-state step after a 2-step warm-up, batch 32. *fresh* =
//! workspace disabled (every scratch buffer heap-allocated); *pooled* =
//! per-thread scratch arenas; *bitwise* compares logits and all parameters
//! after 3 optimizer steps. Two gates per model: bitwise identical, and
//! zero pool misses per steady-state step.
//!
//! Usage: `puffer-bench alloc-churn [--quick]` (`--quick` times fewer
//! repetitions on the smaller dataset; the gates are the same).

use crate::setups::{self, train_step};
use crate::table::Table;
use crate::{Args, Record};
use puffer_nn::layer::Layer;
use puffer_nn::optim::Sgd;
use puffer_probe as probe;
use puffer_probe::Stopwatch;
use puffer_tensor::{workspace, Tensor};

/// Steps measured after the two-step warm-up.
const MEASURED_STEPS: usize = 3;

struct ChurnCounters {
    /// Bytes allocated by the two warm-up steps (pool fills here).
    warmup_bytes: f64,
    /// Fresh bytes per steady-state step.
    bytes_per_step: f64,
    /// Pool misses per steady-state step.
    misses_per_step: f64,
}

/// Runs warm-up plus [`MEASURED_STEPS`] steps under the probe and reports
/// the steady-state allocation counters.
fn measure_counters<M: Layer>(
    mut model: M,
    images: &Tensor,
    labels: &[usize],
    pooled: bool,
) -> ChurnCounters {
    workspace::set_enabled(pooled);
    workspace::clear_thread_arena();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());
    let _ = train_step(&mut model, &mut opt, images, labels);
    let _ = train_step(&mut model, &mut opt, images, labels);
    let warm_bytes = probe::counter_value("alloc.fresh_bytes").unwrap_or(0.0);
    let warm_misses = probe::counter_value("alloc.pool_misses").unwrap_or(0.0);
    for _ in 0..MEASURED_STEPS {
        let _ = train_step(&mut model, &mut opt, images, labels);
    }
    let bytes = probe::counter_value("alloc.fresh_bytes").unwrap_or(0.0) - warm_bytes;
    let misses = probe::counter_value("alloc.pool_misses").unwrap_or(0.0) - warm_misses;
    probe::reset();
    workspace::set_enabled(true);
    ChurnCounters {
        warmup_bytes: warm_bytes,
        bytes_per_step: bytes / MEASURED_STEPS as f64,
        misses_per_step: misses / MEASURED_STEPS as f64,
    }
}

fn best(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Best-observed steady-state step times `(fresh, pooled)` with the probe
/// disabled. The two configurations are timed **interleaved** — one fresh
/// step, one pooled step, repeat — so slow drift in machine load hits both
/// sample sets equally instead of biasing whichever ran second; the
/// minimum over the interleaved reps is the least-interfered sample of
/// each.
fn measure_step_times<M: Layer>(
    mut fresh_model: M,
    mut pooled_model: M,
    images: &Tensor,
    labels: &[usize],
    reps: usize,
) -> (f64, f64) {
    probe::reset();
    let mut fresh_opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut pooled_opt = Sgd::new(0.05, 0.9, 1e-4);
    // Warm both: fill the pooled arena, fault in both models' weights.
    for _ in 0..2 {
        workspace::set_enabled(true);
        let _ = train_step(&mut pooled_model, &mut pooled_opt, images, labels);
        workspace::set_enabled(false);
        let _ = train_step(&mut fresh_model, &mut fresh_opt, images, labels);
    }
    let mut fresh_s = Vec::with_capacity(reps);
    let mut pooled_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Alternate which configuration goes first within the pair so
        // neither systematically inherits the other's cache/thermal state.
        for phase in 0..2 {
            if (rep + phase) % 2 == 0 {
                workspace::set_enabled(false);
                let t0 = Stopwatch::start();
                let _ = train_step(&mut fresh_model, &mut fresh_opt, images, labels);
                fresh_s.push(t0.elapsed().as_secs_f64());
            } else {
                workspace::set_enabled(true);
                let t0 = Stopwatch::start();
                let _ = train_step(&mut pooled_model, &mut pooled_opt, images, labels);
                pooled_s.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    workspace::set_enabled(true);
    (best(fresh_s), best(pooled_s))
}

/// Runs a few optimizer steps and fingerprints the final logits and every
/// parameter, bit for bit.
fn run_fingerprint<M: Layer>(
    mut model: M,
    images: &Tensor,
    labels: &[usize],
    pooled: bool,
) -> Vec<u32> {
    workspace::set_enabled(pooled);
    workspace::clear_thread_arena();
    probe::reset();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut logits = Tensor::zeros(&[1]);
    for _ in 0..3 {
        logits = train_step(&mut model, &mut opt, images, labels);
    }
    workspace::set_enabled(true);
    let mut bits: Vec<u32> = logits.as_slice().iter().map(|v| v.to_bits()).collect();
    for p in model.params() {
        bits.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

fn first_batch(data: &puffer_data::images::ImageDataset) -> (Tensor, Vec<usize>) {
    data.train_batches(32, 0).into_iter().next().expect("dataset has at least one batch")
}

/// Counters, step times and fingerprints of one model, as a table row and
/// its two gates.
fn measure<M: Layer>(
    rec: &mut Record,
    t: &mut Table,
    name: &str,
    build: impl Fn() -> M,
    (images, labels): &(Tensor, Vec<usize>),
    reps: usize,
) {
    let fresh = measure_counters(build(), images, labels, false);
    let pooled = measure_counters(build(), images, labels, true);
    let (t_fresh, t_pooled) = measure_step_times(build(), build(), images, labels, reps);
    let identical = run_fingerprint(build(), images, labels, false)
        == run_fingerprint(build(), images, labels, true);
    t.row(vec![
        name.to_string(),
        format!("{:.0}", fresh.bytes_per_step),
        format!("{:.0}", pooled.bytes_per_step),
        format!("{t_fresh:.6}"),
        format!("{t_pooled:.6}"),
        format!("{:.2}x", t_fresh / t_pooled),
        identical.to_string(),
    ]);
    rec.gate(
        format!("{name}_bitwise_identical"),
        identical,
        "logits and every parameter after 3 steps, pooled vs fresh".to_string(),
    );
    rec.gate(
        format!("{name}_zero_steady_state_misses"),
        pooled.misses_per_step == 0.0,
        format!(
            "{:.1} pool misses, {:.0} fresh bytes per warmed-up step (warm-up allocated {:.1} MiB)",
            pooled.misses_per_step,
            pooled.bytes_per_step,
            pooled.warmup_bytes / (1 << 20) as f64
        ),
    );
}

/// Measures both Table 6 models and evaluates their gates.
pub fn run(args: &Args) -> Record {
    let mut rec = Record::new("alloc-churn");
    let scale = args.scale;
    let reps = scale.pick(5, 15);
    let data = setups::cifar_data(scale);
    let batch = first_batch(&data);

    println!("== Allocation churn, batch 32, {MEASURED_STEPS}-step steady state ==\n");
    let mut t = Table::new(vec![
        "model",
        "fresh B/step",
        "pooled B/step",
        "fresh s",
        "pooled s",
        "speedup",
        "bitwise",
    ]);
    // Same measurement code for both; models differ in type.
    measure(&mut rec, &mut t, "vgg19", || setups::vgg19(10, 1), &batch, reps);
    measure(&mut rec, &mut t, "resnet18", || setups::resnet18(10, 1), &batch, reps);
    rec.table(t);
    rec
}
