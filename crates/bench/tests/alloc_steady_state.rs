//! Satellite guarantee for the scratch-arena workspace: training reaches an
//! **allocation-free steady state**. After a two-step warm-up every scratch
//! buffer a step needs is already sitting in a per-thread arena, so
//! `alloc.pool_misses` stops growing — for a single-process image-trainer
//! step, for a batch-32 step of the paper's hybrid ResNet-18 (where it also
//! has to fit under the arena's byte cap), and for a full data-parallel
//! round — one flat bucket, several buckets, and PowerSGD's two-phase
//! worker codec alike.
//!
//! Both tests read the probe's process-global counters, so they serialize
//! on a file-local lock (`puffer_probe::testutil::lock` is crate-private;
//! this is the same idiom as `crates/dist/tests/probe_breakdown.rs`).

use puffer_bench::setups::train_step;
use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::GradCompressor;
use puffer_dist::cost::ClusterProfile;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RunOptions};
use puffer_models::resnet::{ResNet, ResNetConfig, ResNetHybridPlan};
use puffer_models::units::FactorInit;
use puffer_nn::activation::Relu;
use puffer_nn::conv::Conv2d;
use puffer_nn::linear::Linear;
use puffer_nn::norm::BatchNorm2d;
use puffer_nn::optim::Sgd;
use puffer_nn::pool::{Flatten, GlobalAvgPool};
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_tensor::{workspace, Tensor};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn pool_misses() -> f64 {
    probe::counter_value("alloc.pool_misses").unwrap_or(0.0)
}

/// A small but representative image model: convolution (im2col/col2im
/// scratch), batch norm, pooled head. Everything the workspace has to keep
/// allocation-free in one package.
fn image_model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Conv2d::new(3, 8, 3, 1, 1, false, seed).unwrap()),
        Box::new(BatchNorm2d::new(8).unwrap()),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(8, 8, 3, 1, 1, false, seed + 1).unwrap()),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(8, 10, true, seed + 2).unwrap()),
    ])
}

#[test]
fn image_trainer_step_is_allocation_free_after_warmup() {
    let _guard = GLOBAL.lock().unwrap();
    workspace::set_enabled(true);
    workspace::clear_thread_arena();

    let mut model = image_model(7);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let images = Tensor::randn(&[4, 3, 8, 8], 1.0, 11);
    let labels: Vec<usize> = (0..4).map(|i| i % 10).collect();

    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());

    // Warm-up: step 1 allocates every buffer fresh, step 2 settles the
    // lazily created optimizer state.
    train_step(&mut model, &mut opt, &images, &labels);
    train_step(&mut model, &mut opt, &images, &labels);

    let warm = pool_misses();
    assert!(warm > 0.0, "warm-up must have allocated through the pool");
    train_step(&mut model, &mut opt, &images, &labels);
    let after = pool_misses();
    assert_eq!(
        after,
        warm,
        "steady-state step allocated fresh buffers: {} new pool misses",
        after - warm
    );
    // And it was pool traffic, not a bypass: the step recorded hits.
    let hits = probe::counter_value("alloc.pool_hits").unwrap_or(0.0);
    assert!(hits > 0.0, "steady-state step recorded no pool hits");

    probe::reset();
}

/// The shape the end-to-end benchmark trains (`dp2_resnet18_hybrid_bucketed`,
/// one worker's share): hybrid ResNet-18 ×0.25 at batch 32. A step's
/// working set used to outgrow the arena's 256 MiB cap — cached patch
/// matrices, 9× the activations — so buffers recycled past the cap were
/// freed and the next step allocated them again. With convolutions caching
/// their inputs instead, the whole step fits and stays allocation-free —
/// the direct kernels, which every convolution of this model takes and which
/// stage one image's operand at a time, included.
#[test]
fn hybrid_resnet18_batch32_step_is_allocation_free_and_under_the_arena_cap() {
    let _guard = GLOBAL.lock().unwrap();
    workspace::set_enabled(true);
    workspace::clear_thread_arena();

    let mut model = ResNet::new(ResNetConfig::resnet18(0.25, 10, 7))
        .expect("valid config")
        .to_hybrid(&ResNetHybridPlan::resnet18_paper(), FactorInit::Random(8))
        .expect("valid plan");
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let images = Tensor::randn(&[32, 3, 32, 32], 1.0, 11);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();

    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());
    train_step(&mut model, &mut opt, &images, &labels);
    train_step(&mut model, &mut opt, &images, &labels);

    let warm = pool_misses();
    let direct_calls = || probe::counter_value("tensor.conv_direct_calls").unwrap_or(0.0);
    let direct_before = direct_calls();
    train_step(&mut model, &mut opt, &images, &labels);
    let after = pool_misses();
    let held = workspace::thread_arena_bytes();
    // All 34 convolutions — the stem, the dense 16→16 block, every `U`
    // (stride 1 or 2, c_out = rank ≤ 32), every 1×1 `V` and the three 1×1
    // stride-2 shortcuts — run the direct kernels, forward, dW and dX (the
    // stem's dX too: `Conv2d::backward` always returns it): their phase
    // planes, transposed dOut and packed weights are arena scratch like the
    // engine's blocks, taken on this thread.
    let direct = direct_calls() - direct_before;
    probe::reset();
    workspace::clear_thread_arena();

    assert_eq!(direct, 3.0 * 34.0, "convolution calls that took the direct kernels");

    assert_eq!(
        after,
        warm,
        "steady-state step allocated fresh buffers: {} new pool misses",
        after - warm
    );
    let cap = workspace::MAX_ARENA_BYTES;
    assert!(held < cap, "arena holds {held} bytes, the cap is {cap}");
}

/// One data-parallel round after warm-up must add zero pool misses, on
/// any thread: payload buffers are written again by the thread that
/// allocated them (worker → aggregator and back), means likewise, and a
/// worker-side codec's temporaries cycle through its worker's own arena.
///
/// Worker and aggregator threads are created per run, so their arenas
/// cannot be warmed across runs from here; instead compare two otherwise
/// identical runs that differ by one trailing round. The extra round runs
/// on threads whose arenas three earlier rounds have already filled, so it
/// must be served entirely from the pools.
#[test]
fn dist_round_is_allocation_free_after_warmup() {
    let _guard = GLOBAL.lock().unwrap();
    workspace::set_enabled(true);

    let cfg = DistConfig {
        workers: 2,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        profile: ClusterProfile::p3_like(2),
    };

    let misses_for = |rounds: usize, comp: &mut dyn GradCompressor, opts: &RunOptions| -> f64 {
        workspace::clear_thread_arena();
        let batches: Vec<(Tensor, Vec<usize>)> = (0..rounds * cfg.workers)
            .map(|b| {
                let x = Tensor::randn(&[4, 3, 8, 8], 1.0, 500 + b as u64 % 2);
                let labels = (0..4).map(|i| i % 10).collect();
                (x, labels)
            })
            .collect();
        probe::reset();
        probe::configure(probe::ProbeConfig::in_memory());
        let out =
            train_data_parallel_with(|w| image_model(30 + w as u64), &batches, comp, &cfg, opts)
                .expect("clean run");
        assert!(out.breakdown.skipped_steps == 0);
        let misses = pool_misses();
        probe::reset();
        misses
    };

    // The model's gradients are ~3.6 KB: 1 KiB buckets cut them in four.
    let bucketed = RunOptions { bucket_bytes: Some(1024), ..RunOptions::default() };
    type MakeCompressor = fn() -> Box<dyn GradCompressor>;
    let cases: [(&str, MakeCompressor, RunOptions); 3] = [
        ("identity, one bucket", || Box::new(NoCompression::new()), RunOptions::default()),
        ("identity, four buckets", || Box::new(NoCompression::new()), bucketed),
        ("powersgd rank 2", || Box::new(PowerSgd::new(2, 3)), RunOptions::default()),
    ];
    for (what, compressor, opts) in cases {
        let warm = misses_for(3, compressor().as_mut(), &opts);
        let extended = misses_for(4, compressor().as_mut(), &opts);
        assert!(warm > 0.0, "{what}: warm-up rounds must have allocated through the pool");
        assert_eq!(
            extended,
            warm,
            "{what}: the post-warm-up rounds allocated fresh buffers: {} new pool misses",
            extended - warm
        );
    }
}
