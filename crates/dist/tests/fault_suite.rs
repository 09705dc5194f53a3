//! Acceptance tests for the fault-tolerant data-parallel trainer: crash
//! degradation with survivor re-normalization, bitwise checkpoint/resume
//! (including compressor error-feedback state), the AMP-style non-finite
//! guard, message drop/corruption recovery, and config validation.
//!
//! Every fault below is injected from a seeded [`FaultPlan`], so the whole
//! suite is deterministic.

use puffer_compress::atomo::Atomo;
use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::quant::BinaryQuant;
use puffer_compress::signum::Signum;
use puffer_compress::GradCompressor;
use puffer_dist::checkpoint::{CheckpointPolicy, DistCheckpoint};
use puffer_dist::cost::{ClusterProfile, HeteroProfile};
use puffer_dist::error::DistError;
use puffer_dist::fault::FaultPlan;
use puffer_dist::trainer::{
    train_data_parallel, train_data_parallel_with, DistConfig, RecoveryPolicy, RunOptions,
};
use puffer_nn::activation::Relu;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::param::Param;
use puffer_nn::Sequential;
use puffer_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn mlp(seed_base: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 16, true, seed_base).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, seed_base + 1).unwrap()),
    ])
}

/// Batches whose rows are all identical within a batch, so every worker
/// shard produces the **same** per-shard mean gradient. The correct mean
/// over any survivor subset then equals the full mean — which is exactly
/// what lets these tests distinguish survivor re-normalization (mean over
/// `k` contributions) from naive division by the original worker count.
fn uniform_batches(n_batches: usize, batch: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n_batches)
        .map(|b| {
            let row = Tensor::randn(&[1, 6], 1.0, 300 + b as u64);
            let data: Vec<f32> = row.as_slice().repeat(batch);
            let x = Tensor::from_vec(data, &[batch, 6]).unwrap();
            (x, vec![b % 3; batch])
        })
        .collect()
}

/// Ordinary batches with distinct rows (shards differ across workers).
fn mixed_batches(n_batches: usize, batch: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n_batches)
        .map(|b| {
            let x = Tensor::randn(&[batch, 6], 1.0, 100 + b as u64);
            let labels = (0..batch).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

fn zero_cost_cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        profile: ClusterProfile::zero_cost(workers),
    }
}

/// Fast-failing recovery so timeout paths resolve in milliseconds.
fn quick_recovery() -> RecoveryPolicy {
    RecoveryPolicy { step_timeout: Duration::from_millis(80), max_retries: 2, backoff: 2.0 }
}

fn max_rel_error(a: &[Tensor], b: &[Tensor]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        for (&u, &v) in x.as_slice().iter().zip(y.as_slice()) {
            let denom = u.abs().max(v.abs()).max(1e-6);
            worst = worst.max((u - v).abs() / denom);
        }
    }
    worst
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("puffer_fault_suite_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn crash_degrades_to_survivors_with_renormalized_mean() {
    // Worker 3 of 4 dies at step 1. The run must complete over the three
    // survivors with the mean re-normalized to the contributing count: on
    // uniform batches the renormalized mean equals the full mean, so the
    // degraded run tracks the clean one (a sum/4 implementation would
    // scale the update by 3/4 and drift immediately).
    let batches = uniform_batches(4, 8);
    let cfg = zero_cost_cfg(4);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(11), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(7).with_crash(3, 1),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(11), &batches, &mut comp, &cfg, &opts).unwrap();

    assert_eq!(out.faults.crashed, vec![(3, 1)]);
    assert_eq!(out.faults.survivors, 3);
    assert_eq!(out.step_losses.len(), batches.len());
    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel < 1e-3, "degraded run drifted from clean run: rel error {rel}");
}

/// The five compressors.
fn compressors() -> [fn() -> Box<dyn GradCompressor>; 5] {
    [
        || Box::new(NoCompression::new()),
        || Box::new(PowerSgd::new(2, 9)),
        || Box::new(Signum::new(0.9)),
        || Box::new(BinaryQuant::new(5)),
        || Box::new(Atomo::new(2, 7)),
    ]
}

/// An MLP whose middle weight is wide enough (both sides over 32) for the
/// SVD's seeded range finder: below that ATOMO's round counter seeds nothing.
fn wide_mlp(seed_base: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 40, true, seed_base).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(40, 36, true, seed_base + 1).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(36, 3, true, seed_base + 2).unwrap()),
    ])
}

#[test]
fn checkpoint_crash_resume_is_bitwise_identical() {
    // The flagship robustness claim: checkpoint at step 3, crash every
    // worker at step 4, resume from the on-disk checkpoint, and land on
    // final parameters bitwise identical to an uninterrupted run — under
    // every compressor, so optimizer momentum AND whatever the method
    // carries from round to round (PowerSGD's error feedback and queries,
    // Signum's momentum, the quantizer's random streams,
    // ATOMO's round counter) must all survive the round trip.
    let batches = mixed_batches(6, 32);
    let cfg = zero_cost_cfg(2);
    let factory = |_w: usize| wide_mlp(21);
    for make in compressors() {
        let mut clean_c = make();
        let name = clean_c.name();
        let clean = train_data_parallel(factory, &batches, clean_c.as_mut(), &cfg).unwrap();

        // Checkpointing alone must not perturb the run.
        let dir = scratch_dir(&format!("resume_{name}"));
        let ckpt_opts = RunOptions {
            checkpoint: CheckpointPolicy::every(3, &dir),
            recovery: quick_recovery(),
            ..RunOptions::default()
        };
        let mut ckpt_c = make();
        let with_ckpt =
            train_data_parallel_with(factory, &batches, ckpt_c.as_mut(), &cfg, &ckpt_opts).unwrap();
        assert_eq!(with_ckpt.final_params, clean.final_params, "{name}");
        // Six steps, every three: the boundary after round 2 and the one
        // after the last round — the same function — each wrote its file.
        let files: Vec<_> =
            [3, 6].iter().map(|&s| ckpt_opts.checkpoint.path_for(s).unwrap()).collect();
        assert_eq!(with_ckpt.checkpoints, files, "{name}");
        assert_eq!(DistCheckpoint::load(&files[1]).unwrap().params, clean.final_params, "{name}");

        // Crash the whole fleet after the step-3 checkpoint: the run dies,
        // the checkpoint survives on disk.
        let crash_dir = scratch_dir(&format!("resume_crash_{name}"));
        let crash_opts = RunOptions {
            faults: FaultPlan::new(3).with_crash(0, 4).with_crash(1, 4),
            checkpoint: CheckpointPolicy::every(3, &crash_dir),
            recovery: quick_recovery(),
            ..RunOptions::default()
        };
        let mut crash_c = make();
        let err = train_data_parallel_with(factory, &batches, crash_c.as_mut(), &cfg, &crash_opts)
            .unwrap_err();
        assert!(matches!(err, DistError::AllWorkersDead { step: 4 }), "{name}: {err:?}");

        // Resume from the surviving checkpoint with a *fresh* compressor.
        let path = CheckpointPolicy::every(3, &crash_dir).path_for(3).unwrap();
        let ck = DistCheckpoint::load(&path).unwrap();
        assert_eq!(ck.step, 3);
        let resume_opts =
            RunOptions { resume: Some(ck), recovery: quick_recovery(), ..RunOptions::default() };
        let mut resume_c = make();
        let resumed =
            train_data_parallel_with(factory, &batches, resume_c.as_mut(), &cfg, &resume_opts)
                .unwrap();
        assert_eq!(resumed.final_params, clean.final_params, "{name}: resume must be bitwise");
        assert_eq!(resumed.step_losses.len(), 3, "resume replays only steps 3..6");
    }
}

#[test]
fn nonfinite_gradient_skips_the_step_in_lockstep() {
    // A poisoned gradient at (worker 1, step 2) must skip that step on
    // every replica — the run then equals, bitwise, a run whose batch
    // list never contained step 2 at all. Under vanilla SGD the aggregator
    // sees it in the mean; Signum's sign words hide it, so the worker flags
    // its own message.
    let batches = mixed_batches(5, 8);
    let cfg = zero_cost_cfg(2);
    let opts = RunOptions {
        faults: FaultPlan::new(5).with_nonfinite(1, 2),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let methods: [fn() -> Box<dyn GradCompressor>; 2] =
        [|| Box::new(NoCompression::new()), || Box::new(Signum::new(0.9))];
    for make in methods {
        let mut comp = make();
        let out =
            train_data_parallel_with(|_| mlp(31), &batches, comp.as_mut(), &cfg, &opts).unwrap();
        assert_eq!(out.faults.skipped_steps, vec![2], "{}", comp.name());
        assert_eq!(out.breakdown.skipped_steps, 1);
        assert_eq!(out.step_losses.len(), 5);

        let mut without: Vec<_> = batches.clone();
        without.remove(2);
        let mut ref_c = make();
        let reference = train_data_parallel(|_| mlp(31), &without, ref_c.as_mut(), &cfg).unwrap();
        assert_eq!(
            out.final_params, reference.final_params,
            "skip must not desynchronize replicas"
        );
        // The skipped round left no trace in anybody's codec either.
        assert_eq!(comp.state_snapshot(), ref_c.state_snapshot(), "{}", comp.name());
    }
}

#[test]
fn dropped_message_is_retried_transparently() {
    // A single dropped send is retried by the worker and the run stays
    // bitwise identical to a clean one.
    let batches = mixed_batches(4, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(41), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(13).with_drop(1, 1),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(41), &batches, &mut comp, &cfg, &opts).unwrap();
    assert_eq!(out.final_params, clean.final_params);
    assert_eq!(out.faults.lost_contributions, 0);
    assert_eq!(out.faults.survivors, 2);
}

#[test]
fn permanently_lost_contribution_degrades_but_keeps_lockstep() {
    // Worker 1's step-1 message is dropped on every retry. The aggregator
    // times out, gives up on the contribution, and proceeds with the
    // survivor's gradient — but still broadcasts the verdict to both
    // workers, so the replicas remain synchronized and the run completes.
    let batches = uniform_batches(4, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(51), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(17).with_drop_all(1, 1),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(51), &batches, &mut comp, &cfg, &opts).unwrap();
    assert_eq!(out.faults.lost_contributions, 1);
    assert_eq!(out.faults.survivors, 2, "a slow message is not a death sentence");
    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel < 1e-3, "uniform batches: one-worker mean equals full mean, rel {rel}");
}

#[test]
fn corrupted_message_fails_checksum_and_is_discarded() {
    // A bit flipped on the wire at (worker 1, step 2): the checksum
    // rejects the message, the step proceeds on the remaining
    // contribution, and the sender stays a live member.
    let batches = uniform_batches(4, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(61), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(19).with_corrupt(1, 2),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(61), &batches, &mut comp, &cfg, &opts).unwrap();
    assert_eq!(out.faults.corrupted_messages, 1);
    assert_eq!(out.faults.survivors, 2);
    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel < 1e-3, "corrupted contribution must not poison the mean, rel {rel}");
}

#[test]
fn stragglers_change_timing_but_never_math() {
    // A 3x-slow worker stretches the measured compute but the final
    // parameters are bitwise those of the clean run (default timeouts are
    // generous enough that nothing is declared lost).
    let batches = mixed_batches(3, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(71), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(23).with_slowdown(1, 3.0).with_jitter(0.2),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(71), &batches, &mut comp, &cfg, &opts).unwrap();
    assert!(out.faults.is_clean(), "{:?}", out.faults);
    assert_eq!(out.final_params, clean.final_params);
}

#[test]
fn hetero_profile_prices_rounds_deterministically() {
    // A heterogeneous cluster with one slow link prices communication
    // above the homogeneous baseline, and the seeded jitter makes the
    // accounting reproducible run-to-run.
    let batches = mixed_batches(3, 8);
    let cfg = DistConfig::p3(2, 0.05);
    let hetero = HeteroProfile::uniform(cfg.profile)
        .with_node(1, cfg.profile.alpha * 40.0, cfg.profile.beta * 40.0)
        .with_jitter(0.3, 99);
    let opts = RunOptions { hetero: Some(hetero), ..RunOptions::default() };

    let mut c1 = NoCompression::new();
    let a = train_data_parallel_with(|_| mlp(81), &batches, &mut c1, &cfg, &opts).unwrap();
    let mut c2 = NoCompression::new();
    let b = train_data_parallel_with(|_| mlp(81), &batches, &mut c2, &cfg, &opts).unwrap();
    assert_eq!(a.breakdown.comm, b.breakdown.comm, "seeded jitter must reproduce");

    let mut c3 = NoCompression::new();
    let homo = train_data_parallel(|_| mlp(81), &batches, &mut c3, &cfg).unwrap();
    assert!(a.breakdown.comm > homo.breakdown.comm, "slow link must cost more");
}

#[test]
fn invalid_inputs_are_rejected_up_front() {
    let batches = mixed_batches(2, 8);
    let mut comp = NoCompression::new();

    let zero = DistConfig { workers: 0, ..zero_cost_cfg(1) };
    assert!(matches!(
        train_data_parallel(|_| mlp(1), &batches, &mut comp, &zero),
        Err(DistError::InvalidConfig { .. })
    ));

    let nan_lr = DistConfig { lr: f32::NAN, ..zero_cost_cfg(2) };
    assert!(matches!(
        train_data_parallel(|_| mlp(1), &batches, &mut comp, &nan_lr),
        Err(DistError::InvalidConfig { .. })
    ));

    let starved = zero_cost_cfg(16);
    assert!(matches!(
        train_data_parallel(|_| mlp(1), &batches, &mut comp, &starved),
        Err(DistError::BatchTooSmall { rows: 8, workers: 16 })
    ));

    let bad_recovery = RunOptions {
        recovery: RecoveryPolicy { backoff: 0.5, ..RecoveryPolicy::default() },
        ..RunOptions::default()
    };
    assert!(matches!(
        train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &zero_cost_cfg(2), &bad_recovery),
        Err(DistError::InvalidConfig { .. })
    ));

    let stale_resume = RunOptions {
        resume: Some(DistCheckpoint {
            step: 99,
            params: Vec::new(),
            velocity: Vec::new(),
            buffers: Vec::new(),
            compressor: Vec::new(),
            members: Vec::new(),
            epoch: 0,
        }),
        ..RunOptions::default()
    };
    assert!(matches!(
        train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &zero_cost_cfg(2), &stale_resume),
        Err(DistError::Checkpoint { .. })
    ));
}

/// An identity layer that counts its replica's forward passes and panics in
/// the one numbered `panic_at`.
struct CountingIdentity {
    forwards: Arc<AtomicUsize>,
    panic_at: Option<usize>,
}

impl Layer for CountingIdentity {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let call = self.forwards.fetch_add(1, Ordering::Relaxed);
        assert!(self.panic_at != Some(call), "replica panics in forward pass {call}");
        input.clone()
    }
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone()
    }
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
    fn describe(&self) -> String {
        "CountingIdentity".to_string()
    }
}

#[test]
fn panicking_replica_yields_worker_panicked_after_the_survivors_finish() {
    // Worker 1's second forward pass panics. Its thread unwinds and drops
    // its channels, which the aggregator sees as a crash: the two survivors
    // train all four steps. Only then — every thread joined, none left to
    // re-panic in the caller — does the run report the panic as its error.
    let batches = mixed_batches(4, 9);
    let forwards: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::default()).collect();
    let factory = |w: usize| {
        Sequential::new(vec![
            Box::new(CountingIdentity {
                forwards: Arc::clone(&forwards[w]),
                panic_at: (w == 1).then_some(1),
            }),
            Box::new(mlp(91)),
        ])
    };
    let opts = RunOptions { recovery: quick_recovery(), ..RunOptions::default() };
    let mut comp = NoCompression::new();
    let result = train_data_parallel_with(factory, &batches, &mut comp, &zero_cost_cfg(3), &opts);
    assert!(matches!(result, Err(DistError::WorkerPanicked)), "{:?}", result.map(|_| ()));
    let counts: Vec<usize> = forwards.iter().map(|f| f.load(Ordering::Relaxed)).collect();
    assert_eq!(counts, [4, 2, 4], "forward passes per replica");
}
