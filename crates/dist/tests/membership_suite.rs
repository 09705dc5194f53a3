//! Acceptance tests for elastic membership: mid-run joins with catch-up,
//! voluntary leaves, crash + rejoin, resume under a different configured
//! fleet width, epoch-attributed audit logs, and hetero re-pricing of the
//! live member set.
//!
//! Churn is scheduled from a [`MembershipPlan`] and faults from a seeded
//! [`FaultPlan`], so every scenario is deterministic.

use puffer_compress::none::NoCompression;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::GradCompressor;
use puffer_dist::checkpoint::{CheckpointPolicy, DistCheckpoint};
use puffer_dist::cost::{ClusterProfile, HeteroProfile};
use puffer_dist::fault::FaultPlan;
use puffer_dist::membership::{MemberEventKind, MembershipPlan};
use puffer_dist::trainer::{
    train_data_parallel, train_data_parallel_with, DistConfig, RecoveryPolicy, RunOptions,
};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::Sequential;
use puffer_tensor::Tensor;
use std::time::Duration;

fn mlp(seed_base: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 16, true, seed_base).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, seed_base + 1).unwrap()),
    ])
}

/// Batches whose rows are all identical within a batch: every member shard
/// then yields the same mean gradient *mathematically*, so the aggregated
/// update is invariant to the member count up to floating-point summation
/// order (a k-row shard sums k identical per-row gradients sequentially,
/// which rounds differently for different k). A churned run on uniform
/// batches must therefore track a clean static run to last-ulp
/// accumulation error — `REL_TOL` — while the *same* schedule re-run must
/// be bitwise identical.
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

/// Ordinary batches with distinct rows (shards differ across members).
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

fn quick_recovery() -> RecoveryPolicy {
    RecoveryPolicy { step_timeout: Duration::from_millis(80), max_retries: 2, backoff: 2.0 }
}

/// Divergence budget for churned-vs-static comparisons on uniform batches:
/// a few ulps of per-step summation-order error compounded over the run.
/// A catch-up bug (wrong params/momentum/shard) shows up at O(1e-2).
const REL_TOL: f32 = 1e-4;

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
        std::env::temp_dir().join(format!("puffer_member_suite_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mid_run_join_catches_up_on_uniform_batches() {
    // Worker 2 joins a 2-worker run at step 2 (admitted from the leader's
    // in-memory snapshot — no checkpoint directory configured). On uniform
    // batches the update stream is member-count invariant up to summation
    // order, so the grown run must track the static run within REL_TOL —
    // and a rerun of the same churn schedule must be bitwise identical.
    let batches = uniform_batches(6, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(21), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        membership: MembershipPlan::none().with_join(2, 2),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(21), &batches, &mut comp, &cfg, &opts).unwrap();
    let mut rerun_c = NoCompression::new();
    let rerun = train_data_parallel_with(|_| mlp(21), &batches, &mut rerun_c, &cfg, &opts).unwrap();

    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel <= REL_TOL, "joiner must not perturb the update stream: rel {rel:e}");
    assert_eq!(out.final_params, rerun.final_params, "same churn schedule must be bitwise");
    assert_eq!(out.faults.survivors, 3, "the joiner must survive to the end");
    assert_eq!(out.step_losses.len(), 6);

    // Audit log: exactly one Join with full attribution, epoch bumped once.
    assert_eq!(out.membership.len(), 1);
    let ev = out.membership[0];
    assert_eq!(ev.kind, MemberEventKind::Join);
    assert_eq!(ev.worker, 2);
    assert_eq!(ev.step, 2);
    assert_eq!(ev.epoch, 1);
    assert_eq!(out.final_epoch, 1);
}

#[test]
fn voluntary_leave_shrinks_the_fleet_without_divergence() {
    let batches = uniform_batches(5, 8);
    let cfg = zero_cost_cfg(3);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(31), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        membership: MembershipPlan::none().with_leave(1, 3),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(31), &batches, &mut comp, &cfg, &opts).unwrap();

    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel <= REL_TOL, "leave must not perturb the update stream: rel {rel:e}");
    assert_eq!(out.faults.survivors, 2);
    assert!(out.faults.crashed.is_empty(), "a voluntary leave is not a crash");
    assert_eq!(out.membership.len(), 1);
    assert_eq!(out.membership[0].kind, MemberEventKind::Leave);
    assert_eq!(out.membership[0].worker, 1);
    assert_eq!(out.membership[0].step, 3);
}

#[test]
fn crashed_worker_rejoins_with_masked_crash_schedule() {
    // Worker 1 crashes at step 1 and rejoins at step 3. The rejoined
    // incarnation must NOT re-execute the step-1 crash entry (its fault
    // schedule is masked from its entry step on), and the audit log must
    // distinguish the Rejoin from a fresh Join.
    let batches = uniform_batches(6, 8);
    let cfg = zero_cost_cfg(2);
    let mut clean_c = NoCompression::new();
    let clean = train_data_parallel(|_| mlp(41), &batches, &mut clean_c, &cfg).unwrap();

    let opts = RunOptions {
        faults: FaultPlan::new(9).with_crash(1, 1),
        membership: MembershipPlan::none().with_join(1, 3),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(41), &batches, &mut comp, &cfg, &opts).unwrap();

    let rel = max_rel_error(&out.final_params, &clean.final_params);
    assert!(rel <= REL_TOL, "rejoin must not perturb the update stream: rel {rel:e}");
    assert_eq!(out.faults.survivors, 2, "the rejoined worker must finish the run");
    assert_eq!(out.faults.crashed, vec![(1, 1)]);

    let kinds: Vec<_> = out.membership.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![MemberEventKind::Crash, MemberEventKind::Rejoin]);
    // Epochs attribute each transition and increase monotonically.
    assert!(out.membership.iter().zip(1u64..).all(|(e, i)| e.epoch == i));
    assert_eq!(out.final_epoch, 2);
}

#[test]
fn join_admission_waits_for_a_periodic_checkpoint_boundary() {
    // With checkpointing every 2 steps, a join scheduled at step 2 is
    // admitted exactly at the boundary and catches up from the on-disk
    // PUFT file — the checkpoint written there must record the grown
    // member set and bumped epoch.
    let dir = scratch_dir("join_ckpt");
    let batches = uniform_batches(6, 8);
    let cfg = zero_cost_cfg(2);
    let opts = RunOptions {
        membership: MembershipPlan::none().with_join(2, 2),
        checkpoint: CheckpointPolicy::every(2, &dir),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut comp = NoCompression::new();
    let out = train_data_parallel_with(|_| mlp(51), &batches, &mut comp, &cfg, &opts).unwrap();
    assert_eq!(out.faults.survivors, 3);
    assert!(!out.checkpoints.is_empty());

    // The step-2 checkpoint is written at the same boundary the joiner is
    // admitted: it must already carry the grown member set.
    let ck = DistCheckpoint::load(&out.checkpoints[0]).unwrap();
    assert_eq!(ck.step, 2);
    assert_eq!(ck.members, vec![0, 1, 2]);
    assert_eq!(ck.epoch, 1);

    // The joiner is seeded from the struct that file was written from, not
    // from the file: the same run without a checkpoint directory ends on the
    // same bits, log and epoch — with PowerSGD too, whose codec state the
    // boundary gathers from the members either way.
    let no_dir = RunOptions { checkpoint: CheckpointPolicy::disabled(), ..opts.clone() };
    let mut comp = NoCompression::new();
    let bare = train_data_parallel_with(|_| mlp(51), &batches, &mut comp, &cfg, &no_dir).unwrap();
    assert!(bare.checkpoints.is_empty());
    assert_eq!(bare.final_params, out.final_params, "NoCompression: file or no file");
    assert_eq!(bare.membership, out.membership);
    assert_eq!(bare.final_epoch, out.final_epoch);
    let powersgd = |opts: &RunOptions| {
        let mut comp = PowerSgd::new(2, 9);
        let out = train_data_parallel_with(|_| mlp(51), &batches, &mut comp, &cfg, opts).unwrap();
        (out, comp.state_snapshot())
    };
    let (filed, filed_state) = powersgd(&opts);
    let (bare, bare_state) = powersgd(&no_dir);
    assert_eq!(filed.faults.survivors, 3);
    assert_eq!(bare.final_params, filed.final_params, "PowerSGD: file or no file");
    assert_eq!(bare_state, filed_state, "compressor state");
    assert_eq!(bare.membership, filed.membership);
    assert_eq!(bare.final_epoch, filed.final_epoch);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_wider_configured_fleet_restores_checkpointed_members() {
    // Save a checkpoint mid-run with a 3-member fleet, then resume it under
    // a config declaring 5 workers. The resumed run must restore exactly
    // the checkpointed member set (3 active, same ranks → same shards →
    // bitwise-identical continuation), not inflate to the configured width.
    let dir = scratch_dir("width_change");
    let batches = mixed_batches(4, 10);
    let cfg3 = zero_cost_cfg(3);
    let opts = RunOptions {
        checkpoint: CheckpointPolicy::every(2, &dir),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut c1 = NoCompression::new();
    let full = train_data_parallel_with(|_| mlp(61), &batches, &mut c1, &cfg3, &opts).unwrap();
    let ck_path = full.checkpoints.iter().find(|p| p.ends_with("dist_ckpt_000002.puft")).unwrap();
    let ck = DistCheckpoint::load(ck_path).unwrap();
    assert_eq!(ck.members, vec![0, 1, 2]);

    let width_before = puffer_tensor::pool::num_threads();
    let cfg5 = zero_cost_cfg(5);
    let resume_opts =
        RunOptions { resume: Some(ck), recovery: quick_recovery(), ..RunOptions::default() };
    let mut c2 = NoCompression::new();
    let resumed =
        train_data_parallel_with(|_| mlp(61), &batches, &mut c2, &cfg5, &resume_opts).unwrap();

    assert_eq!(resumed.faults.survivors, 3, "resume must restore the checkpointed fleet");
    assert_eq!(resumed.step_losses.len(), 2, "steps 2 and 3 remain");
    assert_eq!(
        resumed.final_params, full.final_params,
        "same members, same ranks: the continuation must be bitwise identical"
    );
    assert_eq!(
        puffer_tensor::pool::num_threads(),
        width_before,
        "the pool-width cap must be restored after resume"
    );

    // A join scheduled at or before the resume point was the original
    // run's to admit, and the checkpointed member set says how that ended:
    // the resumed run neither replays it nor defers it to a later boundary.
    // One scheduled right after it is admitted where it asks to be.
    let ck = DistCheckpoint::load(ck_path).unwrap();
    let churn_opts = RunOptions {
        resume: Some(ck),
        membership: MembershipPlan::none().with_join(4, 2).with_join(3, 3),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut c3 = NoCompression::new();
    let churned =
        train_data_parallel_with(|_| mlp(61), &batches, &mut c3, &cfg5, &churn_opts).unwrap();
    let log: Vec<_> = churned.membership.iter().map(|e| (e.kind, e.worker, e.step)).collect();
    assert_eq!(log, [(MemberEventKind::Join, 3, 3)]);
    assert_eq!(churned.faults.survivors, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn growing_run_reprices_hetero_cost_for_the_live_set() {
    // Joiner 2 is the slow node: once admitted, each round's α/β must be
    // dominated by it, so the churned run's comm time exceeds the static
    // 2-node run's.
    let batches = uniform_batches(6, 8);
    let mut cfg = zero_cost_cfg(2);
    cfg.profile = ClusterProfile::p3_like(2);
    let hetero = HeteroProfile::uniform(ClusterProfile::p3_like(3)).with_node(2, 2e-3, 8.0 / 1e8);

    let static_opts = RunOptions {
        hetero: Some(hetero.clone()),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut c1 = NoCompression::new();
    let static_run =
        train_data_parallel_with(|_| mlp(71), &batches, &mut c1, &cfg, &static_opts).unwrap();

    let grown_opts = RunOptions {
        hetero: Some(hetero),
        membership: MembershipPlan::none().with_join(2, 1),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut c2 = NoCompression::new();
    let grown =
        train_data_parallel_with(|_| mlp(71), &batches, &mut c2, &cfg, &grown_opts).unwrap();

    assert!(
        grown.breakdown.comm > static_run.breakdown.comm,
        "rounds with the slow joiner must be priced at its α/β: {:?} vs {:?}",
        grown.breakdown.comm,
        static_run.breakdown.comm
    );
}

#[test]
fn join_on_mixed_batches_reshards_and_converges() {
    // With distinct rows the grown run is not bitwise-comparable to the
    // static one, but it must still complete, re-shard (each member's rank
    // changes shard content), and keep every replica synchronized — the
    // deterministic rerun check.
    let batches = mixed_batches(6, 12);
    let cfg = zero_cost_cfg(2);
    let opts = RunOptions {
        membership: MembershipPlan::none().with_join(2, 2).with_join(3, 4),
        recovery: quick_recovery(),
        ..RunOptions::default()
    };
    let mut c1 = NoCompression::new();
    let a = train_data_parallel_with(|_| mlp(81), &batches, &mut c1, &cfg, &opts).unwrap();
    let mut c2 = NoCompression::new();
    let b = train_data_parallel_with(|_| mlp(81), &batches, &mut c2, &cfg, &opts).unwrap();
    assert_eq!(a.final_params, b.final_params, "churned runs must be deterministic");
    assert_eq!(a.faults.survivors, 4);
    assert_eq!(a.membership.len(), 2);
    assert_eq!(a.final_epoch, 2);
    assert!(a.step_losses.iter().all(|l| l.is_finite()));
}
