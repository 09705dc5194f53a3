//! Acceptance tests for the soak harness's robustness invariants, at test
//! scale: a churned run (crash → rejoin → join → leave, plus a corrupted
//! message) must complete its schedule, stay allocation-free in the
//! post-churn steady state, and replay bitwise from its mid-run
//! checkpoint. The `soak` bin drives the same invariants at soak length;
//! these tests keep them cheap enough for every `cargo test`.
//!
//! Both tests toggle process-global probe/workspace state, so they
//! serialize on a file-local lock (the `alloc_steady_state.rs` idiom).

use puffer_compress::none::NoCompression;
use puffer_dist::checkpoint::{CheckpointPolicy, DistCheckpoint};
use puffer_dist::cost::ClusterProfile;
use puffer_dist::fault::FaultPlan;
use puffer_dist::membership::{MemberEventKind, MembershipPlan};
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RecoveryPolicy, RunOptions};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_tensor::{workspace, Tensor};
use std::sync::Mutex;
use std::time::Duration;

static GLOBAL: Mutex<()> = Mutex::new(());

fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 16, true, seed).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, seed + 1).unwrap()),
    ])
}

fn batches(n: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n)
        .map(|b| {
            let x = Tensor::randn(&[12, 6], 1.0, 900 + b as u64);
            let labels = (0..12).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

fn cfg() -> DistConfig {
    DistConfig {
        workers: 3,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        profile: ClusterProfile::zero_cost(3),
    }
}

fn recovery() -> RecoveryPolicy {
    RecoveryPolicy { step_timeout: Duration::from_millis(80), max_retries: 2, backoff: 2.0 }
}

/// Crash worker 2 at step 2, rejoin it at step 5, join worker 3 at step 7,
/// retire worker 0 at step 9, corrupt one of worker 1's messages. All
/// churn sits below step 10 so trailing rounds are pure steady state.
fn churn_faults() -> FaultPlan {
    FaultPlan::new(11).with_crash(2, 2).with_corrupt(1, 3)
}

fn churn_plan() -> MembershipPlan {
    MembershipPlan::none().with_join(2, 5).with_join(3, 7).with_leave(0, 9)
}

#[test]
fn churned_run_completes_its_schedule_and_stays_allocation_free() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    workspace::set_enabled(true);

    // Built once at full length and sliced per run: data generation itself
    // draws pool buffers, so the two runs must share one materialization.
    let data = batches(13);
    let run = |n_steps: usize| -> (f64, Vec<MemberEventKind>, usize) {
        workspace::clear_thread_arena();
        probe::reset();
        probe::configure(probe::ProbeConfig::in_memory());
        let opts = RunOptions {
            faults: churn_faults(),
            membership: churn_plan(),
            recovery: recovery(),
            ..RunOptions::default()
        };
        let mut comp = NoCompression::new();
        let out =
            train_data_parallel_with(|_| model(40), &data[..n_steps], &mut comp, &cfg(), &opts)
                .expect("churned run");
        let misses = probe::counter_value("alloc.pool_misses").unwrap_or(0.0);
        probe::reset();
        let kinds = out.membership.iter().map(|e| e.kind).collect();
        (misses, kinds, out.faults.survivors)
    };

    let (warm, kinds, survivors) = run(12);
    assert_eq!(
        kinds,
        vec![
            MemberEventKind::Crash,
            MemberEventKind::Rejoin,
            MemberEventKind::Join,
            MemberEventKind::Leave,
        ],
        "the full churn schedule must execute in order"
    );
    assert_eq!(survivors, 3, "3 initial − crash + rejoin + join − leave");

    // Zero steady-state allocation: one extra post-churn round (the churn
    // sits at identical absolute steps in both runs) adds no pool misses.
    let (extended, _, _) = run(13);
    assert!(warm > 0.0, "warm-up must have allocated through the pool");
    assert_eq!(
        extended,
        warm,
        "post-churn round allocated fresh buffers: {} new pool misses",
        extended - warm
    );
    workspace::set_enabled(false);
}

#[test]
fn churned_run_replays_bitwise_from_its_checkpoint() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("puffer_soak_inv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let data = batches(12);
    let opts = RunOptions {
        faults: churn_faults(),
        membership: churn_plan(),
        recovery: recovery(),
        checkpoint: CheckpointPolicy::every(6, &dir),
        ..RunOptions::default()
    };
    let mut c1 = NoCompression::new();
    let main = train_data_parallel_with(|_| model(40), &data, &mut c1, &cfg(), &opts)
        .expect("churned run");
    let ck_path = main
        .checkpoints
        .iter()
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy() == "dist_ckpt_000006.puft"))
        .expect("mid-run checkpoint");
    let ck = DistCheckpoint::load(ck_path).unwrap();
    // Taken after the crash (2) and rejoin (5): the member set carries the
    // rejoined worker and the epoch sequence so far.
    assert_eq!(ck.members, vec![0, 1, 2]);
    assert_eq!(ck.epoch, 2);

    let replay_opts = RunOptions {
        faults: churn_faults(),
        membership: churn_plan(),
        recovery: recovery(),
        resume: Some(ck),
        ..RunOptions::default()
    };
    let mut c2 = NoCompression::new();
    let replay = train_data_parallel_with(|_| model(40), &data, &mut c2, &cfg(), &replay_opts)
        .expect("replay run");

    assert_eq!(
        replay.final_params, main.final_params,
        "checkpoint-resume replay of the same churn schedule must be bitwise identical"
    );
    assert_eq!(replay.faults.survivors, main.faults.survivors);
    assert_eq!(replay.final_epoch, main.final_epoch);
    assert_eq!(replay.step_losses, &main.step_losses[6..], "replayed losses must match");
    std::fs::remove_dir_all(&dir).ok();
}
