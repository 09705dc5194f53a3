//! The threaded trainer against worker-side codecs: every replica encodes
//! and decodes its own gradient, the aggregator only reduces payloads.
//!
//! The oracle is a sequential re-enactment of the protocol through the
//! public `puffer-compress` interface (`reference_run`): one model, one
//! codec per member, a pinned-order mean per phase over whoever is said to
//! contribute. The trainer — threads, channels, buckets, timeouts, crash
//! detection — must land on its parameters **and** its compressor state
//! bit for bit, including in the rounds where a fault removes somebody:
//! error feedback belongs to a worker id, so nobody else's memory moves.

use puffer_compress::powersgd::PowerSgd;
use puffer_compress::{mean_in_order, GradCompressor, WorkerCodec};
use puffer_dist::cost::ClusterProfile;
use puffer_dist::fault::{message_checksum, FaultPlan};
use puffer_dist::membership::MembershipPlan;
use puffer_dist::trainer::{
    shard_batch, train_data_parallel_with, DistConfig, DistOutcome, RecoveryPolicy, RunOptions,
};
use puffer_nn::activation::Relu;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::Sgd;
use puffer_nn::Sequential;
use puffer_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Duration;

const RANK: usize = 2;
const SEED: u64 = 9;

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
            let x = Tensor::randn(&[rows, 6], 1.0, 400 + b as u64);
            let labels = (0..rows).map(|i| (i + b) % 3).collect();
            (x, labels)
        })
        .collect()
}

fn cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        profile: ClusterProfile::p3_like(workers),
    }
}

/// Fast-failing recovery so timeout paths resolve in milliseconds.
fn quick_recovery() -> RecoveryPolicy {
    RecoveryPolicy { step_timeout: Duration::from_millis(80), max_retries: 2, backoff: 2.0 }
}

/// What the reference is told about one round.
struct Round {
    /// Members, ascending; they share the batch by rank.
    members: Vec<usize>,
    /// Whose payloads reach the mean of phase 0 and of phase 1.
    contributors: [Vec<usize>; 2],
    /// The non-finite guard trips: nobody updates anything.
    skipped: bool,
}

impl Round {
    fn clean(members: &[usize]) -> Round {
        Round {
            members: members.to_vec(),
            contributors: [members.to_vec(), members.to_vec()],
            skipped: false,
        }
    }
}

fn union(codecs: &BTreeMap<usize, Box<dyn WorkerCodec>>) -> Vec<(String, Tensor)> {
    let mut out: Vec<(String, Tensor)> = Vec::new();
    for codec in codecs.values() {
        for (name, t) in codec.state_snapshot() {
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name, t));
            }
        }
    }
    out
}

/// Plays `rounds` over `batches` on one thread. Returns the final
/// parameters and the compressor state a checkpoint would hold.
fn reference_run(
    batches: &[(Tensor, Vec<usize>)],
    rounds: &[Round],
    cfg: &DistConfig,
) -> (Vec<Tensor>, Vec<(String, Tensor)>) {
    let mut model = mlp(21);
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut owner = PowerSgd::new(RANK, SEED);
    let mut codecs: BTreeMap<usize, Box<dyn WorkerCodec>> = BTreeMap::new();
    for (batch, round) in batches.iter().zip(rounds) {
        codecs.retain(|w, _| round.members.contains(w));
        for &w in &round.members {
            if !codecs.contains_key(&w) {
                // A newcomer's codec is cut from what the members hold now.
                assert!(owner.restore_state(&union(&codecs)));
                codecs.insert(w, owner.worker_codec(w).unwrap());
            }
        }
        let mut grads: BTreeMap<usize, Vec<Tensor>> = BTreeMap::new();
        for (rank, &w) in round.members.iter().enumerate() {
            let (x, labels) = shard_batch(batch, rank, round.members.len()).unwrap();
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            let (_, dl) = softmax_cross_entropy(&logits, &labels, 0.0).unwrap();
            let _ = model.backward(&dl);
            grads.insert(w, model.params().iter().map(|p| p.grad.clone()).collect());
        }
        if round.skipped {
            continue;
        }
        let shapes: Vec<Tensor> = model.params().iter().map(|p| p.grad.clone()).collect();
        let shapes: Vec<&Tensor> = shapes.iter().collect();
        let mut reduced: Option<Tensor> = None;
        for (phase, contributors) in round.contributors.iter().enumerate() {
            let mut payloads: BTreeMap<usize, Tensor> = BTreeMap::new();
            for (&w, codec) in codecs.iter_mut() {
                let mut out = Tensor::zeros(&[codec.payload_layout(phase, &shapes).total_len()]);
                let mut g: Vec<&mut Tensor> = grads.get_mut(&w).unwrap().iter_mut().collect();
                let prev = reduced.as_ref().map(Tensor::as_slice);
                codec.encode(phase, &mut g, prev, out.as_mut_slice()).unwrap();
                payloads.insert(w, out);
            }
            let chosen: Vec<&Tensor> = contributors.iter().map(|w| &payloads[w]).collect();
            reduced = Some(mean_in_order(&chosen));
        }
        let reduced = reduced.unwrap();
        for (&w, codec) in codecs.iter_mut() {
            let mut g: Vec<&mut Tensor> = grads.get_mut(&w).unwrap().iter_mut().collect();
            let contributed = round.contributors.iter().all(|c| c.contains(&w));
            codec.decode(reduced.as_slice(), &mut g, contributed).unwrap();
        }
        // Everybody decoded the same gradient; apply anybody's.
        let decoded = grads.remove(&round.members[0]).unwrap();
        for other in grads.values() {
            assert_eq!(*other, decoded, "replicas decoded different gradients");
        }
        for (p, g) in model.params_mut().into_iter().zip(decoded) {
            p.grad = g;
        }
        opt.step(&mut model.params_mut());
    }
    assert!(owner.restore_state(&union(&codecs)));
    (model.params().iter().map(|p| p.value.clone()).collect(), owner.state_snapshot())
}

fn trainer_run(
    batches: &[(Tensor, Vec<usize>)],
    cfg: &DistConfig,
    opts: RunOptions,
) -> (DistOutcome, Vec<(String, Tensor)>) {
    let mut comp = PowerSgd::new(RANK, SEED);
    let opts = RunOptions { recovery: quick_recovery(), ..opts };
    let out = train_data_parallel_with(|_| mlp(21), batches, &mut comp, cfg, &opts)
        .expect("the run must degrade, not fail");
    (out, comp.state_snapshot())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_state(got: &[(String, Tensor)], want: &[(String, Tensor)]) {
    let names = |s: &[(String, Tensor)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "state rows");
    for ((name, g), (_, w)) in got.iter().zip(want) {
        assert_eq!(g.shape(), w.shape(), "shape of {name}");
        assert_eq!(bits(g), bits(w), "bits of {name}");
    }
}

#[test]
fn clean_run_matches_the_reference_and_the_parents_central_round() {
    let batches = batches(6, 8);
    let cfg = cfg(2);
    let rounds: Vec<Round> = (0..6).map(|_| Round::clean(&[0, 1])).collect();
    let (want_params, want_state) = reference_run(&batches, &rounds, &cfg);
    let (out, state) = trainer_run(&batches, &cfg, RunOptions::default());
    assert!(out.faults.is_clean(), "{:?}", out.faults);
    assert_eq!(out.final_params, want_params);
    assert_same_state(&state, &want_state);
    // The same run on the parent commit — every gradient shipped to the
    // aggregator, `PowerSgd::round` played there — ended on these bits.
    assert_eq!(message_checksum(&out.final_params), PARENT_DIGEST, "parent's parameters");

    // Bucket size cuts the P and Q payloads differently, never the result:
    // 64-byte buckets split every payload tensor from its neighbours.
    for bucket_bytes in [64usize, 64 << 10] {
        let opts = RunOptions { bucket_bytes: Some(bucket_bytes), ..RunOptions::default() };
        let (bucketed, bucketed_state) = trainer_run(&batches, &cfg, opts);
        assert_eq!(bucketed.final_params, out.final_params, "bucket_bytes {bucket_bytes}");
        assert_same_state(&bucketed_state, &state);
    }

    // On return the caller's compressor holds what the workers held: the
    // state a checkpoint of that boundary would carry, so a later call (or
    // a resume) continues from it.
    let mut comp = PowerSgd::new(RANK, SEED);
    let opts = RunOptions::default();
    train_data_parallel_with(|_| mlp(21), &batches[..3], &mut comp, &cfg, &opts).unwrap();
    let (_, state_at_3) = reference_run(&batches[..3], &rounds[..3], &cfg);
    assert_same_state(&comp.state_snapshot(), &state_at_3);
    let resumed = train_data_parallel_with(|_| mlp(21), &batches[3..], &mut comp, &cfg, &opts);
    assert!(resumed.is_ok(), "a second call on the same compressor must run");
}

/// `message_checksum` of the final parameters of
/// `clean_run_matches_the_reference_and_the_parents_central_round`'s run,
/// recorded from a build of the parent commit (c41a058).
const PARENT_DIGEST: u64 = 0xa21e_3ace_ed52_75c4;

#[test]
fn a_lost_contribution_leaves_every_other_workers_memory_alone() {
    // Worker 1's round-2 payload never arrives. The parent indexed error
    // memory by position among the contributors and wiped all of it when
    // their number changed: here workers 0 and 2 must end exactly where a
    // fleet in which worker 1 simply sat that round out would have put
    // them, and worker 1 keeps the residual it had.
    let batches = batches(5, 12);
    let cfg = cfg(3);
    let all = [0usize, 1, 2];
    let mut rounds: Vec<Round> = (0..5).map(|_| Round::clean(&all)).collect();
    rounds[2].contributors = [vec![0, 2], vec![0, 2]];
    let (want_params, want_state) = reference_run(&batches, &rounds, &cfg);

    let opts =
        RunOptions { faults: FaultPlan::new(17).with_drop_all(1, 2), ..RunOptions::default() };
    let (out, state) = trainer_run(&batches, &cfg, opts);
    assert_eq!(out.faults.lost_contributions, 1);
    assert_eq!(out.faults.survivors, 3, "a lost message is not a death sentence");
    assert_eq!(out.final_params, want_params);
    assert_same_state(&state, &want_state);
    for w in 0..3 {
        assert!(state.iter().any(|(n, _)| n.starts_with(&format!("m.{w:02}."))), "m.{w:02}.*");
    }
}

#[test]
fn a_skipped_step_leaves_the_compressor_state_untouched() {
    // The non-finite guard trips in the last round: parameters and every
    // q.* / m.* row are those of the run that ended one round earlier.
    let batches = batches(4, 12);
    let cfg = cfg(3);
    let (before, state_before) = trainer_run(&batches[..3], &cfg, RunOptions::default());
    let opts =
        RunOptions { faults: FaultPlan::new(5).with_nonfinite(2, 3), ..RunOptions::default() };
    let (out, state) = trainer_run(&batches, &cfg, opts);
    assert_eq!(out.faults.skipped_steps, vec![3]);
    assert_eq!(out.breakdown.skipped_steps, 1);
    assert_eq!(out.final_params, before.final_params);
    assert_same_state(&state, &state_before);
    // And skipping mid-run keeps the replicas and their codecs in step.
    let opts =
        RunOptions { faults: FaultPlan::new(5).with_nonfinite(0, 1), ..RunOptions::default() };
    let (mid, mid_state) = trainer_run(&batches, &cfg, opts);
    let mut rounds: Vec<Round> = (0..4).map(|_| Round::clean(&[0, 1, 2])).collect();
    rounds[1].skipped = true;
    let (want_params, want_state) = reference_run(&batches, &rounds, &cfg);
    assert_eq!(mid.final_params, want_params);
    assert_same_state(&mid_state, &want_state);
}

#[test]
fn a_joiner_starts_from_the_shared_queries_and_no_memory() {
    let batches = batches(5, 12);
    let cfg = cfg(3);
    let mut rounds: Vec<Round> = (0..3).map(|_| Round::clean(&[0, 1, 2])).collect();
    rounds.extend((3..5).map(|_| Round::clean(&[0, 1, 2, 3])));
    let (want_params, want_state) = reference_run(&batches, &rounds, &cfg);

    let opts =
        RunOptions { membership: MembershipPlan::none().with_join(3, 3), ..RunOptions::default() };
    let (out, state) = trainer_run(&batches, &cfg, opts);
    assert_eq!(out.faults.survivors, 4);
    assert_eq!(out.final_params, want_params);
    assert_same_state(&state, &want_state);
    assert!(state.iter().any(|(n, _)| n.starts_with("m.03.")), "the joiner has memory by now");
}

#[test]
fn a_crash_between_the_phases_degrades_to_the_survivors() {
    // Worker 1 dies after its P left and before its Q exists: P̄ is a mean
    // over three, Q̄ over the two survivors, who also finish the run.
    let batches = batches(4, 12);
    let cfg = cfg(3);
    let mut rounds: Vec<Round> = (0..2).map(|_| Round::clean(&[0, 1, 2])).collect();
    rounds[1].contributors[1] = vec![0, 2];
    rounds.extend((2..4).map(|_| Round::clean(&[0, 2])));
    // The dead worker decodes nothing: the reference drops its codec right
    // after round 1, which `reference_run` does at the next round's start.
    let (want_params, want_state) = reference_run(&batches, &rounds, &cfg);

    let opts = RunOptions {
        faults: FaultPlan::new(3).with_crash_mid_round(1, 1),
        ..RunOptions::default()
    };
    let (out, state) = trainer_run(&batches, &cfg, opts);
    assert_eq!(out.faults.crashed, vec![(1, 1)]);
    assert_eq!(out.faults.survivors, 2);
    assert_eq!(out.step_losses.len(), 4);
    assert!(out.faults.skipped_steps.is_empty());
    assert_eq!(out.final_params, want_params);
    assert_same_state(&state, &want_state);
}
