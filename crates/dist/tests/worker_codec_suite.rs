//! The threaded trainer against worker-side codecs: every replica encodes
//! and decodes its own gradient, the aggregator only reduces payloads.
//!
//! The oracle is a sequential re-enactment of the protocol through the
//! public `puffer-compress` interface (`reference_run`): one model, one
//! codec per member, the payloads of whoever is said to contribute combined
//! per phase the way the method's collective does it (a pinned-order mean,
//! or the messages end to end). The trainer — threads, channels, buckets,
//! timeouts, crash detection — must land on its parameters **and** its
//! compressor state bit for bit, including in the rounds where a fault
//! removes somebody: error feedback, momentum and residuals belong to a
//! worker id, so nobody else's memory moves. Every case runs over PowerSGD
//! (two allreduce phases), Signum and Top-k (one allgather phase each).

use puffer_compress::atomo::Atomo;
use puffer_compress::powersgd::PowerSgd;
use puffer_compress::quant::BinaryQuant;
use puffer_compress::signum::Signum;
use puffer_compress::topk::TopK;
use puffer_compress::{combine_in_order, GradCompressor, WorkerCodec};
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

/// A compressor under test: how to make one, and the prefix of the
/// snapshot rows that hold one worker's own memory.
#[derive(Clone, Copy)]
struct Method {
    name: &'static str,
    make: fn() -> Box<dyn GradCompressor>,
    memory_rows: &'static str,
}

const POWERSGD: Method =
    Method { name: "powersgd", make: || Box::new(PowerSgd::new(2, 9)), memory_rows: "m" };
const SIGNUM: Method =
    Method { name: "signum", make: || Box::new(Signum::new(0.9)), memory_rows: "mom" };
const TOPK: Method =
    Method { name: "topk", make: || Box::new(TopK::new(0.25)), memory_rows: "mem" };
const ATOMO: Method =
    Method { name: "atomo", make: || Box::new(Atomo::new(2, 7)), memory_rows: "" };
const QUANT: Method =
    Method { name: "binary-quant", make: || Box::new(BinaryQuant::new(5)), memory_rows: "rng" };
/// The methods the fault cases run over: the ones with memory of their own
/// that a central round used to keep by position.
const METHODS: [Method; 3] = [POWERSGD, SIGNUM, TOPK];

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
    /// Whose payloads reach the combination of phase 0 and (for a codec
    /// that has one) of phase 1.
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
    method: Method,
    batches: &[(Tensor, Vec<usize>)],
    rounds: &[Round],
    cfg: &DistConfig,
) -> (Vec<Tensor>, Vec<(String, Tensor)>) {
    let mut model = mlp(21);
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut owner = (method.make)();
    let kind = owner.aggregation();
    let mut codecs: BTreeMap<usize, Box<dyn WorkerCodec>> = BTreeMap::new();
    for (batch, round) in batches.iter().zip(rounds) {
        codecs.retain(|w, _| round.members.contains(w));
        for &w in &round.members {
            if !codecs.contains_key(&w) {
                // A newcomer's codec is cut from what the members hold now.
                assert!(owner.restore_state(&union(&codecs)));
                codecs.insert(w, owner.worker_codec(w));
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
        let phases = codecs.values().next().unwrap().phases();
        for (phase, contributors) in round.contributors.iter().enumerate().take(phases) {
            let mut payloads: BTreeMap<usize, Tensor> = BTreeMap::new();
            for (&w, codec) in codecs.iter_mut() {
                let mut out = Tensor::zeros(&[codec.payload_layout(phase, &shapes).total_len()]);
                let mut g: Vec<&mut Tensor> = grads.get_mut(&w).unwrap().iter_mut().collect();
                let prev = reduced.as_ref().map(Tensor::as_slice);
                codec.encode(phase, &mut g, prev, out.as_mut_slice()).unwrap();
                payloads.insert(w, out);
            }
            let chosen: Vec<&Tensor> = contributors.iter().map(|w| &payloads[w]).collect();
            reduced = Some(combine_in_order(kind, &chosen));
        }
        let reduced = reduced.unwrap();
        for (&w, codec) in codecs.iter_mut() {
            let mut g: Vec<&mut Tensor> = grads.get_mut(&w).unwrap().iter_mut().collect();
            let contributed = round.contributors.iter().take(phases).all(|c| c.contains(&w));
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
    method: Method,
    batches: &[(Tensor, Vec<usize>)],
    cfg: &DistConfig,
    opts: RunOptions,
) -> (DistOutcome, Vec<(String, Tensor)>) {
    let mut comp = (method.make)();
    let opts = RunOptions { recovery: quick_recovery(), ..opts };
    let out = train_data_parallel_with(|_| mlp(21), batches, comp.as_mut(), cfg, &opts)
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
    for method in METHODS {
        let (want_params, want_state) = reference_run(method, &batches, &rounds, &cfg);
        let (out, state) = trainer_run(method, &batches, &cfg, RunOptions::default());
        assert!(out.faults.is_clean(), "{}: {:?}", method.name, out.faults);
        assert_eq!(out.final_params, want_params, "{}", method.name);
        assert_same_state(&state, &want_state);

        // Bucket size cuts the payloads differently, never the result:
        // 64-byte buckets split every payload tensor from its neighbours.
        for bucket_bytes in [64usize, 64 << 10] {
            let opts = RunOptions { bucket_bytes: Some(bucket_bytes), ..RunOptions::default() };
            let (bucketed, bucketed_state) = trainer_run(method, &batches, &cfg, opts);
            assert_eq!(bucketed.final_params, out.final_params, "bucket_bytes {bucket_bytes}");
            assert_same_state(&bucketed_state, &state);
        }

        // On return the caller's compressor holds what the workers held: the
        // state a checkpoint of that boundary would carry, so a later call
        // (or a resume) continues from it.
        let mut comp = (method.make)();
        let opts = RunOptions::default();
        train_data_parallel_with(|_| mlp(21), &batches[..3], comp.as_mut(), &cfg, &opts).unwrap();
        let (_, state_at_3) = reference_run(method, &batches[..3], &rounds[..3], &cfg);
        assert_same_state(&comp.state_snapshot(), &state_at_3);
        let resumed =
            train_data_parallel_with(|_| mlp(21), &batches[3..], comp.as_mut(), &cfg, &opts);
        assert!(resumed.is_ok(), "a second call on the same compressor must run");
    }
    // The same PowerSGD run on the parent commit — every gradient shipped to
    // the aggregator, `PowerSgd::round` played there — ended on these bits.
    let (out, _) = trainer_run(POWERSGD, &batches, &cfg, RunOptions::default());
    assert_eq!(message_checksum(&out.final_params), PARENT_DIGEST, "parent's parameters");
}

/// `message_checksum` of the final parameters of
/// `clean_run_matches_the_reference_and_the_parents_central_round`'s
/// PowerSGD run, recorded from a build of the parent commit (c41a058).
const PARENT_DIGEST: u64 = 0xa21e_3ace_ed52_75c4;

/// `message_checksum` of the final parameters and of the compressor's
/// snapshot tensors after `train_data_parallel_with(|_| mlp(21), batches(5,
/// 16), …, cfg(workers), bucket_bytes ∈ {64, usize::MAX})`, recorded from a
/// build of the parent commit (591aa78) — the packed gradient shipped to the
/// aggregator, the method's `round` played there — with SIMD on and off;
/// both bucket sizes gave the same bits. `None`: the parent snapshot
/// nothing for the method.
const PARENT_GATHER_DIGESTS: [(Method, usize, u64, Option<u64>); 10] = [
    (SIGNUM, 1, 0xfd88_e26e_2f03_69b3, Some(0xbaa9_e0e1_5542_20c8)),
    (SIGNUM, 2, 0x1810_67c0_c040_8807, Some(0x59ea_a27b_bcd1_44c4)),
    (SIGNUM, 4, 0xb44a_ef15_904f_3b21, Some(0xd447_03ec_d4cd_761c)),
    (TOPK, 1, 0x123f_3a1b_c808_552c, Some(0x1554_97f3_697d_0109)),
    (TOPK, 2, 0x8a90_dc2f_f6d4_926a, Some(0xe2c7_54ef_2f47_c07f)),
    (TOPK, 4, 0xad4e_8609_3a06_2d9b, Some(0xecce_2422_7633_d77f)),
    (ATOMO, 1, 0x1795_065b_1db5_e395, None),
    (ATOMO, 2, 0x2d8b_0587_6079_731a, None),
    (ATOMO, 4, 0xd648_bae5_e037_3af3, None),
    // One worker only: the parent threaded one random stream through the
    // workers in order, which no node encoding for itself can reproduce.
    (QUANT, 1, 0xdb6d_1fd1_d4d9_b574, None),
];

#[test]
fn gather_codecs_land_on_the_parents_bits() {
    let batches = batches(5, 16);
    for (method, workers, params, state) in PARENT_GATHER_DIGESTS {
        for bucket_bytes in [64usize, usize::MAX] {
            let opts = RunOptions { bucket_bytes: Some(bucket_bytes), ..RunOptions::default() };
            let (out, rows) = trainer_run(method, &batches, &cfg(workers), opts);
            let what = format!("{}, {workers} workers, {bucket_bytes}-byte buckets", method.name);
            assert_eq!(message_checksum(&out.final_params), params, "{what}: parameters");
            if let Some(state) = state {
                let names: Vec<String> = rows.iter().map(|(n, _)| n.clone()).collect();
                let mut want = vec!["layout".to_string()];
                want.extend((0..workers).map(|w| format!("{}.{w:02}", method.memory_rows)));
                assert_eq!(names, want, "{what}: state rows");
                let tensors: Vec<Tensor> = rows.into_iter().map(|(_, t)| t).collect();
                assert_eq!(message_checksum(&tensors), state, "{what}: state");
            }
        }
    }
}

#[test]
fn a_lost_contribution_leaves_every_other_workers_memory_alone() {
    // Worker 1's round-2 payload never arrives. The parent indexed error
    // memory (PowerSGD's, then Signum's momentum and Top-k's residual) by
    // position among the contributors and wiped all of it when their number
    // changed: here workers 0 and 2 must end exactly where a fleet in which
    // worker 1 simply sat that round out would have put them, and worker 1
    // keeps the memory it had.
    let batches = batches(5, 12);
    let cfg = cfg(3);
    let all = [0usize, 1, 2];
    let mut rounds: Vec<Round> = (0..5).map(|_| Round::clean(&all)).collect();
    rounds[2].contributors = [vec![0, 2], vec![0, 2]];
    for method in METHODS {
        let (want_params, want_state) = reference_run(method, &batches, &rounds, &cfg);
        let opts =
            RunOptions { faults: FaultPlan::new(17).with_drop_all(1, 2), ..RunOptions::default() };
        let (out, state) = trainer_run(method, &batches, &cfg, opts);
        assert_eq!(out.faults.lost_contributions, 1, "{}", method.name);
        assert_eq!(out.faults.survivors, 3, "a lost message is not a death sentence");
        assert_eq!(out.final_params, want_params, "{}", method.name);
        assert_same_state(&state, &want_state);
        for w in 0..3 {
            let rows = format!("{}.{w:02}", method.memory_rows);
            assert!(state.iter().any(|(n, _)| n.starts_with(&rows)), "{rows}*");
        }
    }
}

#[test]
fn a_skipped_step_leaves_the_compressor_state_untouched() {
    // The non-finite guard trips in the last round: parameters and every
    // state row are those of the run that ended one round earlier.
    let batches = batches(4, 12);
    let cfg = cfg(3);
    for method in METHODS {
        let (before, state_before) =
            trainer_run(method, &batches[..3], &cfg, RunOptions::default());
        let opts =
            RunOptions { faults: FaultPlan::new(5).with_nonfinite(2, 3), ..RunOptions::default() };
        let (out, state) = trainer_run(method, &batches, &cfg, opts);
        assert_eq!(out.faults.skipped_steps, vec![3], "{}", method.name);
        assert_eq!(out.breakdown.skipped_steps, 1);
        assert_eq!(out.final_params, before.final_params, "{}", method.name);
        assert_same_state(&state, &state_before);
        // And skipping mid-run keeps the replicas and their codecs in step.
        let opts =
            RunOptions { faults: FaultPlan::new(5).with_nonfinite(0, 1), ..RunOptions::default() };
        let (mid, mid_state) = trainer_run(method, &batches, &cfg, opts);
        let mut rounds: Vec<Round> = (0..4).map(|_| Round::clean(&[0, 1, 2])).collect();
        rounds[1].skipped = true;
        let (want_params, want_state) = reference_run(method, &batches, &rounds, &cfg);
        assert_eq!(mid.final_params, want_params, "{}", method.name);
        assert_same_state(&mid_state, &want_state);
    }
}

#[test]
fn a_joiner_starts_from_the_shared_queries_and_no_memory() {
    // What is shared is PowerSGD's queries and, for Signum and Top-k, only
    // the layout: the joiner's momentum / residual starts at zero.
    let batches = batches(5, 12);
    let cfg = cfg(3);
    let mut rounds: Vec<Round> = (0..3).map(|_| Round::clean(&[0, 1, 2])).collect();
    rounds.extend((3..5).map(|_| Round::clean(&[0, 1, 2, 3])));
    for method in METHODS {
        let (want_params, want_state) = reference_run(method, &batches, &rounds, &cfg);
        let opts = RunOptions {
            membership: MembershipPlan::none().with_join(3, 3),
            ..RunOptions::default()
        };
        let (out, state) = trainer_run(method, &batches, &cfg, opts);
        assert_eq!(out.faults.survivors, 4);
        assert_eq!(out.final_params, want_params, "{}", method.name);
        assert_same_state(&state, &want_state);
        let rows = format!("{}.03", method.memory_rows);
        assert!(state.iter().any(|(n, _)| n.starts_with(&rows)), "the joiner has memory by now");
    }
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
    let (want_params, want_state) = reference_run(POWERSGD, &batches, &rounds, &cfg);

    let opts = RunOptions {
        faults: FaultPlan::new(3).with_crash_mid_round(1, 1),
        ..RunOptions::default()
    };
    let (out, state) = trainer_run(POWERSGD, &batches, &cfg, opts);
    assert_eq!(out.faults.crashed, vec![(1, 1)]);
    assert_eq!(out.faults.survivors, 2);
    assert_eq!(out.step_losses.len(), 4);
    assert!(out.faults.skipped_steps.is_empty());
    assert_eq!(out.final_params, want_params);
    assert_same_state(&state, &want_state);
}
