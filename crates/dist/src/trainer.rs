//! A real multi-threaded, fault-tolerant, **elastic** data-parallel
//! trainer.
//!
//! Worker threads each hold an identical model replica and a shard of
//! every global batch. Per step: the aggregator broadcasts a `Step`
//! message naming the round and the current member set, workers compute
//! real gradients (forward/backward), the gradients are averaged under the
//! run's compressor, and every worker applies the same update — the
//! synchronous data-parallel SGD the paper's prototype implements with
//! allreduce. Communication cost is accounted by the α–β model;
//! computation and encode/decode are measured wall-clock.
//!
//! Every round has one shape. The compressor hands every worker its own
//! [`WorkerCodec`]: the round is a short sequence of *phases* in which each
//! worker encodes a flat payload, the aggregator combines the payloads and
//! broadcasts the result, and after the last phase every worker decodes the
//! mean gradient straight into its own `p.grad`. The one thing that differs
//! per collective is the combination ([`AggregationKind`]): an allreduce
//! method's payloads (vanilla SGD, PowerSGD) are summed in worker-id order
//! and scaled once by `1/n`; an allgather method's messages (Signum,
//! binary quantization, ATOMO) are laid end to end in worker-id order, and
//! every worker decodes all `p` of them itself. The aggregator never sees,
//! copies or decodes a gradient — PowerSGD moves `Σ(m+n)·r` floats per
//! worker and round, Signum one bit per coordinate — and encode/decode cost
//! is paid once per node, in parallel, an allgather method's decode growing
//! with the node count, the way the paper's Fig. 4(b) and Fig. 7 charge it.
//!
//! On top of that baseline the trainer is **fault-tolerant**
//! ([`train_data_parallel_with`]): a seeded [`FaultPlan`] injects
//! stragglers, crashes, dropped/corrupted messages and non-finite
//! gradients, and the aggregator degrades gracefully instead of
//! panicking — it times slow workers out with bounded retry/backoff,
//! detects crashed workers by probing their channels, re-normalizes the
//! gradient mean over the survivors, skips steps with non-finite
//! gradients (AMP-style), and periodically checkpoints parameters +
//! optimizer momentum + compressor state so a killed run can resume
//! **bitwise identically** ([`crate::checkpoint::DistCheckpoint`]).
//!
//! It is also **elastic** ([`crate::membership`]): a
//! [`MembershipPlan`] schedules mid-run joins and voluntary leaves.
//! Churn happens between rounds, while the members are idle: where a
//! periodic checkpoint or a waiting join needs it, the aggregator asks the
//! lowest-indexed member for its replica state (and every member for its
//! codec's, if it holds any). A joiner is admitted at a boundary whose
//! state arrived: it loads parameters + momentum + buffers from the
//! checkpoint cut there — handed over in memory; the PUFT file a periodic
//! boundary also writes is never read back by this process — takes over a
//! re-sharded slice of the remaining data stream, and enters lockstep at
//! the next `Step` broadcast. Departures — voluntary or crash — shrink the
//! active set the same way, and [`crate::cost::HeteroProfile`] re-prices
//! α/β for whatever member set is live each round.
//!
//! Payload exchange is **bucketed** ([`crate::bucket`]): every worker
//! splits each phase's payload into size-targeted buckets
//! ([`RunOptions::bucket_bytes`]), assigned by
//! walking the payload's tensors in reverse so the first buckets to fill
//! are the first the backward pass finalizes — each bucket ships as its
//! own message, and the aggregator reduces a bucket eagerly once every
//! expected member delivered it. The apply order is pinned (worker-id
//! order per bucket, buckets concatenated), so the final parameters are
//! **bitwise identical** to the one-flat-bucket run at any bucket size,
//! worker count, or collective algorithm; the default (`usize::MAX`) *is*
//! the one-flat-bucket run. For a one-phase allreduce codec — the payload is
//! the gradient itself — per-bucket communication is priced by the selected
//! [`CollectiveAlgo`] (ring, binary tree, or two-level hierarchical —
//! [`RunOptions::collective`]) and laid on an
//! overlap timeline against the measured per-bucket readiness offsets:
//! the share of comm hidden under still-running backward is *overlapped*,
//! the remainder is *exposed* ([`EpochBreakdown::comm_exposed`]).
//! Payloads that exist only once backward is over (PowerSGD's `P` and `Q`,
//! an allgather method's message) are priced as one collective of the
//! method's kind over the round's bytes, all of it exposed.
//!
//! Worker compute runs on `puffer-tensor`'s threaded kernels; for the
//! duration of a run [`PoolWidthGuard`] (in the membership module — the
//! only place allowed to touch pool width, and the home of the crate's one
//! lock) divides the hardware threads among the members: the tensor pool is
//! capped to `hw / members` threads, at least one, and a member holds one of
//! `hw / pool width` slots through each of its *timed regions* —
//! forward/backward, a phase's encode, decode + optimizer step — giving it
//! back before anything that waits. The compute, encode and decode columns
//! are therefore a node's own time at any worker count; with `members ≤ hw`
//! everybody has a slot and nobody waits.

use crate::breakdown::{round_comm_time, BreakdownAccumulator, EpochBreakdown};
use crate::bucket::{overlap_timeline, BucketPlan, BucketedReducer, ReadyTracker};
use crate::checkpoint::DistCheckpoint;
use crate::cost::{hier_group, ClusterProfile, CollectiveAlgo};
use crate::error::{DistError, DistResult};
use crate::fault::{any_nonfinite, wire_checksum, FaultPlan, FaultReport};
use crate::membership::{
    MemberEvent, MemberEventKind, Membership, MembershipPlan, Slots, EV_CATCH_UP, EV_CRASHED,
    EV_JOINED, EV_LEFT, PROBE_CATEGORY, ROW_TYPE,
};
use puffer_compress::pack::{pack_into, PackLayout};
use puffer_compress::{AggregationKind, GradCompressor, RoundStats, WorkerCodec};
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::loss::softmax_cross_entropy;
use puffer_nn::optim::Sgd;
use puffer_nn::param::Param;
use puffer_probe as probe;
use puffer_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

pub use crate::membership::PoolWidthGuard;

/// Configuration of a data-parallel run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Initial worker (node) count; workers `0..workers` are active at
    /// step 0. A [`MembershipPlan`] may add ids beyond this range mid-run.
    pub workers: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Cluster profile for communication accounting.
    pub profile: ClusterProfile,
}

impl DistConfig {
    /// A `workers`-node run with the paper's CNN hyper-parameters on a
    /// p3-like network.
    pub fn p3(workers: usize, lr: f32) -> Self {
        DistConfig {
            workers,
            lr,
            momentum: 0.9,
            weight_decay: 1e-4,
            profile: ClusterProfile::p3_like(workers),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidConfig`] for zero workers, non-finite
    /// hyper-parameters, or a malformed cluster profile.
    pub fn validate(&self) -> DistResult<()> {
        if self.workers == 0 {
            return Err(DistError::InvalidConfig { reason: "workers must be at least 1".into() });
        }
        for (name, v) in
            [("lr", self.lr), ("momentum", self.momentum), ("weight_decay", self.weight_decay)]
        {
            if !v.is_finite() {
                return Err(DistError::InvalidConfig {
                    reason: format!("{name} must be finite, got {v}"),
                });
            }
        }
        let ok = self.profile.alpha.is_finite()
            && self.profile.alpha >= 0.0
            && self.profile.beta.is_finite()
            && self.profile.beta >= 0.0;
        if !ok {
            return Err(DistError::InvalidConfig {
                reason: "profile α/β must be finite and non-negative".into(),
            });
        }
        Ok(())
    }
}

/// How the aggregator reacts to slow or silent workers.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// How long the aggregator waits for a step's contributions before
    /// probing for crashes.
    pub step_timeout: Duration,
    /// How many timeout rounds to grant before declaring missing
    /// contributions lost and degrading around them.
    pub max_retries: u32,
    /// Multiplicative backoff applied to the timeout per retry round.
    pub backoff: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { step_timeout: Duration::from_secs(5), max_retries: 3, backoff: 2.0 }
    }
}

impl RecoveryPolicy {
    fn validate(&self) -> DistResult<()> {
        if self.step_timeout == Duration::ZERO {
            return Err(DistError::InvalidConfig {
                reason: "step_timeout must be positive".into(),
            });
        }
        if !self.backoff.is_finite() || self.backoff < 1.0 {
            return Err(DistError::InvalidConfig { reason: "backoff must be ≥ 1".into() });
        }
        Ok(())
    }
}

/// Robustness knobs of a run: fault injection, recovery, heterogeneous
/// cost accounting, checkpoint/resume, and elastic membership. The
/// default is a clean static-fleet run on a homogeneous cluster with no
/// checkpointing — exactly the pre-fault trainer.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Faults to inject (deterministic, seeded).
    pub faults: FaultPlan,
    /// Timeout/retry policy for slow or dead workers.
    pub recovery: RecoveryPolicy,
    /// Per-node network parameters; `None` prices every round with
    /// `cfg.profile` (node count still tracks the live member set).
    pub hetero: Option<crate::cost::HeteroProfile>,
    /// Periodic checkpointing policy.
    pub checkpoint: crate::checkpoint::CheckpointPolicy,
    /// Resume from this checkpoint instead of starting at step 0.
    pub resume: Option<DistCheckpoint>,
    /// Scheduled joins and voluntary leaves (deterministic churn).
    pub membership: MembershipPlan,
    /// Gradient bucket size in bytes: the flat buffer is split into
    /// DDP-style buckets assigned in reverse-backward order, each sent
    /// (and, when the compressor allows it, reduced and priced) as soon
    /// as its gradients are final. `None` is `usize::MAX` — one bucket,
    /// byte- and timeline-identical to the synchronous flat path.
    /// `Some(0)` is rejected by validation.
    pub bucket_bytes: Option<usize>,
    /// Collective algorithm pricing the overlap-eligible allreduce rounds
    /// (ring, binary tree, or two-level hierarchical). Changes *pricing*
    /// only — the reduction arithmetic is pinned, so final parameters are
    /// bitwise-identical across algorithms. `None` is ring.
    pub collective: Option<CollectiveAlgo>,
}

impl RunOptions {
    /// The effective bucket size: the explicit option, else one flat
    /// bucket.
    fn resolve_bucket_bytes(&self) -> DistResult<usize> {
        match self.bucket_bytes {
            Some(0) => {
                Err(DistError::InvalidConfig { reason: "bucket_bytes must be nonzero".into() })
            }
            Some(b) => Ok(b),
            None => Ok(usize::MAX),
        }
    }
}

/// Result of a data-parallel run.
#[derive(Debug)]
pub struct DistOutcome {
    /// Accumulated compute/encode/comm/decode decomposition.
    pub breakdown: EpochBreakdown,
    /// Mean training loss per executed step (over the contributing
    /// workers; `NaN` for steps where every contribution was lost).
    pub step_losses: Vec<f32>,
    /// Final parameter values of the lowest-indexed surviving replica
    /// (all survivors are bitwise identical).
    pub final_params: Vec<Tensor>,
    /// That replica's [`Layer::buffers`] (BatchNorm running statistics):
    /// with `final_params`, everything it takes to rebuild the trained model.
    pub final_buffers: Vec<Tensor>,
    /// Account of every degradation the run absorbed.
    pub faults: FaultReport,
    /// Paths of the checkpoints written during the run, in step order.
    pub checkpoints: Vec<PathBuf>,
    /// Membership transition audit log (joins, rejoins, leaves, crashes)
    /// in occurrence order; empty for a static clean run.
    pub membership: Vec<MemberEvent>,
    /// Membership epoch at the end of the run.
    pub final_epoch: u64,
}

/// One bucket of one phase of one worker's per-step contribution. A round
/// is a short sequence of *phases* (one for the identity codec and the
/// allgather codecs, two for PowerSGD — see [`WorkerCodec`]); in each the
/// worker encodes a flat payload (the paper's single-allreduce pack, §4.1,
/// for the identity codec), which is split into [`BucketPlan`] buckets in
/// reverse-backward order. Each bucket travels as its own message with its
/// own checksum and readiness offset, so the aggregator can start reducing
/// (and the α–β timeline can start pricing) a bucket before the sender's
/// remaining buckets have arrived. The default plan is one bucket. The
/// messages of a phase all point into the worker's one payload buffer: the
/// worker keeps a handle and writes the next round's payload into the same
/// storage once the aggregator has let go of it, so no gradient-sized
/// allocation ever changes threads.
struct GradMsg {
    worker: usize,
    step: usize,
    /// Reduce phase of the round this bucket belongs to.
    phase: usize,
    /// Bucket index in [`BucketPlan`] ready order.
    bucket: usize,
    /// Total buckets of this phase (protocol check: must match the
    /// aggregator's own plan).
    buckets: usize,
    /// The sender's whole phase payload; this message is `range` of it.
    payload: Arc<Tensor>,
    range: Range<usize>,
    /// Layout of the phase payload (what the bucket plan is cut from).
    layout: Arc<PackLayout>,
    /// Microseconds into the worker's compute at which this bucket's
    /// payload could have left (straggler delay included, clamped to the
    /// total compute time) — drives the modeled overlap timeline.
    ready_us: u64,
    loss: f32,
    compute: Duration,
    /// What the worker spent in [`WorkerCodec::encode`] for this phase.
    encode: Duration,
    /// [`wire_checksum`] over this bucket's range only: corruption rejects
    /// the whole contribution but is *detected* per bucket.
    checksum: u64,
    /// The sender's gradient is non-finite. Set under an allgather codec,
    /// whose message is bit patterns the aggregator cannot test.
    nonfinite: bool,
}

/// Everything a worker ever tells the aggregator, on the run's one uplink.
enum WorkerMsg {
    Grads(GradMsg),
    /// The answer to an [`AggMsg::Report`].
    Snapshot(Snapshot),
    /// The answer to [`AggMsg::Finish`]; read once every member is joined.
    Final(FinalReport),
    Fatal {
        worker: usize,
        reason: String,
    },
}

/// Aggregator-side bookkeeping of one worker's contribution to one phase:
/// the scalar metadata of a payload that lives in the [`BucketedReducer`]
/// slot.
struct Contribution {
    loss: f32,
    compute: Duration,
    encode: Duration,
    /// Per-bucket readiness offsets (µs into the worker's compute).
    ready_us: Vec<u64>,
    nonfinite: bool,
}

#[derive(Clone)]
enum AggMsg {
    /// Begin round `step` under membership `epoch`. `members` is the
    /// ascending active set; a worker re-shards its slice of the stream
    /// when its (rank, member count) changes.
    Step { step: usize, epoch: u64, members: Arc<Vec<usize>> },
    /// The reduced payload of the phase the worker is waiting on, shared by
    /// every member. After the last phase the worker decodes it into its
    /// gradients and applies the update. `contributed` is false for a
    /// member whose payload did not make it into the mean: it follows the
    /// rest of the round without sending.
    Reduced { payload: Arc<Tensor>, contributed: bool },
    /// Skip this step without updating (non-finite guard tripped or no
    /// usable contribution survived); the unchanged state is still valid.
    Skip,
    /// Between rounds: answer with a [`Snapshot`] of the codec's share of
    /// the compressor state and, if `model`, of parameters + momentum +
    /// buffers (the snapshot leader), for a checkpoint or a joiner.
    Report { model: bool },
    /// Liveness probe; carries no state change.
    Ping,
    /// Retire voluntarily: exit now without reporting final parameters.
    Retire,
    /// The run is over: report final parameters and exit.
    Finish,
}

/// What a finished worker leaves behind.
struct FinalReport {
    worker: usize,
    params: Vec<Tensor>,
    buffers: Vec<Tensor>,
    /// Its codec's share of the compressor state.
    codec: Vec<(String, Tensor)>,
    /// `(step, wall-clock of WorkerCodec::decode)` for every applied step.
    decodes: Vec<(usize, Duration)>,
}

/// Replica state after a round, as the snapshot leader reports it.
struct ModelState {
    params: Vec<Tensor>,
    velocity: Vec<Tensor>,
    buffers: Vec<Tensor>,
}

/// A worker's answer to an [`AggMsg::Report`].
struct Snapshot {
    worker: usize,
    /// The round the sender plays next: the boundary this state describes.
    next_step: usize,
    /// `Some` from the leader only.
    model: Option<ModelState>,
    codec: Vec<(String, Tensor)>,
}

/// Frees tensors that another thread allocated instead of recycling them
/// into this thread's arena: the caller's arena would otherwise grow by a
/// model's worth of foreign buffers with every run in the process.
fn release(tensors: impl IntoIterator<Item = Tensor>) {
    for t in tensors {
        drop(t.into_vec());
    }
}

/// Asks the allocator to hand the memory it holds free back to the
/// operating system. What a thread frees when it exits (its tensor arena
/// included) goes back to the allocator, not to the kernel, and glibc keeps
/// what a dead thread's malloc arena held — and finds only part of it again
/// for the next run's fresh threads, so a process that runs one training
/// after another saw its resident set grow run over run. A no-op where the
/// allocator has no such call.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and has no precondition;
        // glibc serializes it against concurrent malloc/free per arena.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Merges codec snapshots into one compressor state: the union by name,
/// first occurrence wins (shared rows are identical on every worker).
fn merge_codec_states(
    into: &mut Vec<(String, Tensor)>,
    from: impl IntoIterator<Item = (String, Tensor)>,
) {
    for (name, t) in from {
        if into.iter().any(|(n, _)| *n == name) {
            release([t]);
        } else {
            into.push((name, t));
        }
    }
}

/// The buffer behind `slot`, if nobody else still holds it and it has
/// `len` elements; otherwise a fresh one put in its place. Senders keep
/// one handle to every payload they share, so in a steady run the storage
/// is written again and again by the thread that allocated it.
fn reclaim(slot: &mut Arc<Tensor>, len: usize) -> Option<&mut Tensor> {
    if Arc::get_mut(slot).is_none_or(|t| t.len() != len) {
        *slot = Arc::new(Tensor::zeros(&[len]));
    }
    Arc::get_mut(slot)
}

/// Runs synchronous data-parallel SGD over `global_batches` with no
/// injected faults and default recovery (see
/// [`train_data_parallel_with`]).
///
/// `factory(worker)` must build **identical** replicas for every worker
/// (same seed). Each global batch is split row-wise into equal member
/// shards (trailing remainder rows are dropped, as with PyTorch's
/// DistributedSampler padding semantics).
///
/// # Errors
///
/// Returns [`DistError::InvalidConfig`] / [`DistError::BatchTooSmall`] on
/// bad inputs and the other [`DistError`] variants on runtime failures.
pub fn train_data_parallel<M, F>(
    factory: F,
    global_batches: &[(Tensor, Vec<usize>)],
    compressor: &mut dyn GradCompressor,
    cfg: &DistConfig,
) -> DistResult<DistOutcome>
where
    M: Layer + Send,
    F: Fn(usize) -> M + Sync,
{
    train_data_parallel_with(factory, global_batches, compressor, cfg, &RunOptions::default())
}

/// Runs synchronous data-parallel SGD with fault injection, graceful
/// degradation, heterogeneous cost accounting, checkpoint/resume, and
/// elastic membership.
///
/// Fault semantics (see [`FaultPlan`]):
///
/// * **stragglers** stretch a worker's measured compute (a real sleep);
///   the aggregator waits `recovery.step_timeout` with bounded
///   retry/backoff, then degrades around the missing contribution;
/// * **crashed** workers are detected by probing their channels; the
///   member is dropped and the gradient mean is re-normalized over the
///   survivors (the compression round only sees collected contributions);
/// * **corrupted** messages fail their checksum and are discarded (the
///   sender stays live);
/// * **non-finite** gradients trip an AMP-style guard: the step is
///   skipped on every replica (no optimizer update anywhere) and recorded
///   in the breakdown, keeping replicas in lockstep.
///
/// Membership semantics (see [`MembershipPlan`]):
///
/// * a **join** scheduled at step `s` is admitted at the first round
///   boundary `u ≥ max(s, start + 1)` at which the snapshot leader's
///   state arrived; the joiner catches up from that state and
///   participates from round `u` on;
/// * a **leave** scheduled at step `s` retires the member before round
///   `s` begins; it reports no final parameters;
/// * every transition bumps the membership **epoch**; workers re-shard
///   the remaining data stream over the new member set, the tensor-pool
///   width cap is re-priced, and [`crate::cost::HeteroProfile`] prices
///   each round for the members actually live.
///
/// The run errors only when it cannot possibly continue: every worker is
/// dead, a worker reports a fatal error, a thread panics, a checkpoint
/// cannot be written, or the churn schedule is inconsistent with reality
/// (e.g. a join targeting an active member).
///
/// # Errors
///
/// See [`DistError`].
pub fn train_data_parallel_with<M, F>(
    factory: F,
    global_batches: &[(Tensor, Vec<usize>)],
    compressor: &mut dyn GradCompressor,
    cfg: &DistConfig,
    opts: &RunOptions,
) -> DistResult<DistOutcome>
where
    M: Layer + Send,
    F: Fn(usize) -> M + Sync,
{
    cfg.validate()?;
    opts.recovery.validate()?;
    let bucket_bytes = opts.resolve_bucket_bytes()?;
    let (start_step, membership) = starting_fleet(global_batches, compressor, cfg, opts)?;
    let mut pool_guard = PoolWidthGuard::cap_for(membership.active_count());
    let (uplink, from_workers) = channel::<WorkerMsg>();
    let kind = compressor.aggregation();
    let slots = pool_guard.slots();
    let env = RunEnv { cfg, opts, bucket_bytes, kind, batches: global_batches, uplink, slots };
    let joined = std::thread::scope(|scope| {
        let mut agg = Aggregator {
            env: &env,
            factory: &factory,
            scope,
            handles: Vec::new(),
            from_workers: &from_workers,
            compressor: &mut *compressor,
            pool_guard: &mut pool_guard,
            start_step,
            steps: global_batches.len(),
            collective: opts.collective.unwrap_or_default(),
            // Join requests at or before the resume point were already
            // satisfied by the original run: a checkpoint at step `u`
            // implies the leader snapshot at `u` succeeded, which implies
            // every join pending at `u` was admitted there. Whether those
            // members later departed is encoded in the checkpointed member
            // set — replaying the admission would resurrect them and
            // diverge from the original run.
            admitted: opts.membership.joins_through(start_step).collect(),
            members_arc: Arc::new(membership.active()),
            broadcast_epoch: membership.epoch(),
            fleet: Fleet { membership, senders: BTreeMap::new(), report: FaultReport::default() },
            books: Books::default(),
        };
        let ran = agg.run();
        // With the aggregator's command channels gone, every member still
        // running exits. Join them all — the survivors too — before a
        // member's panic becomes the run's error: the scope itself would
        // re-panic here for a panicked thread nobody joined.
        let Aggregator { handles, books, mut fleet, .. } = agg;
        fleet.senders.clear();
        let mut panicked = false;
        for member in handles {
            panicked |= member.join().is_err();
        }
        if panicked {
            Err(DistError::WorkerPanicked)
        } else {
            ran.map(|()| (books, fleet))
        }
    });
    // The worker threads are gone and so are their arenas — a replica's
    // worth of activations and gradients each. Give it back to the system
    // rather than to the allocator's free lists, where the next run's
    // fresh threads only find part of it again.
    trim_heap();
    let (mut books, fleet) = joined?;

    // Every member is joined, so whatever it sent is in the channel already:
    // `try_iter` reads the final reports without waiting for `env`'s sender
    // to go. The lowest-indexed survivor's parameters stand for the run (all
    // survivors applied identical updates). Everything a worker hands over
    // was allocated on its thread: what is kept is copied into this
    // thread's storage, the originals are freed.
    let mut finals: Option<(Vec<Tensor>, Vec<Tensor>)> = None;
    let mut codec_state: Vec<(String, Tensor)> = Vec::new();
    let mut slowest_decode: BTreeMap<usize, Duration> = BTreeMap::new();
    let mut reports: Vec<FinalReport> = from_workers
        .try_iter()
        .filter_map(|msg| match msg {
            WorkerMsg::Final(r) => Some(r),
            _ => None, // a bucket or a snapshot nobody waited for any more
        })
        .collect();
    reports.sort_by_key(|r| r.worker);
    for r in reports {
        for (step, d) in r.decodes {
            let slot = slowest_decode.entry(step).or_default();
            *slot = (*slot).max(d);
        }
        merge_codec_states(&mut codec_state, r.codec);
        if finals.is_none() {
            finals = Some((r.params.clone(), r.buffers.clone()));
        }
        release(r.params.into_iter().chain(r.buffers));
    }
    let Some((final_params, final_buffers)) = finals else {
        return Err(DistError::AllWorkersDead { step: global_batches.len() });
    };
    // Every worker decoded for itself after the aggregator had moved on;
    // the slowest one is the round's critical path.
    for (step, slowest) in slowest_decode {
        books.acc.record_decode(step, slowest);
    }
    let restored = compressor.restore_state(&codec_state);
    release(codec_state.into_iter().map(|(_, t)| t));
    if !restored {
        return Err(DistError::Checkpoint {
            reason: format!("compressor {} rejected its own workers' state", compressor.name()),
        });
    }
    Ok(DistOutcome {
        breakdown: books.acc.breakdown(),
        step_losses: books.step_losses,
        final_params,
        final_buffers,
        faults: fleet.report,
        checkpoints: books.checkpoints,
        final_epoch: fleet.membership.epoch(),
        membership: fleet.membership.into_log(),
    })
}

/// Checks the batches, the churn plan and the resume checkpoint against the
/// largest fleet the run can ever assemble, and restores `compressor` from
/// the checkpoint if there is one. Returns the step the run starts at and
/// the member set it starts with.
fn starting_fleet(
    global_batches: &[(Tensor, Vec<usize>)],
    compressor: &mut dyn GradCompressor,
    cfg: &DistConfig,
    opts: &RunOptions,
) -> DistResult<(usize, Membership)> {
    let plan = &opts.membership;
    plan.validate()?;
    let steps = global_batches.len();

    // The largest fleet the run can ever assemble: the initial workers
    // plus every planned joiner. Batches, the hetero profile, and leave
    // targets are all validated against it up front.
    let mut all_ids: BTreeSet<usize> = (0..cfg.workers).collect();
    all_ids.extend(plan.join_ids());
    let max_fleet = all_ids.len();
    for b in global_batches {
        let rows = b.1.len();
        if rows < max_fleet {
            return Err(DistError::BatchTooSmall { rows, workers: max_fleet });
        }
    }
    if let Some(w) = plan.leave_ids().into_iter().find(|w| !all_ids.contains(w)) {
        return Err(DistError::Membership {
            reason: format!(
                "worker {w} is scheduled to leave but is neither an initial worker nor a \
                 planned joiner"
            ),
        });
    }
    if let Some(h) = &opts.hetero {
        let ids: Vec<usize> = all_ids.iter().copied().collect();
        h.validate_members(&ids)?;
    }

    let Some(ck) = &opts.resume else { return Ok((0, Membership::new(0..cfg.workers))) };
    if ck.step > steps {
        return Err(DistError::Checkpoint {
            reason: format!(
                "checkpoint resumes at step {} but the run has only {steps} batches",
                ck.step
            ),
        });
    }
    if !compressor.restore_state(&ck.compressor) {
        return Err(DistError::Checkpoint {
            reason: format!("compressor {} rejected the checkpoint state", compressor.name()),
        });
    }
    // The member set the run starts with: a checkpoint with a recorded
    // member list restores exactly that fleet (and continues its epoch
    // sequence); a legacy checkpoint — or a fresh run — activates all
    // configured workers.
    if ck.members.is_empty() {
        return Ok((ck.step, Membership::new(0..cfg.workers)));
    }
    if let Some(&w) = ck.members.iter().find(|w| !all_ids.contains(w)) {
        return Err(DistError::Membership {
            reason: format!(
                "checkpoint member {w} is neither an initial worker nor a planned joiner"
            ),
        });
    }
    Ok((ck.step, Membership::with_epoch(ck.members.iter().copied(), ck.epoch)))
}

/// What every thread of a run reads, borrowed by all of them: the
/// configuration, the data, and the one channel that carries worker →
/// aggregator traffic (a `Sender` is `Sync`; nobody clones it).
struct RunEnv<'a> {
    cfg: &'a DistConfig,
    opts: &'a RunOptions,
    /// Resolved gradient bucket size in bytes (option, else `usize::MAX`).
    bucket_bytes: usize,
    /// How the compressor's payloads are combined: by mean or end to end.
    kind: AggregationKind,
    batches: &'a [(Tensor, Vec<usize>)],
    uplink: Sender<WorkerMsg>,
    /// Admission to the members' timed regions (see [`PoolWidthGuard`]).
    slots: Arc<Slots>,
}

/// What makes one member thread that member.
struct WorkerCtx<'a> {
    env: &'a RunEnv<'a>,
    worker: usize,
    /// First global step this worker participates in (0 for initial
    /// members of a fresh run; the admission boundary for joiners).
    entry_step: usize,
    rx: Receiver<AggMsg>,
    /// The checkpoint of its admission boundary, for a mid-run joiner.
    catch_up: Option<Arc<DistCheckpoint>>,
}

/// The aggregator's view of the fleet: who is a member, how to reach them,
/// and the account of what went wrong so far.
struct Fleet {
    membership: Membership,
    senders: BTreeMap<usize, Sender<AggMsg>>,
    report: FaultReport,
}

impl Fleet {
    /// Records `worker` as crashed: drops its command channel, retires it
    /// from the membership (bumping the epoch), and emits fault +
    /// membership attribution. Idempotent for an already departed worker.
    fn mark_crashed(&mut self, worker: usize, step: usize) {
        self.senders.remove(&worker);
        if !self.membership.is_active(worker) {
            return;
        }
        self.membership.crash(worker, step);
        self.report.crashed.push((worker, step));
        probe::counter_add("dist.crashes", 1);
        probe::event(
            "fault",
            "crash_detected",
            vec![
                ("worker", worker.into()),
                ("step", step.into()),
                ("survivors", self.membership.active_count().into()),
            ],
        );
        note_member_event(self.membership.log().last());
    }

    /// Whether `worker`'s command channel still takes messages (a crashed
    /// worker dropped its receiver).
    fn deliver(&self, worker: usize, msg: AggMsg) -> bool {
        self.senders.get(&worker).is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Sends `msg(worker)` to every worker with a channel, marking those
    /// that no longer take it as crashed.
    fn broadcast(&mut self, step: usize, msg: impl Fn(usize) -> AggMsg) {
        let ids: Vec<usize> = self.senders.keys().copied().collect();
        for x in ids {
            if !self.deliver(x, msg(x)) {
                self.mark_crashed(x, step);
            }
        }
    }

    fn count_stale(&mut self) {
        self.report.stale_messages += 1;
        probe::counter_add("dist.stale_messages", 1);
    }

    /// A straggler's bucket from an already-closed step or phase (or from
    /// an already-rejected sender): counted where it is received, once, and
    /// discarded. `step` is the round (or boundary) being waited on.
    fn discard_stale(&mut self, m: &GradMsg, step: usize) {
        self.count_stale();
        probe::event(
            "fault",
            "stale_message",
            vec![("worker", m.worker.into()), ("msg_step", m.step.into()), ("step", step.into())],
        );
    }
}

fn report_fatal(ctx: &WorkerCtx<'_>, step: usize, reason: String) {
    probe::event(
        "fault",
        "worker_fatal",
        vec![("worker", ctx.worker.into()), ("step", step.into())],
    );
    // Best-effort: if the aggregator is already gone there is nobody left
    // to tell.
    ctx.env.uplink.send(WorkerMsg::Fatal { worker: ctx.worker, reason }).ok();
}

/// Emits one membership fact — joined, left, crashed, caught up — as the
/// instant event and the `membership_event` JSONL row, both from the same
/// four fields.
fn note_membership(name: &'static str, kind: &'static str, worker: usize, step: usize, epoch: u64) {
    probe::event(
        PROBE_CATEGORY,
        name,
        vec![
            ("worker", worker.into()),
            ("step", step.into()),
            ("epoch", epoch.into()),
            ("kind", kind.into()),
        ],
    );
    probe::metrics_row(
        ROW_TYPE,
        &[
            ("kind", kind.into()),
            ("worker", worker.into()),
            ("step", step.into()),
            ("epoch", epoch.into()),
        ],
    );
}

/// Emits probe attribution for the latest membership transition.
fn note_member_event(ev: Option<&MemberEvent>) {
    let Some(ev) = ev else { return };
    let name = match ev.kind {
        MemberEventKind::Join | MemberEventKind::Rejoin => EV_JOINED,
        MemberEventKind::Leave => EV_LEFT,
        MemberEventKind::Crash => EV_CRASHED,
    };
    note_membership(name, ev.kind.name(), ev.worker, ev.step, ev.epoch);
}

/// One reduce phase as a worker sees it: how its payload is laid out and
/// bucketed, and the buffer the payload is written into every round.
struct PhasePlan {
    layout: Arc<PackLayout>,
    plan: BucketPlan,
    payload: Arc<Tensor>,
}

/// Borrows every parameter's gradient, in parameter order.
fn grads_of<'a>(params: &'a mut [&mut Param]) -> Vec<&'a mut Tensor> {
    params.iter_mut().map(|p| &mut p.grad).collect()
}

/// Waits for the verdict of the phase in flight, consuming liveness
/// probes. `None`: the worker is to exit without a word (retired, or the
/// aggregator is gone).
fn await_verdict(rx: &Receiver<AggMsg>, worker: usize) -> Option<AggMsg> {
    loop {
        match rx.recv() {
            Ok(msg @ (AggMsg::Reduced { .. } | AggMsg::Skip)) => return Some(msg),
            Ok(AggMsg::Retire) => {
                probe::event("dist", "worker_retired", vec![("worker", worker.into())]);
                return None;
            }
            // Lockstep forbids a new round, or a boundary, before this
            // round's verdict.
            Ok(AggMsg::Ping | AggMsg::Step { .. } | AggMsg::Report { .. } | AggMsg::Finish) => {}
            Err(_) => return None, // aggregator shut down
        }
    }
}

/// Sends one phase payload bucket by bucket, through the fault plan's
/// drops and bounded resends. `false`: the aggregator is gone.
#[allow(clippy::too_many_arguments)]
fn send_phase(
    ctx: &WorkerCtx<'_>,
    step: usize,
    phase: usize,
    plan: &PhasePlan,
    checksums: &[u64],
    ready_us: &dyn Fn(usize) -> u64,
    loss: f32,
    compute: Duration,
    encode: Duration,
    nonfinite: bool,
) -> bool {
    let w = ctx.worker;
    let faults = &ctx.env.opts.faults;
    for (b, &checksum) in checksums.iter().enumerate() {
        probe::hist_record("dist", "message_bytes", plan.plan.bytes(b) as u64);
        let mut pending = Some(WorkerMsg::Grads(GradMsg {
            worker: w,
            step,
            phase,
            bucket: b,
            buckets: checksums.len(),
            payload: Arc::clone(&plan.payload),
            range: plan.plan.range(b),
            layout: Arc::clone(&plan.layout),
            ready_us: ready_us(b),
            loss,
            compute,
            encode,
            checksum,
            nonfinite,
        }));
        let mut attempt = 0u32;
        let sent = loop {
            if !faults.drops_message(w, step, attempt) {
                match pending.take() {
                    Some(msg) => break ctx.env.uplink.send(msg).is_ok(),
                    None => break true,
                }
            }
            probe::counter_add("dist.dropped_messages", 1);
            probe::event(
                "fault",
                "message_dropped",
                vec![
                    ("worker", w.into()),
                    ("step", step.into()),
                    ("bucket", b.into()),
                    ("attempt", attempt.into()),
                ],
            );
            if attempt >= ctx.env.opts.recovery.max_retries {
                break true; // bucket lost for good; the aggregator degrades
            }
            attempt += 1;
            std::thread::sleep(Duration::from_millis(u64::from(attempt)));
        };
        if !sent {
            return false;
        }
    }
    true
}

/// What a worker's forward/backward pass of one step left behind, besides
/// the gradients in its parameters.
struct Computed {
    loss: f32,
    /// Measured compute plus the injected straggler delay.
    compute: Duration,
    delay_us: u64,
}

/// How a round ended for a worker.
enum Verdict {
    /// Decode `mean` and apply the update; `contributing` is whether this
    /// worker's payload was in every phase's mean.
    Apply {
        mean: Arc<Tensor>,
        contributing: bool,
    },
    Skipped,
}

/// A member thread's state: its replica, its optimizer, its half of the
/// compressor and the per-phase plans it reuses every round.
struct Replica<'a, M> {
    ctx: WorkerCtx<'a>,
    model: M,
    opt: Sgd,
    codec: Box<dyn WorkerCodec>,
    phases: Vec<PhasePlan>,
    tracker: ReadyTracker,
    /// `(step, wall-clock of WorkerCodec::decode)` for every applied step.
    decodes: Vec<(usize, Duration)>,
}

/// The worker thread. Never panics: channel failures mean the aggregator is
/// gone (a fatal error elsewhere) and the worker just exits; its own
/// fatal conditions are reported via [`WorkerMsg::Fatal`]. An injected
/// crash exits without a word — the aggregator must *detect* it.
fn run_worker<M: Layer>(mut ctx: WorkerCtx<'_>, mut model: M, codec: Box<dyn WorkerCodec>) {
    let w = ctx.worker;
    let mut opt = Sgd::new(ctx.env.cfg.lr, ctx.env.cfg.momentum, ctx.env.cfg.weight_decay);
    // One way to seed a replica: a joiner from the checkpoint of its
    // admission boundary, everybody else from the run's resume checkpoint.
    if let Some(ck) = ctx.catch_up.as_deref().or(ctx.env.opts.resume.as_ref()) {
        if !load_resume_state(&mut model, &mut opt, ck) {
            let which = if ctx.catch_up.is_some() { "catch-up" } else { "resume" };
            let reason = format!("{which} checkpoint does not match the model");
            report_fatal(&ctx, ctx.entry_step, reason);
            return;
        }
        if ctx.catch_up.is_some() {
            note_membership(EV_CATCH_UP, EV_CATCH_UP, w, ck.step, ck.epoch);
        } else {
            probe::event(
                "dist",
                "checkpoint_resumed",
                vec![("worker", w.into()), ("step", ck.step.into())],
            );
        }
    }
    // Its job done, a joiner's checkpoint does not stay for the rest of the run.
    ctx.catch_up = None;
    // Gradient shapes are fixed for the whole run: derive every phase's
    // payload layout, bucket plan and payload buffer once and reuse them
    // every round.
    let phases: Vec<PhasePlan> = {
        let params = model.params();
        let grad_refs: Vec<&Tensor> = params.iter().map(|p| &p.grad).collect();
        (0..codec.phases())
            .map(|p| {
                let layout = Arc::new(codec.payload_layout(p, &grad_refs));
                let plan = BucketPlan::new(&layout, ctx.env.bucket_bytes);
                let payload = Arc::new(Tensor::zeros(&[layout.total_len()]));
                PhasePlan { layout, plan, payload }
            })
            .collect()
    };
    let Some(first) = phases.first() else {
        report_fatal(&ctx, ctx.entry_step, "codec declares no reduce phase".into());
        return;
    };
    let tracker = ReadyTracker::new(&first.plan);
    Replica { ctx, model, opt, codec, phases, tracker, decodes: Vec::new() }.serve();
}

impl<M: Layer> Replica<'_, M> {
    /// The worker loop: answers the aggregator between rounds and plays the
    /// rounds it broadcasts — compute, round, apply — until told to finish.
    /// `None`: it left early (retired, crashed, failed, or nobody to serve).
    fn serve(mut self) -> Option<()> {
        let w = self.ctx.worker;
        // The round this replica plays next, i.e. the boundary its state
        // describes when the aggregator asks for it.
        let mut next_step = self.ctx.entry_step;
        // This member's shard of the remaining stream, re-extracted only when
        // its (rank, member count) changes — a clean static run extracts once
        // and the steady state stays allocation-free.
        let mut epoch_seen: Option<u64> = None;
        let (mut rank, mut count) = (0usize, 0usize);
        let mut shard_base = self.ctx.entry_step;
        let mut shard: Vec<(Tensor, Vec<usize>)> = Vec::new();
        loop {
            let (step, epoch, members) = match self.ctx.rx.recv() {
                Ok(AggMsg::Step { step, epoch, members }) => (step, epoch, members),
                Ok(AggMsg::Ping) => continue,
                Ok(AggMsg::Report { model }) => {
                    self.send_snapshot(model, next_step);
                    continue;
                }
                Ok(AggMsg::Retire) => {
                    probe::event("dist", "worker_retired", vec![("worker", w.into())]);
                    return None;
                }
                Ok(AggMsg::Finish) => break,
                // A verdict outside a round cannot happen in lockstep; drain it.
                Ok(AggMsg::Reduced { .. } | AggMsg::Skip) => continue,
                Err(_) => return None, // aggregator shut down
            };
            if epoch_seen != Some(epoch) {
                let first = epoch_seen.is_none();
                epoch_seen = Some(epoch);
                let Ok(new_rank) = members.binary_search(&w) else {
                    // The broadcast member set excludes us: retire quietly.
                    return None;
                };
                let new_count = members.len();
                if first || (new_rank, new_count) != (rank, count) {
                    rank = new_rank;
                    count = new_count;
                    shard_base = step;
                    if !first {
                        probe::counter_add("dist.reshards", 1);
                    }
                    shard = match resharded(self.ctx.env.batches, step, rank, count) {
                        Ok(s) => s,
                        Err(e) => {
                            report_fatal(&self.ctx, step, e.to_string());
                            return None;
                        }
                    };
                }
            }
            if self.ctx.env.opts.faults.should_crash_since(w, step, self.ctx.entry_step) {
                probe::event(
                    "fault",
                    "worker_crash",
                    vec![("worker", w.into()), ("step", step.into())],
                );
                return None; // channels drop; the aggregator's probe sees the death
            }
            let Some((images, labels)) = shard.get(step - shard_base) else {
                // A broadcast step outside our extracted shard is a protocol
                // bug; report it instead of panicking mid-round.
                let reason = format!("step {step} outside shard from {shard_base}");
                report_fatal(&self.ctx, step, reason);
                return None;
            };
            let computed = self.compute(step, images, labels)?;
            if let Verdict::Apply { mean, contributing } = self.round(step, &computed)? {
                self.apply(step, mean, contributing)?;
            }
            next_step = step + 1;
        }
        let params: Vec<Tensor> = self.model.params().iter().map(|p| p.value.clone()).collect();
        let buffers = self.model.buffers();
        let codec = self.codec.state_snapshot();
        // Best-effort: the trainer may already be on its way out.
        let report = FinalReport { worker: w, params, buffers, codec, decodes: self.decodes };
        self.ctx.env.uplink.send(WorkerMsg::Final(report)).ok()
    }

    /// Forward and backward over this member's shard of `step`, then the
    /// injected straggler delay and non-finite gradient. `None`: a fatal
    /// error was reported and the worker exits.
    fn compute(&mut self, step: usize, images: &Tensor, labels: &[usize]) -> Option<Computed> {
        let w = self.ctx.worker;
        let faults = &self.ctx.env.opts.faults;
        // The clock starts once this member is admitted and the slot goes
        // back before the straggler's sleep.
        let slot = self.ctx.env.slots.enter();
        let sp = probe::timed_span_with("dist", "worker_compute", || {
            vec![("worker", w.into()), ("step", step.into())]
        });
        let clock = probe::Stopwatch::start();
        self.tracker.start_step();
        self.model.zero_grad();
        let logits = self.model.forward(images, Mode::Train);
        let (loss, dl) = match softmax_cross_entropy(&logits, labels, 0.0) {
            Ok(v) => v,
            Err(e) => {
                report_fatal(&self.ctx, step, e.to_string());
                return None;
            }
        };
        // Backward announces gradient readiness layer by layer (reverse
        // order); the tracker stamps each bucket with the compute offset
        // at which its last gradient finalized — the overlap timeline's
        // inputs.
        let tracker = &mut self.tracker;
        let _ = self.model.backward_with_ready(&dl, &mut |first| {
            tracker.on_ready(first, clock.elapsed().as_micros() as u64);
        });
        tracker.finish(clock.elapsed().as_micros() as u64);
        let measured = sp.finish();
        drop(slot);
        let delay = faults.compute_delay(w, step, measured);
        if delay > Duration::ZERO {
            probe::event(
                "fault",
                "straggler_delay",
                vec![
                    ("worker", w.into()),
                    ("step", step.into()),
                    ("delay_us", (delay.as_micros() as u64).into()),
                ],
            );
            std::thread::sleep(delay);
        }
        // Non-finite injection happens on the gradient itself, before
        // anything is encoded (the worker "really" computed it); bit
        // corruption after checksumming (it happens on the wire, so the
        // checksum catches it).
        for g in grads_of(&mut self.model.params_mut()) {
            if faults.inject_nonfinite(w, step, std::slice::from_mut(g)) {
                break;
            }
        }
        Some(Computed { loss, compute: measured + delay, delay_us: delay.as_micros() as u64 })
    }

    /// The round: encode, ship, and wait for the mean, once per phase. A
    /// worker whose payload missed a mean keeps following the round — it
    /// needs every mean to end on the same parameters — but has nothing more
    /// to contribute to it. `None`: the worker exits (the aggregator is
    /// gone, it was retired, a fatal error was reported, or an injected
    /// mid-round crash fired).
    fn round(&mut self, step: usize, done: &Computed) -> Option<Verdict> {
        let w = self.ctx.worker;
        let faults = &self.ctx.env.opts.faults;
        // Backward announces gradients tensor by tensor; only a one-phase
        // allreduce codec's payload tensors are final the moment their
        // gradients are.
        let gather = self.ctx.env.kind == AggregationKind::AllGather;
        let overlaps = self.phases.len() == 1 && !gather;
        // A gathered message is bit patterns the aggregator cannot test, so
        // the worker checks its own gradient and flags what it sends; there
        // is nothing worth encoding then.
        let nonfinite = gather
            && self.model.params().iter().any(|p| any_nonfinite(std::slice::from_ref(&p.grad)));
        let mut reduced: Option<Arc<Tensor>> = None;
        let mut contributing = true;
        for (p, plan) in self.phases.iter_mut().enumerate() {
            let len = plan.layout.total_len();
            // Held for the encode only: what follows resends and waits.
            let slot = self.ctx.env.slots.enter();
            let clock = probe::Stopwatch::start();
            let Some(payload) = reclaim(&mut plan.payload, len) else {
                report_fatal(&self.ctx, step, "payload buffer is still shared".into());
                return None;
            };
            let prev = reduced.as_deref().map(Tensor::as_slice);
            let encoded = if nonfinite {
                Ok(())
            } else {
                self.codec.encode(
                    p,
                    &mut grads_of(&mut self.model.params_mut()),
                    prev,
                    payload.as_mut_slice(),
                )
            };
            if let Err(e) = encoded {
                report_fatal(&self.ctx, step, format!("encode, phase {p}: {e}"));
                return None;
            }
            // A one-phase codec's payload is the buckets themselves: writing
            // it is part of the window they are produced (and their
            // collectives overlapped) in, so it counts as compute, the way
            // the flat pack always did. Otherwise it is the codec's encode.
            let (compute, encode) = match clock.elapsed() {
                packing if overlaps => (done.compute + packing, Duration::ZERO),
                encoding => (done.compute, encoding),
            };
            drop(slot);
            let compute_us = compute.as_micros() as u64;
            if contributing {
                let checksums: Vec<u64> = (0..plan.plan.buckets())
                    .map(|b| payload.as_slice().get(plan.plan.range(b)).map_or(0, wire_checksum))
                    .collect();
                // One seeded bit flip lands in exactly one bucket's range;
                // that bucket's checksum catches it at the aggregator.
                faults.corrupt_message(w, step, std::slice::from_mut(payload));
                // A straggler's buckets were ready during backward but only
                // reach the wire after the injected sleep: readiness shifts
                // by the delay, capped at the full compute time.
                let ready = self.tracker.ready_us();
                let ready_us = |b: usize| match ready.get(b) {
                    Some(&at) if overlaps => (at + done.delay_us).min(compute_us),
                    _ => compute_us,
                };
                let (ctx, loss) = (&self.ctx, done.loss);
                if !send_phase(
                    ctx, step, p, plan, &checksums, &ready_us, loss, compute, encode, nonfinite,
                ) {
                    return None; // aggregator gone
                }
                if p == 0 && faults.crashes_mid_round(w, step) {
                    probe::event(
                        "fault",
                        "worker_crash",
                        vec![("worker", w.into()), ("step", step.into()), ("phase", p.into())],
                    );
                    return None;
                }
            }
            match await_verdict(&self.ctx.rx, w)? {
                AggMsg::Reduced { payload, contributed } => {
                    contributing &= contributed;
                    reduced = Some(payload);
                }
                _ => {
                    self.codec.abort();
                    return Some(Verdict::Skipped);
                }
            }
        }
        reduced.map(|mean| Verdict::Apply { mean, contributing })
    }

    /// Decodes the round's mean into the gradients and takes the optimizer
    /// step. `None`: a fatal error was reported and the worker exits.
    fn apply(&mut self, step: usize, mean: Arc<Tensor>, contributing: bool) -> Option<()> {
        let w = self.ctx.worker;
        let _slot = self.ctx.env.slots.enter();
        let ap = probe::timed_span_with("dist", "apply", || {
            vec![("worker", w.into()), ("step", step.into())]
        });
        let clock = probe::Stopwatch::start();
        let decoded = self.codec.decode(
            mean.as_slice(),
            &mut grads_of(&mut self.model.params_mut()),
            contributing,
        );
        if let Err(e) = decoded {
            report_fatal(&self.ctx, step, format!("decode: {e}"));
            return None;
        }
        self.decodes.push((step, clock.elapsed()));
        // The mean goes back to the aggregator's buffer pool before the
        // optimizer runs: by its next round nobody else holds it.
        drop(mean);
        self.opt.step(&mut self.model.params_mut());
        let _ = ap.finish();
        Some(())
    }

    /// Reports replica state to the aggregator for checkpointing and joiner
    /// catch-up: the codec's share of the compressor state and, from the
    /// snapshot leader (`with_model`), parameters + momentum + buffers.
    fn send_snapshot(&self, with_model: bool, next_step: usize) {
        let model = with_model.then(|| ModelState {
            params: self.model.params().iter().map(|p| p.value.clone()).collect(),
            velocity: self.opt.velocity().to_vec(),
            buffers: self.model.buffers(),
        });
        let codec = self.codec.state_snapshot();
        let snapshot = Snapshot { worker: self.ctx.worker, next_step, model, codec };
        // Best-effort: a closed uplink just means the aggregator is shutting
        // down.
        self.ctx.env.uplink.send(WorkerMsg::Snapshot(snapshot)).ok();
    }
}

/// Extracts one member's shard of every batch from `from` on, for its
/// rank within a `count`-member set.
#[expect(
    clippy::indexing_slicing,
    reason = "`from` is clamped to len; the worst case is an empty slice"
)]
fn resharded(
    batches: &[(Tensor, Vec<usize>)],
    from: usize,
    rank: usize,
    count: usize,
) -> DistResult<Vec<(Tensor, Vec<usize>)>> {
    batches[from.min(batches.len())..].iter().map(|b| shard_batch(b, rank, count)).collect()
}

/// Loads checkpointed parameters, buffers, and optimizer momentum into a
/// freshly built replica. Returns `false` on any shape/count mismatch.
fn load_resume_state<M: Layer>(model: &mut M, opt: &mut Sgd, ck: &DistCheckpoint) -> bool {
    {
        let mut params = model.params_mut();
        if params.len() != ck.params.len() {
            return false;
        }
        for (p, c) in params.iter_mut().zip(&ck.params) {
            if p.value.shape() != c.shape() {
                return false;
            }
            p.value = c.clone();
        }
    }
    if model.buffers().len() != ck.buffers.len() {
        return false;
    }
    if !ck.buffers.is_empty() {
        model.load_buffers(&ck.buffers);
    }
    if !ck.velocity.is_empty() && ck.velocity.len() != ck.params.len() {
        return false;
    }
    opt.set_velocity(ck.velocity.clone());
    true
}

/// The books of a run so far: what the caller turns into a [`DistOutcome`]
/// once every member is joined.
#[derive(Default)]
struct Books {
    /// Every phase of every round but the decodes, which the caller books
    /// once the workers have reported theirs.
    acc: BreakdownAccumulator,
    /// One per reduce phase. The broadcast buffers are handed out of the
    /// aggregator with the rest so that they outlive the workers: whoever
    /// drops the last handle to a mean gets its storage, and that has to be
    /// the thread that allocated it.
    slots: Vec<PhaseSlot>,
    step_losses: Vec<f32>,
    checkpoints: Vec<PathBuf>,
}

/// One reduce phase as the aggregator sees it. The reducer is created from
/// the first contribution's layout and reused, buffers and all, for every
/// later round; `mean` is the buffer the reduced payload is broadcast in,
/// written again once every worker has dropped its handle.
struct PhaseSlot {
    reducer: Option<BucketedReducer>,
    layout: Option<Arc<PackLayout>>,
    mean: Arc<Tensor>,
}

impl PhaseSlot {
    /// Combines what `contributors` delivered into `mean`, the way a
    /// collective of `kind` does: the pinned-order mean of their payloads,
    /// or their messages end to end in worker-id order. AMP-style guard: a
    /// poisoned gradient — a non-finite mean, or a gathered message its
    /// sender `flagged` — or a phase with no usable contribution combines to
    /// nothing — `false` — and the step is skipped on every replica.
    fn reduce(&mut self, contributors: &[usize], kind: AggregationKind, flagged: bool) -> bool {
        let reduced = match self.reducer.as_mut() {
            Some(red) if !contributors.is_empty() && !flagged => match kind {
                AggregationKind::AllReduce => Some(red.finalize(contributors))
                    .filter(|mean| !any_nonfinite(std::slice::from_ref(*mean)))
                    .and_then(|mean| {
                        let out = reclaim(&mut self.mean, mean.len())?;
                        out.as_mut_slice().copy_from_slice(mean.as_slice());
                        Some(())
                    }),
                AggregationKind::AllGather => {
                    let parts: Vec<&Tensor> =
                        contributors.iter().filter_map(|x| red.assembled(*x)).collect();
                    reclaim(&mut self.mean, parts.iter().map(|t| t.len()).sum())
                        .map(|out| pack_into(parts, out.as_mut_slice()))
                }
            },
            _ => None,
        };
        if reduced.is_none() {
            if let Some(r) = self.reducer.as_mut() {
                r.mark_dirty();
            }
        }
        reduced.is_some()
    }
}

/// What the phases of one round add up to: the inputs of its pricing and of
/// its `dist_step` row.
#[derive(Default)]
struct RoundTally {
    /// The slowest contributor's compute (phase 0).
    slowest: Duration,
    /// Mean loss over the phase-0 contributors; `NaN` if there were none.
    loss_mean: f32,
    /// The slowest contributor's encode, summed over the phases.
    encode: Duration,
    /// Per bucket of phase 0, when the slowest contributor had it ready.
    ready_us: Vec<u64>,
    /// Who delivered the latest phase intact, ascending.
    contributors: Vec<usize>,
    /// One of them flagged its gradient as non-finite.
    nonfinite: bool,
}

impl RoundTally {
    fn absorb(&mut self, phase: usize, got: &BTreeMap<usize, Contribution>) {
        self.contributors = got.keys().copied().collect();
        self.nonfinite = got.values().any(|c| c.nonfinite);
        if phase == 0 {
            self.slowest = got.values().map(|c| c.compute).max().unwrap_or_default();
            if !got.is_empty() {
                #[expect(clippy::float_arithmetic, reason = "the reported loss, not a gradient")]
                let mean = got.values().map(|c| c.loss).sum::<f32>() / got.len() as f32;
                self.loss_mean = mean;
            }
            let buckets = got.values().map(|c| c.ready_us.len()).max().unwrap_or(0);
            self.ready_us = (0..buckets)
                .map(|b| got.values().filter_map(|c| c.ready_us.get(b).copied()).max().unwrap_or(0))
                .collect();
        }
        self.encode += got.values().map(|c| c.encode).max().unwrap_or_default();
    }
}

/// The aggregator: the fleet it drives, what it takes to spawn a member
/// mid-run, and the books of the run so far. Between two rounds it runs
/// [`Aggregator::boundary`] — the one place where it talks to idle members
/// — and [`Aggregator::play_round`] runs a round phase by phase: collect
/// with timeout/retry and crash detection, reduce over whoever delivered,
/// broadcast the mean, price the round for the live member set.
struct Aggregator<'scope, 'env, F> {
    env: &'env RunEnv<'env>,
    factory: &'env F,
    scope: &'scope Scope<'scope, 'env>,
    /// Every member thread ever spawned; the caller joins them all.
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
    from_workers: &'env Receiver<WorkerMsg>,
    compressor: &'env mut dyn GradCompressor,
    pool_guard: &'env mut PoolWidthGuard,
    start_step: usize,
    steps: usize,
    /// Resolved pricing collective (option, else ring).
    collective: CollectiveAlgo,
    fleet: Fleet,
    /// `(worker, scheduled step)` of every join request already granted.
    admitted: BTreeSet<(usize, usize)>,
    /// The member view of the latest `Step` broadcast, and its epoch.
    members_arc: Arc<Vec<usize>>,
    broadcast_epoch: u64,
    books: Books,
}

impl<'scope, 'env, M, F> Aggregator<'scope, 'env, F>
where
    M: Layer + Send,
    F: Fn(usize) -> M + Sync,
{
    /// Spawns the initial fleet, then runs a boundary before every round and
    /// one after the last, and tells the survivors to report.
    fn run(&mut self) -> DistResult<()> {
        // Every member runs the same kind of codec, so any of them tells how
        // many phases a round has.
        let mut n_phases = 1;
        for w in self.fleet.membership.active() {
            let codec = self.compressor.worker_codec(w);
            n_phases = codec.phases();
            self.spawn_member(w, self.start_step, None, codec);
        }
        self.books.slots = (0..n_phases)
            .map(|_| PhaseSlot { reducer: None, layout: None, mean: Arc::new(Tensor::default()) })
            .collect();
        self.books.step_losses.reserve(self.steps.saturating_sub(self.start_step));
        for step in self.start_step..=self.steps {
            self.boundary(step)?;
            if step < self.steps {
                self.play_round(step)?;
            }
        }
        // ---- Finish: survivors report their final parameters. ----
        self.fleet.broadcast(self.steps, |_| AggMsg::Finish);
        self.fleet.report.survivors = self.fleet.membership.active_count();
        Ok(())
    }

    /// Spawns one member thread (initial worker or mid-run joiner) and
    /// registers its command channel.
    fn spawn_member(
        &mut self,
        worker: usize,
        entry_step: usize,
        catch_up: Option<Arc<DistCheckpoint>>,
        codec: Box<dyn WorkerCodec>,
    ) {
        let (tx, rx) = channel();
        self.fleet.senders.insert(worker, tx);
        let (env, factory) = (self.env, self.factory);
        self.handles.push(self.scope.spawn(move || {
            let ctx = WorkerCtx { env, worker, entry_step, rx, catch_up };
            run_worker(ctx, factory(worker), codec);
        }));
    }

    /// The boundary before round `step` (after the last round for
    /// `step == steps`), while every member is idle: replica state is asked
    /// for where a periodic checkpoint or a waiting join needs it and
    /// collected, then leavers are retired, joiners admitted, and the
    /// checkpoint — which so records the post-transition member set — is cut
    /// for the PUFT file and for the joiners to catch up from.
    fn boundary(&mut self, step: usize) -> DistResult<()> {
        let opts = self.env.opts;
        // The end of the run retires and admits nobody.
        let in_run = step < self.steps;
        let pending: Vec<(usize, usize)> = opts
            .membership
            .joins_through(step)
            .filter(|key| in_run && !self.admitted.contains(key))
            .collect();
        // There is no state to be had before the run's first round.
        let after_a_round = step > self.start_step;
        let want_ckpt = after_a_round
            && opts.checkpoint.is_enabled()
            && step.is_multiple_of(opts.checkpoint.every);
        let mut state = None;
        if want_ckpt || (after_a_round && !pending.is_empty()) {
            // The lowest-indexed member with a channel doubles as snapshot
            // leader; the others report their codec's state. All of them are
            // asked before this boundary's leavers go: a leaver's codec rows
            // are in the union.
            let leader = self.fleet.senders.keys().next().copied();
            let mut asked: BTreeSet<usize> = self.fleet.senders.keys().copied().collect();
            asked.retain(|&x| self.fleet.deliver(x, AggMsg::Report { model: Some(x) == leader }));
            state = self.collect_state(step, asked, want_ckpt)?;
        }
        if in_run {
            self.retire_leavers(step)?;
        }
        self.admit_joiners(step, &pending, state.is_some())?;
        let Some(state) = state else { return Ok(()) };
        let ck = checkpoint_of(step, state, &*self.compressor, &self.fleet.membership);
        if want_ckpt {
            if let Some(path) = opts.checkpoint.path_for(step) {
                ck.save(&path)?;
                probe::counter_add("dist.checkpoint_writes", 1);
                probe::event("dist", "checkpoint_written", vec![("step", step.into())]);
                self.books.checkpoints.push(path);
            }
        }
        let ck = Arc::new(ck);
        for &(wk, _) in &pending {
            // A joiner's codec starts from the shared state the boundary
            // gathered and no memory of its own.
            let codec = self.compressor.worker_codec(wk);
            self.spawn_member(wk, step, Some(Arc::clone(&ck)), codec);
        }
        Ok(())
    }

    /// Retires the members scheduled to leave at `step`.
    fn retire_leavers(&mut self, step: usize) -> DistResult<()> {
        let leavers: Vec<usize> = self.env.opts.membership.leaves_at(step).collect();
        for wk in leavers {
            if !self.fleet.membership.is_active(wk) {
                continue; // departed earlier (e.g. crashed); nothing to retire
            }
            let ok = self.fleet.deliver(wk, AggMsg::Retire);
            self.fleet.senders.remove(&wk);
            if ok {
                self.fleet.membership.leave(wk, step)?;
                note_member_event(self.fleet.membership.log().last());
            } else {
                self.fleet.mark_crashed(wk, step);
            }
        }
        Ok(())
    }

    /// Admits the `pending` join requests if this boundary's state arrived
    /// (`have_state`); otherwise — the leader's report did not come — they
    /// stay pending and are retried at the next boundary.
    fn admit_joiners(
        &mut self,
        step: usize,
        pending: &[(usize, usize)],
        have_state: bool,
    ) -> DistResult<()> {
        if !have_state {
            if !pending.is_empty() {
                probe::counter_add("dist.join_deferrals", pending.len() as u64);
            }
            return Ok(());
        }
        for &(wk, sched) in pending {
            if self.fleet.membership.is_active(wk) {
                return Err(DistError::Membership {
                    reason: format!(
                        "worker {wk} is scheduled to join at step {sched} but is already \
                         an active member"
                    ),
                });
            }
            self.fleet.membership.join(wk, step)?;
            note_member_event(self.fleet.membership.log().last());
            self.admitted.insert((wk, sched));
        }
        Ok(())
    }

    /// Collects the answers to boundary `step`'s [`AggMsg::Report`]s: the
    /// leader's replica state and every member's share of the compressor
    /// state, which is merged back into the compressor so a checkpoint (or
    /// a joiner's codec) can be cut from it.
    /// A report that does not come is probed for like a missing gradient. A
    /// missed leader report when a periodic checkpoint is due (`want_ckpt`)
    /// is a recorded checkpoint failure; joins waiting on it are simply
    /// deferred.
    fn collect_state(
        &mut self,
        step: usize,
        mut asked: BTreeSet<usize>,
        want_ckpt: bool,
    ) -> DistResult<Option<ModelState>> {
        let recovery = &self.env.opts.recovery;
        // The wait is nobody's round: it gets a span of its own.
        let sp = probe::timed_span_with("dist", "boundary_state", || {
            vec![("boundary", step.into()), ("asked", asked.len().into())]
        });
        let mut model: Option<ModelState> = None;
        let mut codec_state: Vec<(String, Tensor)> = Vec::new();
        let mut retries = 0u32;
        while !asked.is_empty() && retries <= recovery.max_retries {
            match self.from_workers.recv_timeout(recovery.step_timeout) {
                Ok(WorkerMsg::Snapshot(s)) if s.next_step == step && asked.remove(&s.worker) => {
                    model = model.or(s.model);
                    merge_codec_states(&mut codec_state, s.codec);
                }
                // A report for a boundary long gone.
                Ok(WorkerMsg::Snapshot(_) | WorkerMsg::Final(_)) => {}
                Ok(WorkerMsg::Grads(m)) => self.fleet.discard_stale(&m, step),
                Ok(WorkerMsg::Fatal { worker, reason }) => {
                    return Err(DistError::WorkerFailed { worker, reason });
                }
                Err(RecvTimeoutError::Timeout) => {
                    retries += 1;
                    asked.retain(|&x| self.fleet.deliver(x, AggMsg::Ping));
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let _ = sp.finish();
        let restored = self.compressor.restore_state(&codec_state);
        let state = model.filter(|_| restored);
        if state.is_none() && want_ckpt {
            self.fleet.report.checkpoint_failures += 1;
            probe::counter_add("dist.checkpoint_failures", 1);
            probe::event("fault", "checkpoint_failed", vec![("step", step.into())]);
        }
        Ok(state)
    }

    /// Collects one phase's contributions from `expected`, one bucket message
    /// at a time. A bucket is spliced into its sender's reducer slot on
    /// arrival, and where payloads are combined by their mean any bucket
    /// every expected member has delivered is reduced at once — the
    /// reduction work tracks the message stream instead of waiting for the
    /// slowest sender's last bucket. The apply order stays pinned regardless (see
    /// [`BucketedReducer`]).
    ///
    /// Slow members get `recovery.step_timeout` with bounded retry/backoff;
    /// silent ones are probed and, if their channel is dead, marked crashed;
    /// a bucket failing its checksum rejects its sender's whole contribution
    /// once. Returns the members that delivered every bucket intact, in
    /// worker-id order (the pinned reduction order).
    fn collect_phase(
        &mut self,
        step: usize,
        phase: usize,
        mut expected: BTreeSet<usize>,
    ) -> DistResult<BTreeMap<usize, Contribution>> {
        let Self { env, from_workers, fleet, books: Books { slots, .. }, .. } = self;
        let recovery = &env.opts.recovery;
        let eager = env.kind == AggregationKind::AllReduce;
        let mut got: BTreeMap<usize, Contribution> = BTreeMap::new();
        let Some(slot) = slots.get_mut(phase) else { return Ok(got) };
        // The reducer wants the expected members as a slice; kept beside the
        // set so that a steady round allocates nothing per bucket.
        let mut expected_vec: Vec<usize> = expected.iter().copied().collect();
        let mut done: BTreeSet<usize> = BTreeSet::new();
        if let Some(r) = slot.reducer.as_mut() {
            r.start_round();
        }
        let mut timeout = recovery.step_timeout;
        let mut retries = 0u32;
        while done.len() < expected.len() {
            match from_workers.recv_timeout(timeout) {
                Ok(WorkerMsg::Fatal { worker, reason }) => {
                    return Err(DistError::WorkerFailed { worker, reason });
                }
                // A report for a boundary long gone.
                Ok(WorkerMsg::Snapshot(_) | WorkerMsg::Final(_)) => {}
                Ok(WorkerMsg::Grads(m)) => {
                    if m.step != step || m.phase != phase || !expected.contains(&m.worker) {
                        fleet.discard_stale(&m, step);
                        continue;
                    }
                    // The run's first contribution to a phase fixes its bucket
                    // plan (every worker derives the identical layout).
                    let red = slot.reducer.get_or_insert_with(|| {
                        let plan = BucketPlan::new(&m.layout, env.bucket_bytes);
                        let mut r = BucketedReducer::new(plan);
                        r.start_round();
                        r
                    });
                    slot.layout.get_or_insert_with(|| Arc::clone(&m.layout));
                    let data = m.payload.as_slice().get(m.range.clone());
                    let intact = m.buckets == red.plan().buckets()
                        && data.is_some_and(|d| wire_checksum(d) == m.checksum);
                    let Some(data) = data.filter(|_| intact) else {
                        // Bit corruption on the wire (or a protocol mismatch):
                        // the first bad bucket rejects the whole contribution
                        // once; the worker stays live.
                        fleet.report.corrupted_messages += 1;
                        probe::counter_add("dist.corrupted_messages", 1);
                        probe::event(
                            "fault",
                            "message_corrupted",
                            vec![
                                ("worker", m.worker.into()),
                                ("step", step.into()),
                                ("bucket", m.bucket.into()),
                            ],
                        );
                        expected.remove(&m.worker);
                        expected_vec.retain(|&x| x != m.worker);
                        done.remove(&m.worker);
                        got.remove(&m.worker);
                        continue;
                    };
                    if !red.accept(m.worker, m.bucket, data) {
                        fleet.count_stale(); // duplicate bucket delivery
                        continue;
                    }
                    let c = got.entry(m.worker).or_insert_with(|| Contribution {
                        loss: m.loss,
                        compute: m.compute,
                        encode: m.encode,
                        ready_us: vec![0; m.buckets],
                        nonfinite: m.nonfinite,
                    });
                    if let Some(at) = c.ready_us.get_mut(m.bucket) {
                        *at = m.ready_us;
                    }
                    if red.complete(m.worker) {
                        done.insert(m.worker);
                    }
                    if eager {
                        red.try_reduce(&expected_vec);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Probe the missing members: a crashed worker dropped
                    // its receiver, so the probe send fails.
                    let missing: Vec<usize> =
                        expected.iter().copied().filter(|x| !done.contains(x)).collect();
                    for x in missing {
                        if !fleet.deliver(x, AggMsg::Ping) {
                            expected.remove(&x);
                            expected_vec.retain(|&y| y != x);
                            got.remove(&x);
                            fleet.mark_crashed(x, step);
                        }
                    }
                    if fleet.membership.active_count() == 0 {
                        return Err(DistError::AllWorkersDead { step });
                    }
                    if done.len() >= expected.len() {
                        break; // crashes explained every missing member
                    }
                    retries += 1;
                    probe::counter_add("dist.retries", 1);
                    if retries > recovery.max_retries {
                        let lost = expected.len() - done.len();
                        fleet.report.lost_contributions += lost;
                        probe::counter_add("dist.lost_contributions", lost as u64);
                        probe::event(
                            "fault",
                            "contribution_lost",
                            vec![("step", step.into()), ("lost", lost.into())],
                        );
                        break; // degrade: proceed with what arrived
                    }
                    #[expect(
                        clippy::float_arithmetic,
                        reason = "the retry backoff, not a gradient"
                    )]
                    let secs = timeout.as_secs_f64() * recovery.backoff;
                    timeout = Duration::from_secs_f64(secs);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DistError::AllWorkersDead { step });
                }
            }
        }
        if fleet.membership.active_count() == 0 {
            return Err(DistError::AllWorkersDead { step });
        }
        got.retain(|x, _| done.contains(x) && expected.contains(x));
        Ok(got)
    }

    /// Plays round `step`: syncs the members' view of the fleet, broadcasts
    /// the `Step`, and runs the phases — whoever delivered a phase intact is
    /// whom the next phase waits for; everybody with a channel gets every
    /// verdict.
    fn play_round(&mut self, step: usize) -> DistResult<()> {
        // ---- Epoch sync: refresh the broadcast member view and re-price
        // the tensor-pool width for the current member count. ----
        if self.fleet.membership.epoch() != self.broadcast_epoch {
            self.broadcast_epoch = self.fleet.membership.epoch();
            self.members_arc = Arc::new(self.fleet.membership.active());
            self.pool_guard.recap(self.fleet.membership.active_count());
        }
        let (epoch, members) = (self.broadcast_epoch, Arc::clone(&self.members_arc));
        let round_sp = probe::timed_span_with("dist", "round", || {
            vec![("step", step.into()), ("epoch", epoch.into()), ("live", members.len().into())]
        });

        // ---- Begin the round: a crashed member fails the send. ----
        for &x in members.iter() {
            let msg = AggMsg::Step { step, epoch, members: Arc::clone(&members) };
            if !self.fleet.deliver(x, msg) {
                self.fleet.mark_crashed(x, step);
            }
        }
        if self.fleet.membership.active_count() == 0 {
            return Err(DistError::AllWorkersDead { step });
        }

        let mut expected: BTreeSet<usize> = self.fleet.membership.active().into_iter().collect();
        let mut round = RoundTally { loss_mean: f32::NAN, ..RoundTally::default() };
        let mut applied = true;
        for phase in 0..self.books.slots.len() {
            let got = self.collect_phase(step, phase, expected)?;
            round.absorb(phase, &got);
            let Some(slot) = self.books.slots.get_mut(phase) else { break };
            let contributors = &round.contributors;
            if !slot.reduce(contributors, self.env.kind, round.nonfinite) {
                // The unchanged state is still valid: the next boundary may
                // ask for it all the same.
                self.fleet.broadcast(step, |_| AggMsg::Skip);
                applied = false;
                break;
            }
            let mean = &slot.mean;
            probe::hist_record("dist", "broadcast_bytes", (mean.len() * 4) as u64);
            self.fleet.broadcast(step, |x| AggMsg::Reduced {
                payload: Arc::clone(mean),
                contributed: contributors.binary_search(&x).is_ok(),
            });
            expected = contributors.iter().copied().collect();
        }
        self.book_round(step, &round, applied)?;
        round_sp.finish();
        Ok(())
    }

    /// The epilogue of every round, applied or skipped: books it in the
    /// breakdown, records its loss and writes its `dist_step` row.
    fn book_round(&mut self, step: usize, round: &RoundTally, applied: bool) -> DistResult<()> {
        let n_contributors = round.contributors.len();
        let live = self.fleet.membership.active_count();
        let outcome = if applied {
            ("bytes", self.price_round(step, round)?.encoded_bytes.into())
        } else {
            self.fleet.report.skipped_steps.push(step);
            probe::event(
                "fault",
                "step_skipped",
                vec![("step", step.into()), ("contributors", n_contributors.into())],
            );
            self.books.acc.record_skipped(step, round.slowest);
            ("skipped", 1usize.into())
        };
        self.books.step_losses.push(round.loss_mean);
        probe::metrics_row(
            "dist_step",
            &[
                ("step", step.into()),
                ("loss", round.loss_mean.into()),
                ("contributors", n_contributors.into()),
                ("live", live.into()),
                outcome,
            ],
        );
        Ok(())
    }

    /// Prices an applied round for the member set actually live and books
    /// it; returns what it moved.
    fn price_round(&mut self, step: usize, round: &RoundTally) -> DistResult<RoundStats> {
        let opts = self.env.opts;
        let live_vec: Vec<usize> = self.fleet.membership.active();
        let (profile, jitter) = match &opts.hetero {
            Some(h) => (h.effective(&live_vec)?, h.jitter_factor(step as u64)),
            None => (ClusterProfile { nodes: live_vec.len(), ..self.env.cfg.profile }, 1.0),
        };
        let n_contributors = round.contributors.len();
        let kind = self.env.kind;
        let bytes = self
            .books
            .slots
            .iter()
            .filter_map(|s| s.layout.as_ref())
            .map(|l| l.total_bytes())
            .sum();
        // The decode is whatever the slowest worker reports when the run ends.
        let stats = RoundStats::new(bytes, n_contributors, kind, round.encode, Duration::ZERO);
        match self.books.slots.first().and_then(|s| s.reducer.as_ref()) {
            Some(red) if kind == AggregationKind::AllReduce && self.books.slots.len() == 1 => {
                // One linear phase over the gradient itself: each bucket's
                // collective is priced with the selected algorithm and laid
                // on a modeled timeline that starts when the slowest
                // contributor produced that bucket's gradients — the comm
                // time hidden under still-running backward is the round's
                // *overlapped* share, the remainder is exposed.
                let algo = self.collective;
                let price = |bytes| profile.allreduce_with(algo, bytes).mul_f64(jitter);
                let bucket_comms = overlap_timeline(
                    red.plan(),
                    &round.ready_us,
                    round.slowest,
                    n_contributors,
                    price,
                );
                let group = match algo {
                    CollectiveAlgo::Hierarchical { group } => {
                        Some(hier_group(profile.nodes, group))
                    }
                    _ => None,
                };
                self.books.acc.record_overlapped(
                    step,
                    algo.span_name(),
                    group,
                    profile.nodes,
                    &bucket_comms,
                    round.slowest,
                    &stats,
                );
            }
            _ => {
                // Payloads that exist only once backward is over (a
                // multi-phase codec's, or an allgather method's message):
                // one collective of the method's kind over the round's
                // bytes, all of it exposed.
                let comm = round_comm_time(&profile, kind, &stats).mul_f64(jitter);
                self.books.acc.record_with_comm(
                    step,
                    kind,
                    profile.nodes,
                    comm,
                    round.slowest,
                    &stats,
                );
            }
        }
        Ok(stats)
    }
}

/// The checkpoint of boundary `step`: the leader's replica state, the
/// compressor's (what the boundary gathered from the members' codecs) and
/// the member set as of now.
fn checkpoint_of(
    step: usize,
    state: ModelState,
    compressor: &dyn GradCompressor,
    membership: &Membership,
) -> DistCheckpoint {
    DistCheckpoint {
        step,
        params: state.params,
        velocity: state.velocity,
        buffers: state.buffers,
        compressor: compressor.state_snapshot(),
        members: membership.active(),
        epoch: membership.epoch(),
    }
}

/// Extracts member `w`'s rows of a global batch (rows split evenly across
/// `workers` members; remainder rows dropped). Delegates the row
/// arithmetic to [`puffer_data::shard`], the crate-neutral re-sharding
/// helper the elastic trainer also uses mid-run.
///
/// # Errors
///
/// Returns [`DistError::BatchTooSmall`] if the batch has fewer rows than
/// members and [`DistError::Shard`] on shape arithmetic failures.
pub fn shard_batch(
    batch: &(Tensor, Vec<usize>),
    w: usize,
    workers: usize,
) -> DistResult<(Tensor, Vec<usize>)> {
    if workers == 0 {
        return Err(DistError::InvalidConfig { reason: "workers must be at least 1".into() });
    }
    let (images, labels) = batch;
    puffer_data::shard::shard_rows(images, labels, w, workers).map_err(|e| match e {
        puffer_data::shard::ShardError::EmptyShard { rows, members } => {
            DistError::BatchTooSmall { rows, workers: members }
        }
        other => DistError::Shard { reason: other.to_string() },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_compress::none::NoCompression;
    use puffer_compress::powersgd::PowerSgd;
    use puffer_compress::quant::BinaryQuant;
    use puffer_compress::signum::Signum;
    use puffer_nn::activation::Relu;
    use puffer_nn::linear::Linear;
    use puffer_nn::Sequential;

    fn mlp(seed_base: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(6, 16, true, seed_base).unwrap()),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 3, true, seed_base + 1).unwrap()),
        ])
    }

    fn synthetic_batches(n_batches: usize, batch: usize) -> Vec<(Tensor, Vec<usize>)> {
        (0..n_batches)
            .map(|b| {
                let x = Tensor::randn(&[batch, 6], 1.0, 100 + b as u64);
                let labels = (0..batch).map(|i| (i + b) % 3).collect();
                (x, labels)
            })
            .collect()
    }

    #[test]
    fn two_workers_match_single_process_sgd() {
        // With an exact-mean compressor and equal shards, data-parallel SGD
        // equals full-batch single-process SGD step for step.
        let batches = synthetic_batches(5, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(2),
        };
        let mut comp = NoCompression::new();
        let out = train_data_parallel(|_| mlp(1), &batches, &mut comp, &cfg).unwrap();
        assert!(out.faults.is_clean(), "clean run must report no faults: {:?}", out.faults);
        assert_eq!(out.faults.survivors, 2);
        assert!(out.membership.is_empty(), "static run must log no transitions");
        assert_eq!(out.final_epoch, 0);

        // Reference: single process on the full batches.
        let mut model = mlp(1);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        for (x, labels) in &batches {
            model.zero_grad();
            let logits = model.forward(x, Mode::Train);
            let (_, dl) = softmax_cross_entropy(&logits, labels, 0.0).unwrap();
            let _ = model.backward(&dl);
            opt.step(&mut model.params_mut());
        }
        for (dist_p, ref_p) in out.final_params.iter().zip(model.params()) {
            let err = puffer_tensor::stats::rel_error(&ref_p.value, dist_p);
            assert!(err < 1e-4, "divergence {err}");
        }
    }

    #[test]
    fn replicas_stay_synchronized() {
        // Worker count > 2, several steps: all replicas' final params equal
        // (we check worker 0 against a rerun with permuted worker ids by
        // reusing deterministic seeds).
        let batches = synthetic_batches(4, 8);
        let cfg = DistConfig {
            workers: 4,
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(4),
        };
        let mut comp = NoCompression::new();
        let a = train_data_parallel(|_| mlp(3), &batches, &mut comp, &cfg).unwrap();
        let mut comp = NoCompression::new();
        let b = train_data_parallel(|_| mlp(3), &batches, &mut comp, &cfg).unwrap();
        assert_eq!(a.final_params, b.final_params, "run must be deterministic");
        assert_eq!(a.step_losses.len(), 4);
    }

    #[test]
    fn bucketed_runs_are_bitwise_identical_to_one_flat_bucket() {
        // The bucketed overlap path must change *scheduling only*: final
        // parameters are bitwise identical to the one-flat-bucket run at
        // any bucket size and under any collective algorithm (the algo
        // changes pricing, never arithmetic).
        let batches = synthetic_batches(4, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            profile: ClusterProfile::p3_like(2),
        };
        let run = |bucket_bytes: usize, collective: CollectiveAlgo| {
            let opts = RunOptions {
                bucket_bytes: Some(bucket_bytes),
                collective: Some(collective),
                ..Default::default()
            };
            let mut comp = NoCompression::new();
            train_data_parallel_with(|_| mlp(11), &batches, &mut comp, &cfg, &opts).unwrap()
        };
        let flat = run(usize::MAX, CollectiveAlgo::Ring);
        // The MLP has 227 params (908 bytes): 256-byte buckets split every
        // layer, 4 KiB collapses back to a single bucket.
        for bytes in [256usize, 4096] {
            for algo in [
                CollectiveAlgo::Ring,
                CollectiveAlgo::Tree,
                CollectiveAlgo::Hierarchical { group: 0 },
            ] {
                let out = run(bytes, algo);
                assert_eq!(
                    out.final_params, flat.final_params,
                    "bucket_bytes={bytes} algo={algo:?} must be bitwise identical"
                );
                assert!(out.faults.is_clean(), "{:?}", out.faults);
                assert!(out.breakdown.comm > Duration::ZERO);
                assert!(
                    out.breakdown.comm_exposed <= out.breakdown.comm,
                    "exposed comm is a subset of total comm"
                );
            }
        }
    }

    #[test]
    fn bucket_size_never_changes_what_a_codec_computes() {
        // PowerSGD's P and Q payloads are bucketed like any other payload,
        // and so are the messages of the allgather codecs (Signum's sign
        // words, the quantizer's levels and bit words): at any bucket size
        // the results match the one-bucket run bitwise.
        let batches = synthetic_batches(3, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            profile: ClusterProfile::p3_like(2),
        };
        let compressors: [fn() -> Box<dyn GradCompressor>; 3] = [
            || Box::new(PowerSgd::new(2, 9)),
            || Box::new(Signum::new(0.9)),
            || Box::new(BinaryQuant::new(5)),
        ];
        for make in compressors {
            let run = |bytes: usize| {
                let opts = RunOptions { bucket_bytes: Some(bytes), ..Default::default() };
                let mut comp = make();
                train_data_parallel_with(|_| mlp(13), &batches, comp.as_mut(), &cfg, &opts).unwrap()
            };
            let flat = run(usize::MAX);
            let bucketed = run(64);
            assert_eq!(flat.final_params, bucketed.final_params);
            // None of these payloads exists before backward is over: every
            // comm nanosecond is exposed.
            assert_eq!(bucketed.breakdown.comm, bucketed.breakdown.comm_exposed);
            assert!(bucketed.breakdown.encode > Duration::ZERO);
            assert!(bucketed.breakdown.decode > Duration::ZERO);
        }
    }

    #[test]
    fn bucket_options_resolve_and_zero_is_rejected() {
        let opts = RunOptions { bucket_bytes: Some(0), ..Default::default() };
        assert!(matches!(opts.resolve_bucket_bytes(), Err(DistError::InvalidConfig { .. })));

        let opts = RunOptions { bucket_bytes: Some(1 << 20), ..Default::default() };
        assert_eq!(opts.resolve_bucket_bytes().unwrap(), 1 << 20);

        // Default: one flat bucket.
        assert_eq!(RunOptions::default().resolve_bucket_bytes().unwrap(), usize::MAX);

        // The full entry point surfaces the zero-bucket error too.
        let batches = synthetic_batches(1, 4);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(2),
        };
        let opts = RunOptions { bucket_bytes: Some(0), ..Default::default() };
        let mut comp = NoCompression::new();
        let err =
            train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &cfg, &opts).unwrap_err();
        assert!(matches!(err, DistError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn powersgd_rounds_run_and_losses_decrease() {
        let batches = synthetic_batches(30, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            profile: ClusterProfile::p3_like(2),
        };
        let mut comp = PowerSgd::new(2, 9);
        let out = train_data_parallel(|_| mlp(5), &batches, &mut comp, &cfg).unwrap();
        let early: f32 = out.step_losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = out.step_losses[25..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "PowerSGD training diverged: {early} -> {late}");
        assert!(out.breakdown.comm > Duration::ZERO);
    }

    #[test]
    fn signum_uses_allgather_accounting() {
        let batches = synthetic_batches(2, 8);
        let cfg = DistConfig {
            workers: 4,
            lr: 0.01,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::p3_like(4),
        };
        let mut comp = Signum::new(0.9);
        let out = train_data_parallel(|_| mlp(7), &batches, &mut comp, &cfg).unwrap();
        // One sign bit per coordinate goes up — never a gradient — and the
        // round is priced as an allgather of those messages.
        let bytes_per_worker = (6 * 16 + 16 + 16 * 3 + 3usize).div_ceil(64) * 8;
        assert_eq!(out.breakdown.comm, 2 * cfg.profile.allgather(bytes_per_worker));
        // Nobody decodes on the workers' behalf: the decode booked is the
        // duration the slowest of them measured around its own vote.
        assert!(out.breakdown.decode > Duration::ZERO);
        assert!(out.breakdown.encode > Duration::ZERO);
    }

    #[test]
    fn undersized_batch_rejected() {
        let batches = synthetic_batches(1, 2);
        let cfg = DistConfig {
            workers: 4,
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(4),
        };
        let mut comp = NoCompression::new();
        let err = train_data_parallel(|_| mlp(1), &batches, &mut comp, &cfg).unwrap_err();
        assert_eq!(err, DistError::BatchTooSmall { rows: 2, workers: 4 });
    }

    #[test]
    fn planned_joiners_raise_the_batch_floor() {
        // Two joiners on top of 3 initial workers: every batch must be able
        // to feed the 5-member fleet the run can grow into.
        let batches = synthetic_batches(2, 4);
        let cfg = DistConfig {
            workers: 3,
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(3),
        };
        let opts = RunOptions {
            membership: MembershipPlan::none().with_join(3, 1).with_join(4, 1),
            ..Default::default()
        };
        let mut comp = NoCompression::new();
        let err =
            train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &cfg, &opts).unwrap_err();
        assert_eq!(err, DistError::BatchTooSmall { rows: 4, workers: 5 });
    }

    #[test]
    fn plan_referencing_unknown_ids_rejected() {
        let batches = synthetic_batches(2, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(2),
        };
        // A leave for a worker that is neither initial nor a planned joiner.
        let opts = RunOptions {
            membership: MembershipPlan::none().with_leave(9, 1),
            ..Default::default()
        };
        let mut comp = NoCompression::new();
        let err =
            train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &cfg, &opts).unwrap_err();
        assert!(matches!(err, DistError::Membership { .. }), "{err}");
        // A joiner outside the hetero profile is a typed UnknownMember error.
        let opts = RunOptions {
            membership: MembershipPlan::none().with_join(5, 1),
            hetero: Some(crate::cost::HeteroProfile::uniform(ClusterProfile::p3_like(2))),
            ..Default::default()
        };
        let mut comp = NoCompression::new();
        let err =
            train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &cfg, &opts).unwrap_err();
        assert_eq!(err, DistError::UnknownMember { worker: 5, nodes: 2 });
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = DistConfig::p3(2, 0.1);
        cfg.workers = 0;
        assert!(matches!(cfg.validate(), Err(DistError::InvalidConfig { .. })));
        let mut cfg = DistConfig::p3(2, f32::NAN);
        assert!(matches!(cfg.validate(), Err(DistError::InvalidConfig { .. })));
        cfg = DistConfig::p3(2, 0.1);
        cfg.momentum = f32::INFINITY;
        assert!(matches!(cfg.validate(), Err(DistError::InvalidConfig { .. })));
        cfg = DistConfig::p3(2, 0.1);
        cfg.profile.alpha = -1.0;
        assert!(matches!(cfg.validate(), Err(DistError::InvalidConfig { .. })));
        assert!(DistConfig::p3(4, 0.1).validate().is_ok());
    }

    #[test]
    fn bad_recovery_policy_rejected() {
        let batches = synthetic_batches(1, 4);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            profile: ClusterProfile::zero_cost(2),
        };
        let opts = RunOptions {
            recovery: RecoveryPolicy { step_timeout: Duration::ZERO, ..Default::default() },
            ..Default::default()
        };
        let mut comp = NoCompression::new();
        let err =
            train_data_parallel_with(|_| mlp(1), &batches, &mut comp, &cfg, &opts).unwrap_err();
        assert!(matches!(err, DistError::InvalidConfig { .. }));
    }

    #[test]
    fn shard_batch_extracts_contiguous_rows() {
        let batch = (Tensor::randn(&[6, 2], 1.0, 1), vec![0, 1, 2, 0, 1, 2]);
        let (x, labels) = shard_batch(&batch, 1, 3).unwrap();
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(labels, vec![2, 0]);
        assert_eq!(x.as_slice(), &batch.0.as_slice()[4..8]);
        assert!(shard_batch(&batch, 3, 3).is_err());
    }

    #[test]
    fn pool_guard_restores_width() {
        let before = puffer_tensor::pool::num_threads();
        {
            let _g = PoolWidthGuard::cap_for(64);
            assert!(puffer_tensor::pool::num_threads() <= before);
        }
        assert_eq!(puffer_tensor::pool::num_threads(), before);
    }
}
