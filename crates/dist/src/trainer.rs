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
//! How a round is averaged depends on the compressor. An
//! allreduce-compatible one (vanilla SGD, PowerSGD) hands every worker its
//! own [`WorkerCodec`]: the round is a short sequence of *linear reduce
//! phases* in which each worker encodes a flat payload, the aggregator sums
//! the payloads in worker-id order, scales once by `1/n` and broadcasts the
//! mean, and after the last phase every worker decodes the mean gradient
//! straight into its own `p.grad`. The aggregator never sees, copies or
//! decodes a gradient — PowerSGD moves `Σ(m+n)·r` floats per worker and
//! round, and its encode/decode cost is paid once per node, in parallel,
//! the way the paper's Fig. 4(b) charges it. Only the allgather methods
//! (Signum, Top-k, binary quantization, ATOMO), whose decode needs every
//! worker's message, still ship the packed gradient to the aggregator,
//! which plays their [`GradCompressor::round`] centrally.
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
//! A joiner is admitted at a round boundary for which the aggregator
//! holds catch-up state (the checkpoint-leader snapshot of the previous
//! round): it loads parameters + momentum + buffers from the latest
//! checkpoint (the on-disk PUFT file when the boundary is a periodic
//! checkpoint, an in-memory copy otherwise), takes over a re-sharded
//! slice of the remaining data stream, and enters lockstep at the next
//! `Step` broadcast. Departures — voluntary or crash — shrink the active
//! set the same way, and [`crate::cost::HeteroProfile`] re-prices α/β for
//! whatever member set is live each round.
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
//! the one-flat-bucket run. For a one-phase codec — the payload is the
//! gradient itself — per-bucket communication is priced by the selected
//! [`CollectiveAlgo`] (ring, binary tree, or two-level hierarchical —
//! [`RunOptions::collective`]) and laid on an
//! overlap timeline against the measured per-bucket readiness offsets:
//! the share of comm hidden under still-running backward is *overlapped*,
//! the remainder is *exposed* ([`EpochBreakdown::comm_exposed`]).
//! Payloads that exist only once backward is over (PowerSGD's `P` and `Q`,
//! a central round's messages) are priced as one collective over the
//! round's bytes, all of it exposed.
//!
//! Worker compute runs on `puffer-tensor`'s threaded kernels; for the
//! duration of a run the tensor pool is capped so that
//! `members × pool threads` does not oversubscribe the hardware
//! (`PUFFER_NUM_THREADS` still sets the outer bound). The cap is
//! re-priced on every membership epoch change and restored by an RAII
//! guard even if the run errors (see [`PoolWidthGuard`], which lives in
//! the membership module — the only place allowed to touch pool width).

use crate::breakdown::{round_comm_time, BreakdownAccumulator, EpochBreakdown};
use crate::bucket::{overlap_timeline, BucketPlan, BucketedReducer, ReadyTracker};
use crate::checkpoint::DistCheckpoint;
use crate::cost::{hier_group, ClusterProfile, CollectiveAlgo};
use crate::error::{DistError, DistResult};
use crate::fault::{any_nonfinite, wire_checksum, FaultPlan, FaultReport};
use crate::membership::{
    MemberEvent, MemberEventKind, Membership, MembershipPlan, EV_CATCH_UP, EV_CRASHED, EV_JOINED,
    EV_LEFT, PROBE_CATEGORY, ROW_TYPE,
};
use puffer_compress::none::IdentityCodec;
use puffer_compress::pack::{pack_into, unpack, PackLayout};
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
/// is a short sequence of linear reduce *phases* (one for the identity
/// codec, two for PowerSGD — see [`WorkerCodec`]); in each the worker
/// encodes a flat payload (the paper's single-allreduce pack, §4.1, for the
/// identity codec), which is split into [`BucketPlan`] buckets in
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
}

enum WorkerMsg {
    Grads(GradMsg),
    Fatal { worker: usize, reason: String },
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
}

/// What a worker reports back after a round's verdict, for checkpoints and
/// joiner catch-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Report {
    Nothing,
    /// Its codec's share of the compressor state.
    Codec,
    /// That, and parameters + momentum + buffers (the snapshot leader).
    Full,
}

#[derive(Clone)]
enum AggMsg {
    /// Begin round `step` under membership `epoch`. `members` is the
    /// ascending active set; a worker re-shards its slice of the stream
    /// when its (rank, member count) changes.
    Step { step: usize, epoch: u64, members: Arc<Vec<usize>> },
    /// The reduced payload of the phase the worker is waiting on, shared by
    /// every member. After the last phase the worker decodes it into its
    /// gradients, applies the update and answers `report`. `contributed`
    /// is false for a member whose payload did not make it into the mean:
    /// it follows the rest of the round without sending.
    Reduced { payload: Arc<Tensor>, contributed: bool, report: Report },
    /// Skip this step without updating (non-finite guard tripped or no
    /// usable contribution survived) and answer `report` with the — still
    /// valid — unchanged state.
    Skip { report: Report },
    /// Liveness probe; carries no state change.
    Ping,
    /// Retire voluntarily: exit now without reporting final parameters.
    Retire,
    /// The run is over: report final parameters and exit.
    Finish,
}

/// Where a mid-run joiner obtains its catch-up state.
enum CatchUp {
    /// Load the periodic checkpoint file written at the admission
    /// boundary (the "latest PUFT checkpoint" path).
    Disk(PathBuf),
    /// The same state handed over in memory (checkpointing to disk is
    /// disabled or the boundary is not a periodic one).
    Memory(Arc<DistCheckpoint>),
}

/// What a finished worker leaves behind.
struct FinalReport {
    worker: usize,
    params: Vec<Tensor>,
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

/// A worker's answer to a [`Report`] request.
struct Snapshot {
    worker: usize,
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
///   boundary `u ≥ max(s, start + 1)` for which the aggregator holds a
///   leader snapshot of the previous round; the joiner catches up from
///   that state (the on-disk checkpoint when the boundary is a periodic
///   one) and participates from round `u` on;
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
    let collective = opts.collective.unwrap_or_default();
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

    let start_step = match &opts.resume {
        Some(ck) => {
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
                    reason: format!(
                        "compressor {} rejected the checkpoint state",
                        compressor.name()
                    ),
                });
            }
            ck.step
        }
        None => 0,
    };

    // The member set the run starts with: a checkpoint with a recorded
    // member list restores exactly that fleet (and continues its epoch
    // sequence); a legacy checkpoint — or a fresh run — activates all
    // configured workers.
    let membership = match &opts.resume {
        Some(ck) if !ck.members.is_empty() => {
            if let Some(&w) = ck.members.iter().find(|w| !all_ids.contains(w)) {
                return Err(DistError::Membership {
                    reason: format!(
                        "checkpoint member {w} is neither an initial worker nor a planned joiner"
                    ),
                });
            }
            Membership::with_epoch(ck.members.iter().copied(), ck.epoch)
        }
        _ => Membership::new(0..cfg.workers),
    };

    let mut pool_guard = PoolWidthGuard::cap_for(membership.active_count());

    let (to_agg, from_workers) = channel::<WorkerMsg>();
    let (final_tx, final_rx) = channel::<FinalReport>();
    let (snap_tx, snap_rx) = channel::<Snapshot>();

    let ctx = AggCtx {
        cfg,
        opts,
        steps,
        start_step,
        bucket_bytes,
        collective,
        factory: &factory,
        batches: global_batches,
        to_agg,
        final_tx,
        snap_tx,
    };
    let pool_guard_ref = &mut pool_guard;
    let compressor_ref = &mut *compressor;
    let joined = std::thread::scope(|scope| {
        let mut members = Vec::new();
        let agg = run_aggregator(
            &ctx,
            scope,
            &mut members,
            membership,
            &from_workers,
            &snap_rx,
            compressor_ref,
            pool_guard_ref,
        );
        // The aggregator's command channels are gone, so every member still
        // running exits. Join them all — the survivors too — before a
        // member's panic becomes the run's error: the scope itself would
        // re-panic here for a panicked thread nobody joined.
        let mut panicked = false;
        for member in members {
            panicked |= member.join().is_err();
        }
        if panicked {
            Err(DistError::WorkerPanicked)
        } else {
            agg
        }
    });
    // The worker threads are gone and so are their arenas — a replica's
    // worth of activations and gradients each. Give it back to the system
    // rather than to the allocator's free lists, where the next run's
    // fresh threads only find part of it again.
    trim_heap();
    let mut agg = joined?;

    // The aggregator context holds channel templates (it needs them to
    // spawn joiners mid-run); drop them so `final_rx` terminates now that
    // every worker has been joined by the scope.
    drop(ctx);

    // The lowest-indexed survivor's parameters stand for the run (all
    // survivors applied identical updates). Everything a worker hands over
    // was allocated on its thread: what is kept is copied into this
    // thread's storage, the originals are freed.
    let mut finals: Option<Vec<Tensor>> = None;
    let mut codec_state: Vec<(String, Tensor)> = Vec::new();
    let mut slowest_decode: BTreeMap<usize, Duration> = BTreeMap::new();
    let mut reports: Vec<FinalReport> = final_rx.iter().collect();
    reports.sort_by_key(|r| r.worker);
    for r in reports {
        for (step, d) in r.decodes {
            let slot = slowest_decode.entry(step).or_default();
            *slot = (*slot).max(d);
        }
        merge_codec_states(&mut codec_state, r.codec);
        if finals.is_none() {
            finals = Some(r.params.clone());
        }
        release(r.params);
    }
    let Some(final_params) = finals else {
        return Err(DistError::AllWorkersDead { step: steps });
    };
    // Every worker decoded for itself after the aggregator had moved on;
    // the slowest one is the round's critical path.
    for (step, base) in agg.decode_base {
        let slowest = slowest_decode.get(&step).copied().unwrap_or_default();
        agg.acc.record_decode(step, base + slowest);
    }
    if agg.worker_side {
        let restored = compressor.restore_state(&codec_state);
        release(codec_state.into_iter().map(|(_, t)| t));
        if !restored {
            return Err(DistError::Checkpoint {
                reason: format!("compressor {} rejected its own workers' state", compressor.name()),
            });
        }
    }
    Ok(DistOutcome {
        breakdown: agg.acc.breakdown(),
        step_losses: agg.step_losses,
        final_params,
        faults: agg.report,
        checkpoints: agg.checkpoints,
        membership: agg.membership,
        final_epoch: agg.final_epoch,
    })
}

/// Everything the aggregator needs to drive a run, including the channel
/// templates and model factory it uses to spawn mid-run joiners.
struct AggCtx<'a, F> {
    cfg: &'a DistConfig,
    opts: &'a RunOptions,
    steps: usize,
    start_step: usize,
    /// Resolved bucket size (option → env → `usize::MAX`).
    bucket_bytes: usize,
    /// Resolved pricing collective (option → env → ring).
    collective: CollectiveAlgo,
    factory: &'a F,
    batches: &'a [(Tensor, Vec<usize>)],
    to_agg: Sender<WorkerMsg>,
    final_tx: Sender<FinalReport>,
    snap_tx: Sender<Snapshot>,
}

struct WorkerCtx<'a> {
    worker: usize,
    /// First global step this worker participates in (0 for initial
    /// members of a fresh run; the admission boundary for joiners).
    entry_step: usize,
    /// Resolved gradient bucket size in bytes.
    bucket_bytes: usize,
    batches: &'a [(Tensor, Vec<usize>)],
    rx: Receiver<AggMsg>,
    to_agg: Sender<WorkerMsg>,
    final_tx: Sender<FinalReport>,
    snap_tx: Sender<Snapshot>,
    cfg: &'a DistConfig,
    opts: &'a RunOptions,
    catch_up: Option<CatchUp>,
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
}

/// The worker half a member runs: the compressor's own if it has one
/// (the bool), else the identity codec carrying raw gradients to the
/// aggregator's central [`GradCompressor::round`].
fn member_codec(
    compressor: &mut dyn GradCompressor,
    worker: usize,
) -> (Box<dyn WorkerCodec>, bool) {
    match compressor.worker_codec(worker) {
        Some(codec) => (codec, true),
        None => (Box::new(IdentityCodec), false),
    }
}

/// Spawns one member thread (initial worker or mid-run joiner) and
/// registers its command channel.
#[allow(clippy::too_many_arguments)]
fn spawn_member<'scope, 'env, M, F>(
    ctx: &AggCtx<'env, F>,
    scope: &'scope Scope<'scope, 'env>,
    members: &mut Vec<ScopedJoinHandle<'scope, ()>>,
    senders: &mut BTreeMap<usize, Sender<AggMsg>>,
    worker: usize,
    entry_step: usize,
    catch_up: Option<CatchUp>,
    codec: Box<dyn WorkerCodec>,
) where
    M: Layer + Send,
    F: Fn(usize) -> M + Sync,
{
    let (tx, rx) = channel();
    senders.insert(worker, tx);
    let to_agg = ctx.to_agg.clone();
    let final_tx = ctx.final_tx.clone();
    let snap_tx = ctx.snap_tx.clone();
    let factory = ctx.factory;
    let cfg = ctx.cfg;
    let opts = ctx.opts;
    let batches = ctx.batches;
    let bucket_bytes = ctx.bucket_bytes;
    members.push(scope.spawn(move || {
        let model = factory(worker);
        let wctx = WorkerCtx {
            worker,
            entry_step,
            bucket_bytes,
            batches,
            rx,
            to_agg,
            final_tx,
            snap_tx,
            cfg,
            opts,
            catch_up,
        };
        run_worker(wctx, model, codec);
    }));
}

fn report_fatal(ctx: &WorkerCtx<'_>, step: usize, reason: String) {
    probe::event(
        "fault",
        "worker_fatal",
        vec![("worker", ctx.worker.into()), ("step", step.into())],
    );
    // Best-effort: if the aggregator is already gone there is nobody left
    // to tell.
    ctx.to_agg.send(WorkerMsg::Fatal { worker: ctx.worker, reason }).ok();
}

fn note_catch_up(worker: usize, ck: &DistCheckpoint, source: &'static str) {
    probe::event(
        PROBE_CATEGORY,
        EV_CATCH_UP,
        vec![
            ("worker", worker.into()),
            ("step", ck.step.into()),
            ("epoch", ck.epoch.into()),
            ("source", source.into()),
        ],
    );
    probe::metrics_row(
        ROW_TYPE,
        &[
            ("kind", "catch_up".into()),
            ("worker", worker.into()),
            ("step", ck.step.into()),
            ("epoch", ck.epoch.into()),
        ],
    );
}

/// Emits probe attribution (event + JSONL row) for the latest membership
/// transition.
fn note_member_event(ev: Option<&MemberEvent>) {
    let Some(ev) = ev else { return };
    let name = match ev.kind {
        MemberEventKind::Join | MemberEventKind::Rejoin => EV_JOINED,
        MemberEventKind::Leave => EV_LEFT,
        MemberEventKind::Crash => EV_CRASHED,
    };
    probe::event(
        PROBE_CATEGORY,
        name,
        vec![
            ("worker", ev.worker.into()),
            ("step", ev.step.into()),
            ("epoch", ev.epoch.into()),
            ("kind", ev.kind.name().into()),
        ],
    );
    probe::metrics_row(
        ROW_TYPE,
        &[
            ("kind", ev.kind.name().into()),
            ("worker", ev.worker.into()),
            ("step", ev.step.into()),
            ("epoch", ev.epoch.into()),
        ],
    );
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
            Ok(msg @ (AggMsg::Reduced { .. } | AggMsg::Skip { .. })) => return Some(msg),
            Ok(AggMsg::Retire) => {
                probe::event("dist", "worker_retired", vec![("worker", worker.into())]);
                return None;
            }
            // Lockstep forbids a new round before this one's verdict.
            Ok(AggMsg::Ping | AggMsg::Step { .. } | AggMsg::Finish) => {}
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
) -> bool {
    let w = ctx.worker;
    let faults = &ctx.opts.faults;
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
        }));
        let mut attempt = 0u32;
        let sent = loop {
            if !faults.drops_message(w, step, attempt) {
                match pending.take() {
                    Some(msg) => break ctx.to_agg.send(msg).is_ok(),
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
            if attempt >= ctx.opts.recovery.max_retries {
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

/// The worker loop. Never panics: channel failures mean the aggregator is
/// gone (a fatal error elsewhere) and the worker just exits; its own
/// fatal conditions are reported via [`WorkerMsg::Fatal`]. An injected
/// crash exits without a word — the aggregator must *detect* it.
fn run_worker<M: Layer>(ctx: WorkerCtx<'_>, mut model: M, mut codec: Box<dyn WorkerCodec>) {
    let w = ctx.worker;
    let faults = &ctx.opts.faults;
    let mut opt = Sgd::new(ctx.cfg.lr, ctx.cfg.momentum, ctx.cfg.weight_decay);
    match &ctx.catch_up {
        Some(CatchUp::Disk(path)) => {
            let ck = match DistCheckpoint::load(path) {
                Ok(ck) => ck,
                Err(e) => {
                    report_fatal(&ctx, ctx.entry_step, format!("catch-up load failed: {e}"));
                    return;
                }
            };
            if !load_resume_state(&mut model, &mut opt, &ck) {
                report_fatal(
                    &ctx,
                    ctx.entry_step,
                    "catch-up checkpoint does not match the model".into(),
                );
                return;
            }
            note_catch_up(w, &ck, "disk");
        }
        Some(CatchUp::Memory(ck)) => {
            if !load_resume_state(&mut model, &mut opt, ck) {
                report_fatal(
                    &ctx,
                    ctx.entry_step,
                    "catch-up checkpoint does not match the model".into(),
                );
                return;
            }
            note_catch_up(w, ck, "memory");
        }
        None => {
            if let Some(ck) = &ctx.opts.resume {
                if !load_resume_state(&mut model, &mut opt, ck) {
                    report_fatal(
                        &ctx,
                        ctx.entry_step,
                        "resume checkpoint does not match the model".into(),
                    );
                    return;
                }
                probe::event(
                    "dist",
                    "checkpoint_resumed",
                    vec![("worker", w.into()), ("step", ck.step.into())],
                );
            }
        }
    }
    // Gradient shapes are fixed for the whole run: derive every phase's
    // payload layout, bucket plan and payload buffer once and reuse them
    // every round.
    let mut phases: Vec<PhasePlan> = {
        let params = model.params();
        let grad_refs: Vec<&Tensor> = params.iter().map(|p| &p.grad).collect();
        (0..codec.phases())
            .map(|p| {
                let layout = Arc::new(codec.payload_layout(p, &grad_refs));
                let plan = BucketPlan::new(&layout, ctx.bucket_bytes);
                let payload = Arc::new(Tensor::zeros(&[layout.total_len()]));
                PhasePlan { layout, plan, payload }
            })
            .collect()
    };
    // Backward announces gradients tensor by tensor; only a one-phase
    // codec's payload tensors are final the moment their gradients are.
    let overlaps = phases.len() == 1;
    let Some(first) = phases.first() else {
        report_fatal(&ctx, ctx.entry_step, "codec declares no reduce phase".into());
        return;
    };
    let mut tracker = ReadyTracker::new(&first.plan);
    let mut decodes: Vec<(usize, Duration)> = Vec::new();
    // This member's shard of the remaining stream, re-extracted only when
    // its (rank, member count) changes — a clean static run extracts once
    // and the steady state stays allocation-free.
    let mut epoch_seen: Option<u64> = None;
    let (mut rank, mut count) = (0usize, 0usize);
    let mut shard_base = ctx.entry_step;
    let mut shard: Vec<(Tensor, Vec<usize>)> = Vec::new();
    loop {
        let (step, epoch, members) = match ctx.rx.recv() {
            Ok(AggMsg::Step { step, epoch, members }) => (step, epoch, members),
            Ok(AggMsg::Ping) => continue,
            Ok(AggMsg::Retire) => {
                probe::event("dist", "worker_retired", vec![("worker", w.into())]);
                return;
            }
            Ok(AggMsg::Finish) => break,
            // A verdict outside a round cannot happen in lockstep; drain it.
            Ok(AggMsg::Reduced { .. }) | Ok(AggMsg::Skip { .. }) => continue,
            Err(_) => return, // aggregator shut down
        };
        if epoch_seen != Some(epoch) {
            let first = epoch_seen.is_none();
            epoch_seen = Some(epoch);
            let Ok(new_rank) = members.binary_search(&w) else {
                // The broadcast member set excludes us: retire quietly.
                return;
            };
            let new_count = members.len();
            if first || (new_rank, new_count) != (rank, count) {
                rank = new_rank;
                count = new_count;
                shard_base = step;
                if !first {
                    probe::counter_add("dist.reshards", 1);
                }
                shard = match resharded(ctx.batches, step, rank, count) {
                    Ok(s) => s,
                    Err(e) => {
                        report_fatal(&ctx, step, e.to_string());
                        return;
                    }
                };
            }
        }
        if faults.should_crash_since(w, step, ctx.entry_step) {
            probe::event(
                "fault",
                "worker_crash",
                vec![("worker", w.into()), ("step", step.into())],
            );
            return; // channels drop; the aggregator's probe sees the death
        }
        let Some((images, labels)) = shard.get(step - shard_base) else {
            // A broadcast step outside our extracted shard is a protocol
            // bug; report it instead of panicking mid-round.
            report_fatal(&ctx, step, format!("step {step} outside shard from {shard_base}"));
            return;
        };
        let sp = probe::timed_span_with("dist", "worker_compute", || {
            vec![("worker", w.into()), ("step", step.into())]
        });
        let clock = probe::Stopwatch::start();
        tracker.start_step();
        model.zero_grad();
        let logits = model.forward(images, Mode::Train);
        let (loss, dl) = match softmax_cross_entropy(&logits, labels, 0.0) {
            Ok(v) => v,
            Err(e) => {
                report_fatal(&ctx, step, e.to_string());
                return;
            }
        };
        // Backward announces gradient readiness layer by layer (reverse
        // order); the tracker stamps each bucket with the compute offset
        // at which its last gradient finalized — the overlap timeline's
        // inputs.
        let _ = model.backward_with_ready(&dl, &mut |first| {
            tracker.on_ready(first, clock.elapsed().as_micros() as u64);
        });
        tracker.finish(clock.elapsed().as_micros() as u64);
        let measured = sp.finish();
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
        let compute = measured + delay;
        let delay_us = delay.as_micros() as u64;
        // Non-finite injection happens on the gradient itself, before
        // anything is encoded (the worker "really" computed it); bit
        // corruption after checksumming (it happens on the wire, so the
        // checksum catches it).
        for g in grads_of(&mut model.params_mut()) {
            if faults.inject_nonfinite(w, step, std::slice::from_mut(g)) {
                break;
            }
        }

        // ---- The round: encode, ship, and wait for the mean, once per
        // phase. A worker whose payload missed a mean keeps following the
        // round — it needs every mean to end on the same parameters — but
        // has nothing more to contribute to it. ----
        let mut reduced: Option<Arc<Tensor>> = None;
        let mut contributing = true;
        let mut report = Report::Nothing;
        for (p, plan) in phases.iter_mut().enumerate() {
            let len = plan.layout.total_len();
            let clock = probe::Stopwatch::start();
            let Some(payload) = reclaim(&mut plan.payload, len) else {
                report_fatal(&ctx, step, "payload buffer is still shared".into());
                return;
            };
            let prev = reduced.as_deref().map(Tensor::as_slice);
            let encoded = codec.encode(
                p,
                &mut grads_of(&mut model.params_mut()),
                prev,
                payload.as_mut_slice(),
            );
            if let Err(e) = encoded {
                report_fatal(&ctx, step, format!("encode, phase {p}: {e}"));
                return;
            }
            // A one-phase codec's payload is the buckets themselves: writing
            // it is part of the window they are produced (and their
            // collectives overlapped) in, so it counts as compute, the way
            // the flat pack always did. Otherwise it is the codec's encode.
            let (compute, encode) = match clock.elapsed() {
                packing if overlaps => (compute + packing, Duration::ZERO),
                encoding => (compute, encoding),
            };
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
                let ready = tracker.ready_us();
                let ready_us = |b: usize| match ready.get(b) {
                    Some(&at) if overlaps => (at + delay_us).min(compute_us),
                    _ => compute_us,
                };
                if !send_phase(&ctx, step, p, plan, &checksums, &ready_us, loss, compute, encode) {
                    return; // aggregator gone
                }
                if p == 0 && faults.crashes_mid_round(w, step) {
                    probe::event(
                        "fault",
                        "worker_crash",
                        vec![("worker", w.into()), ("step", step.into()), ("phase", p.into())],
                    );
                    return;
                }
            }
            match await_verdict(&ctx.rx, w) {
                Some(AggMsg::Reduced { payload, contributed, report: r }) => {
                    contributing &= contributed;
                    reduced = Some(payload);
                    report = r;
                }
                Some(AggMsg::Skip { report: r }) => {
                    codec.abort();
                    report = r;
                    reduced = None;
                    break;
                }
                _ => return,
            }
        }
        if let Some(mean) = reduced {
            let ap = probe::timed_span_with("dist", "apply", || {
                vec![("worker", w.into()), ("step", step.into())]
            });
            let clock = probe::Stopwatch::start();
            let decoded =
                codec.decode(mean.as_slice(), &mut grads_of(&mut model.params_mut()), contributing);
            if let Err(e) = decoded {
                report_fatal(&ctx, step, format!("decode: {e}"));
                return;
            }
            decodes.push((step, clock.elapsed()));
            // The mean goes back to the aggregator's buffer pool before the
            // optimizer runs: by its next round nobody else holds it.
            drop(mean);
            opt.step(&mut model.params_mut());
            let _ = ap.finish();
        }
        send_snapshot(report, w, step + 1, &model, &opt, codec.as_ref(), &ctx.snap_tx);
    }
    let params: Vec<Tensor> = model.params().iter().map(|p| p.value.clone()).collect();
    // Best-effort: the trainer may already be on its way out.
    ctx.final_tx
        .send(FinalReport { worker: w, params, codec: codec.state_snapshot(), decodes })
        .ok();
}

/// Reports post-round replica state to the aggregator for checkpointing
/// and joiner catch-up, as far as `report` asks for it.
fn send_snapshot<M: Layer>(
    report: Report,
    worker: usize,
    next_step: usize,
    model: &M,
    opt: &Sgd,
    codec: &dyn WorkerCodec,
    snap_tx: &Sender<Snapshot>,
) {
    let model = match report {
        Report::Nothing => return,
        Report::Codec => None,
        Report::Full => Some(ModelState {
            params: model.params().iter().map(|p| p.value.clone()).collect(),
            velocity: opt.velocity().to_vec(),
            buffers: model.buffers(),
        }),
    };
    // Best-effort: a closed snapshot channel just means the aggregator is
    // shutting down.
    snap_tx.send(Snapshot { worker, next_step, model, codec: codec.state_snapshot() }).ok();
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

struct AggOutput {
    /// Every phase of every round but the decodes, which the caller books
    /// once the workers have reported theirs.
    acc: BreakdownAccumulator,
    /// Per executed (not skipped) step, the decode time already known to
    /// the aggregator: a central round's, zero for worker-side codecs.
    decode_base: Vec<(usize, Duration)>,
    /// Whether the compressor's state lived in worker halves.
    worker_side: bool,
    /// The broadcast buffers, handed out of the aggregator so that they
    /// outlive the workers: whoever drops the last handle to a mean gets
    /// its storage, and that has to be the thread that allocated it.
    _slots: Vec<PhaseSlot>,
    step_losses: Vec<f32>,
    report: FaultReport,
    checkpoints: Vec<PathBuf>,
    membership: Vec<MemberEvent>,
    final_epoch: u64,
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

/// Collects one phase's contributions from `expected`, one bucket message
/// at a time. A bucket is spliced into its sender's reducer slot on
/// arrival, and with `eager` any bucket every expected member has
/// delivered is reduced at once — the reduction work tracks the message
/// stream instead of waiting for the slowest sender's last bucket. The
/// apply order stays pinned regardless (see [`BucketedReducer`]).
///
/// Slow members get `recovery.step_timeout` with bounded retry/backoff;
/// silent ones are probed and, if their channel is dead, marked crashed;
/// a bucket failing its checksum rejects its sender's whole contribution
/// once. Returns the members that delivered every bucket intact, in
/// worker-id order (the pinned reduction order).
#[allow(clippy::too_many_arguments)]
fn collect_phase(
    from_workers: &Receiver<WorkerMsg>,
    fleet: &mut Fleet,
    recovery: &RecoveryPolicy,
    bucket_bytes: usize,
    slot: &mut PhaseSlot,
    step: usize,
    phase: usize,
    mut expected: BTreeSet<usize>,
    eager: bool,
) -> DistResult<BTreeMap<usize, Contribution>> {
    let mut expected_vec: Vec<usize> = expected.iter().copied().collect();
    let mut got: BTreeMap<usize, Contribution> = BTreeMap::new();
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
            Ok(WorkerMsg::Grads(m)) => {
                if m.step != step || m.phase != phase || !expected.contains(&m.worker) {
                    // A straggler's bucket from an already-closed step or
                    // phase (or from an already-rejected sender): discard.
                    fleet.count_stale();
                    probe::event(
                        "fault",
                        "stale_message",
                        vec![
                            ("worker", m.worker.into()),
                            ("msg_step", m.step.into()),
                            ("step", step.into()),
                        ],
                    );
                    continue;
                }
                // The run's first contribution to a phase fixes its bucket
                // plan (every worker derives the identical layout).
                let red = slot.reducer.get_or_insert_with(|| {
                    let mut r = BucketedReducer::new(BucketPlan::new(&m.layout, bucket_bytes));
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
                timeout = Duration::from_secs_f64(timeout.as_secs_f64() * recovery.backoff);
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

/// The aggregator loop: processes the membership boundary (leaves, join
/// admission with catch-up, periodic checkpoints), broadcasts each round,
/// runs it phase by phase — collect with timeout/retry and crash
/// detection, reduce over whoever delivered, broadcast the mean — and
/// prices the round for the live member set.
#[allow(clippy::too_many_arguments)]
fn run_aggregator<'scope, 'env, M, F>(
    ctx: &AggCtx<'env, F>,
    scope: &'scope Scope<'scope, 'env>,
    members: &mut Vec<ScopedJoinHandle<'scope, ()>>,
    membership: Membership,
    from_workers: &Receiver<WorkerMsg>,
    snap_rx: &Receiver<Snapshot>,
    compressor: &mut dyn GradCompressor,
    pool_guard: &mut PoolWidthGuard,
) -> DistResult<AggOutput>
where
    M: Layer + Send,
    F: Fn(usize) -> M + Sync,
{
    let recovery = &ctx.opts.recovery;
    let plan = &ctx.opts.membership;
    let mut fleet = Fleet { membership, senders: BTreeMap::new(), report: FaultReport::default() };
    // Every member runs the same kind of codec, so the first one spawned
    // tells how many phases a round has and where compressor state lives.
    let (mut worker_side, mut n_phases) = (false, 1);
    for w in fleet.membership.active() {
        let (codec, own) = member_codec(compressor, w);
        (worker_side, n_phases) = (own, codec.phases());
        spawn_member(ctx, scope, members, &mut fleet.senders, w, ctx.start_step, None, codec);
    }
    // Join requests at or before the resume point were already satisfied
    // by the original run: a checkpoint at step `u` implies the leader
    // snapshot at `u` succeeded, which implies every join pending at `u`
    // was admitted there. Whether those members later departed is encoded
    // in the checkpointed member set — replaying the admission would
    // resurrect them and diverge from the original run.
    let mut admitted: BTreeSet<(usize, usize)> = plan.joins_through(ctx.start_step).collect();

    let mut acc = BreakdownAccumulator::new();
    let mut decode_base: Vec<(usize, Duration)> = Vec::new();
    let mut step_losses = Vec::with_capacity(ctx.steps.saturating_sub(ctx.start_step));
    let mut slots: Vec<PhaseSlot> = (0..n_phases)
        .map(|_| PhaseSlot { reducer: None, layout: None, mean: Arc::new(Tensor::default()) })
        .collect();
    let mut checkpoints: Vec<PathBuf> = Vec::new();
    // Leader snapshot of the previous round, keyed by the boundary step
    // it describes; feeds both periodic checkpoints and joiner catch-up.
    let mut pending_snapshot: Option<(usize, ModelState)> = None;
    let mut members_arc: Arc<Vec<usize>> = Arc::new(fleet.membership.active());
    let mut broadcast_epoch = fleet.membership.epoch();

    'steps: for step in ctx.start_step..ctx.steps {
        // ---- Membership boundary: leaves, then join admission, then the
        // checkpoint that records the post-transition member set. ----
        let leavers: Vec<usize> = plan.leaves_at(step).collect();
        for wk in leavers {
            if !fleet.membership.is_active(wk) {
                continue; // departed earlier (e.g. crashed); nothing to retire
            }
            let ok = fleet.deliver(wk, AggMsg::Retire);
            fleet.senders.remove(&wk);
            if ok {
                fleet.membership.leave(wk, step)?;
                note_member_event(fleet.membership.log().last());
            } else {
                fleet.mark_crashed(wk, step);
            }
        }
        let pending: Vec<(usize, usize)> =
            plan.joins_through(step).filter(|key| !admitted.contains(key)).collect();
        let snap_ready = pending_snapshot.as_ref().is_some_and(|s| s.0 == step);
        let mut admitted_now: Vec<usize> = Vec::new();
        if snap_ready {
            for &(wk, sched) in &pending {
                if fleet.membership.is_active(wk) {
                    return Err(DistError::Membership {
                        reason: format!(
                            "worker {wk} is scheduled to join at step {sched} but is already \
                             an active member"
                        ),
                    });
                }
                fleet.membership.join(wk, step)?;
                note_member_event(fleet.membership.log().last());
                admitted.insert((wk, sched));
                admitted_now.push(wk);
            }
        } else if !pending.is_empty() {
            // No catch-up state for this boundary (start of a run, or the
            // leader snapshot failed): the requests stay pending and are
            // retried at the next boundary.
            probe::counter_add("dist.join_deferrals", pending.len() as u64);
        }
        let want_ckpt_here = ctx.opts.checkpoint.is_enabled()
            && step > ctx.start_step
            && step.is_multiple_of(ctx.opts.checkpoint.every);
        if (want_ckpt_here || !admitted_now.is_empty()) && snap_ready {
            if let Some((s, state)) = pending_snapshot.take() {
                let ck = checkpoint_of(s, state, &*compressor, &fleet.membership);
                let mut on_disk: Option<PathBuf> = None;
                if want_ckpt_here {
                    on_disk = write_checkpoint(ctx, &ck, &mut checkpoints)?;
                }
                let shared = Arc::new(ck);
                for &wk in &admitted_now {
                    let catch_up = match &on_disk {
                        Some(p) => CatchUp::Disk(p.clone()),
                        None => CatchUp::Memory(Arc::clone(&shared)),
                    };
                    // A joiner's codec starts from the shared state the
                    // snapshot gathered and no memory of its own.
                    let (codec, _) = member_codec(compressor, wk);
                    spawn_member(
                        ctx,
                        scope,
                        members,
                        &mut fleet.senders,
                        wk,
                        step,
                        Some(catch_up),
                        codec,
                    );
                }
            }
        }
        // ---- Epoch sync: refresh the broadcast member view and re-price
        // the tensor-pool width for the current member count. ----
        if fleet.membership.epoch() != broadcast_epoch {
            broadcast_epoch = fleet.membership.epoch();
            members_arc = Arc::new(fleet.membership.active());
            pool_guard.recap(fleet.membership.active_count());
        }

        let round_sp = probe::timed_span_with("dist", "round", || {
            vec![
                ("step", step.into()),
                ("epoch", broadcast_epoch.into()),
                ("live", members_arc.len().into()),
            ]
        });

        // ---- Begin the round: a crashed member fails the send. ----
        for &x in members_arc.iter() {
            let msg =
                AggMsg::Step { step, epoch: broadcast_epoch, members: Arc::clone(&members_arc) };
            if !fleet.deliver(x, msg) {
                fleet.mark_crashed(x, step);
            }
        }
        if fleet.membership.active_count() == 0 {
            return Err(DistError::AllWorkersDead { step });
        }

        // The *next* boundary needs catch-up state if a periodic
        // checkpoint falls on it or a join is waiting for admission.
        let next_step = step + 1;
        let want_ckpt =
            ctx.opts.checkpoint.is_enabled() && next_step.is_multiple_of(ctx.opts.checkpoint.every);
        let pending_join = next_step < ctx.steps
            && plan.joins_through(next_step).any(|key| !admitted.contains(&key));
        let want_state = want_ckpt || pending_join;

        // ---- The round, phase by phase. Whoever delivered a phase intact
        // is whom the next phase waits for; everybody with a channel gets
        // every verdict. ----
        let mut expected: BTreeSet<usize> = fleet.membership.active().into_iter().collect();
        let mut slowest = Duration::ZERO;
        let mut loss_mean = f32::NAN;
        let mut encode = Duration::ZERO;
        let mut ready_us: Vec<u64> = Vec::new();
        let mut contributors: Vec<usize> = Vec::new();
        let mut central: Option<RoundStats> = None;
        for (phase, slot) in slots.iter_mut().enumerate() {
            let got = collect_phase(
                from_workers,
                &mut fleet,
                recovery,
                ctx.bucket_bytes,
                slot,
                step,
                phase,
                expected,
                worker_side,
            )?;
            contributors = got.keys().copied().collect();
            if phase == 0 {
                slowest = got.values().map(|c| c.compute).max().unwrap_or_default();
                if !got.is_empty() {
                    loss_mean = got.values().map(|c| c.loss).sum::<f32>() / got.len() as f32;
                }
                let buckets = got.values().map(|c| c.ready_us.len()).max().unwrap_or(0);
                ready_us = (0..buckets)
                    .map(|b| {
                        got.values().filter_map(|c| c.ready_us.get(b).copied()).max().unwrap_or(0)
                    })
                    .collect();
            }
            encode += got.values().map(|c| c.encode).max().unwrap_or_default();
            // The lowest-indexed live member doubles as snapshot leader.
            let leader = fleet.senders.keys().next().copied();
            let last = phase + 1 == n_phases;
            let report_of = |x: usize| match (want_state, Some(x) == leader) {
                (true, true) => Report::Full,
                (true, false) if worker_side => Report::Codec,
                _ => Report::Nothing,
            };

            // ---- Reduce what arrived. AMP-style guard: a poisoned
            // gradient (or a phase with no usable contribution) skips the
            // step on every replica. The unchanged state is still valid,
            // so snapshots proceed. ----
            let reduced = match (slot.reducer.as_mut(), slot.layout.as_ref()) {
                (Some(red), Some(layout)) if !contributors.is_empty() => {
                    if worker_side {
                        Some(red.finalize(&contributors))
                            .filter(|mean| !any_nonfinite(std::slice::from_ref(*mean)))
                            .and_then(|mean| {
                                let out = reclaim(&mut slot.mean, mean.len())?;
                                out.as_mut_slice().copy_from_slice(mean.as_slice());
                                Some(())
                            })
                    } else {
                        central_round(red, layout, &contributors, compressor, &mut slot.mean)
                            .map(|stats| central = Some(stats))
                    }
                }
                _ => None,
            };
            if reduced.is_none() {
                if let Some(r) = slot.reducer.as_mut() {
                    r.mark_dirty();
                }
                fleet.broadcast(step, |x| AggMsg::Skip { report: report_of(x) });
                fleet.report.skipped_steps.push(step);
                probe::event(
                    "fault",
                    "step_skipped",
                    vec![("step", step.into()), ("contributors", contributors.len().into())],
                );
                acc.record_skipped(step, slowest);
                step_losses.push(loss_mean);
                probe::metrics_row(
                    "dist_step",
                    &[
                        ("step", step.into()),
                        ("loss", loss_mean.into()),
                        ("contributors", contributors.len().into()),
                        ("live", fleet.membership.active_count().into()),
                        ("skipped", 1usize.into()),
                    ],
                );
                pending_snapshot = collect_snapshot(
                    ctx,
                    snap_rx,
                    &mut fleet,
                    compressor,
                    worker_side,
                    want_state,
                    want_ckpt,
                    next_step,
                );
                round_sp.finish();
                continue 'steps;
            }
            let mean = &slot.mean;
            probe::hist_record("dist", "broadcast_bytes", (mean.len() * 4) as u64);
            fleet.broadcast(step, |x| AggMsg::Reduced {
                payload: Arc::clone(mean),
                contributed: contributors.binary_search(&x).is_ok(),
                report: if last { report_of(x) } else { Report::Nothing },
            });
            expected = contributors.iter().copied().collect();
        }

        // ---- Price the round for the member set actually live. ----
        let live_vec: Vec<usize> = fleet.membership.active();
        let (profile, jitter) = match &ctx.opts.hetero {
            Some(h) => (h.effective(&live_vec)?, h.jitter_factor(step as u64)),
            None => (ClusterProfile { nodes: live_vec.len(), ..ctx.cfg.profile }, 1.0),
        };
        let n_contributors = contributors.len();
        let stats = match central {
            // Every node also packed its gradient for the central round.
            Some(s) => RoundStats { encode_time: s.encode_time + encode, ..s },
            None => RoundStats::new(
                slots.iter().filter_map(|s| s.layout.as_ref()).map(|l| l.total_bytes()).sum(),
                n_contributors,
                AggregationKind::AllReduce,
                encode,
                Duration::ZERO,
            ),
        };
        // A central round's decode is the aggregator's; a worker-side
        // codec's is whatever the slowest worker reports when the run ends.
        decode_base.push((step, stats.decode_time));
        match slots.first().and_then(|s| s.reducer.as_ref()) {
            Some(red) if worker_side && n_phases == 1 => {
                // One linear phase over the gradient itself: each bucket's
                // collective is priced with the selected algorithm and laid
                // on a modeled timeline that starts when the slowest
                // contributor produced that bucket's gradients — the comm
                // time hidden under still-running backward is the round's
                // *overlapped* share, the remainder is exposed.
                let bucket_comms =
                    overlap_timeline(red.plan(), &ready_us, slowest, n_contributors, |bytes| {
                        profile.allreduce_with(ctx.collective, bytes).mul_f64(jitter)
                    });
                let group = match ctx.collective {
                    CollectiveAlgo::Hierarchical { group } => {
                        Some(hier_group(profile.nodes, group))
                    }
                    _ => None,
                };
                acc.record_overlapped(
                    step,
                    ctx.collective.span_name(),
                    group,
                    profile.nodes,
                    &bucket_comms,
                    slowest,
                    &stats,
                );
            }
            _ => {
                // Payloads that exist only once backward is over (a
                // multi-phase codec's, or a central round's messages): one
                // collective over the round's bytes, all of it exposed.
                let kind =
                    if worker_side { AggregationKind::AllReduce } else { compressor.aggregation() };
                let comm = round_comm_time(&profile, kind, &stats).mul_f64(jitter);
                acc.record_with_comm(step, kind, profile.nodes, comm, slowest, &stats);
            }
        }
        step_losses.push(loss_mean);
        probe::metrics_row(
            "dist_step",
            &[
                ("step", step.into()),
                ("loss", loss_mean.into()),
                ("contributors", n_contributors.into()),
                ("live", live_vec.len().into()),
                ("bytes", stats.encoded_bytes.into()),
            ],
        );

        pending_snapshot = collect_snapshot(
            ctx,
            snap_rx,
            &mut fleet,
            compressor,
            worker_side,
            want_state,
            want_ckpt,
            next_step,
        );
        round_sp.finish();
    }

    // ---- Final boundary: a periodic checkpoint falling exactly on the
    // end of the run is still written. ----
    let want_ckpt_final = ctx.opts.checkpoint.is_enabled()
        && ctx.steps > ctx.start_step
        && ctx.steps.is_multiple_of(ctx.opts.checkpoint.every);
    if want_ckpt_final && pending_snapshot.as_ref().is_some_and(|s| s.0 == ctx.steps) {
        if let Some((s, state)) = pending_snapshot.take() {
            let ck = checkpoint_of(s, state, &*compressor, &fleet.membership);
            write_checkpoint(ctx, &ck, &mut checkpoints)?;
        }
    }

    // ---- Finish: survivors report their final parameters. ----
    fleet.broadcast(ctx.steps, |_| AggMsg::Finish);
    fleet.report.survivors = fleet.membership.active_count();
    Ok(AggOutput {
        acc,
        decode_base,
        worker_side,
        _slots: slots,
        step_losses,
        report: fleet.report,
        checkpoints,
        final_epoch: fleet.membership.epoch(),
        membership: fleet.membership.into_log(),
    })
}

/// The classic whole-tensor round, for compressors whose decode needs
/// every worker's message: reassembles each contributor's flat gradient,
/// plays [`GradCompressor::round`] and packs the decoded mean into the
/// broadcast buffer. `None` when a contribution is poisoned (the round is
/// not played).
fn central_round(
    red: &mut BucketedReducer,
    layout: &PackLayout,
    contributors: &[usize],
    compressor: &mut dyn GradCompressor,
    mean: &mut Arc<Tensor>,
) -> Option<RoundStats> {
    let flats: Vec<&Tensor> = contributors.iter().filter_map(|x| red.assembled(*x)).collect();
    if flats.iter().any(|t| any_nonfinite(std::slice::from_ref(*t))) {
        return None;
    }
    let contributions: Vec<Vec<Tensor>> = flats.iter().map(|flat| unpack(flat, layout)).collect();
    let (decoded, stats) = compressor.round(&contributions);
    let out = reclaim(mean, layout.total_len())?;
    pack_into(decoded.iter(), out.as_mut_slice());
    Some(stats)
}

/// The checkpoint of boundary `step`: the leader's replica state, the
/// compressor's (for worker-side codecs, what the snapshot gathered from
/// the members) and the member set as of now.
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

/// Writes a periodic checkpoint, if the policy names a path for its step.
fn write_checkpoint<F>(
    ctx: &AggCtx<'_, F>,
    ck: &DistCheckpoint,
    checkpoints: &mut Vec<PathBuf>,
) -> DistResult<Option<PathBuf>> {
    let Some(path) = ctx.opts.checkpoint.path_for(ck.step) else { return Ok(None) };
    ck.save(&path)?;
    probe::counter_add("dist.checkpoint_writes", 1);
    probe::event("dist", "checkpoint_written", vec![("step", ck.step.into())]);
    checkpoints.push(path.clone());
    Ok(Some(path))
}

/// Collects the post-round reports for the upcoming boundary: the leader's
/// replica state and, for worker-side codecs, every member's share of the
/// compressor state, which is merged back into `compressor` so a
/// checkpoint (or a joiner's codec) can be cut from it. A report that does
/// not come is probed for like a missing gradient. A missed leader
/// snapshot when a periodic checkpoint is due is a recorded checkpoint
/// failure; joins waiting on it are simply deferred.
#[allow(clippy::too_many_arguments)]
fn collect_snapshot<F>(
    ctx: &AggCtx<'_, F>,
    snap_rx: &Receiver<Snapshot>,
    fleet: &mut Fleet,
    compressor: &mut dyn GradCompressor,
    worker_side: bool,
    want_state: bool,
    want_ckpt: bool,
    next_step: usize,
) -> Option<(usize, ModelState)> {
    if !want_state {
        return None;
    }
    let recovery = &ctx.opts.recovery;
    // Whoever was asked: the leader, and with it every member whose codec
    // holds state.
    let mut asked: BTreeSet<usize> = match fleet.senders.keys().next() {
        Some(_) if worker_side => fleet.senders.keys().copied().collect(),
        Some(&leader) => [leader].into(),
        None => BTreeSet::new(),
    };
    let mut model: Option<ModelState> = None;
    let mut codec_state: Vec<(String, Tensor)> = Vec::new();
    let mut retries = 0u32;
    while !asked.is_empty() && retries <= recovery.max_retries {
        match snap_rx.recv_timeout(recovery.step_timeout) {
            Ok(s) if s.next_step == next_step && asked.remove(&s.worker) => {
                model = model.or(s.model);
                merge_codec_states(&mut codec_state, s.codec);
            }
            Ok(_) => {} // a report for a boundary long gone
            Err(RecvTimeoutError::Timeout) => {
                retries += 1;
                asked.retain(|&x| fleet.deliver(x, AggMsg::Ping));
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let restored = !worker_side || compressor.restore_state(&codec_state);
    let pending = model.filter(|_| restored).map(|m| (next_step, m));
    if pending.is_none() && want_ckpt {
        fleet.report.checkpoint_failures += 1;
        probe::counter_add("dist.checkpoint_failures", 1);
        probe::event("fault", "checkpoint_failed", vec![("step", next_step.into())]);
    }
    pending
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
    fn bucket_size_never_changes_what_a_codec_or_a_central_round_computes() {
        // PowerSGD's P and Q payloads are bucketed like any other payload,
        // and a compressor without a worker half (Signum) still rides the
        // bucketed transport to the aggregator's central round: at any
        // bucket size the results match the one-bucket run bitwise.
        let batches = synthetic_batches(3, 8);
        let cfg = DistConfig {
            workers: 2,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            profile: ClusterProfile::p3_like(2),
        };
        let opts = |bytes: usize| RunOptions { bucket_bytes: Some(bytes), ..Default::default() };
        let powersgd = |bytes: usize| {
            let mut comp = PowerSgd::new(2, 9);
            train_data_parallel_with(|_| mlp(13), &batches, &mut comp, &cfg, &opts(bytes)).unwrap()
        };
        let signum = |bytes: usize| {
            let mut comp = Signum::new(0.9);
            train_data_parallel_with(|_| mlp(13), &batches, &mut comp, &cfg, &opts(bytes)).unwrap()
        };
        for run in [&powersgd as &dyn Fn(usize) -> DistOutcome, &signum] {
            let flat = run(usize::MAX);
            let bucketed = run(64);
            assert_eq!(flat.final_params, bucketed.final_params);
            // Neither payload exists before backward is over: every comm
            // nanosecond is exposed.
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
        assert!(out.breakdown.comm > Duration::ZERO);
        assert!(out.breakdown.decode > Duration::ZERO);
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
