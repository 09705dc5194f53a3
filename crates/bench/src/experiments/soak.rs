//! Churn soak harness for the elastic fault-tolerant trainer.
//!
//! Drives one long simulated run through a seeded churn schedule — two
//! crashes, a rejoin, two fresh joins, a voluntary leave, a persistent
//! straggler, and corrupted/dropped/non-finite messages — then gates on
//! the robustness invariants the trainer promises:
//!
//! 1. **Zero steady-state allocation**: with churn confined to the first
//!    three quarters of the run, a trailing post-churn round must add zero
//!    `alloc.pool_misses` (two-run comparison, the
//!    `alloc_steady_state.rs` idiom).
//! 2. **Bounded replay divergence**: resuming the mid-run checkpoint and
//!    replaying the same churn schedule must reproduce the churned run's
//!    final parameters within `DIVERGENCE_BOUND` (the schedule is
//!    deterministic and detection timing never touches numerics, so the
//!    expectation is bitwise equality; the bound only absorbs a future
//!    reduction-order change).
//! 3. **Monotone recovery**: per-round `dist`/`round` probe spans must
//!    return to the steady-state pace within `RECOVERY_ROUNDS` rounds of
//!    every membership transition, and the run must *end* at that pace.
//! 4. **No leaked threads**: OS thread count (`/proc/self/status`) and the
//!    tensor-pool width are unchanged once the runs are done.
//!
//! The record also carries the per-phase round latency percentiles.
//!
//! Usage: `puffer-bench soak [--quick]`: `--quick` shrinks the run from 96
//! steps to the 24 that `tests/gates.rs` (and through it
//! `scripts/check.sh`) runs; a failed gate exits 1.

use crate::setups::{gaussian_batches, stamp_run_header};
use crate::table::Table;
use crate::{Args, Record};
use puffer_compress::none::NoCompression;
use puffer_dist::checkpoint::{CheckpointPolicy, DistCheckpoint};
use puffer_dist::fault::FaultPlan;
use puffer_dist::membership::{MemberEventKind, MembershipPlan};
use puffer_dist::trainer::{
    train_data_parallel_with, DistConfig, DistOutcome, RecoveryPolicy, RunOptions,
};
use puffer_nn::activation::Relu;
use puffer_nn::linear::Linear;
use puffer_nn::Sequential;
use puffer_probe as probe;
use puffer_tensor::{workspace, Tensor};
use std::time::Duration;

/// Max acceptable relative divergence between the churned run and its
/// checkpoint-resume replay (gate 2). The runs are expected bitwise
/// identical; see the module docs.
const DIVERGENCE_BOUND: f32 = 1e-6;

/// Rounds granted for throughput to recover after a membership transition
/// (gate 3).
const RECOVERY_ROUNDS: usize = 5;

/// The initial fleet; the churn schedule crashes, rejoins and retires
/// members by id, so it needs at least four.
const WORKERS: usize = 4;

/// Seeds the fault plan and the data.
const SEED: u64 = 42;

struct SoakConfig {
    /// A multiple of 8: the churn schedule is cut in eighths of the run.
    steps: usize,
}

impl SoakConfig {
    /// The seeded churn schedule, positioned as fractions of the run so it
    /// scales with `steps`: crash → crash → rejoin → join (at a disk
    /// checkpoint boundary) → join → leave, all within the first three
    /// quarters; the final quarter is the steady state the gates measure.
    fn faults(&self) -> FaultPlan {
        FaultPlan::new(SEED)
            .with_crash(1, self.steps / 8)
            .with_crash(3, self.steps / 4)
            .with_slowdown(2, 3.0)
            .with_corrupt(2, self.steps / 3)
            .with_drop(0, 2)
            .with_nonfinite(0, self.steps / 5)
    }

    fn membership(&self) -> MembershipPlan {
        MembershipPlan::none()
            .with_join(1, 3 * self.steps / 8)
            .with_join(WORKERS, self.steps / 2)
            .with_join(WORKERS + 1, 5 * self.steps / 8)
            .with_leave(0, 3 * self.steps / 4)
    }

    fn recovery(&self) -> RecoveryPolicy {
        RecoveryPolicy { step_timeout: Duration::from_millis(250), max_retries: 2, backoff: 2.0 }
    }

    /// The churn schedule as run options; every run of the soak starts
    /// from these.
    fn options(&self) -> RunOptions {
        RunOptions {
            faults: self.faults(),
            membership: self.membership(),
            recovery: self.recovery(),
            ..RunOptions::default()
        }
    }
}

fn data(n: usize) -> Vec<(Tensor, Vec<usize>)> {
    gaussian_batches(n, &[16, 6], 3, SEED * 1000)
}

fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::new(6, 32, true, seed).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(32, 3, true, seed + 1).unwrap()),
    ])
}

fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn max_rel_error(a: &[Tensor], b: &[Tensor]) -> f32 {
    let mut worst = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        for (&u, &v) in x.as_slice().iter().zip(y.as_slice()) {
            let denom = u.abs().max(v.abs()).max(1e-6);
            worst = worst.max((u - v).abs() / denom);
        }
    }
    worst
}

/// p50 of a set of durations in seconds, via the probe's log2-bucketed
/// [`probe::Histogram`] — the same summary the exporter emits, so the gate
/// and the report can never disagree on what "median round" means. Bucket
/// quantization (≤12.5%) is far inside the gate's 4× + 50ms slack.
fn p50_seconds(xs: &[f64]) -> f64 {
    let mut h = probe::Histogram::new();
    for &x in xs {
        h.record((x * 1e9).max(0.0) as u64);
    }
    h.p50() as f64 / 1e9
}

/// What the churned run and its replay ended in: the values behind the
/// gates, for the test that pins them exactly (`tests/gates.rs`).
pub struct SoakOutcomes {
    /// The churned run.
    pub main: DistOutcome,
    /// The mid-run checkpoint the replay resumed from.
    pub checkpoint: DistCheckpoint,
    /// The replay.
    pub replay: DistOutcome,
}

/// Runs the churned run, its replay and the two allocation runs, and
/// evaluates the five gates.
pub fn run(args: &Args) -> Record {
    run_with_outcomes(args).0
}

/// [`run`], also handing back the runs themselves.
pub fn run_with_outcomes(args: &Args) -> (Record, SoakOutcomes) {
    let mut rec = Record::new("soak");
    let cfg = SoakConfig { steps: args.scale.pick(24, 96) };
    let scratch = std::env::temp_dir().join(format!("puffer_soak_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let dist_cfg = DistConfig::p3(WORKERS, 0.05);
    let ckpt_every = cfg.steps / 4;

    // ---- Main churned run, fully instrumented. ----
    let workspace_was_enabled = workspace::enabled();
    workspace::set_enabled(true);
    probe::reset();
    probe::configure(probe::ProbeConfig::in_memory());
    stamp_run_header("soak", SEED, cfg.steps, &dist_cfg);
    let batches = data(cfg.steps);
    let opts =
        RunOptions { checkpoint: CheckpointPolicy::every(ckpt_every, &scratch), ..cfg.options() };
    let mut comp = NoCompression::new();
    let main: DistOutcome =
        train_data_parallel_with(|_| model(5), &batches, &mut comp, &dist_cfg, &opts)
            .expect("soak run must complete through the churn schedule");
    let events = probe::take_events();
    let counters = probe::counters_snapshot();
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    // Round-phase latency histograms, auto-recorded by the probe for every
    // span family; snapshot before reset clears the registry.
    let phase_hists = probe::hist_snapshot();
    rec.absorb_probe_header();
    probe::reset();

    // Schedule completeness: the run must have absorbed the full churn.
    let kind_count = |k: MemberEventKind| main.membership.iter().filter(|e| e.kind == k).count();
    let joins = kind_count(MemberEventKind::Join);
    let rejoins = kind_count(MemberEventKind::Rejoin);
    let crashes = kind_count(MemberEventKind::Crash);
    let leaves = kind_count(MemberEventKind::Leave);
    rec.gate(
        "churn_schedule_completed",
        // Net fleet: workers − 2 crashes + 1 rejoin + 2 joins − 1 leave.
        joins >= 2
            && rejoins >= 1
            && crashes >= 2
            && leaves >= 1
            && main.faults.corrupted_messages >= 1
            && main.faults.survivors == WORKERS,
        format!(
            "joins={joins} rejoins={rejoins} crashes={crashes} leaves={leaves} \
             corrupted={} dropped_retries_ok survivors={} epoch={}",
            main.faults.corrupted_messages, main.faults.survivors, main.final_epoch
        ),
    );

    // ---- Gate 3: monotone recovery from per-round probe spans. ----
    let mut rounds: Vec<(usize, f64)> = events
        .iter()
        .filter(|e| e.phase == 'X' && e.cat == "dist" && e.name == "round")
        .filter_map(|e| {
            e.args.iter().find(|(k, _)| *k == "step").and_then(|(_, v)| match v {
                probe::ArgValue::U64(s) => Some((*s as usize, e.dur.as_secs_f64())),
                _ => None,
            })
        })
        .collect();
    rounds.sort_by_key(|&(s, _)| s);
    let tail = cfg.steps.min(5);
    let steady: Vec<f64> = rounds.iter().rev().take(tail).map(|&(_, d)| d).collect();
    let baseline = p50_seconds(&steady);
    let threshold = baseline * 4.0 + 0.050;
    let mut recovery_ok = true;
    let mut worst_recovery = 0usize;
    for ev in &main.membership {
        let recovered = rounds
            .iter()
            .filter(|&&(s, _)| s > ev.step && s <= ev.step + RECOVERY_ROUNDS)
            .position(|&(_, d)| d <= threshold);
        match recovered {
            Some(i) => worst_recovery = worst_recovery.max(i + 1),
            None => recovery_ok = false,
        }
    }
    let end_steady = steady.iter().all(|&d| d <= threshold);
    rec.gate(
        "recovery_within_k_rounds",
        recovery_ok && end_steady && !rounds.is_empty(),
        format!(
            "rounds={} baseline_ms={:.3} threshold_ms={:.3} worst_recovery_rounds={} \
             k={RECOVERY_ROUNDS} end_steady={end_steady}",
            rounds.len(),
            baseline * 1e3,
            threshold * 1e3,
            worst_recovery
        ),
    );

    // ---- Gate 2: checkpoint-resume replay divergence. ----
    let resume_step = cfg.steps / 2;
    let ck_name = format!("dist_ckpt_{resume_step:06}.puft");
    let ck_path = main
        .checkpoints
        .iter()
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy() == ck_name))
        .expect("mid-run checkpoint must exist");
    let ck = DistCheckpoint::load(ck_path).expect("mid-run checkpoint must load");
    let replay_opts = RunOptions { resume: Some(ck.clone()), ..cfg.options() };
    let mut comp2 = NoCompression::new();
    let replay =
        train_data_parallel_with(|_| model(5), &batches, &mut comp2, &dist_cfg, &replay_opts)
            .expect("replay run must complete");
    let divergence = max_rel_error(&main.final_params, &replay.final_params);
    rec.gate(
        "replay_divergence_bounded",
        divergence <= DIVERGENCE_BOUND && replay.faults.survivors == main.faults.survivors,
        format!(
            "divergence={divergence:.3e} bound={DIVERGENCE_BOUND:.0e} resumed_at={resume_step} \
             replay_survivors={}",
            replay.faults.survivors
        ),
    );

    // ---- Gate 1: zero steady-state allocation (two-run comparison; the
    // churn schedule sits at identical absolute steps in both runs, so the
    // trailing extra rounds of the longer run are pure steady state). ----
    // Built once at the longer length and sliced per run: generating a
    // batch itself draws a pool buffer, so the two runs must share one data
    // materialization or the longer run shows a spurious miss.
    let alloc_data = data(cfg.steps + 4);
    let misses_for = |n_steps: usize| -> f64 {
        workspace::clear_thread_arena();
        probe::reset();
        probe::configure(probe::ProbeConfig::in_memory());
        let data = &alloc_data[..n_steps];
        let alloc_opts = cfg.options();
        let mut c = NoCompression::new();
        train_data_parallel_with(|_| model(5), data, &mut c, &dist_cfg, &alloc_opts)
            .expect("alloc-gate run");
        let misses = probe::counter_value("alloc.pool_misses").unwrap_or(0.0);
        probe::reset();
        misses
    };
    let warm = misses_for(cfg.steps);
    let extended = misses_for(cfg.steps + 4);
    rec.gate(
        "zero_steady_state_alloc",
        warm > 0.0 && extended == warm,
        format!("pool_misses warm={warm} extended={extended} delta={}", extended - warm),
    );

    // ---- Gate 4: no leaked threads, pool width restored. ----
    // Measured after every run: worker threads are scoped and must be
    // joined; only the persistent tensor-pool threads (created before the
    // baseline snapshot inside the first run) may remain.
    let width = puffer_tensor::pool::num_threads();
    let threads_after = os_thread_count();
    std::thread::sleep(Duration::from_millis(50));
    let threads_settled = os_thread_count();
    rec.gate(
        "no_leaked_threads",
        threads_settled <= threads_after && width == puffer_tensor::pool::num_threads(),
        format!("os_threads={threads_settled} pool_width={width}"),
    );

    // Best-effort cleanup of the scratch dir; leftovers are harmless.
    std::fs::remove_dir_all(&scratch).ok();
    workspace::set_enabled(workspace_was_enabled);

    let mut counts = Table::new(vec!["counter", "value"]);
    for name in [
        "dist.crashes",
        "dist.reshards",
        "dist.join_deferrals",
        "dist.corrupted_messages",
        "dist.dropped_messages",
        "dist.checkpoint_writes",
    ] {
        counts.row(vec![name.to_string(), counter(name).to_string()]);
    }
    rec.table(counts);
    // Per-phase round latency percentiles from the probe's auto-recorded
    // histograms (µs): the soak's latency fingerprint, diffable across
    // runs by `puffer-bench diff`.
    let mut phases = Table::new(vec!["phase", "count", "p50_us", "p99_us", "max_us"]);
    for ((_, name), h) in phase_hists.iter().filter(|((c, _), h)| *c == "dist" && !h.is_empty()) {
        phases.row(vec![
            name.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.p50() as f64 / 1e3),
            format!("{:.1}", h.p99() as f64 / 1e3),
            format!("{:.1}", h.max() as f64 / 1e3),
        ]);
    }
    rec.table(phases);
    (rec, SoakOutcomes { main, checkpoint: ck, replay })
}
