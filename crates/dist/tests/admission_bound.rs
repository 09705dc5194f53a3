//! Admission to the replicas' timed regions, as a fact and not a timing: a
//! counting layer records how many replicas are inside `forward`/`backward`
//! at the same moment, and where a scenario says that a given number *can*
//! be inside together it makes them meet at a barrier — a run that admitted
//! fewer would hang there, one that admitted more trips the per-call count.
//! No sleep, no clock.
//!
//! One test: the bound is read off the process-global pool width, which a
//! second run in the same process would be re-pricing at the same time.

use puffer_compress::none::NoCompression;
use puffer_dist::cost::ClusterProfile;
use puffer_dist::error::DistError;
use puffer_dist::fault::FaultPlan;
use puffer_dist::membership::MemberEventKind;
use puffer_dist::trainer::{train_data_parallel_with, DistConfig, RecoveryPolicy, RunOptions};
use puffer_nn::activation::Relu;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::Linear;
use puffer_nn::param::Param;
use puffer_nn::Sequential;
use puffer_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the replicas of one run tell each other and the test.
struct Census {
    inside: AtomicUsize,
    /// The most replicas ever inside at once.
    most: AtomicUsize,
    /// Entries that found more replicas inside than the bound of the moment,
    /// `max(1, hardware threads / pool width)`.
    over: AtomicUsize,
    /// `(step, parties)`: the forward pass of that step waits until that
    /// many replicas are inside it.
    meet: Option<(usize, Barrier)>,
}

impl Census {
    fn new(meet: Option<(usize, usize)>) -> Arc<Self> {
        Arc::new(Census {
            inside: AtomicUsize::new(0),
            most: AtomicUsize::new(0),
            over: AtomicUsize::new(0),
            meet: meet.map(|(step, parties)| (step, Barrier::new(parties))),
        })
    }

    fn most(&self) -> usize {
        self.most.load(Ordering::SeqCst)
    }

    fn over(&self) -> usize {
        self.over.load(Ordering::SeqCst)
    }
}

/// An identity layer that counts itself in and out of every pass.
struct Counted {
    census: Arc<Census>,
    /// The step of the next forward pass.
    step: usize,
}

impl Counted {
    fn pass(&self, meet: bool) {
        let now = self.census.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.census.most.fetch_max(now, Ordering::SeqCst);
        let bound = (hardware_threads() / puffer_tensor::pool::num_threads()).max(1);
        if now > bound {
            self.census.over.fetch_add(1, Ordering::SeqCst);
        }
        match &self.census.meet {
            Some((step, barrier)) if meet && *step == self.step => {
                barrier.wait();
            }
            // Room for anybody who should not be here to show up.
            _ => (0..32).for_each(|_| std::thread::yield_now()),
        }
        self.census.inside.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Layer for Counted {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.pass(true);
        self.step += 1;
        input.clone()
    }
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.pass(false);
        grad_output.clone()
    }
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
    fn describe(&self) -> String {
        "Counted".to_string()
    }
}

/// A replica whose first pass is step `entry`.
fn replica(census: &Arc<Census>, entry: usize) -> Sequential {
    Sequential::new(vec![
        Box::new(Counted { census: Arc::clone(census), step: entry }),
        Box::new(Linear::new(6, 16, true, 5).unwrap()),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 3, true, 6).unwrap()),
    ])
}

fn batches(n: usize, rows: usize) -> Vec<(Tensor, Vec<usize>)> {
    (0..n)
        .map(|b| {
            let x = Tensor::randn(&[rows, 6], 1.0, 900 + b as u64);
            (x, (0..rows).map(|i| (i + b) % 3).collect())
        })
        .collect()
}

fn cfg(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
        profile: ClusterProfile::zero_cost(workers),
    }
}

fn quick_recovery() -> RecoveryPolicy {
    RecoveryPolicy { step_timeout: Duration::from_millis(80), max_retries: 2, backoff: 2.0 }
}

/// More members than hardware threads: the pool is one thread wide, one
/// member per hardware thread is inside — that many meet in round 1's
/// forward pass — and never one more.
fn an_oversubscribed_run_admits_one_member_per_hardware_thread(hw: usize) {
    // The smallest multiple of `hw` that is at least 8, so the barrier's
    // parties come in full sets.
    let workers = hw * 8usize.div_ceil(hw);
    let census = Census::new(Some((1, hw)));
    let out = train_data_parallel_with(
        |_| replica(&census, 0),
        &batches(3, workers * 2),
        &mut NoCompression::new(),
        &cfg(workers),
        &RunOptions::default(),
    )
    .unwrap();
    assert!(out.faults.is_clean(), "{:?}", out.faults);
    assert_eq!(census.over(), 0, "{workers} members on {hw} hardware threads");
    assert_eq!(census.most(), hw, "{workers} members on {hw} hardware threads");
}

/// As many members as hardware threads, or fewer: all of them are inside
/// together. Nobody waited.
fn a_run_that_fits_the_hardware_admits_everybody(hw: usize) {
    let workers = hw.min(4);
    let census = Census::new(Some((1, workers)));
    let out = train_data_parallel_with(
        |_| replica(&census, 0),
        &batches(3, workers * 2),
        &mut NoCompression::new(),
        &cfg(workers),
        &RunOptions::default(),
    )
    .unwrap();
    assert!(out.faults.is_clean(), "{:?}", out.faults);
    assert_eq!(census.over(), 0);
    assert_eq!(census.most(), workers);
}

/// One member (the whole pool, one slot) grows to `min(hw, 4)` at boundary 1
/// — they all meet in round 2, so the join raised the bound — and loses one
/// to a crash in round 3; the count never passes the bound of the moment.
fn a_join_and_a_crash_reprice_the_bound(hw: usize) {
    let members = hw.min(4);
    let census = Census::new(Some((2, members)));
    let mut opts = RunOptions { recovery: quick_recovery(), ..RunOptions::default() };
    for joiner in 1..members {
        opts.membership = opts.membership.with_join(joiner, 1);
    }
    if members > 1 {
        opts.faults = FaultPlan::new(3).with_crash(members - 1, 3);
    }
    let out = train_data_parallel_with(
        |w| replica(&census, usize::from(w > 0)),
        &batches(5, 8),
        &mut NoCompression::new(),
        &cfg(1),
        &opts,
    )
    .unwrap();
    let kinds: Vec<_> = out.membership.iter().map(|e| e.kind).collect();
    let mut want = vec![MemberEventKind::Join; members - 1];
    want.extend((members > 1).then_some(MemberEventKind::Crash));
    assert_eq!(kinds, want);
    assert_eq!(census.over(), 0);
    assert_eq!(census.most(), members);
}

/// As many members as there are slots (on up to four hardware threads)
/// leave the run the hard way in round 1 — crashed mid-round by the fault
/// plan, or returning fatally from inside the timed region on a label no
/// class has. Had each kept its slot, nobody else would get in again and
/// the run would never return.
fn departures_leave_no_slot_behind(hw: usize) {
    let leavers = hw.min(4);
    let workers = leavers + 2;
    let census = Census::new(None);
    let mut faults = FaultPlan::new(9);
    for w in 0..leavers {
        faults = faults.with_crash_mid_round(w, 1);
    }
    let opts = RunOptions { faults, recovery: quick_recovery(), ..RunOptions::default() };
    let out = train_data_parallel_with(
        |_| replica(&census, 0),
        &batches(4, workers * 2),
        &mut NoCompression::new(),
        &cfg(workers),
        &opts,
    )
    .unwrap();
    assert_eq!(out.faults.survivors, 2);
    assert_eq!(out.step_losses.len(), 4);
    assert_eq!(census.over(), 0);

    let census = Census::new(None);
    let mut data = batches(4, workers * 2);
    data[1].1.fill(3);
    let result = train_data_parallel_with(
        |_| replica(&census, 0),
        &data,
        &mut NoCompression::new(),
        &cfg(workers),
        &RunOptions::default(),
    );
    assert!(matches!(result, Err(DistError::WorkerFailed { .. })), "{:?}", result.map(|_| ()));
    assert_eq!(census.over(), 0);
}

#[test]
fn at_most_hardware_over_pool_width_replicas_compute_at_once() {
    let hw = hardware_threads();
    an_oversubscribed_run_admits_one_member_per_hardware_thread(hw);
    a_run_that_fits_the_hardware_admits_everybody(hw);
    a_join_and_a_crash_reprice_the_bound(hw);
    departures_leave_no_slot_behind(hw);
}
