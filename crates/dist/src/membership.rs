//! Elastic cluster membership: the epoch state machine behind mid-run
//! joins, voluntary leaves, and crash departures.
//!
//! PR 2's fault tolerance shrank the member set on crashes but the world
//! stayed static: dead workers stayed dead and nobody could be added. Real
//! deployments churn (PAPERS.md: *Is Network the Bottleneck of Distributed
//! Training?*), and low-rank state is exactly what makes cheap worker
//! catch-up feasible (AB-Training, arXiv 2405.01067). This module provides
//! the bookkeeping half of that story:
//!
//! * [`Membership`] — the authoritative active-member set, versioned by a
//!   monotonically increasing **epoch**. Every transition (join, rejoin,
//!   leave, crash) bumps the epoch and appends a [`MemberEvent`] to an
//!   audit log the trainer returns in its outcome.
//! * [`MembershipPlan`] — a deterministic schedule of joins and voluntary
//!   leaves by global step, mirroring [`crate::fault::FaultPlan`]'s
//!   builder style so churn scenarios are exactly reproducible.
//! * [`PoolWidthGuard`] — how the hardware threads are divided among the
//!   members: the RAII tensor-pool-width cap and, beside it, admission to
//!   the members' timed regions (`Slots`). The membership module is the
//!   **only** place in `puffer-dist` allowed to mutate the pool width
//!   (enforced by the `dist-pool-width-via-membership` lint rule) and holds
//!   the crate's one lock, because both numbers are functions of the active
//!   member count and must be re-priced together on every epoch change.
//!
//! The trainer's catch-up protocol (how a joiner obtains state and enters
//! the lockstep round) lives in [`crate::trainer`]; see DESIGN.md §11 for
//! the state machine diagram.

use crate::error::{DistError, DistResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Probe event category used for every membership transition.
pub const PROBE_CATEGORY: &str = "membership";
/// Probe event name for a worker entering the active set.
pub const EV_JOINED: &str = "member_joined";
/// Probe event name for a voluntary departure.
pub const EV_LEFT: &str = "member_left";
/// Probe event name for a crash departure.
pub const EV_CRASHED: &str = "member_crashed";
/// Probe event name for a joiner loading catch-up state.
pub const EV_CATCH_UP: &str = "catch_up";
/// JSONL metrics row type for membership transitions.
pub const ROW_TYPE: &str = "membership_event";

/// Lifecycle state of one worker id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Participating in lockstep rounds.
    Active,
    /// Retired voluntarily at the recorded step.
    Left(usize),
    /// Detected dead at the recorded step.
    Crashed(usize),
}

/// What kind of transition a [`MemberEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEventKind {
    /// A fresh worker id entered the active set.
    Join,
    /// A previously departed worker id re-entered the active set.
    Rejoin,
    /// A worker retired voluntarily.
    Leave,
    /// A worker was detected dead.
    Crash,
}

impl MemberEventKind {
    /// Stable lowercase name (used in probe/JSONL attribution).
    pub fn name(self) -> &'static str {
        match self {
            MemberEventKind::Join => "join",
            MemberEventKind::Rejoin => "rejoin",
            MemberEventKind::Leave => "leave",
            MemberEventKind::Crash => "crash",
        }
    }
}

/// One membership transition, with full worker + step + epoch attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberEvent {
    /// The worker id the transition concerns.
    pub worker: usize,
    /// Global step at which the transition took effect.
    pub step: usize,
    /// Membership epoch *after* the transition.
    pub epoch: u64,
    /// What happened.
    pub kind: MemberEventKind,
}

/// The active-member set, versioned by epoch.
///
/// Transitions never reuse an epoch: each successful [`Membership::join`],
/// [`Membership::leave`], or [`Membership::crash`] increments it, so two
/// views with equal epochs are guaranteed to hold identical member sets —
/// the invariant the trainer's per-step `Step` broadcast relies on to
/// keep worker-side shard caches coherent.
#[derive(Debug, Clone)]
pub struct Membership {
    epoch: u64,
    states: BTreeMap<usize, MemberState>,
    log: Vec<MemberEvent>,
}

impl Membership {
    /// A fresh membership at epoch 0 with `initial` all active.
    pub fn new<I: IntoIterator<Item = usize>>(initial: I) -> Self {
        Self::with_epoch(initial, 0)
    }

    /// A membership restored from a checkpoint: `initial` active at
    /// `epoch` (the resumed run continues the epoch sequence rather than
    /// restarting it, so probe attribution stays monotone across resume).
    pub fn with_epoch<I: IntoIterator<Item = usize>>(initial: I, epoch: u64) -> Self {
        let states = initial.into_iter().map(|w| (w, MemberState::Active)).collect();
        Membership { epoch, states, log: Vec::new() }
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Active member ids in ascending order.
    pub fn active(&self) -> Vec<usize> {
        self.states
            .iter()
            .filter(|(_, s)| matches!(s, MemberState::Active))
            .map(|(&w, _)| w)
            .collect()
    }

    /// Number of active members.
    pub fn active_count(&self) -> usize {
        self.states.values().filter(|s| matches!(s, MemberState::Active)).count()
    }

    /// Whether `worker` is currently active.
    pub fn is_active(&self, worker: usize) -> bool {
        matches!(self.states.get(&worker), Some(MemberState::Active))
    }

    /// The recorded lifecycle state of `worker`, if it was ever a member.
    pub fn state_of(&self, worker: usize) -> Option<MemberState> {
        self.states.get(&worker).copied()
    }

    /// `worker`'s rank within the ascending active set (its shard index).
    pub fn rank_of(&self, worker: usize) -> Option<usize> {
        if !self.is_active(worker) {
            return None;
        }
        Some(
            self.states
                .iter()
                .filter(|(_, s)| matches!(s, MemberState::Active))
                .take_while(|(&w, _)| w < worker)
                .count(),
        )
    }

    /// Admits `worker` at `step`. A worker id seen before (left or
    /// crashed) produces a [`MemberEventKind::Rejoin`], a fresh id a
    /// [`MemberEventKind::Join`]. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`DistError::Membership`] if `worker` is already active — the plan
    /// asked to join a member that never departed.
    pub fn join(&mut self, worker: usize, step: usize) -> DistResult<u64> {
        let kind = match self.states.get(&worker) {
            Some(MemberState::Active) => {
                return Err(DistError::Membership {
                    reason: format!("worker {worker} cannot join at step {step}: already active"),
                });
            }
            Some(_) => MemberEventKind::Rejoin,
            None => MemberEventKind::Join,
        };
        self.states.insert(worker, MemberState::Active);
        Ok(self.advance(worker, step, kind))
    }

    /// Retires `worker` voluntarily at `step`. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`DistError::Membership`] if `worker` is not active.
    pub fn leave(&mut self, worker: usize, step: usize) -> DistResult<u64> {
        if !self.is_active(worker) {
            return Err(DistError::Membership {
                reason: format!("worker {worker} cannot leave at step {step}: not active"),
            });
        }
        self.states.insert(worker, MemberState::Left(step));
        Ok(self.advance(worker, step, MemberEventKind::Leave))
    }

    /// Records `worker` detected dead at `step`. Idempotent for an already
    /// departed worker (detection can race a scheduled leave); returns the
    /// (possibly unchanged) epoch.
    pub fn crash(&mut self, worker: usize, step: usize) -> u64 {
        if !self.is_active(worker) {
            return self.epoch;
        }
        self.states.insert(worker, MemberState::Crashed(step));
        self.advance(worker, step, MemberEventKind::Crash)
    }

    /// The transition audit log, in occurrence order.
    pub fn log(&self) -> &[MemberEvent] {
        &self.log
    }

    /// Consumes the membership, returning the audit log.
    pub fn into_log(self) -> Vec<MemberEvent> {
        self.log
    }

    fn advance(&mut self, worker: usize, step: usize, kind: MemberEventKind) -> u64 {
        self.epoch += 1;
        self.log.push(MemberEvent { worker, step, epoch: self.epoch, kind });
        self.epoch
    }
}

/// A deterministic schedule of joins and voluntary leaves by global step.
///
/// Joins are *requests*: a join scheduled at step `s` is admitted at the
/// first step `u ≥ max(s, start + 1)` for which the trainer holds catch-up
/// state (a post-verdict snapshot of the previous round), so churn can
/// never tear a round in half. Leaves take effect exactly at their step:
/// the leaver is retired before the step-`u` round begins and contributes
/// nothing to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    joins: BTreeMap<usize, BTreeSet<usize>>,
    leaves: BTreeMap<usize, BTreeSet<usize>>,
}

impl MembershipPlan {
    /// A plan with no churn at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules `worker` to join (or rejoin) at `step`.
    pub fn with_join(mut self, worker: usize, step: usize) -> Self {
        self.joins.entry(step).or_default().insert(worker);
        self
    }

    /// Schedules `worker` to leave voluntarily at `step`.
    pub fn with_leave(mut self, worker: usize, step: usize) -> Self {
        self.leaves.entry(step).or_default().insert(worker);
        self
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// Every worker id the plan ever joins.
    pub fn join_ids(&self) -> BTreeSet<usize> {
        self.joins.values().flatten().copied().collect()
    }

    /// Every worker id the plan ever retires.
    pub fn leave_ids(&self) -> BTreeSet<usize> {
        self.leaves.values().flatten().copied().collect()
    }

    /// All `(worker, scheduled_step)` join requests with step ≤ `through`.
    pub fn joins_through(&self, through: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.joins.range(..=through).flat_map(|(&s, ws)| ws.iter().map(move |&w| (w, s)))
    }

    /// Worker ids scheduled to leave exactly at `step`.
    pub fn leaves_at(&self, step: usize) -> impl Iterator<Item = usize> + '_ {
        self.leaves.get(&step).into_iter().flatten().copied()
    }

    /// Validates internal consistency: a worker may not be scheduled to
    /// both join and leave at the same step (the ordering would be
    /// ambiguous), and join steps must leave at least one prior round to
    /// snapshot catch-up state from (step ≥ 1).
    ///
    /// # Errors
    ///
    /// [`DistError::Membership`] describing the first violation.
    pub fn validate(&self) -> DistResult<()> {
        if let Some(ws) = self.joins.get(&0) {
            if let Some(&w) = ws.iter().next() {
                return Err(DistError::Membership {
                    reason: format!(
                        "worker {w} cannot join at step 0: there is no prior round to \
                         snapshot catch-up state from (make it an initial member instead)"
                    ),
                });
            }
        }
        for (&step, joiners) in &self.joins {
            if let Some(leavers) = self.leaves.get(&step) {
                if let Some(&w) = joiners.intersection(leavers).next() {
                    return Err(DistError::Membership {
                        reason: format!(
                            "worker {w} is scheduled to both join and leave at step {step}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Admission to the replicas' timed regions — forward/backward, a phase's
/// encode, decode + optimizer step: at most `limit` members are inside one
/// at a time, so a member's clock reads its own work there and not the
/// scheduler's share of an oversubscribed host.
///
/// The crate's one lock, and why it cannot hang: one mutex, so no order;
/// held for a counter update, never across a channel call, a sleep or a
/// second wait; what a member holds while it computes is a [`Slot`], not the
/// lock, nothing in a timed region waits for another member, and `limit ≥
/// 1`: every slot comes back and every waiter gets in. Both integers are
/// valid after each single write and nothing that can panic runs under the
/// lock, so a poisoned one is simply taken.
#[expect(
    clippy::disallowed_types,
    reason = "a counting wait has no sender to be a channel receive of; the liveness argument \
              the ban asks for is the module's doc"
)]
mod admission {
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

    #[derive(Debug)]
    pub(crate) struct Slots {
        /// `(members inside a timed region, how many may be)`.
        state: Mutex<(usize, usize)>,
        freed: Condvar,
    }

    /// One member's place inside a timed region, given back on drop — an
    /// early return, an injected crash and a panic's unwind included.
    pub(crate) struct Slot<'a>(&'a Slots);

    impl Slots {
        pub(super) fn new() -> Self {
            Slots { state: Mutex::new((0, 1)), freed: Condvar::new() }
        }

        fn state(&self) -> MutexGuard<'_, (usize, usize)> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        pub(super) fn set_limit(&self, limit: usize) {
            self.state().1 = limit.max(1);
            self.freed.notify_all();
        }

        /// Waits until fewer than `limit` members are inside, then enters.
        pub(crate) fn enter(&self) -> Slot<'_> {
            let mut state = self.state();
            while state.0 >= state.1 {
                state = self.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.0 += 1;
            Slot(self)
        }
    }

    impl Drop for Slot<'_> {
        fn drop(&mut self) {
            let mut state = self.0.state();
            state.0 = state.0.saturating_sub(1);
            drop(state);
            self.0.freed.notify_one();
        }
    }
}
pub(crate) use admission::Slots;

/// How a run divides the hardware threads among its members: the tensor
/// pool is capped to `hw / members` threads (at least one), and at most
/// `hw / pool width` members are inside a timed region at once
/// (`Slots`) — every member, when `members ≤ hw`. Both are re-priced on
/// every membership epoch change ([`PoolWidthGuard::recap`]); the width is
/// restored when the run ends, even on an error path.
///
/// Public so integration tests can exercise the width-restore contract
/// (including under panics and nested probe spans) directly.
pub struct PoolWidthGuard {
    prev: usize,
    slots: Arc<Slots>,
}

impl PoolWidthGuard {
    /// Caps the pool so `concurrently computing members × pool threads`
    /// stays within the hardware parallelism. Neither number changes
    /// numerical results (the pool's kernels are bitwise deterministic, a
    /// member's arithmetic does not depend on when it runs), only
    /// contention.
    pub fn cap_for(n_workers: usize) -> Self {
        let prev = puffer_tensor::pool::num_threads();
        let mut guard = PoolWidthGuard { prev, slots: Arc::new(Slots::new()) };
        guard.recap(n_workers);
        guard
    }

    /// Re-prices the cap and the admission bound for a changed active
    /// member count (join or departure): the freed — or newly contended —
    /// hardware threads are redistributed across the members that remain.
    #[expect(
        clippy::disallowed_methods,
        reason = "this guard is the pool width's one writer in puffer-dist"
    )]
    pub fn recap(&mut self, n_workers: usize) {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let width = (hw / n_workers.max(1)).max(1).min(self.prev);
        puffer_tensor::pool::set_num_threads(width);
        self.slots.set_limit(hw / width);
    }

    /// The run's admission counter, for its member threads to share.
    pub(crate) fn slots(&self) -> Arc<Slots> {
        Arc::clone(&self.slots)
    }
}

impl Drop for PoolWidthGuard {
    #[expect(
        clippy::disallowed_methods,
        reason = "this guard is the pool width's one writer in puffer-dist"
    )]
    fn drop(&mut self) {
        puffer_tensor::pool::set_num_threads(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances_on_every_transition() {
        let mut m = Membership::new(0..3);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.active(), vec![0, 1, 2]);

        m.crash(1, 4);
        assert_eq!(m.epoch(), 1);
        assert!(!m.is_active(1));

        m.join(3, 6).unwrap();
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.active(), vec![0, 2, 3]);

        m.leave(0, 7).unwrap();
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.active(), vec![2, 3]);

        let kinds: Vec<_> = m.log().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MemberEventKind::Crash, MemberEventKind::Join, MemberEventKind::Leave]
        );
        assert!(m.log().iter().zip(1u64..).all(|(e, i)| e.epoch == i));
    }

    #[test]
    fn rejoin_is_distinguished_from_join() {
        let mut m = Membership::new(0..2);
        m.crash(1, 2);
        m.join(1, 5).unwrap();
        assert_eq!(m.log().last().unwrap().kind, MemberEventKind::Rejoin);
        assert!(m.is_active(1));
        // A worker that never departed cannot join again.
        assert!(matches!(m.join(1, 6), Err(DistError::Membership { .. })));
    }

    #[test]
    fn leave_requires_active_and_crash_is_idempotent() {
        let mut m = Membership::new(0..2);
        assert!(matches!(m.leave(7, 1), Err(DistError::Membership { .. })));
        m.leave(0, 1).unwrap();
        let e = m.epoch();
        // Crashing an already departed worker changes nothing.
        assert_eq!(m.crash(0, 2), e);
        assert_eq!(m.log().len(), 1);
        assert_eq!(m.state_of(0), Some(MemberState::Left(1)));
    }

    #[test]
    fn rank_follows_ascending_active_ids() {
        let mut m = Membership::new([0, 2, 5]);
        assert_eq!(m.rank_of(0), Some(0));
        assert_eq!(m.rank_of(2), Some(1));
        assert_eq!(m.rank_of(5), Some(2));
        assert_eq!(m.rank_of(1), None);
        m.crash(2, 1);
        assert_eq!(m.rank_of(5), Some(1));
    }

    #[test]
    fn restored_membership_continues_the_epoch_sequence() {
        let mut m = Membership::with_epoch([0, 2], 7);
        assert_eq!(m.epoch(), 7);
        m.join(4, 9).unwrap();
        assert_eq!(m.epoch(), 8);
    }

    #[test]
    fn plan_builder_and_queries() {
        let p =
            MembershipPlan::none().with_join(4, 3).with_join(5, 8).with_leave(0, 6).with_join(1, 8);
        assert!(!p.is_empty());
        assert!(MembershipPlan::none().is_empty());
        assert_eq!(p.join_ids(), BTreeSet::from([1, 4, 5]));
        let due: Vec<_> = p.joins_through(8).collect();
        assert_eq!(due, vec![(4, 3), (1, 8), (5, 8)]);
        assert_eq!(p.joins_through(2).count(), 0);
        assert_eq!(p.leaves_at(6).collect::<Vec<_>>(), vec![0]);
        assert_eq!(p.leaves_at(5).count(), 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn plan_rejects_step_zero_join_and_same_step_join_leave() {
        let p = MembershipPlan::none().with_join(3, 0);
        assert!(matches!(p.validate(), Err(DistError::Membership { .. })));
        let p = MembershipPlan::none().with_join(3, 5).with_leave(3, 5);
        assert!(matches!(p.validate(), Err(DistError::Membership { .. })));
    }

    #[test]
    fn pool_guard_recaps_and_restores_width() {
        let before = puffer_tensor::pool::num_threads();
        {
            let mut g = PoolWidthGuard::cap_for(64);
            assert!(puffer_tensor::pool::num_threads() <= before);
            // Shrinking the member set may widen the per-member cap, but
            // never beyond the pre-run width.
            g.recap(1);
            assert!(puffer_tensor::pool::num_threads() <= before);
        }
        assert_eq!(puffer_tensor::pool::num_threads(), before);
    }
}
