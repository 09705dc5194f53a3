//! Deterministic fault injection for the data-parallel trainer.
//!
//! Real clusters are not the perfect testbed the paper's Figure 4 assumes:
//! "Is Network the Bottleneck of Distributed Training?" (Zhang et al.)
//! stresses that stragglers and failures, not just bandwidth, dominate
//! deployments. A [`FaultPlan`] injects those scenarios into
//! [`crate::trainer::train_data_parallel_with`] deterministically — every
//! fault is a pure function of `(seed, worker, step)`, so a faulty run is
//! exactly reproducible and checkpoint-resume stays bitwise stable.
//!
//! Injectable faults:
//!
//! * **compute slowdown / straggler jitter** — per-worker multiplicative
//!   slowdown plus seeded multiplicative jitter, realized as a real sleep
//!   and accounted as compute time;
//! * **crash-at-step** — the worker thread exits before contributing
//!   ([`FaultPlan::with_crash`]) or right after its first payload of the
//!   round left ([`FaultPlan::with_crash_mid_round`]: between the phases of
//!   a multi-phase codec, before the verdict otherwise);
//! * **dropped messages** — a gradient message is lost on its first send
//!   attempt ([`FaultPlan::with_drop`], recovered by the worker's bounded
//!   resend) or on every attempt ([`FaultPlan::with_drop_all`], degraded
//!   around by the aggregator's step timeout);
//! * **bit corruption** — one seeded bit of the encoded message flips;
//!   detected by the aggregator via [`wire_checksum`] and the
//!   contribution is discarded;
//! * **non-finite gradients** — one element becomes `NaN`; the
//!   aggregator's AMP-style guard skips the step.

use puffer_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Upper bound on a single injected compute delay, so an absurd slowdown
/// factor cannot hang a run (the aggregator would time the worker out long
/// before this anyway).
pub const MAX_INJECTED_DELAY: Duration = Duration::from_secs(5);

const SALT_JITTER: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_CORRUPT: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_DROP: u64 = 0x94d0_49bb_1331_11eb;

/// SplitMix64: the deterministic hash behind every seeded fault decision.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic uniform value in `[0, 1)` from a seed.
#[expect(clippy::float_arithmetic, reason = "a fault-injection draw, not a gradient")]
pub(crate) fn unit_in_01(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic, seedable plan of faults to inject into one run.
///
/// The empty plan ([`FaultPlan::none`]) injects nothing and adds no
/// overhead beyond a few map lookups per step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-worker compute slowdown factor (≥ 1.0).
    slowdown: BTreeMap<usize, f64>,
    /// Fractional straggler jitter applied to every worker's compute.
    jitter: f64,
    /// Worker → steps at which it crashes (exits before contributing). A
    /// worker may carry several crash steps: after an elastic *rejoin* its
    /// first crash is history, and only crash steps at or after its
    /// re-entry step apply (see [`FaultPlan::should_crash_since`]).
    crashes: BTreeMap<usize, BTreeSet<usize>>,
    /// `(worker, step)` rounds in which the worker dies after its first
    /// payload left.
    mid_round_crashes: BTreeSet<(usize, usize)>,
    /// Messages lost on the first send attempt only (resend recovers).
    drop_once: BTreeSet<(usize, usize)>,
    /// Messages lost on every attempt (the contribution is gone).
    drop_all: BTreeSet<(usize, usize)>,
    /// Per-attempt random drop probability.
    drop_prob: f64,
    /// Messages whose payload gets one flipped bit.
    corrupt: BTreeSet<(usize, usize)>,
    /// Gradients that turn non-finite (AMP-overflow style).
    nonfinite: BTreeSet<(usize, usize)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan with a seed for the randomized faults (jitter,
    /// probabilistic drops, corruption sites).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Self::default() }
    }

    /// Slows `worker`'s compute by `factor` (≥ 1.0; values below 1 are
    /// clamped to 1).
    pub fn with_slowdown(mut self, worker: usize, factor: f64) -> Self {
        self.slowdown.insert(worker, factor.max(1.0));
        self
    }

    /// Adds multiplicative compute jitter: every worker's per-step compute
    /// is stretched by a seeded factor in `[1, 1 + jitter]`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Crashes `worker` at `step`: its thread exits without contributing
    /// to that or any later step. May be called several times for one
    /// worker — each crash step applies to the membership stint that
    /// contains it, so a rejoined worker can be crashed again.
    pub fn with_crash(mut self, worker: usize, step: usize) -> Self {
        self.crashes.entry(worker).or_default().insert(step);
        self
    }

    /// Crashes `worker` in the middle of round `step`: its thread exits
    /// once its first payload of the round has been sent, so a multi-phase
    /// round loses it between two phases and a one-phase round before the
    /// verdict is applied.
    pub fn with_crash_mid_round(mut self, worker: usize, step: usize) -> Self {
        self.mid_round_crashes.insert((worker, step));
        self
    }

    /// Drops `worker`'s step-`step` gradient message on the first send
    /// attempt; the worker's bounded resend recovers it.
    pub fn with_drop(mut self, worker: usize, step: usize) -> Self {
        self.drop_once.insert((worker, step));
        self
    }

    /// Drops `worker`'s step-`step` gradient message on **every** attempt;
    /// the aggregator degrades around the lost contribution.
    pub fn with_drop_all(mut self, worker: usize, step: usize) -> Self {
        self.drop_all.insert((worker, step));
        self
    }

    /// Drops any message with probability `p` per send attempt (seeded).
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Flips one seeded bit of `worker`'s step-`step` message payload.
    pub fn with_corrupt(mut self, worker: usize, step: usize) -> Self {
        self.corrupt.insert((worker, step));
        self
    }

    /// Makes one element of `worker`'s step-`step` gradient `NaN`.
    pub fn with_nonfinite(mut self, worker: usize, step: usize) -> Self {
        self.nonfinite.insert((worker, step));
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        *self == Self::default() || (self == &Self::new(self.seed))
    }

    fn mix(&self, salt: u64, worker: usize, step: usize) -> u64 {
        splitmix64(
            self.seed
                ^ salt
                ^ (worker as u64).wrapping_mul(0xa076_1d64_78bd_642f)
                ^ (step as u64).wrapping_mul(0xe703_7ed1_a0b4_28db),
        )
    }

    /// Extra compute delay for `worker` at `step` given its measured
    /// compute time: `(slowdown − 1 + jitter·u)·measured`, capped at
    /// [`MAX_INJECTED_DELAY`]. Deterministic in `(seed, worker, step)`.
    #[expect(clippy::float_arithmetic, reason = "prices an injected delay, not a gradient")]
    pub fn compute_delay(&self, worker: usize, step: usize, measured: Duration) -> Duration {
        let factor = self.slowdown.get(&worker).copied().unwrap_or(1.0);
        let jitter = if self.jitter > 0.0 {
            self.jitter * unit_in_01(self.mix(SALT_JITTER, worker, step))
        } else {
            0.0
        };
        let stretch = (factor - 1.0) + jitter;
        if stretch <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(measured.as_secs_f64() * stretch).min(MAX_INJECTED_DELAY)
    }

    /// Whether `worker` crashes at (or before) `step`, counting every
    /// scheduled crash from the beginning of the run (the static-fleet
    /// predicate; equivalent to [`FaultPlan::should_crash_since`] with
    /// `entry = 0`).
    pub fn should_crash(&self, worker: usize, step: usize) -> bool {
        self.should_crash_since(worker, step, 0)
    }

    /// Whether `worker` crashes at (or before) `step` given that its
    /// current membership stint began at `entry`: only crash steps in
    /// `entry..=step` fire. A worker that crashed, was re-admitted by the
    /// elastic trainer, and holds no *later* crash step stays alive —
    /// without the entry cut-off a rejoiner would re-crash on its first
    /// round, forever.
    pub fn should_crash_since(&self, worker: usize, step: usize, entry: usize) -> bool {
        if step < entry {
            return false;
        }
        self.crashes.get(&worker).is_some_and(|s| s.range(entry..=step).next().is_some())
    }

    /// Whether `worker` dies in round `step` after its first payload left.
    pub fn crashes_mid_round(&self, worker: usize, step: usize) -> bool {
        self.mid_round_crashes.contains(&(worker, step))
    }

    /// Whether `worker`'s step-`step` message is lost on send `attempt`.
    pub fn drops_message(&self, worker: usize, step: usize, attempt: u32) -> bool {
        if self.drop_all.contains(&(worker, step)) {
            return true;
        }
        if attempt == 0 && self.drop_once.contains(&(worker, step)) {
            return true;
        }
        self.drop_prob > 0.0
            && unit_in_01(self.mix(SALT_DROP ^ u64::from(attempt), worker, step)) < self.drop_prob
    }

    /// Applies bit corruption to an outgoing message (call **after**
    /// checksumming, so the receiver can detect it). Returns whether a bit
    /// was flipped.
    pub fn corrupt_message(&self, worker: usize, step: usize, grads: &mut [Tensor]) -> bool {
        if !self.corrupt.contains(&(worker, step)) {
            return false;
        }
        let total: usize = grads.iter().map(Tensor::len).sum();
        if total == 0 {
            return false;
        }
        let h = self.mix(SALT_CORRUPT, worker, step);
        let mut target = (h as usize) % total;
        let bit = (h >> 48) as u32 % 32;
        for g in grads.iter_mut() {
            let len = g.len();
            if let Some(v) = g.as_mut_slice().get_mut(target) {
                *v = f32::from_bits(v.to_bits() ^ (1 << bit));
                return true;
            }
            target -= len;
        }
        false
    }

    /// Injects a `NaN` into an outgoing gradient (before checksumming: the
    /// worker "really" computed it, as under AMP overflow). Returns whether
    /// an element was poisoned.
    pub fn inject_nonfinite(&self, worker: usize, step: usize, grads: &mut [Tensor]) -> bool {
        if !self.nonfinite.contains(&(worker, step)) {
            return false;
        }
        for g in grads.iter_mut() {
            if let Some(v) = g.as_mut_slice().first_mut() {
                *v = f32::NAN;
                return true;
            }
        }
        false
    }
}

/// FNV-1a over the bit patterns of every element of a tensor list, one
/// dependency chain from the first element to the last: the digest the
/// benchmark and the goldens identify a parameter set by. Messages on the
/// wire carry [`wire_checksum`] instead.
pub fn message_checksum(grads: &[Tensor]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for g in grads {
        h ^= g.len() as u64;
        h = h.wrapping_mul(FNV_PRIME);
        for &v in g.as_slice() {
            h ^= u64::from(v.to_bits());
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent FNV-1a chains [`wire_checksum`] folds a payload through.
const WIRE_LANES: usize = 8;

/// The integrity check a gradient message carries: element `i` goes
/// through FNV-1a chain `i mod 8`, and the eight chain values and the
/// length are folded through one more. The chains do not wait for each
/// other, so a sender and a receiver pay about a quarter of what
/// [`message_checksum`]'s single chain costs per float.
///
/// Every step — xor a word in, multiply by an odd constant — is a bijection
/// of the running value for a fixed word and injective in the word for a
/// fixed running value, in the chains and in the fold alike. A message that
/// differs from the checksummed one in exactly one element (a flipped bit
/// anywhere) therefore never keeps its checksum.
pub fn wire_checksum(payload: &[f32]) -> u64 {
    let mut lanes = [FNV_OFFSET; WIRE_LANES];
    let step = |h: &mut u64, v: f32| *h = (*h ^ u64::from(v.to_bits())).wrapping_mul(FNV_PRIME);
    let chunks = payload.chunks_exact(WIRE_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (h, &v) in lanes.iter_mut().zip(chunk) {
            step(h, v);
        }
    }
    for (h, &v) in lanes.iter_mut().zip(tail) {
        step(h, v);
    }
    let mut h = (FNV_OFFSET ^ payload.len() as u64).wrapping_mul(FNV_PRIME);
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Whether any element of any gradient is non-finite (the AMP-style skip
/// guard's predicate).
pub fn any_nonfinite(grads: &[Tensor]) -> bool {
    grads.iter().any(|g| g.as_slice().iter().any(|v| !v.is_finite()))
}

/// What actually happened during a faulty run — the trainer's account of
/// every degradation it absorbed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Workers detected dead, with the step of detection.
    pub crashed: Vec<(usize, usize)>,
    /// Steps skipped by the non-finite-gradient guard.
    pub skipped_steps: Vec<usize>,
    /// Contributions lost to timeouts (persistent drops or stragglers that
    /// outlasted the bounded retries).
    pub lost_contributions: usize,
    /// Contributions rejected by the checksum guard.
    pub corrupted_messages: usize,
    /// Late messages from a previous step, discarded on arrival.
    pub stale_messages: usize,
    /// Checkpoint snapshots that could not be collected from a leader.
    pub checkpoint_failures: usize,
    /// Workers still alive at the end of the run.
    pub survivors: usize,
}

impl FaultReport {
    /// Whether the run saw no degradation at all.
    pub fn is_clean(&self) -> bool {
        self.crashed.is_empty()
            && self.skipped_steps.is_empty()
            && self.lost_contributions == 0
            && self.corrupted_messages == 0
            && self.stale_messages == 0
            && self.checkpoint_failures == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.should_crash(0, 0));
        assert!(!p.drops_message(0, 0, 0));
        assert_eq!(p.compute_delay(0, 0, Duration::from_millis(10)), Duration::ZERO);
        let mut g = vec![Tensor::full(&[4], 1.0)];
        assert!(!p.corrupt_message(0, 0, &mut g));
        assert!(!p.inject_nonfinite(0, 0, &mut g));
        assert_eq!(g[0].as_slice(), &[1.0; 4]);
    }

    #[test]
    fn slowdown_scales_measured_compute() {
        let p = FaultPlan::new(1).with_slowdown(2, 3.0);
        let d = p.compute_delay(2, 5, Duration::from_millis(10));
        assert_eq!(d, Duration::from_millis(20)); // (3−1)×10ms
        assert_eq!(p.compute_delay(0, 5, Duration::from_millis(10)), Duration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = FaultPlan::new(7).with_jitter(0.5);
        let m = Duration::from_millis(100);
        let a = p.compute_delay(1, 3, m);
        let b = p.compute_delay(1, 3, m);
        assert_eq!(a, b, "same (seed, worker, step) must give the same jitter");
        assert!(a <= Duration::from_millis(50), "jitter delay {a:?} exceeds 0.5×measured");
        // Different steps decorrelate.
        let c = p.compute_delay(1, 4, m);
        assert_ne!(a, c);
    }

    #[test]
    fn injected_delay_is_capped() {
        let p = FaultPlan::new(1).with_slowdown(0, 1e9);
        assert_eq!(p.compute_delay(0, 0, Duration::from_secs(1)), MAX_INJECTED_DELAY);
    }

    #[test]
    fn crash_is_sticky_from_its_step() {
        let p = FaultPlan::new(1).with_crash(3, 5);
        assert!(!p.should_crash(3, 4));
        assert!(p.should_crash(3, 5));
        assert!(p.should_crash(3, 9));
        assert!(!p.should_crash(2, 9));
    }

    #[test]
    fn rejoin_entry_step_masks_spent_crashes() {
        // Crash at 5, rejoin at 8 → the spent crash never re-fires; a
        // second scheduled crash at 12 fires within the new stint.
        let p = FaultPlan::new(1).with_crash(3, 5).with_crash(3, 12);
        assert!(p.should_crash_since(3, 5, 0));
        assert!(!p.should_crash_since(3, 8, 8));
        assert!(!p.should_crash_since(3, 11, 8));
        assert!(p.should_crash_since(3, 12, 8));
        // A step before the entry never crashes.
        assert!(!p.should_crash_since(3, 7, 8));
        // The static predicate still sees the earliest crash.
        assert!(p.should_crash(3, 5));
    }

    #[test]
    fn drop_once_recovers_on_retry_drop_all_never() {
        let p = FaultPlan::new(1).with_drop(0, 2).with_drop_all(1, 2);
        assert!(p.drops_message(0, 2, 0));
        assert!(!p.drops_message(0, 2, 1), "resend of a drop-once message must succeed");
        for attempt in 0..5 {
            assert!(p.drops_message(1, 2, attempt));
        }
        assert!(!p.drops_message(0, 3, 0));
    }

    #[test]
    fn corruption_flips_exactly_one_bit_and_checksum_catches_it() {
        let p = FaultPlan::new(42).with_corrupt(1, 0);
        let mut grads = vec![Tensor::randn(&[3, 4], 1.0, 9), Tensor::randn(&[5], 1.0, 10)];
        let before = grads.clone();
        let sum = message_checksum(&grads);
        assert!(p.corrupt_message(1, 0, &mut grads));
        assert_ne!(message_checksum(&grads), sum);
        let diffs: usize = grads
            .iter()
            .zip(&before)
            .flat_map(|(a, b)| a.as_slice().iter().zip(b.as_slice()))
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn message_checksum_keeps_its_recorded_values() {
        // Parameter digests in benchmark/golden.json tooling and in recorded
        // test expectations are these values; the wire check may change,
        // this may not.
        assert_eq!(message_checksum(&[]), 0xcbf2_9ce4_8422_2325);
        let t = Tensor::from_vec(vec![1.0, -2.5, 0.0, 3.25], &[2, 2]).unwrap();
        assert_eq!(message_checksum(std::slice::from_ref(&t)), 0xf307_2e32_025e_3fc3);
    }

    #[test]
    fn wire_checksum_catches_every_single_bit_flip() {
        // Every bit position of every element, at lengths that end on each
        // lane: full chunks only, a tail, shorter than one chunk, empty.
        for len in [0usize, 1, 5, 8, 9, 16, 23, 64] {
            let t = Tensor::randn(&[len.max(1)], 1.0, len as u64);
            let clean = &t.as_slice()[..len];
            let sum = wire_checksum(clean);
            let copy = clean.to_vec();
            assert_eq!(sum, wire_checksum(&copy), "len {len}: not a function of data");
            for i in 0..len {
                for bit in 0..32 {
                    let mut dirty = clean.to_vec();
                    dirty[i] = f32::from_bits(dirty[i].to_bits() ^ (1 << bit));
                    assert_ne!(wire_checksum(&dirty), sum, "len {len}: flip {i}/{bit} missed");
                }
            }
        }
        // Length and order are part of the message.
        assert_ne!(wire_checksum(&[0.0; 8]), wire_checksum(&[0.0; 9]));
        assert_ne!(wire_checksum(&[1.0, 2.0]), wire_checksum(&[2.0, 1.0]));
        let mut swapped: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let sum = wire_checksum(&swapped);
        swapped.swap(0, 8); // same lane, different position
        assert_ne!(wire_checksum(&swapped), sum);
    }

    #[test]
    fn mid_round_crash_is_keyed_by_worker_and_step() {
        let p = FaultPlan::new(1).with_crash_mid_round(2, 4);
        assert!(p.crashes_mid_round(2, 4));
        assert!(!p.crashes_mid_round(2, 5));
        assert!(!p.crashes_mid_round(1, 4));
        assert!(!p.should_crash(2, 4), "a mid-round crash still starts the round");
        assert!(!p.is_empty());
    }

    #[test]
    fn nan_injection_detected_by_guard() {
        let p = FaultPlan::new(1).with_nonfinite(0, 1);
        let mut grads = vec![Tensor::full(&[3], 2.0)];
        assert!(!any_nonfinite(&grads));
        assert!(p.inject_nonfinite(0, 1, &mut grads));
        assert!(any_nonfinite(&grads));
    }

    #[test]
    fn checksum_is_order_and_value_sensitive() {
        let a = vec![Tensor::full(&[2], 1.0), Tensor::full(&[2], 2.0)];
        let b = vec![Tensor::full(&[2], 2.0), Tensor::full(&[2], 1.0)];
        assert_ne!(message_checksum(&a), message_checksum(&b));
        assert_eq!(message_checksum(&a), message_checksum(&a.clone()));
    }

    #[test]
    fn drop_prob_is_seeded_and_roughly_calibrated() {
        let p = FaultPlan::new(3).with_drop_prob(0.3);
        let hits = (0..1000).filter(|&s| p.drops_message(0, s, 0)).count();
        assert!((200..400).contains(&hits), "30% drop rate wildly off: {hits}/1000");
        let q = FaultPlan::new(3).with_drop_prob(0.3);
        let hits2 = (0..1000).filter(|&s| q.drops_message(0, s, 0)).count();
        assert_eq!(hits, hits2, "same seed must give same drop pattern");
    }
}
