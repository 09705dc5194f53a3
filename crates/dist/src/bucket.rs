//! Gradient bucketing for comm/compute overlap: the bucket plan, the
//! worker-side readiness tracker, and the aggregator-side
//! [`BucketedReducer`].
//!
//! The PR 5 trainer packs every gradient into one flat buffer and prices a
//! single allreduce per round. Real DDP instead splits the flat buffer
//! into size-targeted buckets assigned in **reverse-backward order** (the
//! tail layers' gradients finalize first during backward) and starts
//! reducing each bucket as soon as its last layer's backward completes —
//! hiding communication behind the remaining compute. This module owns the
//! deterministic machinery of that overlap:
//!
//! * [`BucketPlan`] — maps a [`PackLayout`] to contiguous element ranges,
//!   bucket 0 covering the *last* tensors (first ready). The default
//!   bucket size is `usize::MAX`: one bucket, byte-identical to the PR 5
//!   synchronous path.
//! * [`ReadyTracker`] — records, per bucket, the backward-elapsed time at
//!   which its lowest tensor's gradient finalized (fed by
//!   `Layer::backward_with_ready`).
//! * [`BucketedReducer`] — per-bucket ready-counting over the workers'
//!   in-flight bucket messages, eagerly reducing a bucket the moment every
//!   expected worker has delivered it. The apply order is **pinned**:
//!   contributions are summed in worker-id order (lowest id first) and
//!   scaled once by `1/n`, reproducing `exact_mean` bit for bit at any
//!   bucket size, arrival order, or thread count. All buffers are reused
//!   across rounds — the steady state allocates nothing.

#![expect(
    clippy::float_arithmetic,
    reason = "one of the two owners of gradient summation order: the reducer adds \
              contributors in pinned id order"
)]

use crate::breakdown::BucketComm;
use puffer_compress::pack::PackLayout;
use puffer_tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;

/// How a flat gradient buffer is split into buckets, in **ready order**
/// (bucket 0 = the tail tensors whose gradients finalize first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketPlan {
    /// Per-bucket element range in the flat buffer.
    ranges: Vec<Range<usize>>,
    /// Per-bucket lowest tensor index (the bucket is ready once this
    /// tensor's gradient is final).
    first_tensor: Vec<usize>,
    /// Total flat elements.
    total: usize,
}

impl BucketPlan {
    /// Splits `layout` into buckets of at least `bucket_bytes` bytes,
    /// walking tensors in reverse (the DDP assignment). `usize::MAX`
    /// yields a single bucket — the synchronous flat path. There is always
    /// at least one bucket, even for an empty layout.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes` is zero.
    pub fn new(layout: &PackLayout, bucket_bytes: usize) -> Self {
        assert!(bucket_bytes > 0, "bucket size must be nonzero");
        let count = layout.tensor_count();
        let mut ranges = Vec::new();
        let mut first_tensor = Vec::new();
        let mut hi = count; // exclusive tensor bound of the open bucket
        let mut acc = 0usize;
        for i in (0..count).rev() {
            acc = acc.saturating_add(layout.range_of(i).len() * 4);
            if acc >= bucket_bytes {
                ranges.push(layout.range_of(i).start..layout.range_of(hi - 1).end);
                first_tensor.push(i);
                hi = i;
                acc = 0;
            }
        }
        if hi > 0 {
            ranges.push(0..layout.range_of(hi - 1).end);
            first_tensor.push(0);
        }
        if ranges.is_empty() {
            // Zero tensors: keep the one-bucket protocol invariant alive.
            ranges.push(0..layout.total_len());
            first_tensor.push(0);
        }
        BucketPlan { ranges, first_tensor, total: layout.total_len() }
    }

    /// Number of buckets (always ≥ 1).
    pub fn buckets(&self) -> usize {
        self.ranges.len()
    }

    /// Element range of bucket `b` in the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[expect(clippy::indexing_slicing, reason = "b comes from iterating 0..buckets()")]
    pub fn range(&self, b: usize) -> Range<usize> {
        self.ranges[b].clone()
    }

    /// Bucket `b`'s payload in bytes.
    pub fn bytes(&self, b: usize) -> usize {
        self.range(b).len() * 4
    }

    /// Lowest tensor index in bucket `b` — the bucket is ready once this
    /// tensor's gradient has finalized during backward.
    #[expect(clippy::indexing_slicing, reason = "b comes from iterating 0..buckets()")]
    pub fn first_tensor(&self, b: usize) -> usize {
        self.first_tensor[b]
    }

    /// Total flat elements across all buckets.
    pub fn total_elems(&self) -> usize {
        self.total
    }

    /// Per-bucket byte sizes in ready order (for tests and pricing).
    pub fn byte_sizes(&self) -> Vec<usize> {
        (0..self.buckets()).map(|b| self.bytes(b)).collect()
    }
}

/// Lays one round's per-bucket collectives on the modeled timeline — the
/// one place overlap is priced, for the trainer's aggregator and for the
/// Figure 4(c) DDP scaling study alike. Collectives serialize on a single
/// stream (as on an NCCL stream): bucket `b`'s starts once its gradients
/// are final — `ready_us[b]` µs into the step's compute (see
/// [`ReadyTracker`]), never later than `compute` itself — *and* the
/// previous collective finished. `comm(bytes)` prices one bucket's
/// collective. Whatever runs past `compute` is the bucket's *exposed*
/// share; the rest hid behind still-running backward, so the step takes
/// `compute + Σ exposed`.
pub fn overlap_timeline(
    plan: &BucketPlan,
    ready_us: &[u64],
    compute: Duration,
    contributors: usize,
    comm: impl Fn(usize) -> Duration,
) -> Vec<BucketComm> {
    let mut cursor = Duration::ZERO;
    (0..plan.buckets())
        .map(|b| {
            let at = ready_us.get(b).copied().unwrap_or(0);
            let start = Duration::from_micros(at).min(compute).max(cursor);
            let bytes = plan.bytes(b);
            let t = comm(bytes);
            let end = start + t;
            cursor = end;
            BucketComm {
                bytes_per_worker: bytes,
                wire_bytes: bytes * contributors,
                comm: t,
                exposed: end.saturating_sub(start.max(compute)),
            }
        })
        .collect()
}

/// Worker-side readiness clock: marks each bucket with the
/// backward-elapsed microseconds at which its gradients finalized.
///
/// `Layer::backward_with_ready` fires `on_ready(first_ready_tensor)` after
/// each layer's backward, meaning "every parameter tensor with index ≥
/// `first_ready_tensor` now holds its final gradient"; bucket `b` becomes
/// ready at the first such call with `first_ready_tensor ≤`… i.e. when
/// [`BucketPlan::first_tensor`]`(b) ≥ first_ready_tensor`. Buckets become
/// ready strictly in plan order, so the tracker is a single cursor.
#[derive(Debug, Clone)]
pub struct ReadyTracker {
    /// Per-bucket lowest tensor index (copied from the plan).
    first_tensor: Vec<usize>,
    /// Per-bucket readiness offset, µs from backward start.
    ready_us: Vec<u64>,
    /// First bucket not yet marked ready.
    next: usize,
}

impl ReadyTracker {
    /// A tracker for `plan`, all buckets unmarked.
    pub fn new(plan: &BucketPlan) -> Self {
        ReadyTracker {
            first_tensor: (0..plan.buckets()).map(|b| plan.first_tensor(b)).collect(),
            ready_us: vec![0; plan.buckets()],
            next: 0,
        }
    }

    /// Rewinds for a new step (buffers kept).
    pub fn start_step(&mut self) {
        self.next = 0;
    }

    /// Records that every tensor with index ≥ `first_ready_tensor` is now
    /// final, at `elapsed_us` µs into the step's compute.
    pub fn on_ready(&mut self, first_ready_tensor: usize, elapsed_us: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "`next < len` is the loop guard; both vecs share a length"
        )]
        while self.next < self.first_tensor.len()
            && self.first_tensor[self.next] >= first_ready_tensor
        {
            self.ready_us[self.next] = elapsed_us;
            self.next += 1;
        }
    }

    /// Marks any still-unready buckets at `elapsed_us` (backward is done;
    /// everything is final now).
    pub fn finish(&mut self, elapsed_us: u64) {
        self.on_ready(0, elapsed_us);
        // A model whose backward never fired the hook (custom Layer impl):
        // everything became ready at the end.
        #[expect(clippy::indexing_slicing, reason = "`next < len` is the loop guard")]
        while self.next < self.first_tensor.len() {
            self.ready_us[self.next] = elapsed_us;
            self.next += 1;
        }
    }

    /// Per-bucket readiness offsets, µs from compute start.
    pub fn ready_us(&self) -> &[u64] {
        &self.ready_us
    }
}

/// One worker's reassembly slot: the flat buffer its bucket messages are
/// spliced into, plus per-bucket arrival flags.
#[derive(Debug)]
struct Slot {
    flat: Tensor,
    have: Vec<bool>,
}

/// Aggregator-side bucketed reduction with a pinned apply order.
///
/// Buckets arrive out of order across workers; the reducer stores each
/// worker's buckets into a per-worker flat slot and eagerly reduces bucket
/// `b` (sum in worker-id order, lowest first) the moment every *expected*
/// worker has delivered it. If the expected set shrinks mid-round (a crash
/// was detected), [`BucketedReducer::mark_dirty`] voids the eager work and
/// [`BucketedReducer::finalize`] re-reduces over the final contributor set
/// — determinism never depends on arrival timing. The final mean is
/// bitwise-identical to `puffer_compress::exact_mean` over the same
/// contributors: sum in the same order, one multiply by the same `1/n`.
///
/// Slots and the mean buffer persist across rounds; the steady state
/// performs no allocations.
#[derive(Debug)]
pub struct BucketedReducer {
    plan: BucketPlan,
    mean: Tensor,
    /// Per-bucket "already eagerly summed into `mean`" flag.
    reduced: Vec<bool>,
    /// Contributor set the eager reductions were computed over.
    reduced_over: Vec<usize>,
    slots: BTreeMap<usize, Slot>,
}

impl BucketedReducer {
    /// A reducer for `plan` with no worker slots yet (slots materialize on
    /// first contact and are reused for the rest of the run).
    pub fn new(plan: BucketPlan) -> Self {
        let total = plan.total_elems();
        BucketedReducer {
            plan,
            mean: Tensor::zeros(&[total]),
            reduced: Vec::new(),
            reduced_over: Vec::new(),
            slots: BTreeMap::new(),
        }
    }

    /// The bucket plan this reducer follows.
    pub fn plan(&self) -> &BucketPlan {
        &self.plan
    }

    /// Resets per-round state (arrival flags, eager-reduction marks);
    /// keeps every buffer.
    pub fn start_round(&mut self) {
        for slot in self.slots.values_mut() {
            slot.have.iter_mut().for_each(|h| *h = false);
        }
        self.reduced.clear();
        self.reduced.resize(self.plan.buckets(), false);
        self.reduced_over.clear();
    }

    /// Stores worker `worker`'s bucket `b` payload. Returns `false` (and
    /// stores nothing) on a duplicate delivery or a length mismatch —
    /// both indicate a corrupted or stale message the caller rejects.
    #[expect(
        clippy::indexing_slicing,
        reason = "`b < buckets()` is checked on entry and every slot's `have` is that long; \
                  plan ranges lie within the slot by construction"
    )]
    pub fn accept(&mut self, worker: usize, b: usize, data: &[f32]) -> bool {
        if b >= self.plan.buckets() || data.len() != self.plan.range(b).len() {
            return false;
        }
        let total = self.plan.total_elems();
        let buckets = self.plan.buckets();
        let slot = self
            .slots
            .entry(worker)
            .or_insert_with(|| Slot { flat: Tensor::zeros(&[total]), have: vec![false; buckets] });
        if slot.have[b] {
            return false;
        }
        slot.flat.as_mut_slice()[self.plan.range(b)].copy_from_slice(data);
        slot.have[b] = true;
        true
    }

    /// Whether every bucket of `worker` has arrived this round.
    pub fn complete(&self, worker: usize) -> bool {
        self.slots.get(&worker).is_some_and(|s| s.have.iter().all(|&h| h))
    }

    /// Number of buckets of `worker` that have arrived this round.
    pub fn arrived(&self, worker: usize) -> usize {
        self.slots.get(&worker).map_or(0, |s| s.have.iter().filter(|&&h| h).count())
    }

    /// The assembled flat buffer of `worker` (valid once
    /// [`BucketedReducer::complete`] holds).
    pub fn assembled(&self, worker: usize) -> Option<&Tensor> {
        self.slots.get(&worker).map(|s| &s.flat)
    }

    /// Eagerly sums every not-yet-reduced bucket that all of `expected`
    /// have delivered. Returns how many buckets were reduced by this call.
    /// The first call of a round fixes the contributor set the eager sums
    /// run over; a later call with a *different* set voids them first.
    pub fn try_reduce(&mut self, expected: &[usize]) -> usize {
        if expected.is_empty() {
            return 0;
        }
        if self.reduced_over != expected {
            // Contributor set changed (or first call): eager sums computed
            // over the old set are void.
            self.mark_dirty();
            self.reduced_over.clear();
            self.reduced_over.extend_from_slice(expected);
        }
        let mut newly = 0;
        #[expect(
            clippy::indexing_slicing,
            reason = "b iterates 0..buckets(); `reduced` and every slot's `have` are sized to \
                      `plan.buckets()` on creation"
        )]
        for b in 0..self.plan.buckets() {
            if self.reduced[b] {
                continue;
            }
            let all_in = expected.iter().all(|w| self.slots.get(w).is_some_and(|s| s.have[b]));
            if all_in {
                self.sum_bucket(b, expected);
                self.reduced[b] = true;
                newly += 1;
            }
        }
        newly
    }

    /// Voids all eager reductions (the expected worker set shrank).
    pub fn mark_dirty(&mut self) {
        self.reduced.iter_mut().for_each(|r| *r = false);
    }

    /// Completes the round: re-reduces any bucket not eagerly summed over
    /// exactly `contributors` (worker-id order, lowest first), scales the
    /// sum by `1/n`, and returns the mean flat buffer. `contributors` must
    /// be sorted, non-empty, and complete (every listed worker delivered
    /// every bucket).
    pub fn finalize(&mut self, contributors: &[usize]) -> &Tensor {
        if self.reduced_over != contributors {
            self.mark_dirty();
            self.reduced_over.clear();
            self.reduced_over.extend_from_slice(contributors);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "b iterates 0..buckets(), `reduced` is that long"
        )]
        for b in 0..self.plan.buckets() {
            if !self.reduced[b] {
                self.sum_bucket(b, contributors);
                self.reduced[b] = true;
            }
        }
        if !contributors.is_empty() {
            // Matches `exact_mean`: one multiply by the f32 `1/n`.
            let inv = 1.0 / (contributors.len() as f32);
            for m in self.mean.as_mut_slice() {
                *m *= inv;
            }
        }
        &self.mean
    }

    /// Sums bucket `b` over `contributors` into `mean[range]`, pinned to
    /// worker-id order: copy the first contributor, add the rest — the
    /// exact operation order of `exact_mean` restricted to this range.
    fn sum_bucket(&mut self, b: usize, contributors: &[usize]) {
        let range = self.plan.range(b);
        #[expect(
            clippy::indexing_slicing,
            reason = "plan ranges lie within `mean` by construction"
        )]
        let mean = &mut self.mean.as_mut_slice()[range.clone()];
        let mut first = true;
        for w in contributors {
            let Some(slot) = self.slots.get(w) else { continue };
            #[expect(clippy::indexing_slicing, reason = "every slot is sized to the plan's total")]
            let src = &slot.flat.as_slice()[range.clone()];
            if first {
                mean.copy_from_slice(src);
                first = false;
            } else {
                for (m, s) in mean.iter_mut().zip(src) {
                    *m += *s;
                }
            }
        }
        if first {
            // No contributor delivered this bucket (all lost): zero it so
            // the mean stays finite — the skip verdict upstream prevents
            // this from ever being applied.
            mean.iter_mut().for_each(|m| *m = 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_compress::exact_mean;
    use puffer_compress::pack::{pack_refs_with, unpack};

    fn layout_of(shapes: &[&[usize]]) -> (Vec<Tensor>, PackLayout) {
        let tensors: Vec<Tensor> =
            shapes.iter().enumerate().map(|(i, s)| Tensor::randn(s, 1.0, 7 + i as u64)).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let layout = PackLayout::of_refs(&refs);
        (tensors, layout)
    }

    #[test]
    fn max_bucket_bytes_is_one_flat_bucket() {
        let (_, layout) = layout_of(&[&[4, 3], &[3], &[3, 2], &[2]]);
        let plan = BucketPlan::new(&layout, usize::MAX);
        assert_eq!(plan.buckets(), 1);
        assert_eq!(plan.range(0), 0..layout.total_len());
        assert_eq!(plan.first_tensor(0), 0);
    }

    /// The oracle for the plan's reverse walk: DDP's bucket assignment
    /// over a plain list of per-layer byte sizes.
    fn bucketize(layer_bytes: &[usize], bucket_bytes: usize) -> Vec<usize> {
        let mut buckets = Vec::new();
        let mut current = 0usize;
        for &b in layer_bytes.iter().rev() {
            current += b;
            if current >= bucket_bytes {
                buckets.push(current);
                current = 0;
            }
        }
        if current > 0 {
            buckets.push(current);
        }
        buckets
    }

    #[test]
    fn reverse_walk_matches_ddp_bucketize() {
        // The plan's byte sizes must agree with DDP's assignment over the
        // same per-tensor byte list (both walk in reverse).
        let (_, layout) = layout_of(&[&[64, 8], &[8], &[32, 8], &[8], &[8, 4], &[4]]);
        let tensor_bytes: Vec<usize> =
            (0..layout.tensor_count()).map(|i| layout.range_of(i).len() * 4).collect();
        for bucket_bytes in [1usize, 256, 1024, 2048, usize::MAX] {
            let plan = BucketPlan::new(&layout, bucket_bytes);
            assert_eq!(
                plan.byte_sizes(),
                bucketize(&tensor_bytes, bucket_bytes),
                "bucket_bytes={bucket_bytes}"
            );
        }
    }

    #[test]
    fn timeline_hides_comm_behind_compute_and_serializes_the_rest() {
        let layout = PackLayout::from_shapes(vec![vec![1 << 20]; 4]);
        let plan = BucketPlan::new(&layout, 4 << 20);
        assert_eq!(plan.buckets(), 4);
        let comm = |bytes: usize| Duration::from_millis(bytes as u64 >> 20);
        let each = comm(4 << 20);

        // Ready one collective's length apart on a long compute: each
        // hides behind it but the last, which is ready as compute ends.
        let compute = Duration::from_millis(14);
        let out = overlap_timeline(&plan, &[2_000, 6_000, 10_000, 14_000], compute, 3, comm);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|b| b.comm == each && b.wire_bytes == 3 * b.bytes_per_worker));
        let exposed: Vec<Duration> = out.iter().map(|b| b.exposed).collect();
        assert_eq!(exposed, [Duration::ZERO, Duration::ZERO, Duration::ZERO, each]);

        // A payload that exists only once compute is over (or a tracker
        // that reported late): everything is exposed, back to back.
        let out = overlap_timeline(&plan, &[99_000; 4], compute, 3, comm);
        assert!(out.iter().all(|b| b.exposed == each));

        // A short compute under a busy stream: bucket 1 is ready at 1 ms
        // but waits for bucket 0's collective, and straddles the end of
        // compute — only what runs past it is exposed.
        let out =
            overlap_timeline(&plan, &[0, 1_000, 1_000, 1_000], Duration::from_millis(6), 3, comm);
        let exposed: Vec<Duration> = out.iter().map(|b| b.exposed).collect();
        assert_eq!(exposed, [Duration::ZERO, Duration::from_millis(2), each, each]);

        // Missing readiness entries read as "ready at the start".
        let out = overlap_timeline(&plan, &[], Duration::from_millis(16), 3, comm);
        assert!(out.iter().all(|b| b.exposed == Duration::ZERO));
    }

    #[test]
    fn buckets_are_contiguous_and_cover_everything() {
        let (_, layout) = layout_of(&[&[10, 10], &[10], &[10, 5], &[5], &[5, 2], &[2]]);
        let plan = BucketPlan::new(&layout, 200);
        assert!(plan.buckets() > 1);
        // Ready order is reverse: bucket 0 ends at the buffer end; the last
        // bucket starts at 0. Consecutive buckets tile the buffer.
        assert_eq!(plan.range(0).end, layout.total_len());
        assert_eq!(plan.range(plan.buckets() - 1).start, 0);
        for b in 1..plan.buckets() {
            assert_eq!(plan.range(b).end, plan.range(b - 1).start, "bucket {b} not adjacent");
        }
        // first_tensor is the tensor whose range starts the bucket.
        for b in 0..plan.buckets() {
            assert_eq!(layout.range_of(plan.first_tensor(b)).start, plan.range(b).start);
        }
    }

    #[test]
    fn empty_layout_still_has_one_bucket() {
        let layout = PackLayout::of(&[]);
        let plan = BucketPlan::new(&layout, 1024);
        assert_eq!(plan.buckets(), 1);
        assert_eq!(plan.range(0), 0..0);
    }

    #[test]
    #[should_panic(expected = "bucket size")]
    fn zero_bucket_bytes_rejected() {
        let (_, layout) = layout_of(&[&[2]]);
        let _ = BucketPlan::new(&layout, 0);
    }

    #[test]
    fn ready_tracker_marks_buckets_in_reverse_backward_order() {
        let (_, layout) = layout_of(&[&[4, 4], &[4], &[4, 2], &[2]]);
        // Two buckets: {tensors 2,3} (ready first), {tensors 0,1}.
        let plan = BucketPlan::new(&layout, (4 * 2 + 2) * 4);
        assert_eq!(plan.buckets(), 2);
        let mut tracker = ReadyTracker::new(&plan);
        tracker.start_step();
        // Backward of the second Linear finishes: tensors 2.. are final.
        tracker.on_ready(2, 100);
        assert_eq!(tracker.ready_us()[0], 100);
        // Backward of the first Linear finishes: everything final.
        tracker.on_ready(0, 250);
        assert_eq!(tracker.ready_us(), &[100, 250]);
        // Restart reuses the buffers.
        tracker.start_step();
        tracker.finish(400);
        assert_eq!(tracker.ready_us(), &[400, 400]);
    }

    /// The reference: sync-path mean via pack → unpack → exact_mean.
    fn sync_mean(worker_flats: &[Tensor], layout: &PackLayout) -> Tensor {
        let contributions: Vec<Vec<Tensor>> =
            worker_flats.iter().map(|f| unpack(f, layout)).collect();
        let mean = exact_mean(&contributions);
        let refs: Vec<&Tensor> = mean.iter().collect();
        pack_refs_with(layout, &refs)
    }

    #[test]
    fn reduction_is_bitwise_identical_to_exact_mean_at_any_bucket_size() {
        let (_, layout) = layout_of(&[&[16, 8], &[8], &[8, 8], &[8], &[8, 3], &[3]]);
        let total = layout.total_len();
        let workers = 4;
        let flats: Vec<Tensor> =
            (0..workers).map(|w| Tensor::randn(&[total], 1.0, 100 + w as u64)).collect();
        let want = sync_mean(&flats, &layout);
        for bucket_bytes in [64usize, 256, 777, usize::MAX] {
            let plan = BucketPlan::new(&layout, bucket_bytes);
            let mut red = BucketedReducer::new(plan);
            red.start_round();
            let ids: Vec<usize> = (0..workers).collect();
            // Deliver buckets in a scrambled order across workers.
            let buckets = red.plan().buckets();
            for b in (0..buckets).rev() {
                for w in (0..workers).rev() {
                    let r = red.plan().range(b);
                    assert!(red.accept(w, b, &flats[w].as_slice()[r]));
                    let _ = red.try_reduce(&ids);
                }
            }
            for w in 0..workers {
                assert!(red.complete(w));
            }
            let got = red.finalize(&ids);
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "bucket_bytes={bucket_bytes} diverged from exact_mean"
            );
        }
    }

    #[test]
    fn shrinking_contributor_set_rereduces_deterministically() {
        let (_, layout) = layout_of(&[&[8, 4], &[4], &[4, 4], &[4]]);
        let total = layout.total_len();
        let flats: Vec<Tensor> = (0..3).map(|w| Tensor::randn(&[total], 1.0, 50 + w)).collect();
        let plan = BucketPlan::new(&layout, 64);
        let mut red = BucketedReducer::new(plan);
        red.start_round();
        // All three workers deliver everything; eager reduction runs over
        // the full set.
        for (w, flat) in flats.iter().enumerate() {
            for b in 0..red.plan().buckets() {
                let r = red.plan().range(b);
                assert!(red.accept(w, b, &flat.as_slice()[r]));
            }
        }
        assert_eq!(red.try_reduce(&[0, 1, 2]), red.plan().buckets());
        // Worker 1 is then rejected (corrupt checksum, say): finalize over
        // the survivor set must equal the survivors' exact_mean.
        let survivors = [flats[0].clone(), flats[2].clone()];
        let want = sync_mean(&survivors, &layout);
        red.mark_dirty();
        let got = red.finalize(&[0, 2]);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn duplicate_and_malformed_deliveries_are_rejected() {
        let (_, layout) = layout_of(&[&[4], &[4]]);
        let plan = BucketPlan::new(&layout, usize::MAX);
        let mut red = BucketedReducer::new(plan);
        red.start_round();
        let data = vec![1.0f32; 8];
        assert!(red.accept(0, 0, &data));
        assert!(!red.accept(0, 0, &data), "duplicate bucket accepted");
        assert!(!red.accept(0, 1, &data), "out-of-range bucket accepted");
        assert!(!red.accept(0, 0, &data[..3]), "wrong-length payload accepted");
        assert_eq!(red.arrived(0), 1);
        assert!(red.complete(0));
        assert_eq!(red.arrived(9), 0);
        assert!(!red.complete(9));
    }

    #[test]
    fn round_restart_reuses_slots_and_clears_arrivals() {
        let (_, layout) = layout_of(&[&[6], &[6]]);
        let plan = BucketPlan::new(&layout, 24);
        let mut red = BucketedReducer::new(plan);
        for round in 0..3 {
            red.start_round();
            let flats: Vec<Tensor> =
                (0..2).map(|w| Tensor::randn(&[12], 1.0, 900 + round * 10 + w)).collect();
            for (w, f) in flats.iter().enumerate() {
                assert!(!red.complete(w) || round == 0, "arrivals leaked across rounds");
                for b in 0..red.plan().buckets() {
                    let r = red.plan().range(b);
                    assert!(red.accept(w, b, &f.as_slice()[r]));
                }
            }
            let want = sync_mean(&flats, &layout);
            assert_eq!(red.finalize(&[0, 1]).as_slice(), want.as_slice(), "round {round}");
        }
    }
}
