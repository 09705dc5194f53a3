//! Executable binary-tree and two-level hierarchical allreduces — the
//! algorithms whose closed forms [`crate::cost`] prices behind
//! [`crate::cost::CollectiveAlgo`], run for real (in memory) the way
//! [`crate::ring`] executes the ring.
//!
//! * **Tree**: reduce up a binary tree (`⌈log₂ p⌉` levels, each moving the
//!   whole buffer), broadcast the result back down — `2·⌈log₂ p⌉` steps of
//!   `n` bytes each, matching `2·⌈log₂ p⌉·(α + n·β)` exactly.
//! * **Hierarchical**: nodes are split into `G = ⌈p/g⌉` groups of `g`
//!   consecutive ranks. Each group tree-reduces into its leader (rank 0 of
//!   the group), the `G` leaders run a ring allreduce, and each leader
//!   tree-broadcasts the result back through its group — matching
//!   `2·⌈log₂ g⌉·(α + n·β) + ring(G, n)`.
//!
//! Both return a [`RingTrace`] (per-step concurrent message sizes), so the
//! same `trace.time(profile)` evaluation used for the ring validates the
//! closed forms against an actual execution.

#![expect(
    clippy::float_arithmetic,
    reason = "a reference schedule run in memory to check the cost model; no \
              trainer gradient is summed here"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "an in-memory reference schedule behind a `# Panics` contract (equal-length \
              buffers, asserted on entry); the trainer prices collectives through `cost` and \
              never runs one"
)]

use crate::cost::hier_group;
use crate::ring::{ring_allreduce, RingTrace};

/// Elementwise `dst += src` over one simulated message.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

/// The power-of-two strides of a `⌈log₂ p⌉`-level binary tree over `p`
/// ranks, smallest first.
fn tree_strides(p: usize) -> Vec<usize> {
    let mut strides = Vec::new();
    let mut s = 1;
    while s < p {
        strides.push(s);
        s *= 2;
    }
    strides
}

/// One reduce-up level at `stride` over `buffers[base..base + len]`:
/// every rank whose offset is a multiple of `2·stride` absorbs its
/// partner at `offset + stride` (when that partner exists).
fn reduce_level(buffers: &mut [Vec<f32>], base: usize, len: usize, stride: usize) {
    let mut i = 0;
    while i + stride < len {
        let src = buffers[base + i + stride].clone();
        add_into(&mut buffers[base + i], &src);
        i += 2 * stride;
    }
}

/// One broadcast-down level at `stride`: the inverse of [`reduce_level`],
/// copying each parent's buffer to its partner.
fn broadcast_level(buffers: &mut [Vec<f32>], base: usize, len: usize, stride: usize) {
    let mut i = 0;
    while i + stride < len {
        let src = buffers[base + i].clone();
        buffers[base + i + stride].copy_from_slice(&src);
        i += 2 * stride;
    }
}

/// Runs a real binary-tree allreduce over per-node buffers (all must have
/// equal length). On return every buffer holds the element-wise **sum**
/// across nodes; the returned trace records the per-step traffic
/// (`2·⌈log₂ p⌉` steps of the full buffer).
///
/// # Panics
///
/// Panics if buffers are empty or have mismatched lengths.
pub fn tree_allreduce(buffers: &mut [Vec<f32>]) -> RingTrace {
    let p = buffers.len();
    assert!(p > 0, "need at least one node");
    let n = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == n), "buffer lengths must match");
    if p == 1 {
        return RingTrace { step_bytes: Vec::new() };
    }

    let strides = tree_strides(p);
    let mut trace = Vec::with_capacity(2 * strides.len());
    for &s in &strides {
        reduce_level(buffers, 0, p, s);
        trace.push(n * 4);
    }
    for &s in strides.iter().rev() {
        broadcast_level(buffers, 0, p, s);
        trace.push(n * 4);
    }
    RingTrace { step_bytes: trace }
}

/// Runs a real two-level hierarchical allreduce: intra-group tree reduce
/// into each group leader, ring allreduce across the `G` leaders, then an
/// intra-group tree broadcast. `group` is the intra-group size (`0` = auto
/// `⌈√p⌉`; clamped to `1..=p` like [`hier_group`]). On return every buffer
/// holds the element-wise **sum** across all nodes.
///
/// The trace concatenates the intra reduce levels, the leader ring's
/// steps, and the intra broadcast levels — groups work concurrently, so
/// each intra level is one step of `n` bytes.
///
/// # Panics
///
/// Panics if buffers are empty or have mismatched lengths.
pub fn hier_allreduce(buffers: &mut [Vec<f32>], group: usize) -> RingTrace {
    let p = buffers.len();
    assert!(p > 0, "need at least one node");
    let n = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == n), "buffer lengths must match");
    if p == 1 {
        return RingTrace { step_bytes: Vec::new() };
    }

    let g = hier_group(p, group);
    let groups = p.div_ceil(g);
    let group_bounds = |k: usize| -> (usize, usize) { (k * g, (k * g + g).min(p)) };

    // Intra levels are sized by the *largest* group: a short last group
    // finishes early but the level still costs one full-buffer exchange.
    let strides = tree_strides(g);
    let mut trace = Vec::with_capacity(2 * strides.len());

    for &s in &strides {
        for k in 0..groups {
            let (base, end) = group_bounds(k);
            reduce_level(buffers, base, end - base, s);
        }
        trace.push(n * 4);
    }

    // Ring across the group leaders (rank 0 of each group).
    if groups > 1 {
        let mut leaders: Vec<Vec<f32>> =
            (0..groups).map(|k| buffers[group_bounds(k).0].clone()).collect();
        let ring = ring_allreduce(&mut leaders);
        for (k, reduced) in leaders.into_iter().enumerate() {
            buffers[group_bounds(k).0] = reduced;
        }
        trace.extend(ring.step_bytes);
    }

    for &s in strides.iter().rev() {
        for k in 0..groups {
            let (base, end) = group_bounds(k);
            broadcast_level(buffers, base, end - base, s);
        }
        trace.push(n * 4);
    }
    RingTrace { step_bytes: trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ceil_log2, ClusterProfile};

    fn random_buffers(p: usize, n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let buffers: Vec<Vec<f32>> = (0..p)
            .map(|i| (0..n).map(|k| ((i * 31 + k * 7) % 13) as f32 - 6.0).collect())
            .collect();
        let mut expected = vec![0.0f32; n];
        for b in &buffers {
            for (e, v) in expected.iter_mut().zip(b) {
                *e += v;
            }
        }
        (buffers, expected)
    }

    #[test]
    fn tree_computes_exact_sum() {
        for (p, n) in [(2usize, 8usize), (3, 10), (4, 16), (5, 7), (7, 5), (8, 64), (13, 9)] {
            let (mut buffers, expected) = random_buffers(p, n);
            let _ = tree_allreduce(&mut buffers);
            for (i, b) in buffers.iter().enumerate() {
                assert_eq!(b, &expected, "node {i} of p={p}, n={n}");
            }
        }
    }

    #[test]
    fn tree_step_count_and_time_match_closed_form() {
        for p in 2..=16usize {
            let n = 96;
            let (mut buffers, _) = random_buffers(p, n);
            let trace = tree_allreduce(&mut buffers);
            assert_eq!(trace.steps(), 2 * ceil_log2(p) as usize, "p={p}");
            let profile = ClusterProfile::p3_like(p);
            let traced = trace.time(&profile).as_secs_f64();
            let closed = profile.tree_allreduce(n * 4).as_secs_f64();
            assert!((traced - closed).abs() < closed * 1e-9, "p={p}: {traced} vs {closed}");
        }
    }

    #[test]
    fn hier_computes_exact_sum_for_every_group_size() {
        for (p, n) in [(4usize, 12usize), (6, 9), (8, 16), (9, 10), (12, 24), (16, 8)] {
            for group in 0..=p {
                let (mut buffers, expected) = random_buffers(p, n);
                let _ = hier_allreduce(&mut buffers, group);
                for (i, b) in buffers.iter().enumerate() {
                    assert_eq!(b, &expected, "node {i} of p={p}, n={n}, g={group}");
                }
            }
        }
    }

    #[test]
    fn hier_trace_time_matches_closed_form() {
        // n divisible by the leader count G so the leader ring's chunks are
        // even (the same divisibility the ring's own closed-form test uses).
        for (p, group) in [(8usize, 4usize), (8, 2), (16, 4), (12, 3), (9, 3), (16, 0)] {
            let g = hier_group(p, group);
            let groups = p.div_ceil(g);
            let n = groups * 64;
            let (mut buffers, _) = random_buffers(p, n);
            let trace = hier_allreduce(&mut buffers, group);
            let profile = ClusterProfile::p3_like(p);
            let traced = trace.time(&profile).as_secs_f64();
            let closed = profile.hier_allreduce(n * 4, group).as_secs_f64();
            assert!(
                (traced - closed).abs() < closed * 1e-6,
                "p={p} g={group}: traced {traced} vs closed {closed}"
            );
        }
    }

    #[test]
    fn hier_group_one_is_a_pure_ring() {
        let (mut a, _) = random_buffers(6, 18);
        let (mut b, _) = random_buffers(6, 18);
        let hier = hier_allreduce(&mut a, 1);
        let ring = ring_allreduce(&mut b);
        assert_eq!(hier, ring);
        assert_eq!(a, b);
    }

    #[test]
    fn hier_group_p_is_a_pure_tree() {
        let (mut a, _) = random_buffers(8, 16);
        let (mut b, _) = random_buffers(8, 16);
        let hier = hier_allreduce(&mut a, 8);
        let tree = tree_allreduce(&mut b);
        assert_eq!(hier, tree);
        assert_eq!(a, b);
    }

    #[test]
    fn single_node_is_identity() {
        let mut t = vec![vec![1.0, 2.0]];
        assert_eq!(tree_allreduce(&mut t).steps(), 0);
        assert_eq!(t[0], vec![1.0, 2.0]);
        let mut h = vec![vec![3.0]];
        assert_eq!(hier_allreduce(&mut h, 0).steps(), 0);
        assert_eq!(h[0], vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let mut buffers = vec![vec![1.0], vec![1.0, 2.0]];
        let _ = tree_allreduce(&mut buffers);
    }
}
