//! An executable ring allreduce — the algorithm whose closed-form cost the
//! [`crate::cost`] model encodes (Thakur, Rabenseifner & Gropp 2005).
//!
//! The buffer is split into `p` chunks. Phase 1 (reduce-scatter): for
//! `p − 1` steps, node `i` sends one chunk to node `i+1` and adds the chunk
//! it receives into its buffer, so after the phase each node owns the fully
//! reduced version of one chunk. Phase 2 (allgather): the owned chunks
//! circulate for another `p − 1` steps. Each step moves `n/p` elements per
//! node, giving the familiar `2(p−1)·α + 2·((p−1)/p)·n·β` time.
//!
//! [`ring_allreduce`] executes the data movement for real (in memory),
//! which both documents the algorithm and lets tests verify that the cost
//! model's step count matches an actual execution trace exactly.

#![expect(
    clippy::float_arithmetic,
    reason = "the other owner of gradient summation order: the ring adds chunks in \
              position order"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "an in-memory reference schedule behind a `# Panics` contract (equal-length \
              buffers, asserted on entry); the trainer prices collectives through `cost` and \
              never runs one"
)]

use crate::cost::ClusterProfile;
use std::time::Duration;

/// The execution trace of one ring allreduce: per-step message sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingTrace {
    /// Bytes each node sent in each step (all nodes send concurrently).
    pub step_bytes: Vec<usize>,
}

impl RingTrace {
    /// Total steps (should be `2(p−1)`).
    pub fn steps(&self) -> usize {
        self.step_bytes.len()
    }

    /// Evaluates the trace under a cluster profile: each step costs
    /// `α + bytes·β` (all nodes transfer concurrently around the ring).
    pub fn time(&self, profile: &ClusterProfile) -> Duration {
        let secs: f64 =
            self.step_bytes.iter().map(|&b| profile.alpha + b as f64 * profile.beta).sum();
        Duration::from_secs_f64(secs)
    }
}

/// Runs a real ring allreduce over per-node buffers (all must have equal
/// length). On return every buffer holds the element-wise **sum** across
/// nodes; the returned trace records the per-step traffic.
///
/// # Panics
///
/// Panics if buffers are empty or have mismatched lengths.
pub fn ring_allreduce(buffers: &mut [Vec<f32>]) -> RingTrace {
    let p = buffers.len();
    assert!(p > 0, "need at least one node");
    let n = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == n), "buffer lengths must match");
    if p == 1 || n == 0 {
        return RingTrace { step_bytes: Vec::new() };
    }

    // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
    let starts: Vec<usize> = (0..=p).map(|c| c * n / p).collect();
    let chunk = |c: usize| (starts[c], starts[c + 1]);
    let mut trace = Vec::with_capacity(2 * (p - 1));

    // Phase 1: reduce-scatter. In step s, node i sends chunk (i − s) mod p
    // to node i+1, which accumulates it.
    for s in 0..p - 1 {
        let mut step_bytes = 0usize;
        // Gather the outgoing chunks first so all sends happen "concurrently".
        let outgoing: Vec<(usize, usize, Vec<f32>)> = (0..p)
            .map(|i| {
                let c = (i + p - s) % p;
                let (lo, hi) = chunk(c);
                (i, c, buffers[i][lo..hi].to_vec())
            })
            .collect();
        for (i, c, data) in outgoing {
            let dst = (i + 1) % p;
            let (lo, _) = chunk(c);
            for (k, v) in data.iter().enumerate() {
                buffers[dst][lo + k] += v;
            }
            step_bytes = step_bytes.max(data.len() * 4);
        }
        trace.push(step_bytes);
    }

    // Phase 2: allgather. Node i now owns the reduced chunk (i + 1) mod p;
    // circulate ownership for p − 1 steps.
    for s in 0..p - 1 {
        let mut step_bytes = 0usize;
        let outgoing: Vec<(usize, usize, Vec<f32>)> = (0..p)
            .map(|i| {
                let c = (i + 1 + p - s) % p;
                let (lo, hi) = chunk(c);
                (i, c, buffers[i][lo..hi].to_vec())
            })
            .collect();
        for (i, c, data) in outgoing {
            let dst = (i + 1) % p;
            let (lo, _) = chunk(c);
            buffers[dst][lo..lo + data.len()].copy_from_slice(&data);
            step_bytes = step_bytes.max(data.len() * 4);
        }
        trace.push(step_bytes);
    }
    RingTrace { step_bytes: trace }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn computes_exact_sum() {
        for (p, n) in [(2usize, 8usize), (3, 10), (4, 16), (5, 7), (8, 64), (7, 5)] {
            let (mut buffers, expected) = random_buffers(p, n);
            let _ = ring_allreduce(&mut buffers);
            for (i, b) in buffers.iter().enumerate() {
                assert_eq!(b, &expected, "node {i} of p={p}, n={n}");
            }
        }
    }

    #[test]
    fn step_count_is_2p_minus_2() {
        let (mut buffers, _) = random_buffers(6, 24);
        let trace = ring_allreduce(&mut buffers);
        assert_eq!(trace.steps(), 2 * (6 - 1));
    }

    #[test]
    fn trace_time_matches_closed_form() {
        // With n divisible by p, every step moves exactly n/p elements and
        // the trace time equals the cost model's allreduce formula.
        let p = 8;
        let n = 8 * 128;
        let (mut buffers, _) = random_buffers(p, n);
        let trace = ring_allreduce(&mut buffers);
        let profile = ClusterProfile::p3_like(p);
        let traced = trace.time(&profile).as_secs_f64();
        let closed = profile.allreduce(n * 4).as_secs_f64();
        assert!((traced - closed).abs() < closed * 1e-6, "traced {traced} vs closed-form {closed}");
    }

    #[test]
    fn uneven_chunks_still_sum_correctly() {
        // n not divisible by p exercises the boundary arithmetic.
        let (mut buffers, expected) = random_buffers(4, 11);
        let trace = ring_allreduce(&mut buffers);
        for b in &buffers {
            assert_eq!(b, &expected);
        }
        assert_eq!(trace.steps(), 6);
    }

    #[test]
    fn more_nodes_than_elements() {
        // p > n leaves some chunks zero-width (consecutive chunk starts
        // coincide); the sums must stay exact and the step count stays
        // 2(p−1), with no step moving more than one element per node.
        for (p, n) in [(6usize, 3usize), (8, 1), (5, 2)] {
            let (mut buffers, expected) = random_buffers(p, n);
            let trace = ring_allreduce(&mut buffers);
            for b in &buffers {
                assert_eq!(b, &expected, "p={p} n={n}");
            }
            assert_eq!(trace.steps(), 2 * (p - 1), "p={p} n={n}");
            assert!(trace.step_bytes.iter().all(|&b| b <= 4), "p={p} n={n}: {trace:?}");
        }
    }

    #[test]
    fn single_node_is_identity() {
        let mut buffers = vec![vec![1.0, 2.0, 3.0]];
        let trace = ring_allreduce(&mut buffers);
        assert_eq!(trace.steps(), 0);
        assert_eq!(buffers[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let mut buffers = vec![vec![1.0], vec![1.0, 2.0]];
        let _ = ring_allreduce(&mut buffers);
    }
}
