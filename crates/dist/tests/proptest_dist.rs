//! Property-based tests for the communication cost model (ring, tree, and
//! hierarchical closed forms vs executed simulations) and the DDP
//! bucketing simulator.

use proptest::prelude::*;
use puffer_dist::collectives::{hier_allreduce, tree_allreduce};
use puffer_dist::cost::{ceil_log2, hier_group, ClusterProfile};
use puffer_dist::ddp::{bucketize, simulate_step, DEFAULT_BUCKET_BYTES};
use puffer_dist::fault::wire_checksum;
use puffer_dist::ring::ring_allreduce;
use std::time::Duration;

/// Per-rank buffers `buffer[i] = [(i+1); n]`, whose elementwise allreduce
/// sum is exactly `p(p+1)/2` — representable in f32 for every `p ≤ 64`.
fn rank_buffers(p: usize, n: usize) -> Vec<Vec<f32>> {
    (0..p).map(|i| vec![(i + 1) as f32; n]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allreduce_monotone_in_bytes(a in 0usize..1_000_000, b in 0usize..1_000_000, nodes in 2usize..32) {
        let c = ClusterProfile::p3_like(nodes);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(c.allreduce(lo) <= c.allreduce(hi));
        prop_assert!(c.allgather(lo) <= c.allgather(hi));
    }

    #[test]
    fn allgather_never_cheaper_than_allreduce_at_same_bytes(bytes in 1usize..10_000_000, nodes in 2usize..32) {
        // Per-node allgather traffic (p−1)·n ≥ ring allreduce 2(p−1)/p·n
        // whenever p ≥ 2... latency terms differ; compare bandwidth-dominant
        // sizes only.
        prop_assume!(bytes > 1_000_000);
        let c = ClusterProfile { alpha: 0.0, ..ClusterProfile::p3_like(nodes) };
        prop_assert!(c.allgather(bytes) >= c.allreduce(bytes));
    }

    #[test]
    fn wire_checksum_catches_a_flipped_bit_anywhere(
        values in proptest::collection::vec(any::<u32>(), 1..300),
        at in any::<usize>(),
        bit in 0u32..32,
    ) {
        // Arbitrary bit patterns (NaNs, infinities and denormals included),
        // arbitrary length, so the flipped element lands on every lane and
        // in the tail that no full chunk of lanes covers.
        let clean: Vec<f32> = values.iter().map(|&b| f32::from_bits(b)).collect();
        let mut dirty = clean.clone();
        let i = at % dirty.len();
        dirty[i] = f32::from_bits(dirty[i].to_bits() ^ (1 << bit));
        prop_assert_ne!(wire_checksum(&dirty), wire_checksum(&clean));
        // Truncation and extension are caught too.
        prop_assert_ne!(wire_checksum(&clean[..clean.len() - 1]), wire_checksum(&clean));
        dirty.clone_from(&clean);
        dirty.push(0.0);
        prop_assert_ne!(wire_checksum(&dirty), wire_checksum(&clean));
    }

    #[test]
    fn bucketize_conserves_bytes(layers in proptest::collection::vec(1usize..10_000_000, 1..40), bucket in 1usize..50_000_000) {
        let buckets = bucketize(&layers, bucket);
        prop_assert_eq!(buckets.iter().sum::<usize>(), layers.iter().sum::<usize>());
        // Every bucket except possibly the last-flushed is >= threshold
        // (can't easily identify which; weaker: no empty buckets).
        prop_assert!(buckets.iter().all(|&b| b > 0));
    }

    #[test]
    fn ddp_step_at_least_compute_and_no_overhidden_comm(
        fwd_ms in 1u64..50, bwd_ms in 1u64..100,
        layers in proptest::collection::vec(1usize..20_000_000, 1..20),
        nodes in 1usize..32,
    ) {
        let profile = ClusterProfile::p3_like(nodes);
        let fwd = Duration::from_millis(fwd_ms);
        let bwd = Duration::from_millis(bwd_ms);
        let step = simulate_step(fwd, bwd, &layers, DEFAULT_BUCKET_BYTES, &profile);
        prop_assert!(step.total >= step.compute);
        // Total never exceeds compute + fully serialized communication.
        let serial: Duration = bucketize(&layers, DEFAULT_BUCKET_BYTES)
            .iter()
            .map(|&b| profile.allreduce(b))
            .sum();
        prop_assert!(step.total <= step.compute + serial + Duration::from_micros(1));
        prop_assert_eq!(step.exposed_comm, step.total - step.compute);
    }

    #[test]
    fn ring_trace_traffic_matches_closed_form(p in 2usize..12, n in 1usize..200) {
        // Total per-node traffic over an executed ring allreduce must equal
        // the bandwidth term of the closed-form cost, 2·((p−1)/p)·n·4 bytes,
        // up to chunk-rounding: each of the 2(p−1) steps moves a chunk whose
        // size differs from n/p by at most one element.
        let mut buffers: Vec<Vec<f32>> = (0..p).map(|i| vec![i as f32; n]).collect();
        let trace = ring_allreduce(&mut buffers);
        let total: usize = trace.step_bytes.iter().sum();
        let closed = 2.0 * ((p - 1) as f64 / p as f64) * (n * 4) as f64;
        let slack = (8 * (p - 1)) as f64;
        prop_assert!(
            (total as f64 - closed).abs() <= slack,
            "total {} vs closed form {} (p={}, n={})", total, closed, p, n
        );
    }

    #[test]
    fn more_nodes_never_reduces_allgather(bytes in 1usize..1_000_000, a in 2usize..16, b in 2usize..16) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let t_lo = ClusterProfile::p3_like(lo).allgather(bytes);
        let t_hi = ClusterProfile::p3_like(hi).allgather(bytes);
        prop_assert!(t_hi >= t_lo);
    }

    #[test]
    fn tree_trace_matches_closed_form_and_sums(p in 2usize..=64, n in 1usize..300) {
        let mut buffers = rank_buffers(p, n);
        let trace = tree_allreduce(&mut buffers);
        // Correctness: every rank holds the exact elementwise sum.
        let want = (p * (p + 1) / 2) as f32;
        prop_assert!(buffers.iter().all(|b| b.iter().all(|&v| v == want)));
        // Schedule shape: 2⌈log₂p⌉ full-buffer steps.
        prop_assert_eq!(trace.steps(), 2 * ceil_log2(p) as usize);
        prop_assert!(trace.step_bytes.iter().all(|&b| b == n * 4));
        // Priced trace reproduces the closed form (ns quantization only).
        let profile = ClusterProfile::p3_like(p);
        let closed = profile.tree_allreduce(n * 4);
        let diff = trace.time(&profile).abs_diff(closed);
        prop_assert!(diff <= Duration::from_nanos(2), "diff {:?}", diff);
    }

    #[test]
    fn hier_trace_matches_closed_form_and_sums(
        p in 2usize..=64,
        n in 1usize..300,
        group in 0usize..=9,
    ) {
        let mut buffers = rank_buffers(p, n);
        let trace = hier_allreduce(&mut buffers, group);
        let want = (p * (p + 1) / 2) as f32;
        prop_assert!(buffers.iter().all(|b| b.iter().all(|&v| v == want)));
        // Closed form: 2⌈log₂g⌉ intra steps of n bytes + ring over the
        // ⌈p/g⌉ leaders. The leader ring's chunking rounds each of its
        // 2(G−1) steps by at most one f32 against the (G−1)/G·n·β
        // bandwidth term — everything else is exact.
        let g = hier_group(p, group);
        let groups = p.div_ceil(g);
        let profile = ClusterProfile::p3_like(p);
        let closed = profile.hier_allreduce(n * 4, group);
        let ring_slack = 2.0 * (groups.saturating_sub(1)) as f64 * 4.0 * profile.beta;
        let tol = Duration::from_secs_f64(ring_slack) + Duration::from_nanos(4);
        let diff = trace.time(&profile).abs_diff(closed);
        prop_assert!(diff <= tol, "diff {:?} > tol {:?} (p={}, g={}, n={})", diff, tol, p, g, n);
    }

    #[test]
    fn hier_latency_beats_flat_ring_at_scale(n in 1usize..10_000, p in 16usize..=64) {
        // The point of the two-level schedule: far fewer α rounds than the
        // flat ring once p is large. Compare latency terms only.
        let c = ClusterProfile { beta: 0.0, ..ClusterProfile::p3_like(p) };
        prop_assert!(c.hier_allreduce(n * 4, 0) <= c.allreduce(n * 4));
    }
}
