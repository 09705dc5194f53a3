//! α–β communication cost models (Thakur, Rabenseifner & Gropp 2005).
//!
//! Ring allreduce on `p` nodes over an `n`-byte buffer:
//! `T = 2(p−1)·α + 2·((p−1)/p)·n·β` — the latency term the paper's
//! flat-buffer packing optimization targets (§4.1: "each allreduce call
//! introduces a network latency proportional to the product of the number
//! of compute nodes and average network latency").
//!
//! Allgather: `T = (p−1)·α + (p−1)·n·β` — per-node traffic grows with `p`,
//! which is why sign/quantization methods lose their wire savings at scale
//! (appendix F).
//!
//! Beyond the ring, two more allreduce shapes are priced (and simulated in
//! `crate::collectives`), selectable via [`CollectiveAlgo`]:
//!
//! * **binary tree**: `T = 2·⌈log₂ p⌉·(α + n·β)` — reduce up the tree,
//!   broadcast back down; latency-optimal, bandwidth-poor (the full buffer
//!   crosses every level twice).
//! * **hierarchical** (two-level): intra-group tree reduce to a leader,
//!   ring allreduce across the `G` leaders, intra-group broadcast:
//!   `T = 2·⌈log₂ g⌉·(α + n·β) + 2(G−1)·α + 2·((G−1)/G)·n·β` — the shape
//!   real multi-rack deployments use, where intra-group links are assumed
//!   to share the same α/β as the inter-group fabric (a pessimistic,
//!   single-profile model).

#![expect(
    clippy::float_arithmetic,
    reason = "prices communication in seconds; no gradient is summed here"
)]

use crate::error::{DistError, DistResult};
use std::time::Duration;

/// `⌈log₂ p⌉` for `p ≥ 1` (0 for `p ≤ 1`) — the round count of one
/// direction of a binary-tree collective.
pub fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        return 0;
    }
    usize::BITS - (p - 1).leading_zeros()
}

/// Normalizes a hierarchical group size against the node count: `0` means
/// auto (`⌈√p⌉`, balancing the intra-tree depth against the leader-ring
/// length), and any explicit value is clamped to `1..=p`.
pub fn hier_group(p: usize, group: usize) -> usize {
    if p <= 1 {
        return 1;
    }
    if group == 0 {
        let mut g = 1;
        while g * g < p {
            g += 1;
        }
        g
    } else {
        group.clamp(1, p)
    }
}

/// Which allreduce algorithm a round is priced (and simulated) as.
///
/// Selecting an algorithm changes *pricing only*: the trainer's gradient
/// arithmetic is identical for every variant, so final parameters stay
/// bitwise-identical across algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlgo {
    /// Bandwidth-optimal ring (the PR 5 default).
    #[default]
    Ring,
    /// Latency-optimal binary tree (reduce up, broadcast down).
    Tree,
    /// Two-level: intra-group tree → inter-group ring → broadcast.
    /// `group` is the intra-group size; `0` = auto (`⌈√p⌉`).
    Hierarchical {
        /// Intra-group size (`0` = auto `⌈√p⌉`; clamped to `1..=p`).
        group: usize,
    },
}

impl CollectiveAlgo {
    /// Parses a collective's name: `ring`, `tree`, `hier`/`hierarchical`
    /// (auto group), and `hier:G`/`hierarchical:G` for an explicit
    /// intra-group size.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        match s {
            "ring" => return Some(CollectiveAlgo::Ring),
            "tree" => return Some(CollectiveAlgo::Tree),
            "hier" | "hierarchical" => return Some(CollectiveAlgo::Hierarchical { group: 0 }),
            _ => {}
        }
        let rest = s.strip_prefix("hier:").or_else(|| s.strip_prefix("hierarchical:"))?;
        rest.parse::<usize>().ok().map(|group| CollectiveAlgo::Hierarchical { group })
    }

    /// The probe span name the trainer emits for a round priced with this
    /// algorithm (puffer-insight keys its per-collective α–β fit on it).
    pub fn span_name(&self) -> &'static str {
        match self {
            CollectiveAlgo::Ring => "allreduce",
            CollectiveAlgo::Tree => "tree_allreduce",
            CollectiveAlgo::Hierarchical { .. } => "hier_allreduce",
        }
    }
}

/// A homogeneous cluster's network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterProfile {
    /// Per-message latency α in seconds.
    pub alpha: f64,
    /// Per-byte transfer time β in seconds (1 / bandwidth).
    pub beta: f64,
    /// Number of nodes `p`.
    pub nodes: usize,
}

impl ClusterProfile {
    /// An EC2 p3.2xlarge-like profile: "up to 10 Gbps" (appendix K) and
    /// ~50 µs one-way latency.
    pub fn p3_like(nodes: usize) -> Self {
        ClusterProfile { alpha: 50e-6, beta: 8.0 / 10e9, nodes }
    }

    /// A zero-cost network (used to validate trainer equivalence).
    pub fn zero_cost(nodes: usize) -> Self {
        ClusterProfile { alpha: 0.0, beta: 0.0, nodes }
    }

    /// Ring-allreduce time for one `bytes`-sized buffer.
    pub fn allreduce(&self, bytes: usize) -> Duration {
        let p = self.nodes as f64;
        if self.nodes <= 1 {
            return Duration::ZERO;
        }
        let t = 2.0 * (p - 1.0) * self.alpha + 2.0 * ((p - 1.0) / p) * bytes as f64 * self.beta;
        Duration::from_secs_f64(t)
    }

    /// Allgather time when every node contributes `bytes`.
    pub fn allgather(&self, bytes: usize) -> Duration {
        let p = self.nodes as f64;
        if self.nodes <= 1 {
            return Duration::ZERO;
        }
        let t = (p - 1.0) * self.alpha + (p - 1.0) * bytes as f64 * self.beta;
        Duration::from_secs_f64(t)
    }

    /// Binary-tree allreduce time: `2·⌈log₂ p⌉·(α + n·β)` — reduce up the
    /// tree, broadcast back down, the whole buffer crossing each level.
    pub fn tree_allreduce(&self, bytes: usize) -> Duration {
        if self.nodes <= 1 {
            return Duration::ZERO;
        }
        let rounds = 2.0 * f64::from(ceil_log2(self.nodes));
        Duration::from_secs_f64(rounds * (self.alpha + bytes as f64 * self.beta))
    }

    /// Two-level hierarchical allreduce time for intra-group size `group`
    /// (`0` = auto `⌈√p⌉`): intra-group tree reduce, ring allreduce across
    /// the `G = ⌈p/g⌉` group leaders, intra-group tree broadcast.
    pub fn hier_allreduce(&self, bytes: usize, group: usize) -> Duration {
        if self.nodes <= 1 {
            return Duration::ZERO;
        }
        let g = hier_group(self.nodes, group);
        let groups = self.nodes.div_ceil(g);
        let intra = 2.0 * f64::from(ceil_log2(g)) * (self.alpha + bytes as f64 * self.beta);
        let leaders = ClusterProfile { nodes: groups, ..*self };
        leaders.allreduce(bytes) + Duration::from_secs_f64(intra)
    }

    /// Allreduce time under the selected [`CollectiveAlgo`].
    pub fn allreduce_with(&self, algo: CollectiveAlgo, bytes: usize) -> Duration {
        match algo {
            CollectiveAlgo::Ring => self.allreduce(bytes),
            CollectiveAlgo::Tree => self.tree_allreduce(bytes),
            CollectiveAlgo::Hierarchical { group } => self.hier_allreduce(bytes, group),
        }
    }

    /// Total time of `calls` independent allreduces of `bytes` each —
    /// models the unpacked per-layer synchronization the paper's packing
    /// optimization removes.
    pub fn allreduce_per_layer(&self, layer_bytes: &[usize]) -> Duration {
        layer_bytes.iter().map(|&b| self.allreduce(b)).sum()
    }
}

/// A **heterogeneous** cluster: per-node α/β plus seeded per-round jitter.
///
/// Real deployments are rarely the homogeneous testbed of
/// [`ClusterProfile`]: one node on a congested rack sees higher latency
/// and lower bandwidth, and a synchronous collective runs at the pace of
/// its **slowest** member. `HeteroProfile` models that, and — because it
/// is indexed by node id — it also prices the *surviving* member set after
/// the trainer drops a crashed worker (graceful degradation keeps an
/// accurate cost account).
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroProfile {
    /// Per-node message latency α in seconds.
    pub alphas: Vec<f64>,
    /// Per-node per-byte transfer time β in seconds.
    pub betas: Vec<f64>,
    /// Fractional per-round communication jitter: each round's comm time
    /// is stretched by a seeded factor in `[1, 1 + comm_jitter]`.
    pub comm_jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl HeteroProfile {
    /// A heterogeneous profile where every node matches `base` (jitter
    /// off) — the identity extension of a homogeneous cluster.
    pub fn uniform(base: ClusterProfile) -> Self {
        HeteroProfile {
            alphas: vec![base.alpha; base.nodes],
            betas: vec![base.beta; base.nodes],
            comm_jitter: 0.0,
            seed: 0,
        }
    }

    /// Overrides one node's network parameters (a slow rack, a congested
    /// uplink).
    pub fn with_node(mut self, node: usize, alpha: f64, beta: f64) -> Self {
        if let (Some(a), Some(b)) = (self.alphas.get_mut(node), self.betas.get_mut(node)) {
            *a = alpha;
            *b = beta;
        }
        self
    }

    /// Enables seeded per-round comm jitter.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.comm_jitter = jitter.max(0.0);
        self.seed = seed;
        self
    }

    /// Number of configured nodes.
    pub fn nodes(&self) -> usize {
        self.alphas.len()
    }

    /// Checks that every id in `members` names a configured node.
    ///
    /// # Errors
    ///
    /// [`DistError::UnknownMember`] naming the first id outside the
    /// profile.
    pub fn validate_members(&self, members: &[usize]) -> DistResult<()> {
        let nodes = self.nodes();
        match members.iter().find(|&&n| n >= nodes) {
            Some(&worker) => Err(DistError::UnknownMember { worker, nodes }),
            None => Ok(()),
        }
    }

    /// The homogeneous profile equivalent to running a synchronous
    /// collective over the member subset `live`: the slowest member's α
    /// and β dominate, and `p` is the member count.
    ///
    /// # Errors
    ///
    /// [`DistError::UnknownMember`] if `live` references a node id the
    /// profile does not configure. (This used to clamp silently, pricing
    /// a phantom member at zero cost; an unknown id is a configuration
    /// bug and is now rejected.)
    pub fn effective(&self, live: &[usize]) -> DistResult<ClusterProfile> {
        self.validate_members(live)?;
        let mut alpha = 0.0f64;
        let mut beta = 0.0f64;
        #[expect(
            clippy::indexing_slicing,
            reason = "validate_members above rejects out-of-range ids"
        )]
        for &n in live {
            alpha = alpha.max(self.alphas[n]);
            beta = beta.max(self.betas[n]);
        }
        Ok(ClusterProfile { alpha, beta, nodes: live.len() })
    }

    /// Deterministic per-round jitter factor in `[1, 1 + comm_jitter]`.
    pub fn jitter_factor(&self, round: u64) -> f64 {
        if self.comm_jitter <= 0.0 {
            return 1.0;
        }
        1.0 + self.comm_jitter
            * crate::fault::unit_in_01(self.seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_is_free() {
        let c = ClusterProfile::p3_like(1);
        assert_eq!(c.allreduce(1 << 20), Duration::ZERO);
        assert_eq!(c.allgather(1 << 20), Duration::ZERO);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates_with_nodes() {
        // (p−1)/p → 1: doubling nodes must not double allreduce time for
        // large buffers.
        let bytes = 100 << 20;
        let t2 = ClusterProfile::p3_like(2).allreduce(bytes).as_secs_f64();
        let t16 = ClusterProfile::p3_like(16).allreduce(bytes).as_secs_f64();
        assert!(t16 < t2 * 2.0, "t2 {t2} t16 {t16}");
    }

    #[test]
    fn allgather_grows_linearly_with_nodes() {
        let bytes = 10 << 20;
        let t4 = ClusterProfile::p3_like(4).allgather(bytes).as_secs_f64();
        let t16 = ClusterProfile::p3_like(16).allgather(bytes).as_secs_f64();
        assert!(t16 > t4 * 3.0, "t4 {t4} t16 {t16}");
    }

    #[test]
    fn crossover_compressed_allgather_vs_raw_allreduce() {
        // At small node counts a 32× smaller allgather beats the raw
        // allreduce; at large counts the allreduce wins — the appendix-F
        // phenomenon.
        let raw = 100 << 20;
        let compressed = raw / 32;
        let few = ClusterProfile::p3_like(2);
        assert!(few.allgather(compressed) < few.allreduce(raw));
        let many = ClusterProfile::p3_like(128);
        assert!(many.allgather(compressed) > many.allreduce(raw));
    }

    #[test]
    fn packing_beats_per_layer_latency() {
        // 100 small layers synced individually pay 100× the latency term.
        let c = ClusterProfile::p3_like(16);
        let layers = vec![4 * 1024usize; 100];
        let total: usize = layers.iter().sum();
        let packed = c.allreduce(total);
        let unpacked = c.allreduce_per_layer(&layers);
        assert!(unpacked > packed * 5, "packed {packed:?} unpacked {unpacked:?}");
    }

    #[test]
    fn hetero_effective_is_slowest_member() {
        let base = ClusterProfile::p3_like(4);
        let h = HeteroProfile::uniform(base).with_node(2, 200e-6, 8.0 / 1e9);
        // With the slow node in the set, its α and the worst β dominate.
        let all = h.effective(&[0, 1, 2, 3]).unwrap();
        assert_eq!(all.nodes, 4);
        assert_eq!(all.alpha, 200e-6);
        assert_eq!(all.beta, 8.0 / 1e9);
        // Dropping the slow node restores the base parameters at p = 3.
        let survivors = h.effective(&[0, 1, 3]).unwrap();
        assert_eq!(survivors.nodes, 3);
        assert_eq!(survivors.alpha, base.alpha);
        assert_eq!(survivors.beta, base.beta);
    }

    #[test]
    fn unknown_member_is_a_typed_error_not_a_clamp() {
        let h = HeteroProfile::uniform(ClusterProfile::p3_like(4));
        assert!(h.validate_members(&[0, 3]).is_ok());
        let err = h.effective(&[0, 4]).unwrap_err();
        assert_eq!(err, crate::error::DistError::UnknownMember { worker: 4, nodes: 4 });
        assert_eq!(
            h.validate_members(&[7]),
            Err(crate::error::DistError::UnknownMember { worker: 7, nodes: 4 })
        );
    }

    #[test]
    fn hetero_uniform_matches_homogeneous_cost() {
        let base = ClusterProfile::p3_like(8);
        let h = HeteroProfile::uniform(base);
        let live: Vec<usize> = (0..8).collect();
        assert_eq!(h.effective(&live).unwrap().allreduce(1 << 20), base.allreduce(1 << 20));
        assert_eq!(h.jitter_factor(3), 1.0);
    }

    #[test]
    fn jitter_factor_is_bounded_and_deterministic() {
        let h = HeteroProfile::uniform(ClusterProfile::p3_like(4)).with_jitter(0.25, 9);
        for round in 0..100u64 {
            let f = h.jitter_factor(round);
            assert!((1.0..=1.25).contains(&f), "round {round}: {f}");
            assert_eq!(f, h.jitter_factor(round));
        }
        // Not constant across rounds.
        assert_ne!(h.jitter_factor(0), h.jitter_factor(1));
    }

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn hier_group_auto_is_ceil_sqrt_and_explicit_is_clamped() {
        assert_eq!(hier_group(1, 0), 1);
        assert_eq!(hier_group(4, 0), 2);
        assert_eq!(hier_group(8, 0), 3);
        assert_eq!(hier_group(16, 0), 4);
        assert_eq!(hier_group(17, 0), 5);
        assert_eq!(hier_group(8, 4), 4);
        assert_eq!(hier_group(8, 100), 8);
        // An explicit group of 0 is "auto", so the smallest explicit size
        // is 1; below-range requests clamp up.
        assert_eq!(hier_group(8, 1), 1);
    }

    #[test]
    fn tree_allreduce_matches_closed_form() {
        let c = ClusterProfile::p3_like(8);
        let n = 1usize << 20;
        let want = 2.0 * 3.0 * (c.alpha + n as f64 * c.beta);
        // Duration round-trips at nanosecond resolution.
        let got = c.tree_allreduce(n).as_secs_f64();
        assert!((got - want).abs() < 2e-9, "got {got} want {want}");
        assert_eq!(ClusterProfile::p3_like(1).tree_allreduce(n), Duration::ZERO);
    }

    #[test]
    fn hier_allreduce_matches_closed_form() {
        let c = ClusterProfile::p3_like(8);
        let n = 1usize << 20;
        // group 4 → G = 2 groups: intra tree depth ⌈log₂4⌉ = 2 both ways,
        // plus a 2-node leader ring.
        let intra = 2.0 * 2.0 * (c.alpha + n as f64 * c.beta);
        let ring = ClusterProfile { nodes: 2, ..c }.allreduce(n).as_secs_f64();
        let got = c.hier_allreduce(n, 4).as_secs_f64();
        assert!((got - (intra + ring)).abs() < 2e-9, "got {got} want {}", intra + ring);
        // group = p degenerates to a pure tree.
        assert_eq!(c.hier_allreduce(n, 8), c.tree_allreduce(n));
        // group = 1 degenerates to a pure ring.
        assert_eq!(c.hier_allreduce(n, 1), c.allreduce(n));
        assert_eq!(ClusterProfile::p3_like(1).hier_allreduce(n, 0), Duration::ZERO);
    }

    #[test]
    fn hierarchical_beats_both_extremes_at_scale() {
        // At large p with a mid-size buffer, two-level beats the ring on
        // latency and the tree on bandwidth.
        let c = ClusterProfile::p3_like(64);
        let n = 256 << 10;
        let hier = c.hier_allreduce(n, 0);
        assert!(hier < c.allreduce(n), "hier {hier:?} ring {:?}", c.allreduce(n));
        assert!(hier < c.tree_allreduce(n), "hier {hier:?} tree {:?}", c.tree_allreduce(n));
    }

    #[test]
    fn collective_algo_parses_and_names_spans() {
        assert_eq!(CollectiveAlgo::parse("ring"), Some(CollectiveAlgo::Ring));
        assert_eq!(CollectiveAlgo::parse("tree"), Some(CollectiveAlgo::Tree));
        assert_eq!(CollectiveAlgo::parse("hier"), Some(CollectiveAlgo::Hierarchical { group: 0 }));
        assert_eq!(
            CollectiveAlgo::parse("hierarchical"),
            Some(CollectiveAlgo::Hierarchical { group: 0 })
        );
        assert_eq!(
            CollectiveAlgo::parse("hier:4"),
            Some(CollectiveAlgo::Hierarchical { group: 4 })
        );
        assert_eq!(
            CollectiveAlgo::parse(" hierarchical:16 "),
            Some(CollectiveAlgo::Hierarchical { group: 16 })
        );
        assert_eq!(CollectiveAlgo::parse("mesh"), None);
        assert_eq!(CollectiveAlgo::parse(""), None);
        assert_eq!(CollectiveAlgo::parse("hier:x"), None);
        assert_eq!(CollectiveAlgo::Ring.span_name(), "allreduce");
        assert_eq!(CollectiveAlgo::Tree.span_name(), "tree_allreduce");
        assert_eq!(CollectiveAlgo::Hierarchical { group: 0 }.span_name(), "hier_allreduce");
        assert_eq!(CollectiveAlgo::default(), CollectiveAlgo::Ring);
    }

    #[test]
    fn allreduce_with_dispatches_to_each_form() {
        let c = ClusterProfile::p3_like(16);
        let n = 1 << 20;
        assert_eq!(c.allreduce_with(CollectiveAlgo::Ring, n), c.allreduce(n));
        assert_eq!(c.allreduce_with(CollectiveAlgo::Tree, n), c.tree_allreduce(n));
        assert_eq!(
            c.allreduce_with(CollectiveAlgo::Hierarchical { group: 4 }, n),
            c.hier_allreduce(n, 4)
        );
    }

    #[test]
    fn paper_scale_sanity() {
        // ResNet-50 gradients (~102 MB) on 16 nodes at 10 Gbps: an
        // allreduce takes on the order of a fifth of a second.
        let c = ClusterProfile::p3_like(16);
        let t = c.allreduce(25_557_032 * 4).as_secs_f64();
        assert!(t > 0.05 && t < 1.0, "t {t}");
    }
}
