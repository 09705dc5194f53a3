//! Property tests for the streaming histogram: bucket containment,
//! merge associativity/commutativity, percentile monotonicity, and the
//! bounded relative error of every quantile. The seeded-loop versions of
//! these properties live in `src/hist.rs`; this file widens them to
//! arbitrary inputs on the seeded case runner (`puffer_tensor::rng::check`).

use puffer_probe::Histogram;
use puffer_tensor::rng::{check, Rng};

/// `len` values of every magnitude: a raw word shifted right by 0..64 bits,
/// so small values and `u64::MAX`-sized ones are equally likely.
fn words(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<u64> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.next_u64() >> rng.gen_range(0..64u32)).collect()
}

fn build(xs: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in xs {
        h.record(v);
    }
    h
}

#[test]
fn count_sum_min_max_are_exact() {
    check("count_sum_min_max_are_exact", 256, |rng| {
        let xs = words(rng, 1..200);
        let h = build(&xs);
        assert_eq!(h.count(), xs.len() as u64);
        assert_eq!(h.min(), *xs.iter().min().unwrap());
        assert_eq!(h.max(), *xs.iter().max().unwrap());
    });
}

#[test]
fn percentiles_are_monotone() {
    check("percentiles_are_monotone", 256, |rng| {
        let xs = words(rng, 1..200);
        let h = build(&xs);
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = h.percentile(f64::from(i) / 20.0);
            assert!(q >= prev, "quantiles must be non-decreasing in p");
            prev = q;
        }
        assert_eq!(h.percentile(1.0), h.max(), "p100 is the exact maximum");
    });
}

#[test]
fn quantile_error_is_bounded() {
    check("quantile_error_is_bounded", 256, |rng| {
        let len = rng.gen_range(1..200usize);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000_000u64)).collect();
        let h = build(&xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = h.percentile(p);
            assert!(approx >= exact, "upper-bound quantile cannot undershoot");
            assert!(
                approx as f64 <= exact as f64 * 1.125 + 1.0,
                "bucket error exceeded: approx {} vs exact {}",
                approx,
                exact
            );
        }
    });
}

#[test]
fn merge_is_associative_and_equals_concatenation() {
    check("merge_is_associative_and_equals_concatenation", 256, |rng| {
        let (a, b, c) = (words(rng, 0..100), words(rng, 0..100), words(rng, 0..100));
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        assert_eq!(&left, &right, "merge must be associative");
        // c ⊕ b ⊕ a
        let mut rev = hc.clone();
        rev.merge(&hb);
        rev.merge(&ha);
        assert_eq!(&left, &rev, "merge must be commutative");
        // And equal to recording the concatenated stream.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        assert_eq!(&left, &build(&all), "shards must equal the unsharded stream");
    });
}
