//! Streaming log2-bucketed latency histograms.
//!
//! A [`Histogram`] is the probe's distribution primitive: fixed memory
//! (496 buckets ≈ 4 KiB, never grows), O(1) insert, mergeable by bucket
//! addition, and percentile queries with a bounded relative error. Buckets
//! are logarithmic with [`SUB_BUCKETS`] sub-divisions per octave, so any
//! bucket's width is at most `1/SUB_BUCKETS` of its lower bound — every
//! reported quantile is within 12.5% of the true sample value, across the
//! full `u64` range with the same footprint.
//!
//! The registry mirrors the counters registry: process-global, keyed by
//! static `(category, name)` pairs, guarded by the same enabled check, so
//! a disabled [`hist_record`] is one relaxed atomic load and a branch.
//! Every completed `'X'` span is folded into the histogram of its span
//! family automatically (see `push_event` in the crate root) — the span
//! that feeds the trace timeline and the sample that feeds p50/p90/p99
//! are the same measurement. Histograms travel through both exporters:
//! `{"type":"hist",...}` JSONL rows and `"histogram"` metadata records in
//! the Chrome trace.
//!
//! Values are dimensionless `u64`s; every recorder in this workspace
//! stores **nanoseconds** (the span hook uses `Duration::as_nanos`), which
//! is why the exported quantile keys are suffixed `_ns`.

use crate::span::{current_tid, ArgValue, TraceEvent};
use crate::{enabled, now_rel};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Sub-buckets per octave, as a power of two: 2^3 = 8 linear divisions of
/// every `[2^k, 2^(k+1))` range.
pub const SUB_BITS: u32 = 3;

/// Number of linear sub-buckets per octave.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64` (exact below `2^SUB_BITS`,
/// then `SUB_BUCKETS` per remaining octave).
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_BUCKETS;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let sub = ((v >> (k - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (((k - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let k = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (i & (SUB_BUCKETS - 1)) as u64;
    (1u64 << k) + (sub << (k - SUB_BITS))
}

/// Largest value mapping to bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        bucket_lower_bound(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A fixed-memory streaming histogram. See the module docs for the bucket
/// layout; `max` and `min` are tracked exactly, so `percentile(1.0)`
/// returns the true maximum and every quantile is clamped into
/// `[min, max]`.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram { counts: Box::new([0; NUM_BUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds `other` into `self` (bucket-wise addition; exact min/max and
    /// sum combine). Merging is associative and commutative, so shards
    /// recorded on different workers collapse into one distribution in any
    /// order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of all samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p ∈ [0, 1]`: an upper bound of the bucket
    /// holding the sample of rank `ceil(p·count)`, clamped into the exact
    /// `[min, max]` range. Monotone in `p`; `percentile(1.0)` is the exact
    /// maximum. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_lower_bound(i), bucket_upper_bound(i), *c))
    }
}

type Key = (&'static str, &'static str);

static REGISTRY: Mutex<BTreeMap<Key, Histogram>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<Key, Histogram>> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn clear_registry() {
    registry().clear();
}

/// Records one sample into the `(cat, name)` histogram. A no-op when the
/// probe is disabled.
#[inline]
pub fn hist_record(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    registry().entry((cat, name)).or_default().record(value);
}

/// Records a duration (as nanoseconds) into the `(cat, name)` histogram.
/// A no-op when the probe is disabled.
#[inline]
pub fn hist_record_duration(cat: &'static str, name: &'static str, d: Duration) {
    if !enabled() {
        return;
    }
    record_span(cat, name, d);
}

/// Internal enabled-checked-by-caller path: `push_event` folds every
/// completed `'X'` span in here, so each span family accumulates its own
/// latency distribution for free.
pub(crate) fn record_span(cat: &'static str, name: &'static str, dur: Duration) {
    registry()
        .entry((cat, name))
        .or_default()
        .record(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
}

/// The histogram recorded under `(cat, name)`, if any samples exist.
#[must_use]
pub fn hist_value(cat: &str, name: &str) -> Option<Histogram> {
    registry().iter().find(|((c, n), _)| *c == cat && *n == name).map(|(_, h)| h.clone())
}

/// A snapshot of every registered histogram, key-sorted.
#[must_use]
pub fn hist_snapshot() -> Vec<((&'static str, &'static str), Histogram)> {
    registry().iter().map(|(k, h)| (*k, h.clone())).collect()
}

/// Serializes every non-empty histogram as `{"type":"hist",...}` JSONL
/// rows — appended by the exporter after the counters summary.
pub(crate) fn hist_rows() -> Vec<String> {
    registry()
        .iter()
        .filter(|(_, h)| !h.is_empty())
        .map(|((cat, name), h)| {
            let mut line = String::from("{\"type\":\"hist\",\"cat\":");
            crate::json::escape_into(&mut line, cat);
            line.push_str(",\"name\":");
            crate::json::escape_into(&mut line, name);
            crate::append!(
                line,
                ",\"count\":{},\"min_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":",
                h.count(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
            );
            crate::json::number_into(&mut line, h.mean());
            line.push('}');
            line
        })
        .collect()
}

/// Every non-empty histogram as a `"histogram"` metadata record for the
/// Chrome trace (args carry the family key and its quantiles).
pub(crate) fn hist_trace_events() -> Vec<TraceEvent> {
    registry()
        .iter()
        .filter(|(_, h)| !h.is_empty())
        .map(|((cat, name), h)| TraceEvent {
            phase: 'M',
            name: "histogram",
            cat: "",
            ts: now_rel(),
            dur: Duration::ZERO,
            tid: current_tid(),
            args: vec![
                ("cat", ArgValue::Str((*cat).to_string())),
                ("name", ArgValue::Str((*name).to_string())),
                ("count", ArgValue::U64(h.count())),
                ("min_ns", ArgValue::U64(h.min())),
                ("p50_ns", ArgValue::U64(h.p50())),
                ("p90_ns", ArgValue::U64(h.p90())),
                ("p99_ns", ArgValue::U64(h.p99())),
                ("max_ns", ArgValue::U64(h.max())),
                ("mean_ns", ArgValue::F64(h.mean())),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream — the tests' only randomness source,
    /// so every assertion is reproducible bit-for-bit.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Every bucket's lower bound must map back to that bucket, and
        // bucket ranges must tile u64 without gaps or overlaps.
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i} maps back");
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i} maps back");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lower_bound(i + 1), hi + 1, "buckets tile contiguously");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Above the linear range a bucket spans lo..lo+lo/8, so the upper
        // bound overestimates any member by at most 12.5%.
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for _ in 0..10_000 {
            let v = rng.next() >> (rng.next() % 48);
            let i = bucket_index(v);
            let (lo, hi) = (bucket_lower_bound(i), bucket_upper_bound(i));
            assert!(lo <= v && v <= hi, "v={v} outside bucket [{lo}, {hi}]");
            if v >= SUB_BUCKETS as u64 {
                assert!((hi - lo) as f64 <= lo as f64 / 8.0 + 1.0, "bucket too wide at {v}");
            }
        }
    }

    #[test]
    fn percentiles_are_monotone_and_p100_is_exact_max() {
        let mut h = Histogram::new();
        let mut rng = Rng(42);
        let mut true_max = 0u64;
        for _ in 0..5_000 {
            let v = rng.next() % 1_000_000;
            true_max = true_max.max(v);
            h.record(v);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = h.percentile(f64::from(i) / 100.0);
            assert!(q >= prev, "percentile must be monotone in p");
            prev = q;
        }
        assert_eq!(h.percentile(1.0), true_max, "p100 is the exact maximum");
        assert_eq!(h.max(), true_max);
    }

    #[test]
    fn percentile_tracks_exact_rank_within_bucket_error() {
        let mut h = Histogram::new();
        let mut xs: Vec<u64> = Vec::new();
        let mut rng = Rng(7);
        for _ in 0..2_000 {
            let v = rng.next() % 100_000;
            xs.push(v);
            h.record(v);
        }
        xs.sort_unstable();
        for &p in &[0.5, 0.9, 0.99] {
            let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = xs[rank - 1];
            let approx = h.percentile(p);
            assert!(approx >= exact, "upper-bound quantile cannot undershoot");
            assert!(
                approx as f64 <= exact as f64 * 1.125 + 1.0,
                "p{p}: approx {approx} vs exact {exact} exceeds 12.5% bucket error"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = Rng(1234);
        let parts: Vec<Vec<u64>> =
            (0..3).map(|_| (0..500).map(|_| rng.next() % 1_000_000).collect()).collect();
        let hist_of = |idx: &[usize]| {
            let mut h = Histogram::new();
            for &i in idx {
                let mut part = Histogram::new();
                for &v in &parts[i] {
                    part.record(v);
                }
                h.merge(&part);
            }
            h
        };
        let abc = hist_of(&[0, 1, 2]);
        let cba = hist_of(&[2, 1, 0]);
        let bac = hist_of(&[1, 0, 2]);
        assert_eq!(abc, cba, "merge order must not matter");
        assert_eq!(abc, bac);
        // And equals recording the concatenated stream directly.
        let mut all = Histogram::new();
        for part in &parts {
            for &v in part {
                all.record(v);
            }
        }
        assert_eq!(abc, all, "merge of shards equals the unsharded stream");
    }

    #[test]
    fn identical_streams_produce_bitwise_identical_histograms() {
        let build = || {
            let mut h = Histogram::new();
            let mut rng = Rng(0xdeadbeef);
            for _ in 0..4_096 {
                h.record(rng.next() >> 20);
            }
            h
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed, same histogram");
        assert_eq!(
            (a.p50(), a.p90(), a.p99(), a.max(), a.min(), a.count()),
            (b.p50(), b.p90(), b.p99(), b.max(), b.min(), b.count())
        );
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.count(), h.min(), h.max(), h.p50(), h.percentile(1.0)), (0, 0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn registry_records_and_clears() {
        let _guard = crate::testutil::lock();
        crate::reset();
        crate::configure(crate::ProbeConfig::in_memory());
        hist_record("t", "reg", 100);
        hist_record("t", "reg", 200);
        hist_record_duration("t", "dur", Duration::from_micros(5));
        let h = hist_value("t", "reg").expect("histogram registered");
        assert_eq!(h.count(), 2);
        assert_eq!(hist_value("t", "dur").unwrap().max(), 5_000);
        assert!(hist_value("t", "missing").is_none());
        let rows = hist_rows();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let parsed = crate::json::parse(row).unwrap();
            assert_eq!(parsed.get("type").unwrap().as_str(), Some("hist"));
            assert!(parsed.get("p50_ns").unwrap().as_num().is_some());
        }
        crate::reset();
        assert!(hist_value("t", "reg").is_none(), "reset clears histograms");
    }

    #[test]
    fn disabled_hist_record_is_a_no_op() {
        let _guard = crate::testutil::lock();
        crate::reset();
        hist_record("t", "dead", 1);
        assert!(hist_value("t", "dead").is_none());
    }

    #[test]
    fn spans_feed_histograms_automatically() {
        let _guard = crate::testutil::lock();
        crate::reset();
        crate::configure(crate::ProbeConfig::in_memory());
        for i in 0..4u64 {
            crate::emit_span("t", "autohist", Duration::from_micros(10 * (i + 1)), Vec::new());
        }
        let h = hist_value("t", "autohist").expect("span family histogram");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 40_000, "max span duration in nanoseconds");
        let events = hist_trace_events();
        assert!(events.iter().all(|e| e.phase == 'M' && e.name == "histogram"));
        assert!(events.iter().any(|e| e
            .args
            .iter()
            .any(|(k, v)| *k == "name" && matches!(v, ArgValue::Str(s) if s == "autohist"))));
        crate::reset();
    }
}
