//! Order statistics: a run reports the fast quarter of its units' times,
//! the traced pass medians over replays and rounds, and the suite compares
//! runs.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both mean the caller measured nothing.
// The probe's Histogram rounds to log2 buckets (up to 12.5 % off); the bounds
// this median is gated on are tighter. lint:allow(no-raw-percentile-math)
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the fastest quarter of `times` (rounded up, so at least one).
///
/// What disturbs a timing on a shared machine — a busy neighbour, a core
/// clocked down — only ever adds to it, and on the reference box it comes in
/// stretches of 5 to 15 s that slow a unit by up to 1.7×. A run that catches
/// such a stretch still has undisturbed units; their mean moves between runs
/// half as far as the median over all units does (README, "Estimator").
///
/// # Panics
///
/// Panics on an empty slice or a NaN, like [`median`].
pub fn fast_quarter_mean(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "fast quarter of no values");
    let mut v = times.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing sample"));
    let fastest = &v[..v.len().div_ceil(4)];
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

/// `(max − min) / median`: how far the units of one run swing.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / median(values)
}

/// `|b − a| / min(|a|, |b|)`: how far two measurements of the same thing lie
/// apart, whichever of them was taken first.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs().min(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One 3× outlier among seven units does not move the median.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 3.0, 1.05, 0.95]), 1.0);
    }

    #[test]
    fn fast_quarter_ignores_the_disturbed_units() {
        assert_eq!(fast_quarter_mean(&[3.0]), 3.0);
        // Three units: the fastest one. Eight: the fastest two.
        assert_eq!(fast_quarter_mean(&[2.0, 1.0, 4.0]), 1.0);
        assert_eq!(fast_quarter_mean(&[1.0, 1.2, 1.7, 1.7, 1.7, 1.1, 1.7, 1.7]), 1.05);
        // Nine: three, since the quarter is rounded up.
        assert_eq!(fast_quarter_mean(&[9.0, 1.0, 9.0, 2.0, 9.0, 3.0, 9.0, 9.0, 9.0]), 2.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert!((spread(&[0.9, 1.0, 1.2]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rel_diff_does_not_depend_on_the_order() {
        assert!((rel_diff(100.0, 80.0) - 0.25).abs() < 1e-12);
        assert!((rel_diff(80.0, 100.0) - 0.25).abs() < 1e-12);
        assert!((rel_diff(2.0, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(rel_diff(3.0, 3.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "median of no values")]
    fn median_rejects_empty() {
        median(&[]);
    }
}
