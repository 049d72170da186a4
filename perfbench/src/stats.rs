//! The benchmark's own arithmetic: percentiles, quartiles, geomeans and
//! the paired comparison rule. Kept free of any timing or I/O so the
//! unit tests below pin every formula.

/// The percentiles a timing may report as its tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile of `n > 0` samples
/// (`p × n / 100` rounded up, ignoring floating-point dust).
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder (99.9, 99, 90, 50) that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default `"exclusive"` method), so the spreads computed here equal the
/// ones any script computes from the same values.
///
/// # Panics
///
/// Panics with fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread measure
/// the bounds are judged against. A single sample has no spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / med.abs()
}

/// Geometric mean of positive values (`NaN` when any is not positive,
/// `NaN` for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Outcome of comparing paired runs of a parent and a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairTally {
    /// Pairs where the change read better.
    pub wins: usize,
    /// Pairs where the parent read better.
    pub losses: usize,
    /// Pairs that read equal (they count for neither side).
    pub ties: usize,
}

/// Tallies paired values (same seed, one from each side).
pub fn pair_tally(pairs: &[(f64, f64)], lower_is_better: bool) -> PairTally {
    let mut t = PairTally { wins: 0, losses: 0, ties: 0 };
    for &(parent, change) in pairs {
        let better = if lower_is_better { change < parent } else { change > parent };
        let worse = if lower_is_better { change > parent } else { change < parent };
        if better {
            t.wins += 1;
        } else if worse {
            t.losses += 1;
        } else {
            t.ties += 1;
        }
    }
    t
}

/// The paired rule for claiming a gain: the change wins at least nine
/// tenths of all pairs run (ties count for neither side), and the
/// medians differ in the change's favour by more than the parent's own
/// interquartile range.
pub fn is_gain(pairs: &[(f64, f64)], lower_is_better: bool) -> bool {
    if pairs.len() < 2 {
        return false;
    }
    let tally = pair_tally(pairs, lower_is_better);
    if tally.wins * 10 < pairs.len() * 9 {
        return false;
    }
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [q1, _, q3] = quartiles(&parent);
    let gap = median(&parent) - median(&change);
    let gap = if lower_is_better { gap } else { -gap };
    gap > q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0; 10]), 0.0);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn pair_wins_need_nine_tenths_and_a_gap_beyond_the_parent_iqr() {
        // Ten pairs, change faster in all ten by a wide margin: a gain.
        let wide: Vec<(f64, f64)> = (0..10).map(|k| (100.0 + k as f64, 80.0 + k as f64)).collect();
        assert!(is_gain(&wide, true));
        // Nine of ten wins still qualifies...
        let mut nine = wide.clone();
        nine[3] = (100.0, 120.0);
        assert_eq!(pair_tally(&nine, true), PairTally { wins: 9, losses: 1, ties: 0 });
        assert!(is_gain(&nine, true));
        // ...eight does not.
        let mut eight = nine.clone();
        eight[4] = (100.0, 120.0);
        assert!(!is_gain(&eight, true));
        // Ties count for neither side, so they cost a win.
        let mut tied = nine.clone();
        tied[5] = (90.0, 90.0);
        assert_eq!(pair_tally(&tied, true).ties, 1);
        assert!(!is_gain(&tied, true));
        // All wins, but the gap (1) is inside the parent's IQR (~5.5).
        let narrow: Vec<(f64, f64)> =
            (0..10).map(|k| (100.0 + k as f64, 99.0 + k as f64)).collect();
        assert_eq!(pair_tally(&narrow, true).wins, 10);
        assert!(!is_gain(&narrow, true));
        // Higher-is-better metrics flip the direction.
        let up: Vec<(f64, f64)> = wide.iter().map(|&(p, c)| (c, p)).collect();
        assert!(is_gain(&up, false));
        assert!(!is_gain(&up, true));
    }
}
