//! Order statistics over repeated measurements.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)`, so exactly
//! `n - rank` samples lie beyond it. A tail percentile is only worth
//! reporting when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A sorted copy of `xs` (NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9 % of 10000` from rounding up past 9990).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(p, xs.len()) - 1]
}

/// Median (mean of the two middle samples for even counts); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of the ladder 99.9/99/95/90/75 with at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// The `over`-th percentile, across consecutive windows of `window`
/// samples, of each window's `p`-th percentile. A trailing partial window
/// is ignored unless there is no full one, in which case this is the plain
/// `p`-th percentile. With `over` below 50, stretches of a run in which the
/// host took the CPU away move only the windows they cover, not the
/// result, while a slowdown that covers more than `100 - over` percent of
/// the windows does.
pub fn windowed_percentile(xs: &[f64], window: usize, p: f64, over: f64) -> f64 {
    let per_window: Vec<f64> = xs
        .chunks_exact(window.max(1))
        .map(|w| percentile(w, p))
        .collect();
    if per_window.is_empty() {
        percentile(xs, p)
    } else {
        percentile(&per_window, over)
    }
}

/// A latency distribution as the benchmark reports it: the median, the
/// highest percentile with enough samples beyond it, and the count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest well-supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            p50: median(xs),
            tail: highest_tail(xs.len()).map(|p| (p, percentile(xs, p))),
        }
    }

    /// One line: `n=.. p50=.. p99=..` (tail omitted when unsupported).
    pub fn render(&self, unit: &str) -> String {
        let mut s = format!("n={} p50={:.4}{unit}", self.n, self.p50);
        if let Some((p, v)) = self.tail {
            s.push_str(&format!(" p{p}={v:.4}{unit}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(99), Some(75.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(39), None);
        assert_eq!(highest_tail(0), None);
        for n in [40, 100, 137, 1000, 12_345] {
            let p = highest_tail(n).expect("enough samples");
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn windowed_percentile_discounts_bad_windows() {
        // Four windows of 10; the second and third are slow throughout.
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|x| 100.0 * x).collect();
        let xs: Vec<f64> = [&fast[..], &slow[..], &slow[..], &fast[..]].concat();
        assert_eq!(windowed_percentile(&xs, 10, 90.0, 25.0), 9.0);
        assert_eq!(windowed_percentile(&xs, 10, 90.0, 75.0), 900.0);
        assert_eq!(percentile(&xs, 90.0), 800.0);
        // Fewer samples than one window: the plain percentile.
        assert_eq!(windowed_percentile(&xs[..5], 10, 90.0, 25.0), 5.0);
        // A partial trailing window is ignored.
        assert_eq!(windowed_percentile(&xs[..15], 10, 90.0, 100.0), 9.0);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(s.render("ms"), "n=200 p50=100.5000ms p95=190.0000ms");
        assert_eq!(Summary::of(&[1.0]).tail, None);
    }
}
