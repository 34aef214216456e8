//! Order statistics for timing samples.

/// Standard percentiles, highest first; [`Summary::of`] reports the highest
/// one that has at least [`TAIL_SUPPORT`] samples beyond it.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SUPPORT: f64 = 10.0;

/// The `p`-th percentile (0..=100) of ascending `sorted`, by linear
/// interpolation between the closest ranks.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive values (`NaN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The `p`-th percentile (0..=100) of every sample divided by its own
/// group's median, pooled over the non-empty `groups` with each group
/// weighing the same however many samples it has (the smallest ratio whose
/// cumulative weight reaches `p`%). Groups that each have too few samples
/// for a tail of their own support one together.
pub fn pooled_relative_percentile(groups: &[Vec<f64>], p: f64) -> f64 {
    let mut weighted: Vec<(f64, f64)> = Vec::new();
    for g in groups.iter().filter(|g| !g.is_empty()) {
        let mut sorted = g.clone();
        sorted.sort_by(f64::total_cmp);
        let median = percentile(&sorted, 50.0);
        weighted.extend(sorted.iter().map(|&x| (x / median, 1.0 / g.len() as f64)));
    }
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = p / 100.0 * weighted.iter().map(|w| w.1).sum::<f64>();
    let mut cumulative = 0.0;
    for &(ratio, weight) in &weighted {
        cumulative += weight;
        if cumulative >= target - 1e-12 {
            return ratio;
        }
    }
    weighted.last().map_or(f64::NAN, |w| w.0)
}

/// Median, quartiles, and the best-supported tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile.
    pub p95: f64,
    /// The highest ladder percentile with at least [`TAIL_SUPPORT`] samples
    /// beyond it, and its value (`None` below 40 samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        // The tolerance absorbs the rounding of `100 - p` for p = 99.99.
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| n * (100.0 - p) / 100.0 >= TAIL_SUPPORT - 1e-6)
            .map(|&p| (p, percentile(&sorted, p)));
        Some(Summary {
            count: sorted.len(),
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            p95: percentile(&sorted, 95.0),
            tail,
        })
    }

    /// One human-readable line: `median [q1, q3] pXX=... (n=...)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.4}{unit}"),
            None => String::new(),
        };
        format!(
            "median {:.4}{unit} [q1 {:.4}, q3 {:.4}]{tail} (n={})",
            self.median, self.q1, self.q3, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn summary_orders_input_and_reports_quartiles() {
        let samples: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.count, 101);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.q1, 26.0);
        assert_eq!(s.q3, 76.0);
        assert_eq!(s.p95, 96.0);
        // 101 samples: p90 has 10.1 beyond it, p95 only 5.05.
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
    }

    #[test]
    fn tail_climbs_the_ladder_with_the_sample_count() {
        let tail_of = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            Summary::of(&v).and_then(|s| s.tail).map(|t| t.0)
        };
        assert_eq!(tail_of(39), None);
        assert_eq!(tail_of(40), Some(75.0));
        assert_eq!(tail_of(200), Some(95.0));
        assert_eq!(tail_of(1_000), Some(99.0));
        assert_eq!(tail_of(10_000), Some(99.9));
        assert_eq!(tail_of(100_000), Some(99.99));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn pooled_percentiles_weigh_groups_equally() {
        // Group a: ten samples at its median. Group b: two at its median
        // and one at twice it, so a sixth of the pooled weight sits at 2.
        let a = vec![5.0; 10];
        let b = vec![1.0, 1.0, 2.0];
        assert_eq!(pooled_relative_percentile(&[a.clone(), b.clone()], 50.0), 1.0);
        assert_eq!(pooled_relative_percentile(&[a.clone(), b.clone()], 80.0), 1.0);
        assert_eq!(pooled_relative_percentile(&[a, b], 90.0), 2.0);
        assert!(pooled_relative_percentile(&[vec![], vec![]], 90.0).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }
}
