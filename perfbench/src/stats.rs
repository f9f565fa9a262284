//! Order statistics for latency samples: nearest-rank percentiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Percentiles tried, lowest first, when picking a distribution's tail.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Rounded to a whole ten-thousandth first so 99.9% of 1000 is rank 999,
    // not 1000 through float error.
    let scaled = (p * n as f64 * 100.0).round() as usize;
    scaled.div_ceil(10_000).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// One timing's summary: median, the supported tail and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank, reported even when unsupported).
    pub p99: f64,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples`, or `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            tail,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }

    /// Whether the p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        beyond(self.n, 99.0) >= MIN_BEYOND
    }

    /// A one-line rendering: median, tail and count.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, value)) => format!("p{p}={value:.1}"),
            None => "tail=unsupported".to_string(),
        };
        format!("n={} p50={:.1} {tail} mean={:.1}", self.n, self.p50, self.mean)
    }
}

/// Length of one time slice of the measured window, s.
pub const SLICE_S: f64 = 0.5;

/// Fewest samples a slice needs for its median to count.
const MIN_SLICE_SAMPLES: usize = 2 * MIN_BEYOND;

/// Most groups a tail percentile is taken over.
const MAX_GROUPS: usize = 20;

/// Fewest slices or groups a sliced statistic is taken over; with fewer,
/// the pooled statistic is returned.
const MIN_SLICES: usize = 8;

/// The slowness (see [`crate::speed::Probes::slowness`]) of the slice
/// holding time `at_s`; 1 past the end of `slowness`.
fn slowness_at(slowness: &[f64], at_s: f64) -> f64 {
    slowness.get((at_s / SLICE_S) as usize).or(slowness.last()).copied().unwrap_or(1.0)
}

/// The gated statistics are taken per slice of the window, each slice's
/// stated at the host's reference speed by its probe reading (see
/// [`crate::speed`]), and the median over the slices is reported.
///
/// Requests per second: the completions in each of the window's full
/// [`SLICE_S`] slices per second, times the slice's slowness; the median
/// over the slices. `ends` are completion times in seconds since the
/// window opened.
pub fn sliced_rate(ends: &[f64], window_s: f64, slowness: &[f64]) -> f64 {
    let slices = (window_s / SLICE_S).floor() as usize;
    if slices < MIN_SLICES {
        let rate = ends.len() as f64 / window_s.max(f64::MIN_POSITIVE);
        return rate * slowness_at(slowness, window_s / 2.0);
    }
    let mut rates = vec![0.0; slices];
    for &end in ends {
        if let Some(rate) = rates.get_mut((end / SLICE_S) as usize) {
            *rate += 1.0 / SLICE_S;
        }
    }
    for (k, rate) in rates.iter_mut().enumerate() {
        *rate *= slowness_at(slowness, k as f64 * SLICE_S);
    }
    median(&rates)
}

/// Median latency: each [`SLICE_S`] slice's median divided by the slice's
/// slowness; the median over the slices. `samples` are
/// `(completion s, latency)`; slices with fewer than 20 samples are
/// skipped.
pub fn sliced_p50(samples: &[(f64, f64)], slowness: &[f64]) -> f64 {
    let mut slices: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(end, value) in samples {
        slices.entry((end / SLICE_S) as u64).or_default().push(value);
    }
    let medians: Vec<f64> = slices
        .iter()
        .filter(|(_, s)| s.len() >= MIN_SLICE_SAMPLES)
        .map(|(&k, s)| median(s) / slowness_at(slowness, k as f64 * SLICE_S))
        .collect();
    if medians.len() < MIN_SLICES {
        let pooled: Vec<f64> =
            samples.iter().map(|&(at, v)| v / slowness_at(slowness, at)).collect();
        return median(&pooled);
    }
    median(&medians)
}

/// Tail percentile `p`: over consecutive groups of samples (at most 20
/// groups), each group's `p`th percentile divided by the slowness of the
/// slice its last sample completed in; the median over the groups. Groups are big enough for ten samples beyond it (100 for p90,
/// 1000 for p99). With fewer than four groups' worth, the pooled
/// percentile of the scaled samples.
pub fn grouped_tail(in_order: &[(f64, f64)], p: f64, slowness: &[f64]) -> f64 {
    let min_group = (MIN_BEYOND as f64 * 100.0 / (100.0 - p)).ceil() as usize;
    let tail = |group: &[(f64, f64)], scale: &dyn Fn(f64, f64) -> f64| {
        let mut sorted: Vec<f64> = group.iter().map(|&(at, v)| scale(at, v)).collect();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    };
    if in_order.len() < 4 * min_group {
        let each = |at: f64, v: f64| v / slowness_at(slowness, at);
        return if in_order.is_empty() { 0.0 } else { tail(in_order, &each) };
    }
    let size = min_group.max(in_order.len().div_ceil(MAX_GROUPS));
    let tails: Vec<f64> = in_order
        .chunks(size)
        .filter(|group| group.len() >= min_group)
        .map(|group| {
            let last = group[group.len() - 1].0;
            tail(group, &|_, v| v) / slowness_at(slowness, last)
        })
        .collect();
    median(&tails)
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // No interpolation: the answer is always one of the samples.
        assert_eq!(percentile(&[1.0, 100.0], 50.0), 1.0);
    }

    #[test]
    fn ranks_are_exact_at_round_percentiles() {
        assert_eq!(rank(1000, 99.9), 999);
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(rank(100, 99.0), 99);
        assert_eq!(rank(3, 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median leaves 9 beyond, so nothing is supported.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 is rank 90, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // p99 of 1000 is rank 990: 10 beyond.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut samples = ramp(1000);
        samples.reverse();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(s.p99_supported());
        assert!(!Summary::of(&ramp(500)).unwrap().p99_supported());
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sliced_rate_takes_the_median_scaled_slice() {
        // Twenty full slices; slice i completes i + 1 requests.
        let mut ends = Vec::new();
        for slice in 0..20 {
            for k in 0..=slice {
                ends.push(slice as f64 * SLICE_S + 0.01 * (k + 1) as f64);
            }
        }
        // A partial slice past the last full one does not count.
        ends.push(20.0 * SLICE_S + 0.01);
        let window = 20.0 * SLICE_S + 0.1;
        // The median slice (rank 10 of 20) completes 10: 20 per second.
        assert_eq!(sliced_rate(&ends, window, &[1.0; 21]), 20.0);
        // At twice the reference's slowness the host would have done twice
        // as much at the reference speed.
        assert_eq!(sliced_rate(&ends, window, &[2.0; 21]), 40.0);
        // Too short to slice: the plain rate, scaled.
        assert_eq!(sliced_rate(&[0.1, 0.2, 0.3], 1.0, &[1.0, 1.0]), 3.0);
        assert_eq!(sliced_rate(&[0.1, 0.2, 0.3], 1.0, &[]), 3.0);
    }

    #[test]
    fn sliced_p50_skips_thin_slices_and_scales_each_slice() {
        let mut samples = Vec::new();
        for slice in 0..20 {
            for k in 0..30 {
                samples
                    .push((slice as f64 * SLICE_S + 0.001 * k as f64, (slice * 10 + k % 3) as f64));
            }
        }
        // A thin slice of tiny values does not count.
        samples.push((21.0 * SLICE_S, 0.0));
        // Slice medians 1, 11, …, 191; the median of the twenty is 91.
        assert_eq!(sliced_p50(&samples, &[1.0; 22]), 91.0);
        assert_eq!(sliced_p50(&samples, &[2.0; 22]), 45.5);
        // Slices 10.. ran at half speed: their medians scale to 50.5, 55.5,
        // …, 95.5, and rank 10 of all twenty is slice 6's 61.
        let mut half = vec![1.0; 10];
        half.extend([2.0; 12]);
        assert_eq!(sliced_p50(&samples, &half), 61.0);
        assert_eq!(sliced_p50(&[(0.0, 5.0), (0.1, 7.0), (0.2, 6.0)], &[1.0]), 6.0);
    }

    #[test]
    fn grouped_tail_needs_ten_beyond_in_every_group() {
        let timed = |n: usize| -> Vec<(f64, f64)> {
            (1..=n).map(|i| (i as f64 * 1e-4, i as f64)).collect()
        };
        // p99 needs groups of 1000: 3500 samples stay pooled.
        assert_eq!(grouped_tail(&timed(3500), 99.0, &[]), 3465.0);
        // Four groups of 1000 with p99s 990 + 1000·g: rank 2 of 4.
        assert_eq!(grouped_tail(&timed(4000), 99.0, &[]), 1990.0);
        // 40 000 samples make 20 groups of 2000 with p99s 1980 + 2000·g;
        // rank 10 of 20 is g = 9.
        assert_eq!(grouped_tail(&timed(40_000), 99.0, &[]), 1980.0 + 2000.0 * 9.0);
        // p90 needs groups of only 100.
        assert_eq!(grouped_tail(&timed(400), 90.0, &[]), 190.0);
        assert_eq!(grouped_tail(&timed(300), 90.0, &[]), 270.0);
        assert_eq!(grouped_tail(&[], 90.0, &[]), 0.0);
        // Each group is scaled by the slowness of the slice it ended in.
        assert_eq!(grouped_tail(&timed(400), 90.0, &[2.0]), 95.0);
    }
}
