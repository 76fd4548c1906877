//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus, where the sample supports
//! it, one upper percentile. "Supports" follows the choosing-metrics
//! rule: a percentile is only reported when at least ten samples lie
//! beyond it, so a p99 over 200 samples (two samples beyond) is never
//! printed as if it meant something.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending (NaNs are a harness bug and panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Nearest-rank percentile `p` in `(0, 100]` of an ascending slice.
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the two middle samples when the
/// count is even). Empty input reads 0.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Lower and upper quartile by nearest rank: the values a quarter of the
/// samples do not exceed, and three quarters do not.
///
/// The gated end-to-end timings are read at the *favourable* quartile
/// (lower for a latency, upper for a throughput), not at the median. The
/// reference host flips between two speed states every few seconds — a
/// fixed single-thread kernel reads 155 ms or 205 ms from one sample to
/// the next, with nothing else running in the VM — so a 10 s run is a
/// mixture, and its median jumps from one mode to the other with the share
/// of slow time. The favourable quartile stays in the fast mode until
/// three quarters of the run is slow. The noise is one-sided (interference
/// only slows), so this loses nothing a code change could hide behind:
/// whatever slows every operation moves every quantile.
pub fn quartile_low(sorted: &[f64]) -> f64 {
    percentile(sorted, 25.0)
}

/// See [`quartile_low`].
pub fn quartile_high(sorted: &[f64]) -> f64 {
    percentile(sorted, 75.0)
}

/// Median of unsorted samples.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec()))
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie strictly beyond
/// the nearest-rank position of percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

/// The percentile `p` when the sample supports it, otherwise the highest
/// of `90, 75, 50` that it does support (the median is always allowed).
/// Returns `(percentile actually used, value)`.
pub fn upper_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    for candidate in [p, 90.0, 75.0] {
        if candidate <= p && supported(sorted.len(), candidate) {
            return (candidate, percentile(sorted, candidate));
        }
    }
    (50.0, median(sorted))
}

/// First and third quartile by the "exclusive" method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance driver computes spreads from. Needs two samples; fewer read
/// as a zero-width interval at the single value (or 0).
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k * (n + 1) / 4, 1-based, clamped into the sample.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is
/// 0 or there are fewer than two samples).
pub fn spread(sorted: &[f64]) -> f64 {
    let m = median(sorted);
    if sorted.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentile_pick_the_documented_ranks() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(6)), 3.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&ramp(100), 99.0), 99.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
        assert_eq!(percentile(&ramp(3), 1.0), 1.0);
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(
            (quartile_low(&ramp(8)), quartile_high(&ramp(8))),
            (2.0, 6.0)
        );
        assert_eq!(
            (quartile_low(&ramp(5)), quartile_high(&ramp(5))),
            (2.0, 4.0)
        );
    }

    #[test]
    fn upper_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples: rank 990, exactly ten beyond — allowed.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        // p95 of 200 ticks: rank 190, ten beyond — allowed; 199 is not.
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));

        assert_eq!(upper_percentile(&ramp(1000), 99.0), (99.0, 990.0));
        // 150 samples cannot carry a p99 (one sample beyond) but carry p90.
        assert_eq!(upper_percentile(&ramp(150), 99.0), (90.0, 135.0));
        // 45 samples: p90 leaves 4 beyond, p75 leaves 11.
        assert_eq!(upper_percentile(&ramp(45), 99.0), (75.0, 34.0));
        // With ten samples or fewer only the median is left.
        assert_eq!(upper_percentile(&ramp(10), 99.0), (50.0, 5.5));
        // Never falls back *upwards*: asking for p75 never yields p90.
        assert_eq!(upper_percentile(&ramp(150), 75.0).0, 75.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the sample on tiny inputs.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
