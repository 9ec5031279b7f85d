//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (NumPy's default, R type 7). `None` for
/// an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`; `None` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a rate over no events).
#[must_use]
pub fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[3.5], q), Some(3.5));
        }
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn interpolates_between_ranks_on_unsorted_input() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        // rank = 0.95 * 19 = 18.05 → 19 + 0.05 * (20 - 19)
        let p95 = percentile(&samples, 0.95).unwrap();
        assert!((p95 - 19.05).abs() < 1e-12, "{p95}");
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(20.0));
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        assert_eq!(percentile(&[1.0, 2.0], -1.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 7.0), Some(2.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio_or_zero(5.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(1.0, 4.0), 0.25);
    }
}
