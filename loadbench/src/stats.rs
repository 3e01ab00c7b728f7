//! Order statistics for the report.

/// Samples that must lie above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of the ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// `values` in ascending order.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The median, averaging the middle pair of an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    (n > 0).then(|| (s[(n - 1) / 2] + s[n / 2]) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
