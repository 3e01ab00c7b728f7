/// A named estimated-vs-exact scatter series (the Figure 13/15 plots):
/// `x` = exact result, `y` = estimated result; a perfect estimator lies on
/// `y = x`.
#[derive(Debug, Clone, Default)]
pub struct ScatterSeries {
    /// Series label.
    pub label: String,
    /// `(exact, estimated)` points.
    pub points: Vec<(f64, f64)>,
}

impl ScatterSeries {
    /// An empty series.
    pub fn new(label: impl Into<String>) -> ScatterSeries {
        ScatterSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Adds one point.
    pub fn push(&mut self, exact: f64, estimated: f64) {
        self.points.push((exact, estimated));
    }

    /// Pearson correlation between exact and estimated values
    /// (1.0 = the points are on a line; the y = x check is
    /// [`Self::mean_relative_deviation`]).
    pub fn correlation(&self) -> f64 {
        let n = self.points.len() as f64;
        if self.points.len() < 2 {
            return 1.0;
        }
        let mx = self.points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = self.points.iter().map(|p| p.1).sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for &(x, y) in &self.points {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        if sxx == 0.0 || syy == 0.0 {
            if sxx == syy {
                1.0
            } else {
                0.0
            }
        } else {
            sxy / (sxx.sqrt() * syy.sqrt())
        }
    }

    /// `Σ|y − x| / Σx` — the series' average relative error.
    pub fn mean_relative_deviation(&self) -> f64 {
        let num: f64 = self.points.iter().map(|&(x, y)| (y - x).abs()).sum();
        let den: f64 = self.points.iter().map(|&(x, _)| x).sum();
        if den == 0.0 {
            if num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            num / den
        }
    }

    /// Largest |y − x| in the series.
    pub fn max_abs_deviation(&self) -> f64 {
        self.points
            .iter()
            .map(|&(x, y)| (y - x).abs())
            .fold(0.0, f64::max)
    }

    /// Fraction of points within `rel` relative deviation of y = x
    /// (points with x = 0 count as within iff y = 0).
    pub fn fraction_within(&self, rel: f64) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let ok = self
            .points
            .iter()
            .filter(|&&(x, y)| {
                if x == 0.0 {
                    y == 0.0
                } else {
                    ((y - x) / x).abs() <= rel
                }
            })
            .count();
        ok as f64 / self.points.len() as f64
    }

    /// Renders a compact summary line for EXPERIMENTS.md.
    pub fn summary(&self) -> String {
        format!(
            "{}: n={} corr={:.4} ARE={:.4} max|dev|={:.1} within5%={:.1}%",
            self.label,
            self.points.len(),
            self.correlation(),
            self.mean_relative_deviation(),
            self.max_abs_deviation(),
            100.0 * self.fraction_within(0.05)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_series() {
        let mut s = ScatterSeries::new("perfect");
        for i in 0..10 {
            s.push(i as f64, i as f64);
        }
        assert_eq!(s.correlation(), 1.0);
        assert_eq!(s.mean_relative_deviation(), 0.0);
        assert_eq!(s.fraction_within(0.0), 1.0);
    }

    #[test]
    fn biased_series() {
        let mut s = ScatterSeries::new("biased");
        for i in 1..=10 {
            s.push(i as f64, i as f64 * 1.1);
        }
        assert!(s.correlation() > 0.999);
        assert!((s.mean_relative_deviation() - 0.1).abs() < 1e-9);
        assert_eq!(s.fraction_within(0.05), 0.0);
        assert_eq!(s.fraction_within(0.11), 1.0);
    }

    #[test]
    fn noisy_series_has_lower_correlation() {
        let mut s = ScatterSeries::new("noisy");
        let noise = [3.0, -4.0, 5.0, -6.0, 2.0, -1.0, 7.0, -2.0];
        for (i, n) in noise.iter().enumerate() {
            s.push(10.0 + i as f64, 10.0 + i as f64 + n);
        }
        assert!(s.correlation() < 0.9);
        assert_eq!(s.max_abs_deviation(), 7.0);
    }

    #[test]
    fn summary_is_stable() {
        let mut s = ScatterSeries::new("x");
        s.push(2.0, 2.0);
        assert!(s.summary().contains("corr=1.0000"));
    }
}
