//! Summary statistics over sampled values.
//!
//! Experiment harnesses summarise performance traces (CPU %, memory,
//! dispatch amounts) with [`SeriesStats`] and compare them with
//! [`pearson_correlation`] to print the paper's figures.

use serde::{Deserialize, Serialize};

/// Summary statistics of a collection of samples.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Smallest value (0 if empty).
    pub min: f64,
    /// Largest value (0 if empty).
    pub max: f64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Population standard deviation (0 if empty).
    pub std_dev: f64,
}

impl SeriesStats {
    /// Computes stats from an iterator of values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            count += 1;
            sum += v;
            sum_sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 {
            return SeriesStats::default();
        }
        let mean = sum / count as f64;
        let var = (sum_sq / count as f64 - mean * mean).max(0.0);
        SeriesStats {
            count,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }
}

/// Pearson correlation coefficient between two equal-length series.
///
/// Returns 0 when either series is constant (undefined correlation) or the
/// series are empty.
///
/// # Panics
///
/// Panics if the series lengths differ.
#[must_use]
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "correlation requires equal-length series"
    );
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let st = SeriesStats::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(st.count, 8);
        assert_eq!(st.mean, 5.0);
        assert_eq!(st.std_dev, 2.0);
        assert_eq!(st.min, 2.0);
        assert_eq!(st.max, 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = SeriesStats::from_values(std::iter::empty());
        assert_eq!(st.count, 0);
        assert_eq!(st.mean, 0.0);
    }
}
