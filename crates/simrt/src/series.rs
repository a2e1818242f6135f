//! Measurement probes: time series and their summary statistics.
//!
//! Substrates record performance traces (CPU %, memory, dispatch amounts)
//! into these series; experiment harnesses read them back to print the
//! paper's figures.

use serde::{Deserialize, Serialize};
use simdc_types::SimInstant;

/// An append-only series of `(instant, value)` samples.
///
/// Samples must be appended in non-decreasing time order, which every
/// engine-driven recorder naturally satisfies.
///
/// ```
/// use simdc_simrt::TimeSeries;
/// use simdc_types::SimInstant;
///
/// let mut cpu = TimeSeries::new("cpu_pct");
/// cpu.record(SimInstant::from_micros(0), 4.0);
/// cpu.record(SimInstant::from_micros(1_000_000), 12.5);
/// assert_eq!(cpu.len(), 2);
/// assert_eq!(cpu.stats().max, 12.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimInstant, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// An empty series with room for `capacity` samples, for recorders
    /// that know how many they will append.
    #[must_use]
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::with_capacity(capacity),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous sample.
    pub fn record(&mut self, at: SimInstant, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                at >= last,
                "time series '{}' must be appended in order ({at} < {last})",
                self.name
            );
        }
        self.points.push((at, value));
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(instant, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimInstant, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The raw values, time-ordered.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<(SimInstant, f64)> {
        self.points.last().copied()
    }

    /// Samples within `[from, to)`.
    pub fn window(
        &self,
        from: SimInstant,
        to: SimInstant,
    ) -> impl Iterator<Item = (SimInstant, f64)> + '_ {
        self.points
            .iter()
            .copied()
            .skip_while(move |&(t, _)| t < from)
            .take_while(move |&(t, _)| t < to)
    }

    /// Summary statistics over all samples.
    ///
    /// Returns default (all-zero) stats for an empty series.
    #[must_use]
    pub fn stats(&self) -> SeriesStats {
        SeriesStats::from_values(self.points.iter().map(|&(_, v)| v))
    }

    /// Trapezoidal integral of the series over its time span, in
    /// value·seconds. Used e.g. to turn a current (µA) trace into charge.
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let (t0, v0) = w[0];
                let (t1, v1) = w[1];
                let dt = t1.duration_since(t0).as_secs_f64();
                0.5 * (v0 + v1) * dt
            })
            .sum()
    }
}

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
    use simdc_types::SimDuration;

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn series_records_in_order() {
        let mut s = TimeSeries::new("x");
        s.record(t(1), 1.0);
        s.record(t(1), 2.0); // equal timestamps allowed
        s.record(t(2), 3.0);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.last(), Some((t(2), 3.0)));
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn series_rejects_out_of_order() {
        let mut s = TimeSeries::new("x");
        s.record(t(5), 1.0);
        s.record(t(4), 2.0);
    }

    #[test]
    fn series_window_is_half_open() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.record(t(i), i as f64);
        }
        let vals: Vec<f64> = s.window(t(2), t(5)).map(|(_, v)| v).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new("x");
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            s.record(t(i as u64), *v);
        }
        let st = s.stats();
        assert_eq!(st.count, 8);
        assert_eq!(st.mean, 5.0);
        assert_eq!(st.std_dev, 2.0);
        assert_eq!(st.min, 2.0);
        assert_eq!(st.max, 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = TimeSeries::new("x").stats();
        assert_eq!(st.count, 0);
        assert_eq!(st.mean, 0.0);
    }

    #[test]
    fn integral_is_trapezoidal() {
        let mut s = TimeSeries::new("current");
        s.record(t(0), 0.0);
        s.record(t(2), 2.0); // area 2
        s.record(t(4), 2.0); // area 4
        assert_eq!(s.integral(), 6.0);
    }
}
