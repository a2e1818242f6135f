//! Measurement probes: time series, counters and histograms.
//!
//! Substrates record performance traces (CPU %, memory, dispatch amounts,
//! cumulative message counts) into these containers; experiment harnesses
//! read them back to print the paper's figures.

use serde::{Deserialize, Serialize};
use simdc_types::{SimDuration, SimInstant};

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

/// A monotonically increasing event counter with a time-stamped history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    name: String,
    total: u64,
    history: Vec<(SimInstant, u64)>,
}

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            total: 0,
            history: Vec::new(),
        }
    }

    /// The counter name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `n` occurrences at virtual time `at`.
    pub fn add(&mut self, at: SimInstant, n: u64) {
        self.total += n;
        self.history.push((at, self.total));
    }

    /// Increments by one.
    pub fn incr(&mut self, at: SimInstant) {
        self.add(at, 1);
    }

    /// Current total.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The cumulative history as `(instant, running total)` pairs.
    #[must_use]
    pub fn history(&self) -> &[(SimInstant, u64)] {
        &self.history
    }

    /// Total accumulated strictly before `t`.
    #[must_use]
    pub fn total_before(&self, t: SimInstant) -> u64 {
        match self.history.partition_point(|&(at, _)| at < t) {
            0 => 0,
            idx => self.history[idx - 1].1,
        }
    }
}

/// A fixed-width-bucket histogram of durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    name: String,
    bucket_width: SimDuration,
    buckets: Vec<u64>,
    overflow: u64,
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates a histogram with `bucket_count` buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `bucket_count` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, bucket_width: SimDuration, bucket_count: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be positive");
        assert!(bucket_count > 0, "need at least one bucket");
        Histogram {
            name: name.into(),
            bucket_width,
            buckets: vec![0; bucket_count],
            overflow: 0,
            samples: Vec::new(),
        }
    }

    /// Records a duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let idx = (d.as_micros() / self.bucket_width.as_micros()) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.samples.push(d.as_secs_f64());
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Samples that fell past the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bucket counts (index `i` covers `[i·w, (i+1)·w)`).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The `q`-quantile of recorded samples in seconds (nearest-rank).
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn counter_tracks_cumulative_history() {
        let mut c = Counter::new("msgs");
        c.add(t(1), 10);
        c.incr(t(2));
        c.add(t(3), 5);
        assert_eq!(c.total(), 16);
        assert_eq!(c.total_before(t(2)), 10);
        assert_eq!(c.total_before(t(100)), 16);
        assert_eq!(c.total_before(t(0)), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new("lat", SimDuration::from_secs(1), 5);
        for secs in [0, 1, 1, 2, 9] {
            h.record(SimDuration::from_secs(secs));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets(), &[1, 2, 1, 0, 0]);
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new("lat", SimDuration::from_secs(1), 2);
        assert_eq!(h.quantile(0.5), None);
    }
}
