//! Order statistics over samples, and the content digest the output checks
//! use.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `percent`-th percentile (nearest rank) of an ascending slice, or
/// `None` when fewer than ten samples lie beyond it: a percentile with less
/// behind it is one outlier, not a tail. `p50` therefore needs 20 samples
/// and `p99` needs 1000.
#[must_use]
pub fn percentile(sorted: &[u64], percent: usize) -> Option<u64> {
    let n = sorted.len();
    if n * (100 - percent) / 100 < 10 {
        return None;
    }
    let rank = (n * percent).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Mean of the last decile of `values` divided by the mean of the first
/// decile, in call order: ≫ 1 means the per-call cost rose over the run.
/// `None` below 20 samples or when the first decile took no time.
#[must_use]
pub fn growth(values: &[u64]) -> Option<f64> {
    if values.len() < 20 {
        return None;
    }
    let decile = values.len() / 10;
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let first = mean(&values[..decile]);
    let last = mean(&values[values.len() - decile..]);
    (first > 0.0).then(|| last / first)
}

/// FNV-1a over a byte stream; the digest of batch sequences and summaries.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the digest.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&sorted, 99), None, "only 9 samples beyond");
        assert_eq!(percentile(&sorted, 50), Some(500));
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 99), Some(990));
        let sorted: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&sorted, 50), None);
        let sorted: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&sorted, 50), Some(10));
    }

    #[test]
    fn growth_compares_last_decile_with_first() {
        let flat = vec![5u64; 100];
        assert_eq!(growth(&flat), Some(1.0));
        let rising: Vec<u64> = (1..=100).collect();
        // first decile mean 5.5, last decile mean 95.5
        assert!((growth(&rising).unwrap() - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(growth(&[1, 2, 3]), None);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut digest = Fnv64::default();
        digest.write(b"a");
        assert_eq!(digest.hex(), "af63dc4c8601ec8c");
    }
}
