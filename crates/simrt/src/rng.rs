//! Deterministic, named random-number streams.
//!
//! Every stochastic decision in SimDC draws from a stream derived from a
//! single experiment seed and a textual label (`derive_seed(seed,
//! "phone/3/battery")`). Independent subsystems therefore never perturb each
//! other's randomness: adding a draw in one module cannot change another
//! module's sequence, which keeps experiments comparable across code
//! changes.
//!
//! The crate also carries the handful of distribution samplers the platform
//! needs (normal, gamma, beta, poisson) so that no external distribution
//! crate is required.

/// SplitMix64: a tiny, high-quality 64-bit PRNG used both as a mixing
/// function for seed derivation and as the generator behind every
/// [`RngStream`].
///
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators" (the same generator used to seed xoshiro family PRNGs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_value(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives a child seed from a root seed and a stream label.
///
/// The label is absorbed with FNV-1a, then the combination is finalized with
/// two SplitMix64 rounds so that labels differing in one character yield
/// unrelated seeds.
///
/// ```
/// use simdc_simrt::derive_seed;
/// assert_ne!(derive_seed(42, "a"), derive_seed(42, "b"));
/// assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
/// assert_eq!(derive_seed(7, "x/y"), derive_seed(7, "x/y"));
/// ```
#[must_use]
pub fn derive_seed(root: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in label.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let mut mixer = SplitMix64::new(root ^ hash);
    mixer.next_value();
    mixer.next_value()
}

/// A named random stream.
///
/// Thin wrapper over SplitMix64 with the distribution samplers SimDC needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngStream {
    inner: SplitMix64,
}

impl RngStream {
    /// Creates the stream identified by `label` under `root_seed`.
    #[must_use]
    pub fn named(root_seed: u64, label: &str) -> Self {
        RngStream {
            inner: SplitMix64::new(derive_seed(root_seed, label)),
        }
    }

    /// Creates a stream directly from a seed (mostly for tests).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            inner: SplitMix64::new(seed),
        }
    }

    /// Splits off an independent child stream.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> RngStream {
        let salt = self.inner.next_value();
        RngStream {
            // The salt draw *is* the fork mechanism — it advances the
            // parent deterministically, so the child's seed still traces
            // to the experiment seed through the parent's own provenance.
            inner: SplitMix64::new(derive_seed(salt, label)),
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_value()
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.inner.next_value() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        (self.inner.next_value() % n as u64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential draw with the given mean — the inter-arrival sampler
    /// for Poisson processes (the zero-guard keeps `ln` finite).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        -self.uniform().max(f64::MIN_POSITIVE).ln() * mean
    }

    /// Standard normal draw (Box–Muller).
    pub fn std_normal(&mut self) -> f64 {
        // Resample u1 to avoid ln(0).
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.std_normal()
    }

    /// Gamma draw with shape `k > 0` and scale `theta > 0`
    /// (Marsaglia–Tsang squeeze method).
    ///
    /// # Panics
    ///
    /// Panics if `shape` or `scale` is not positive.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape > 0.0 && scale > 0.0,
            "gamma parameters must be positive"
        );
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
            let u = self.uniform().max(f64::MIN_POSITIVE);
            return self.gamma(shape + 1.0, scale) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.std_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * scale;
            }
        }
    }

    /// Beta draw via the two-gamma construction.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn beta(&mut self, alpha: f64, beta: f64) -> f64 {
        let x = self.gamma(alpha, 1.0);
        let y = self.gamma(beta, 1.0);
        x / (x + y)
    }

    /// Poisson draw (Knuth's method for small λ, normal approximation for
    /// λ > 64).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be non-negative"
        );
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.max(0.0).round() as u64;
        }
        let limit = (-lambda).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::named(42, "test");
        let mut b = RngStream::named(42, "test");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = RngStream::named(42, "alpha");
        let mut b = RngStream::named(42, "beta");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = RngStream::named(1, "root");
        let mut c1 = root.fork("child");
        let mut c2 = root.fork("child"); // second fork advances salt
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = RngStream::from_seed(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = RngStream::from_seed(10);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = RngStream::from_seed(11);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exp_mean_matches_parameter() {
        let mut rng = RngStream::from_seed(19);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.exp(2.5)).collect();
        assert!(draws.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn gamma_mean_matches_shape_times_scale() {
        let mut rng = RngStream::from_seed(12);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gamma(2.5, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn gamma_small_shape_supported() {
        let mut rng = RngStream::from_seed(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gamma(0.5, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn beta_stays_in_unit_interval_with_right_mean() {
        let mut rng = RngStream::from_seed(14);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.beta(2.0, 6.0);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}"); // a/(a+b) = 0.25
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = RngStream::from_seed(15);
        for &lambda in &[0.5, 4.0, 30.0, 200.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda}, mean {mean}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = RngStream::from_seed(16);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = RngStream::from_seed(17);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            items, sorted,
            "shuffle left items in order (astronomically unlikely)"
        );
    }
}
