//! Synthetic CTR data generation.
//!
//! Generation recipe (per device):
//!
//! 1. Draw the device's ground-truth CTR from `Beta(ctr_alpha, ctr_beta)`
//!    (defaults give a mean CTR ≈ 0.17, close to Avazu's ~0.17 click rate).
//! 2. Draw its record count from `Poisson(mean_records_per_device)`
//!    (minimum 1).
//! 3. For every record, sample one value per schema field. A device keeps a
//!    fixed `device_model`, and its `hour_of_day` concentrates around a
//!    per-device timezone peak — the behavioural diversity §V motivates.
//! 4. The click label is Bernoulli with
//!    `p = sigmoid(logit(ctr_dev) + τ · z)`, where `z` is a zero-mean score
//!    from a hidden logistic ground-truth model over the hashed features.
//!    Feature signal `τ` makes the task learnable; the device offset makes
//!    the natural partition non-IID.

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
use simdc_types::DeviceId;

use crate::dataset::{Dataset, DeviceDataset, Example};
use crate::features::{FeatureHasher, FeatureVec};
use crate::schema::Schema;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of training devices.
    pub n_devices: usize,
    /// Number of additional held-out devices whose records form the test
    /// set (the paper holds out 1,000 of 100,000 devices).
    pub n_test_devices: usize,
    /// Mean records per device (Poisson).
    pub mean_records_per_device: f64,
    /// Feature-hash dimension.
    pub feature_dim: u32,
    /// Beta prior parameters of per-device CTR.
    pub ctr_alpha: f64,
    /// See [`GeneratorConfig::ctr_alpha`].
    pub ctr_beta: f64,
    /// Strength of the feature signal (τ above); 0 makes labels depend on
    /// device CTR only.
    pub feature_signal: f64,
    /// Categorical schema.
    pub schema: Schema,
    /// Root RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_devices: 1_000,
            n_test_devices: 100,
            mean_records_per_device: 20.0,
            feature_dim: 1 << 16,
            ctr_alpha: 2.0,
            ctr_beta: 10.0,
            feature_signal: 1.0,
            schema: Schema::avazu_like(),
            seed: 0x51AD_C0DE,
        }
    }
}

impl GeneratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`simdc_types::SimdcError::InvalidConfig`] when any field is
    /// out of range.
    pub fn validate(&self) -> simdc_types::Result<()> {
        use simdc_types::SimdcError::InvalidConfig;
        if self.n_devices == 0 {
            return Err(InvalidConfig("n_devices must be > 0".into()));
        }
        if self.mean_records_per_device <= 0.0 {
            return Err(InvalidConfig("mean_records_per_device must be > 0".into()));
        }
        if self.feature_dim == 0 {
            return Err(InvalidConfig("feature_dim must be > 0".into()));
        }
        if self.ctr_alpha <= 0.0 || self.ctr_beta <= 0.0 {
            return Err(InvalidConfig(
                "ctr beta-prior parameters must be > 0".into(),
            ));
        }
        if !self.feature_signal.is_finite() || self.feature_signal < 0.0 {
            return Err(InvalidConfig(
                "feature_signal must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// A fully generated CTR dataset: per-device shards plus a held-out test
/// set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtrDataset {
    /// Per-device training shards, ordered by device id.
    pub devices: Vec<DeviceDataset>,
    /// Held-out test examples pooled across test devices.
    pub test: Dataset,
    /// Feature-hash dimension used (models must match it).
    pub feature_dim: u32,
}

impl CtrDataset {
    /// Generates a dataset from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GeneratorConfig::validate`]; call it first
    /// for a recoverable error.
    #[must_use]
    pub fn generate(config: &GeneratorConfig) -> Self {
        config.validate().expect("invalid generator configuration");
        let truth = GroundTruth::new(config);
        let mut devices = Vec::with_capacity(config.n_devices);
        for i in 0..config.n_devices {
            let id = DeviceId(i as u64);
            devices.push(truth.generate_device(id));
        }
        let mut test = Dataset::new();
        for i in 0..config.n_test_devices {
            let id = DeviceId((config.n_devices + i) as u64);
            test.extend(truth.generate_device(id).data);
        }
        CtrDataset {
            devices,
            test,
            feature_dim: config.feature_dim,
        }
    }

    /// Overall positive rate across all device shards.
    #[must_use]
    pub fn positive_rate(&self) -> f64 {
        let (pos, total) = self.devices.iter().fold((0usize, 0usize), |(p, t), d| {
            (
                p + d.data.iter().filter(|e| e.label).count(),
                t + d.data.len(),
            )
        });
        if total == 0 {
            0.0
        } else {
            pos as f64 / total as f64
        }
    }

    /// Total number of training examples.
    #[must_use]
    pub fn total_examples(&self) -> usize {
        self.devices.iter().map(DeviceDataset::len).sum()
    }
}

/// The hidden ground-truth model shared by all devices.
struct GroundTruth<'a> {
    config: &'a GeneratorConfig,
    hasher: FeatureHasher,
    /// Weight per hashed feature index, lazily derived from the seed so we
    /// never materialize `feature_dim` floats.
    weight_seed: u64,
}

impl<'a> GroundTruth<'a> {
    fn new(config: &'a GeneratorConfig) -> Self {
        GroundTruth {
            config,
            hasher: FeatureHasher::new(config.feature_dim),
            weight_seed: simdc_simrt::derive_seed(config.seed, "ground-truth/weights"),
        }
    }

    /// Deterministic pseudo-weight for a hashed feature index, ~N(0, 0.35).
    fn weight(&self, index: u32) -> f64 {
        // SplitMix64 is designed to decorrelate sequential seeds, so mixing
        // the index straight into the seed is sound and avoids per-lookup
        // string formatting on the hot path.
        let seed = self
            .weight_seed
            .wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = RngStream::from_seed(seed);
        rng.normal(0.0, 0.35)
    }

    fn score(&self, features: &FeatureVec) -> f64 {
        features.indices().iter().map(|&i| self.weight(i)).sum()
    }

    fn generate_device(&self, id: DeviceId) -> DeviceDataset {
        let cfg = self.config;
        let mut rng = RngStream::named(cfg.seed, &format!("device/{}", id.as_u64()));
        let ctr = rng.beta(cfg.ctr_alpha, cfg.ctr_beta).clamp(0.005, 0.995);
        let n_records = rng.poisson(cfg.mean_records_per_device).max(1) as usize;
        let device_model = rng.index(200) as u32;
        let tz_peak = rng.index(24) as u32;
        let offset = logit(ctr);

        let mut data = Dataset::new();
        for _ in 0..n_records {
            let features = self.sample_features(&mut rng, device_model, tz_peak);
            let z = self.score(&features);
            let p = sigmoid(offset + cfg.feature_signal * z);
            let label = rng.chance(p);
            data.push(Example::new(features, label));
        }
        DeviceDataset::new(id, ctr, data)
    }

    fn sample_features(&self, rng: &mut RngStream, device_model: u32, tz_peak: u32) -> FeatureVec {
        let mut indices = Vec::with_capacity(self.config.schema.len());
        for field in self.config.schema.fields() {
            let value = match field.name.as_str() {
                "device_model" => device_model % field.cardinality,
                "hour_of_day" => {
                    // Hours concentrate around the device's timezone peak.
                    let jitter = rng.normal(0.0, 3.0).round() as i64;
                    (i64::from(tz_peak) + jitter).rem_euclid(i64::from(field.cardinality)) as u32
                }
                _ => {
                    // Zipf-ish skew: square a uniform to favour small ids,
                    // matching the heavy-tailed category popularity of ad
                    // logs.
                    let u = rng.uniform();
                    ((u * u) * f64::from(field.cardinality)) as u32 % field.cardinality
                }
            };
            indices.push(self.hasher.index(&field.name, value));
        }
        FeatureVec::from_indices(indices)
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            n_devices: 120,
            n_test_devices: 12,
            mean_records_per_device: 25.0,
            feature_dim: 1 << 12,
            seed: 7,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CtrDataset::generate(&small_config());
        let b = CtrDataset::generate(&small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CtrDataset::generate(&small_config());
        let b = CtrDataset::generate(&GeneratorConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn every_device_has_records() {
        let data = CtrDataset::generate(&small_config());
        assert_eq!(data.devices.len(), 120);
        assert!(data.devices.iter().all(|d| !d.is_empty()));
        assert!(!data.test.is_empty());
    }

    #[test]
    fn overall_ctr_matches_beta_prior_mean() {
        let data = CtrDataset::generate(&GeneratorConfig {
            n_devices: 400,
            mean_records_per_device: 40.0,
            ..small_config()
        });
        // Beta(2, 10) mean ≈ 0.167; feature noise keeps it in a band.
        let rate = data.positive_rate();
        assert!((0.1..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn device_ctrs_are_heterogeneous() {
        let data = CtrDataset::generate(&small_config());
        let ctrs: Vec<f64> = data.devices.iter().map(|d| d.ctr).collect();
        let min = ctrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ctrs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 0.1,
            "expected non-IID spread, got [{min}, {max}]"
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        for cfg in [
            GeneratorConfig {
                n_devices: 0,
                ..small_config()
            },
            GeneratorConfig {
                mean_records_per_device: 0.0,
                ..small_config()
            },
            GeneratorConfig {
                feature_dim: 0,
                ..small_config()
            },
            GeneratorConfig {
                ctr_alpha: 0.0,
                ..small_config()
            },
            GeneratorConfig {
                feature_signal: -1.0,
                ..small_config()
            },
        ] {
            assert!(cfg.validate().is_err());
        }
        assert!(small_config().validate().is_ok());
    }
}
