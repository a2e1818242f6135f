//! Local (on-device) training.

use serde::{Deserialize, Serialize};

use simdc_data::Dataset;

use crate::kernel::KernelKind;
use crate::model::LrModel;

/// Hyper-parameters of local training.
///
/// Paper defaults (§VI-A): learning rate `1e-3`, 10 local epochs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Number of local epochs per round.
    pub epochs: u32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 1e-3,
            epochs: 10,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` if the learning rate is not positive/finite
    /// or `epochs` is zero.
    pub fn validate(&self) -> simdc_types::Result<()> {
        use simdc_types::SimdcError::InvalidConfig;
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(InvalidConfig(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if self.epochs == 0 {
            return Err(InvalidConfig("epochs must be > 0".into()));
        }
        Ok(())
    }
}

/// The result a device sends back after local training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalUpdate {
    /// The locally trained model.
    pub model: LrModel,
    /// Number of local examples (FedAvg weight).
    pub n_samples: u64,
    /// Mean training loss of the final epoch.
    pub final_loss: f64,
}

impl LocalUpdate {
    /// Size in bytes of an update of a dimension-`dim` model on the wire —
    /// sample count, loss, then the model — for bandwidth accounting. It
    /// depends on nothing training computes, so an upload is charged
    /// before (or without) its update being trained.
    #[must_use]
    pub fn wire_size(dim: u32) -> u64 {
        16 + LrModel::wire_size(dim)
    }
}

/// Runs local training rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainer {
    config: TrainConfig,
}

impl LocalTrainer {
    /// Creates a trainer with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`TrainConfig::validate`] first for a recoverable error.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        config.validate().expect("invalid training configuration");
        LocalTrainer { config }
    }

    /// The hyper-parameters in use.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains a copy of `global` on `data` with the chosen kernel and
    /// returns the device's update.
    #[must_use]
    pub fn train(&self, global: &LrModel, data: &Dataset, kernel: KernelKind) -> LocalUpdate {
        let mut model = global.clone();
        let mut final_loss = 0.0;
        let k = kernel.kernel();
        for _ in 0..self.config.epochs {
            final_loss = k.sgd_epoch(&mut model, data.examples(), self.config.learning_rate);
        }
        LocalUpdate {
            model,
            n_samples: data.len() as u64,
            final_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_data::{Example, FeatureVec};

    fn dataset() -> Dataset {
        (0..40)
            .map(|i| {
                Example::new(
                    FeatureVec::from_indices(vec![if i % 2 == 0 { 0 } else { 1 }]),
                    i % 2 == 0,
                )
            })
            .collect()
    }

    #[test]
    fn train_does_not_mutate_global() {
        let global = LrModel::zeros(4);
        let trainer = LocalTrainer::new(TrainConfig {
            learning_rate: 0.5,
            epochs: 3,
        });
        let update = trainer.train(&global, &dataset(), KernelKind::Server);
        assert_eq!(global, LrModel::zeros(4));
        assert_ne!(update.model, global);
        assert_eq!(update.n_samples, 40);
    }

    #[test]
    fn more_epochs_lower_loss() {
        let global = LrModel::zeros(4);
        let short = LocalTrainer::new(TrainConfig {
            learning_rate: 0.2,
            epochs: 1,
        })
        .train(&global, &dataset(), KernelKind::Server);
        let long = LocalTrainer::new(TrainConfig {
            learning_rate: 0.2,
            epochs: 15,
        })
        .train(&global, &dataset(), KernelKind::Server);
        assert!(long.final_loss < short.final_loss);
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::default().validate().is_ok());
        assert!(TrainConfig {
            learning_rate: 0.0,
            epochs: 1
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            learning_rate: f32::NAN,
            epochs: 1
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            learning_rate: 0.1,
            epochs: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let global = LrModel::zeros(4);
        let trainer = LocalTrainer::new(TrainConfig::default());
        let a = trainer.train(&global, &dataset(), KernelKind::Mobile);
        let b = trainer.train(&global, &dataset(), KernelKind::Mobile);
        assert_eq!(a, b);
    }
}
