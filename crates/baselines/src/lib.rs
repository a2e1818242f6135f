//! Baseline federated-learning simulators for the Fig 8 scalability
//! comparison.
//!
//! The paper compares SimDC's large-scale device simulation against
//! FedScale and FederatedScope. Neither framework is available here, so
//! this crate implements faithful *cost models* of their standalone
//! simulation modes plus the same FedAvg semantics, so both timing and
//! learning behaviour can be compared:
//!
//! * [`FedScaleSim`] — FedScale keeps data and models in memory and moves
//!   tensors between buffers when switching clients (§VI-B.4: "does not use
//!   device-cloud communication during simulations"). Per-client
//!   simulation cost is tiny and there is no per-round distribution
//!   overhead, which is why it "appears faster" while deviating most from
//!   real deployments.
//! * [`FederatedScopeSim`] — FederatedScope standalone mode simulates
//!   clients independently on a *single resource instance* and keeps
//!   device-cloud communication, so each simulated client pays a
//!   per-message cost; at large scales its single-round time converges to
//!   SimDC's (both scale linearly per device), matching Fig 8.
//!
//! Both expose `round_time(n)` for the timing comparison and `run_round`
//! for semantic-equivalence tests against the SimDC runner.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use serde::{Deserialize, Serialize};
use simdc_data::CtrDataset;
use simdc_ml::{FedAvg, KernelKind, LocalTrainer, LrModel, TrainConfig};
use simdc_types::{Result, SimDuration};

/// Common interface of the baseline simulators.
pub trait BaselineSimulator {
    /// Virtual wall time of one training round with `n` participating
    /// devices.
    fn round_time(&self, n: u64) -> SimDuration;

    /// Framework name as reported in figures.
    fn name(&self) -> &'static str;
}

/// Cost model of FedScale's standalone simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedScaleSim {
    /// In-memory per-client simulation cost (data is already resident;
    /// only tensor swaps between buffers).
    pub per_client: SimDuration,
    /// Fixed per-round overhead (aggregation in memory).
    pub round_overhead: SimDuration,
}

impl Default for FedScaleSim {
    fn default() -> Self {
        FedScaleSim {
            per_client: SimDuration::from_millis(5),
            round_overhead: SimDuration::from_millis(500),
        }
    }
}

impl BaselineSimulator for FedScaleSim {
    fn round_time(&self, n: u64) -> SimDuration {
        self.round_overhead.saturating_add(self.per_client * n)
    }

    fn name(&self) -> &'static str {
        "FedScale"
    }
}

/// Cost model of FederatedScope's standalone simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FederatedScopeSim {
    /// Per-client simulation cost on the single resource instance,
    /// including the device-cloud message exchange it retains.
    pub per_client: SimDuration,
    /// Fixed per-round overhead (server setup, aggregation).
    pub round_overhead: SimDuration,
}

impl Default for FederatedScopeSim {
    fn default() -> Self {
        FederatedScopeSim {
            per_client: SimDuration::from_millis(80),
            round_overhead: SimDuration::from_secs(2),
        }
    }
}

impl BaselineSimulator for FederatedScopeSim {
    fn round_time(&self, n: u64) -> SimDuration {
        self.round_overhead.saturating_add(self.per_client * n)
    }

    fn name(&self) -> &'static str {
        "FederatedScope"
    }
}

/// Runs one FedAvg round over the first `n` device shards exactly the way
/// the SimDC runner does (server kernel, sample-weighted averaging), so
/// baseline and platform results are comparable algorithm-for-algorithm.
///
/// # Errors
///
/// Propagates aggregation errors (empty participant set).
pub fn run_round(
    global: &LrModel,
    dataset: &CtrDataset,
    n: usize,
    train: TrainConfig,
) -> Result<LrModel> {
    let trainer = LocalTrainer::new(train);
    let updates: Vec<_> = dataset
        .devices
        .iter()
        .take(n)
        .map(|d| trainer.train(global, &d.data, KernelKind::Server))
        .collect();
    FedAvg::aggregate(&updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_data::GeneratorConfig;

    #[test]
    fn fedscale_is_fastest_everywhere() {
        let fs = FedScaleSim::default();
        let fscope = FederatedScopeSim::default();
        for n in [100u64, 1_000, 10_000, 100_000] {
            assert!(fs.round_time(n) < fscope.round_time(n), "n = {n}");
        }
    }

    #[test]
    fn round_times_scale_linearly() {
        let fscope = FederatedScopeSim::default();
        let t1 = fscope.round_time(1_000).as_secs_f64();
        let t10 = fscope.round_time(10_000).as_secs_f64();
        assert!((t10 / t1 - 10.0).abs() < 0.5, "ratio {}", t10 / t1);
    }

    #[test]
    fn names_match_the_figure_legend() {
        assert_eq!(FedScaleSim::default().name(), "FedScale");
        assert_eq!(FederatedScopeSim::default().name(), "FederatedScope");
    }

    #[test]
    fn baseline_round_matches_fedavg_semantics() {
        let data = CtrDataset::generate(&GeneratorConfig {
            n_devices: 12,
            n_test_devices: 2,
            feature_dim: 1 << 10,
            seed: 3,
            ..GeneratorConfig::default()
        });
        let global = LrModel::zeros(data.feature_dim);
        let a = run_round(&global, &data, 12, TrainConfig::default()).unwrap();
        let b = run_round(&global, &data, 12, TrainConfig::default()).unwrap();
        assert_eq!(a, b, "deterministic");
        assert_ne!(a, global, "training moved the model");
    }

    #[test]
    fn empty_participant_set_errors() {
        let data = CtrDataset::generate(&GeneratorConfig {
            n_devices: 2,
            n_test_devices: 1,
            feature_dim: 1 << 10,
            ..GeneratorConfig::default()
        });
        let global = LrModel::zeros(data.feature_dim);
        assert!(run_round(&global, &data, 0, TrainConfig::default()).is_err());
    }
}
