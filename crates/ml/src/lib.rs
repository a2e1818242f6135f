//! Logistic regression, federated averaging and evaluation metrics.
//!
//! This crate is the "edge algorithm" substrate of SimDC: the CTR model the
//! paper trains (logistic regression — "particularly suitable for
//! large-scale data and real-time prediction" per §VI-A), local SGD
//! training, FedAvg aggregation, and the metrics the experiments report
//! (accuracy, log-loss, AUC, Pearson correlation).
//!
//! ## Dual kernels
//!
//! The paper's logical simulation trains with PyMNN operators while physical
//! phones run the C++ MNN operators of real business SDKs; Fig 6 shows the
//! resulting accuracy divergence stays below 0.5%. We reproduce that
//! implementation split with two numeric kernels that compute the *same*
//! mathematical update through different floating-point paths:
//! [`kernel::ServerKernel`] accumulates gradients in `f64`, while
//! [`kernel::MobileKernel`] works in `f32` with a fused update order.
//!
//! # Examples
//!
//! ```
//! use simdc_data::{CtrDataset, GeneratorConfig};
//! use simdc_ml::{evaluate, FedAvg, KernelKind, LocalTrainer, LrModel, TrainConfig};
//!
//! let data = CtrDataset::generate(&GeneratorConfig {
//!     n_devices: 20,
//!     n_test_devices: 4,
//!     feature_dim: 1 << 12,
//!     ..GeneratorConfig::default()
//! });
//! let mut global = LrModel::zeros(data.feature_dim);
//! let trainer = LocalTrainer::new(TrainConfig::default());
//!
//! for _round in 0..3 {
//!     let updates: Vec<_> = data
//!         .devices
//!         .iter()
//!         .map(|d| trainer.train(&global, &d.data, KernelKind::Server))
//!         .collect();
//!     global = FedAvg::aggregate(&updates).expect("non-empty update set");
//! }
//! let m = evaluate(&global, &data.test);
//! assert!(m.accuracy > 0.5);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod fedavg;
pub mod kernel;
pub mod metrics;
pub mod model;
pub mod train;

pub use fedavg::{FedAvg, FedAvgFold};
pub use kernel::{KernelKind, MobileKernel, ServerKernel, TrainKernel};
pub use metrics::{evaluate, pearson_correlation, EvalMetrics};
pub use model::LrModel;
pub use train::{LocalTrainer, LocalUpdate, TrainConfig};
