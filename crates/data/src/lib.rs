//! Synthetic Avazu-like click-through-rate data for SimDC experiments.
//!
//! The paper evaluates SimDC on the public Avazu CTR dataset (~2M records
//! over 100k devices). That dataset is not redistributable here, so this
//! crate generates a synthetic equivalent with the same *shape*: categorical
//! ad-impression features, a per-device click-through rate drawn from a Beta
//! prior (making the natural per-device partition non-IID), and labels from
//! a logistic ground-truth model — so that logistic regression actually has
//! signal to learn, and distributional knobs (label skew, CTR-correlated
//! upload latency) can be dialed per experiment.
//!
//! # Examples
//!
//! ```
//! use simdc_data::{CtrDataset, GeneratorConfig};
//!
//! let data = CtrDataset::generate(&GeneratorConfig {
//!     n_devices: 50,
//!     n_test_devices: 5,
//!     mean_records_per_device: 20.0,
//!     ..GeneratorConfig::default()
//! });
//! assert_eq!(data.devices.len(), 50);
//! assert!(!data.test.is_empty());
//! let rate = data.positive_rate();
//! assert!(rate > 0.03 && rate < 0.7, "plausible CTR, got {rate}");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod dataset;
pub mod features;
pub mod generator;
pub mod partition;
pub mod schema;

pub use dataset::{Dataset, DeviceDataset, Example};
pub use features::{FeatureHasher, FeatureVec};
pub use generator::{CtrDataset, GeneratorConfig};
pub use partition::{ctr_correlated_delays, iid_partition, label_skew_partition, LabelSkewConfig};
pub use schema::{FieldSpec, Schema};
