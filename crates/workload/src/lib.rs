//! Workload scenario engine for SimDC.
//!
//! The paper's evaluation replays fixed experiments; a simulation
//! *platform* needs diverse, realistic traffic. This crate provides the
//! scenario layer:
//!
//! * [`arrival`] — composable arrival processes (Poisson, diurnal,
//!   bursty/flash-crowd, superposition) sampled by Lewis–Shedler thinning;
//! * [`template`] — bounded random [`simdc_core::TaskSpec`] generation;
//! * [`fleet`] — fleet-dynamics injectors: phone churn, stragglers and
//!   benchmark-phone outages layered onto the phone cluster;
//! * [`mod@scenario`] — the runnable [`Scenario`], executed by one loop
//!   over its sampled arrivals and crashes plus a
//!   [`simdc_simrt::EventQueue`] of the reboots and dispatch ticks it
//!   schedules itself, producing [`ScenarioSummary`] JSON;
//! * [`spec`] — the declarative scenario DSL: serde-backed
//!   [`ScenarioSpec`]s, the compiler to runnable scenarios, and the
//!   greedy shrinker the fuzz harness minimizes failing specs with;
//! * [`scenario()`] / [`library()`] — the named scenarios: the JSON specs
//!   committed under `fixtures/`, embedded at compile time and looked up
//!   by name.
//!
//! Every stochastic choice derives from one scenario seed through named
//! [`simdc_simrt::RngStream`]s: the same seed replays the exact same
//! workload byte for byte, and a different seed yields different traffic.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use simdc_data::{CtrDataset, GeneratorConfig};
//! use simdc_workload::scenario;
//!
//! // Load a committed spec by name, turn its knobs, compile, run.
//! let mut spec = scenario("steady_poisson").unwrap().with_horizon_scale(0.2);
//! spec.seed = 7;
//! let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
//!     n_devices: 30,
//!     n_test_devices: 6,
//!     feature_dim: 1 << 12,
//!     ..GeneratorConfig::default()
//! }));
//! let summary = spec.compile().unwrap().run(&data);
//! assert_eq!(summary.scenario, "steady_poisson");
//! assert_eq!(summary.completed + summary.failed, summary.submitted);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod arrival;
pub mod fleet;
mod library;
pub mod scenario;
pub mod spec;
pub mod template;

pub use arrival::ArrivalProcess;
pub use fleet::{FleetDynamics, FleetEvent};
pub use library::{library, scenario, scenario_names};
pub use scenario::{CloudSample, CloudSummary, Scenario, ScenarioSummary};
pub use spec::{shrink, CompiledScenario, ScenarioSpec};
pub use template::{GradeScheme, TaskTemplate};
