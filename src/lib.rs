//! # SimDC
//!
//! A high-fidelity device simulation platform for device-cloud
//! collaborative computing — a from-scratch Rust reproduction of the
//! ICDCS 2025 paper.
//!
//! SimDC simulates large fleets of heterogeneous edge devices
//! collaborating with cloud services (federated learning being the
//! flagship workload) over **hybrid heterogeneous resources**: a Ray-like
//! logical-simulation cluster for cheap scale, plus an emulated physical
//! phone cluster for realistic power/CPU/memory/network responses. A
//! programmable traffic controller (**DeviceFlow**) replays real-world
//! device behaviour — bursty uploads, time-zone waves, dropouts — between
//! the devices and the cloud.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `simdc-types` | ids, virtual time, grades, resources, messages |
//! | [`simrt`] | `simdc-simrt` | deterministic discrete-event engine, RNG streams, probes |
//! | [`data`] | `simdc-data` | synthetic Avazu-like CTR data, partitioners |
//! | [`ml`] | `simdc-ml` | logistic regression, dual kernels, FedAvg, metrics |
//! | [`cluster`] | `simdc-cluster` | logical simulation (nodes, placement groups, actors) |
//! | [`phone`] | `simdc-phone` | PhoneMgr, power/CPU/memory/network models |
//! | [`deviceflow`] | `simdc-deviceflow` | Strategy traffic control; Sorter/Shelf/Dispatcher as one record per task |
//! | [`platform`] | `simdc-core` | task manager, scheduler, allocation optimizer, cloud |
//! | [`workload`] | `simdc-workload` | scenario engine: arrival processes, task templates, fleet dynamics |
//! | [`baselines`] | `simdc-baselines` | FedScale-like / FederatedScope-like comparators |
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use simdc::prelude::*;
//!
//! // 1. Generate a synthetic CTR dataset (stand-in for Avazu).
//! let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
//!     n_devices: 30,
//!     n_test_devices: 5,
//!     feature_dim: 1 << 12,
//!     ..GeneratorConfig::default()
//! }));
//!
//! // 2. Build the paper's default platform: a 200-core logical cluster
//! //    and 30 emulated phones (4+6 local, 13+7 MSP).
//! let mut platform = Platform::paper_default();
//!
//! // 3. Describe a 2-round federated-learning task over hybrid resources.
//! let spec = TaskSpec::builder(TaskId(1))
//!     .rounds(2)
//!     .grade(GradeRequirement::sized(DeviceGrade::High, 16))
//!     .trigger(AggregationTrigger::DeviceThreshold { min_devices: 16 })
//!     .build()?;
//!
//! // 4. Run and inspect.
//! platform.submit(spec, data)?;
//! platform.run_until_idle();
//! let report = platform.report(TaskId(1)).expect("task completed");
//! println!(
//!     "finished in {} with test accuracy {:.3}",
//!     report.duration(),
//!     report.final_accuracy()
//! );
//! # Ok::<(), simdc::types::SimdcError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub use simdc_baselines as baselines;
pub use simdc_cluster as cluster;
pub use simdc_core as platform;
pub use simdc_data as data;
pub use simdc_deviceflow as deviceflow;
pub use simdc_ml as ml;
pub use simdc_phone as phone;
pub use simdc_simrt as simrt;
pub use simdc_types as types;
pub use simdc_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use simdc_core::{
        AggregationTrigger, Allocation, AllocationPolicy, GradeRequirement, Platform,
        PlatformConfig, PlatformStatus, TaskReport, TaskSpec,
    };
    pub use simdc_data::{CtrDataset, Dataset, DeviceDataset, GeneratorConfig};
    pub use simdc_deviceflow::{DispatchStrategy, Domain, Dropout, TimeSpec, TrafficFunction};
    pub use simdc_ml::{EvalMetrics, KernelKind, LrModel, TrainConfig};
    pub use simdc_phone::{PhoneMgr, PhoneProfile, Stage};
    pub use simdc_types::{
        DeviceGrade, DeviceId, PhoneId, ResourceBundle, SimDuration, SimInstant, SimdcError, TaskId,
    };
    pub use simdc_workload::{
        ArrivalProcess, FleetDynamics, Scenario, ScenarioSummary, TaskTemplate,
    };
}
