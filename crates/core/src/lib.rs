//! The SimDC platform core: the paper's primary contribution.
//!
//! This crate assembles the substrates ([`simdc_cluster`], [`simdc_phone`],
//! [`simdc_deviceflow`]) into the platform of Fig 1:
//!
//! * [`spec`] — task design specifications (§III-A): rounds, per-grade
//!   device populations and resource requests, priorities.
//! * [`queue`] / [`scheduler`] — the Task Queue and the greedy Task
//!   Scheduler (§III-B).
//! * [`resources`] — the Resource Manager: query / freeze / release /
//!   scale.
//! * [`alloc`] — the hybrid allocation optimizer (§IV-B): the exact integer
//!   minimizer of `T = max(Tl, Tp)` with the "prefer logical" secondary
//!   objective.
//! * [`cloud`] — the storage bandwidth account, aggregation triggers and
//!   the round evaluator.
//! * [`runner`] — the Task Runner: executes the multi-round task over
//!   hybrid resources, routes messages through DeviceFlow, trains real
//!   models with the dual numeric kernels, and aggregates with FedAvg.
//!   Execution is split into a *plan* phase (compute the per-round
//!   timeline, reserve benchmark phones) and a *commit* phase (take the
//!   measurements), so the platform can schedule completions as events.
//!   Planning is admission: the platform plans each task a scheduling
//!   pass starts, one at a time, before the next one's placement re-trial.
//! * [`invariants`] — the platform-invariant oracles (freeze/release
//!   pairing, capacity bounds, terminal-state immutability, billing
//!   reconciliation) shared by the debug assertions and the scenario
//!   fuzzer's post-run checks.
//! * [`platform`] — the façade tying everything together on the
//!   [`simdc_simrt`] discrete-event queue: completions are events,
//!   resources release at each task's actual completion instant, and the
//!   scheduler re-runs on every completion and arrival.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use simdc_core::cloud::AggregationTrigger;
//! use simdc_core::platform::Platform;
//! use simdc_core::spec::{GradeRequirement, TaskSpec};
//! use simdc_data::{CtrDataset, GeneratorConfig};
//! use simdc_types::{DeviceGrade, TaskId};
//!
//! let mut platform = Platform::paper_default();
//! let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
//!     n_devices: 20,
//!     n_test_devices: 4,
//!     feature_dim: 1 << 12,
//!     ..GeneratorConfig::default()
//! }));
//! let spec = TaskSpec::builder(TaskId(1))
//!     .rounds(2)
//!     .grade(GradeRequirement::sized(DeviceGrade::High, 10))
//!     .trigger(AggregationTrigger::DeviceThreshold { min_devices: 10 })
//!     .build()?;
//! platform.submit(spec, data)?;
//! platform.run_until_idle();
//! let report = platform.report(TaskId(1)).expect("completed");
//! assert_eq!(report.rounds.len(), 2);
//! # Ok::<(), simdc_types::SimdcError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod alloc;
pub mod cloud;
pub mod invariants;
pub mod platform;
pub mod queue;
pub mod resources;
pub mod runner;
pub mod scheduler;
pub mod spec;

pub use alloc::{optimize, Allocation, GradeAllocParams, GradeAllocation};
pub use cloud::{AggregationTrigger, RoundOutcome, Storage};
pub use invariants::InvariantViolation;
pub use platform::{Platform, PlatformConfig, PlatformStatus, SourceRunStats, SubmissionSource};
pub use queue::{TaskQueue, TaskRecord, TaskState};
pub use resources::{ResourceClaim, ResourceManager};
pub use runner::{RoundReport, RunnerConfig, TaskReport, TaskRunner};
pub use scheduler::GreedyScheduler;
pub use spec::{AllocationPolicy, GradeRequirement, TaskSpec, TaskSpecBuilder};
