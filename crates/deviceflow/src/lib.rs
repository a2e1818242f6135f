//! DeviceFlow: the programmable device-behavior traffic controller (§V).
//!
//! Edge devices upload results to storage and notify the cloud with small
//! messages; DeviceFlow sits between the two, buffering the messages and
//! releasing them according to a user-defined strategy — replaying the
//! request-traffic fluctuations and disconnections that large device fleets
//! exhibit in the real world.
//!
//! Architecture (Fig 4): the paper's Sorter, Shelf and Dispatcher are one
//! record per task. [`DeviceFlow`] keeps a map from task to record, and
//! routing an incoming message to its task (the Sorter) is the lookup on
//! `message.task`; a message for an unregistered task is dropped. Each
//! record holds its task's pending messages in arrival order (the Shelf),
//! its [`FlowStats`] and the state of the task's [`DispatchStrategy`] (the
//! Dispatcher), which releases shelved messages downstream:
//!
//! * **real-time accumulated** — flush after every `n` received messages
//!   (cycling a user sequence), with a per-message transmission-failure
//!   probability that simulates device dropouts;
//! * **rule-based, time points** — send fixed amounts at user-set relative
//!   or absolute times, capped by single-threaded transmission capacity
//!   (overflow spills into subsequent seconds, as in Fig 10(a/b));
//! * **rule-based, time interval** — a user-defined transmission-rate
//!   function `y = f(t)` (single-valued, bounded, non-negative, piecewise
//!   continuous) is discretized by area-under-curve ratios into a
//!   time-point plan (Fig 10(c/d), Table II).
//!
//! DeviceFlow is a stage, not an evaluator: it maps each emitted message to
//! a release time or a drop, and [`FlowHarness::deliver_round`] streams a
//! round's releases into the cloud's one trigger evaluator
//! (`simdc_core::cloud::resolve_round`). A round's completion signal that
//! arrives after the task's next round has started is ignored, so a round
//! aggregated before its compute finished cannot pause the next one.
//!
//! # Examples
//!
//! ```
//! use simdc_deviceflow::{DeviceFlow, DispatchStrategy, FlowHarness};
//! use simdc_simrt::RngStream;
//! use simdc_types::TaskId;
//!
//! let mut flow = DeviceFlow::new();
//! flow.register_task(
//!     TaskId(1),
//!     DispatchStrategy::RealTimeAccumulated {
//!         thresholds: vec![20, 100, 50],
//!         failure_prob: 0.0,
//!     },
//! )
//! .unwrap();
//! let harness = FlowHarness::new(flow, RngStream::from_seed(7));
//! // …ingest messages, then drain a round with harness.deliver_round(…)…
//! # let _ = harness;
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod controller;
pub mod discretize;
mod dispatcher;
pub mod function;
pub mod harness;
pub mod strategy;

pub use controller::{DeliveredBatch, DeviceFlow, FlowStats};
pub use discretize::{discretize, DispatchPlan, DispatchPoint};
pub use function::{Domain, TrafficFunction};
pub use harness::{FlowHarness, RoundDeliveries};
pub use strategy::{DispatchStrategy, Dropout, TimePointRule, TimeSpec};

/// Default single-threaded transmission capacity of DeviceFlow, in
/// messages per second (§V-B: "e.g., 700 messages per second").
pub const DEFAULT_CAPACITY_PER_SEC: u64 = 700;
