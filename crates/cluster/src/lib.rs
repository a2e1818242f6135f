//! The Logical Simulation substrate: a Ray-like cluster on Kubernetes-like
//! elastic nodes.
//!
//! The paper's logical simulation deploys Ray clusters on k8s nodes; a
//! master (*Ray Runner*) downloads data, configures runtime parameters and
//! launches *placement groups* of actors on worker nodes, each actor
//! sequentially simulating multiple devices (§IV-A). This crate reproduces
//! those scheduling semantics on virtual time:
//!
//! * [`NodePool`] — worker nodes with capacity and an event-driven
//!   lifecycle: scale-up charges a boot latency before capacity becomes
//!   placeable, scale-in drains nodes and retires them once their last
//!   allocation releases. The pool counts in the cluster's one unit
//!   bundle (`f` units per task, `k` per device, §IV-B): a node holds
//!   `node_template.max_bundles(unit_bundle)` units, computed once, and
//!   every capacity query answers in units.
//! * [`Autoscaler`] — the elastic policy: target-utilization scaling with
//!   a hysteresis band, a scale-in cooldown and a cost-budget cap priced
//!   by [`CostModel::node_hourly_cost`].
//! * [`PlacementGroup`] — a set of actors of `k` units each, placed
//!   first-fit across the ready nodes, all-or-nothing, held for the
//!   owning task's whole lifetime.
//! * [`LogicalCluster`] — round planning: deals a round's devices over a
//!   placement group's actors and returns each device's virtual completion
//!   offset ([`LogicalCluster::plan_round`]). Per-actor *data/model
//!   download* costs are charged every round — the architectural realism
//!   that makes SimDC slower than in-memory simulators at small scale
//!   (Fig 8).
//!
//! The cluster lives on the *platform's* clock: the owner calls
//! [`LogicalCluster::advance_to`] as virtual time moves, and
//! [`LogicalCluster::autoscale`] with its queued demand each scheduling
//! pass. Placement that does not fit the ready capacity is an error the
//! caller treats as *wait for the node-ready event*, not as failure.
//!
//! # Examples
//!
//! Planning a round on a placement group that fits the ready capacity:
//!
//! ```
//! use simdc_cluster::{ClusterConfig, LogicalCluster};
//! use simdc_simrt::RngStream;
//! use simdc_types::{DeviceGrade, DeviceId};
//!
//! let mut cluster = LogicalCluster::new(ClusterConfig::default());
//! // f = 80 unit bundles, k = 8 per device → 10 actors of 8 units.
//! let pg = cluster.acquire_group(8, 10).unwrap();
//! let devices: Vec<DeviceId> = (0..100).map(DeviceId).collect();
//! let mut rng = RngStream::from_seed(1);
//! let completions = cluster
//!     .plan_round(pg, DeviceGrade::High, &devices, 4.0, &mut rng)
//!     .unwrap();
//! assert_eq!(completions.len(), 100);
//! assert!(completions.windows(2).all(|w| w[0].1 <= w[1].1));
//! cluster.release_job(pg);
//! ```
//!
//! A burst beyond the ready capacity blocks until the autoscaler's nodes
//! finish booting:
//!
//! ```
//! use simdc_cluster::{ClusterConfig, LogicalCluster, ScalingAction};
//! use simdc_simrt::RngStream;
//! use simdc_types::{DeviceGrade, DeviceId, SimInstant};
//!
//! let mut cluster = LogicalCluster::new(ClusterConfig::default());
//! // 400 actors of one unit > 200 ready units: placement blocks (errors)
//! // for now.
//! assert!(cluster.acquire_group(1, 400).is_err());
//! // The autoscaler reacts to the queued demand with booting nodes…
//! let ScalingAction::ScaleUp { ready_at, .. } = cluster.autoscale(400, SimInstant::EPOCH)
//! else { panic!("queue pressure must scale up") };
//! // …and once the boot latency has elapsed, the same group places.
//! cluster.advance_to(ready_at);
//! let pg = cluster.acquire_group(1, 400).unwrap();
//! let devices: Vec<DeviceId> = (0..400).map(DeviceId).collect();
//! let mut rng = RngStream::from_seed(7);
//! let completions = cluster
//!     .plan_round(pg, DeviceGrade::High, &devices, 4.0, &mut rng)
//!     .unwrap();
//! assert_eq!(completions.len(), 400);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod autoscaler;
pub mod cost;
pub mod node;
pub mod placement;
pub mod runner;

pub use autoscaler::{Autoscaler, AutoscalerConfig, CostMeter, ScalingAction};
pub use cost::CostModel;
pub use node::{NodePool, NodeState, WorkerNode};
pub use placement::{PlacementGroup, PlacementGroupId};
pub use runner::{ClusterConfig, ClusterStats, LogicalCluster};
