//! The Ray Runner: job submission, placement-group lifecycle and actor
//! scheduling on the elastic node pool.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
use simdc_types::{
    ActorId, DeviceGrade, DeviceId, NodeId, ResourceBundle, Result, RoundId, SimDuration,
    SimInstant, SimdcError, TaskId,
};

use crate::autoscaler::{Autoscaler, AutoscalerConfig, CostMeter, ScalingAction};
use crate::cost::CostModel;
use crate::node::NodePool;
use crate::placement::{PlacementGroup, PlacementGroupId};

/// Configuration of the logical-simulation cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Capacity of one worker node.
    pub node_template: ResourceBundle,
    /// Nodes started eagerly (also the autoscaler's scale-in floor).
    pub initial_nodes: usize,
    /// Elastic-scaling ceiling.
    pub max_nodes: usize,
    /// The unit resource bundle (paper default: 1 core / 1 GiB).
    pub unit_bundle: ResourceBundle,
    /// Timing model.
    pub cost: CostModel,
    /// Elastic autoscaling policy.
    pub autoscaler: AutoscalerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // Paper default: 200 CPU cores / 300 GB memory with elastic scaling.
        ClusterConfig {
            node_template: ResourceBundle::cores_gib(50, 75),
            initial_nodes: 4,
            max_nodes: 16,
            unit_bundle: ResourceBundle::cores_gib(1, 1),
            cost: CostModel::default(),
            autoscaler: AutoscalerConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for empty bundles, zero node counts or an
    /// invalid cost/autoscaler model.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.node_template.is_zero() {
            return Err(InvalidConfig("node_template must be non-empty".into()));
        }
        if self.unit_bundle.is_zero() {
            return Err(InvalidConfig("unit_bundle must be non-empty".into()));
        }
        if self.initial_nodes == 0 || self.initial_nodes > self.max_nodes {
            return Err(InvalidConfig(format!(
                "initial_nodes must be in [1, max_nodes], got {} (max {})",
                self.initial_nodes, self.max_nodes
            )));
        }
        if !self.node_template.contains(&self.unit_bundle) {
            return Err(InvalidConfig(
                "unit_bundle must fit on a single node".into(),
            ));
        }
        self.cost.validate()?;
        self.autoscaler.validate()
    }
}

/// A single-grade, single-round simulation job (the paper's `f` and `k`
/// parameters, §IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Owning task.
    pub task: TaskId,
    /// Round being executed.
    pub round: RoundId,
    /// Device grade simulated by this job.
    pub grade: DeviceGrade,
    /// The devices to simulate (the optimizer's `x` of them end up here).
    pub devices: Vec<DeviceId>,
    /// Total unit bundles requested (`f`).
    pub unit_bundles: u32,
    /// Unit bundles consumed per simulated device (`k`); one actor holds
    /// `k` units, so the job runs `⌊f / k⌋` actors.
    pub units_per_device: u32,
    /// Data + model payload each actor downloads at round start, in MiB.
    pub payload_mib: f64,
}

impl JobSpec {
    /// Number of actors this job will launch.
    #[must_use]
    pub fn actor_count(&self) -> u32 {
        self.unit_bundles
            .checked_div(self.units_per_device)
            .unwrap_or(0)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` when `k` is zero, `f < k` (no actor fits), or
    /// the payload is negative/not finite.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.units_per_device == 0 {
            return Err(InvalidConfig("units_per_device (k) must be > 0".into()));
        }
        if !self.devices.is_empty() && self.actor_count() == 0 {
            return Err(InvalidConfig(format!(
                "unit_bundles ({}) must be >= units_per_device ({}) to launch an actor",
                self.unit_bundles, self.units_per_device
            )));
        }
        if !self.payload_mib.is_finite() || self.payload_mib < 0.0 {
            return Err(InvalidConfig("payload_mib must be finite and >= 0".into()));
        }
        Ok(())
    }
}

/// One actor's schedule within a job plan. All offsets are relative to job
/// submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActorPlan {
    /// Actor identifier.
    pub actor: ActorId,
    /// Node hosting the actor.
    pub node: NodeId,
    /// When the actor is ready (placement + spawn).
    pub ready_at: SimDuration,
    /// Completion offset of each assigned device, in execution order.
    pub completions: Vec<(DeviceId, SimDuration)>,
    /// When the actor finished its last upload.
    pub finished_at: SimDuration,
}

/// The timed execution plan of a submitted job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobPlan {
    /// Owning task.
    pub task: TaskId,
    /// Round covered.
    pub round: RoundId,
    /// Grade simulated.
    pub grade: DeviceGrade,
    /// The placement group backing the job (release it when done).
    pub placement_group: PlacementGroupId,
    /// Per-actor schedules.
    pub actors: Vec<ActorPlan>,
    /// Time from submission until the slowest actor finished.
    pub makespan: SimDuration,
}

impl JobPlan {
    /// Number of actors launched.
    #[must_use]
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// All device completion offsets, flattened across actors.
    #[must_use]
    pub fn device_completions(&self) -> Vec<(DeviceId, SimDuration)> {
        let mut all: Vec<(DeviceId, SimDuration)> = self
            .actors
            .iter()
            .flat_map(|a| a.completions.iter().copied())
            .collect();
        all.sort_by_key(|&(_, at)| at);
        all
    }
}

/// A point-in-time view of the elastic tier (what a scenario run samples
/// into the `cloud.series` of its summary).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Physical nodes in any lifecycle state.
    pub nodes: u64,
    /// Nodes up and accepting placements.
    pub ready: u64,
    /// Nodes still booting.
    pub booting: u64,
    /// Nodes draining toward retirement.
    pub draining: u64,
    /// Nodes ever booted (including the initial set).
    pub booted_total: u64,
    /// Nodes ever retired.
    pub retired_total: u64,
    /// Largest physical footprint ever reached.
    pub peak_nodes: u64,
    /// Ready-capacity CPU utilization, in `[0, 1]`.
    pub utilization: f64,
    /// Cumulative node-time spend so far (accrued through the last
    /// lifecycle advance).
    pub cost_accrued: f64,
}

/// The logical-simulation cluster: elastic node pool + Ray-style job
/// submission, living on the platform's virtual clock.
///
/// The platform owns the clock: it calls [`LogicalCluster::advance_to`]
/// whenever its own clock moves, which promotes booting nodes, retires
/// drained ones and accrues node cost. [`LogicalCluster::autoscale`] is the
/// policy hook the platform invokes each scheduling pass with its queued
/// demand.
#[derive(Debug)]
pub struct LogicalCluster {
    pool: NodePool,
    unit: ResourceBundle,
    cost: CostModel,
    autoscaler: Autoscaler,
    meter: CostMeter,
    groups: BTreeMap<PlacementGroupId, PlacementGroup>,
    next_group: u64,
    next_actor: u64,
    clock: SimInstant,
}

impl LogicalCluster {
    /// Builds a cluster from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; call [`ClusterConfig::validate`]
    /// first for a recoverable error.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        config.validate().expect("invalid cluster configuration");
        LogicalCluster {
            pool: NodePool::new(config.node_template, config.initial_nodes, config.max_nodes),
            unit: config.unit_bundle,
            cost: config.cost,
            autoscaler: Autoscaler::new(config.autoscaler).with_min_nodes(config.initial_nodes),
            meter: CostMeter::new(SimInstant::EPOCH),
            groups: BTreeMap::new(),
            next_group: 0,
            next_actor: 0,
            clock: SimInstant::EPOCH,
        }
    }

    /// The node pool (for capacity/utilization queries).
    #[must_use]
    pub fn pool(&self) -> &NodePool {
        &self.pool
    }

    /// The timing model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The cluster's clock — the instant of the last
    /// [`LogicalCluster::advance_to`] (owned and driven by the platform).
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Advances the elastic tier to `now`: accrues node cost at the
    /// current footprint, promotes booting nodes whose ready instant has
    /// passed, and retires idle draining nodes. Instants in the past are
    /// ignored (the clock never rolls back).
    pub fn advance_to(&mut self, now: SimInstant) {
        if now < self.clock {
            return;
        }
        self.meter
            .accrue(self.pool.len(), self.cost.node_hourly_cost, now);
        self.pool.advance_to(now);
        self.clock = now;
    }

    /// One autoscaling pass: reacts to `demand_units` of queued
    /// unit-bundle demand at instant `now` (see [`Autoscaler::assess`]).
    /// Scale-ups charge [`CostModel::node_boot`] before the capacity is
    /// placeable; the returned action carries the ready instant.
    pub fn autoscale(&mut self, demand_units: u64, now: SimInstant) -> ScalingAction {
        self.autoscaler.assess(
            &mut self.pool,
            &self.unit,
            demand_units,
            self.cost.node_boot,
            self.cost.node_hourly_cost,
            now,
        )
    }

    /// Unit bundles placeable right now on ready nodes.
    #[must_use]
    pub fn free_unit_bundles(&self) -> u64 {
        self.pool.placeable(&self.unit)
    }

    /// Unit bundles the *ready* nodes hold at full capacity — what the
    /// Resource Manager's total resyncs to each scheduling pass.
    #[must_use]
    pub fn ready_unit_capacity(&self) -> u64 {
        self.pool.unit_capacity(&self.unit)
    }

    /// Unit bundles the cluster could ever offer: the elastic ceiling
    /// (`max_nodes`, further capped by the autoscaler's budget) at full
    /// capacity. Admission feasibility checks against this, so a task
    /// needing a scale-out is queued rather than rejected.
    #[must_use]
    pub fn capacity_ceiling_units(&self) -> u64 {
        let cap = self
            .autoscaler
            .node_cap(&self.pool, self.cost.node_hourly_cost);
        cap as u64 * self.pool.template().max_bundles(&self.unit)
    }

    /// Whether `(bundle, count)` requests could be placed together on the
    /// ready nodes right now (side-effect-free trial).
    #[must_use]
    pub fn can_place_all(&self, requests: &[(ResourceBundle, u64)]) -> bool {
        self.pool.can_place_all(requests)
    }

    /// Whether the requests could ever be placed at the elastic ceiling
    /// (empty nodes, budget cap applied) — fragmentation-aware admission
    /// feasibility.
    #[must_use]
    pub fn could_ever_place(&self, requests: &[(ResourceBundle, u64)]) -> bool {
        let cap = self
            .autoscaler
            .node_cap(&self.pool, self.cost.node_hourly_cost);
        self.pool.could_ever_place(requests, cap)
    }

    /// The actor resource bundle a job of `units_per_device` (`k`) uses.
    #[must_use]
    pub fn actor_bundle(&self, units_per_device: u64) -> ResourceBundle {
        self.unit.scaled(units_per_device)
    }

    /// Cumulative node-time spend accrued so far.
    #[must_use]
    pub fn cost_accrued(&self) -> f64 {
        self.meter.accrued()
    }

    /// Cumulative billed node-seconds (the quantity
    /// [`LogicalCluster::cost_accrued`] prices at the hourly rate).
    #[must_use]
    pub fn node_seconds(&self) -> f64 {
        self.meter.node_seconds()
    }

    /// Flushes the cost meter to `now` and returns the total spend: the
    /// scenario-end billing point, so a run ending mid-hour still pays for
    /// its final partial node-hour. Advances the whole lifecycle (it is
    /// `advance_to` plus the return value), so retire boundaries bill the
    /// same way they do mid-run.
    pub fn finalize_cost(&mut self, now: SimInstant) -> f64 {
        self.advance_to(now);
        self.meter.accrued()
    }

    /// Elasticity snapshot for reporting.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            nodes: self.pool.len() as u64,
            ready: self.pool.ready_count() as u64,
            booting: self.pool.booting_count() as u64,
            draining: self.pool.draining_count() as u64,
            booted_total: self.pool.booted_total(),
            retired_total: self.pool.retired_total(),
            peak_nodes: self.pool.peak_nodes() as u64,
            utilization: self.pool.cpu_utilization(),
            cost_accrued: self.meter.accrued(),
        }
    }

    /// Number of active placement groups.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.groups.len()
    }

    /// Atomically reserves a placement group of `count` copies of
    /// `bundle` on the ready nodes. The group stays reserved — blocking
    /// scale-in of its nodes — until [`LogicalCluster::release_job`].
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] when the group does not
    /// fit the *currently ready* capacity. Booting capacity does not
    /// count: callers wait for the node-ready event and retry rather than
    /// treating this as fatal.
    pub fn acquire_group(
        &mut self,
        bundle: ResourceBundle,
        count: usize,
    ) -> Result<PlacementGroupId> {
        let pg_id = PlacementGroupId(self.next_group);
        self.next_group += 1;
        let group = PlacementGroup::create(pg_id, &mut self.pool, bundle, count)?;
        self.groups.insert(pg_id, group);
        Ok(pg_id)
    }

    /// Computes the timed per-round schedule of `job` over an already
    /// acquired placement group, drawing actor ids from the cluster's own
    /// counter. The group's reservation is untouched — one group serves
    /// every round of its task. Deals devices round-robin over one actor
    /// per placement, charges the per-round placement+spawn setup and the
    /// per-actor data/model download, then walks each actor's queue
    /// sequentially.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for a malformed spec or an unknown group.
    pub fn plan_round_on_group(
        &mut self,
        pg_id: PlacementGroupId,
        job: &JobSpec,
        rng: &mut RngStream,
    ) -> Result<JobPlan> {
        let group = self
            .groups
            .get(&pg_id)
            .ok_or_else(|| SimdcError::InvalidConfig(format!("unknown placement group {pg_id}")))?;
        job.validate()?;

        let cost = &self.cost;
        let ready_at = cost.pg_create.saturating_add(cost.actor_spawn);
        let download = cost.download_time(job.payload_mib);

        let next_actor = &mut self.next_actor;
        let mut actors: Vec<ActorPlan> = group
            .placements()
            .iter()
            .map(|&node| {
                let actor = ActorId(*next_actor);
                *next_actor += 1;
                ActorPlan {
                    actor,
                    node,
                    ready_at,
                    completions: Vec::new(),
                    finished_at: ready_at,
                }
            })
            .collect();

        // Deal devices round-robin, then walk each actor's queue
        // sequentially.
        let mut queues: Vec<Vec<DeviceId>> = vec![Vec::new(); actors.len()];
        let n_queues = queues.len().max(1);
        for (i, &dev) in job.devices.iter().enumerate() {
            queues[i % n_queues].push(dev);
        }
        let mut makespan = SimDuration::ZERO;
        for (actor, queue) in actors.iter_mut().zip(queues) {
            let mut t = ready_at.saturating_add(download);
            for dev in queue {
                t = t.saturating_add(cost.device_compute(job.grade, rng));
                actor.completions.push((dev, t));
                t = t.saturating_add(cost.upload_per_device);
            }
            actor.finished_at = t;
            makespan = makespan.max(t);
        }

        Ok(JobPlan {
            task: job.task,
            round: job.round,
            grade: job.grade,
            placement_group: pg_id,
            actors,
            makespan,
        })
    }

    /// Submits a one-shot job: acquires a placement group against the
    /// currently ready capacity and returns the timed plan. Resources stay
    /// reserved until [`LogicalCluster::release_job`].
    ///
    /// Devices are dealt to actors round-robin, so actor loads differ by at
    /// most one device — matching the paper's "each actor sequentially
    /// simulating multiple devices".
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for a malformed spec and
    /// [`SimdcError::ResourceExhausted`] when the placement group does not
    /// fit the ready capacity. Submission does *not* scale the pool: boot
    /// more nodes first (e.g. via [`LogicalCluster::autoscale`]) and let
    /// the boot latency elapse — capacity is never usable at the request
    /// instant.
    pub fn submit_job(&mut self, job: &JobSpec, rng: &mut RngStream) -> Result<JobPlan> {
        job.validate()?;
        let actor_count = if job.devices.is_empty() {
            0
        } else {
            (job.actor_count() as usize).min(job.devices.len())
        };
        let actor_bundle = self.unit.scaled(u64::from(job.units_per_device));
        let pg_id = self.acquire_group(actor_bundle, actor_count)?;
        match self.plan_round_on_group(pg_id, job, rng) {
            Ok(plan) => Ok(plan),
            Err(err) => {
                self.release_job(pg_id);
                Err(err)
            }
        }
    }

    /// Releases the resources of a finished job. Returns `false` if the
    /// group was unknown (already released).
    pub fn release_job(&mut self, id: PlacementGroupId) -> bool {
        match self.groups.remove(&id) {
            Some(group) => {
                group.release(&mut self.pool);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> LogicalCluster {
        LogicalCluster::new(ClusterConfig::default())
    }

    fn job(n_devices: u64, f: u32, k: u32) -> JobSpec {
        JobSpec {
            task: TaskId(1),
            round: RoundId(0),
            grade: DeviceGrade::High,
            devices: (0..n_devices).map(DeviceId).collect(),
            unit_bundles: f,
            units_per_device: k,
            payload_mib: 4.0,
        }
    }

    #[test]
    fn devices_split_evenly_across_actors() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(1);
        let plan = c.submit_job(&job(100, 80, 8), &mut rng).unwrap();
        assert_eq!(plan.actor_count(), 10);
        for a in &plan.actors {
            assert_eq!(a.completions.len(), 10);
        }
        assert_eq!(plan.device_completions().len(), 100);
    }

    #[test]
    fn makespan_tracks_sequential_waves() {
        let mut c = LogicalCluster::new(ClusterConfig {
            cost: CostModel {
                jitter_frac: 0.0,
                ..CostModel::default()
            },
            ..ClusterConfig::default()
        });
        let mut rng = RngStream::from_seed(2);
        let plan = c.submit_job(&job(100, 80, 8), &mut rng).unwrap();
        let cost = c.cost();
        // 10 devices per actor → 10·(α + upload) + setup + download.
        let expected = cost
            .pg_create
            .saturating_add(cost.actor_spawn)
            .saturating_add(cost.download_time(4.0))
            .saturating_add(
                (cost
                    .alpha(DeviceGrade::High)
                    .saturating_add(cost.upload_per_device))
                    * 10,
            );
        assert_eq!(plan.makespan, expected);
    }

    #[test]
    fn more_actors_shorter_makespan() {
        let mut rng = RngStream::from_seed(3);
        let mut c1 = cluster();
        let narrow = c1.submit_job(&job(64, 8, 8), &mut rng).unwrap(); // 1 actor
        let mut c2 = cluster();
        let wide = c2.submit_job(&job(64, 64, 8), &mut rng).unwrap(); // 8 actors
        assert!(wide.makespan < narrow.makespan);
    }

    #[test]
    fn resources_are_held_until_release() {
        let mut c = cluster();
        let free_before = c.free_unit_bundles();
        let mut rng = RngStream::from_seed(4);
        let plan = c.submit_job(&job(100, 80, 8), &mut rng).unwrap();
        assert_eq!(c.free_unit_bundles(), free_before - 80);
        assert_eq!(c.active_jobs(), 1);
        assert!(c.release_job(plan.placement_group));
        assert_eq!(c.free_unit_bundles(), free_before);
        assert!(!c.release_job(plan.placement_group), "double release");
    }

    /// Submission no longer silently scales the pool: a burst beyond the
    /// ready capacity *waits* for an autoscale + boot latency, and only
    /// then places. This is the virtual-time half of the boot-latency
    /// regression (the pool-level half lives in `node.rs`).
    #[test]
    fn burst_blocks_until_scale_up_boots() {
        let mut c = cluster(); // 4×50 cores ready, max 16 nodes
        let mut rng = RngStream::from_seed(5);
        // 600 unit bundles > ready 200 cores: placement must fail *now* —
        // no capacity may materialize at the call instant.
        let burst = job(600, 600, 1);
        assert!(matches!(
            c.submit_job(&burst, &mut rng),
            Err(SimdcError::ResourceExhausted { .. })
        ));
        assert_eq!(c.active_jobs(), 0, "failed submission must not leak");

        // The autoscaler reacts to the queued demand...
        let action = c.autoscale(600, SimInstant::EPOCH);
        let ScalingAction::ScaleUp { ready_at, .. } = action else {
            panic!("expected scale-up, got {action:?}");
        };
        assert_eq!(ready_at, SimInstant::EPOCH + c.cost().node_boot);
        // ...but the capacity is still not placeable before the boot
        // latency has elapsed.
        assert!(c.submit_job(&burst, &mut rng).is_err());
        c.advance_to(ready_at - SimDuration::from_millis(1));
        assert!(c.submit_job(&burst, &mut rng).is_err());

        // Once the nodes are up, the same job places.
        c.advance_to(ready_at);
        let plan = c.submit_job(&burst, &mut rng).unwrap();
        assert_eq!(plan.actor_count(), 600);
        assert!(c.pool().len() > 4);
        assert!(c.cost_accrued() > 0.0, "node time was billed");
    }

    #[test]
    fn exhaustion_after_max_nodes_is_an_error() {
        let mut c = cluster(); // max 16 nodes × 50 cores = 800 cores
        let mut rng = RngStream::from_seed(6);
        // Even fully scaled out (and booted), 1,000 bundles cannot fit.
        c.autoscale(1_000, SimInstant::EPOCH);
        c.advance_to(SimInstant::EPOCH + SimDuration::from_mins(5));
        let result = c.submit_job(&job(1_000, 1_000, 1), &mut rng);
        assert!(matches!(result, Err(SimdcError::ResourceExhausted { .. })));
        // Failed submission must not leak reservations.
        assert_eq!(
            c.free_unit_bundles(),
            c.pool().placeable(&ResourceBundle::cores_gib(1, 1))
        );
        assert_eq!(c.active_jobs(), 0);
        assert!(!c.could_ever_place(&[(ResourceBundle::cores_gib(1, 1), 1_000)]));
    }

    #[test]
    fn one_group_serves_every_round_of_a_task() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(12);
        let bundle = c.actor_bundle(8);
        let pg = c.acquire_group(bundle, 10).unwrap();
        let free_after_acquire = c.free_unit_bundles();
        for round in 0..3u32 {
            let mut j = job(100, 80, 8);
            j.round = RoundId(round);
            let plan = c.plan_round_on_group(pg, &j, &mut rng).unwrap();
            assert_eq!(plan.actor_count(), 10);
            // Planning rounds does not consume further capacity.
            assert_eq!(c.free_unit_bundles(), free_after_acquire);
        }
        assert!(c.release_job(pg));
        assert_eq!(c.free_unit_bundles(), 200);
    }

    #[test]
    fn plan_round_rejects_unknown_group() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(13);
        let err = c
            .plan_round_on_group(PlacementGroupId(99), &job(10, 80, 8), &mut rng)
            .unwrap_err();
        assert!(matches!(err, SimdcError::InvalidConfig(_)));
    }

    #[test]
    fn empty_device_list_yields_empty_plan() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(7);
        let plan = c.submit_job(&job(0, 80, 8), &mut rng).unwrap();
        assert_eq!(plan.actor_count(), 0);
        assert_eq!(plan.makespan, SimDuration::ZERO);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(8);
        assert!(c.submit_job(&job(10, 80, 0), &mut rng).is_err());
        assert!(c.submit_job(&job(10, 4, 8), &mut rng).is_err()); // f < k
        let mut bad = job(10, 80, 8);
        bad.payload_mib = f64::NAN;
        assert!(c.submit_job(&bad, &mut rng).is_err());
    }

    #[test]
    fn completions_are_monotone_within_actor() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(9);
        let plan = c.submit_job(&job(50, 40, 8), &mut rng).unwrap();
        for actor in &plan.actors {
            for pair in actor.completions.windows(2) {
                assert!(pair[0].1 < pair[1].1);
            }
            assert!(actor.finished_at >= actor.completions.last().unwrap().1);
        }
    }

    #[test]
    fn actor_count_capped_by_device_count() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(10);
        let plan = c.submit_job(&job(3, 80, 8), &mut rng).unwrap();
        assert_eq!(plan.actor_count(), 3, "no idle actors for tiny jobs");
    }

    #[test]
    fn stats_track_the_elastic_lifecycle() {
        let mut c = cluster();
        let s0 = c.stats();
        assert_eq!(s0.nodes, 4);
        assert_eq!(s0.ready, 4);
        assert_eq!(s0.peak_nodes, 4);
        assert_eq!(s0.cost_accrued, 0.0);
        c.autoscale(400, SimInstant::EPOCH);
        let s1 = c.stats();
        assert!(s1.booting > 0);
        assert_eq!(s1.ready, 4);
        c.advance_to(SimInstant::EPOCH + SimDuration::from_mins(2));
        let s2 = c.stats();
        assert_eq!(s2.booting, 0);
        assert_eq!(s2.ready, s1.nodes);
        assert!(s2.peak_nodes > 4);
        assert!(s2.cost_accrued > 0.0);
        // Idle and over-provisioned: scale-in drains back toward the floor.
        let action = c.autoscale(0, SimInstant::EPOCH + SimDuration::from_mins(10));
        assert!(matches!(action, ScalingAction::ScaleIn { .. }));
        c.advance_to(SimInstant::EPOCH + SimDuration::from_mins(10) + SimDuration::from_secs(1));
        assert_eq!(c.stats().nodes, 4, "idle drained nodes retire");
        assert!(c.stats().retired_total > 0);
    }

    #[test]
    fn finalize_bills_the_final_partial_interval() {
        let mut c = cluster(); // 4 nodes, no scaling
        let rate = c.cost().node_hourly_cost;
        let hour = SimInstant::EPOCH + SimDuration::from_secs(3_600);
        let end = hour + SimDuration::from_secs(17);
        c.advance_to(hour);
        // A run ending 17 s into the next hour still bills that tail.
        let total = c.finalize_cost(end);
        assert!((total - 4.0 * rate * 3_617.0 / 3_600.0).abs() < 1e-9);
        assert!((c.node_seconds() - 4.0 * 3_617.0).abs() < 1e-9);
        // Spend equals node-seconds × rate within float rounding.
        assert!((c.cost_accrued() - c.node_seconds() * rate / 3_600.0).abs() < 1e-9);
        // A second flush at the same instant bills nothing more.
        assert!((c.finalize_cost(end) - total).abs() < 1e-12);
    }
}
