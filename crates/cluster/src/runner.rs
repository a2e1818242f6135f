//! The Ray Runner: placement-group lifecycle on the elastic node pool and
//! the timing of one round over a group's actors.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
use simdc_types::{
    DeviceGrade, DeviceId, ResourceBundle, Result, SimDuration, SimInstant, SimdcError,
};

use crate::autoscaler::{Autoscaler, AutoscalerConfig, CostMeter, ScalingAction};
use crate::cost::CostModel;
use crate::node::NodePool;
use crate::placement::{PlacementGroup, PlacementGroupId};

/// The most nodes a cluster may scale to. The densest committed spec
/// allows 512.
pub const MAX_NODES: usize = 100_000;

/// The most unit bundles a fully scaled-out pool may hold
/// (`max_nodes × units_per_node`), so every unit count the pool sums fits
/// in a `u64` many times over. The densest committed spec holds 25 600.
pub const MAX_POOL_UNITS: u64 = u32::MAX as u64;

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
    /// Returns `InvalidConfig` for empty bundles, zero node counts, a unit
    /// that does not fit on a node, a pool beyond [`MAX_NODES`] nodes or
    /// [`MAX_POOL_UNITS`] units, or an invalid cost/autoscaler model.
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
        if self.max_nodes > MAX_NODES {
            return Err(InvalidConfig(format!(
                "max_nodes must be at most {MAX_NODES}, got {}",
                self.max_nodes
            )));
        }
        let units_per_node = self.node_template.max_bundles(&self.unit_bundle);
        if units_per_node == 0 {
            return Err(InvalidConfig(
                "unit_bundle must fit on a single node".into(),
            ));
        }
        let pool_units = self.max_nodes as u128 * u128::from(units_per_node);
        if pool_units > u128::from(MAX_POOL_UNITS) {
            return Err(InvalidConfig(format!(
                "pool units (max_nodes × unit bundles per node) must be at most \
                 {MAX_POOL_UNITS}, got {pool_units}"
            )));
        }
        self.cost.validate()?;
        self.autoscaler.validate()
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

/// The logical-simulation cluster: elastic node pool + Ray-style
/// placement groups, living on the platform's virtual clock.
///
/// The platform owns the clock: it calls [`LogicalCluster::advance_to`]
/// whenever its own clock moves, which promotes booting nodes, retires
/// drained ones and accrues node cost. [`LogicalCluster::autoscale`] is the
/// policy hook the platform invokes each scheduling pass with its queued
/// demand.
#[derive(Debug)]
pub struct LogicalCluster {
    pool: NodePool,
    cost: CostModel,
    autoscaler: Autoscaler,
    meter: CostMeter,
    groups: BTreeMap<PlacementGroupId, PlacementGroup>,
    next_group: u64,
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
            pool: NodePool::new(
                config.node_template,
                config.unit_bundle,
                config.initial_nodes,
                config.max_nodes,
            ),
            cost: config.cost,
            autoscaler: Autoscaler::new(config.autoscaler).with_min_nodes(config.initial_nodes),
            meter: CostMeter::new(SimInstant::EPOCH),
            groups: BTreeMap::new(),
            next_group: 0,
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

    /// One autoscaling pass: reacts to `demand_units` of queued unit
    /// demand at instant `now` (see [`Autoscaler::assess`]).
    /// Scale-ups charge [`CostModel::node_boot`] before the capacity is
    /// placeable; the returned action carries the ready instant.
    pub fn autoscale(&mut self, demand_units: u64, now: SimInstant) -> ScalingAction {
        self.autoscaler.assess(
            &mut self.pool,
            demand_units,
            self.cost.node_boot,
            self.cost.node_hourly_cost,
            now,
        )
    }

    /// Unit bundles the *ready* nodes hold at full capacity — what the
    /// Resource Manager's total resyncs to each scheduling pass.
    #[must_use]
    pub fn ready_unit_capacity(&self) -> u64 {
        self.pool.unit_capacity()
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
        cap as u64 * self.pool.units_per_node()
    }

    /// Whether `(units per actor, actors)` requests could be placed
    /// together on the ready nodes right now (side-effect-free trial).
    #[must_use]
    pub fn can_place_all(&self, requests: &[(u64, u64)]) -> bool {
        self.pool.can_place_all(requests)
    }

    /// Whether the requests could ever be placed at the elastic ceiling
    /// (empty nodes, budget cap applied) — fragmentation-aware admission
    /// feasibility.
    #[must_use]
    pub fn could_ever_place(&self, requests: &[(u64, u64)]) -> bool {
        let cap = self
            .autoscaler
            .node_cap(&self.pool, self.cost.node_hourly_cost);
        self.pool.could_ever_place(requests, cap)
    }

    /// The units an actor of a job of `units_per_device` (`k`) holds:
    /// `k` itself, since the pool counts in units. Kept only for callers
    /// written against the bundle-valued form (the benchmark's probes).
    #[must_use]
    pub fn actor_bundle(&self, units_per_device: u64) -> u64 {
        units_per_device
    }

    /// Cumulative billed node-seconds (the quantity
    /// [`ClusterStats::cost_accrued`] prices at the hourly rate).
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

    /// Atomically reserves a placement group of `count` actors of `units`
    /// unit bundles each on the ready nodes. The group stays reserved — blocking
    /// scale-in of its nodes — until [`LogicalCluster::release_job`].
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] when the group does not
    /// fit the *currently ready* capacity. Booting capacity does not
    /// count: callers wait for the node-ready event and retry rather than
    /// treating this as fatal.
    pub fn acquire_group(&mut self, units: u64, count: usize) -> Result<PlacementGroupId> {
        let pg_id = PlacementGroupId(self.next_group);
        self.next_group += 1;
        let group = PlacementGroup::create(pg_id, &mut self.pool, units, count)?;
        self.groups.insert(pg_id, group);
        Ok(pg_id)
    }

    /// Plans one round of `devices` of `grade` over the acquired group
    /// `pg_id`: when each device finishes, as an offset from the round's
    /// start, sorted by offset (ties keep actor order, then deal order).
    /// Devices are dealt round-robin over one actor per placement; every
    /// actor pays the placement+spawn setup and the `payload_mib`
    /// download, then computes its devices in sequence with an upload
    /// after each. Compute is drawn from `rng` actor by actor. The
    /// group's reservation is untouched — one group serves every round of
    /// its task.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for an unknown group, a group with no actor
    /// while `devices` is non-empty, or a negative or non-finite payload.
    pub fn plan_round(
        &self,
        pg_id: PlacementGroupId,
        grade: DeviceGrade,
        devices: &[DeviceId],
        payload_mib: f64,
        rng: &mut RngStream,
    ) -> Result<Vec<(DeviceId, SimDuration)>> {
        use SimdcError::InvalidConfig;
        let group = self
            .groups
            .get(&pg_id)
            .ok_or_else(|| InvalidConfig(format!("unknown placement group {pg_id}")))?;
        let actors = group.len();
        if actors == 0 && !devices.is_empty() {
            return Err(InvalidConfig(format!(
                "placement group {pg_id} has no actor for {} devices",
                devices.len()
            )));
        }
        if !payload_mib.is_finite() || payload_mib < 0.0 {
            return Err(InvalidConfig("payload_mib must be finite and >= 0".into()));
        }
        let cost = &self.cost;
        let compute_start = cost
            .pg_create
            .saturating_add(cost.actor_spawn)
            .saturating_add(cost.download_time(payload_mib));
        let mut completions = Vec::with_capacity(devices.len());
        for actor in 0..actors {
            let mut t = compute_start;
            for &dev in devices.iter().skip(actor).step_by(actors) {
                t = t.saturating_add(cost.device_compute(grade, rng));
                completions.push((dev, t));
                t = t.saturating_add(cost.upload_per_device);
            }
        }
        completions.sort_by_key(|&(_, at)| at);
        Ok(completions)
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

    fn without_jitter() -> LogicalCluster {
        LogicalCluster::new(ClusterConfig {
            cost: CostModel {
                jitter_frac: 0.0,
                ..CostModel::default()
            },
            ..ClusterConfig::default()
        })
    }

    fn devices(n: u64) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    /// One round of `n` high-grade devices on a fresh group of `actors`
    /// actors of `k` units, with a 4 MiB payload.
    fn round(
        c: &mut LogicalCluster,
        k: u64,
        actors: usize,
        n: u64,
        rng: &mut RngStream,
    ) -> Vec<(DeviceId, SimDuration)> {
        let pg = c.acquire_group(k, actors).unwrap();
        c.plan_round(pg, DeviceGrade::High, &devices(n), 4.0, rng)
            .unwrap()
    }

    /// The instant the last actor finishes its last upload.
    fn makespan(c: &LogicalCluster, completions: &[(DeviceId, SimDuration)]) -> SimDuration {
        completions
            .last()
            .map_or(SimDuration::ZERO, |&(_, at)| at)
            .saturating_add(c.cost().upload_per_device)
    }

    #[test]
    fn devices_split_evenly_across_actors() {
        // Without jitter every actor's i-th device finishes at the same
        // offset, so an even split is ten waves of ten completions each.
        let mut c = without_jitter();
        let mut rng = RngStream::from_seed(1);
        let completions = round(&mut c, 8, 10, 100, &mut rng);
        let mut dealt: Vec<DeviceId> = completions.iter().map(|&(d, _)| d).collect();
        dealt.sort_unstable();
        assert_eq!(dealt, devices(100));
        for wave in completions.chunks(10) {
            assert!(wave.iter().all(|&(_, at)| at == wave[0].1), "{wave:?}");
        }
        assert!(completions
            .chunks(10)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0][0].1 < w[1][0].1));
    }

    #[test]
    fn makespan_tracks_sequential_waves() {
        let mut c = without_jitter();
        let mut rng = RngStream::from_seed(2);
        let completions = round(&mut c, 8, 10, 100, &mut rng);
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
        assert_eq!(makespan(&c, &completions), expected);
    }

    #[test]
    fn more_actors_shorter_makespan() {
        let mut rng = RngStream::from_seed(3);
        let mut c1 = cluster();
        let narrow = round(&mut c1, 8, 1, 64, &mut rng);
        let mut c2 = cluster();
        let wide = round(&mut c2, 8, 8, 64, &mut rng);
        assert!(makespan(&c2, &wide) < makespan(&c1, &narrow));
    }

    #[test]
    fn resources_are_held_until_release() {
        let mut c = cluster();
        let free_before = c.pool().placeable();
        let pg = c.acquire_group(8, 10).unwrap();
        assert_eq!(c.pool().placeable(), free_before - 80);
        assert_eq!(c.active_jobs(), 1);
        assert!(c.release_job(pg));
        assert_eq!(c.pool().placeable(), free_before);
        assert!(!c.release_job(pg), "double release");
    }

    /// Acquisition never scales the pool: a burst beyond the ready
    /// capacity *waits* for an autoscale + boot latency, and only then
    /// places. This is the virtual-time half of the boot-latency
    /// regression (the pool-level half lives in `node.rs`).
    #[test]
    fn burst_blocks_until_scale_up_boots() {
        let mut c = cluster(); // 4×50 cores ready, max 16 nodes
        let mut rng = RngStream::from_seed(5);
        // 600 unit bundles > ready 200 cores: placement must fail *now* —
        // no capacity may materialize at the call instant.
        assert!(matches!(
            c.acquire_group(1, 600),
            Err(SimdcError::ResourceExhausted { .. })
        ));
        assert_eq!(c.active_jobs(), 0, "failed acquisition must not leak");

        // The autoscaler reacts to the queued demand...
        let action = c.autoscale(600, SimInstant::EPOCH);
        let ScalingAction::ScaleUp { ready_at, .. } = action else {
            panic!("expected scale-up, got {action:?}");
        };
        assert_eq!(ready_at, SimInstant::EPOCH + c.cost().node_boot);
        // ...but the capacity is still not placeable before the boot
        // latency has elapsed.
        assert!(c.acquire_group(1, 600).is_err());
        c.advance_to(ready_at - SimDuration::from_millis(1));
        assert!(c.acquire_group(1, 600).is_err());

        // Once the nodes are up, the same group places.
        c.advance_to(ready_at);
        assert_eq!(round(&mut c, 1, 600, 600, &mut rng).len(), 600);
        assert!(c.pool().len() > 4);
        assert!(c.stats().cost_accrued > 0.0, "node time was billed");
    }

    #[test]
    fn exhaustion_after_max_nodes_is_an_error() {
        let mut c = cluster(); // max 16 nodes × 50 cores = 800 cores
                               // Even fully scaled out (and booted), 1,000 bundles cannot fit.
        c.autoscale(1_000, SimInstant::EPOCH);
        c.advance_to(SimInstant::EPOCH + SimDuration::from_mins(5));
        let placeable = c.pool().placeable();
        let result = c.acquire_group(1, 1_000);
        assert!(matches!(result, Err(SimdcError::ResourceExhausted { .. })));
        // A failed acquisition must not leak reservations.
        assert_eq!(c.pool().placeable(), placeable);
        assert_eq!(c.active_jobs(), 0);
        assert!(!c.could_ever_place(&[(1, 1_000)]));
        assert!(c.could_ever_place(&[(1, 800)]));
    }

    #[test]
    fn one_group_serves_every_round_of_a_task() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(12);
        let pg = c.acquire_group(8, 10).unwrap();
        let free_after_acquire = c.pool().placeable();
        for _ in 0..3 {
            let completions = c
                .plan_round(pg, DeviceGrade::High, &devices(100), 4.0, &mut rng)
                .unwrap();
            assert_eq!(completions.len(), 100);
            // Planning rounds does not consume further capacity.
            assert_eq!(c.pool().placeable(), free_after_acquire);
        }
        assert!(c.release_job(pg));
        assert_eq!(c.pool().placeable(), 200);
    }

    #[test]
    fn plan_round_rejects_unknown_group() {
        let c = cluster();
        let mut rng = RngStream::from_seed(13);
        let err = c
            .plan_round(
                PlacementGroupId(99),
                DeviceGrade::High,
                &devices(10),
                4.0,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, SimdcError::InvalidConfig(_)));
    }

    #[test]
    fn empty_device_list_yields_empty_plan() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(7);
        // A grade with no logical devices holds no actor; a group with
        // actors may also be asked for an empty round.
        assert!(round(&mut c, 8, 0, 0, &mut rng).is_empty());
        assert!(round(&mut c, 8, 10, 0, &mut rng).is_empty());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(8);
        // f < k: the group holds no actor for its devices.
        let empty = c.acquire_group(8, 0).unwrap();
        let err = c
            .plan_round(empty, DeviceGrade::High, &devices(10), 4.0, &mut rng)
            .unwrap_err();
        assert!(matches!(err, SimdcError::InvalidConfig(_)), "{err}");
        let pg = c.acquire_group(8, 10).unwrap();
        for payload in [f64::NAN, f64::INFINITY, -1.0] {
            let err = c
                .plan_round(pg, DeviceGrade::High, &devices(10), payload, &mut rng)
                .unwrap_err();
            assert!(
                matches!(err, SimdcError::InvalidConfig(_)),
                "{payload}: {err}"
            );
        }
    }

    #[test]
    fn completions_are_monotone_within_actor() {
        let mut c = cluster();
        let mut rng = RngStream::from_seed(9);
        let completions = round(&mut c, 8, 5, 50, &mut rng);
        // Device `d` is dealt to actor `d mod 5`, in device order.
        for actor in 0..5 {
            let mut mine: Vec<(DeviceId, SimDuration)> = completions
                .iter()
                .copied()
                .filter(|&(d, _)| d.0 % 5 == actor)
                .collect();
            assert_eq!(mine.len(), 10);
            mine.sort_by_key(|&(d, _)| d);
            assert!(mine.windows(2).all(|w| w[0].1 < w[1].1), "{mine:?}");
        }
    }

    /// The actor-queue walk `plan_round` replaced (the former
    /// `LogicalCluster::plan_round_on_group` followed by
    /// `JobPlan::device_completions`): deal the devices into one queue per
    /// actor, walk each queue in turn, then flatten in actor order and
    /// stably sort by offset.
    fn queue_walk(
        cost: &CostModel,
        actors: usize,
        grade: DeviceGrade,
        devices: &[DeviceId],
        payload_mib: f64,
        rng: &mut RngStream,
    ) -> Vec<(DeviceId, SimDuration)> {
        let ready_at = cost.pg_create.saturating_add(cost.actor_spawn);
        let download = cost.download_time(payload_mib);
        let mut queues: Vec<Vec<DeviceId>> = vec![Vec::new(); actors];
        let n_queues = queues.len().max(1);
        for (i, &dev) in devices.iter().enumerate() {
            queues[i % n_queues].push(dev);
        }
        let mut per_actor: Vec<Vec<(DeviceId, SimDuration)>> = Vec::new();
        for queue in queues {
            let mut t = ready_at.saturating_add(download);
            let mut completions = Vec::new();
            for dev in queue {
                t = t.saturating_add(cost.device_compute(grade, rng));
                completions.push((dev, t));
                t = t.saturating_add(cost.upload_per_device);
            }
            per_actor.push(completions);
        }
        let mut all: Vec<(DeviceId, SimDuration)> = per_actor.into_iter().flatten().collect();
        all.sort_by_key(|&(_, at)| at);
        all
    }

    #[test]
    fn plan_round_matches_the_actor_queue_walk() {
        let mut gen = RngStream::from_seed(0x5eed_fa11);
        for case in 0..400 {
            // Jitter 0 makes every actor's i-th device tie; the default
            // jitter makes the draw order visible.
            let jitter_frac = if case % 2 == 0 {
                0.0
            } else {
                CostModel::default().jitter_frac
            };
            let cost = CostModel {
                jitter_frac,
                ..CostModel::default()
            };
            let mut c = LogicalCluster::new(ClusterConfig {
                cost: cost.clone(),
                ..ClusterConfig::default()
            });
            let actors = 1 + gen.index(16);
            let k = 1 + gen.index(8) as u64;
            let n = gen.index(201);
            let ids: Vec<DeviceId> = (0..n).map(|_| DeviceId(gen.next_u64() % 1_000)).collect();
            let grade = if gen.chance(0.5) {
                DeviceGrade::High
            } else {
                DeviceGrade::Low
            };
            let payload = gen.uniform_range(0.0, 16.0);
            let seed = gen.next_u64();

            let pg = c.acquire_group(k, actors).unwrap();
            let mut rng = RngStream::from_seed(seed);
            let planned = c.plan_round(pg, grade, &ids, payload, &mut rng).unwrap();
            let mut oracle_rng = RngStream::from_seed(seed);
            let expected = queue_walk(&cost, actors, grade, &ids, payload, &mut oracle_rng);
            assert_eq!(
                planned, expected,
                "case {case}: {actors} actors, {n} devices, jitter {jitter_frac}"
            );
            assert_eq!(
                rng.next_u64(),
                oracle_rng.next_u64(),
                "case {case}: both walks draw the same count"
            );
        }
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
        assert!((c.stats().cost_accrued - c.node_seconds() * rate / 3_600.0).abs() < 1e-9);
        // A second flush at the same instant bills nothing more.
        assert!((c.finalize_cost(end) - total).abs() < 1e-12);
    }
}
