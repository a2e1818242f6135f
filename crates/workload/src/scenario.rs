//! The runnable form of a scenario and the engine that executes it.
//!
//! A [`Scenario`] composes an [`ArrivalProcess`], a [`TaskTemplate`] and
//! [`FleetDynamics`] over a time horizon; it is what a
//! [`crate::ScenarioSpec`] compiles to (the named scenarios themselves are
//! the JSON specs behind [`crate::library()`]). [`Scenario::run`]
//! pre-samples the arrival instants and fleet perturbations from the
//! scenario seed, then replays them through the deterministic
//! [`simdc_simrt::Engine`] event loop: task arrivals, phone crashes and
//! reboots are all events in one queue. A task's spec is instantiated
//! when its arrival fires, and a finished task leaves only its arrival
//! instant, final accuracy and terminal state behind, so a run's memory
//! does not grow with the specs or reports of the tasks it has finished. The platform core is itself event-driven — each arrival is
//! admitted at its arrival instant (or at the first task completion that
//! frees its claim), and a recurring dispatch event merely paces the
//! platform's completion events forward, never draining ahead of the
//! outer timeline.
//!
//! Everything downstream of the seed is deterministic: same seed ⇒
//! byte-identical [`ScenarioSummary`] JSON; different seed ⇒ different
//! arrivals (exposed via `arrival_preview_secs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simdc_cluster::ClusterConfig;
use simdc_core::{Platform, PlatformConfig, TaskState};
use simdc_data::CtrDataset;
use simdc_simrt::{Engine, EngineCtx, RngStream, World};
use simdc_types::{Result, SimDuration, SimInstant, SimdcError, TaskId};

use crate::arrival::ArrivalProcess;
use crate::fleet::{FleetDynamics, FleetEvent};
use crate::template::TaskTemplate;

/// A named, self-contained workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (doubles as the JSON key and RNG stream label).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Arrival horizon: tasks arrive in `[0, horizon)`; the run then
    /// drains.
    pub horizon: SimDuration,
    /// Period of the dispatch event that paces the platform's completion
    /// events along the outer timeline (admission itself is per-arrival
    /// and per-completion, not per-dispatch).
    pub dispatch_interval: SimDuration,
    /// Task arrival process.
    pub arrivals: ArrivalProcess,
    /// Task generator.
    pub template: TaskTemplate,
    /// Fleet perturbations.
    pub fleet: FleetDynamics,
    /// Logical-cluster override: scenarios that exercise the elastic
    /// cloud tier (small initial pools, budget-capped autoscalers) carry
    /// their cluster shape here; `None` keeps whatever the caller's
    /// [`PlatformConfig`] says.
    pub cluster: Option<ClusterConfig>,
}

impl Scenario {
    /// Validates the scenario and its components.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for an empty name, zero horizon/interval, or
    /// any invalid component.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.name.is_empty() {
            return Err(InvalidConfig("scenario name must not be empty".into()));
        }
        if self.horizon.is_zero() {
            return Err(InvalidConfig("scenario horizon must be positive".into()));
        }
        if self.dispatch_interval.is_zero() {
            return Err(InvalidConfig("dispatch interval must be positive".into()));
        }
        self.arrivals.validate()?;
        self.template.validate()?;
        if let Some(cluster) = &self.cluster {
            cluster.validate()?;
        }
        self.fleet.validate()
    }

    /// Executes the scenario against a fresh platform and returns its
    /// summary.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`].
    #[must_use]
    pub fn run(
        &self,
        config: PlatformConfig,
        dataset: &Arc<CtrDataset>,
        seed: u64,
    ) -> ScenarioSummary {
        self.run_detailed(config, dataset, seed).0
    }

    /// Like [`Scenario::run`], but also hands back the drained platform —
    /// for tests and tools that need post-run internals the summary
    /// deliberately omits (e.g. billed node-seconds for the cost
    /// reconciliation check).
    ///
    /// The run takes each task's report as the task completes and keeps
    /// only its final accuracy, so the platform handed back holds no
    /// reports ([`Platform::report`] finds none); its task states are
    /// intact. A caller that wants reports builds a [`Platform`] and
    /// drives it itself.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`].
    #[must_use]
    pub fn run_detailed(
        &self,
        config: PlatformConfig,
        dataset: &Arc<CtrDataset>,
        seed: u64,
    ) -> (ScenarioSummary, Platform) {
        self.validate().expect("scenario must be valid");
        let mut rng = RngStream::named(seed, &format!("scenario/{}", self.name));
        let mut config = config;
        if let Some(cluster) = &self.cluster {
            config.cluster = cluster.clone();
        }
        let mut platform = Platform::new(config);

        // Pre-sample every stochastic schedule from the scenario seed.
        let offsets = self
            .arrivals
            .sample(self.horizon, &mut rng.fork("arrivals"));
        // Specs are instantiated as their arrivals fire, from this one
        // stream: offsets are strictly increasing, so arrival `i` fires
        // before arrival `i + 1` and the draws come in id order.
        let template_rng = rng.fork("templates");
        let stragglers = self
            .fleet
            .apply_stragglers(platform.phones_mut(), &mut rng.fork("stragglers"));
        let crashes =
            self.fleet
                .sample_crashes(platform.phones(), self.horizon, &mut rng.fork("churn"));

        // Replay the schedules through the deterministic event loop.
        let mut engine = Engine::new(ScenarioWorld {
            platform,
            dataset: Arc::clone(dataset),
            template: &self.template,
            template_rng,
            dispatch_interval: self.dispatch_interval,
            reboot_after: self.fleet.reboot_after,
            tasks: BTreeMap::new(),
            rejected: 0,
            completed: 0,
            crashes: 0,
            reboots: 0,
            cloud_series: Vec::new(),
        });
        for (i, offset) in offsets.iter().enumerate() {
            engine.schedule_in(*offset, Ev::Arrival(TaskId(i as u64 + 1)));
        }
        for (offset, event) in &crashes {
            engine.schedule_in(*offset, Ev::Fleet(*event));
        }
        engine.schedule_in(self.dispatch_interval, Ev::Dispatch);
        let outer_events = engine.run();

        let world = engine.into_world();
        summarize(self, seed, &offsets, world, stragglers, outer_events)
    }
}

/// The event alphabet of a scenario run.
enum Ev {
    /// A task arrives: its spec is instantiated and submitted to the
    /// platform queue.
    Arrival(TaskId),
    /// A fleet perturbation fires.
    Fleet(FleetEvent),
    /// Pacing tick: run the platform's completion events up to now (final
    /// tick drains it to idle).
    Dispatch,
}

/// What a scenario run keeps of a submitted task.
struct SubmittedTask {
    arrival: SimInstant,
    /// Final-round test accuracy, once the task completed.
    final_accuracy: Option<f64>,
}

/// Platform + bookkeeping driven by the event loop.
struct ScenarioWorld<'a> {
    platform: Platform,
    dataset: Arc<CtrDataset>,
    template: &'a TaskTemplate,
    template_rng: RngStream,
    dispatch_interval: SimDuration,
    reboot_after: SimDuration,
    /// Every submitted task by id; ascending id order is submission order.
    tasks: BTreeMap<TaskId, SubmittedTask>,
    rejected: u64,
    completed: u64,
    crashes: u64,
    reboots: u64,
    /// Elastic-tier samples taken at every dispatch tick (plus one final
    /// post-drain sample from `summarize`).
    cloud_series: Vec<CloudSample>,
}

impl ScenarioWorld<'_> {
    /// Takes the reports of the tasks completed since the last call,
    /// keeping only each one's final accuracy.
    fn take_reports(&mut self) {
        for (id, report) in self.platform.take_reports() {
            if let Some(task) = self.tasks.get_mut(&id) {
                task.final_accuracy = Some(report.final_accuracy());
            }
        }
    }

    /// Samples the elastic tier at `now` into the cloud time series.
    fn sample_cloud(&mut self, now: SimInstant) {
        let stats = self.platform.cluster().stats();
        self.cloud_series.push(CloudSample {
            t_secs: now.duration_since(SimInstant::EPOCH).as_secs_f64(),
            nodes: stats.nodes,
            ready: stats.ready,
            utilization: stats.utilization,
            cost: stats.cost_accrued,
        });
    }
}

impl World for ScenarioWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut EngineCtx<'_, Ev>, event: Ev) {
        match event {
            Ev::Arrival(id) => {
                // Bring the platform up to the arrival instant with the
                // same tie discipline as `run_from_source`: completions
                // strictly before now run normally, completions at
                // exactly now only release their leases — the post-submit
                // pass sees freed capacity and the new task together, so
                // priority decides a completion-vs-arrival tie. Unlike
                // `run_from_source`, every arrival gets its own pass: two
                // arrivals at one instant are admitted in sampling order.
                self.completed += self.platform.sync_to_arrival(ctx.now()) as u64;
                let spec = self.template.instantiate(id, &mut self.template_rng);
                match self.platform.submit(spec, Arc::clone(&self.dataset)) {
                    Ok(_) => {
                        let task = SubmittedTask {
                            arrival: ctx.now(),
                            final_accuracy: None,
                        };
                        self.tasks.insert(id, task);
                    }
                    Err(_) => self.rejected += 1,
                }
                self.platform.admit_now();
                self.take_reports();
            }
            Ev::Fleet(FleetEvent::Crash(id)) => {
                // The manager re-indexes the phone as it writes, so the
                // crash lands in the availability index the instant it
                // fires.
                let phones = self.platform.phones_mut();
                if phones.phone(id).is_some_and(|p| !p.is_crashed(ctx.now())) {
                    phones
                        .inject_crash(id, ctx.now())
                        .expect("victim exists in the fleet");
                    self.crashes += 1;
                    ctx.schedule_in(self.reboot_after, Ev::Fleet(FleetEvent::Reboot(id)));
                }
            }
            Ev::Fleet(FleetEvent::Reboot(id)) => {
                let phones = self.platform.phones_mut();
                if phones.phone(id).is_some_and(|p| p.is_crashed(ctx.now())) {
                    phones.reboot(id).expect("crashed phone exists");
                    self.reboots += 1;
                }
            }
            Ev::Dispatch => {
                // Pace the platform's completion events up to now; while
                // anything else (arrivals, crashes, reboots) is still on
                // the outer timeline, never run ahead of it. The tick with
                // an empty outer queue is the final drain.
                if ctx.pending() > 0 {
                    self.completed += self.platform.run_until(ctx.now()) as u64;
                    self.sample_cloud(ctx.now());
                    ctx.schedule_in(self.dispatch_interval, Ev::Dispatch);
                } else {
                    self.platform.advance_clock_to(ctx.now());
                    self.completed += self.platform.run_until_idle() as u64;
                    // No sample here: `summarize` takes the one post-drain
                    // sample, so the series does not end on a duplicate.
                }
                self.take_reports();
            }
        }
    }
}

/// One sample of the elastic cloud tier on the scenario timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloudSample {
    /// Virtual offset from the scenario start, seconds.
    pub t_secs: f64,
    /// Physical nodes (booting + ready + draining).
    pub nodes: u64,
    /// Nodes up and accepting placements.
    pub ready: u64,
    /// Ready-capacity CPU utilization, `[0, 1]`.
    pub utilization: f64,
    /// Cumulative node-time spend so far.
    pub cost: f64,
}

/// The elastic tier's story of one scenario run: lifecycle counters, the
/// final bill and the node-count/utilization/cost time series — the
/// `cloud` block of each summary `simdc-bench scenarios` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudSummary {
    /// Largest physical footprint the pool ever reached.
    pub peak_nodes: u64,
    /// Ready nodes after the run drained.
    pub final_ready: u64,
    /// Nodes ever booted (including the initial set).
    pub nodes_booted: u64,
    /// Nodes ever retired.
    pub nodes_retired: u64,
    /// Node-ready events the platform processed (scale-up wake-ups).
    pub node_ready_events: u64,
    /// Total node-time spend.
    pub cost_total: f64,
    /// Samples taken at every dispatch tick plus one after the drain.
    pub series: Vec<CloudSample>,
}

/// Aggregated outcome of one scenario run — everything the summary JSON
/// contains. Field order is fixed, so same-seed runs serialize to
/// byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run derived every stream from.
    pub seed: u64,
    /// Arrival horizon in seconds.
    pub horizon_secs: f64,
    /// Sampled arrivals within the horizon.
    pub arrivals: u64,
    /// Tasks accepted into the queue.
    pub submitted: u64,
    /// Tasks rejected at submission.
    pub rejected: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks that terminally failed (starved or crashed substrate).
    pub failed: u64,
    /// Phone crashes injected.
    pub crashes: u64,
    /// Phone reboots executed.
    pub reboots: u64,
    /// Phones slowed at scenario start.
    pub stragglers: u64,
    /// Discrete events processed: outer engine events (arrivals, fleet
    /// perturbations, dispatch ticks) plus platform completion events —
    /// the numerator of `benchmark/`'s `events_per_s`.
    pub events: u64,
    /// Virtual end-to-end makespan (platform clock at drain), seconds.
    pub makespan_secs: f64,
    /// Mean queueing delay (submission → start) of completed tasks,
    /// seconds.
    pub mean_wait_secs: f64,
    /// Worst queueing delay, seconds.
    pub max_wait_secs: f64,
    /// Mean execution span (start → finish) of completed tasks, seconds.
    pub mean_run_secs: f64,
    /// Mean final-round test accuracy across completed tasks.
    pub mean_final_accuracy: f64,
    /// First arrival offsets (seconds) — a compact fingerprint proving
    /// different seeds yield different workloads.
    pub arrival_preview_secs: Vec<f64>,
    /// The elastic cloud tier's node/cost/utilization story.
    pub cloud: CloudSummary,
}

fn summarize(
    scenario: &Scenario,
    seed: u64,
    offsets: &[SimDuration],
    mut world: ScenarioWorld<'_>,
    stragglers: u64,
    outer_events: u64,
) -> (ScenarioSummary, Platform) {
    // Flush the final partial node-hour before the last sample: a run
    // ending mid-hour must still bill its tail, so `cost_total` always
    // equals billed node-seconds × the hourly rate.
    world.platform.finalize_cost();
    // One final post-drain sample, so the series always ends on the
    // settled state (surplus nodes drained or still paying cooldown).
    world.sample_cloud(world.platform.status().now);
    let cluster_stats = world.platform.cluster().stats();
    let cloud = CloudSummary {
        peak_nodes: cluster_stats.peak_nodes,
        final_ready: cluster_stats.ready,
        nodes_booted: cluster_stats.booted_total,
        nodes_retired: cluster_stats.retired_total,
        node_ready_events: world.platform.cluster_events(),
        cost_total: cluster_stats.cost_accrued,
        series: std::mem::take(&mut world.cloud_series),
    };
    let mut waits: Vec<f64> = Vec::new();
    let mut runs: Vec<f64> = Vec::new();
    let mut accuracies: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    for (id, task) in &world.tasks {
        match world.platform.task_state(*id) {
            Some(TaskState::Completed {
                started_at,
                finished_at,
            }) => {
                waits.push(
                    started_at
                        .saturating_duration_since(task.arrival)
                        .as_secs_f64(),
                );
                runs.push(finished_at.duration_since(*started_at).as_secs_f64());
                accuracies.extend(task.final_accuracy);
            }
            Some(TaskState::Failed { .. }) => failed += 1,
            // A drained run leaves nothing pending/running; count any
            // leftovers as failures rather than hiding them.
            _ => failed += 1,
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let summary = ScenarioSummary {
        scenario: scenario.name.clone(),
        seed,
        horizon_secs: scenario.horizon.as_secs_f64(),
        arrivals: offsets.len() as u64,
        submitted: world.tasks.len() as u64,
        rejected: world.rejected,
        completed: world.completed,
        failed,
        crashes: world.crashes,
        reboots: world.reboots,
        stragglers,
        events: outer_events + world.platform.completion_events() + world.platform.cluster_events(),
        makespan_secs: world
            .platform
            .status()
            .now
            .duration_since(SimInstant::EPOCH)
            .as_secs_f64(),
        mean_wait_secs: mean(&waits),
        max_wait_secs: waits.iter().copied().fold(0.0, f64::max),
        mean_run_secs: mean(&runs),
        mean_final_accuracy: mean(&accuracies),
        arrival_preview_secs: offsets.iter().take(8).map(|d| d.as_secs_f64()).collect(),
        cloud,
    };
    (summary, world.platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{library, scenario_names, ScenarioSpec};
    use simdc_data::GeneratorConfig;
    use simdc_phone::FleetSpec;

    fn dataset() -> Arc<CtrDataset> {
        Arc::new(CtrDataset::generate(&GeneratorConfig {
            n_devices: 40,
            n_test_devices: 8,
            mean_records_per_device: 15.0,
            feature_dim: 1 << 12,
            seed: 55,
            ..GeneratorConfig::default()
        }))
    }

    /// A library scenario by name, re-seeded.
    fn spec(name: &str, seed: u64) -> ScenarioSpec {
        let mut spec = crate::scenario(name).unwrap();
        spec.seed = seed;
        spec
    }

    /// `mega_fleet` at test size: a 3-minute horizon over 1,500 phones.
    fn small_mega_fleet() -> ScenarioSpec {
        let mut spec = spec("mega_fleet", 21).with_horizon_scale(0.1);
        spec.fleet = FleetSpec::scaled_paper(1_500);
        spec
    }

    fn tiny(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            description: "test".into(),
            horizon: SimDuration::from_mins(6),
            dispatch_interval: SimDuration::from_mins(2),
            arrivals: ArrivalProcess::Poisson { rate_per_min: 0.5 },
            template: TaskTemplate {
                rounds: (1, 2),
                devices_per_grade: (6, 12),
                ..TaskTemplate::default()
            },
            fleet: FleetDynamics::calm(),
            cluster: None,
        }
    }

    #[test]
    fn run_is_seed_deterministic_to_the_byte() {
        let scenario = tiny("determinism");
        let data = dataset();
        let a = scenario.run(PlatformConfig::default(), &data, 42);
        let b = scenario.run(PlatformConfig::default(), &data, 42);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn different_seeds_change_the_arrivals() {
        let scenario = tiny("seeds");
        let data = dataset();
        let a = scenario.run(PlatformConfig::default(), &data, 1);
        let b = scenario.run(PlatformConfig::default(), &data, 2);
        assert_ne!(
            a.arrival_preview_secs, b.arrival_preview_secs,
            "seed must steer the arrival process"
        );
    }

    #[test]
    fn tasks_arrive_queue_and_complete() {
        let scenario = tiny("lifecycle");
        let data = dataset();
        let summary = scenario.run(PlatformConfig::default(), &data, 9);
        assert!(summary.arrivals > 0, "horizon long enough for arrivals");
        assert_eq!(summary.submitted, summary.arrivals);
        assert_eq!(summary.completed + summary.failed, summary.submitted);
        assert!(summary.completed > 0);
        assert!(summary.makespan_secs > 0.0);
        assert!(summary.mean_run_secs > 0.0);
        assert!(summary.mean_final_accuracy > 0.4);
    }

    #[test]
    fn churn_injects_and_recovers_phones() {
        let mut scenario = tiny("churny");
        scenario.fleet = FleetDynamics {
            mean_time_between_crashes: Some(SimDuration::from_mins(1)),
            reboot_after: SimDuration::from_mins(1),
            ..FleetDynamics::calm()
        };
        let data = dataset();
        let summary = scenario.run(PlatformConfig::default(), &data, 3);
        assert!(summary.crashes > 0, "{summary:?}");
        assert!(summary.reboots > 0, "{summary:?}");
        assert!(summary.reboots <= summary.crashes);
    }

    #[test]
    fn straggler_scenario_slows_execution() {
        // Same name + seed ⇒ identical arrivals and task specs; only the
        // fleet differs, so the run-time delta is the straggler effect.
        let calm = tiny("paired");
        let mut slow = tiny("paired");
        slow.fleet = FleetDynamics {
            straggler_frac: 1.0,
            straggler_slowdown: 3.0,
            ..FleetDynamics::calm()
        };
        // Force phone participation — fully logical tasks would never see
        // the slowed phones.
        let half_on_phones = simdc_core::AllocationPolicy::FixedLogicalFraction(0.5);
        let calm = Scenario {
            template: TaskTemplate {
                allocation: half_on_phones,
                ..calm.template
            },
            ..calm
        };
        let slow = Scenario {
            template: TaskTemplate {
                allocation: half_on_phones,
                ..slow.template
            },
            ..slow
        };
        let data = dataset();
        let fast = calm.run(PlatformConfig::default(), &data, 17);
        let slowed = slow.run(PlatformConfig::default(), &data, 17);
        assert_eq!(slowed.stragglers, 30);
        assert!(
            slowed.mean_run_secs > fast.mean_run_secs,
            "stragglers must stretch task execution: {} vs {}",
            slowed.mean_run_secs,
            fast.mean_run_secs
        );
    }

    #[test]
    fn mega_fleet_is_byte_deterministic_over_a_scaled_fleet() {
        let scenario = small_mega_fleet().compile().unwrap();
        let data = dataset();
        let a = scenario.run(&data);
        let b = scenario.run(&data);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed over a 1500-phone fleet must be byte-identical"
        );
        assert!(a.submitted > 0, "{a:?}");
        assert!(a.completed > 0, "{a:?}");
        assert!(a.crashes > 0, "churn must fire at this horizon: {a:?}");
        // Every arrival, perturbation and completion is an event.
        assert!(a.events > a.arrivals + a.completed, "{a:?}");
    }

    /// The tentpole acceptance check: one `cloud_surge` run scales the
    /// node count up during the burst and back down afterwards, asserted
    /// on the emitted time series — and blocked placements waited for
    /// capacity instead of failing.
    #[test]
    fn cloud_surge_scales_up_then_back_down_within_one_run() {
        let data = dataset();
        let summary = spec("cloud_surge", 5).compile().unwrap().run(&data);
        assert!(summary.submitted > 0, "{summary:?}");
        assert_eq!(
            summary.completed + summary.failed,
            summary.submitted,
            "{summary:?}"
        );
        assert_eq!(summary.failed, 0, "blocked placement must wait, not fail");

        let cloud = &summary.cloud;
        let first = cloud.series.first().expect("series sampled");
        let peak_in_series = cloud.series.iter().map(|s| s.nodes).max().unwrap();
        let last = cloud.series.last().unwrap();
        assert!(
            peak_in_series > first.nodes,
            "burst must scale the pool out: {cloud:?}"
        );
        assert!(
            last.ready < peak_in_series,
            "quiet tail must scale back in: {cloud:?}"
        );
        assert_eq!(cloud.peak_nodes, peak_in_series);
        assert!(cloud.nodes_retired > 0, "drained nodes retired: {cloud:?}");
        assert!(cloud.node_ready_events > 0, "scale-ups woke the scheduler");
        assert!(cloud.cost_total > 0.0);
        // Cost is monotone along the series.
        for pair in cloud.series.windows(2) {
            assert!(pair[1].cost >= pair[0].cost);
        }
        // Some task actually waited on capacity (queueing is visible).
        assert!(summary.max_wait_secs > 0.0, "{summary:?}");
    }

    #[test]
    fn cloud_surge_is_byte_deterministic() {
        let scenario = spec("cloud_surge", 42).compile().unwrap();
        let data = dataset();
        let a = scenario.run(&data);
        let b = scenario.run(&data);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must replay the elastic tier byte for byte"
        );
    }

    #[test]
    fn budget_cap_bounds_node_count_in_the_series() {
        let data = dataset();
        let (summary, platform) = spec("budget_capped", 5)
            .compile()
            .unwrap()
            .run_detailed(&data);
        assert!(summary.submitted > 0);
        // Cost reconciliation: the reported total equals billed
        // node-seconds × the hourly rate within one float rounding step —
        // in particular the final partial node-hour is billed, not
        // dropped at the last whole-hour boundary.
        let rate = platform.cluster().cost().node_hourly_cost;
        let expected = platform.cluster().node_seconds() * rate / 3_600.0;
        assert!(
            (summary.cloud.cost_total - expected).abs() <= 1e-9 * expected.max(1.0),
            "cost_total {} must reconcile with node-seconds pricing {}",
            summary.cloud.cost_total,
            expected
        );
        assert!(
            summary.cloud.cost_total > 0.0,
            "the pool was up for the whole horizon"
        );
        for sample in &summary.cloud.series {
            assert!(
                sample.nodes <= 6,
                "budget allows at most 6 nodes: {sample:?}"
            );
        }
        assert_eq!(summary.cloud.peak_nodes.max(6), 6, "{:?}", summary.cloud);
        // The capped pool pays with queueing: the same traffic waits at
        // least as long as under the uncapped autoscaler.
        let uncapped = spec("cloud_surge", 5).compile().unwrap().run(&data);
        assert!(
            summary.mean_wait_secs >= uncapped.mean_wait_secs,
            "cap {} vs uncapped {}",
            summary.mean_wait_secs,
            uncapped.mean_wait_secs
        );
    }

    #[test]
    fn library_scenarios_validate() {
        let names: Vec<&str> = scenario_names().collect();
        assert_eq!(names.len(), 9);
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate name");
        for name in &names {
            let spec = crate::scenario(name).unwrap();
            assert_eq!(spec.name, *name, "file stem and spec name must agree");
            spec.compile().unwrap();
        }
        // The suite is the first eight, in order; `mega_fleet` is by-name
        // only: its 100,000 phones are a release-build size.
        let lib = library();
        assert_eq!(
            lib.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            names[..8]
        );
        assert_eq!(names[8], "mega_fleet");
        assert_eq!(
            crate::scenario("mega_fleet").unwrap().fleet,
            FleetSpec::scaled_paper(100_000)
        );
        assert_eq!(
            crate::scenario("steady").unwrap_err().to_string(),
            format!(
                "invalid configuration: unknown scenario `steady` (known: {})",
                names.join(", ")
            )
        );
    }

    #[test]
    fn scaled_shrinks_horizon() {
        let mut spec = spec("steady_poisson", 7);
        spec.horizon = SimDuration::from_mins(6);
        let compiled = spec.with_horizon_scale(0.5).compile().unwrap();
        assert_eq!(compiled.scenario.horizon, SimDuration::from_mins(3));
    }
}
