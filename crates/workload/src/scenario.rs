//! The runnable form of a scenario and the loop that executes it.
//!
//! A [`Scenario`] composes an [`ArrivalProcess`], a [`TaskTemplate`] and
//! [`FleetDynamics`] over a time horizon; it is what a
//! [`crate::ScenarioSpec`] compiles to (the named scenarios themselves are
//! the JSON specs behind [`crate::library()`]). A run
//! ([`crate::CompiledScenario::run`]) pre-samples the arrival instants and
//! phone crashes from the platform seed, then walks both in firing order;
//! a [`simdc_simrt::EventQueue`] holds only what the run schedules itself
//! (reboots and dispatch ticks). A task's spec is instantiated when its
//! arrival fires, and a finished task leaves only its arrival instant,
//! final accuracy and terminal state behind.
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
use simdc_simrt::{EventQueue, RngStream};
use simdc_types::{PhoneId, Result, SimDuration, SimInstant, SimdcError, TaskId};

use crate::arrival::ArrivalProcess;
use crate::fleet::{FleetDynamics, FleetEvent, MAX_EXPECTED_CRASHES};
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
    /// events along the outer timeline (admission itself runs at arrival
    /// and completion instants, not per dispatch).
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
    /// Returns `InvalidConfig` for an empty name, zero horizon/interval,
    /// any invalid component, or a crash schedule expecting more than
    /// [`MAX_EXPECTED_CRASHES`] crashes over the horizon.
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
        self.fleet.validate()?;
        if let Some(mtbc) = self.fleet.mean_time_between_crashes {
            let expected = self.horizon.as_micros() / mtbc.as_micros();
            if expected > MAX_EXPECTED_CRASHES {
                return Err(InvalidConfig(format!(
                    "expected crashes (horizon / mean_time_between_crashes) must be at most \
                     {MAX_EXPECTED_CRASHES}, got {expected}"
                )));
            }
        }
        Ok(())
    }
}

/// Executes `scenario` against a fresh platform built from `config`, whose
/// seed also seeds the scenario's own streams, and returns the summary and
/// the drained platform.
///
/// The run takes each task's report as the task completes and keeps only
/// its final accuracy, so the platform handed back holds no reports; its
/// task states are intact.
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`].
pub(crate) fn run(
    scenario: &Scenario,
    mut config: PlatformConfig,
    dataset: &Arc<CtrDataset>,
) -> (ScenarioSummary, Platform) {
    scenario.validate().expect("scenario must be valid");
    let seed = config.seed;
    let mut rng = RngStream::named(seed, &format!("scenario/{}", scenario.name));
    if let Some(cluster) = &scenario.cluster {
        config.cluster = cluster.clone();
    }
    let mut platform = Platform::new(config);

    // Pre-sample every stochastic schedule from the seed.
    let offsets = scenario
        .arrivals
        .sample(scenario.horizon, &mut rng.fork("arrivals"));
    // Specs are instantiated as their arrivals fire, from this one stream:
    // offsets are non-decreasing and the loop submits tied arrivals in
    // sampling order before their one pass, so the draws come in id order.
    let template_rng = rng.fork("templates");
    let fleet = &scenario.fleet;
    let stragglers = fleet.apply_stragglers(platform.phones_mut(), &mut rng.fork("stragglers"));
    let crashes = fleet.sample_crashes(platform.phones(), scenario.horizon, &mut rng.fork("churn"));

    let mut run = ScenarioRun {
        scenario,
        platform,
        dataset: Arc::clone(dataset),
        template_rng,
        queue: EventQueue::new(),
        tasks: BTreeMap::new(),
        crashes: 0,
        reboots: 0,
        cloud_series: Vec::new(),
    };
    let outer_events = run.replay(&offsets, &crashes);
    summarize(scenario, seed, &offsets, run, stragglers, outer_events)
}

/// What a run schedules itself; arrivals and crashes stay in their vectors.
enum Ev {
    Reboot(PhoneId),
    Dispatch,
}

/// What a scenario run keeps of a submitted task.
struct SubmittedTask {
    arrival: SimInstant,
    /// Final-round test accuracy, once the task completed.
    final_accuracy: Option<f64>,
}

/// Platform + bookkeeping of one scenario run.
struct ScenarioRun<'a> {
    scenario: &'a Scenario,
    platform: Platform,
    dataset: Arc<CtrDataset>,
    template_rng: RngStream,
    queue: EventQueue<Ev>,
    /// Every submitted task by id; ascending id order is submission order.
    tasks: BTreeMap<TaskId, SubmittedTask>,
    crashes: u64,
    reboots: u64,
    /// Elastic-tier samples taken at every dispatch tick (plus one final
    /// post-drain sample from `summarize`).
    cloud_series: Vec<CloudSample>,
}

impl ScenarioRun<'_> {
    /// Walks the sampled arrivals and crashes and the queued reboots and
    /// ticks in firing order; at one instant arrivals go first, then
    /// crashes, then the queue in push order. Returns the items handled.
    fn replay(&mut self, offsets: &[SimDuration], crashes: &[(SimDuration, FleetEvent)]) -> u64 {
        let at = |offset: &SimDuration| SimInstant::EPOCH + *offset;
        let mut arrivals = offsets.iter().map(at).enumerate().peekable();
        let mut crashes = crashes.iter().map(|(t, e)| (at(t), *e)).peekable();
        self.queue
            .push(at(&self.scenario.dispatch_interval), Ev::Dispatch);
        let mut handled = 0;
        loop {
            let sampled = [arrivals.peek().map(|a| a.1), crashes.peek().map(|c| c.0)];
            let queued = self.queue.peek_time();
            let Some(now) = sampled.into_iter().chain([queued]).flatten().min() else {
                return handled;
            };
            handled += 1;
            if let Some((i, _)) = arrivals.next_if(|a| a.1 == now) {
                // Completions at exactly now only release their leases; one
                // pass then sees them and every arrival due now, so priority
                // decides the tie (ARCHITECTURE.md, "The tie discipline").
                self.platform.sync_to_arrival(now);
                self.submit(now, TaskId(i as u64 + 1));
                while let Some((i, _)) = arrivals.next_if(|a| a.1 == now) {
                    handled += 1;
                    self.submit(now, TaskId(i as u64 + 1));
                }
                self.platform.admit_now();
                self.take_reports();
            } else if let Some((_, event)) = crashes.next_if(|c| c.0 == now) {
                match event {
                    FleetEvent::Crash(id) => self.crash(now, id),
                    FleetEvent::Reboot(id) => self.reboot(now, id),
                }
            } else if let Some((_, event)) = self.queue.pop() {
                match event {
                    Ev::Reboot(id) => self.reboot(now, id),
                    Ev::Dispatch => self.dispatch(now, arrivals.len() + crashes.len() > 0),
                }
            }
        }
    }

    /// Instantiates task `id`'s spec and submits it, arriving at `now`.
    fn submit(&mut self, now: SimInstant, id: TaskId) {
        let template = &self.scenario.template;
        let spec = template.instantiate(id, &mut self.template_rng);
        let dataset = Arc::clone(&self.dataset);
        if self.platform.submit(spec, dataset).is_ok() {
            let task = SubmittedTask {
                arrival: now,
                final_accuracy: None,
            };
            self.tasks.insert(id, task);
        }
    }

    /// Crashes phone `id` if it is up and schedules its reboot; a reboot
    /// past the end of time never comes, so the phone stays down.
    fn crash(&mut self, now: SimInstant, id: PhoneId) {
        let phones = self.platform.phones_mut();
        let up = phones.phone(id).is_some_and(|p| !p.is_crashed(now));
        if up && phones.inject_crash(id, now).is_ok() {
            self.crashes += 1;
            let reboot_after = self.scenario.fleet.reboot_after.as_micros();
            let back = now.as_micros().checked_add(reboot_after);
            if let Some(back) = back.map(SimInstant::from_micros) {
                self.queue.push(back, Ev::Reboot(id));
            }
        }
    }

    /// Reboots phone `id` if it is down.
    fn reboot(&mut self, now: SimInstant, id: PhoneId) {
        let phones = self.platform.phones_mut();
        if phones.phone(id).is_some_and(|p| p.is_crashed(now)) && phones.reboot(id).is_ok() {
            self.reboots += 1;
        }
    }

    /// Runs the platform up to `now` and schedules the next tick while the
    /// sampled `streams` or the queue hold more, else drains the platform.
    fn dispatch(&mut self, now: SimInstant, streams: bool) {
        if streams || !self.queue.is_empty() {
            self.platform.run_until(now);
            self.sample_cloud(now);
            let next = now + self.scenario.dispatch_interval;
            self.queue.push(next, Ev::Dispatch);
        } else {
            // `summarize` takes the one post-drain sample.
            self.platform.advance_clock_to(now);
            self.platform.run_until_idle();
        }
        self.take_reports();
    }

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
    mut run: ScenarioRun<'_>,
    stragglers: u64,
    outer_events: u64,
) -> (ScenarioSummary, Platform) {
    // Flush the final partial node-hour before the last sample: a run
    // ending mid-hour must still bill its tail, so `cost_total` always
    // equals billed node-seconds × the hourly rate.
    run.platform.finalize_cost();
    // One final post-drain sample, so the series always ends on the
    // settled state (surplus nodes drained or still paying cooldown).
    run.sample_cloud(run.platform.status().now);
    let cluster_stats = run.platform.cluster().stats();
    let cloud = CloudSummary {
        peak_nodes: cluster_stats.peak_nodes,
        final_ready: cluster_stats.ready,
        nodes_booted: cluster_stats.booted_total,
        nodes_retired: cluster_stats.retired_total,
        node_ready_events: run.platform.cluster_events(),
        cost_total: cluster_stats.cost_accrued,
        series: std::mem::take(&mut run.cloud_series),
    };
    let mut waits: Vec<f64> = Vec::new();
    let mut runs: Vec<f64> = Vec::new();
    let mut accuracies: Vec<f64> = Vec::new();
    let (mut completed, mut failed) = (0u64, 0u64);
    for (id, task) in &run.tasks {
        match run.platform.task_state(*id) {
            Some(TaskState::Completed {
                started_at,
                finished_at,
            }) => {
                completed += 1;
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
        submitted: run.tasks.len() as u64,
        // Every arrival is submitted once; what the platform refused is
        // what the task map lacks.
        rejected: (offsets.len() - run.tasks.len()) as u64,
        completed,
        failed,
        crashes: run.crashes,
        reboots: run.reboots,
        stragglers,
        events: outer_events + run.platform.completion_events() + run.platform.cluster_events(),
        makespan_secs: run
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
    (summary, run.platform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{library, scenario_names, ScenarioSpec};
    use simdc_data::GeneratorConfig;
    use simdc_phone::FleetSpec;
    use simdc_simrt::{Engine, EngineCtx, World};

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

    /// Runs `scenario` on the default platform under `seed`.
    fn run_seeded(scenario: &Scenario, dataset: &Arc<CtrDataset>, seed: u64) -> ScenarioSummary {
        let config = PlatformConfig {
            seed,
            ..PlatformConfig::default()
        };
        run(scenario, config, dataset).0
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
        let a = run_seeded(&scenario, &data, 42);
        let b = run_seeded(&scenario, &data, 42);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn different_seeds_change_the_arrivals() {
        let scenario = tiny("seeds");
        let data = dataset();
        let a = run_seeded(&scenario, &data, 1);
        let b = run_seeded(&scenario, &data, 2);
        assert_ne!(
            a.arrival_preview_secs, b.arrival_preview_secs,
            "seed must steer the arrival process"
        );
    }

    #[test]
    fn tasks_arrive_queue_and_complete() {
        let scenario = tiny("lifecycle");
        let data = dataset();
        let summary = run_seeded(&scenario, &data, 9);
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
        let summary = run_seeded(&scenario, &data, 3);
        assert!(summary.crashes > 0, "{summary:?}");
        assert!(summary.reboots > 0, "{summary:?}");
        assert!(summary.reboots <= summary.crashes);
    }

    /// The engine-driven reference for the loop's same-instant order: every
    /// arrival, then every crash, then the first tick pre-scheduled into a
    /// `simrt::Engine`, each event handled by the run's own methods.
    struct Reference<'a>(ScenarioRun<'a>);

    enum RefEv {
        Arrival(TaskId),
        Fleet(FleetEvent),
        Queued(Ev),
    }

    impl World for Reference<'_> {
        type Event = RefEv;

        fn handle(&mut self, ctx: &mut EngineCtx<'_, RefEv>, event: RefEv) {
            let (run, now) = (&mut self.0, ctx.now());
            match event {
                RefEv::Arrival(id) => {
                    run.platform.sync_to_arrival(now);
                    run.submit(now, id);
                    run.platform.admit_now();
                    run.take_reports();
                }
                RefEv::Fleet(FleetEvent::Crash(id)) => run.crash(now, id),
                RefEv::Fleet(FleetEvent::Reboot(id)) | RefEv::Queued(Ev::Reboot(id)) => {
                    run.reboot(now, id);
                }
                RefEv::Queued(Ev::Dispatch) => run.dispatch(now, ctx.pending() > 0),
            }
            // Hand what the handler scheduled to the engine.
            while let Some((at, event)) = run.queue.pop() {
                ctx.schedule_at(at, RefEv::Queued(event));
            }
        }
    }

    fn fresh_run<'a>(scenario: &'a Scenario, dataset: &Arc<CtrDataset>) -> ScenarioRun<'a> {
        ScenarioRun {
            scenario,
            platform: Platform::new(PlatformConfig::default()),
            dataset: Arc::clone(dataset),
            template_rng: RngStream::named(8, "templates"),
            queue: EventQueue::new(),
            tasks: BTreeMap::new(),
            crashes: 0,
            reboots: 0,
            cloud_series: Vec::new(),
        }
    }

    /// Sampled instants are random microseconds, so no fixture ties; this
    /// schedule ties on purpose. At the first tick an arrival that needs a
    /// benchmark phone meets the crash of every phone; one tick later
    /// (`reboot_after` is the tick) a second arrival, phone 0's second
    /// crash, the tick and all the reboots meet.
    #[test]
    fn same_instant_order_matches_the_engine_reference() {
        let mut scenario = tiny("ties");
        scenario.template.allocation = simdc_core::AllocationPolicy::FixedLogicalFraction(0.5);
        scenario.template.benchmark_phones = 1;
        scenario.fleet.reboot_after = scenario.dispatch_interval;
        let (tick, second) = (SimDuration::from_mins(2), SimDuration::from_mins(4));
        assert_eq!(scenario.dispatch_interval, tick);
        let data = dataset();
        let offsets = [tick, second];
        let phones = fresh_run(&scenario, &data).platform.phones().total() as u32;
        let mut crashes: Vec<_> = (0..phones)
            .map(|id| (tick, FleetEvent::Crash(PhoneId(id))))
            .collect();
        crashes.push((second, FleetEvent::Crash(PhoneId(0))));

        let mut run = fresh_run(&scenario, &data);
        let handled = run.replay(&offsets, &crashes);
        let (looped, _) = summarize(&scenario, 8, &offsets, run, 0, handled);

        let mut engine = Engine::new(Reference(fresh_run(&scenario, &data)));
        for (i, offset) in offsets.iter().enumerate() {
            engine.schedule_in(*offset, RefEv::Arrival(TaskId(i as u64 + 1)));
        }
        for (offset, event) in &crashes {
            engine.schedule_in(*offset, RefEv::Fleet(*event));
        }
        engine.schedule_in(tick, RefEv::Queued(Ev::Dispatch));
        let handled = engine.run();
        let run = engine.into_world().0;
        let (reference, _) = summarize(&scenario, 8, &offsets, run, 0, handled);

        assert_eq!(
            serde_json::to_string(&looped).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        // The first task binds its benchmark phone before the crashes; the
        // second arrives before the reboots and finds none. Phone 0's second
        // crash also lands before its reboot, so it is a no-op.
        assert_eq!((looped.completed, looped.failed), (1, 1), "{looped:?}");
        let crashed = u64::from(phones);
        assert_eq!((looped.crashes, looped.reboots), (crashed, crashed));
    }

    /// Two arrivals at one instant, and only one of their claims fits: one
    /// pass sees both, so the higher-priority one starts at the tie even
    /// though it was sampled second, and the other waits for its lease.
    #[test]
    fn tied_arrivals_admit_by_priority() {
        let mut scenario = tiny("tie");
        scenario.template.both_grades_prob = 0.0;
        // `fresh_run`'s template stream draws priorities 0 then 2.
        scenario.template.priority_levels = 3;
        scenario.template.high.unit_bundles = 150;
        scenario.template.low.unit_bundles = 150;
        let data = dataset();
        let mut rng = RngStream::named(8, "templates");
        let [first, second] =
            [1, 2].map(|id| scenario.template.instantiate(TaskId(id), &mut rng).priority);
        assert!(second > first, "priorities {first} then {second}");

        let tie = SimDuration::from_secs(30);
        // A no-op reboot keeps the first tick from being the final drain,
        // which would start the waiting task at the tick, not at the
        // completion that frees it.
        let later = (SimDuration::from_mins(5), FleetEvent::Reboot(PhoneId(0)));
        let mut run = fresh_run(&scenario, &data);
        run.replay(&[tie, tie], &[later]);
        let span = |id| match run.platform.task_state(TaskId(id)) {
            Some(TaskState::Completed {
                started_at,
                finished_at,
            }) => (*started_at, *finished_at),
            other => panic!("task {id} not completed: {other:?}"),
        };
        let (high_start, high_finish) = span(2);
        assert_eq!(high_start, SimInstant::EPOCH + tie, "higher priority first");
        assert_eq!(span(1).0, high_finish, "lower priority waits for the lease");
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
        let fast = run_seeded(&calm, &data, 17);
        let slowed = run_seeded(&slow, &data, 17);
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
