//! The traced driver: `Scenario::run_detailed` rebuilt from public API
//! with a span around every call into a layer.
//!
//! The end-to-end path (`rep.rs`) touches only `ScenarioSpec::from_json_str`
//! → `compile` → `run_detailed` → `serde_json::to_string`. This replica
//! needs more, and a refactor of any of it must keep this file compiling:
//!
//! * `simrt`: `Engine::{new, schedule_in, run, into_world}`, `World`,
//!   `EngineCtx::{now, pending, schedule_in}`, `RngStream::{named, fork}`;
//! * `workload`: `ArrivalProcess::sample`, `TaskTemplate::instantiate`,
//!   `FleetDynamics::{apply_stragglers, sample_crashes}`, `FleetEvent`, and
//!   every public field of `Scenario`, `ScenarioSummary`, `CloudSummary`,
//!   `CloudSample`;
//! * `core`: `Platform::{new, phones, phones_mut, sync_to_arrival, submit,
//!   admit_now, run_until, advance_clock_to, run_until_idle, cluster,
//!   finalize_cost, status, cluster_events, completion_events, task_state,
//!   report}`, `TaskState`, `TaskReport::final_accuracy`;
//! * `phone`: `PhoneMgr::{phone, inject_crash, reboot}`,
//!   `PhoneDevice::is_crashed`; `cluster`: `LogicalCluster::stats`.
//!
//! The loop below must stay statement-for-statement the loop of
//! `crates/workload/src/scenario.rs`; the parity checks (every traced run
//! against its untraced twin, and `tests/parity.rs` over the scenario
//! fixtures) fail when it drifts.

use std::collections::BTreeMap;
use std::sync::Arc;

use simdc_core::{Platform, PlatformConfig, TaskSpec, TaskState};
use simdc_data::CtrDataset;
use simdc_simrt::{Engine, EngineCtx, RngStream, World};
use simdc_types::{SimDuration, SimInstant, TaskId};
use simdc_workload::{
    CloudSample, CloudSummary, CompiledScenario, FleetEvent, Scenario, ScenarioSummary,
};

use crate::spans::{Span, Tracer};

/// Name of the span that covers the whole traced run.
pub const ROOT_SPAN: &str = "run";
/// Name of the span around `Engine::run`; its self time is the engine's own
/// cost (queue pops, dispatch into the handler, the handler's glue).
pub const ENGINE_SPAN: &str = "simrt.engine_run";

/// Spans a run of `arrivals` tasks and `crashes` crash draws records, with
/// headroom; sizing the vector up front keeps reallocation out of the run.
#[must_use]
pub fn span_capacity(compiled: &CompiledScenario) -> usize {
    let scenario = &compiled.scenario;
    let minutes = scenario.horizon.as_secs_f64() / 60.0;
    let arrivals = scenario.arrivals.peak_rate_per_min() * minutes;
    let crashes = scenario.fleet.mean_time_between_crashes.map_or(0.0, |gap| {
        scenario.horizon.as_secs_f64() / gap.as_secs_f64()
    });
    let ticks = scenario.horizon.as_secs_f64() / scenario.dispatch_interval.as_secs_f64();
    // Three spans per arrival, two per crash (crash + reboot), one per tick.
    ((3.0 * arrivals + 2.0 * crashes + ticks) * 1.25) as usize + 64
}

enum Ev {
    Arrival(Box<TaskSpec>),
    Fleet(FleetEvent),
    Dispatch,
}

/// What `Platform::admit_now` returned over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitCounts {
    /// Tasks admitted by the post-arrival passes.
    pub admitted: u64,
    /// Most tasks one pass admitted.
    pub admitted_max: u64,
    /// Passes that admitted two or more tasks: at least one of them had
    /// waited for an earlier pass.
    pub passes_ge2: u64,
}

struct TracedWorld {
    tracer: Tracer,
    admits: AdmitCounts,
    platform: Platform,
    dataset: Arc<CtrDataset>,
    dispatch_interval: SimDuration,
    reboot_after: SimDuration,
    arrivals: BTreeMap<TaskId, SimInstant>,
    submitted: Vec<TaskId>,
    rejected: u64,
    completed: u64,
    crashes: u64,
    reboots: u64,
    cloud_series: Vec<CloudSample>,
}

impl TracedWorld {
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

impl World for TracedWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut EngineCtx<'_, Ev>, event: Ev) {
        match event {
            Ev::Arrival(spec) => {
                let id = spec.id;
                let span = self.tracer.enter("core.sync_to_arrival");
                self.completed += self.platform.sync_to_arrival(ctx.now()) as u64;
                self.tracer.exit(span);
                let span = self.tracer.enter("core.submit");
                let accepted = self.platform.submit(*spec, Arc::clone(&self.dataset));
                self.tracer.exit(span);
                match accepted {
                    Ok(_) => {
                        self.arrivals.insert(id, ctx.now());
                        self.submitted.push(id);
                    }
                    Err(_) => self.rejected += 1,
                }
                let span = self.tracer.enter("core.admit_now");
                let admitted = self.platform.admit_now() as u64;
                self.tracer.exit(span);
                self.admits.admitted += admitted;
                self.admits.admitted_max = self.admits.admitted_max.max(admitted);
                self.admits.passes_ge2 += u64::from(admitted >= 2);
            }
            Ev::Fleet(FleetEvent::Crash(id)) => {
                let phones = self.platform.phones_mut();
                if phones.phone(id).is_some_and(|p| !p.is_crashed(ctx.now())) {
                    let span = self.tracer.enter("phone.inject_crash");
                    let crashed = phones.inject_crash(id, ctx.now());
                    self.tracer.exit(span);
                    crashed.expect("victim exists in the fleet");
                    self.crashes += 1;
                    ctx.schedule_in(self.reboot_after, Ev::Fleet(FleetEvent::Reboot(id)));
                }
            }
            Ev::Fleet(FleetEvent::Reboot(id)) => {
                let phones = self.platform.phones_mut();
                if phones.phone(id).is_some_and(|p| p.is_crashed(ctx.now())) {
                    let span = self.tracer.enter("phone.reboot");
                    let rebooted = phones.reboot(id);
                    self.tracer.exit(span);
                    rebooted.expect("crashed phone exists");
                    self.reboots += 1;
                }
            }
            Ev::Dispatch => {
                if ctx.pending() > 0 {
                    let span = self.tracer.enter("core.run_until");
                    self.completed += self.platform.run_until(ctx.now()) as u64;
                    self.tracer.exit(span);
                    self.sample_cloud(ctx.now());
                    ctx.schedule_in(self.dispatch_interval, Ev::Dispatch);
                } else {
                    self.platform.advance_clock_to(ctx.now());
                    let span = self.tracer.enter("core.run_until_idle");
                    self.completed += self.platform.run_until_idle() as u64;
                    self.tracer.exit(span);
                }
            }
        }
    }
}

/// Result of a traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// The summary, field for field what `run_detailed` builds.
    pub summary: ScenarioSummary,
    /// The summary serialized inside the `workload.summarize` span.
    pub summary_json: String,
    /// The drained platform, for the invariant oracles.
    pub platform: Platform,
    /// Outer-engine events executed.
    pub outer_events: u64,
    /// `admit_now` return values.
    pub admits: AdmitCounts,
    /// The recorded spans in the order they were opened; the first is the
    /// [`ROOT_SPAN`].
    pub spans: Vec<Span>,
}

/// Runs `compiled` like `CompiledScenario::run_detailed` does, plus the
/// summary serialization, under the [`ROOT_SPAN`].
///
/// # Panics
///
/// Panics if the scenario fails validation; compiled scenarios never do.
#[must_use]
pub fn run_traced(
    compiled: &CompiledScenario,
    dataset: &Arc<CtrDataset>,
    mut tracer: Tracer,
) -> TracedRun {
    let scenario = &compiled.scenario;
    let seed = compiled.config.seed;
    let root = tracer.enter(ROOT_SPAN);
    scenario.validate().expect("scenario must be valid");
    let mut rng = RngStream::named(seed, &format!("scenario/{}", scenario.name));
    let mut config: PlatformConfig = compiled.config.clone();
    if let Some(cluster) = &scenario.cluster {
        config.cluster = cluster.clone();
    }
    let mut platform = tracer.span("core.platform_new", || Platform::new(config));

    let offsets = tracer.span("workload.arrivals_sample", || {
        scenario
            .arrivals
            .sample(scenario.horizon, &mut rng.fork("arrivals"))
    });
    let mut template_rng = rng.fork("templates");
    let specs: Vec<TaskSpec> = tracer.span("workload.template_instantiate", || {
        offsets
            .iter()
            .enumerate()
            .map(|(i, _)| {
                scenario
                    .template
                    .instantiate(TaskId(i as u64 + 1), &mut template_rng)
            })
            .collect()
    });
    let stragglers = tracer.span("workload.apply_stragglers", || {
        scenario
            .fleet
            .apply_stragglers(platform.phones_mut(), &mut rng.fork("stragglers"))
    });
    let crashes = tracer.span("workload.sample_crashes", || {
        scenario
            .fleet
            .sample_crashes(platform.phones(), scenario.horizon, &mut rng.fork("churn"))
    });

    let mut engine = Engine::new(TracedWorld {
        tracer,
        admits: AdmitCounts::default(),
        platform,
        dataset: Arc::clone(dataset),
        dispatch_interval: scenario.dispatch_interval,
        reboot_after: scenario.fleet.reboot_after,
        arrivals: BTreeMap::new(),
        submitted: Vec::new(),
        rejected: 0,
        completed: 0,
        crashes: 0,
        reboots: 0,
        cloud_series: Vec::new(),
    });
    let span = engine.world_mut().tracer.enter("simrt.schedule_initial");
    for (offset, spec) in offsets.iter().zip(specs) {
        engine.schedule_in(*offset, Ev::Arrival(Box::new(spec)));
    }
    for (offset, event) in &crashes {
        engine.schedule_in(*offset, Ev::Fleet(*event));
    }
    engine.schedule_in(scenario.dispatch_interval, Ev::Dispatch);
    engine.world_mut().tracer.exit(span);

    let span = engine.world_mut().tracer.enter(ENGINE_SPAN);
    let outer_events = engine.run();
    engine.world_mut().tracer.exit(span);

    let mut world = engine.into_world();
    let span = world.tracer.enter("workload.summarize");
    let (summary, mut world) = summarize(scenario, seed, &offsets, world, stragglers, outer_events);
    let summary_json =
        serde_json::to_string(&summary).expect("summary serialization is infallible");
    world.tracer.exit(span);
    world.tracer.exit(root);
    TracedRun {
        summary,
        summary_json,
        platform: world.platform,
        outer_events,
        admits: world.admits,
        spans: world.tracer.finish(),
    }
}

fn summarize(
    scenario: &Scenario,
    seed: u64,
    offsets: &[SimDuration],
    mut world: TracedWorld,
    stragglers: u64,
    outer_events: u64,
) -> (ScenarioSummary, TracedWorld) {
    world.platform.finalize_cost();
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
    for id in &world.submitted {
        match world.platform.task_state(*id) {
            Some(TaskState::Completed {
                started_at,
                finished_at,
            }) => {
                let arrival = world.arrivals[id];
                waits.push(started_at.saturating_duration_since(arrival).as_secs_f64());
                runs.push(finished_at.duration_since(*started_at).as_secs_f64());
                if let Some(report) = world.platform.report(*id) {
                    accuracies.push(report.final_accuracy());
                }
            }
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
        submitted: world.submitted.len() as u64,
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
    (summary, world)
}
