//! Component probes: one public function of a layer called in a tight
//! loop at the sizes the workload runs it at, so a per-layer number exists
//! even where the traced run cannot put a span (inside `Platform`).
//!
//! Wider surface used than the scenario path: `TaskQueue::{new, submit}`,
//! `GreedyScheduler::{new, schedule}`, `scheduler::claim_for`,
//! `ResourceManager::{new, freeze, release}`, `TaskRunner::{new, execute}`,
//! `Storage::new`, `PhoneMgr::{with_fleet, select, inject_crash, reboot,
//! total, phones}`, `LogicalCluster::{new, actor_bundle, acquire_group, release_job,
//! can_place_all, advance_to, autoscale}`, `EventQueue::{new, push, pop}`,
//! `LocalTrainer::{new, train}`, `LrModel::zeros`, and the samplers of
//! `layers.rs`.

use std::hint::black_box;
use std::time::Instant;

use simdc_cluster::{ClusterConfig, LogicalCluster};
use simdc_core::scheduler::claim_for;
use simdc_core::{
    GreedyScheduler, ResourceManager, RunnerConfig, Storage, TaskQueue, TaskRunner, TaskSpec,
};
use simdc_data::CtrDataset;
use simdc_ml::{KernelKind, LocalTrainer, LrModel, TrainConfig};
use simdc_phone::PhoneMgr;
use simdc_simrt::{EventQueue, RngStream};
use simdc_types::{DeviceGrade, PerGrade, PhoneId, SimDuration, SimInstant, TaskId};
use simdc_workload::CompiledScenario;

use crate::stats::median;

/// Queue depth of the scheduler-pass probe.
const PASS_QUEUE_DEPTH: usize = 5_000;
/// Specs the plan + commit probe executes.
const PLAN_COMMIT_SPECS: usize = 200;
/// Batches every looped probe takes its median over.
const BATCHES: usize = 11;

/// Median over [`BATCHES`] batches of the time one call of `op` takes,
/// nanoseconds. `op` receives a running call index.
fn ns_per_call(calls_per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut call = 0usize;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..calls_per_batch {
            op(call);
            call += 1;
        }
        samples.push(started.elapsed().as_nanos() as f64 / calls_per_batch as f64);
    }
    median(&samples)
}

/// The stochastic schedules of a run, sampled exactly as
/// `Scenario::run_detailed` samples them (same stream labels, same fork
/// order), so probes see the run's own inputs.
struct Schedules {
    offsets: Vec<SimDuration>,
    specs: Vec<TaskSpec>,
    crash_offsets: Vec<SimDuration>,
}

fn schedules(compiled: &CompiledScenario, phones: &mut PhoneMgr) -> Schedules {
    let scenario = &compiled.scenario;
    let mut rng = RngStream::named(compiled.config.seed, &format!("scenario/{}", scenario.name));
    let offsets = scenario
        .arrivals
        .sample(scenario.horizon, &mut rng.fork("arrivals"));
    let mut template_rng = rng.fork("templates");
    let specs = (0..offsets.len().min(PASS_QUEUE_DEPTH))
        .map(|i| {
            scenario
                .template
                .instantiate(TaskId(i as u64 + 1), &mut template_rng)
        })
        .collect();
    scenario
        .fleet
        .apply_stragglers(phones, &mut rng.fork("stragglers"));
    let crash_offsets = scenario
        .fleet
        .sample_crashes(phones, scenario.horizon, &mut rng.fork("churn"))
        .into_iter()
        .map(|(offset, _)| offset)
        .collect();
    Schedules {
        offsets,
        specs,
        crash_offsets,
    }
}

/// Runs every probe for a scenario workload and returns
/// `(metric name, value)` pairs. `peak_nodes` is the pool size the run
/// reached, read from its summary.
///
/// # Errors
///
/// Returns a message when a probed call fails: a probe measures calls
/// that succeed.
pub fn run(
    compiled: &CompiledScenario,
    dataset: &CtrDataset,
    peak_nodes: usize,
) -> Result<Vec<(String, f64)>, String> {
    let scenario = &compiled.scenario;
    let config = &compiled.config;
    let mut out: Vec<(String, f64)> = Vec::new();

    // phone: fleet build, then reads and writes of the availability index.
    let started = Instant::now();
    let mut phones = PhoneMgr::with_fleet(config.fleet, config.poll_interval, config.seed);
    out.push(("phone.with_fleet_s".into(), started.elapsed().as_secs_f64()));
    let schedules = schedules(compiled, &mut phones);
    let now = SimInstant::EPOCH;
    let wanted = (scenario.template.high.phones as usize).max(1);
    let mut select_failure = None;
    let select_ns = ns_per_call(2_000, |_| {
        if let Err(e) = black_box(phones.select(DeviceGrade::High, wanted, now)) {
            select_failure = Some(e.to_string());
        }
    });
    if let Some(e) = select_failure {
        return Err(format!("phone.select probe: {e}"));
    }
    out.push(("phone.select_ns".into(), select_ns));
    let mut victim_rng = RngStream::named(config.seed, "probe/victims");
    let victims: Vec<PhoneId> = (0..4_096)
        .map(|_| phones.phones()[victim_rng.index(phones.total())].id())
        .collect();
    let mut write_failure = None;
    let crash_reboot_ns = ns_per_call(10_000, |call| {
        let id = victims[call % victims.len()];
        if let Err(e) = phones
            .inject_crash(id, now)
            .and_then(|()| phones.reboot(id))
        {
            write_failure = Some(e.to_string());
        }
    });
    if let Some(e) = write_failure {
        return Err(format!("phone.crash_reboot probe: {e}"));
    }
    out.push(("phone.crash_reboot_ns".into(), crash_reboot_ns));

    // core: one scheduling pass over a deep queue nothing of which fits.
    let mut queue = TaskQueue::new();
    for spec in &schedules.specs {
        queue
            .submit(spec.clone())
            .map_err(|e| format!("scheduler probe: {e}"))?;
    }
    let scheduler = GreedyScheduler::new();
    let mut empty = ResourceManager::new(0, PerGrade::new(0));
    let pass_ns = ns_per_call(3, |_| {
        black_box(scheduler.schedule(&queue, &mut empty));
    });
    out.push(("core.scheduler.pass_us".into(), pass_ns / 1e3));

    // core: one lease frozen and released.
    let claims: Vec<_> = schedules.specs.iter().map(claim_for).collect();
    let mut roomy = ResourceManager::new(u64::MAX / 2, PerGrade::new(u64::MAX / 2));
    let mut lease_failure = None;
    let freeze_release_ns = ns_per_call(10_000, |call| {
        let id = TaskId(call as u64);
        if let Err(e) = roomy.freeze(id, claims[call % claims.len()]) {
            lease_failure = Some(e.to_string());
        }
        black_box(roomy.release(id));
    });
    if let Some(e) = lease_failure {
        return Err(format!("freeze_release probe: {e}"));
    }
    out.push(("core.resources.freeze_release_ns".into(), freeze_release_ns));

    // core: plan + commit of the run's first tasks, an hour apart so each
    // finds the benchmark phones of the one before idle again.
    let cluster_config: ClusterConfig = scenario
        .cluster
        .clone()
        .unwrap_or_else(|| config.cluster.clone());
    let mut cluster = LogicalCluster::new(cluster_config.clone());
    let mut storage = Storage::new();
    let runner = TaskRunner::new(RunnerConfig::default());
    let mut plan_commit_us = Vec::new();
    for (i, spec) in schedules.specs.iter().take(PLAN_COMMIT_SPECS).enumerate() {
        let start = SimInstant::EPOCH + SimDuration::from_mins(60 * i as u64);
        cluster.advance_to(start);
        let started = Instant::now();
        let report = runner.execute(
            spec,
            dataset,
            &mut cluster,
            &mut phones,
            &mut storage,
            start,
        );
        plan_commit_us.push(started.elapsed().as_secs_f64() * 1e6);
        black_box(report.map_err(|e| format!("plan_commit probe, task {}: {e}", spec.id))?);
    }
    out.push(("core.runner.plan_commit_us".into(), median(&plan_commit_us)));

    // cluster: placement and autoscaling at the pool size the run reached.
    let nodes = peak_nodes.max(cluster_config.initial_nodes);
    let mut cluster = LogicalCluster::new(ClusterConfig {
        initial_nodes: nodes,
        max_nodes: nodes,
        ..cluster_config
    });
    let units_per_device = scenario.template.high.units_per_device.max(1);
    let bundle = cluster.actor_bundle(units_per_device);
    let actors = (scenario.template.high.unit_bundles / units_per_device).max(1);
    let mut placement_failure = None;
    let acquire_release_ns = ns_per_call(1_000, |_| {
        match cluster.acquire_group(bundle, actors as usize) {
            Ok(group) => {
                black_box(cluster.release_job(group));
            }
            Err(e) => placement_failure = Some(e.to_string()),
        }
    });
    if let Some(e) = placement_failure {
        return Err(format!("cluster.acquire_release probe: {e}"));
    }
    out.push((
        "cluster.acquire_release_us".into(),
        acquire_release_ns / 1e3,
    ));
    let requests = [(bundle, actors)];
    let can_place_ns = ns_per_call(2_000, |_| {
        black_box(cluster.can_place_all(&requests));
    });
    out.push(("cluster.can_place_all_ns".into(), can_place_ns));
    let advance_ns = ns_per_call(1_000, |call| {
        let at = SimInstant::EPOCH + SimDuration::from_secs(call as u64 + 1);
        cluster.advance_to(at);
        black_box(cluster.autoscale(actors * units_per_device, at));
    });
    out.push(("cluster.advance_autoscale_us".into(), advance_ns / 1e3));

    // simrt: the run's own event times through a bare queue.
    let times: Vec<SimInstant> = schedules
        .offsets
        .iter()
        .chain(&schedules.crash_offsets)
        .map(|offset| SimInstant::EPOCH + *offset)
        .collect();
    if !times.is_empty() {
        let queue_ns = ns_per_call(1, |_| {
            let mut queue: EventQueue<u32> = EventQueue::new();
            for (i, at) in times.iter().enumerate() {
                queue.push(*at, i as u32);
            }
            while let Some(event) = queue.pop() {
                black_box(event);
            }
        });
        out.push((
            "simrt.event_queue.ns_per_op".into(),
            queue_ns / (2 * times.len()) as f64,
        ));
    }

    // ml: local training of one device at the workload's feature_dim.
    let trainer = LocalTrainer::new(TrainConfig::default());
    let global = LrModel::zeros(dataset.feature_dim);
    let devices = &dataset.devices;
    let train_ns = ns_per_call(devices.len(), |call| {
        let shard = &devices[call % devices.len()].data;
        black_box(trainer.train(&global, shard, KernelKind::Server));
    });
    out.push(("ml.train_us_per_device".into(), train_ns / 1e3));
    Ok(out)
}
