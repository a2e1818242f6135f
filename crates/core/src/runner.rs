//! The Task Runner: executes one task's multi-round load → train → upload
//! cycle over hybrid heterogeneous resources.
//!
//! Per round, the runner
//!
//! 1. splits each grade's devices between the logical cluster and the
//!    phone cluster according to the task's allocation,
//! 2. emits one update message per device at its virtual completion
//!    time — its sample count is the shard length and its charged size a
//!    function of the model dimension, so neither waits for training —
//!    and feeds the messages through DeviceFlow,
//! 3. lets the cloud trigger decide the aggregation instant and the
//!    messages that made it,
//! 4. trains only those devices, in inclusion order — server kernel on
//!    the cluster, mobile kernel on phones (the §VI-B.2 implementation
//!    split) — folding each update into FedAvg as it is fetched, and
//!    evaluates the new global model. Stragglers and dropped devices are
//!    never trained: nothing reads their updates.
//!
//! Round 0 always trains from the zero model, so its update depends only
//! on the shard, the kernel and the training config, and its global model
//! — hence its evaluation — only on the sequence of those updates in
//! inclusion order. A memo trains each such update once and scores each
//! such sequence once: per call of [`TaskRunner::execute`], and across
//! every task of one dataset on a [`crate::Platform`].
//!
//! Everything is deterministic given the task seed and start instant.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};

use serde::{Deserialize, Serialize};
use simdc_cluster::{JobSpec, LogicalCluster, PlacementGroupId};
use simdc_data::CtrDataset;
use simdc_deviceflow::{DeviceFlow, FlowHarness};
use simdc_ml::{evaluate, EvalMetrics, FedAvgFold, KernelKind, LocalTrainer, LocalUpdate, LrModel};
use simdc_phone::{PerfReport, PhoneMgr, PhoneProfile, RunPlan};
use simdc_simrt::RngStream;
use simdc_types::{
    DeviceId, Message, MessageId, PhoneId, Result, RoundId, SimDuration, SimInstant, SimdcError,
    StorageKey, TaskId,
};

use crate::alloc::{optimize, Allocation, GradeAllocParams, GradeAllocation};
use crate::cloud::{resolve_round, RoundOutcome, Storage};
use crate::spec::{AllocationPolicy, GradeRequirement, TaskSpec};

/// One round's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// The round.
    pub round: RoundId,
    /// Virtual round start.
    pub started_at: SimInstant,
    /// When the slowest device finished computing.
    pub compute_finished_at: SimInstant,
    /// When the cloud aggregated.
    pub aggregated_at: SimInstant,
    /// Whether the trigger fired (vs. round timeout).
    pub trigger_fired: bool,
    /// Updates included in the aggregate.
    pub included_updates: u64,
    /// Training samples behind the aggregate.
    pub included_samples: u64,
    /// Messages that arrived after aggregation.
    pub stragglers: u64,
    /// Messages lost to DeviceFlow dropout simulation.
    pub dropped_messages: u64,
    /// Sample-weighted mean training loss of included updates.
    pub train_loss: f64,
    /// Global-model metrics on the held-out test set after aggregation.
    pub eval: EvalMetrics,
}

/// A completed task's full report.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// The task.
    pub task: TaskId,
    /// Virtual start.
    pub started_at: SimInstant,
    /// Virtual completion (last aggregation or benchmark teardown).
    pub finished_at: SimInstant,
    /// Per-round outcomes.
    pub rounds: Vec<RoundReport>,
    /// The allocation used.
    pub allocation: Allocation,
    /// The final global model.
    pub final_model: LrModel,
    /// Benchmarking-phone measurement reports (Table I / Fig 5 data).
    pub benchmark_reports: Vec<PerfReport>,
}

impl TaskReport {
    /// Total virtual duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.finished_at.duration_since(self.started_at)
    }

    /// Final-round test accuracy (0 if no rounds ran).
    #[must_use]
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.eval.accuracy)
    }
}

/// Data payload each logical actor downloads per round, MiB (on top of the
/// serialized model).
const DATA_PAYLOAD_MIB: f64 = 4.0;

/// Tunables of the runner itself (not task-specific). It has none: every
/// task measures its benchmark phones. The type stays so that code which
/// calls `TaskRunner::new(RunnerConfig::default())` keeps compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig;

/// Executes tasks against borrowed substrates.
#[derive(Debug, Default)]
pub struct TaskRunner;

/// A planned task execution: the full per-round timeline computed at
/// admission time, with benchmark phones reserved but their measurements
/// not yet taken.
///
/// The event-driven platform plans a task when the scheduler admits it
/// ([`TaskRunner::plan_with`]) — fixing the task's completion instant,
/// `report.finished_at`, so it can be scheduled as an event — and calls
/// [`TaskRunner::commit`] when that event fires, which performs the
/// benchmark measurements and produces the final [`TaskReport`].
#[derive(Debug)]
pub(crate) struct TaskPlan {
    /// The report so far: every round, no benchmark measurement yet.
    pub(crate) report: TaskReport,
    /// The benchmark phones reserved for the task, in binding order.
    pub(crate) benchmark_phones: Vec<PhoneId>,
    /// Placement groups held on the logical cluster for this task's whole
    /// lifetime — the platform releases them at the completion event, so
    /// cloud capacity contention is real across concurrent tasks.
    pub(crate) groups: Vec<PlacementGroupId>,
}

/// Where one grade's devices run: logical devices on the grade's
/// placement group (`None` until acquired, and for a grade without logical
/// devices), phone devices in waves over the granted phones, and each
/// benchmark device on its own bound phone.
struct GradePlacement {
    logical_devices: Vec<DeviceId>,
    group: Option<PlacementGroupId>,
    phone_devices: Vec<DeviceId>,
    benchmark_devices: Vec<(DeviceId, PhoneId)>,
}

/// Bytes of evaluation keys a [`RoundZeroMemo`] holds; the oldest entry
/// goes first. The largest tasks of the committed specs include 64
/// devices, a 65-word (520-byte) key, so at least their last 63 round-0
/// outcomes stay held.
pub(crate) const EVALUATION_KEY_BYTES: usize = 32 * 1024;

/// Round 0's work, done once per distinct input:
///
/// - its updates, each trained once per (shard index, kernel, learning
///   rate bits, epochs): everything a round-0 training reads besides the
///   zero model every task starts from;
/// - its evaluations, each scored once per inclusion sequence: the
///   config plus each included device's (shard, kernel), in inclusion
///   order. Round 0 folds those memoised updates from the zero model in
///   that order, weighted by shard lengths, so the sequence fixes the
///   global model bit for bit, and with it the evaluation.
///
/// The entries are valid for one dataset; a platform binds its memo to
/// the dataset of each task it admits ([`RoundZeroMemo::bind`]), so the
/// memo holds at most shards × kernels × configs updates however long the
/// run, and the evaluations are evicted oldest first to stay within
/// [`EVALUATION_KEY_BYTES`] of keys.
#[derive(Debug, Default)]
pub(crate) struct RoundZeroMemo {
    /// The dataset the entries were trained on. A `Weak` keeps no dataset
    /// alive, yet while it is held the allocation cannot be reused, so
    /// pointer identity cannot mistake a new dataset for the old one.
    dataset: Weak<CtrDataset>,
    updates: BTreeMap<(usize, KernelKind, u32, u32), LocalUpdate>,
    /// Round-0 evaluations in insertion order, keyed by the config word
    /// (learning rate bits, epochs) and then one word per included device
    /// (`shard << 1 | kernel`).
    evaluations: VecDeque<(Box<[u64]>, EvalMetrics)>,
    /// Bytes of the keys in `evaluations`.
    key_bytes: usize,
}

impl RoundZeroMemo {
    /// Readies the memo for a task on `dataset`, dropping every entry
    /// made on another dataset.
    pub(crate) fn bind(&mut self, dataset: &Arc<CtrDataset>) {
        if !std::ptr::eq(self.dataset.as_ptr(), Arc::as_ptr(dataset)) {
            self.dataset = Arc::downgrade(dataset);
            self.updates.clear();
            self.evaluations.clear();
            self.key_bytes = 0;
        }
    }

    /// Updates held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.updates.len()
    }

    /// Evaluations held, and the bytes of their keys.
    #[cfg(test)]
    pub(crate) fn evaluations_held(&self) -> (usize, usize) {
        (self.evaluations.len(), self.key_bytes)
    }

    /// Round 0's evaluation of `global`, the model folded from the
    /// memoised updates of `inclusions` — (shard, kernel) per included
    /// device, in inclusion order — under `trainer`'s config; scored on
    /// first sight of the sequence.
    pub(crate) fn evaluation(
        &mut self,
        trainer: &LocalTrainer,
        inclusions: &[(usize, KernelKind)],
        global: &LrModel,
        dataset: &CtrDataset,
    ) -> EvalMetrics {
        let config = trainer.config();
        let key: Box<[u64]> = std::iter::once(
            u64::from(config.learning_rate.to_bits()) << 32 | u64::from(config.epochs),
        )
        .chain(
            inclusions
                .iter()
                .map(|&(shard, kernel)| (shard as u64) << 1 | kernel as u64),
        )
        .collect();
        if let Some((_, eval)) = self.evaluations.iter().find(|(held, _)| *held == key) {
            debug_assert!(
                {
                    let fresh = evaluate(global, &dataset.test);
                    let bits = |e: &EvalMetrics| {
                        (
                            e.accuracy.to_bits(),
                            e.log_loss.to_bits(),
                            e.auc.to_bits(),
                            e.n_examples,
                        )
                    };
                    bits(eval) == bits(&fresh)
                },
                "a round-0 evaluation is a function of its inclusion sequence"
            );
            return *eval;
        }
        let eval = evaluate(global, &dataset.test);
        let bytes = std::mem::size_of_val(&*key);
        if bytes <= EVALUATION_KEY_BYTES {
            while self.key_bytes + bytes > EVALUATION_KEY_BYTES {
                let Some((oldest, _)) = self.evaluations.pop_front() else {
                    break;
                };
                self.key_bytes -= std::mem::size_of_val(&*oldest);
            }
            self.key_bytes += bytes;
            self.evaluations.push_back((key, eval));
        }
        eval
    }

    /// Shard `shard`'s round-0 update under `kernel` and `trainer`'s
    /// config, trained from the zero model `global` on first use.
    fn update(
        &mut self,
        trainer: &LocalTrainer,
        global: &LrModel,
        dataset: &CtrDataset,
        shard: usize,
        kernel: KernelKind,
    ) -> &LocalUpdate {
        debug_assert!(
            global.bias().to_bits() == 0 && global.weights().iter().all(|w| w.to_bits() == 0),
            "a round-0 update trains from the zero model"
        );
        let config = trainer.config();
        self.updates
            .entry((shard, kernel, config.learning_rate.to_bits(), config.epochs))
            .or_insert_with(|| trainer.train(global, &dataset.devices[shard].data, kernel))
    }
}

impl TaskRunner {
    /// Creates a runner; `RunnerConfig` carries no tunables.
    #[must_use]
    pub fn new(_config: RunnerConfig) -> Self {
        TaskRunner
    }

    /// Computes the allocation a spec would use against the given
    /// substrates, without executing it.
    ///
    /// # Errors
    ///
    /// Propagates optimizer infeasibility.
    pub fn plan_allocation(&self, spec: &TaskSpec, cluster: &LogicalCluster) -> Result<Allocation> {
        let params = Self::alloc_params(spec, cluster);
        match spec.allocation {
            AllocationPolicy::Optimized => optimize(&params),
            AllocationPolicy::FixedLogicalFraction(frac) => {
                let grades: Vec<GradeAllocation> = params
                    .iter()
                    .map(|p| {
                        let x = ((p.splittable() as f64) * frac).round() as u64;
                        let x = x.min(p.splittable());
                        GradeAllocation {
                            logical_devices: x,
                            phone_devices: p.splittable() - x,
                            benchmark_devices: p.benchmark,
                            grade_time: p.grade_time(x),
                        }
                    })
                    .collect();
                let task_time = grades
                    .iter()
                    .map(|g| g.grade_time)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                Ok(Allocation { grades, task_time })
            }
        }
    }

    /// The placement-group requests a spec would acquire under
    /// `allocation`: one `(units per actor, actor count)` pair per grade with
    /// logical devices. The platform's admission pre-check runs these
    /// through the cluster's trial placement *before* freezing the task's
    /// claim, so a task whose placement would block (capacity booting, or
    /// free units fragmented across nodes) waits instead of failing.
    #[must_use]
    pub(crate) fn placement_requests(spec: &TaskSpec, allocation: &Allocation) -> Vec<(u64, u64)> {
        spec.grades
            .iter()
            .zip(&allocation.grades)
            .filter_map(|(g, a)| Self::grade_request(g, a.logical_devices))
            .collect()
    }

    /// The single source of truth for one grade's placement-group shape:
    /// `(units per actor, actor count)` for `logical_devices` devices placed
    /// on the cloud tier, or `None` when the grade runs no logical
    /// devices. Both the admission trial ([`TaskRunner::placement_requests`])
    /// and the real acquisition in [`TaskRunner::plan_with`] derive from
    /// here, so the trial can never approve a placement the acquisition
    /// rejects.
    fn grade_request(g: &GradeRequirement, logical_devices: u64) -> Option<(u64, u64)> {
        if logical_devices == 0 {
            return None;
        }
        let actors = (g.logical_unit_bundles / g.units_per_device.max(1)).min(logical_devices);
        Some((g.units_per_device, actors))
    }

    fn alloc_params(spec: &TaskSpec, cluster: &LogicalCluster) -> Vec<GradeAllocParams> {
        spec.grades
            .iter()
            .map(|g| {
                let profile = PhoneProfile::for_grade(g.grade);
                GradeAllocParams {
                    total_devices: g.total_devices,
                    benchmark: g.benchmark_phones,
                    unit_bundles: g.logical_unit_bundles,
                    units_per_device: g.units_per_device,
                    phones: g.phones,
                    alpha: cluster.cost().alpha(g.grade),
                    beta: profile.beta(),
                    lambda: profile.lambda(),
                }
            })
            .collect()
    }

    /// Executes `spec` starting at virtual time `start`: plan immediately
    /// followed by commit, with round-0 updates trained for this task
    /// alone. Batch drivers and tests use this; the event-driven platform
    /// splits the two phases so completions can interleave on the virtual
    /// timeline.
    ///
    /// # Errors
    ///
    /// Returns validation/allocation/resource errors; a task that starts
    /// executing always produces a report (rounds that time out aggregate
    /// best-effort).
    pub fn execute(
        &self,
        spec: &TaskSpec,
        dataset: &CtrDataset,
        cluster: &mut LogicalCluster,
        phones: &mut PhoneMgr,
        storage: &mut Storage,
        start: SimInstant,
    ) -> Result<TaskReport> {
        let mut memo = RoundZeroMemo::default();
        let plan = self.plan_with(spec, dataset, &mut memo, cluster, phones, storage, start)?;
        // Single-shot execution has no completion event to release the
        // placement groups at — give them back here so batch drivers
        // leave the pool clean between tasks.
        for &pg in &plan.groups {
            cluster.release_job(pg);
        }
        self.commit(plan, phones)
    }

    /// Plan phase, and the platform's whole admission procedure for one
    /// task: validate, allocate, bind benchmark devices to phones idle at
    /// `start`, acquire the placement groups, plan every round (training,
    /// DeviceFlow routing, aggregation instants) and reserve the benchmark
    /// phones by submitting their run plans — without taking the
    /// measurements. The returned [`TaskPlan`] fixes `finished_at`, so the
    /// platform can schedule the completion event before any
    /// wall-clock-later work happens. Round-0 updates come from `memo`,
    /// which holds only updates trained on `dataset`.
    ///
    /// A plan that fails leaves no bytes in `storage` — the plan's byte
    /// total is charged only on success — and gives its placement groups
    /// back.
    ///
    /// # Errors
    ///
    /// Returns validation/allocation/resource errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn plan_with(
        &self,
        spec: &TaskSpec,
        dataset: &CtrDataset,
        memo: &mut RoundZeroMemo,
        cluster: &mut LogicalCluster,
        phones: &mut PhoneMgr,
        storage: &mut Storage,
        start: SimInstant,
    ) -> Result<TaskPlan> {
        spec.validate()?;
        let allocation = self.plan_allocation(spec, cluster)?;
        let mut placements = Self::place_devices(spec, &allocation, phones, start)?;
        Self::check_phone_grades(spec, &placements, phones)?;
        // One group per grade with logical devices, acquired at admission
        // and held for the task's whole lifetime: every round re-uses it,
        // and the platform releases it at the completion event — which is
        // what makes cloud capacity contention real across concurrent
        // tasks.
        Self::acquire_grade_groups(spec, &mut placements, cluster)?;
        let groups: Vec<PlacementGroupId> = placements.iter().filter_map(|p| p.group).collect();
        let mut written = Storage::new();
        let planned = self
            .plan_timeline(
                spec,
                dataset,
                memo,
                start,
                allocation,
                &placements,
                cluster,
                phones,
                &mut written,
            )
            .and_then(|(report, runs)| {
                let mut benchmark_phones = Vec::with_capacity(runs.len());
                for (phone, run) in runs {
                    phones.submit_run(phone, run)?;
                    benchmark_phones.push(phone);
                }
                Ok((report, benchmark_phones))
            });
        match planned {
            Ok((report, benchmark_phones)) => {
                storage.charge(written.bytes_written());
                Ok(TaskPlan {
                    report,
                    benchmark_phones,
                    groups,
                })
            }
            Err(err) => {
                for pg in groups {
                    cluster.release_job(pg);
                }
                Err(err)
            }
        }
    }

    /// Deals device ids to grades in allocation order and binds benchmark
    /// devices to concrete phones idle at `start`.
    fn place_devices(
        spec: &TaskSpec,
        allocation: &Allocation,
        phones: &mut PhoneMgr,
        start: SimInstant,
    ) -> Result<Vec<GradePlacement>> {
        let mut placements: Vec<GradePlacement> = Vec::with_capacity(spec.grades.len());
        let mut next_device: u64 = 0;
        for (g, alloc) in spec.grades.iter().zip(&allocation.grades) {
            let mut take = |n: u64| -> Vec<DeviceId> {
                let ids = (next_device..next_device + n).map(DeviceId).collect();
                next_device += n;
                ids
            };
            let logical_devices = take(alloc.logical_devices);
            let phone_devices = take(alloc.phone_devices);
            let benchmark_ids = take(alloc.benchmark_devices);
            let benchmark_phones =
                phones.select(g.grade, alloc.benchmark_devices as usize, start)?;
            placements.push(GradePlacement {
                logical_devices,
                group: None,
                phone_devices,
                benchmark_devices: benchmark_ids.into_iter().zip(benchmark_phones).collect(),
            });
        }
        Ok(placements)
    }

    /// A grade the fleet holds no phone of offers no behaviour profile to
    /// average. A task placing devices on that grade's phone cluster
    /// must surface resource exhaustion instead of silently planning
    /// with the static paper profile of phones that do not exist.
    fn check_phone_grades(
        spec: &TaskSpec,
        placements: &[GradePlacement],
        phones: &PhoneMgr,
    ) -> Result<()> {
        for (g, placement) in spec.grades.iter().zip(placements) {
            let needs_phones =
                !placement.phone_devices.is_empty() || !placement.benchmark_devices.is_empty();
            if needs_phones && phones.try_effective_profile(g.grade).is_none() {
                return Err(SimdcError::ResourceExhausted {
                    requested: format!("{} phone-cluster devices for task {}", g.grade, spec.id),
                    available: format!("0 {} phones registered", g.grade),
                });
            }
        }
        Ok(())
    }

    /// Acquires one placement group per grade with logical devices into
    /// its placement, rolling back the task's own partial acquisitions on
    /// failure.
    fn acquire_grade_groups(
        spec: &TaskSpec,
        placements: &mut [GradePlacement],
        cluster: &mut LogicalCluster,
    ) -> Result<()> {
        for i in 0..placements.len() {
            let g = &spec.grades[i];
            let Some((units, actors)) =
                Self::grade_request(g, placements[i].logical_devices.len() as u64)
            else {
                continue;
            };
            match cluster.acquire_group(units, actors as usize) {
                Ok(pg) => placements[i].group = Some(pg),
                Err(err) => {
                    for pg in placements[..i].iter().filter_map(|p| p.group) {
                        cluster.release_job(pg);
                    }
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    /// Rounds, DeviceFlow routing, aggregation and benchmark-run planning
    /// over the bound placement: every upload and global-model publish is
    /// charged to `storage`, cloud rounds are planned on the task's
    /// placement groups, round 0's updates come from `memo`, and the
    /// benchmark runs come back for [`TaskRunner::plan_with`] to submit, in
    /// binding order. Profiles are read from the fleet as it stands.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn plan_timeline(
        &self,
        spec: &TaskSpec,
        dataset: &CtrDataset,
        memo: &mut RoundZeroMemo,
        start: SimInstant,
        allocation: Allocation,
        placements: &[GradePlacement],
        cluster: &mut LogicalCluster,
        phones: &PhoneMgr,
        storage: &mut Storage,
    ) -> Result<(TaskReport, Vec<(PhoneId, RunPlan)>)> {
        // The label is formatted from the task id, which the queue
        // guarantees unique — two tasks can never alias a stream, and the
        // seed is per-task as well.
        let mut rng = RngStream::named(spec.seed, &format!("task/{}", spec.id.0));
        // --- DeviceFlow -------------------------------------------------
        // The stage draws from a stream of its own, so setting a strategy
        // leaves the task stream (and every cluster timing) untouched.
        let mut harness = match &spec.strategy {
            Some(strategy) => {
                let mut flow = DeviceFlow::new();
                flow.register_task(spec.id, strategy.clone())?;
                let rng = RngStream::named(spec.seed, &format!("task/{}/deviceflow", spec.id.0));
                Some(FlowHarness::new(flow, rng))
            }
            None => None,
        };
        let mut dropped_seen = 0u64;

        // --- Round loop --------------------------------------------------
        let trainer = LocalTrainer::new(spec.train);
        let mut global = LrModel::zeros(dataset.feature_dim);
        let mut rounds: Vec<RoundReport> = Vec::with_capacity(spec.rounds as usize);
        let mut round_start = start;
        let mut message_seq: u64 = 0;

        for round_idx in 0..spec.rounds {
            let round = RoundId(round_idx);
            // Devices train from `global` directly; its publication is
            // bandwidth only.
            storage.charge(global.serialized_size());

            // Every device's completion instant and kernel, in the order
            // that assigns the message ids.
            let mut completions: Vec<(SimInstant, DeviceId, KernelKind)> = Vec::new();
            let payload_mib =
                DATA_PAYLOAD_MIB + global.serialized_size() as f64 / (1024.0 * 1024.0);

            for (g, placement) in spec.grades.iter().zip(placements) {
                // Effective (fleet-averaged) profile, so stragglers and
                // other per-phone perturbations stretch the actual wave
                // timing — the optimizer plans with nominal profiles.
                // Grades that place phone work were verified non-empty
                // right after placement, so the nominal fallback here can
                // only ever serve fully-logical grades.
                let profile = phones.effective_profile(g.grade);
                // Logical side: plan this round over the task's standing
                // placement group (acquired once, released at completion).
                if let Some(pg) = placement.group {
                    let job = JobSpec {
                        task: spec.id,
                        round,
                        grade: g.grade,
                        devices: placement.logical_devices.clone(),
                        unit_bundles: g.logical_unit_bundles,
                        units_per_device: g.units_per_device,
                        payload_mib,
                    };
                    let plan = cluster.plan_round_on_group(pg, &job, &mut rng)?;
                    for (dev, offset) in plan.device_completions() {
                        completions.push((round_start + offset, dev, KernelKind::Server));
                    }
                }
                // Phone compute side: waves over the granted phones.
                let compute_phones = g.phones.max(1);
                let startup = if round_idx == 0 {
                    profile.lambda()
                } else {
                    SimDuration::ZERO
                };
                for (j, &dev) in placement.phone_devices.iter().enumerate() {
                    let wave = (j as u64) / compute_phones;
                    let at = round_start + startup + profile.beta() * (wave + 1);
                    completions.push((at, dev, KernelKind::Mobile));
                }
                // Benchmark devices: one per phone, first wave.
                for &(dev, _phone) in &placement.benchmark_devices {
                    let at = round_start + startup + profile.beta();
                    completions.push((at, dev, KernelKind::Mobile));
                }
            }

            // Emit every device's message. Its sample count is the shard
            // length and its upload size depends on the dimension only, so
            // nothing here waits for training.
            let shards = dataset.devices.len() as u64;
            let first_id = message_seq;
            let mut emissions: Vec<(SimInstant, Message)> = Vec::with_capacity(completions.len());
            let mut compute_finished = round_start;
            for &(at, device, _) in &completions {
                compute_finished = compute_finished.max(at);
                let n_samples = dataset.devices[(device.0 % shards) as usize].data.len() as u64;
                let key = StorageKey::for_update(spec.id, round, device);
                let id = MessageId(message_seq);
                message_seq += 1;
                let message = Message::model_update(id, spec.id, device, round, n_samples, key, at);
                emissions.push((at, message));
                storage.charge(LocalUpdate::wire_size(global.dim()));
            }
            emissions.sort_by_key(|(at, m)| (*at, m.id));

            // Deliver directly or through the DeviceFlow stage; either way
            // the one evaluator pulls deliveries until the trigger fires.
            let RoundOutcome {
                aggregated_at,
                included,
                trigger_fired,
            } = match harness.as_mut() {
                None => resolve_round(
                    spec.trigger,
                    round_start,
                    emissions.iter().copied(),
                    spec.round_timeout,
                ),
                Some(h) => {
                    h.run_until(round_start);
                    h.round_started(spec.id, round);
                    for &(at, m) in &emissions {
                        h.ingest_at(at, m);
                    }
                    h.round_completed_at(compute_finished, spec.id, round);
                    let horizon = spec.trigger.horizon(round_start, spec.round_timeout);
                    let deliveries = h.deliver_round(round, horizon);
                    resolve_round(spec.trigger, round_start, deliveries, spec.round_timeout)
                }
            };
            let dropped_total = harness
                .as_ref()
                .and_then(|h| h.flow().stats(spec.id))
                .map_or(0, |s| s.dropped);
            let dropped_messages = dropped_total - dropped_seen;
            dropped_seen = dropped_total;

            // Cloud side: train what the trigger fetched, in inclusion
            // order, folding each update into FedAvg as it arrives; then
            // evaluate. Round 0 starts from the zero model, so its updates
            // and its evaluation come from the memo.
            let inclusions: Vec<(usize, KernelKind)> = included
                .iter()
                .map(|m| {
                    // Ids count up from `first_id` in `completions` order.
                    let (_, device, kernel) = completions[(m.id.0 - first_id) as usize];
                    ((device.0 % shards) as usize, kernel)
                })
                .collect();
            let mut fold = FedAvgFold::new(included.iter().map(|m| m.sample_count));
            for &(shard, kernel) in &inclusions {
                if round_idx == 0 {
                    fold.add(memo.update(&trainer, &global, dataset, shard, kernel));
                } else {
                    fold.add(&trainer.train(&global, &dataset.devices[shard].data, kernel));
                }
            }
            let included_samples: u64 = included.iter().map(|m| m.sample_count).sum();
            let train_loss = fold.loss();
            if !included.is_empty() {
                global = fold.into_model()?;
            }
            let eval = if round_idx == 0 {
                memo.evaluation(&trainer, &inclusions, &global, dataset)
            } else {
                evaluate(&global, &dataset.test)
            };

            rounds.push(RoundReport {
                round,
                started_at: round_start,
                compute_finished_at: compute_finished,
                aggregated_at,
                trigger_fired,
                included_updates: included.len() as u64,
                included_samples,
                // Emitted but neither aggregated nor dropped (possibly
                // still shelved in DeviceFlow).
                stragglers: ((emissions.len() - included.len()) as u64)
                    .saturating_sub(dropped_messages),
                dropped_messages,
                train_loss,
                eval,
            });
            round_start = aggregated_at;
        }

        // --- Benchmark reservation ---------------------------------------
        // Submitting the run plans at admission (not at commit) keeps the
        // phones busy over their measurement windows, so a task admitted
        // next — in the same pass or mid-run — cannot double-book them;
        // the measurements themselves wait for the commit phase.
        let mut benchmark_runs = Vec::new();
        let mut finished_at = rounds.last().map_or(start, |r| r.aggregated_at);
        for placement in placements {
            for &(_dev, phone) in &placement.benchmark_devices {
                // Each benchmark placement names a concrete phone, so its
                // measurement windows come from that phone's own profile —
                // a straggler benchmark phone is measured at its real
                // (slowed) pace, not the fleet average.
                let profile = phones
                    .phone(phone)
                    .ok_or(SimdcError::PhoneUnavailable(phone))?
                    .profile();
                let (durations, gaps) = benchmark_windows(&rounds, profile);
                let run = RunPlan::new(spec.id, phone, start, &durations, &gaps)?;
                finished_at = finished_at.max(run.end());
                benchmark_runs.push((phone, run));
            }
        }

        Ok((
            TaskReport {
                task: spec.id,
                started_at: start,
                finished_at,
                rounds,
                allocation,
                final_model: global,
                benchmark_reports: Vec::new(),
            },
            benchmark_runs,
        ))
    }

    /// Commit phase: measures the benchmark phones reserved by
    /// [`TaskRunner::plan_with`], in reservation order, and finalizes the
    /// report. Measuring reads the phones and changes none of them.
    ///
    /// Measurement is best-effort: a benchmark phone whose run vanished
    /// between plan and commit — crashed and rebooted (reboot wipes the
    /// assigned run), retired from the fleet, or already reassigned to a
    /// *later* task's run (possible when this task's overall
    /// `finished_at` extends past that phone's own run window) —
    /// contributes no report rather than failing a task whose training
    /// already completed, and never measures another task's run as its
    /// own. A phone that crashed but never rebooted still yields the
    /// partial report captured up to the crash.
    ///
    /// # Errors
    ///
    /// Propagates measurement faults other than the vanished-run cases
    /// above — an unexpected error must fail the task, not silently
    /// shorten its benchmark data.
    pub(crate) fn commit(&self, plan: TaskPlan, phones: &PhoneMgr) -> Result<TaskReport> {
        let TaskPlan {
            mut report,
            benchmark_phones,
            // Releasing the groups is the caller's job: the platform does
            // it at the completion event, `execute` right before commit.
            groups: _,
        } = plan;
        for phone in benchmark_phones {
            // Only measure a run that is still *this task's* run.
            let owned = phones
                .phone(phone)
                .and_then(|p| p.run())
                .is_some_and(|r| r.task == report.task);
            if !owned {
                continue;
            }
            match phones.measure_run(phone) {
                Ok(measured) => report.benchmark_reports.push(measured),
                // Phone retired or run wiped between the ownership check
                // and the measurement (defensive; measure_run re-reads).
                Err(SimdcError::PhoneUnavailable(_) | SimdcError::InvalidConfig(_)) => {}
                Err(other) => return Err(other),
            }
        }
        Ok(report)
    }
}

/// Derives the benchmark phones' training windows and waiting gaps from the
/// executed round timeline.
fn benchmark_windows(
    rounds: &[RoundReport],
    profile: &PhoneProfile,
) -> (Vec<SimDuration>, Vec<SimDuration>) {
    let beta = profile.beta();
    let durations = vec![beta; rounds.len()];
    let mut gaps = Vec::with_capacity(rounds.len().saturating_sub(1));
    // Floor between rounds: aggregation + global-model redistribution is
    // never instantaneous, and a nonzero gap keeps the Table-I stage
    // aggregation from merging adjacent training rounds.
    let gap_floor = SimDuration::from_secs(2);
    for pair in rounds.windows(2) {
        let startup = if pair[0].round == RoundId::FIRST {
            profile.lambda()
        } else {
            SimDuration::ZERO
        };
        let train_end = pair[0].started_at + startup + beta;
        gaps.push(
            pair[1]
                .started_at
                .saturating_duration_since(train_end)
                .max(gap_floor),
        );
    }
    (durations, gaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::AggregationTrigger;
    use crate::spec::GradeRequirement;
    use simdc_cluster::ClusterConfig;
    use simdc_data::GeneratorConfig;
    use simdc_deviceflow::DispatchStrategy;
    use simdc_types::DeviceGrade;

    fn dataset() -> CtrDataset {
        CtrDataset::generate(&GeneratorConfig {
            n_devices: 40,
            n_test_devices: 8,
            mean_records_per_device: 20.0,
            feature_dim: 1 << 12,
            seed: 33,
            ..GeneratorConfig::default()
        })
    }

    fn substrates() -> (LogicalCluster, PhoneMgr, Storage) {
        (
            LogicalCluster::new(ClusterConfig::default()),
            PhoneMgr::paper_default(99),
            Storage::new(),
        )
    }

    fn base_spec(id: u64) -> TaskSpec {
        TaskSpec::builder(TaskId(id))
            .rounds(3)
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 20,
                benchmark_phones: 2,
                logical_unit_bundles: 40,
                units_per_device: 8,
                phones: 6,
            })
            .trigger(AggregationTrigger::DeviceThreshold { min_devices: 20 })
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_task_improves_accuracy() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let runner = TaskRunner;
        let report = runner
            .execute(
                &base_spec(1),
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(report.rounds.len(), 3);
        // Every round included every device.
        for r in &report.rounds {
            assert_eq!(r.included_updates, 20);
            assert!(r.trigger_fired);
        }
        // Loss decreases across rounds; accuracy is meaningful.
        let first = &report.rounds[0];
        let last = report.rounds.last().unwrap();
        assert!(last.train_loss < first.train_loss);
        assert!(last.eval.accuracy > 0.5, "acc {}", last.eval.accuracy);
        // Timeline is monotone.
        for pair in report.rounds.windows(2) {
            assert!(pair[1].started_at == pair[0].aggregated_at);
            assert!(pair[0].aggregated_at >= pair[0].started_at);
        }
        // Benchmark phones produced measurement reports.
        assert_eq!(report.benchmark_reports.len(), 2);
        assert!(report.finished_at >= report.rounds.last().unwrap().aggregated_at);
    }

    #[test]
    fn execution_is_deterministic() {
        let data = dataset();
        let runner = TaskRunner;
        let run = || {
            let (mut cluster, mut phones, mut storage) = substrates();
            runner
                .execute(
                    &base_spec(1),
                    &data,
                    &mut cluster,
                    &mut phones,
                    &mut storage,
                    SimInstant::EPOCH,
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.final_model, b.final_model);
    }

    #[test]
    fn fixed_allocations_respect_fraction() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let mut spec = base_spec(2);
        spec.allocation = AllocationPolicy::FixedLogicalFraction(0.0);
        spec.rounds = 1;
        let runner = TaskRunner;
        let report = runner
            .execute(
                &spec,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(report.allocation.grades[0].logical_devices, 0);

        let mut spec = base_spec(3);
        spec.allocation = AllocationPolicy::FixedLogicalFraction(1.0);
        spec.rounds = 1;
        let report = runner
            .execute(
                &spec,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(report.allocation.grades[0].phone_devices, 0);
    }

    #[test]
    fn deviceflow_dropout_reduces_included_updates() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let mut spec = base_spec(4);
        spec.strategy = Some(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: 0.6,
        });
        spec.trigger = AggregationTrigger::Scheduled {
            period: SimDuration::from_mins(10),
        };
        spec.rounds = 2;
        let runner = TaskRunner;
        let report = runner
            .execute(
                &spec,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        for r in &report.rounds {
            assert!(r.dropped_messages > 0, "{r:?}");
            assert!(r.included_updates < 20);
            assert!(r.included_updates + r.dropped_messages + r.stragglers >= 18);
        }
    }

    #[test]
    fn scheduled_trigger_drops_stragglers() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let mut spec = base_spec(5);
        // Aggregate well before the phones' λ + β ≈ 46 s completion.
        spec.trigger = AggregationTrigger::Scheduled {
            period: SimDuration::from_secs(40),
        };
        spec.rounds = 1;
        let runner = TaskRunner;
        let report = runner
            .execute(
                &spec,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        let r = &report.rounds[0];
        assert!(r.stragglers > 0, "{r:?}");
        assert_eq!(r.aggregated_at, r.started_at + SimDuration::from_secs(40));
    }

    #[test]
    fn commit_skips_benchmark_runs_reassigned_to_another_task() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let runner = TaskRunner;
        let plan = runner
            .plan_with(
                &base_spec(7),
                &data,
                &mut RoundZeroMemo::default(),
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(plan.benchmark_phones.len(), 2);
        // Between plan and commit, one benchmark phone's run is replaced
        // by a later task's (possible once that phone's own window ends
        // while this task's finished_at extends further).
        let stolen = plan.benchmark_phones[0];
        phones.reboot(stolen).unwrap(); // wipes the old run so a new one can land
        let foreign = simdc_phone::RunPlan::new(
            TaskId(99),
            stolen,
            SimInstant::EPOCH,
            &[SimDuration::from_secs(30)],
            &[],
        )
        .unwrap();
        phones.submit_run(stolen, foreign).unwrap();
        let report = runner.commit(plan, &phones).unwrap();
        // The reassigned phone contributes nothing; the other phone's
        // measurement is intact. No cross-task data attribution.
        assert_eq!(report.benchmark_reports.len(), 1);
        assert_ne!(report.benchmark_reports[0].phone, stolen);
    }

    #[test]
    fn plan_fails_when_the_fleet_has_no_phones_of_a_grade() {
        let data = dataset();
        let (mut cluster, _, mut storage) = substrates();
        let no_high = simdc_phone::FleetSpec {
            local: simdc_types::PerGrade::from_parts(0, 6),
            msp: simdc_types::PerGrade::from_parts(0, 7),
        };
        let mut phones = PhoneMgr::with_fleet(no_high, SimDuration::from_secs(1), 99);
        // A task placing compute devices on High phones (no benchmark
        // phones, so the failure exercises the profile guard rather than
        // benchmark selection) must surface exhaustion, not plan against
        // the static paper profile.
        let mut spec = base_spec(11);
        spec.allocation = AllocationPolicy::FixedLogicalFraction(0.0);
        spec.grades[0].benchmark_phones = 0;
        let runner = TaskRunner;
        let err = runner
            .execute(
                &spec,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap_err();
        assert!(
            matches!(err, SimdcError::ResourceExhausted { .. }),
            "expected ResourceExhausted, got {err}"
        );
        // A fully-logical task on the same phoneless grade still plans fine.
        let mut logical = base_spec(12);
        logical.allocation = AllocationPolicy::FixedLogicalFraction(1.0);
        logical.grades[0].benchmark_phones = 0;
        logical.grades[0].phones = 0;
        runner
            .execute(
                &logical,
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
    }

    #[test]
    fn storage_counts_every_upload_and_publish() {
        let data = dataset();
        let (mut cluster, mut phones, mut storage) = substrates();
        let runner = TaskRunner;
        runner
            .execute(
                &base_spec(6),
                &data,
                &mut cluster,
                &mut phones,
                &mut storage,
                SimInstant::EPOCH,
            )
            .unwrap();
        // Three rounds, each publishing one global model and uploading 20
        // updates.
        let dim = u64::from(data.feature_dim);
        assert_eq!(
            storage.bytes_written(),
            3 * (8 + 4 * dim) + 60 * (24 + 4 * dim)
        );
    }
}
