//! The SimDC platform facade: Task Manager + Resource Manager + substrates
//! wired together.
//!
//! [`Platform`] owns the logical cluster, the phone fleet, the storage
//! bandwidth account and the task queue. Tasks are submitted with their dataset, admitted by
//! the greedy scheduler as resources allow, executed by the
//! [`crate::runner::TaskRunner`] on the virtual timeline, and their
//! [`TaskReport`]s retained for inspection — the programmatic equivalent of
//! the paper's GUI monitoring — until a driver takes them
//! ([`Platform::take_reports`]). A finished task leaves only its terminal
//! state in the queue; its spec is dropped.
//!
//! # Event-driven core
//!
//! The platform loop is a discrete-event simulation riding the
//! [`simdc_simrt`] event queue. Admitting a task plans its entire virtual
//! timeline (the runner's plan phase) and schedules a *completion event* at
//! its `finished_at` instant; popping that event releases the task's
//! resource lease at the task's actual completion instant and immediately
//! re-runs the greedy scheduler, so queued work starts the moment capacity
//! frees — not at the end of an admission wave. A driver interleaves
//! arrivals with pending completions on the same timeline
//! ([`Platform::sync_to_arrival`], then [`Platform::submit`] for every
//! arrival due, then one [`Platform::admit_now`]), which is what keeps
//! queueing delays honest under sustained traffic.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simdc_cluster::{ClusterConfig, LogicalCluster};
use simdc_data::CtrDataset;
use simdc_phone::mgr::FleetSpec;
use simdc_phone::PhoneMgr;
use simdc_simrt::EventQueue;
use simdc_types::{PerGrade, Result, SimDuration, SimInstant, SimdcError, TaskId};

use crate::cloud::Storage;
use crate::queue::{TaskQueue, TaskState};
use crate::resources::ResourceManager;
use crate::runner::{RoundZeroMemo, TaskPlan, TaskReport, TaskRunner};
use crate::scheduler::GreedyScheduler;
use crate::spec::TaskSpec;

/// Platform-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Logical-simulation cluster.
    pub cluster: ClusterConfig,
    /// Phone fleet composition.
    pub fleet: FleetSpec,
    /// Benchmark polling interval.
    pub poll_interval: SimDuration,
    /// Platform seed (forked per phone/task).
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster: ClusterConfig::default(),
            fleet: FleetSpec::paper_default(),
            poll_interval: SimDuration::from_secs(1),
            seed: 0x51AD_C0DE,
        }
    }
}

/// A point-in-time view of the platform (what the paper's GUI displays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformStatus {
    /// Virtual clock.
    pub now: SimInstant,
    /// Tasks waiting.
    pub pending: usize,
    /// Tasks executing.
    pub running: usize,
    /// Tasks finished (completed or failed).
    pub finished: usize,
    /// Free unit bundles.
    pub free_bundles: u64,
    /// Free phones per grade.
    pub free_phones: PerGrade<u64>,
    /// Physical cloud nodes (any lifecycle state).
    pub nodes: u64,
    /// Cloud nodes up and accepting placements.
    pub ready_nodes: u64,
}

/// The platform's internal event alphabet.
#[derive(Debug)]
enum PlatformEvent {
    /// A running task reaches its planned completion instant: commit the
    /// plan, release the lease and placement groups, re-run the
    /// scheduler.
    Completion(TaskId),
    /// An elastic scale-up finishes booting: the cluster's new capacity
    /// becomes placeable, so re-run the scheduler — blocked placements
    /// admit here instead of failing.
    NodeReady,
}

/// What a task carries while it is pending.
struct PendingTask {
    dataset: Arc<CtrDataset>,
    /// Actor placement requests, `(units per actor, actors)`, computed
    /// once at submission (the allocation is deterministic in the spec
    /// and cost model); scheduling passes run the cloud placement trial
    /// against this cache. `None`
    /// means the allocation failed at submit: the task counts as
    /// placeable, so `plan_with` surfaces the real error on the normal
    /// failure path.
    placement: Option<Vec<(u64, u64)>>,
}

impl PendingTask {
    fn places_on(&self, cluster: &LogicalCluster) -> bool {
        self.placement
            .as_ref()
            .is_none_or(|requests| cluster.can_place_all(requests))
    }
}

/// `step` limit of a loop that runs the event queue dry.
const NO_LIMIT: SimInstant = SimInstant::from_micros(u64::MAX);

/// The assembled platform.
pub struct Platform {
    cluster: LogicalCluster,
    phones: PhoneMgr,
    storage: Storage,
    rm: ResourceManager,
    queue: TaskQueue,
    /// Round-0 updates shared by every task admitted on the same dataset;
    /// rebound (and cleared) when a task brings another dataset.
    round_zero: RoundZeroMemo,
    /// What each pending task carries; entries leave when the task leaves
    /// the pending state (admitted or starved).
    pending: BTreeMap<TaskId, PendingTask>,
    /// Reports of completed tasks not yet taken by the driver.
    reports: BTreeMap<TaskId, TaskReport>,
    /// Planned executions of running tasks, keyed by task; each has a
    /// matching completion event in `events`.
    plans: BTreeMap<TaskId, TaskPlan>,
    /// Pending completion events on the virtual timeline.
    events: EventQueue<PlatformEvent>,
    /// Completion events processed so far — including tasks that failed
    /// at commit (scenario drivers fold this into their event totals).
    completion_events: u64,
    /// Node-ready (elastic scale-up) events processed so far.
    cluster_events: u64,
    clock: SimInstant,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("clock", &self.clock)
            .field("tasks", &self.queue.census())
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Builds a platform from `config`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid cluster configuration (validate it first for a
    /// recoverable error).
    #[must_use]
    pub fn new(config: PlatformConfig) -> Self {
        let cluster = LogicalCluster::new(config.cluster.clone());
        let phones = PhoneMgr::with_fleet(config.fleet, config.poll_interval, config.seed);
        let total_bundles = cluster.free_unit_bundles();
        // The fleet's membership is fixed, so these totals never change.
        let total_phones = PerGrade::from_fn(|g| phones.count(g, None) as u64);
        Platform {
            cluster,
            phones,
            storage: Storage::new(),
            rm: ResourceManager::new(total_bundles, total_phones),
            queue: TaskQueue::new(),
            round_zero: RoundZeroMemo::default(),
            pending: BTreeMap::new(),
            reports: BTreeMap::new(),
            plans: BTreeMap::new(),
            events: EventQueue::new(),
            completion_events: 0,
            cluster_events: 0,
            clock: SimInstant::EPOCH,
        }
    }

    /// Builds the paper's default platform (200-core cluster, 30 phones).
    #[must_use]
    pub fn paper_default() -> Self {
        Platform::new(PlatformConfig::default())
    }

    /// Submits a task with its dataset. Tasks start when the scheduler
    /// admits them — during [`Platform::run_until_idle`],
    /// [`Platform::run_until`], or at the first completion event that
    /// frees their claim.
    ///
    /// Feasibility is checked against the fleet's per-grade phone totals,
    /// fixed at construction, and the cluster's elastic ceiling.
    ///
    /// # Errors
    ///
    /// Returns validation errors, duplicates, and `InvalidConfig` when the
    /// task could never fit the platform's total capacity.
    pub fn submit(&mut self, spec: TaskSpec, dataset: Arc<CtrDataset>) -> Result<TaskId> {
        spec.validate()?;
        // Bundle feasibility checks against the elastic *ceiling* (max
        // nodes, budget cap applied), not the capacity that happens to be
        // booted right now: a task needing a scale-out queues and waits
        // for the node-ready event instead of being rejected at the door.
        if !GreedyScheduler.feasible_at_all(
            &spec,
            self.cluster.capacity_ceiling_units(),
            self.rm.total_phones(),
        ) {
            return Err(SimdcError::ResourceExhausted {
                requested: format!("claim of task {}", spec.id),
                available: "total platform capacity".into(),
            });
        }
        // The allocation (and thus the actor-bundle placement requests)
        // is a deterministic function of the spec and the cost model, so
        // compute it once here and cache it: scheduling passes run the
        // placement trial against the cache instead of re-running the
        // allocation optimizer per pending task per pass. A task whose
        // actor bundles could never be placed even on an empty
        // fully-scaled pool (per-node fragmentation the aggregate unit
        // ceiling misses) is rejected now rather than booting nodes it
        // can never use and starving later.
        let placement = TaskRunner
            .plan_allocation(&spec, &self.cluster)
            .map(|alloc| TaskRunner::placement_requests(&spec, &alloc))
            .ok();
        if let Some(requests) = &placement {
            if !self.cluster.could_ever_place(requests) {
                return Err(SimdcError::ResourceExhausted {
                    requested: format!("actor placement of task {}", spec.id),
                    available: "fully scaled-out node pool".into(),
                });
            }
        }
        let id = spec.id;
        self.queue.submit(spec)?;
        self.pending.insert(id, PendingTask { dataset, placement });
        Ok(id)
    }

    /// Resyncs the Resource Manager's unit-bundle total with the logical
    /// cluster's *ready* capacity — the elastic tier's contribution to
    /// admission arithmetic. Runs on every scheduling pass, so booted and
    /// retired nodes are visible the instant the clock passes their
    /// lifecycle event.
    fn sync_cluster_totals(&mut self) {
        let ready = self.cluster.ready_unit_capacity();
        if ready != self.rm.total_bundles() {
            self.rm.set_total_bundles(ready);
        }
    }

    /// One scheduling pass: advances the cluster's lifecycle clock, admits
    /// every pending task whose claim fits *and* whose placement groups
    /// can be placed on the ready nodes right now, plans its execution
    /// from the current clock, and schedules its completion event. Tasks
    /// whose placement would block (capacity still booting, free units
    /// fragmented) stay pending — their demand drives the autoscaler at
    /// the end of the pass, and the resulting node-ready event re-runs
    /// the scheduler. Tasks whose plan fails outright (e.g. no idle
    /// benchmark phone) release their lease and fail. Returns the
    /// admitted count.
    fn dispatch_pending(&mut self) -> usize {
        self.debug_assert_capacity_bounds();
        self.cluster.advance_to(self.clock);
        self.sync_cluster_totals();
        let started = {
            let cluster = &self.cluster;
            let pending = &self.pending;
            GreedyScheduler.schedule_filtered(&self.queue, &mut self.rm, |spec| {
                pending
                    .get(&spec.id)
                    .is_some_and(|task| task.places_on(cluster))
            })
        };
        let admitted = self.admit(started);
        self.autoscale_for_pending();
        admitted
    }

    /// Admits the tasks a scheduling pass started, one at a time in
    /// admission order: each task's placement re-trial, `mark_running` and
    /// [`TaskRunner::plan_with`] — phone binding, group acquisition, every
    /// round, run submission — and its completion event all happen before
    /// the next task's re-trial, so the next task sees this one's phones
    /// and groups taken (or, if its plan failed, given back). Returns the
    /// admitted count.
    fn admit(&mut self, started: Vec<TaskId>) -> usize {
        let mut admitted = 0;
        for id in started {
            // Re-run the placement trial against the *current* pool: a
            // task admitted earlier in this very pass has acquired its
            // groups by now, and a candidate that fit the pre-pass pool
            // may no longer place. It must go back to pending (wait for
            // a completion or node-ready event), not fall through to
            // `plan_with` and fail permanently.
            let still_places = self
                .pending
                .get(&id)
                .is_some_and(|task| task.places_on(&self.cluster));
            let carried = if still_places && self.queue.mark_running(id, self.clock).is_ok() {
                self.pending.remove(&id)
            } else {
                None
            };
            // Keep freeze/release strictly paired: the scheduler froze
            // the claim, so a refused admission must give it back.
            let Some(PendingTask { dataset, .. }) = carried else {
                self.rm.release(id);
                continue;
            };
            let spec = &self.queue.get(id).expect("just marked").spec;
            self.round_zero.bind(&dataset);
            match TaskRunner.plan_with(
                spec,
                &dataset,
                &mut self.round_zero,
                &mut self.cluster,
                &mut self.phones,
                &mut self.storage,
                self.clock,
            ) {
                Ok(plan) => {
                    self.events
                        .push(plan.report.finished_at, PlatformEvent::Completion(id));
                    self.plans.insert(id, plan);
                    admitted += 1;
                }
                Err(err) => self.fail_admission(id, &err),
            }
        }
        admitted
    }

    /// Fails a task whose plan failed outright after the scheduler froze
    /// its claim: the lease goes back and the task is terminal.
    fn fail_admission(&mut self, id: TaskId, err: &SimdcError) {
        self.rm.release(id);
        let _ = self.queue.mark_failed(id, err.to_string());
    }

    /// Derives the queue pressure left after a scheduling pass — the
    /// unit-bundle claims of still-pending tasks whose *phone* needs
    /// currently fit (a phone-starved task should not boot cloud nodes) —
    /// and runs one autoscaler pass with it. A scale-up schedules the
    /// node-ready event that will wake the scheduler when the capacity
    /// becomes placeable. The sum is taken per claim-shape group of the
    /// queue (`members × unit_bundles`), so it costs O(shapes).
    fn autoscale_for_pending(&mut self) {
        let mut demand_units = 0u64;
        for (claim, members) in self.queue.pending_groups() {
            let phones_fit = simdc_types::DeviceGrade::ALL
                .iter()
                .all(|&g| *claim.phones.get(g) <= self.rm.free_phones(g));
            if phones_fit {
                let group_units = (members.len() as u64).saturating_mul(claim.unit_bundles);
                demand_units = demand_units.saturating_add(group_units);
            }
        }
        match self.cluster.autoscale(demand_units, self.clock) {
            simdc_cluster::ScalingAction::ScaleUp {
                ready_at,
                reclaimed,
                ..
            } => {
                self.events.push(ready_at, PlatformEvent::NodeReady);
                if reclaimed > 0 {
                    // Reclaimed drains are ready *now*, not at `ready_at`:
                    // wake the scheduler at the current instant too.
                    self.wake_on_reclaim();
                }
            }
            simdc_cluster::ScalingAction::Reclaim { .. } => {
                // Draining nodes returned to ready service with no boot —
                // capacity reappeared at this very instant. Without the
                // immediate node-ready event the blocked tasks would sit
                // until the next unrelated completion/arrival tick (the
                // drain-then-burst admission delay this fixes).
                self.wake_on_reclaim();
            }
            simdc_cluster::ScalingAction::ScaleIn { .. } => {
                // Draining shrinks the ready capacity at this very
                // instant — resync so admission arithmetic (and the idle
                // free==total invariant) stays consistent within the pass.
                self.sync_cluster_totals();
            }
            simdc_cluster::ScalingAction::Hold => {}
        }
    }

    /// Reacts to reclaimed draining nodes: resyncs the cluster totals
    /// (ready capacity grew at this instant) and schedules a node-ready
    /// event *at the current clock* so the event loop re-runs placement
    /// immediately. Bounded: each reclaim consumes a draining node, so
    /// the wake-ups cannot recur without fresh drains.
    fn wake_on_reclaim(&mut self) {
        self.sync_cluster_totals();
        self.events.push(self.clock, PlatformEvent::NodeReady);
    }

    /// Pops the next event due at or before `limit` and fires it. Returns
    /// the event's instant and whether it completed a task, or `None`
    /// when nothing is due by `limit`.
    fn step(&mut self, limit: SimInstant) -> Option<(SimInstant, bool)> {
        let (at, event) = self.events.pop_before(limit)?;
        Some((at, self.fire(at, event)))
    }

    /// Handles one event at instant `at` — the only place the event
    /// alphabet is interpreted. Returns whether a task completed.
    fn fire(&mut self, at: SimInstant, event: PlatformEvent) -> bool {
        self.clock = self.clock.max(at);
        match event {
            PlatformEvent::Completion(id) => self.finish(id, at),
            PlatformEvent::NodeReady => {
                // The next scheduling pass advances the cluster to this
                // instant, making the booted capacity placeable.
                self.cluster_events += 1;
                false
            }
        }
    }

    /// Handles one completion event: commits the plan (taking the
    /// benchmark measurements), releases the lease and the task's
    /// placement groups at the completion instant, and records the final
    /// state. Returns whether the task completed (vs. failed at commit).
    fn finish(&mut self, id: TaskId, at: SimInstant) -> bool {
        self.debug_assert_capacity_bounds();
        self.completion_events += 1;
        let plan = self.plans.remove(&id).expect("completion without a plan");
        // Give the cloud capacity back at the completion instant — the
        // next scheduling pass (and its autoscale) sees the freed nodes.
        for &pg in &plan.groups {
            self.cluster.release_job(pg);
        }
        let committed = TaskRunner.commit(plan, &self.phones);
        // Release exactly once per freeze, whatever the commit outcome.
        self.rm.release(id);
        match committed {
            Ok(report) => {
                self.reports.insert(id, report);
                let _ = self.queue.mark_completed(id, at);
                true
            }
            Err(err) => {
                let _ = self.queue.mark_failed(id, err.to_string());
                false
            }
        }
    }

    /// Fails every still-pending task: nothing is running, so no future
    /// completion can ever free the capacity they are waiting for. Pending
    /// tasks hold no lease — failing them involves no release. No known
    /// input reaches a starved task on a fixed fleet; this is the guard
    /// that keeps [`Platform::run_until_idle`] from spinning if one does.
    fn fail_starved(&mut self) {
        for id in self.queue.pending_by_priority() {
            self.pending.remove(&id);
            let _ = self
                .queue
                .mark_failed(id, "resources never became available");
        }
        self.debug_assert_idle_capacity();
    }

    /// At idle (no running task, no pending completion) every freeze must
    /// have been paired with its release: free capacity equals total
    /// capacity. Catches lease leaks like failing a running task without
    /// releasing its claim. Shares its oracle with the post-run checks —
    /// see [`crate::invariants::idle_violations`].
    fn debug_assert_idle_capacity(&self) {
        if cfg!(debug_assertions) {
            let violations =
                crate::invariants::idle_violations(&self.rm, self.cluster.active_jobs());
            assert!(
                violations.is_empty(),
                "invariant violated at idle: {violations:?}"
            );
        }
    }

    /// Free capacity never exceeds total capacity — asserted (debug
    /// builds) at every dispatch and completion event, so a double
    /// release aborts at the event that exhibits it instead of drifting
    /// into the summaries. See [`crate::invariants::capacity_violations`].
    fn debug_assert_capacity_bounds(&self) {
        if cfg!(debug_assertions) {
            let violations = crate::invariants::capacity_violations(&self.rm);
            assert!(
                violations.is_empty(),
                "capacity bound violated: {violations:?}"
            );
        }
    }

    /// Runs the event loop until no task is pending or running: every
    /// completion is an event on the virtual timeline; popping one
    /// releases that task's resources at its actual completion instant
    /// and immediately re-runs the scheduler, so queued tasks start at
    /// the first instant their claim fits. Returns the number of tasks
    /// completed.
    pub fn run_until_idle(&mut self) -> usize {
        let mut completed = 0usize;
        loop {
            self.dispatch_pending();
            let Some((_, done)) = self.step(NO_LIMIT) else {
                break;
            };
            completed += usize::from(done);
        }
        // Nothing running and no capacity in flight: whatever is still
        // pending is starved — fail it loudly rather than spin. (A pending
        // task waiting on a scale-up always has a NodeReady event queued;
        // running dry means the autoscaler can do no more for it.)
        self.fail_starved();
        completed
    }

    /// Runs every completion event due at or before `deadline` (admitting
    /// queued tasks at each freed-capacity instant), then advances the
    /// clock to `deadline` and runs a final scheduling pass there.
    /// Completions planned after `deadline` stay queued. Returns the
    /// number of tasks completed.
    ///
    /// Scenario drivers paced by an outer event loop use this instead of
    /// [`Platform::run_until_idle`] so the platform never runs ahead of
    /// the outer timeline.
    pub fn run_until(&mut self, deadline: SimInstant) -> usize {
        // Admit at the current clock first: a task submitted to an idle
        // platform starts now, not at the arbitrary deadline.
        self.dispatch_pending();
        let mut completed = 0usize;
        while let Some((_, done)) = self.step(deadline) {
            completed += usize::from(done);
            self.dispatch_pending();
        }
        self.advance_clock_to(deadline);
        self.dispatch_pending();
        completed
    }

    /// Advances the platform to arrival instant `at` under its one tie
    /// rule: completions *strictly before* `at` are processed normally
    /// (each re-running the scheduler), while completions at exactly `at`
    /// release their leases *without* a scheduling pass. The caller then
    /// submits every arrival due at `at` and calls [`Platform::admit_now`]
    /// once, so one pass sees the freed capacity and all the new tasks —
    /// priority decides the tie, not the order of arrivals and
    /// completions. Returns the number of tasks completed.
    pub fn sync_to_arrival(&mut self, at: SimInstant) -> usize {
        let mut completed = 0usize;
        while let Some((t, done)) = self.step(at) {
            completed += usize::from(done);
            // An event strictly before the arrival also runs the
            // admissions it unlocks. One at exactly the arrival instant
            // only releases its lease or makes its nodes visible:
            // admission is deferred to the caller's post-submit pass, so
            // one pass sees freed capacity, fresh nodes and the new tasks
            // together and priority decides the tie.
            if t < at {
                self.dispatch_pending();
            }
        }
        self.advance_clock_to(at);
        completed
    }

    /// Runs one scheduling pass at the current clock, admitting every
    /// pending task whose claim fits. Returns the number admitted.
    pub fn admit_now(&mut self) -> usize {
        self.dispatch_pending()
    }

    /// Advances the virtual clock to `at` (no-op if the clock is already
    /// past it). Scenario drivers use this to sync the platform with an
    /// outer event loop before injecting work or fleet events.
    pub fn advance_clock_to(&mut self, at: SimInstant) {
        self.clock = self.clock.max(at);
    }

    /// Completion events processed since construction, counting tasks
    /// that failed at commit as well as successes — the platform's share
    /// of a scenario's total event count.
    #[must_use]
    pub fn completion_events(&self) -> u64 {
        self.completion_events
    }

    /// Node-ready (elastic scale-up) events processed since construction
    /// — the cloud tier's share of a scenario's total event count.
    #[must_use]
    pub fn cluster_events(&self) -> u64 {
        self.cluster_events
    }

    /// The report of a completed task, while the platform still holds
    /// it (see [`Platform::take_reports`]).
    #[must_use]
    pub fn report(&self, id: TaskId) -> Option<&TaskReport> {
        self.reports.get(&id)
    }

    /// Hands over every report retained so far and keeps none of them:
    /// a driver that takes the reports as tasks complete keeps the
    /// platform's memory flat in the number of finished tasks. A later
    /// [`Platform::report`] finds only reports of tasks completed since.
    pub fn take_reports(&mut self) -> BTreeMap<TaskId, TaskReport> {
        std::mem::take(&mut self.reports)
    }

    /// The lifecycle state of a task, live or finished.
    #[must_use]
    pub fn task_state(&self, id: TaskId) -> Option<&TaskState> {
        self.queue.state(id)
    }

    /// Point-in-time status snapshot.
    #[must_use]
    pub fn status(&self) -> PlatformStatus {
        let (pending, running, finished) = self.queue.census();
        PlatformStatus {
            now: self.clock,
            pending,
            running,
            finished,
            free_bundles: self.rm.free_bundles(),
            free_phones: PerGrade::from_fn(|g| self.rm.free_phones(g)),
            nodes: self.cluster.pool().len() as u64,
            ready_nodes: self.cluster.pool().ready_count() as u64,
        }
    }

    /// The phone manager (e.g. for fleet inspection).
    #[must_use]
    pub fn phones(&self) -> &PhoneMgr {
        &self.phones
    }

    /// Mutable access to the phone manager — the hook fleet-dynamics
    /// injectors (churn, stragglers, benchmark failures) use to perturb
    /// the fleet between scheduling passes, through the manager's write
    /// operations. The fleet's membership is fixed, so the Resource
    /// Manager's phone totals never change.
    pub fn phones_mut(&mut self) -> &mut PhoneMgr {
        &mut self.phones
    }

    /// The logical cluster.
    #[must_use]
    pub fn cluster(&self) -> &LogicalCluster {
        &self.cluster
    }

    /// Flushes the cluster's cost meter to the current clock and returns
    /// the total spend. The scenario-end billing point: a run ending
    /// mid-hour still pays for its final partial node-hour, so reported
    /// cost always equals billed node-seconds × the hourly rate.
    pub fn finalize_cost(&mut self) -> f64 {
        self.cluster.finalize_cost(self.clock)
    }

    /// The storage bandwidth account: bytes uploaded and published by
    /// every successfully planned task.
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// `mark_*` calls the task queue rejected because the task was
    /// already terminal — the clobber-attempt counter behind invariant
    /// oracle 3 ([`crate::invariants::clobber_violation`]).
    #[must_use]
    pub fn terminal_clobber_attempts(&self) -> u64 {
        self.queue.terminal_clobber_attempts()
    }

    /// Runs every post-run invariant oracle and returns the violations
    /// (empty on a healthy platform). Meant for a *drained* platform —
    /// nothing pending or running, [`Platform::finalize_cost`] already
    /// called (scenario runs do both before handing the platform back):
    ///
    /// 1. freeze/release pairing — free == total at idle, no lease or
    ///    placement group held;
    /// 2. capacity bounds — free ≤ total for bundles and every grade;
    /// 3. no terminal-state clobber — zero rejected terminal transitions;
    /// 4. billing reconciliation — reported spend equals billed
    ///    node-seconds × the hourly rate.
    ///
    /// The scenario fuzzer asserts this after every sampled spec; tests
    /// that want one oracle in isolation use [`crate::invariants`]
    /// directly.
    #[must_use]
    pub fn invariant_violations(&self) -> Vec<crate::invariants::InvariantViolation> {
        let mut violations = crate::invariants::capacity_violations(&self.rm);
        violations.extend(crate::invariants::idle_violations(
            &self.rm,
            self.cluster.active_jobs(),
        ));
        violations.extend(crate::invariants::clobber_violation(
            self.queue.terminal_clobber_attempts(),
        ));
        let stats = self.cluster.stats();
        violations.extend(crate::invariants::billing_violation(
            stats.cost_accrued,
            self.cluster.node_seconds(),
            self.cluster.cost().node_hourly_cost,
        ));
        violations
    }

    /// Test-harness fault injector: replays the pre-PR-3 starvation-sweep
    /// bug by attempting to fail *every* submitted task, including ones
    /// already in a terminal state. The `mark_*` guards reject the
    /// terminal transitions and the queue counts each attempt, so
    /// [`Platform::invariant_violations`] reports a `TerminalClobber`
    /// afterwards — this is how the fuzzer's shrinker test proves the
    /// oracle catches the regression. Pending tasks (none remain after a
    /// drained run) genuinely fail, exactly like the historical sweep.
    /// Returns the clobber attempts recorded so far.
    pub fn inject_terminal_clobber_fault(&mut self) -> u64 {
        for id in self.queue.all_ids() {
            let _ = self
                .queue
                .mark_failed(id, "injected fault: starvation sweep ignored task state");
        }
        self.queue.terminal_clobber_attempts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::AggregationTrigger;
    use crate::runner::EVALUATION_KEY_BYTES;
    use crate::spec::{AllocationPolicy, GradeRequirement};
    use simdc_data::GeneratorConfig;
    use simdc_ml::KernelKind;
    use simdc_types::{DeviceGrade, ResourceBundle};

    fn dataset() -> Arc<CtrDataset> {
        Arc::new(CtrDataset::generate(&GeneratorConfig {
            n_devices: 30,
            n_test_devices: 6,
            mean_records_per_device: 15.0,
            feature_dim: 1 << 12,
            seed: 77,
            ..GeneratorConfig::default()
        }))
    }

    fn small_spec(id: u64, priority: u32) -> TaskSpec {
        TaskSpec::builder(TaskId(id))
            .priority(priority)
            .rounds(2)
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 12,
                benchmark_phones: 1,
                logical_unit_bundles: 24,
                units_per_device: 8,
                phones: 3,
            })
            .trigger(AggregationTrigger::DeviceThreshold { min_devices: 12 })
            .seed(id)
            .build()
            .unwrap()
    }

    #[test]
    fn submit_and_run_single_task() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        platform.submit(small_spec(1, 0), data).unwrap();
        let completed = platform.run_until_idle();
        assert_eq!(completed, 1);
        let report = platform.report(TaskId(1)).unwrap();
        assert_eq!(report.rounds.len(), 2);
        assert!(matches!(
            platform.task_state(TaskId(1)),
            Some(TaskState::Completed { .. })
        ));
        let status = platform.status();
        assert_eq!(status.finished, 1);
        assert_eq!(status.free_bundles, 200);
    }

    #[test]
    fn taken_reports_leave_the_task_states_behind() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        platform.submit(small_spec(1, 0), data).unwrap();
        platform.run_until_idle();
        let reports = platform.take_reports();
        assert_eq!(reports.keys().copied().collect::<Vec<_>>(), [TaskId(1)]);
        assert!(platform.report(TaskId(1)).is_none());
        assert!(platform.take_reports().is_empty());
        assert!(matches!(
            platform.task_state(TaskId(1)),
            Some(TaskState::Completed { .. })
        ));
    }

    #[test]
    fn a_diverging_learning_rate_ends_the_task_instead_of_panicking() {
        let mut spec = small_spec(1, 0);
        spec.train = simdc_ml::TrainConfig {
            learning_rate: f32::MAX,
            epochs: 1,
        };
        spec.validate().unwrap();
        let mut platform = Platform::paper_default();
        platform.submit(spec, dataset()).unwrap();
        platform.run_until_idle();
        let state = platform.task_state(TaskId(1)).unwrap();
        assert!(state.is_terminal(), "{state:?}");
        assert!(platform.invariant_violations().is_empty());
    }

    #[test]
    fn multiple_tasks_complete_in_priority_order() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        platform.submit(small_spec(1, 1), data.clone()).unwrap();
        platform.submit(small_spec(2, 9), data.clone()).unwrap();
        platform.submit(small_spec(3, 5), data).unwrap();
        let completed = platform.run_until_idle();
        assert_eq!(completed, 3);
        for id in [1u64, 2, 3] {
            assert!(platform.report(TaskId(id)).is_some());
        }
    }

    /// FNV-1a 64-bit over `parts`, in order.
    fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in parts.into_iter().flat_map(str::bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Three tasks submitted before the first scheduling pass all admit in
    /// that one pass (priority order 2, 3, 1), so admission order decides
    /// which High phone each task's benchmark device binds and which
    /// completion event is pushed first. Reports, states, status and
    /// bytes written are pinned to the values the batched prepare →
    /// compute → merge admission produced before serial admission
    /// replaced it. The reports digest was re-pinned twice: when
    /// `PerfReport` stopped keeping a CPU and a memory series beside its
    /// samples (the old `Debug` strings with those two fields removed
    /// hash to the new value), and when each sample got a noise stream of
    /// its own (with `current_ua`, `voltage_mv`, `cpu_pct`, `mem_kb` and
    /// `power_mah` masked, the old and new strings hash alike).
    #[test]
    fn single_pass_admission_is_pinned() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        platform.submit(small_spec(1, 1), data.clone()).unwrap();
        platform.submit(small_spec(2, 9), data.clone()).unwrap();
        platform.submit(small_spec(3, 5), data).unwrap();
        assert_eq!(platform.run_until_idle(), 3);
        let reports: Vec<String> = [1u64, 2, 3]
            .iter()
            .map(|&id| format!("{:?}", platform.report(TaskId(id)).unwrap()))
            .collect();
        assert_eq!(
            fnv1a(reports.iter().map(String::as_str)),
            15_454_207_842_493_033_209,
            "task reports changed"
        );
        let states: Vec<String> = [1u64, 2, 3]
            .iter()
            .map(|&id| format!("{:?}", platform.task_state(TaskId(id)).unwrap()))
            .collect();
        assert_eq!(
            states,
            [
                "Completed { started_at: SimInstant(0), finished_at: SimInstant(129816147) }",
                "Completed { started_at: SimInstant(0), finished_at: SimInstant(129254008) }",
                "Completed { started_at: SimInstant(0), finished_at: SimInstant(127841020) }",
            ]
        );
        assert_eq!(
            format!("{:?}", platform.status()),
            "PlatformStatus { now: SimInstant(129816147), pending: 0, running: 0, finished: 3, \
             free_bundles: 200, free_phones: PerGrade { high: 17, low: 13 }, nodes: 4, \
             ready_nodes: 4 }"
        );
        assert_eq!(platform.storage().bytes_written(), 1_279_728);
    }

    #[test]
    fn infeasible_task_rejected_at_submit() {
        let mut platform = Platform::paper_default();
        let spec = TaskSpec::builder(TaskId(1))
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 10,
                benchmark_phones: 0,
                logical_unit_bundles: 10_000,
                units_per_device: 1,
                phones: 0,
            })
            .build()
            .unwrap();
        assert!(platform.submit(spec, dataset()).is_err());
    }

    #[test]
    fn duplicate_submission_rejected() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        platform.submit(small_spec(1, 0), data.clone()).unwrap();
        assert!(platform.submit(small_spec(1, 0), data).is_err());
    }

    /// A task needing more bundles than the booted capacity: the paper's
    /// elastic tier boots nodes instead of rejecting it, and the task
    /// *waits* through the boot latency rather than failing.
    fn surge_spec(id: u64, bundles: u64) -> TaskSpec {
        TaskSpec::builder(TaskId(id))
            .rounds(1)
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 50,
                benchmark_phones: 0,
                logical_unit_bundles: bundles,
                units_per_device: 8,
                phones: 0,
            })
            .trigger(AggregationTrigger::DeviceThreshold { min_devices: 50 })
            .seed(id)
            .build()
            .unwrap()
    }

    #[test]
    fn burst_task_waits_for_scale_up_instead_of_failing() {
        let mut platform = Platform::paper_default();
        let boot = platform.cluster().cost().node_boot;
        // 400 bundles > 200 ready, but within the 800-unit elastic
        // ceiling: accepted, queued, and admitted at the node-ready event.
        platform.submit(surge_spec(1, 400), dataset()).unwrap();
        let completed = platform.run_until_idle();
        assert_eq!(completed, 1);
        let Some(TaskState::Completed { started_at, .. }) = platform.task_state(TaskId(1)) else {
            panic!(
                "task must complete, got {:?}",
                platform.task_state(TaskId(1))
            );
        };
        assert!(
            *started_at >= SimInstant::EPOCH + boot,
            "placement must block for the boot latency, started at {started_at}"
        );
        assert!(platform.cluster_events() >= 1, "node-ready event processed");
        let stats = platform.cluster().stats();
        assert!(stats.peak_nodes > 4, "the pool scaled out: {stats:?}");
        assert!(stats.cost_accrued > 0.0, "node time was billed");
        // After the burst the autoscaler drained back to the floor: free
        // capacity equals ready capacity equals the initial 200 units.
        let status = platform.status();
        assert_eq!(status.free_bundles, 200, "{status:?}");
        assert_eq!(status.ready_nodes, 4, "surplus nodes drained: {status:?}");
    }

    #[test]
    fn budget_cap_bounds_the_elastic_ceiling() {
        use simdc_cluster::{AutoscalerConfig, ClusterConfig};
        let capped = |hourly: f64| {
            Platform::new(PlatformConfig {
                cluster: ClusterConfig {
                    autoscaler: AutoscalerConfig {
                        max_hourly_cost: Some(hourly),
                        ..AutoscalerConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                ..PlatformConfig::default()
            })
        };
        // A 4-node budget caps the ceiling at the initial 200 units: a
        // 400-bundle task could never run and is rejected at the door.
        let mut tight = capped(4.0);
        assert!(tight.submit(surge_spec(1, 400), dataset()).is_err());
        // A 6-node budget (300 units) admits a 250-bundle task — the pool
        // scales to the cap and no further.
        let mut loose = capped(6.0);
        loose.submit(surge_spec(2, 250), dataset()).unwrap();
        assert_eq!(loose.run_until_idle(), 1);
        let stats = loose.cluster().stats();
        assert!(
            stats.peak_nodes > 4 && stats.peak_nodes <= 6,
            "budget must bound the fleet: {stats:?}"
        );
    }

    /// Same-pass admission race regression: two tasks that each fit the
    /// empty pool individually are both picked in one pass, but the first
    /// one's acquisition fragments the nodes (four 30-unit actors leave
    /// 20 free units on each 50-unit node) so the second's single 40-unit
    /// actor no longer places. It must go back to pending and admit at a
    /// later capacity event — never fall through to `plan` and fail.
    #[test]
    fn fragmented_same_pass_admission_waits_instead_of_failing() {
        let spec = |id: u64, f: u64, k: u64, devices: u64| {
            TaskSpec::builder(TaskId(id))
                .rounds(1)
                .grade(GradeRequirement {
                    grade: DeviceGrade::High,
                    total_devices: devices,
                    benchmark_phones: 0,
                    logical_unit_bundles: f,
                    units_per_device: k,
                    phones: 0,
                })
                .trigger(AggregationTrigger::DeviceThreshold {
                    min_devices: devices,
                })
                .seed(id)
                .build()
                .unwrap()
        };
        let mut platform = Platform::paper_default();
        platform.submit(spec(1, 120, 30, 4), dataset()).unwrap();
        platform.submit(spec(2, 40, 40, 1), dataset()).unwrap();
        assert_eq!(platform.run_until_idle(), 2);
        for id in [1u64, 2] {
            assert!(
                matches!(
                    platform.task_state(TaskId(id)),
                    Some(TaskState::Completed { .. })
                ),
                "task {id} must complete, got {:?}",
                platform.task_state(TaskId(id))
            );
        }
    }

    #[test]
    fn concurrent_tasks_contend_for_cloud_capacity() {
        // Two 150-bundle tasks on 200 ready units: the first admits
        // immediately, the second blocks (capacity + fragmentation) until
        // scale-out or the first completion — never fails.
        let mut platform = Platform::paper_default();
        platform.submit(surge_spec(1, 150), dataset()).unwrap();
        platform.submit(surge_spec(2, 150), dataset()).unwrap();
        assert_eq!(platform.run_until_idle(), 2);
        for id in [1u64, 2] {
            assert!(
                matches!(
                    platform.task_state(TaskId(id)),
                    Some(TaskState::Completed { .. })
                ),
                "task {id}: {:?}",
                platform.task_state(TaskId(id))
            );
        }
    }

    /// Drain-then-burst regression: when queued demand is satisfied by
    /// *reclaiming* draining nodes (no boot), the platform must re-run
    /// placement at the reclaim instant. Before the `Reclaim` action
    /// existed, `assess` silently returned the nodes to service and
    /// reported `Hold`, so the burst sat pending until the next unrelated
    /// event — here the long tasks' completions, hundreds of virtual
    /// seconds later.
    #[test]
    fn reclaimed_drain_readmits_at_the_reclaim_instant() {
        use simdc_cluster::ClusterConfig;
        let spec = |id: u64, bundles: u64, k: u64, devices: u64, rounds: u32| {
            TaskSpec::builder(TaskId(id))
                .rounds(rounds)
                .grade(GradeRequirement {
                    grade: DeviceGrade::High,
                    total_devices: devices,
                    benchmark_phones: 0,
                    logical_unit_bundles: bundles,
                    units_per_device: k,
                    phones: 0,
                })
                .trigger(AggregationTrigger::DeviceThreshold {
                    min_devices: devices,
                })
                .seed(id)
                .build()
                .unwrap()
        };
        // Small 8-unit nodes so per-task actors land on distinct nodes
        // and a busy node can end up in the draining set.
        let mut platform = Platform::new(PlatformConfig {
            cluster: ClusterConfig {
                node_template: ResourceBundle::cores_gib(8, 8),
                initial_nodes: 1,
                max_nodes: 10,
                ..ClusterConfig::default()
            },
            ..PlatformConfig::default()
        });
        let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
        // Short 7-unit task fills the initial node; the pending rest
        // boots two more. After the boots: a long 2-unit task and a short
        // 5-unit task pack one node, the other long 2-unit task takes the
        // next. Once both short tasks finish, utilization drops below the
        // scale-in threshold and the autoscaler drains two nodes — one
        // idle (retires) and, by newest-first order, one still *busy*
        // with a long task (survives as draining).
        platform.submit(spec(1, 7, 7, 1, 3), dataset()).unwrap();
        platform.submit(spec(2, 2, 2, 1, 60), dataset()).unwrap();
        platform.submit(spec(3, 5, 5, 1, 3), dataset()).unwrap();
        platform.submit(spec(4, 2, 2, 1, 60), dataset()).unwrap();
        let done = |p: &Platform, id: u64| {
            matches!(p.task_state(TaskId(id)), Some(TaskState::Completed { .. }))
        };
        let mut probe = 0u64;
        while !(done(&platform, 1) && done(&platform, 3)) {
            probe += 25;
            assert!(probe < 1_000, "short tasks must finish well before 1000s");
            platform.run_until(t(probe));
        }
        let stats = platform.cluster().stats();
        assert!(
            stats.draining >= 1,
            "scale-in must leave a busy draining node: {stats:?}"
        );
        // Burst: two 4-unit actors need two ready nodes; only one is
        // ready, the other must come back from the draining set.
        let burst_at = platform.status().now + SimDuration::from_secs(10);
        platform.advance_clock_to(burst_at);
        platform.submit(spec(5, 8, 4, 2, 1), dataset()).unwrap();
        platform.run_until_idle();
        let Some(TaskState::Completed { started_at, .. }) = platform.task_state(TaskId(5)) else {
            panic!(
                "burst task must complete: {:?}",
                platform.task_state(TaskId(5))
            );
        };
        assert_eq!(
            *started_at, burst_at,
            "reclaimed capacity must admit the burst immediately, not at \
             the next unrelated completion event"
        );
        let stats = platform.cluster().stats();
        assert_eq!(stats.draining, 0, "the draining node was reclaimed");
    }

    #[test]
    fn advance_clock_never_goes_backwards() {
        let mut platform = Platform::paper_default();
        let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
        platform.advance_clock_to(t(50));
        assert_eq!(platform.status().now, t(50));
        platform.advance_clock_to(t(10));
        assert_eq!(platform.status().now, t(50));
    }

    /// A task's dataset is held only while the task is pending: whether it
    /// completed or failed at admission, the platform keeps no clone
    /// behind. (Starvation, the third way out of pending, has no known
    /// trigger on a fixed fleet: submit accepts only claims that fit the
    /// totals, and at idle every lease is back and the autoscaler can
    /// reach the ceiling `could_ever_place` checked.)
    #[test]
    fn no_dataset_outlives_the_pending_state() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        let high: Vec<_> = platform
            .phones()
            .phones()
            .iter()
            .filter(|p| p.grade() == DeviceGrade::High)
            .map(|p| p.id())
            .collect();
        let failure = |platform: &Platform, id: u64| match platform.task_state(TaskId(id)) {
            Some(TaskState::Failed { reason }) => reason.clone(),
            other => panic!("task {id} must have failed: {other:?}"),
        };
        let starved = "never became available";

        platform.submit(small_spec(1, 0), data.clone()).unwrap();
        assert_eq!(platform.run_until_idle(), 1);

        // Fails at admission: the claim fits the fleet totals, but with
        // every High phone crashed no benchmark phone is idle.
        platform.submit(small_spec(2, 0), data.clone()).unwrap();
        for &id in &high {
            platform
                .phones_mut()
                .inject_crash(id, SimInstant::EPOCH)
                .unwrap();
        }
        platform.run_until_idle();
        assert!(!failure(&platform, 2).contains(starved));

        assert_eq!(Arc::strong_count(&data), 1);
    }

    /// A plan can fail after it has counted bytes: this task is accepted
    /// at submit, publishes round 0's global model and then cannot launch
    /// an 8-unit actor from its 4 bundles. Only a successful plan charges
    /// the platform's account.
    #[test]
    fn failed_plan_charges_no_bytes() {
        let mut platform = Platform::paper_default();
        let spec = TaskSpec::builder(TaskId(1))
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 8,
                benchmark_phones: 0,
                logical_unit_bundles: 4,
                units_per_device: 8,
                phones: 0,
            })
            .allocation(AllocationPolicy::FixedLogicalFraction(1.0))
            .build()
            .unwrap();
        platform.submit(spec, dataset()).unwrap();
        platform.run_until_idle();
        assert_eq!(
            format!("{:?}", platform.task_state(TaskId(1)).unwrap()),
            "Failed { reason: \"invalid configuration: unit_bundles (4) must be >= \
             units_per_device (8) to launch an actor\" }"
        );
        assert_eq!(platform.storage().bytes_written(), 0);
    }

    /// A task stream for the round-0 memo, in blocks of four tasks on one
    /// dataset: two datasets of one shape, in the order A, B, A. Every
    /// task runs half on the cluster (server kernel) and half on phones
    /// (mobile kernel). In each block, the third task trains with the
    /// first task's config but with the other kernel on some of its
    /// shards, the second changes the learning rate only and the fourth
    /// the epochs only. Tasks run 1–3 rounds, and each block's third task
    /// has a dropout strategy, so its later rounds include devices its
    /// round 0 lost.
    fn memo_stream() -> (Vec<(TaskSpec, usize)>, [Arc<CtrDataset>; 2]) {
        let config = |learning_rate, epochs| simdc_ml::TrainConfig {
            learning_rate,
            epochs,
        };
        let configs = [config(0.05, 2), config(0.02, 2), config(0.05, 3)];
        let tasks = (0..12u64)
            .map(|i| {
                let high = [8, 16, 12, 20][(i % 4) as usize];
                let mut builder = TaskSpec::builder(TaskId(i + 1));
                builder
                    .rounds(1 + ((i / 2) % 3) as u32)
                    .grade(GradeRequirement {
                        grade: DeviceGrade::High,
                        total_devices: high,
                        benchmark_phones: 0,
                        logical_unit_bundles: 16,
                        units_per_device: 8,
                        phones: 3,
                    })
                    .grade(GradeRequirement {
                        grade: DeviceGrade::Low,
                        total_devices: 6,
                        benchmark_phones: 0,
                        logical_unit_bundles: 4,
                        units_per_device: 2,
                        phones: 2,
                    })
                    .allocation(AllocationPolicy::FixedLogicalFraction(0.5))
                    .train(configs[[0, 1, 0, 2][(i % 4) as usize]])
                    .trigger(AggregationTrigger::DeviceThreshold {
                        min_devices: high + 6,
                    })
                    .seed(i);
                if i % 4 == 2 {
                    builder
                        .strategy(simdc_deviceflow::DispatchStrategy::RealTimeAccumulated {
                            thresholds: vec![1],
                            failure_prob: 0.3,
                        })
                        .trigger(AggregationTrigger::Scheduled {
                            period: SimDuration::from_mins(10),
                        });
                }
                (builder.build().unwrap(), ((i / 4) % 2) as usize)
            })
            .collect();
        (tasks, [memo_dataset(11), memo_dataset(12)])
    }

    /// A small dataset for the round-0 memo streams; two seeds give two
    /// datasets of one shape.
    fn memo_dataset(seed: u64) -> Arc<CtrDataset> {
        Arc::new(CtrDataset::generate(&GeneratorConfig {
            n_devices: 10,
            n_test_devices: 4,
            mean_records_per_device: 8.0,
            feature_dim: 1 << 10,
            seed,
            ..GeneratorConfig::default()
        }))
    }

    /// Every bit of a report: its `Debug` text (which spells out every
    /// float, `-0.0` and NaN included) and its final model's bits.
    fn report_bits(report: &TaskReport) -> (String, Vec<u32>, u32) {
        let model = &report.final_model;
        let weights = model.weights().iter().map(|w| w.to_bits()).collect();
        (format!("{report:?}"), weights, model.bias().to_bits())
    }

    /// Runs `tasks` — each with the index of its dataset — one at a
    /// time, twice: once with every task of a dataset sharing its `Arc`,
    /// so each task after the first reuses what earlier ones trained and
    /// scored, and once with each task on its own copy of the dataset and
    /// a memo emptied before it, which reuses nothing across tasks
    /// whatever the memo's key or reset logic does. Checks that the two
    /// runs' reports are bit-equal and that each report's last evaluation
    /// is its final model's, scored afresh; returns the shared run's.
    fn shared_and_reference(
        tasks: &[(TaskSpec, usize)],
        datasets: &[Arc<CtrDataset>],
    ) -> Vec<TaskReport> {
        let run = |reuse: bool| {
            let mut platform = Platform::paper_default();
            for (spec, d) in tasks {
                let data = if reuse {
                    Arc::clone(&datasets[*d])
                } else {
                    platform.round_zero = RoundZeroMemo::default();
                    Arc::new((*datasets[*d]).clone())
                };
                platform.submit(spec.clone(), data).unwrap();
                assert_eq!(platform.run_until_idle(), 1);
            }
            let reports: Vec<TaskReport> = platform.take_reports().into_values().collect();
            for (report, (_, d)) in reports.iter().zip(tasks) {
                let fresh = simdc_ml::evaluate(&report.final_model, &datasets[*d].test);
                let last = report.rounds.last().unwrap().eval;
                assert_eq!(eval_bits(&last), eval_bits(&fresh), "{}", report.task);
            }
            reports
        };
        let (shared, reference) = (run(true), run(false));
        assert_eq!(shared.len(), tasks.len());
        for (shared, reference) in shared.iter().zip(&reference) {
            let same = report_bits(shared) == report_bits(reference);
            assert!(same, "{}'s report differs from the reference", shared.task);
        }
        shared
    }

    fn eval_bits(eval: &simdc_ml::EvalMetrics) -> (u64, u64, u64, usize) {
        (
            eval.accuracy.to_bits(),
            eval.log_loss.to_bits(),
            eval.auc.to_bits(),
            eval.n_examples,
        )
    }

    /// Reusing round-0 updates and evaluations across tasks changes no
    /// report ([`shared_and_reference`]).
    #[test]
    fn round_zero_reuse_is_exact() {
        let (tasks, datasets) = memo_stream();
        let shared = shared_and_reference(&tasks, &datasets);
        let both_kernels = shared.iter().flat_map(|r| &r.allocation.grades);
        assert!(both_kernels
            .into_iter()
            .all(|g| g.logical_devices > 0 && g.phone_devices > 0));
        let rounds = || shared.iter().flat_map(|r| &r.rounds);
        assert!(rounds().any(|r| r.round.0 > 0));
        assert!(rounds().any(|r| r.dropped_messages > 0));
    }

    /// Every part of the evaluation key is needed. Each case is a pair of
    /// tasks whose round-0 inclusion sequences agree in all but one part,
    /// and that part moves round 0's evaluation, so a key without it
    /// hands the second task the first one's score:
    /// - the kernel: one shard, on the cluster and then on a phone;
    /// - the learning rate;
    /// - the dataset: the same task on two datasets of one shape.
    ///
    /// A two-round phone task whose rounds include the same devices in
    /// the same order shows the memo must not answer after round 0. The
    /// order of the sequence is pinned by
    /// `evaluation_keys_keep_inclusion_order`.
    #[test]
    fn round_zero_evaluation_reuse_is_exact() {
        let task = |id: u64, devices: u64, logical: f64, learning_rate: f32| {
            TaskSpec::builder(TaskId(id))
                .rounds(1)
                .grade(GradeRequirement {
                    grade: DeviceGrade::High,
                    total_devices: devices,
                    benchmark_phones: 0,
                    logical_unit_bundles: 16,
                    units_per_device: 8,
                    phones: 3,
                })
                .allocation(AllocationPolicy::FixedLogicalFraction(logical))
                .train(simdc_ml::TrainConfig {
                    learning_rate,
                    epochs: 2,
                })
                .trigger(AggregationTrigger::DeviceThreshold {
                    min_devices: devices,
                })
                .seed(id)
                .build()
                .unwrap()
        };
        let mut two_rounds = task(5, 6, 0.0, 0.05);
        two_rounds.rounds = 2;
        let tasks = vec![
            (task(1, 1, 1.0, 0.05), 0),
            (task(2, 1, 0.0, 0.05), 0),
            (task(3, 1, 1.0, 0.02), 0),
            (task(4, 1, 1.0, 0.05), 1),
            (two_rounds, 0),
        ];
        let shared = shared_and_reference(&tasks, &[memo_dataset(11), memo_dataset(12)]);

        let round_zero = |i: usize| eval_bits(&shared[i].rounds[0].eval);
        for (part, first, second) in [("kernel", 0, 1), ("learning rate", 0, 2), ("dataset", 0, 3)]
        {
            assert_ne!(round_zero(first), round_zero(second), "{part}");
        }
        let phone_rounds = &shared[4].rounds;
        assert!(phone_rounds.iter().all(|r| r.included_updates == 6));
        assert_ne!(round_zero(4), eval_bits(&phone_rounds[1].eval));
    }

    /// The round-0 memo is bounded by the dataset, not the horizon: a
    /// second batch of the same tasks trains nothing new, and no batch
    /// holds more than shards × kernels × configs updates.
    #[test]
    fn the_round_zero_memo_stops_growing() {
        let mut platform = Platform::paper_default();
        let data = dataset();
        let mut batch = |first: u64| {
            for id in first..first + 4 {
                let mut spec = small_spec(id, 0);
                spec.allocation = AllocationPolicy::FixedLogicalFraction(0.5);
                platform.submit(spec, data.clone()).unwrap();
            }
            assert_eq!(platform.run_until_idle(), 4);
            platform.round_zero.len()
        };
        let after_n = batch(1);
        let after_2n = batch(5);
        assert!(after_n > 0);
        assert_eq!(after_2n, after_n);
        let (shards, kernels, configs) = (data.devices.len(), 2, 1);
        assert!(after_2n <= shards * kernels * configs, "{after_2n}");
    }

    /// The evaluation memo is bounded by key bytes, not by the horizon: a
    /// repeated batch of inclusion sequences adds no entry, a flood of
    /// distinct ones never holds more than `EVALUATION_KEY_BYTES` of keys,
    /// and a new dataset empties it.
    #[test]
    fn the_round_zero_evaluation_memo_is_bounded() {
        let data = dataset();
        let trainer = simdc_ml::LocalTrainer::new(simdc_ml::TrainConfig::default());
        let model = simdc_ml::LrModel::zeros(data.feature_dim);
        let mut memo = RoundZeroMemo::default();
        memo.bind(&data);
        // Synthetic 64-device sequences (the largest committed task size),
        // made distinct by their first shard: 65 words each.
        let sequence = |i: usize| {
            (0..64)
                .map(|d| (if d == 0 { i } else { d }, KernelKind::Mobile))
                .collect::<Vec<_>>()
        };
        let batch = |memo: &mut RoundZeroMemo, sequences: std::ops::Range<usize>| {
            for i in sequences {
                memo.evaluation(&trainer, &sequence(i), &model, &data);
                assert!(memo.evaluations_held().1 <= EVALUATION_KEY_BYTES);
            }
            memo.evaluations_held()
        };
        let first = batch(&mut memo, 0..8);
        assert_eq!(first, (8, 8 * 65 * 8));
        assert_eq!(batch(&mut memo, 0..8), first);
        let (held, bytes) = batch(&mut memo, 8..1000);
        assert_eq!(held, EVALUATION_KEY_BYTES / (65 * 8));
        assert_eq!(bytes, held * 65 * 8);
        memo.bind(&dataset());
        assert_eq!(memo.evaluations_held(), (0, 0));
    }

    /// Inclusion order is part of the evaluation key. `FedAvgFold` sums
    /// in `f64` and rounds to `f32` once, so on generated data two orders
    /// of one set of updates fold to the same bits; yet the fold reads
    /// them in order, so only an ordered key is exact. Here two sequences
    /// that differ only in order stand for two different models, and the
    /// second must be scored afresh.
    #[test]
    fn evaluation_keys_keep_inclusion_order() {
        let data = dataset();
        let trainer = simdc_ml::LocalTrainer::new(simdc_ml::TrainConfig::default());
        let zero = simdc_ml::LrModel::zeros(data.feature_dim);
        let trained = trainer
            .train(&zero, &data.devices[0].data, KernelKind::Server)
            .model;
        let mut memo = RoundZeroMemo::default();
        memo.bind(&data);
        let order = [(0, KernelKind::Server), (1, KernelKind::Server)];
        let reversed = [order[1], order[0]];
        let first = memo.evaluation(&trainer, &order, &trained, &data);
        let second = memo.evaluation(&trainer, &reversed, &zero, &data);
        assert_eq!(
            eval_bits(&first),
            eval_bits(&simdc_ml::evaluate(&trained, &data.test))
        );
        assert_eq!(
            eval_bits(&second),
            eval_bits(&simdc_ml::evaluate(&zero, &data.test))
        );
        assert_ne!(eval_bits(&first), eval_bits(&second));
    }

    #[test]
    fn status_reflects_queue() {
        let mut platform = Platform::paper_default();
        platform.submit(small_spec(1, 0), dataset()).unwrap();
        let before = platform.status();
        assert_eq!(before.pending, 1);
        platform.run_until_idle();
        let after = platform.status();
        assert_eq!(after.pending, 0);
        assert!(after.now > before.now);
    }
}
