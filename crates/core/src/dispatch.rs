//! Task admission as prepare → compute → merge, with a deterministic
//! merge.
//!
//! The plan phases of tasks admitted in one scheduling pass are
//! independent *except* for four pieces of shared state: benchmark-phone
//! selection, placement-group acquisition, the cluster's actor-id counter,
//! and shared storage. Admission is split into three steps around that
//! observation — `prepare` runs per task from the platform's scheduling
//! pass (interleaved with its placement re-trials and resource
//! bookkeeping), then `compute_and_merge` fans the expensive part out and
//! commits:
//!
//! 1. **Prepare (serial, admission order)** — for each task: validate,
//!    allocate, bind benchmark devices to phones with a reserved-phone
//!    overlay (so task B skips the phones task A picked, although A's runs
//!    are only submitted at merge), acquire placement groups, and reserve
//!    the task's actor-id block. Everything order-dependent happens here.
//! 2. **Compute (pool)** — the pool maps `compute_one` over the prepared
//!    tasks: the full round timeline (`TaskRunner::plan_timeline`) against
//!    a shared `&LogicalCluster`, the profiles frozen at prepare time and
//!    a private scratch [`Storage`] that carries each round's updates from
//!    the devices to the aggregator and counts the bytes written. This is
//!    the expensive part — local training, DeviceFlow routing, aggregation
//!    — and it mutates no shared state at all.
//! 3. **Merge (serial, admission order)** — scratch stores fold into
//!    shared storage (every round swept its own updates, so what moves is
//!    the write count), the benchmark runs are submitted, and the caller
//!    pushes each task's completion event in admission order, so the
//!    event queue assigns `(time, seq)` pairs that do not depend on the
//!    pool width.
//!
//! A task whose plan fails in compute or merge gives its placement groups
//! back at merge, after every placement re-trial of the pass has run: a
//! later task whose placement only fits in the failed task's absence waits
//! for the next scheduling pass.
//!
//! There is no other admission path: [`TaskRunner::plan`] is the same
//! three steps for one task, and a one-thread pool (or a one-task batch)
//! runs compute inline, so `--threads` changes the pool width and nothing
//! else — verified end-to-end by the workload crate's thread-parity
//! scenario tests.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use minipool::FixedPool;
use simdc_cluster::{LogicalCluster, PlacementGroupId};
use simdc_data::CtrDataset;
use simdc_phone::{PhoneMgr, PhoneProfile, RunPlan};
use simdc_simrt::RngStream;
use simdc_types::{PerGrade, PhoneId, Result, SimInstant, TaskId};

use crate::alloc::Allocation;
use crate::cloud::Storage;
use crate::runner::{GradePlacement, TaskPlan, TaskReport, TaskRunner};
use crate::spec::TaskSpec;

/// A task that survived the prepare step: placement bound, groups
/// acquired, actor ids reserved, profiles frozen. With the task's spec
/// and dataset it is everything compute needs besides a shared
/// `&LogicalCluster`.
pub(crate) struct Prepared {
    /// The admission instant the plan starts from.
    pub(crate) start: SimInstant,
    pub(crate) allocation: Allocation,
    pub(crate) placements: Vec<GradePlacement>,
    /// The placement group of each grade (`None`: no logical devices).
    pub(crate) grade_groups: Vec<Option<PlacementGroupId>>,
    /// First actor id of the task's reserved block.
    pub(crate) next_actor: u64,
    /// Fleet-averaged profile per grade, frozen at prepare time (tasks
    /// admitted in one pass cannot change profiles).
    pub(crate) effective: PerGrade<PhoneProfile>,
    /// Each bound benchmark phone's own profile at prepare time (the
    /// nominal grade profile for a phone the fleet does not know).
    pub(crate) bench_profiles: BTreeMap<PhoneId, PhoneProfile>,
}

impl Prepared {
    /// The benchmark phones this task has bound — the caller adds them to
    /// the reserved-phone overlay before preparing the next task, because
    /// their runs are only submitted at merge.
    pub(crate) fn reserved_phones(&self) -> impl Iterator<Item = PhoneId> + '_ {
        self.bench_profiles.keys().copied()
    }
}

/// What compute hands back to the merge step.
pub(crate) struct Computed {
    /// The task's placement groups: held by the final [`TaskPlan`], or
    /// released at merge when the plan failed.
    groups: Vec<PlacementGroupId>,
    /// The store the rounds went through (dropped with a failed plan).
    scratch: Storage,
    /// The planned report and the benchmark runs to submit, in
    /// reservation order.
    planned: Result<(TaskReport, Vec<(PhoneId, RunPlan)>)>,
}

/// The serial prepare step for one task: allocation, device placement
/// against the fleet minus `reserved`, group acquisition, and the
/// actor-id block its compute step will draw from.
pub(crate) fn prepare(
    runner: &TaskRunner,
    spec: &TaskSpec,
    start: SimInstant,
    cluster: &mut LogicalCluster,
    phones: &PhoneMgr,
    reserved: &BTreeSet<PhoneId>,
) -> Result<Prepared> {
    spec.validate()?;
    let allocation = runner.plan_allocation(spec, cluster)?;
    let placements = TaskRunner::place_devices(spec, &allocation, phones, start, reserved)?;
    TaskRunner::check_phone_grades(spec, &placements, phones)?;
    // One group per grade with logical devices, acquired at admission and
    // held for the task's whole lifetime: every round re-uses it, and the
    // platform releases it at the completion event — which is what makes
    // cloud capacity contention real across concurrent tasks.
    let grade_groups = TaskRunner::acquire_grade_groups(spec, &placements, cluster)?;

    // The block of actor ids this task's rounds will consume: one id per
    // group placement per round.
    let per_round: u64 = grade_groups
        .iter()
        .flatten()
        .map(|pg| cluster.group_size(*pg).unwrap_or(0) as u64)
        .sum();
    let next_actor = cluster.reserve_actor_ids(u64::from(spec.rounds) * per_round);

    let effective = PerGrade::from_fn(|g| phones.effective_profile(g));
    let mut bench_profiles = BTreeMap::new();
    for (g, placement) in spec.grades.iter().zip(&placements) {
        for &(_dev, phone) in &placement.benchmark_devices {
            let profile = phones
                .phone(phone)
                .map_or_else(|| PhoneProfile::for_grade(g.grade), |p| p.profile().clone());
            bench_profiles.insert(phone, profile);
        }
    }

    Ok(Prepared {
        start,
        allocation,
        placements,
        grade_groups,
        next_actor,
        effective,
        bench_profiles,
    })
}

/// The compute step for one task: the full round timeline against the
/// prepared state and a scratch store. Runs on a pool worker.
pub(crate) fn compute_one(
    runner: &TaskRunner,
    cluster: &LogicalCluster,
    spec: &TaskSpec,
    dataset: &CtrDataset,
    p: Prepared,
) -> Computed {
    // The label is formatted from the task id, which the queue guarantees
    // unique — two tasks can never alias a stream, and the seed is
    // per-task as well.
    let mut rng = RngStream::named(spec.seed, &format!("task/{}", spec.id.0));
    let mut scratch = Storage::new();
    let groups = p.grade_groups.iter().flatten().copied().collect();
    let planned = runner.plan_timeline(spec, dataset, cluster, &mut scratch, p, &mut rng);
    Computed {
        groups,
        scratch,
        planned,
    }
}

/// The serial merge step for one task: fold the scratch store into shared
/// storage, submit the benchmark runs, and assemble the [`TaskPlan`]. On
/// any failure — in compute or submitting here — the task's groups are
/// released (earlier submissions of the same task stand).
pub(crate) fn merge_one(
    computed: Computed,
    cluster: &mut LogicalCluster,
    phones: &mut PhoneMgr,
    storage: &mut Storage,
) -> Result<TaskPlan> {
    let Computed {
        groups,
        scratch,
        planned,
    } = computed;
    let merged = planned.and_then(|(report, runs)| {
        storage.absorb(scratch);
        let mut benchmark_phones = Vec::with_capacity(runs.len());
        for (phone, run) in runs {
            phones.submit_run(phone, run)?;
            benchmark_phones.push(phone);
        }
        Ok((report, benchmark_phones))
    });
    match merged {
        Ok((report, benchmark_phones)) => Ok(TaskPlan::assemble(report, benchmark_phones, groups)),
        Err(err) => {
            for pg in groups {
                cluster.release_job(pg);
            }
            Err(err)
        }
    }
}

/// Maps the compute step over every prepared task on `pool` and merges
/// the results back in admission order. Returns one `(task, result)` per
/// prepared task, in the given order — the caller turns each `Ok` into a
/// completion event and each `Err` into the task's failure. On a task's
/// failure its placement groups are already released; other tasks keep
/// theirs.
pub(crate) fn compute_and_merge(
    runner: &TaskRunner,
    prepared: Vec<(TaskSpec, Arc<CtrDataset>, Prepared)>,
    cluster: &mut LogicalCluster,
    phones: &mut PhoneMgr,
    storage: &mut Storage,
    pool: &FixedPool,
) -> Vec<(TaskId, Result<TaskPlan>)> {
    let shared: &LogicalCluster = cluster;
    let computed = pool.run_batch(prepared, |(spec, dataset, p)| {
        (spec.id, compute_one(runner, shared, &spec, &dataset, p))
    });
    computed
        .into_iter()
        .map(|(id, c)| (id, merge_one(c, cluster, phones, storage)))
        .collect()
}
