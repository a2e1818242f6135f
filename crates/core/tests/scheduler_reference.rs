//! Differential test of the scheduling pass against a simpler model.
//!
//! [`GreedyScheduler::schedule_filtered`] decides whole claim-shape groups
//! of the queue's pending index at once. The reference here is the walk it
//! replaced — every pending task in `(priority desc, submission asc)`
//! order, frozen if its claim fits and the cloud filter agrees — over a
//! pending list the test keeps itself, so it shares neither the index nor
//! the merge with the subject. Both sides see the same submissions,
//! admissions, failures and releases; after every pass they must have
//! started the same tasks in the same order, asked the cloud filter about
//! the same tasks in the same order, and left the same free capacity.

use std::cmp::Reverse;

use proptest::prelude::*;
use simdc_core::scheduler::claim_for;
use simdc_core::{GradeRequirement, GreedyScheduler, ResourceManager, TaskQueue, TaskSpec};
use simdc_types::{DeviceGrade, PerGrade, SimInstant, TaskId};

/// `(unit bundles, high phones, low phones)`.
type Shape = (u64, u64, u64);

/// One step of the random schedule. Indices are taken modulo the live set
/// they select from.
#[derive(Debug, Clone)]
enum Op {
    /// Submit a task of this priority; `pick` selects its claim shape.
    Submit { priority: u32, pick: usize },
    /// Run one scheduling pass on both sides; `salt` seeds the cloud
    /// filter and what becomes of each started task.
    Pass { salt: u64 },
    /// Fail the pending task at this position of the scan order.
    FailPending(usize),
    /// Fail the running task at this index (its lease goes back).
    FailRunning(usize),
    /// Release the lease at this index.
    Release(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Twice, so the queue grows faster than the other ops drain it.
        (0u32..4, 0usize..64).prop_map(|(priority, pick)| Op::Submit { priority, pick }),
        (0u32..4, 0usize..64).prop_map(|(priority, pick)| Op::Submit { priority, pick }),
        (0u64..u64::MAX).prop_map(|salt| Op::Pass { salt }),
        (0usize..64).prop_map(Op::FailPending),
        (0usize..64).prop_map(Op::FailRunning),
        (0usize..64).prop_map(Op::Release),
    ]
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        proptest::Just((0u64, 0u64, 0u64)),
        (0u64..12, 0u64..3, 0u64..3)
    ]
}

fn spec(id: u64, priority: u32, (bundles, high, low): Shape) -> TaskSpec {
    let grade = |grade, logical_unit_bundles, phones| GradeRequirement {
        grade,
        total_devices: 10,
        benchmark_phones: 0,
        logical_unit_bundles,
        units_per_device: 1,
        phones,
    };
    TaskSpec::builder(TaskId(id))
        .priority(priority)
        .grade(grade(DeviceGrade::High, bundles, high))
        .grade(grade(DeviceGrade::Low, 0, low))
        .build()
        .expect("valid spec")
}

/// SplitMix64 finaliser: the deterministic coin behind the cloud filter.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference model's scan order: `pending` is in submission order, so
/// a stable sort by descending priority is `(priority desc, submission
/// asc)`.
fn scan_order(pending: &[TaskSpec]) -> Vec<&TaskSpec> {
    let mut order: Vec<&TaskSpec> = pending.iter().collect();
    order.sort_by_key(|spec| Reverse(spec.priority));
    order
}

/// The linear walk `schedule_filtered` replaced.
fn reference_pass(
    pending: &[TaskSpec],
    rm: &mut ResourceManager,
    mut cloud_fits: impl FnMut(&TaskSpec) -> bool,
) -> Vec<TaskId> {
    let mut started = Vec::new();
    for spec in scan_order(pending) {
        let claim = claim_for(spec);
        if !rm.fits(&claim) || !cloud_fits(spec) {
            continue;
        }
        if rm.freeze(spec.id, claim).is_ok() {
            started.push(spec.id);
        }
    }
    started
}

fn free(rm: &ResourceManager) -> Shape {
    (
        rm.free_bundles(),
        rm.free_phones(DeviceGrade::High),
        rm.free_phones(DeviceGrade::Low),
    )
}

proptest! {
    /// Not `distinct`: every claim comes from a palette of at most three
    /// shapes (the template-generated case, deep groups). `distinct`: the
    /// n-th submission claims `(n, n % 3, n % 2)`, so no two tasks share a
    /// group and the first claims nothing.
    #[test]
    fn grouped_pass_matches_the_linear_walk(
        (bundles, high, low) in (0u64..60, 0u64..6, 0u64..6),
        palette in proptest::collection::vec(shape_strategy(), 1..4),
        distinct in (0u8..2).prop_map(|coin| coin == 1),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let scheduler = GreedyScheduler::new();
        let mut queue = TaskQueue::new();
        let mut rm = ResourceManager::new(bundles, PerGrade::from_parts(high, low));
        // The reference side: its own pending list and its own manager.
        let mut ref_pending: Vec<TaskSpec> = Vec::new();
        let mut ref_rm = rm.clone();
        let mut submitted = 0u64;
        let mut running: Vec<TaskId> = Vec::new();
        let mut leased: Vec<TaskId> = Vec::new();

        for op in ops {
            match op {
                Op::Submit { priority, pick } => {
                    let shape = if distinct {
                        (submitted, submitted % 3, submitted % 2)
                    } else {
                        palette[pick % palette.len()]
                    };
                    let spec = spec(submitted, priority, shape);
                    submitted += 1;
                    queue.submit(spec.clone()).expect("fresh id");
                    ref_pending.push(spec);
                }
                Op::Pass { salt } => {
                    let cloud = |spec: &TaskSpec| mix(salt ^ spec.id.0) & 3 != 0;
                    let mut asked = Vec::new();
                    let started = scheduler.schedule_filtered(&queue, &mut rm, |spec| {
                        asked.push(spec.id);
                        cloud(spec)
                    });
                    let mut ref_asked = Vec::new();
                    let ref_started = reference_pass(&ref_pending, &mut ref_rm, |spec| {
                        ref_asked.push(spec.id);
                        cloud(spec)
                    });
                    prop_assert_eq!(&started, &ref_started, "started tasks differ");
                    prop_assert_eq!(asked, ref_asked, "cloud filter calls differ");
                    prop_assert_eq!(free(&rm), free(&ref_rm), "free capacity differs");
                    // What the platform's admit step may do with a started
                    // task: run it, refuse it (lease back, still pending),
                    // or — never in the platform, but legal for the two
                    // types — leave it pending with its lease held, which
                    // makes the next pass's freeze fail.
                    for id in started {
                        match mix(salt.wrapping_add(id.0)) % 8 {
                            0 => {
                                rm.release(id);
                                ref_rm.release(id);
                            }
                            1 => leased.push(id),
                            _ => {
                                queue.mark_running(id, SimInstant::EPOCH).expect("pending");
                                ref_pending.retain(|spec| spec.id != id);
                                running.push(id);
                                leased.push(id);
                            }
                        }
                    }
                }
                Op::FailPending(i) => {
                    if !ref_pending.is_empty() {
                        let id = scan_order(&ref_pending)[i % ref_pending.len()].id;
                        queue.mark_failed(id, "test").expect("pending");
                        ref_pending.retain(|spec| spec.id != id);
                    }
                }
                Op::FailRunning(i) => {
                    if !running.is_empty() {
                        let id = running.remove(i % running.len());
                        queue.mark_failed(id, "test").expect("running");
                        leased.retain(|&held| held != id);
                        rm.release(id);
                        ref_rm.release(id);
                    }
                }
                Op::Release(i) => {
                    if !leased.is_empty() {
                        let id = leased.remove(i % leased.len());
                        rm.release(id);
                        ref_rm.release(id);
                    }
                }
            }
            // The index holds exactly the reference's pending tasks, and
            // reports them in the reference's order.
            let order: Vec<TaskId> = scan_order(&ref_pending).iter().map(|s| s.id).collect();
            prop_assert_eq!(queue.pending_by_priority(), order);
            prop_assert_eq!(queue.census().0, ref_pending.len());
        }
    }
}
