//! The greedy task scheduler (§III-B).
//!
//! A pass starts every pending task whose resource claim fits, deciding
//! in `(priority desc, submission asc)` order — "prioritizing tasks that
//! meet resource requirements while maximizing the anticipated benefits".
//! It re-runs on every arrival and completion, so its cost must not grow
//! with the queue: the pass works on the queue's claim-shape groups and
//! costs O(shapes + visited · log shapes), where *visited* counts the
//! tasks whose claim fitted when their turn came — O(shapes) for a pass
//! that can admit nothing, however deep the queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simdc_types::{DeviceGrade, PerGrade, TaskId};

use crate::queue::TaskQueue;
use crate::resources::{ResourceClaim, ResourceManager};
use crate::spec::TaskSpec;

/// Derives a spec's resource claim: all requested unit bundles plus the
/// compute and benchmarking phones of every grade.
#[must_use]
pub fn claim_for(spec: &TaskSpec) -> ResourceClaim {
    let mut phones = PerGrade::new(0u64);
    let mut bundles = 0u64;
    for g in &spec.grades {
        bundles += g.logical_unit_bundles;
        *phones.get_mut(g.grade) += g.phones + g.benchmark_phones;
    }
    ResourceClaim {
        unit_bundles: bundles,
        phones,
    }
}

/// The greedy scheduler.
#[derive(Debug, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Creates a scheduler.
    #[must_use]
    pub fn new() -> Self {
        GreedyScheduler
    }

    /// Picks the pending tasks to start now, freezing their claims in
    /// priority order. Tasks that do not fit are skipped (a later, smaller
    /// task may still be admitted — classic greedy backfilling).
    pub fn schedule(&self, queue: &TaskQueue, rm: &mut ResourceManager) -> Vec<TaskId> {
        self.schedule_filtered(queue, rm, |_| true)
    }

    /// [`GreedyScheduler::schedule`] with a second resource dimension:
    /// `cloud_fits` answers whether the elastic cloud tier can physically
    /// place the task's actor bundles *right now* (ready nodes only,
    /// fragmentation included). A task whose quantities fit the Resource
    /// Manager but whose placement would block — capacity still booting,
    /// or free units fragmented across nodes — is skipped without
    /// freezing, staying pending until a node-ready or completion event
    /// re-runs the pass.
    ///
    /// The result is that of walking every pending task in scan order and
    /// freezing each whose claim fits and for which `cloud_fits` holds,
    /// but whole claim-shape groups are decided at once. Two facts make
    /// that exact: whether a task passes `rm.fits` depends on nothing but
    /// its claim, and free capacity only falls during a pass (the pass
    /// freezes, nothing releases). So a shape that does not fit — at the
    /// start, or at any head of its group later — fits for none of the
    /// group's remaining members, and the group is dropped unvisited. The
    /// surviving groups are merged by key through a heap of their heads;
    /// `cloud_fits` is asked for exactly the tasks the full walk would
    /// ask it for, in the same order.
    pub fn schedule_filtered(
        &self,
        queue: &TaskQueue,
        rm: &mut ResourceManager,
        mut cloud_fits: impl FnMut(&TaskSpec) -> bool,
    ) -> Vec<TaskId> {
        let mut groups = Vec::new();
        let mut heads = BinaryHeap::new();
        for (claim, members) in queue.pending_groups() {
            if rm.fits(claim) {
                let mut members = members.iter();
                if let Some(&head) = members.next() {
                    heads.push(Reverse((head, groups.len())));
                }
                groups.push((*claim, members));
            }
        }
        let mut started = Vec::new();
        while let Some(Reverse(((_, _, id), group))) = heads.pop() {
            let (claim, members) = &mut groups[group];
            if !rm.fits(claim) {
                continue;
            }
            let placeable = queue.get(id).is_some_and(|record| cloud_fits(&record.spec));
            if placeable && rm.freeze(id, *claim).is_ok() {
                started.push(id);
            }
            if let Some(&next) = members.next() {
                heads.push(Reverse((next, group)));
            }
        }
        started
    }

    /// Whether a spec could *ever* run on the given total capacity
    /// (ignoring current leases) — used to fail impossible tasks instead of
    /// starving them.
    #[must_use]
    pub fn feasible_at_all(
        &self,
        spec: &TaskSpec,
        total_bundles: u64,
        total_phones: PerGrade<u64>,
    ) -> bool {
        let claim = claim_for(spec);
        claim.unit_bundles <= total_bundles
            && DeviceGrade::ALL
                .iter()
                .all(|&g| *claim.phones.get(g) <= *total_phones.get(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GradeRequirement;
    use simdc_types::DeviceGrade;

    fn spec(id: u64, priority: u32, bundles: u64, phones: u64) -> TaskSpec {
        TaskSpec::builder(TaskId(id))
            .priority(priority)
            .grade(GradeRequirement {
                grade: DeviceGrade::High,
                total_devices: 10,
                benchmark_phones: 0,
                logical_unit_bundles: bundles,
                units_per_device: 1,
                phones,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn claim_sums_across_grades() {
        let mut b = TaskSpec::builder(TaskId(1));
        b.grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 10,
            benchmark_phones: 2,
            logical_unit_bundles: 40,
            units_per_device: 8,
            phones: 3,
        })
        .grade(GradeRequirement {
            grade: DeviceGrade::Low,
            total_devices: 10,
            benchmark_phones: 1,
            logical_unit_bundles: 10,
            units_per_device: 1,
            phones: 4,
        });
        let claim = claim_for(&b.build().unwrap());
        assert_eq!(claim.unit_bundles, 50);
        assert_eq!(claim.phones, PerGrade::from_parts(5, 5));
    }

    #[test]
    fn priority_wins_then_backfill() {
        let mut queue = TaskQueue::new();
        // 100-bundle capacity: the 80-bundle high-priority task starts, the
        // 50-bundle task does not fit, the 20-bundle task backfills.
        queue.submit(spec(1, 1, 50, 0)).unwrap();
        queue.submit(spec(2, 9, 80, 0)).unwrap();
        queue.submit(spec(3, 0, 20, 0)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::new(10));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(2), TaskId(3)]);
        assert_eq!(rm.free_bundles(), 0);
    }

    #[test]
    fn phone_shortage_blocks_admission() {
        let mut queue = TaskQueue::new();
        queue.submit(spec(1, 5, 10, 8)).unwrap();
        queue.submit(spec(2, 4, 10, 8)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::from_parts(10, 0));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(1)]);
        assert_eq!(rm.free_phones(DeviceGrade::High), 2);
    }

    #[test]
    fn zero_claim_specs_always_admitted() {
        // A spec asking for no bundles and no phones (pure bookkeeping
        // task) must be admitted even on a fully exhausted manager.
        let mut queue = TaskQueue::new();
        queue.submit(spec(1, 0, 100, 10)).unwrap();
        queue.submit(spec(2, 0, 0, 0)).unwrap();
        queue.submit(spec(3, 0, 0, 0)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::from_parts(10, 0));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(rm.free_bundles(), 0);
        // And the claim itself is genuinely zero.
        let claim = claim_for(&spec(9, 0, 0, 0));
        assert_eq!(claim.unit_bundles, 0);
        assert_eq!(claim.phones, PerGrade::new(0));
    }

    #[test]
    fn backfills_past_oversized_head_of_queue() {
        // Head of queue (highest priority) can never fit even an idle
        // manager of this size; everything behind it still gets admitted.
        let mut queue = TaskQueue::new();
        queue.submit(spec(1, 9, 500, 0)).unwrap(); // oversized head
        queue.submit(spec(2, 5, 60, 2)).unwrap();
        queue.submit(spec(3, 1, 40, 3)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::from_parts(10, 0));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(2), TaskId(3)]);
        assert_eq!(rm.free_bundles(), 0);
        assert_eq!(rm.free_phones(DeviceGrade::High), 5);
        // The head stays pending for the platform's starvation handling.
        assert!(queue.get(TaskId(1)).unwrap().state.is_pending());
    }

    #[test]
    fn equal_priority_ties_break_by_submission_order() {
        // Capacity for exactly one of the two equal-priority tasks: the
        // earlier submission wins, regardless of id order.
        let mut queue = TaskQueue::new();
        queue.submit(spec(7, 5, 80, 0)).unwrap(); // submitted first
        queue.submit(spec(2, 5, 80, 0)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::new(10));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(7)]);
        // Higher priority still beats earlier submission.
        let mut queue = TaskQueue::new();
        queue.submit(spec(7, 5, 80, 0)).unwrap();
        queue.submit(spec(2, 6, 80, 0)).unwrap();
        let mut rm = ResourceManager::new(100, PerGrade::new(10));
        let started = GreedyScheduler::new().schedule(&queue, &mut rm);
        assert_eq!(started, vec![TaskId(2)]);
    }

    #[test]
    fn schedule_on_empty_queue_is_a_no_op() {
        let queue = TaskQueue::new();
        let mut rm = ResourceManager::new(100, PerGrade::new(10));
        assert!(GreedyScheduler::new().schedule(&queue, &mut rm).is_empty());
        assert_eq!(rm.free_bundles(), 100);
    }

    #[test]
    fn feasibility_check_uses_total_capacity() {
        let s = GreedyScheduler::new();
        let big = spec(1, 0, 500, 0);
        assert!(!s.feasible_at_all(&big, 200, PerGrade::new(10)));
        assert!(s.feasible_at_all(&big, 500, PerGrade::new(0)));
        let phone_heavy = spec(2, 0, 10, 50);
        assert!(!s.feasible_at_all(&phone_heavy, 200, PerGrade::from_parts(10, 10)));
    }
}
