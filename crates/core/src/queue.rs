//! The task queue and task lifecycle states.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use simdc_types::{Result, SimInstant, SimdcError, TaskId};

use crate::resources::ResourceClaim;
use crate::scheduler::claim_for;
use crate::spec::TaskSpec;

/// Lifecycle state of a submitted task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskState {
    /// Waiting in the queue.
    Pending,
    /// Resources frozen, executing.
    Running {
        /// Virtual start time.
        started_at: SimInstant,
    },
    /// Finished successfully.
    Completed {
        /// Virtual start time.
        started_at: SimInstant,
        /// Virtual completion time.
        finished_at: SimInstant,
    },
    /// Failed (message explains why).
    Failed {
        /// Failure description.
        reason: String,
    },
}

impl TaskState {
    /// Whether the task still occupies queue capacity.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        matches!(self, TaskState::Pending)
    }

    /// Whether the task reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Completed { .. } | TaskState::Failed { .. })
    }
}

/// A live (pending or running) task: spec + state + submission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The specification.
    pub spec: TaskSpec,
    /// Current lifecycle state: `Pending` or `Running`, never terminal.
    pub state: TaskState,
    /// Monotonic submission sequence (FIFO tie-break).
    pub submitted_seq: u64,
}

/// Index key ordering pending tasks by `(priority desc, submission asc)`.
/// The submission sequence is unique, so the order is total.
pub(crate) type PendingKey = (Reverse<u32>, u64, TaskId);

impl TaskRecord {
    fn pending_key(&self) -> PendingKey {
        (
            Reverse(self.spec.priority),
            self.submitted_seq,
            self.spec.id,
        )
    }
}

/// The Task Queue of §III-B: ordered by priority (descending) with FIFO
/// tie-break.
///
/// Pending tasks are indexed by *claim shape*: `pending` maps each
/// [`ResourceClaim`] some pending task derives (see [`claim_for`]) to the
/// keys of the tasks that derive it, in scan order. Admission arithmetic
/// depends on a task only through its claim, so a scheduling pass decides
/// once per shape instead of once per task (see
/// [`crate::GreedyScheduler::schedule_filtered`]). A key enters its group
/// on submit and leaves on the transition out of `Pending`; a group is
/// dropped with its last member, so the map holds live shapes only.
///
/// A task that reaches a terminal state leaves `records` for `finished`,
/// which keeps only its submission sequence and terminal [`TaskState`]:
/// the spec is dropped, so a long run retains one small entry per
/// finished task. [`TaskQueue::get`] answers live tasks only;
/// [`TaskQueue::state`] answers every id ever submitted.
#[derive(Debug, Default)]
pub struct TaskQueue {
    /// Live tasks: pending or running.
    records: BTreeMap<TaskId, TaskRecord>,
    /// Tasks in a terminal state.
    finished: BTreeMap<TaskId, FinishedTask>,
    pending: BTreeMap<ResourceClaim, BTreeSet<PendingKey>>,
    next_seq: u64,
    /// `mark_*` calls that tried to transition a task already in a
    /// terminal state. The guards reject every such call, so healthy code
    /// never increments this — the invariant oracles
    /// (`crate::invariants::clobber_violation`) assert it stays zero.
    terminal_clobber_attempts: u64,
}

/// What the queue keeps of a task after it reached a terminal state.
#[derive(Debug)]
struct FinishedTask {
    submitted_seq: u64,
    state: TaskState,
}

impl TaskQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        TaskQueue::default()
    }

    /// Submits a validated spec.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` on duplicate ids (live or finished) or
    /// propagates spec validation errors.
    pub fn submit(&mut self, spec: TaskSpec) -> Result<()> {
        spec.validate()?;
        if self.records.contains_key(&spec.id) || self.finished.contains_key(&spec.id) {
            return Err(SimdcError::InvalidConfig(format!(
                "task {} already submitted",
                spec.id
            )));
        }
        let record = TaskRecord {
            spec,
            state: TaskState::Pending,
            submitted_seq: self.next_seq,
        };
        self.next_seq += 1;
        self.pending
            .entry(claim_for(&record.spec))
            .or_default()
            .insert(record.pending_key());
        self.records.insert(record.spec.id, record);
        Ok(())
    }

    /// Takes a record leaving the `Pending` state out of the index,
    /// dropping its group if it was the last member.
    fn unindex(pending: &mut BTreeMap<ResourceClaim, BTreeSet<PendingKey>>, record: &TaskRecord) {
        if let Entry::Occupied(mut group) = pending.entry(claim_for(&record.spec)) {
            group.get_mut().remove(&record.pending_key());
            if group.get().is_empty() {
                group.remove();
            }
        }
    }

    /// The record of a live (pending or running) task. A finished task
    /// has no record: its spec is dropped when it reaches a terminal
    /// state, and [`TaskQueue::state`] answers for it.
    ///
    /// There is no public mutable record access: the pending index is
    /// keyed by the spec's claim, priority and id, so out-of-band mutation
    /// of a record's spec or state would silently desync it. Every
    /// lifecycle transition goes through the `mark_*` methods, which
    /// maintain the index. Assigning a state through the shared borrow
    /// does not compile (E0594 "cannot assign to data in a `&`
    /// reference"):
    ///
    /// ```compile_fail,E0594
    /// use simdc_core::{TaskQueue, TaskState};
    /// use simdc_types::TaskId;
    ///
    /// let q = TaskQueue::new();
    /// q.get(TaskId(1)).expect("submitted").state = TaskState::Pending;
    /// ```
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&TaskRecord> {
        self.records.get(&id)
    }

    /// The lifecycle state of any submitted task, live or finished.
    #[must_use]
    pub fn state(&self, id: TaskId) -> Option<&TaskState> {
        match self.records.get(&id) {
            Some(record) => Some(&record.state),
            None => self.finished.get(&id).map(|task| &task.state),
        }
    }

    /// Pending tasks ordered by `(priority desc, submission asc)` — the
    /// order the greedy scheduler admits in. Gathers and sorts every
    /// pending key, O(n log n): for whole-queue sweeps (starvation
    /// handling, tests), not for the per-event scheduling pass.
    #[must_use]
    pub fn pending_by_priority(&self) -> Vec<TaskId> {
        let mut keys: Vec<PendingKey> = self.pending.values().flatten().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, _, id)| id).collect()
    }

    /// The pending index: every live claim shape with the keys of the
    /// pending tasks deriving it, each group in scan order and non-empty.
    pub(crate) fn pending_groups(
        &self,
    ) -> impl Iterator<Item = (&ResourceClaim, &BTreeSet<PendingKey>)> {
        self.pending.iter()
    }

    /// Number of tasks in each broad state: `(pending, running, terminal)`.
    #[must_use]
    pub fn census(&self) -> (usize, usize, usize) {
        let pending: usize = self.pending.values().map(BTreeSet::len).sum();
        (pending, self.records.len() - pending, self.finished.len())
    }

    /// `mark_*` calls rejected because the task was already terminal — the
    /// clobber-attempt counter the invariant oracles assert stays zero
    /// (see [`crate::invariants::clobber_violation`]).
    #[must_use]
    pub fn terminal_clobber_attempts(&self) -> u64 {
        self.terminal_clobber_attempts
    }

    /// Refuses a transition of a finished task, counting the attempt.
    fn refuse_finished(&mut self, id: TaskId, refusal: &str) -> Result<()> {
        if self.finished.contains_key(&id) {
            self.terminal_clobber_attempts += 1;
            return Err(SimdcError::InvalidConfig(format!("task {id} {refusal}")));
        }
        Ok(())
    }

    /// Moves a live task to `finished` in `state`, dropping its spec.
    fn finish(&mut self, record: TaskRecord, state: TaskState) {
        let finished = FinishedTask {
            submitted_seq: record.submitted_seq,
            state,
        };
        self.finished.insert(record.spec.id, finished);
    }

    /// Marks a task running.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::TaskNotFound`] for unknown ids and
    /// `InvalidConfig` when the task is not pending.
    pub fn mark_running(&mut self, id: TaskId, at: SimInstant) -> Result<()> {
        self.refuse_finished(id, "is not pending")?;
        let record = self
            .records
            .get_mut(&id)
            .ok_or(SimdcError::TaskNotFound(id))?;
        if !record.state.is_pending() {
            return Err(SimdcError::InvalidConfig(format!(
                "task {id} is not pending"
            )));
        }
        Self::unindex(&mut self.pending, record);
        record.state = TaskState::Running { started_at: at };
        Ok(())
    }

    /// Marks a running task completed.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::TaskNotFound`] / `InvalidConfig` analogous to
    /// [`TaskQueue::mark_running`].
    pub fn mark_completed(&mut self, id: TaskId, at: SimInstant) -> Result<()> {
        self.refuse_finished(id, "is not running")?;
        let Entry::Occupied(live) = self.records.entry(id) else {
            return Err(SimdcError::TaskNotFound(id));
        };
        let TaskState::Running { started_at } = live.get().state else {
            return Err(SimdcError::InvalidConfig(format!(
                "task {id} is not running"
            )));
        };
        let record = live.remove();
        self.finish(
            record,
            TaskState::Completed {
                started_at,
                finished_at: at,
            },
        );
        Ok(())
    }

    /// Marks a task failed from any non-terminal state.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::TaskNotFound`] for unknown ids and
    /// `InvalidConfig` for tasks already in a terminal state — a
    /// `Completed` (or `Failed`) task is immutable history and must not
    /// be clobbered.
    pub fn mark_failed(&mut self, id: TaskId, reason: impl Into<String>) -> Result<()> {
        self.refuse_finished(id, "is already terminal")?;
        let record = self
            .records
            .remove(&id)
            .ok_or(SimdcError::TaskNotFound(id))?;
        if record.state.is_pending() {
            Self::unindex(&mut self.pending, &record);
        }
        self.finish(
            record,
            TaskState::Failed {
                reason: reason.into(),
            },
        );
        Ok(())
    }

    /// All task ids, live and finished, in submission order.
    #[must_use]
    pub fn all_ids(&self) -> Vec<TaskId> {
        let live = self.records.values().map(|r| (r.submitted_seq, r.spec.id));
        let finished = self.finished.iter().map(|(id, f)| (f.submitted_seq, *id));
        let mut ids: Vec<(u64, TaskId)> = live.chain(finished).collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GradeRequirement;
    use simdc_types::DeviceGrade;

    fn spec(id: u64, priority: u32) -> TaskSpec {
        TaskSpec::builder(TaskId(id))
            .priority(priority)
            .grade(GradeRequirement::sized(DeviceGrade::High, 4))
            .build()
            .unwrap()
    }

    #[test]
    fn priority_order_with_fifo_tiebreak() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 5)).unwrap();
        q.submit(spec(2, 9)).unwrap();
        q.submit(spec(3, 5)).unwrap();
        assert_eq!(
            q.pending_by_priority(),
            vec![TaskId(2), TaskId(1), TaskId(3)]
        );
    }

    #[test]
    fn duplicate_submission_rejected() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 0)).unwrap();
        assert!(q.submit(spec(1, 3)).is_err());
    }

    #[test]
    fn lifecycle_transitions() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 0)).unwrap();
        let t0 = SimInstant::EPOCH;
        q.mark_running(TaskId(1), t0).unwrap();
        assert!(matches!(
            q.get(TaskId(1)).unwrap().state,
            TaskState::Running { .. }
        ));
        assert!(q.mark_running(TaskId(1), t0).is_err());
        let t1 = t0 + simdc_types::SimDuration::from_secs(5);
        q.mark_completed(TaskId(1), t1).unwrap();
        assert!(q.state(TaskId(1)).unwrap().is_terminal());
        assert!(q.mark_completed(TaskId(1), t1).is_err());
        assert_eq!(q.census(), (0, 0, 1));
    }

    #[test]
    fn failing_a_pending_task() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 0)).unwrap();
        q.mark_failed(TaskId(1), "resources never became available")
            .unwrap();
        assert!(q.state(TaskId(1)).unwrap().is_terminal());
        assert!(q.mark_failed(TaskId(9), "x").is_err());
        assert!(q.pending_by_priority().is_empty(), "failed task left index");
    }

    #[test]
    fn mark_failed_rejects_terminal_states() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 0)).unwrap();
        q.mark_running(TaskId(1), SimInstant::EPOCH).unwrap();
        let t1 = SimInstant::EPOCH + simdc_types::SimDuration::from_secs(5);
        q.mark_completed(TaskId(1), t1).unwrap();
        // A completed record must not be clobbered to Failed.
        assert!(q.mark_failed(TaskId(1), "late failure").is_err());
        assert!(matches!(
            q.state(TaskId(1)),
            Some(TaskState::Completed { .. })
        ));
        // Failed is terminal too: no double-fail with a new reason.
        q.submit(spec(2, 0)).unwrap();
        q.mark_failed(TaskId(2), "first reason").unwrap();
        assert!(q.mark_failed(TaskId(2), "second reason").is_err());
        match q.state(TaskId(2)).unwrap() {
            TaskState::Failed { reason } => assert_eq!(reason, "first reason"),
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn a_finished_task_keeps_its_state_but_not_its_record() {
        let mut q = TaskQueue::new();
        q.submit(spec(1, 0)).unwrap();
        q.submit(spec(2, 0)).unwrap();
        q.mark_running(TaskId(1), SimInstant::EPOCH).unwrap();
        let t1 = SimInstant::EPOCH + simdc_types::SimDuration::from_secs(5);
        q.mark_completed(TaskId(1), t1).unwrap();
        q.mark_failed(TaskId(2), "boom").unwrap();
        for id in [TaskId(1), TaskId(2)] {
            assert!(q.get(id).is_none(), "finished task {id} kept its spec");
            assert!(q.state(id).unwrap().is_terminal());
        }
        assert!(q.state(TaskId(3)).is_none());
        // A finished id stays taken.
        assert!(q.submit(spec(1, 0)).is_err());
        assert!(q.submit(spec(2, 0)).is_err());
        // Every transition of a finished task is refused and counted.
        assert!(q.mark_running(TaskId(1), t1).is_err());
        assert!(q.mark_completed(TaskId(2), t1).is_err());
        assert!(q.mark_failed(TaskId(1), "late").is_err());
        assert_eq!(q.terminal_clobber_attempts(), 3);
        // An unknown id is not a clobber.
        assert!(q.mark_failed(TaskId(9), "x").is_err());
        assert_eq!(q.terminal_clobber_attempts(), 3);
        assert_eq!(q.census(), (0, 0, 2));
        assert_eq!(q.all_ids(), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn pending_index_tracks_state_transitions() {
        let mut q = TaskQueue::new();
        for (id, priority) in [(1u64, 3u32), (2, 7), (3, 7), (4, 1)] {
            q.submit(spec(id, priority)).unwrap();
        }
        assert_eq!(
            q.pending_by_priority(),
            vec![TaskId(2), TaskId(3), TaskId(1), TaskId(4)]
        );
        q.mark_running(TaskId(3), SimInstant::EPOCH).unwrap();
        assert_eq!(
            q.pending_by_priority(),
            vec![TaskId(2), TaskId(1), TaskId(4)]
        );
        q.mark_failed(TaskId(1), "boom").unwrap();
        assert_eq!(q.pending_by_priority(), vec![TaskId(2), TaskId(4)]);
        assert_eq!(q.census().0, 2);
    }

    /// `(claim's high phones, member ids in scan order)` per group.
    fn groups(q: &TaskQueue) -> Vec<(u64, Vec<u64>)> {
        q.pending_groups()
            .map(|(claim, members)| {
                let ids = members.iter().map(|&(_, _, id)| id.0).collect();
                (claim.phones.high, ids)
            })
            .collect()
    }

    /// [`spec`] claiming `phones` high phones instead of four.
    fn sized(id: u64, priority: u32, phones: u64) -> TaskSpec {
        let mut spec = spec(id, priority);
        spec.grades[0].phones = phones;
        spec
    }

    #[test]
    fn pending_order_is_global_across_claim_shapes() {
        // Two shapes interleaved in priority and submission order: the
        // groups split them, the global order is what one flat index gave.
        let mut q = TaskQueue::new();
        for (id, priority, phones) in [(1, 3, 4), (2, 7, 2), (3, 7, 4), (4, 1, 2), (5, 3, 2)] {
            q.submit(sized(id, priority, phones)).unwrap();
        }
        assert_eq!(groups(&q), vec![(2, vec![2, 5, 4]), (4, vec![3, 1])]);
        let order: Vec<u64> = q.pending_by_priority().iter().map(|id| id.0).collect();
        assert_eq!(order, vec![2, 3, 1, 5, 4]);
        assert_eq!(q.census().0, 5);
    }

    #[test]
    fn a_group_leaves_with_its_last_member() {
        let mut q = TaskQueue::new();
        q.submit(sized(1, 0, 4)).unwrap();
        q.submit(sized(2, 0, 2)).unwrap();
        q.submit(sized(3, 0, 2)).unwrap();
        assert_eq!(groups(&q), vec![(2, vec![2, 3]), (4, vec![1])]);
        // Last member marked running: the shape is gone, not left empty.
        q.mark_running(TaskId(1), SimInstant::EPOCH).unwrap();
        assert_eq!(groups(&q), vec![(2, vec![2, 3])]);
        // A group with members left stays.
        q.mark_failed(TaskId(2), "boom").unwrap();
        assert_eq!(groups(&q), vec![(2, vec![3])]);
        // Last member failed: gone as well, and the index is empty.
        q.mark_failed(TaskId(3), "boom").unwrap();
        assert_eq!(groups(&q), vec![]);
        assert_eq!(q.census(), (0, 1, 2));
    }

    #[test]
    fn failing_a_running_task_leaves_the_index_untouched() {
        let mut q = TaskQueue::new();
        q.submit(sized(1, 0, 4)).unwrap();
        q.submit(sized(2, 0, 4)).unwrap();
        q.mark_running(TaskId(1), SimInstant::EPOCH).unwrap();
        let before = groups(&q);
        q.mark_failed(TaskId(1), "failed at commit").unwrap();
        assert_eq!(groups(&q), before);
        assert_eq!(before, vec![(4, vec![2])]);
        assert_eq!(q.census(), (1, 0, 1));
    }

    #[test]
    fn census_counts_states() {
        let mut q = TaskQueue::new();
        for i in 0..4 {
            q.submit(spec(i, 0)).unwrap();
        }
        q.mark_running(TaskId(0), SimInstant::EPOCH).unwrap();
        q.mark_failed(TaskId(1), "boom").unwrap();
        assert_eq!(q.census(), (2, 1, 1));
        assert_eq!(q.all_ids().len(), 4);
    }
}
