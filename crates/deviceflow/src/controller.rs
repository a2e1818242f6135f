//! The DeviceFlow controller: one record per task behind the harness's
//! event loop.

use std::collections::BTreeMap;

use simdc_simrt::{EngineCtx, RngStream};
use simdc_types::{Message, Result, RoundId, SimInstant, SimdcError, TaskId};

use crate::dispatcher::Dispatcher;
use crate::strategy::{DispatchStrategy, Dropout};

/// Events DeviceFlow reacts to on the [`crate::FlowHarness`] engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FlowEvent {
    /// A device→cloud message arrived from a computation cluster.
    Ingest(Message),
    /// A task's round began (activates real-time strategies).
    RoundStarted { task: TaskId, round: RoundId },
    /// A task's round finished on the compute side (activates rule-based
    /// strategies).
    RoundCompleted { task: TaskId, round: RoundId },
    /// A scheduled send came due: up to `count` of the task's shelved
    /// messages, under `dropout`.
    DispatchDue {
        task: TaskId,
        count: u64,
        dropout: Dropout,
    },
}

/// A batch DeviceFlow released to the downstream cloud service.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveredBatch {
    /// The owning task.
    pub task: TaskId,
    /// Release time.
    pub at: SimInstant,
    /// Surviving messages.
    pub messages: Vec<Message>,
    /// Messages lost to dropout simulation.
    pub dropped: u64,
}

/// Per-task traffic statistics.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Messages received from compute clusters.
    pub received: u64,
    /// Messages delivered downstream.
    pub dispatched: u64,
    /// Messages dropped by dropout simulation.
    pub dropped: u64,
}

/// The device-behavior traffic controller (Fig 4).
#[derive(Debug, Default)]
pub struct DeviceFlow {
    tasks: BTreeMap<TaskId, Dispatcher>,
}

impl DeviceFlow {
    /// Creates a controller; every task dispatches at
    /// [`crate::DEFAULT_CAPACITY_PER_SEC`].
    #[must_use]
    pub fn new() -> Self {
        DeviceFlow::default()
    }

    /// Registers a task's dispatch strategy (stored in the Strategy module
    /// of Fig 4).
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidStrategy`] for invalid strategies or a
    /// duplicate registration.
    pub fn register_task(&mut self, task: TaskId, strategy: DispatchStrategy) -> Result<()> {
        if self.tasks.contains_key(&task) {
            return Err(SimdcError::InvalidStrategy(format!(
                "task {task} already has a strategy registered"
            )));
        }
        strategy.validate()?;
        self.tasks.insert(task, Dispatcher::new(strategy));
        Ok(())
    }

    /// Routes one event to its task's record (Fig 4's Sorter). A message
    /// for an unregistered task is dropped: no strategy would release it.
    pub(crate) fn on_event(
        &mut self,
        ctx: &mut EngineCtx<'_, FlowEvent>,
        event: FlowEvent,
        rng: &mut RngStream,
        log: &mut Vec<DeliveredBatch>,
    ) {
        let task = match &event {
            FlowEvent::Ingest(message) => message.task,
            FlowEvent::RoundStarted { task, .. }
            | FlowEvent::RoundCompleted { task, .. }
            | FlowEvent::DispatchDue { task, .. } => *task,
        };
        if let Some(dispatcher) = self.tasks.get_mut(&task) {
            dispatcher.on_event(ctx, event, rng, log);
        }
    }

    /// Statistics of a task, if registered.
    #[must_use]
    pub fn stats(&self, task: TaskId) -> Option<&FlowStats> {
        self.tasks.get(&task).map(|d| &d.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{TimePointRule, TimeSpec};
    use crate::FlowHarness;
    use simdc_types::{DeviceId, MessageId, SimDuration, StorageKey};

    fn msg(task: u64, i: u64, at: SimInstant) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(task),
            DeviceId(i),
            RoundId(0),
            10,
            StorageKey::for_update(TaskId(task), RoundId(0), DeviceId(i)),
            at,
        )
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    /// `(task, release time, message ids)` of every delivered batch.
    fn batches(harness: &FlowHarness) -> Vec<(TaskId, SimInstant, Vec<u64>)> {
        harness
            .delivered()
            .iter()
            .map(|b| (b.task, b.at, b.messages.iter().map(|m| m.id.0).collect()))
            .collect()
    }

    #[test]
    fn register_rejects_duplicates_and_invalid() {
        let mut flow = DeviceFlow::new();
        flow.register_task(TaskId(1), DispatchStrategy::immediate())
            .unwrap();
        assert!(flow
            .register_task(TaskId(1), DispatchStrategy::immediate())
            .is_err());
        assert!(flow
            .register_task(
                TaskId(2),
                DispatchStrategy::RealTimeAccumulated {
                    thresholds: vec![],
                    failure_prob: 0.0
                }
            )
            .is_err());
        assert!(flow.stats(TaskId(2)).is_none());
    }

    #[test]
    fn immediate_strategy_forwards_each_message() {
        let mut flow = DeviceFlow::new();
        flow.register_task(TaskId(1), DispatchStrategy::immediate())
            .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(1));
        harness.round_started(TaskId(1), RoundId(0));
        harness.ingest_at(t(0), msg(1, 0, t(0)));
        harness.run();
        assert_eq!(batches(&harness), vec![(TaskId(1), t(0), vec![0])]);
        let stats = harness.flow().stats(TaskId(1)).unwrap();
        assert_eq!(stats.received, 1);
        assert_eq!(stats.dispatched, 1);
    }

    #[test]
    fn unregistered_task_messages_are_dropped() {
        let mut flow = DeviceFlow::new();
        flow.register_task(TaskId(1), DispatchStrategy::immediate())
            .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(2));
        harness.round_started(TaskId(9), RoundId(0));
        harness.ingest_at(t(0), msg(9, 0, t(0)));
        harness.round_completed_at(t(1), TaskId(9), RoundId(0));
        assert_eq!(harness.run(), 3);
        assert!(harness.delivered().is_empty());
        assert!(harness.flow().stats(TaskId(9)).is_none());
        assert_eq!(harness.flow().stats(TaskId(1)).unwrap().received, 0);
    }

    #[test]
    fn tasks_are_isolated() {
        let mut flow = DeviceFlow::new();
        for task in [1, 2] {
            flow.register_task(
                TaskId(task),
                DispatchStrategy::RealTimeAccumulated {
                    thresholds: vec![2],
                    failure_prob: 0.0,
                },
            )
            .unwrap();
        }
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(3));
        harness.round_started(TaskId(1), RoundId(0));
        harness.round_started(TaskId(2), RoundId(0));
        // One message per task: neither reaches its threshold of 2.
        harness.ingest_at(t(0), msg(1, 0, t(0)));
        harness.ingest_at(t(0), msg(2, 1, t(0)));
        harness.run();
        assert!(harness.delivered().is_empty());
        // Task 1's second message triggers only task 1's dispatcher.
        harness.ingest_at(t(1), msg(1, 2, t(1)));
        harness.run();
        assert_eq!(batches(&harness), vec![(TaskId(1), t(1), vec![0, 2])]);
        let other = harness.flow().stats(TaskId(2)).unwrap();
        assert_eq!((other.received, other.dispatched), (1, 0));
    }

    #[test]
    fn round_completed_schedules_due_events() {
        let mut flow = DeviceFlow::new();
        flow.register_task(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![TimePointRule {
                    at: TimeSpec::Relative(SimDuration::from_secs(3)),
                    count: 1,
                    dropout: Dropout::NONE,
                }],
            },
        )
        .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(4));
        harness.ingest_at(t(0), msg(1, 0, t(0)));
        harness.round_completed_at(t(0), TaskId(1), RoundId(0));
        // The completion only schedules the send.
        harness.run_until(t(2));
        assert!(harness.delivered().is_empty());
        harness.run();
        assert_eq!(batches(&harness), vec![(TaskId(1), t(3), vec![0])]);
    }
}
