//! The DeviceFlow controller: Sorter + per-task Dispatchers behind one
//! event-driven façade.

use std::collections::BTreeMap;

use simdc_simrt::{Counter, RngStream};
use simdc_types::{Message, Result, RoundId, SimInstant, SimdcError, TaskId};

use crate::dispatcher::{DispatchBatch, Dispatcher};
use crate::shelf::Shelf;
use crate::sorter::Sorter;
use crate::strategy::DispatchStrategy;
use crate::DEFAULT_CAPACITY_PER_SEC;

/// Events DeviceFlow reacts to. The composition root (platform or
/// [`crate::FlowHarness`]) owns the event queue; DeviceFlow returns
/// follow-up events to schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowEvent {
    /// A device→cloud message arrived from a computation cluster.
    Ingest(Message),
    /// A task's round began (activates real-time strategies).
    RoundStarted {
        /// The task.
        task: TaskId,
        /// The starting round.
        round: RoundId,
    },
    /// A task's round finished on the compute side (activates rule-based
    /// strategies).
    RoundCompleted {
        /// The task.
        task: TaskId,
        /// The finished round.
        round: RoundId,
    },
    /// A scheduled dispatch for `task` came due.
    DispatchDue {
        /// The task.
        task: TaskId,
        /// Dispatcher-local sequence number.
        seq: u64,
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
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Messages received from compute clusters.
    pub received: u64,
    /// Messages delivered downstream.
    pub dispatched: u64,
    /// Messages dropped by dropout simulation.
    pub dropped: u64,
    /// Cumulative dispatch history (for Fig 10-style plots).
    pub send_history: Counter,
}

impl FlowStats {
    fn new(task: TaskId) -> Self {
        FlowStats {
            received: 0,
            dispatched: 0,
            dropped: 0,
            send_history: Counter::new(format!("{task}/dispatched")),
        }
    }
}

/// The device-behavior traffic controller (Fig 4).
#[derive(Debug, Default)]
pub struct DeviceFlow {
    sorter: Sorter,
    dispatchers: BTreeMap<TaskId, Dispatcher>,
    stats: BTreeMap<TaskId, FlowStats>,
}

impl DeviceFlow {
    /// Creates a controller; every task dispatches at
    /// [`DEFAULT_CAPACITY_PER_SEC`].
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
        if self.dispatchers.contains_key(&task) {
            return Err(SimdcError::InvalidStrategy(format!(
                "task {task} already has a strategy registered"
            )));
        }
        let dispatcher = Dispatcher::new(task, strategy, DEFAULT_CAPACITY_PER_SEC)?;
        self.sorter.ensure_shelf(task);
        self.dispatchers.insert(task, dispatcher);
        self.stats.insert(task, FlowStats::new(task));
        Ok(())
    }

    /// Removes a finished task's dispatcher and shelf state, returning its
    /// final statistics.
    pub fn deregister_task(&mut self, task: TaskId) -> Option<FlowStats> {
        self.dispatchers.remove(&task);
        self.sorter.remove(task);
        self.stats.remove(&task)
    }

    /// Handles one event, returning `(events to schedule, batches released
    /// downstream)`.
    pub fn on_event(
        &mut self,
        now: SimInstant,
        event: FlowEvent,
        rng: &mut RngStream,
    ) -> (Vec<(SimInstant, FlowEvent)>, Vec<DeliveredBatch>) {
        match event {
            FlowEvent::Ingest(message) => self.on_ingest(now, message, rng),
            FlowEvent::RoundStarted { task, round } => self.on_round_started(now, task, round, rng),
            FlowEvent::RoundCompleted { task, round } => self.on_round_completed(now, task, round),
            FlowEvent::DispatchDue { task, seq } => self.on_due(now, task, seq, rng),
        }
    }

    fn on_ingest(
        &mut self,
        now: SimInstant,
        message: Message,
        rng: &mut RngStream,
    ) -> (Vec<(SimInstant, FlowEvent)>, Vec<DeliveredBatch>) {
        let task = message.task;
        self.sorter.route(message);
        if let Some(stats) = self.stats.get_mut(&task) {
            stats.received += 1;
        }
        let Some(dispatcher) = self.dispatchers.get_mut(&task) else {
            return (Vec::new(), Vec::new());
        };
        let shelf = self
            .sorter
            .shelf_mut(task)
            .expect("route created the shelf");
        let batches = dispatcher.on_ingest(now, shelf, rng);
        (Vec::new(), self.record_batches(task, batches))
    }

    fn on_round_started(
        &mut self,
        now: SimInstant,
        task: TaskId,
        round: RoundId,
        rng: &mut RngStream,
    ) -> (Vec<(SimInstant, FlowEvent)>, Vec<DeliveredBatch>) {
        let Some(dispatcher) = self.dispatchers.get_mut(&task) else {
            return (Vec::new(), Vec::new());
        };
        let shelf = self.sorter.ensure_shelf(task);
        let batches = dispatcher.on_round_started(now, round, shelf, rng);
        (Vec::new(), self.record_batches(task, batches))
    }

    fn on_round_completed(
        &mut self,
        now: SimInstant,
        task: TaskId,
        round: RoundId,
    ) -> (Vec<(SimInstant, FlowEvent)>, Vec<DeliveredBatch>) {
        let Some(dispatcher) = self.dispatchers.get_mut(&task) else {
            return (Vec::new(), Vec::new());
        };
        let shelf = self.sorter.ensure_shelf(task);
        match dispatcher.on_round_completed(now, round, shelf) {
            Ok(due) => (
                due.into_iter()
                    .map(|(at, seq)| (at, FlowEvent::DispatchDue { task, seq }))
                    .collect(),
                Vec::new(),
            ),
            Err(_) => (Vec::new(), Vec::new()),
        }
    }

    fn on_due(
        &mut self,
        now: SimInstant,
        task: TaskId,
        seq: u64,
        rng: &mut RngStream,
    ) -> (Vec<(SimInstant, FlowEvent)>, Vec<DeliveredBatch>) {
        let Some(dispatcher) = self.dispatchers.get_mut(&task) else {
            return (Vec::new(), Vec::new());
        };
        let shelf = self.sorter.ensure_shelf(task);
        let (batch, followups) = dispatcher.on_due(now, seq, shelf, rng);
        let scheduled = followups
            .into_iter()
            .map(|(at, seq)| (at, FlowEvent::DispatchDue { task, seq }))
            .collect();
        let delivered = match batch {
            Some(b) => self.record_batches(task, vec![b]),
            None => Vec::new(),
        };
        (scheduled, delivered)
    }

    fn record_batches(&mut self, task: TaskId, batches: Vec<DispatchBatch>) -> Vec<DeliveredBatch> {
        let mut delivered = Vec::with_capacity(batches.len());
        for b in batches {
            delivered.push(DeliveredBatch {
                task,
                at: b.at,
                messages: b.messages,
                dropped: b.dropped,
            });
        }
        if let Some(stats) = self.stats.get_mut(&task) {
            for b in &delivered {
                stats.dispatched += b.messages.len() as u64;
                stats.dropped += b.dropped;
                stats.send_history.add(b.at, b.messages.len() as u64);
            }
        }
        delivered
    }

    /// The shelf of a task, if it exists.
    #[must_use]
    pub fn shelf(&self, task: TaskId) -> Option<&Shelf> {
        self.sorter.shelf(task)
    }

    /// Statistics of a task, if registered.
    #[must_use]
    pub fn stats(&self, task: TaskId) -> Option<&FlowStats> {
        self.stats.get(&task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::{DeviceId, MessageId, StorageKey};

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
    }

    #[test]
    fn immediate_strategy_forwards_each_message() {
        let mut flow = DeviceFlow::new();
        let mut rng = RngStream::from_seed(1);
        flow.register_task(TaskId(1), DispatchStrategy::immediate())
            .unwrap();
        let t0 = SimInstant::EPOCH;
        flow.on_event(
            t0,
            FlowEvent::RoundStarted {
                task: TaskId(1),
                round: RoundId(0),
            },
            &mut rng,
        );
        let (sched, delivered) = flow.on_event(t0, FlowEvent::Ingest(msg(1, 0, t0)), &mut rng);
        assert!(sched.is_empty());
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].messages.len(), 1);
        let stats = flow.stats(TaskId(1)).unwrap();
        assert_eq!(stats.received, 1);
        assert_eq!(stats.dispatched, 1);
    }

    #[test]
    fn unregistered_tasks_buffer_without_dispatch() {
        let mut flow = DeviceFlow::new();
        let mut rng = RngStream::from_seed(2);
        let (sched, delivered) = flow.on_event(
            SimInstant::EPOCH,
            FlowEvent::Ingest(msg(9, 0, SimInstant::EPOCH)),
            &mut rng,
        );
        assert!(sched.is_empty());
        assert!(delivered.is_empty());
        assert_eq!(flow.shelf(TaskId(9)).unwrap().len(), 1);
        assert!(flow.stats(TaskId(9)).is_none());
    }

    #[test]
    fn tasks_are_isolated() {
        let mut flow = DeviceFlow::new();
        let mut rng = RngStream::from_seed(3);
        flow.register_task(
            TaskId(1),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![2],
                failure_prob: 0.0,
            },
        )
        .unwrap();
        flow.register_task(
            TaskId(2),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![2],
                failure_prob: 0.0,
            },
        )
        .unwrap();
        let t0 = SimInstant::EPOCH;
        for task in [1u64, 2] {
            flow.on_event(
                t0,
                FlowEvent::RoundStarted {
                    task: TaskId(task),
                    round: RoundId(0),
                },
                &mut rng,
            );
        }
        // One message per task: neither reaches its threshold of 2.
        let (_, d1) = flow.on_event(t0, FlowEvent::Ingest(msg(1, 0, t0)), &mut rng);
        let (_, d2) = flow.on_event(t0, FlowEvent::Ingest(msg(2, 1, t0)), &mut rng);
        assert!(d1.is_empty() && d2.is_empty());
        // Task 1's second message triggers only task 1's dispatcher.
        let (_, d3) = flow.on_event(t0, FlowEvent::Ingest(msg(1, 2, t0)), &mut rng);
        assert_eq!(d3.len(), 1);
        assert_eq!(d3[0].task, TaskId(1));
        assert_eq!(flow.shelf(TaskId(2)).unwrap().len(), 1);
    }

    #[test]
    fn round_completed_schedules_due_events() {
        use crate::strategy::{Dropout, TimePointRule, TimeSpec};
        let mut flow = DeviceFlow::new();
        let mut rng = RngStream::from_seed(4);
        flow.register_task(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![TimePointRule {
                    at: TimeSpec::Relative(simdc_types::SimDuration::from_secs(3)),
                    count: 1,
                    dropout: Dropout::NONE,
                }],
            },
        )
        .unwrap();
        let t0 = SimInstant::EPOCH;
        flow.on_event(t0, FlowEvent::Ingest(msg(1, 0, t0)), &mut rng);
        let (sched, delivered) = flow.on_event(
            t0,
            FlowEvent::RoundCompleted {
                task: TaskId(1),
                round: RoundId(0),
            },
            &mut rng,
        );
        assert!(delivered.is_empty());
        assert_eq!(sched.len(), 1);
        let (at, ev) = &sched[0];
        assert_eq!(*at, t0 + simdc_types::SimDuration::from_secs(3));
        // Fire it.
        let (_, delivered) = flow.on_event(*at, ev.clone(), &mut rng);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].messages.len(), 1);
    }

    /// Deregistering takes the shelf along, undelivered messages included.
    #[test]
    fn deregister_returns_final_stats() {
        let mut flow = DeviceFlow::new();
        let mut rng = RngStream::from_seed(5);
        let strategy = DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1, 2],
            failure_prob: 0.0,
        };
        flow.register_task(TaskId(1), strategy).unwrap();
        let t0 = SimInstant::EPOCH;
        flow.on_event(
            t0,
            FlowEvent::RoundStarted {
                task: TaskId(1),
                round: RoundId(0),
            },
            &mut rng,
        );
        flow.on_event(t0, FlowEvent::Ingest(msg(1, 0, t0)), &mut rng);
        flow.on_event(t0, FlowEvent::Ingest(msg(1, 1, t0)), &mut rng);
        assert_eq!(flow.shelf(TaskId(1)).unwrap().len(), 1);
        let stats = flow.deregister_task(TaskId(1)).unwrap();
        assert_eq!((stats.received, stats.dispatched), (2, 1));
        assert!(flow.stats(TaskId(1)).is_none());
        assert!(flow.shelf(TaskId(1)).is_none());
    }
}
