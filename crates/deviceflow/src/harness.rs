//! A standalone event-loop harness for driving DeviceFlow without the full
//! platform (used by unit tests and the Fig 10 / Table II
//! experiments).

use simdc_simrt::{Engine, EngineCtx, RngStream, World};
use simdc_types::{Message, RoundId, SimInstant, TaskId};

use crate::controller::{DeliveredBatch, DeviceFlow, FlowEvent};

struct HarnessWorld {
    flow: DeviceFlow,
    rng: RngStream,
    delivered: Vec<DeliveredBatch>,
}

impl World for HarnessWorld {
    type Event = FlowEvent;
    fn handle(&mut self, ctx: &mut EngineCtx<'_, FlowEvent>, event: FlowEvent) {
        let (scheduled, delivered) = self.flow.on_event(ctx.now(), event, &mut self.rng);
        for (at, ev) in scheduled {
            ctx.schedule_at(at, ev);
        }
        self.delivered.extend(delivered);
    }
}

/// Drives a [`DeviceFlow`] on its own discrete-event engine.
#[derive(Debug)]
pub struct FlowHarness {
    engine: Engine<HarnessWorld>,
}

impl std::fmt::Debug for HarnessWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarnessWorld")
            .field("delivered", &self.delivered.len())
            .finish_non_exhaustive()
    }
}

impl FlowHarness {
    /// Wraps a controller and RNG stream.
    #[must_use]
    pub fn new(flow: DeviceFlow, rng: RngStream) -> Self {
        FlowHarness {
            engine: Engine::new(HarnessWorld {
                flow,
                rng,
                delivered: Vec::new(),
            }),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.engine.now()
    }

    /// Schedules a message ingestion at `at`.
    pub fn ingest_at(&mut self, at: SimInstant, message: Message) {
        self.engine.schedule_at(at, FlowEvent::Ingest(message));
    }

    /// Signals a round start at the current time.
    pub fn round_started(&mut self, task: TaskId, round: RoundId) {
        self.engine
            .schedule_at(self.engine.now(), FlowEvent::RoundStarted { task, round });
    }

    /// Schedules a round-completion signal at `at`.
    pub fn round_completed_at(&mut self, at: SimInstant, task: TaskId, round: RoundId) {
        self.engine
            .schedule_at(at, FlowEvent::RoundCompleted { task, round });
    }

    /// Runs until no events remain. Returns events executed.
    pub fn run(&mut self) -> u64 {
        self.engine.run()
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    ///
    /// Together with [`FlowHarness::next_event_at`] this lets a caller
    /// advance the flow *just* until some condition (e.g. an aggregation
    /// trigger) is met, without running the clock past it.
    pub fn step(&mut self) -> bool {
        self.engine.step()
    }

    /// Timestamp of the next pending event.
    #[must_use]
    pub fn next_event_at(&self) -> Option<SimInstant> {
        self.engine.next_event_at()
    }

    /// Runs events up to `deadline` and advances the clock there.
    pub fn run_until(&mut self, deadline: SimInstant) -> u64 {
        self.engine.run_until(deadline)
    }

    /// Everything delivered downstream so far, in delivery order.
    #[must_use]
    pub fn delivered(&self) -> &[DeliveredBatch] {
        &self.engine.world().delivered
    }

    /// The wrapped controller.
    #[must_use]
    pub fn flow(&self) -> &DeviceFlow {
        &self.engine.world().flow
    }

    /// Total messages delivered downstream.
    #[must_use]
    pub fn delivered_messages(&self) -> u64 {
        self.delivered()
            .iter()
            .map(|b| b.messages.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TrafficFunction;
    use crate::strategy::{DispatchStrategy, Dropout, TimeSpec};
    use simdc_simrt::pearson_correlation;
    use simdc_types::{DeviceId, MessageId, SimDuration, StorageKey};

    fn msg(i: u64, at: SimInstant) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(1),
            DeviceId(i),
            RoundId(0),
            10,
            StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
            at,
        )
    }

    #[test]
    fn end_to_end_interval_dispatch_tracks_curve() {
        let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
        let mut flow = DeviceFlow::new();
        flow.register_task(
            TaskId(1),
            DispatchStrategy::TimeInterval {
                function: function.clone(),
                domain,
                start: TimeSpec::Relative(SimDuration::ZERO),
                interval: SimDuration::from_secs(60),
                dropout: Dropout::NONE,
            },
        )
        .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(1));
        let t0 = SimInstant::EPOCH;
        for i in 0..10_000 {
            harness.ingest_at(t0, msg(i, t0));
        }
        harness.round_completed_at(t0 + SimDuration::from_micros(1), TaskId(1), RoundId(0));
        harness.run();
        assert_eq!(harness.delivered_messages(), 10_000);

        // Reconstruct per-point send amounts and compare against the curve.
        let sends: Vec<(f64, f64)> = harness
            .delivered()
            .iter()
            .map(|b| (b.at.as_secs_f64(), b.messages.len() as f64))
            .collect();
        let xs: Vec<f64> = sends
            .iter()
            .map(|&(t, _)| function.eval(domain.lerp(t / 60.0)))
            .collect();
        let ys: Vec<f64> = sends.iter().map(|&(_, y)| y).collect();
        let r = pearson_correlation(&xs, &ys);
        assert!(r > 0.99, "dispatch/curve correlation {r}");
        // All sends happen within the 60 s interval (plus epsilon).
        assert!(sends.iter().all(|&(t, _)| t <= 61.0));
    }

    #[test]
    fn realtime_sequence_cycles_until_task_done() {
        let mut flow = DeviceFlow::new();
        flow.register_task(
            TaskId(1),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![20, 100, 50],
                failure_prob: 0.0,
            },
        )
        .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(2));
        harness.round_started(TaskId(1), RoundId(0));
        let t0 = SimInstant::EPOCH;
        for i in 0..340 {
            harness.ingest_at(t0 + SimDuration::from_millis(i * 10), msg(i, t0));
        }
        harness.run();
        let sizes: Vec<usize> = harness
            .delivered()
            .iter()
            .map(|b| b.messages.len())
            .collect();
        // 340 = 20 + 100 + 50 + 20 + 100 + 50 (full double cycle).
        assert_eq!(sizes, vec![20, 100, 50, 20, 100, 50]);
    }

    #[test]
    fn dropout_probability_reduces_deliveries() {
        let mut flow = DeviceFlow::new();
        flow.register_task(
            TaskId(1),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![1],
                failure_prob: 0.9,
            },
        )
        .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(3));
        harness.round_started(TaskId(1), RoundId(0));
        let t0 = SimInstant::EPOCH;
        for i in 0..1_000 {
            harness.ingest_at(t0, msg(i, t0));
        }
        harness.run();
        let delivered = harness.delivered_messages();
        assert!(
            (60..140).contains(&delivered),
            "≈10% of 1000 should survive, got {delivered}"
        );
        let stats = harness.flow().stats(TaskId(1)).unwrap();
        assert_eq!(stats.dispatched + stats.dropped, 1_000);
    }
}
