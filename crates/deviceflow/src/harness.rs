//! DeviceFlow on its own discrete-event engine: the delivery stage between
//! device upload and the cloud trigger.
//!
//! A task runner feeds a round in (round start, ingests, round
//! completion) and hands [`FlowHarness::deliver_round`] to
//! `simdc_core::cloud::resolve_round`, the one trigger evaluator. The
//! deliveries are produced lazily: the engine advances only when the
//! evaluator asks for the next message, so the clock stops at the
//! aggregation instant. The Fig 10 / Fig 11 experiments, the examples and
//! the unit tests drive the harness directly.
//!
//! Each event goes to its task's record in the [`DeviceFlow`], which
//! schedules follow-up sends on this engine and appends each batch it
//! releases to the harness's delivery log.

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
        self.flow
            .on_event(ctx, event, &mut self.rng, &mut self.delivered);
    }
}

/// Drives a [`DeviceFlow`] on its own discrete-event engine.
#[derive(Debug)]
pub struct FlowHarness {
    engine: Engine<HarnessWorld>,
    /// `(batch, message)` position in `delivered` of the next message
    /// [`FlowHarness::deliver_round`] has not looked at.
    cursor: (usize, usize),
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
            cursor: (0, 0),
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

    /// Runs events up to `deadline` and advances the clock there.
    pub fn run_until(&mut self, deadline: SimInstant) -> u64 {
        self.engine.run_until(deadline)
    }

    /// `round`'s messages as they are delivered, each with its release
    /// time, up to `horizon`.
    ///
    /// Lazy: an event runs only when every message delivered so far has
    /// been handed out, and never one past `horizon`. Once nothing more can
    /// be delivered by `horizon` the clock moves there. Dropping the
    /// iterator early — the trigger fired — leaves the clock at the last
    /// message's release time. Each delivered message is looked at once
    /// across all calls; other rounds' messages are skipped.
    pub fn deliver_round(&mut self, round: RoundId, horizon: SimInstant) -> RoundDeliveries<'_> {
        RoundDeliveries {
            harness: self,
            round,
            horizon,
        }
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

/// The lazy delivery stream of [`FlowHarness::deliver_round`].
#[derive(Debug)]
pub struct RoundDeliveries<'a> {
    harness: &'a mut FlowHarness,
    round: RoundId,
    horizon: SimInstant,
}

impl Iterator for RoundDeliveries<'_> {
    type Item = (SimInstant, Message);

    fn next(&mut self) -> Option<(SimInstant, Message)> {
        let h = &mut *self.harness;
        loop {
            let (batch, msg) = h.cursor;
            let Some(b) = h.engine.world().delivered.get(batch) else {
                // Everything delivered so far is handed out: run the next
                // event, unless it lies past the horizon.
                match h.engine.next_event_at() {
                    Some(at) if at <= self.horizon => h.engine.step(),
                    _ => {
                        h.engine.run_until(self.horizon);
                        return None;
                    }
                };
                continue;
            };
            match b.messages.get(msg) {
                Some(m) => {
                    h.cursor.1 += 1;
                    if m.round == self.round {
                        return Some((b.at, *m));
                    }
                }
                None => h.cursor = (batch + 1, 0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TrafficFunction;
    use crate::strategy::{DispatchStrategy, Dropout, TimePointRule, TimeSpec};
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

    /// Messages leave in ingest order, and a send larger than the shelf
    /// releases what is there.
    #[test]
    fn fifo_order_is_preserved() {
        let point = |secs, count| TimePointRule {
            at: TimeSpec::Relative(SimDuration::from_secs(secs)),
            count,
            dropout: Dropout::NONE,
        };
        let mut flow = DeviceFlow::new();
        flow.register_task(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![point(1, 3), point(2, 10)],
            },
        )
        .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(5));
        let t0 = SimInstant::EPOCH;
        for (k, i) in [4, 0, 3, 1, 2].into_iter().enumerate() {
            harness.ingest_at(t0 + SimDuration::from_millis(k as u64), msg(i, t0));
        }
        harness.round_completed_at(t0 + SimDuration::from_millis(5), TaskId(1), RoundId(0));
        harness.run();
        let ids: Vec<Vec<u64>> = harness
            .delivered()
            .iter()
            .map(|b| b.messages.iter().map(|m| m.id.0).collect())
            .collect();
        assert_eq!(ids, vec![vec![4, 0, 3], vec![1, 2]]);
    }

    #[test]
    fn deliver_round_is_lazy_and_stops_at_the_horizon() {
        let mut flow = DeviceFlow::new();
        flow.register_task(TaskId(1), DispatchStrategy::immediate())
            .unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(4));
        harness.round_started(TaskId(1), RoundId(0));
        let t = |s| SimInstant::EPOCH + SimDuration::from_secs(s);
        for i in 0..3 {
            harness.ingest_at(t(10 * (i + 1)), msg(i, t(0)));
        }
        // Taking one delivery runs the flow only to its release time.
        let first = harness.deliver_round(RoundId(0), t(25)).next();
        assert_eq!(first.map(|(at, m)| (at, m.id)), Some((t(10), MessageId(0))));
        assert_eq!(harness.now(), t(10));
        // The rest up to the horizon, then the clock moves to the horizon.
        let rest: Vec<_> = harness
            .deliver_round(RoundId(0), t(25))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(rest, vec![t(20)]);
        assert_eq!(harness.now(), t(25));
        // Another round's stream skips round 0's last message.
        assert_eq!(harness.deliver_round(RoundId(1), t(60)).count(), 0);
        assert_eq!(harness.delivered_messages(), 3);
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
