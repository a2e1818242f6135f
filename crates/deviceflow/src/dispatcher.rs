//! A task's record: its strategy state, its shelf and its statistics.
//!
//! Fig 4 draws three roles per task. Routing a message to its task (the
//! Sorter) is the [`crate::DeviceFlow`] map lookup on `message.task`; the
//! Shelf is the `shelf` queue below; the Dispatcher is the hooks here,
//! which release shelved messages by the task's strategy. Records of
//! different tasks never touch each other, so the dispatch processes of
//! different tasks never interfere (§V-A).

use std::collections::VecDeque;

use simdc_simrt::{EngineCtx, RngStream};
use simdc_types::{Message, RoundId, SimDuration, SimInstant, TaskId};

use crate::controller::{DeliveredBatch, FlowEvent, FlowStats};
use crate::discretize::discretize;
use crate::strategy::{DispatchStrategy, Dropout};
use crate::DEFAULT_CAPACITY_PER_SEC;

/// One task's dispatcher state machine.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    strategy: DispatchStrategy,
    cycle_idx: usize,
    round_active: bool,
    /// The latest round started; completions of earlier rounds are stale.
    started: Option<RoundId>,
    /// Pending messages in arrival order.
    shelf: VecDeque<Message>,
    pub(crate) stats: FlowStats,
}

impl Dispatcher {
    /// A dispatcher for an already validated strategy.
    pub(crate) fn new(strategy: DispatchStrategy) -> Self {
        Dispatcher {
            strategy,
            cycle_idx: 0,
            round_active: false,
            started: None,
            shelf: VecDeque::new(),
            stats: FlowStats::default(),
        }
    }

    /// Handles one of this task's events: follow-up sends go onto `ctx`,
    /// released batches onto `log`.
    pub(crate) fn on_event(
        &mut self,
        ctx: &mut EngineCtx<'_, FlowEvent>,
        event: FlowEvent,
        rng: &mut RngStream,
        log: &mut Vec<DeliveredBatch>,
    ) {
        let now = ctx.now();
        match event {
            // Real-time strategies flush while their round is active.
            FlowEvent::Ingest(message) => {
                let task = message.task;
                self.stats.received += 1;
                self.shelf.push_back(message);
                if self.round_active {
                    self.drain_realtime(now, task, rng, log);
                }
            }
            // Round start activates real-time dispatching; a backlog over
            // the threshold flushes at once.
            FlowEvent::RoundStarted { task, round } => {
                self.round_active = true;
                self.started = Some(round);
                self.drain_realtime(now, task, rng, log);
            }
            FlowEvent::RoundCompleted { task, round } => self.on_round_completed(ctx, task, round),
            FlowEvent::DispatchDue {
                task,
                count,
                dropout,
            } => {
                // The single-threaded sender cannot push more than one
                // second of capacity in one burst; the overflow spills
                // into the next second (Fig 10(b)).
                let burst = count.min(DEFAULT_CAPACITY_PER_SEC);
                let taken = burst.min(self.shelf.len() as u64) as usize;
                let messages: Vec<Message> = self.shelf.drain(..taken).collect();
                if count > burst && !self.shelf.is_empty() {
                    ctx.schedule_in(
                        SimDuration::from_secs(1),
                        FlowEvent::DispatchDue {
                            task,
                            count: count - burst,
                            dropout,
                        },
                    );
                }
                if !messages.is_empty() {
                    self.release(now, task, messages, dropout, rng, log);
                }
            }
        }
    }

    /// Round completion: rule-based strategies schedule their sends now.
    ///
    /// A completion of a round older than the latest one started is
    /// ignored: the cloud aggregated that round before its compute finished
    /// and has moved on, so it must not end the running round.
    fn on_round_completed(
        &mut self,
        ctx: &mut EngineCtx<'_, FlowEvent>,
        task: TaskId,
        round: RoundId,
    ) {
        if self.started > Some(round) {
            return;
        }
        self.round_active = false;
        let now = ctx.now();
        match &self.strategy {
            DispatchStrategy::RealTimeAccumulated { .. } => {}
            DispatchStrategy::TimePoints { points } => {
                for rule in points {
                    let due = FlowEvent::DispatchDue {
                        task,
                        count: rule.count,
                        dropout: rule.dropout,
                    };
                    ctx.schedule_at(rule.at.resolve(now), due);
                }
            }
            DispatchStrategy::TimeInterval {
                function,
                domain,
                start,
                interval,
                dropout,
            } => {
                let volume = self.shelf.len() as u64;
                // Registration checked the curve's area, so this fails
                // only when the volume is more than the densest grid holds
                // under the capacity (700 × 2²⁰ messages). Then nothing is
                // scheduled: the round's messages stay shelved, neither
                // delivered nor dropped.
                let Ok(plan) = discretize(
                    function,
                    domain,
                    *interval,
                    volume,
                    DEFAULT_CAPACITY_PER_SEC,
                ) else {
                    return;
                };
                let begin = start.resolve(now);
                for point in plan.points().iter().filter(|p| p.count > 0) {
                    let due = FlowEvent::DispatchDue {
                        task,
                        count: point.count,
                        dropout: *dropout,
                    };
                    ctx.schedule_at(begin + point.offset, due);
                }
            }
        }
    }

    fn drain_realtime(
        &mut self,
        now: SimInstant,
        task: TaskId,
        rng: &mut RngStream,
        log: &mut Vec<DeliveredBatch>,
    ) {
        loop {
            let DispatchStrategy::RealTimeAccumulated {
                thresholds,
                failure_prob,
            } = &self.strategy
            else {
                return;
            };
            let threshold = thresholds[self.cycle_idx % thresholds.len()];
            let dropout = Dropout {
                probability: *failure_prob,
                random_discard: 0,
            };
            if (self.shelf.len() as u64) < threshold {
                return;
            }
            self.cycle_idx += 1;
            let messages = self.shelf.drain(..threshold as usize).collect();
            self.release(now, task, messages, dropout, rng, log);
        }
    }

    /// Releases `messages` downstream as one batch: applies dropout
    /// (independent per-message failures first, then the random discard of
    /// a fixed count), counts the outcome and appends the batch to `log`.
    fn release(
        &mut self,
        at: SimInstant,
        task: TaskId,
        mut messages: Vec<Message>,
        dropout: Dropout,
        rng: &mut RngStream,
        log: &mut Vec<DeliveredBatch>,
    ) {
        let before = messages.len();
        if dropout.probability > 0.0 {
            messages.retain(|_| !rng.chance(dropout.probability));
        }
        let mut dropped = (before - messages.len()) as u64;
        for _ in 0..dropout.random_discard {
            if messages.is_empty() {
                break;
            }
            messages.swap_remove(rng.index(messages.len()));
            dropped += 1;
        }
        self.stats.dispatched += messages.len() as u64;
        self.stats.dropped += dropped;
        log.push(DeliveredBatch {
            task,
            at,
            messages,
            dropped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TrafficFunction;
    use crate::strategy::{TimePointRule, TimeSpec};
    use crate::{DeviceFlow, FlowHarness};
    use simdc_types::{DeviceId, MessageId, StorageKey};

    fn msg(i: u64) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(1),
            DeviceId(i),
            RoundId(0),
            10,
            StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
            SimInstant::EPOCH,
        )
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    /// A harness with task 1 registered under `strategy` and `n` messages
    /// ingested at the epoch.
    fn harness(strategy: DispatchStrategy, n: u64, seed: u64) -> FlowHarness {
        let mut flow = DeviceFlow::new();
        flow.register_task(TaskId(1), strategy).unwrap();
        let mut harness = FlowHarness::new(flow, RngStream::from_seed(seed));
        for i in 0..n {
            harness.ingest_at(t(0), msg(i));
        }
        harness
    }

    /// A rule-based harness whose round completes at the epoch, after the
    /// ingests.
    fn completed(strategy: DispatchStrategy, n: u64, seed: u64) -> FlowHarness {
        let mut harness = harness(strategy, n, seed);
        harness.round_completed_at(t(0), TaskId(1), RoundId(0));
        harness
    }

    fn one_point(count: u64, dropout: Dropout) -> DispatchStrategy {
        DispatchStrategy::TimePoints {
            points: vec![TimePointRule {
                at: TimeSpec::Relative(SimDuration::ZERO),
                count,
                dropout,
            }],
        }
    }

    /// `(release time, batch size)` of every delivered batch.
    fn sizes(harness: &FlowHarness) -> Vec<(SimInstant, usize)> {
        harness
            .delivered()
            .iter()
            .map(|b| (b.at, b.messages.len()))
            .collect()
    }

    /// Messages still shelved.
    fn shelved(harness: &FlowHarness) -> u64 {
        let s = harness.flow().stats(TaskId(1)).unwrap();
        s.received - s.dispatched - s.dropped
    }

    #[test]
    fn realtime_cycles_threshold_sequence() {
        let strategy = DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![20, 100, 50],
            failure_prob: 0.0,
        };
        let mut h = harness(strategy, 200, 1);
        h.round_started(TaskId(1), RoundId(0));
        h.run();
        // 200 shelved → 20, then 100, then 50; 30 left (≥ the next 20 →
        // another 20 flushes, leaving 10 < 100).
        let flushed: Vec<usize> = sizes(&h).into_iter().map(|(_, n)| n).collect();
        assert_eq!(flushed, vec![20, 100, 50, 20]);
        assert_eq!(shelved(&h), 10);
    }

    #[test]
    fn realtime_flushes_on_ingest_only_when_round_active() {
        let mut h = harness(DispatchStrategy::immediate(), 1, 2);
        // Not active yet.
        h.run_until(t(1));
        assert!(h.delivered().is_empty());
        // Activate: the backlog flushes immediately.
        h.round_started(TaskId(1), RoundId(0));
        h.ingest_at(t(2), msg(1));
        h.run();
        let ids: Vec<(SimInstant, MessageId)> = h
            .delivered()
            .iter()
            .map(|b| (b.at, b.messages[0].id))
            .collect();
        assert_eq!(ids, vec![(t(1), MessageId(0)), (t(2), MessageId(1))]);
    }

    #[test]
    fn superseded_round_completion_is_ignored() {
        let mut h = harness(DispatchStrategy::immediate(), 0, 10);
        h.round_started(TaskId(1), RoundId(0));
        h.run_until(t(1));
        h.round_started(TaskId(1), RoundId(1));
        // Round 0 aggregated early; its compute finishes inside round 1,
        // which keeps flowing.
        h.round_completed_at(t(2), TaskId(1), RoundId(0));
        h.ingest_at(t(3), msg(0));
        // Round 1's own completion ends it.
        h.round_completed_at(t(4), TaskId(1), RoundId(1));
        h.ingest_at(t(5), msg(1));
        h.run();
        assert_eq!(sizes(&h), vec![(t(3), 1)]);
        assert_eq!(shelved(&h), 1);
    }

    #[test]
    fn realtime_failure_probability_drops_messages() {
        let strategy = DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: 0.5,
        };
        let mut h = harness(strategy, 2_000, 3);
        h.round_started(TaskId(1), RoundId(0));
        h.run();
        let delivered = h.delivered_messages();
        let dropped: u64 = h.delivered().iter().map(|b| b.dropped).sum();
        assert_eq!(delivered + dropped, 2_000);
        assert_eq!(h.flow().stats(TaskId(1)).unwrap().dropped, dropped);
        let rate = dropped as f64 / 2_000.0;
        assert!((rate - 0.5).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn timepoints_schedule_and_release() {
        let at = |secs, count| TimePointRule {
            at: TimeSpec::Relative(SimDuration::from_secs(secs)),
            count,
            dropout: Dropout::NONE,
        };
        let strategy = DispatchStrategy::TimePoints {
            points: vec![at(5, 30), at(10, 70)],
        };
        let mut h = completed(strategy, 100, 4);
        h.run();
        assert_eq!(sizes(&h), vec![(t(5), 30), (t(10), 70)]);
        assert_eq!(shelved(&h), 0);
    }

    #[test]
    fn capacity_overflow_spills_into_next_second() {
        let mut h = completed(one_point(1_500, Dropout::NONE), 1_500, 5);
        h.run();
        assert_eq!(sizes(&h), vec![(t(0), 700), (t(1), 700), (t(2), 100)]);
        assert_eq!(shelved(&h), 0);
    }

    #[test]
    fn random_discard_removes_exact_count() {
        let dropout = Dropout {
            probability: 0.0,
            random_discard: 7,
        };
        let mut h = completed(one_point(50, dropout), 50, 6);
        h.run();
        let batch = &h.delivered()[0];
        assert_eq!(batch.messages.len(), 43);
        assert_eq!(batch.dropped, 7);
    }

    #[test]
    fn interval_strategy_discretizes_shelf_volume() {
        let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
        let strategy = DispatchStrategy::TimeInterval {
            function,
            domain,
            start: TimeSpec::Relative(SimDuration::ZERO),
            interval: SimDuration::from_secs(60),
            dropout: Dropout::NONE,
        };
        let mut h = completed(strategy, 5_000, 7);
        h.run();
        // Releasing everything delivers the full volume; plans are
        // pre-capped, so nothing spills past the interval.
        assert_eq!(h.delivered_messages(), 5_000);
        assert!(h
            .delivered()
            .iter()
            .all(|b| b.at < t(60) && b.messages.len() as u64 <= DEFAULT_CAPACITY_PER_SEC));
    }

    #[test]
    fn empty_shelf_due_emits_nothing() {
        let mut h = completed(one_point(10, Dropout::NONE), 0, 9);
        // The completion and its one due send; no spill follows.
        assert_eq!(h.run(), 2);
        assert!(h.delivered().is_empty());
    }
}
