//! Per-task dispatchers: execute a strategy against a shelf.
//!
//! Dispatchers associated with different shelves operate independently, so
//! the dispatch processes of different tasks never interfere (§V-A).

use std::collections::BTreeMap;

use simdc_simrt::RngStream;
use simdc_types::{Message, Result, RoundId, SimDuration, SimInstant, TaskId};

use crate::discretize::discretize;
use crate::shelf::Shelf;
use crate::strategy::{DispatchStrategy, Dropout};

/// A batch of messages released downstream, plus how many were dropped by
/// the dropout simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchBatch {
    /// Release time.
    pub at: SimInstant,
    /// Messages that survived dropout.
    pub messages: Vec<Message>,
    /// Messages lost to simulated transmission failure / discard.
    pub dropped: u64,
}

impl DispatchBatch {
    /// Messages attempted (delivered + dropped).
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.messages.len() as u64 + self.dropped
    }
}

#[derive(Debug, Clone)]
struct PendingSend {
    count: u64,
    dropout: Dropout,
}

/// The per-task dispatcher state machine.
///
/// The owning [`crate::DeviceFlow`] calls the `on_*` hooks and is
/// responsible for scheduling the `(instant, seq)` pairs they return as
/// [`crate::FlowEvent::DispatchDue`] events.
#[derive(Debug)]
pub struct Dispatcher {
    task: TaskId,
    strategy: DispatchStrategy,
    capacity_per_sec: u64,
    cycle_idx: usize,
    round_active: bool,
    /// The latest round started; completions of earlier rounds are stale.
    started: Option<RoundId>,
    pending: BTreeMap<u64, PendingSend>,
    next_seq: u64,
}

impl Dispatcher {
    /// Creates a dispatcher for `task`.
    ///
    /// # Errors
    ///
    /// Returns [`simdc_types::SimdcError::InvalidStrategy`] if the strategy
    /// fails validation.
    pub fn new(task: TaskId, strategy: DispatchStrategy, capacity_per_sec: u64) -> Result<Self> {
        strategy.validate()?;
        if capacity_per_sec == 0 {
            return Err(simdc_types::SimdcError::InvalidStrategy(
                "capacity must be positive".into(),
            ));
        }
        Ok(Dispatcher {
            task,
            strategy,
            capacity_per_sec,
            cycle_idx: 0,
            round_active: false,
            started: None,
            pending: BTreeMap::new(),
            next_seq: 0,
        })
    }

    /// The owning task.
    #[must_use]
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The configured strategy.
    #[must_use]
    pub fn strategy(&self) -> &DispatchStrategy {
        &self.strategy
    }

    /// Round start: activates real-time dispatching. Returns immediate
    /// flushes in case the shelf already holds a backlog over the
    /// threshold.
    pub fn on_round_started(
        &mut self,
        now: SimInstant,
        round: RoundId,
        shelf: &mut Shelf,
        rng: &mut RngStream,
    ) -> Vec<DispatchBatch> {
        self.round_active = true;
        self.started = Some(round);
        if self.strategy.activates_at_round_start() {
            self.drain_realtime(now, shelf, rng)
        } else {
            Vec::new()
        }
    }

    /// Message ingress: real-time strategies may flush.
    pub fn on_ingest(
        &mut self,
        now: SimInstant,
        shelf: &mut Shelf,
        rng: &mut RngStream,
    ) -> Vec<DispatchBatch> {
        if self.round_active && self.strategy.activates_at_round_start() {
            self.drain_realtime(now, shelf, rng)
        } else {
            Vec::new()
        }
    }

    /// Round completion: rule-based strategies lay out their dispatch
    /// schedule now. Returns `(instant, seq)` pairs to schedule as
    /// `DispatchDue` events.
    ///
    /// A completion of a round older than the latest one started is
    /// ignored: the cloud aggregated that round before its compute finished
    /// and has moved on, so it must not end the running round.
    ///
    /// # Errors
    ///
    /// Propagates discretization failures for time-interval strategies.
    pub fn on_round_completed(
        &mut self,
        now: SimInstant,
        round: RoundId,
        shelf: &Shelf,
    ) -> Result<Vec<(SimInstant, u64)>> {
        if self.started > Some(round) {
            return Ok(Vec::new());
        }
        self.round_active = false;
        match &self.strategy {
            DispatchStrategy::RealTimeAccumulated { .. } => Ok(Vec::new()),
            DispatchStrategy::TimePoints { points } => {
                let sends: Vec<_> = points
                    .iter()
                    .map(|r| (r.at.resolve(now), r.count, r.dropout))
                    .collect();
                Ok(sends
                    .into_iter()
                    .map(|(at, count, dropout)| {
                        (at, self.push_pending(PendingSend { count, dropout }))
                    })
                    .collect())
            }
            DispatchStrategy::TimeInterval {
                function,
                domain,
                start,
                interval,
                dropout,
            } => {
                let volume = shelf.len() as u64;
                let plan = discretize(function, domain, *interval, volume, self.capacity_per_sec)?;
                let begin = start.resolve(now);
                let dropout = *dropout;
                let mut due = Vec::new();
                for point in plan.points() {
                    if point.count == 0 {
                        continue;
                    }
                    let seq = self.push_pending(PendingSend {
                        count: point.count,
                        dropout,
                    });
                    due.push((begin + point.offset, seq));
                }
                Ok(due)
            }
        }
    }

    /// A scheduled dispatch came due. Returns the released batch (if any
    /// messages were pending) and any follow-up `(instant, seq)` to
    /// schedule — the rate-cap spillover of Fig 10(b).
    pub fn on_due(
        &mut self,
        now: SimInstant,
        seq: u64,
        shelf: &mut Shelf,
        rng: &mut RngStream,
    ) -> (Option<DispatchBatch>, Vec<(SimInstant, u64)>) {
        let Some(send) = self.pending.remove(&seq) else {
            return (None, Vec::new());
        };
        // The single-threaded sender cannot push more than one second of
        // capacity in one burst; the overflow spills into the next second.
        let burst = send.count.min(self.capacity_per_sec);
        let taken = shelf.take(burst as usize);
        let remainder = send.count - burst;
        let mut followups = Vec::new();
        if remainder > 0 && !shelf.is_empty() {
            let seq = self.push_pending(PendingSend {
                count: remainder,
                dropout: send.dropout,
            });
            followups.push((now + SimDuration::from_secs(1), seq));
        }
        if taken.is_empty() {
            return (None, followups);
        }
        let batch = apply_dropout(now, taken, send.dropout, rng);
        (Some(batch), followups)
    }

    /// Messages scheduled but not yet released.
    #[must_use]
    pub fn pending_count(&self) -> u64 {
        self.pending.values().map(|p| p.count).sum()
    }

    fn push_pending(&mut self, send: PendingSend) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq, send);
        seq
    }

    fn drain_realtime(
        &mut self,
        now: SimInstant,
        shelf: &mut Shelf,
        rng: &mut RngStream,
    ) -> Vec<DispatchBatch> {
        let DispatchStrategy::RealTimeAccumulated {
            thresholds,
            failure_prob,
        } = &self.strategy
        else {
            return Vec::new();
        };
        let mut batches = Vec::new();
        loop {
            let threshold = thresholds[self.cycle_idx % thresholds.len()];
            if (shelf.len() as u64) < threshold {
                break;
            }
            let taken = shelf.take(threshold as usize);
            self.cycle_idx += 1;
            let batch = apply_dropout(
                now,
                taken,
                Dropout {
                    probability: *failure_prob,
                    random_discard: 0,
                },
                rng,
            );
            batches.push(batch);
        }
        batches
    }
}

/// Applies dropout to a batch: independent per-message failures first, then
/// the random discard of a fixed count.
fn apply_dropout(
    at: SimInstant,
    mut kept: Vec<Message>,
    dropout: Dropout,
    rng: &mut RngStream,
) -> DispatchBatch {
    let before = kept.len() as u64;
    if dropout.probability > 0.0 {
        kept.retain(|_| !rng.chance(dropout.probability));
    }
    let mut dropped_total = before - kept.len() as u64;
    for _ in 0..dropout.random_discard {
        if kept.is_empty() {
            break;
        }
        let idx = rng.index(kept.len());
        kept.swap_remove(idx);
        dropped_total += 1;
    }
    DispatchBatch {
        at,
        messages: kept,
        dropped: dropped_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TrafficFunction;
    use crate::strategy::{TimePointRule, TimeSpec};
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

    fn filled_shelf(n: u64) -> Shelf {
        let mut shelf = Shelf::new(TaskId(1));
        for i in 0..n {
            shelf.push(msg(i));
        }
        shelf
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn realtime_cycles_threshold_sequence() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![20, 100, 50],
                failure_prob: 0.0,
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(200);
        let mut rng = RngStream::from_seed(1);
        let batches = d.on_round_started(t(0), RoundId(0), &mut shelf, &mut rng);
        // 200 pending → 20, then 100, then 50; 30 left (< next 20? no: 30 ≥ 20
        // → another 20 flushes, leaving 10 < 100).
        let sizes: Vec<usize> = batches.iter().map(|b| b.messages.len()).collect();
        assert_eq!(sizes, vec![20, 100, 50, 20]);
        assert_eq!(shelf.len(), 10);
    }

    #[test]
    fn realtime_flushes_on_ingest_only_when_round_active() {
        let mut d = Dispatcher::new(TaskId(1), DispatchStrategy::immediate(), 700).unwrap();
        let mut shelf = Shelf::new(TaskId(1));
        let mut rng = RngStream::from_seed(2);
        shelf.push(msg(0));
        // Not active yet.
        assert!(d.on_ingest(t(0), &mut shelf, &mut rng).is_empty());
        assert_eq!(shelf.len(), 1);
        // Activate: backlog flushes immediately.
        let batches = d.on_round_started(t(1), RoundId(0), &mut shelf, &mut rng);
        assert_eq!(batches.len(), 1);
        shelf.push(msg(1));
        let batches = d.on_ingest(t(2), &mut shelf, &mut rng);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].messages[0].id, MessageId(1));
    }

    #[test]
    fn superseded_round_completion_is_ignored() {
        let mut d = Dispatcher::new(TaskId(1), DispatchStrategy::immediate(), 700).unwrap();
        let mut shelf = Shelf::new(TaskId(1));
        let mut rng = RngStream::from_seed(10);
        d.on_round_started(t(0), RoundId(0), &mut shelf, &mut rng);
        d.on_round_started(t(1), RoundId(1), &mut shelf, &mut rng);
        // Round 0 aggregated early; its compute finishes inside round 1,
        // which keeps flowing.
        d.on_round_completed(t(2), RoundId(0), &shelf).unwrap();
        shelf.push(msg(0));
        assert_eq!(d.on_ingest(t(3), &mut shelf, &mut rng).len(), 1);
        // Round 1's own completion ends it.
        d.on_round_completed(t(4), RoundId(1), &shelf).unwrap();
        shelf.push(msg(1));
        assert!(d.on_ingest(t(5), &mut shelf, &mut rng).is_empty());
    }

    #[test]
    fn realtime_failure_probability_drops_messages() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![1],
                failure_prob: 0.5,
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(2_000);
        let mut rng = RngStream::from_seed(3);
        let batches = d.on_round_started(t(0), RoundId(0), &mut shelf, &mut rng);
        let delivered: usize = batches.iter().map(|b| b.messages.len()).sum();
        let dropped: u64 = batches.iter().map(|b| b.dropped).sum();
        assert_eq!(delivered as u64 + dropped, 2_000);
        let rate = dropped as f64 / 2_000.0;
        assert!((rate - 0.5).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn timepoints_schedule_and_release() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![
                    TimePointRule {
                        at: TimeSpec::Relative(SimDuration::from_secs(5)),
                        count: 30,
                        dropout: Dropout::NONE,
                    },
                    TimePointRule {
                        at: TimeSpec::Relative(SimDuration::from_secs(10)),
                        count: 70,
                        dropout: Dropout::NONE,
                    },
                ],
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(100);
        let due = d.on_round_completed(t(0), RoundId(0), &shelf).unwrap();
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].0, t(5));
        assert_eq!(due[1].0, t(10));
        assert_eq!(d.pending_count(), 100);

        let mut rng = RngStream::from_seed(4);
        let (batch, follow) = d.on_due(t(5), due[0].1, &mut shelf, &mut rng);
        assert_eq!(batch.unwrap().messages.len(), 30);
        assert!(follow.is_empty());
        let (batch, _) = d.on_due(t(10), due[1].1, &mut shelf, &mut rng);
        assert_eq!(batch.unwrap().messages.len(), 70);
        assert!(shelf.is_empty());
    }

    #[test]
    fn capacity_overflow_spills_into_next_second() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![TimePointRule {
                    at: TimeSpec::Relative(SimDuration::ZERO),
                    count: 1_500,
                    dropout: Dropout::NONE,
                }],
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(1_500);
        let due = d.on_round_completed(t(0), RoundId(0), &shelf).unwrap();
        let mut rng = RngStream::from_seed(5);

        let (b1, f1) = d.on_due(t(0), due[0].1, &mut shelf, &mut rng);
        assert_eq!(b1.unwrap().messages.len(), 700);
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].0, t(1));

        let (b2, f2) = d.on_due(t(1), f1[0].1, &mut shelf, &mut rng);
        assert_eq!(b2.unwrap().messages.len(), 700);
        let (b3, f3) = d.on_due(t(2), f2[0].1, &mut shelf, &mut rng);
        assert_eq!(b3.unwrap().messages.len(), 100);
        assert!(f3.is_empty());
        assert!(shelf.is_empty());
    }

    #[test]
    fn random_discard_removes_exact_count() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![TimePointRule {
                    at: TimeSpec::Relative(SimDuration::ZERO),
                    count: 50,
                    dropout: Dropout {
                        probability: 0.0,
                        random_discard: 7,
                    },
                }],
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(50);
        let due = d.on_round_completed(t(0), RoundId(0), &shelf).unwrap();
        let mut rng = RngStream::from_seed(6);
        let (batch, _) = d.on_due(t(0), due[0].1, &mut shelf, &mut rng);
        let batch = batch.unwrap();
        assert_eq!(batch.messages.len(), 43);
        assert_eq!(batch.dropped, 7);
    }

    #[test]
    fn interval_strategy_discretizes_shelf_volume() {
        let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::TimeInterval {
                function,
                domain,
                start: TimeSpec::Relative(SimDuration::ZERO),
                interval: SimDuration::from_secs(60),
                dropout: Dropout::NONE,
            },
            700,
        )
        .unwrap();
        let mut shelf = filled_shelf(5_000);
        let due = d.on_round_completed(t(0), RoundId(0), &shelf).unwrap();
        assert!(!due.is_empty());
        assert_eq!(d.pending_count(), 5_000);
        // Releasing everything delivers the full volume.
        let mut rng = RngStream::from_seed(7);
        let mut delivered = 0usize;
        for (at, seq) in due {
            let (batch, follow) = d.on_due(at, seq, &mut shelf, &mut rng);
            assert!(follow.is_empty(), "plans are pre-capped");
            if let Some(b) = batch {
                delivered += b.messages.len();
            }
        }
        assert_eq!(delivered, 5_000);
    }

    #[test]
    fn due_with_unknown_seq_is_noop() {
        let mut d = Dispatcher::new(TaskId(1), DispatchStrategy::immediate(), 700).unwrap();
        let mut shelf = filled_shelf(3);
        let mut rng = RngStream::from_seed(8);
        let (batch, follow) = d.on_due(t(0), 99, &mut shelf, &mut rng);
        assert!(batch.is_none());
        assert!(follow.is_empty());
        assert_eq!(shelf.len(), 3);
    }

    #[test]
    fn empty_shelf_due_emits_nothing() {
        let mut d = Dispatcher::new(
            TaskId(1),
            DispatchStrategy::TimePoints {
                points: vec![TimePointRule {
                    at: TimeSpec::Relative(SimDuration::ZERO),
                    count: 10,
                    dropout: Dropout::NONE,
                }],
            },
            700,
        )
        .unwrap();
        let shelf_snapshot = Shelf::new(TaskId(1));
        let due = d
            .on_round_completed(t(0), RoundId(0), &shelf_snapshot)
            .unwrap();
        let mut shelf = Shelf::new(TaskId(1));
        let mut rng = RngStream::from_seed(9);
        let (batch, follow) = d.on_due(t(0), due[0].1, &mut shelf, &mut rng);
        assert!(batch.is_none());
        assert!(follow.is_empty());
    }
}
