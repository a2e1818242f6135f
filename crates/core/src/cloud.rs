//! Cloud-side services: the storage bandwidth account, message intake and
//! aggregation triggers.
//!
//! Devices upload their updates and announce them with messages carrying
//! each update's key; DeviceFlow forwards the messages according to the
//! task's strategy; the cloud service decides *when to aggregate* and
//! fetches the announced updates. An update lives only as long as its
//! round (the task runner folds each fetched update into the aggregate at
//! once), so what outlasts a round is [`Storage`]'s byte count. In real
//! deployments the cloud does not know how many devices will report
//! (§VI-C.1), so aggregation fires on a trigger: a sample threshold or a
//! schedule.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceId, Message, Result, SimDuration, SimInstant, SimdcError};

/// The bandwidth account of the paper's object store between devices and
/// cloud services: every uploaded update and every published global
/// model, each at its wire size.
#[derive(Debug, Default)]
pub struct Storage {
    bytes_written: u64,
}

impl Storage {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> Self {
        Storage::default()
    }

    /// Counts `bytes` as written.
    pub fn charge(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    /// Total bytes ever written (bandwidth accounting).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// When the cloud aggregates a round (§VI-C.1: "Common triggers include
/// reaching a threshold of total edge training samples or reaching
/// scheduled times").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationTrigger {
    /// Aggregate as soon as the accumulated `sample_count` across received
    /// messages reaches the threshold.
    SampleThreshold {
        /// Minimum total training samples.
        min_samples: u64,
    },
    /// Aggregate as soon as this many device updates arrived.
    DeviceThreshold {
        /// Minimum number of device updates.
        min_devices: u64,
    },
    /// Aggregate at a fixed offset after the round started, with whatever
    /// arrived by then.
    Scheduled {
        /// Aggregation period.
        period: SimDuration,
    },
}

impl AggregationTrigger {
    /// Validates trigger parameters.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for zero thresholds/periods.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        match *self {
            AggregationTrigger::SampleThreshold { min_samples: 0 } => {
                Err(InvalidConfig("sample threshold must be > 0".into()))
            }
            AggregationTrigger::DeviceThreshold { min_devices: 0 } => {
                Err(InvalidConfig("device threshold must be > 0".into()))
            }
            AggregationTrigger::Scheduled { period } if period.is_zero() => {
                Err(InvalidConfig("aggregation period must be > 0".into()))
            }
            _ => Ok(()),
        }
    }

    /// The instant a round begun at `round_start` aggregates unless a
    /// threshold fires first: the schedule clamped to the round timeout, or
    /// the timeout itself. No delivery after it can join the round. Both
    /// saturate at the end of time: a timeout too long to represent means
    /// the round never times out.
    #[must_use]
    pub fn horizon(&self, round_start: SimInstant, timeout: SimDuration) -> SimInstant {
        let deadline = round_start.saturating_add(timeout);
        match *self {
            AggregationTrigger::Scheduled { period } => {
                round_start.saturating_add(period).min(deadline)
            }
            _ => deadline,
        }
    }
}

/// The outcome of one aggregation round on the cloud side.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// When aggregation fired.
    pub aggregated_at: SimInstant,
    /// Messages included in the aggregate, in arrival order.
    pub included: Vec<Message>,
    /// Whether the trigger actually fired (vs. the round timing out with a
    /// best-effort aggregate).
    pub trigger_fired: bool,
}

/// Decides the aggregation instant for a round: the one trigger evaluator,
/// fed either the emissions directly or DeviceFlow's deliveries.
///
/// `deliveries` yields `(delivery time, message)` in delivery order and is
/// pulled one message at a time. A threshold fires on the message that
/// reaches it, so the round includes exactly the prefix up to that message
/// even when later messages share its instant. Nothing is pulled after the
/// firing message or the first message past
/// [`AggregationTrigger::horizon`]; if no threshold fires, the round
/// aggregates at the horizon with everything delivered by then.
#[must_use]
pub fn resolve_round(
    trigger: AggregationTrigger,
    round_start: SimInstant,
    deliveries: impl IntoIterator<Item = (SimInstant, Message)>,
    timeout: SimDuration,
) -> RoundOutcome {
    let horizon = trigger.horizon(round_start, timeout);
    let mut included = Vec::new();
    let mut samples = 0u64;
    let mut devices: BTreeSet<DeviceId> = BTreeSet::new();
    for (at, m) in deliveries {
        if at > horizon {
            break;
        }
        included.push(m);
        let fired = match trigger {
            AggregationTrigger::Scheduled { .. } => false,
            AggregationTrigger::SampleThreshold { min_samples } => {
                samples += m.sample_count;
                samples >= min_samples
            }
            AggregationTrigger::DeviceThreshold { min_devices } => {
                devices.insert(m.device);
                devices.len() as u64 >= min_devices
            }
        };
        if fired {
            return RoundOutcome {
                aggregated_at: at,
                included,
                trigger_fired: true,
            };
        }
    }
    RoundOutcome {
        aggregated_at: horizon,
        included,
        trigger_fired: matches!(trigger, AggregationTrigger::Scheduled { .. }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::{MessageId, RoundId, StorageKey, TaskId};

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    fn msg(i: u64, samples: u64) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(1),
            DeviceId(i),
            RoundId(0),
            samples,
            StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
            SimInstant::EPOCH,
        )
    }

    fn deliveries() -> Vec<(SimInstant, Message)> {
        (0..10).map(|i| (t(i * 10), msg(i, 100))).collect()
    }

    #[test]
    fn sample_threshold_fires_at_accumulation() {
        let mut pulled = 0;
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 250 },
            t(0),
            deliveries().into_iter().inspect(|_| pulled += 1),
            SimDuration::from_secs(1_000),
        );
        // 3 × 100 samples ≥ 250 → fires at the third delivery (t = 20).
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(20));
        assert_eq!(out.included.len(), 3);
        assert_eq!(pulled, 3, "nothing is pulled after the firing message");
    }

    /// Same-instant ties: the trigger takes the prefix up to the message
    /// that reaches it, not everything delivered at that instant.
    #[test]
    fn device_threshold_takes_the_prefix_of_a_tied_instant() {
        let tied: Vec<_> = (0..8).map(|i| (t(7), msg(i, 100))).collect();
        let out = resolve_round(
            AggregationTrigger::DeviceThreshold { min_devices: 5 },
            t(0),
            tied,
            SimDuration::from_secs(60),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(7));
        assert_eq!(out.included.len(), 5);
    }

    #[test]
    fn sample_threshold_times_out_gracefully() {
        let mut pulled = 0;
        let out = resolve_round(
            AggregationTrigger::SampleThreshold {
                min_samples: 100_000,
            },
            t(0),
            deliveries().into_iter().inspect(|_| pulled += 1),
            SimDuration::from_secs(45),
        );
        assert!(!out.trigger_fired);
        assert_eq!(out.aggregated_at, t(45));
        assert_eq!(out.included.len(), 5); // t = 0, 10, 20, 30, 40
        assert_eq!(
            pulled, 6,
            "the first message past the horizon ends the pull"
        );
    }

    #[test]
    fn device_threshold_counts_unique_devices() {
        let mut d = deliveries();
        // Duplicate device 0 at t=5 — must not double-count.
        d.insert(1, (t(5), msg(0, 100)));
        let out = resolve_round(
            AggregationTrigger::DeviceThreshold { min_devices: 3 },
            t(0),
            d,
            SimDuration::from_secs(1_000),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(20));
        assert_eq!(out.included.len(), 4); // includes the duplicate message
    }

    #[test]
    fn scheduled_takes_what_arrived() {
        let out = resolve_round(
            AggregationTrigger::Scheduled {
                period: SimDuration::from_secs(35),
            },
            t(0),
            deliveries(),
            SimDuration::from_secs(1_000),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(35));
        assert_eq!(out.included.len(), 4);
        // A period past the round timeout aggregates at the timeout.
        let clamped = resolve_round(
            AggregationTrigger::Scheduled {
                period: SimDuration::from_secs(35),
            },
            t(0),
            deliveries(),
            SimDuration::from_secs(20),
        );
        assert!(clamped.trigger_fired);
        assert_eq!(clamped.aggregated_at, t(20));
        assert_eq!(clamped.included.len(), 3);
    }

    #[test]
    fn empty_deliveries_time_out() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 1 },
            t(0),
            [],
            SimDuration::from_secs(60),
        );
        assert!(!out.trigger_fired);
        assert!(out.included.is_empty());
        assert_eq!(out.aggregated_at, t(60));
    }

    #[test]
    fn trigger_validation() {
        assert!(AggregationTrigger::SampleThreshold { min_samples: 0 }
            .validate()
            .is_err());
        assert!(AggregationTrigger::DeviceThreshold { min_devices: 0 }
            .validate()
            .is_err());
        assert!(AggregationTrigger::Scheduled {
            period: SimDuration::ZERO
        }
        .validate()
        .is_err());
        assert!(AggregationTrigger::Scheduled {
            period: SimDuration::from_secs(1)
        }
        .validate()
        .is_ok());
    }
}
