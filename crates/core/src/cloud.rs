//! Cloud-side services: shared storage, message intake and aggregation
//! triggers.
//!
//! Devices upload their updates to [`Storage`] and announce them with
//! messages; DeviceFlow forwards the messages according to the task's
//! strategy; the cloud service decides *when to aggregate* and takes the
//! announced updates out of the store by key. In real deployments the
//! cloud does not know how many devices will report (§VI-C.1), so
//! aggregation fires on a trigger: a sample threshold or a schedule.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceId, Message, Result, SimDuration, SimInstant, SimdcError, StorageKey};

use simdc_ml::LocalUpdate;

/// In-memory shared storage (the paper's object store between devices and
/// cloud services). Updates cross it by value; the bandwidth figure counts
/// each at its wire size.
#[derive(Debug, Default)]
pub struct Storage {
    map: BTreeMap<StorageKey, LocalUpdate>,
    bytes_written: u64,
}

impl Storage {
    /// Creates empty storage.
    #[must_use]
    pub fn new() -> Self {
        Storage::default()
    }

    /// Stores an update under `key` (overwrites).
    pub fn put(&mut self, key: StorageKey, update: LocalUpdate) {
        self.bytes_written += update.serialized_size();
        self.map.insert(key, update);
    }

    /// Fetches an update out of the store — the aggregator is its one
    /// reader, so the fetch consumes it.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::StorageMiss`] when the key is absent.
    pub fn take(&mut self, key: StorageKey) -> Result<LocalUpdate> {
        self.map
            .remove(&key)
            .ok_or_else(|| SimdcError::StorageMiss(key.to_string()))
    }

    /// Removes an update nobody fetched, returning whether it existed.
    pub fn remove(&mut self, key: StorageKey) -> bool {
        self.map.remove(&key).is_some()
    }

    /// Counts `bytes` as written without keeping an object: the global
    /// model the cloud publishes each round, which no one fetches by key.
    pub fn charge(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    /// Number of stored objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes ever written (bandwidth accounting).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Folds a scratch store into this one: remaining objects move over
    /// (task-scoped keys cannot collide across tasks) and the scratch's
    /// lifetime write count joins the bandwidth total, exactly as if every
    /// `put` had happened here. The merge step of off-thread task planning,
    /// which gives each worker its own scratch [`Storage`].
    pub fn absorb(&mut self, scratch: Storage) {
        self.bytes_written += scratch.bytes_written;
        self.map.extend(scratch.map);
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
    /// the timeout itself. No delivery after it can join the round.
    #[must_use]
    pub fn horizon(&self, round_start: SimInstant, timeout: SimDuration) -> SimInstant {
        let deadline = round_start + timeout;
        match *self {
            AggregationTrigger::Scheduled { period } => (round_start + period).min(deadline),
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
    use simdc_ml::LrModel;
    use simdc_types::{MessageId, RoundId, TaskId};

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
    fn storage_round_trip_and_miss() {
        let update = LocalUpdate {
            model: LrModel::from_parts(vec![0.5, -1.5, 2.0], 0.25),
            n_samples: 321,
            final_loss: 0.625,
        };
        let wire = 16 + 8 + 4 * 3;
        let mut s = Storage::new();
        let key = |d| StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(d));
        let (a, b) = (key(0), key(1));
        s.put(a, update.clone());
        s.put(b, update.clone());
        assert_eq!(s.len(), 2);
        assert_eq!(s.bytes_written(), 2 * wire);
        assert_eq!(s.take(a).unwrap(), update);
        assert!(matches!(s.take(a), Err(SimdcError::StorageMiss(_))));
        assert!(s.remove(b));
        assert!(!s.remove(b));
        assert!(s.is_empty());
        assert_eq!(s.bytes_written(), 2 * wire, "reads and removals are free");

        let mut scratch = Storage::new();
        scratch.put(b, update);
        scratch.charge(100);
        s.absorb(scratch);
        assert_eq!(s.bytes_written(), 3 * wire + 100);
        assert!(s.remove(b), "what the scratch still held moved over");
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
