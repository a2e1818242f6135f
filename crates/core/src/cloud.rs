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
}

/// The outcome of one aggregation round on the cloud side.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// When aggregation fired.
    pub aggregated_at: SimInstant,
    /// Messages included in the aggregate, in arrival order.
    pub included: Vec<Message>,
    /// Messages that arrived after aggregation (stragglers, discarded).
    pub stragglers: u64,
    /// Whether the trigger actually fired (vs. the round timing out with a
    /// best-effort aggregate).
    pub trigger_fired: bool,
}

/// Decides the aggregation instant for a round given the messages
/// DeviceFlow delivered (each with its delivery time).
///
/// `deliveries` must be sorted by delivery time (DeviceFlow emits them in
/// order). If the trigger never fires, the round times out at
/// `round_start + timeout` and everything delivered by then is included.
#[must_use]
pub fn resolve_round(
    trigger: AggregationTrigger,
    round_start: SimInstant,
    deliveries: &[(SimInstant, Message)],
    timeout: SimDuration,
) -> RoundOutcome {
    let deadline = round_start + timeout;
    match trigger {
        AggregationTrigger::Scheduled { period } => {
            let at = (round_start + period).min(deadline);
            split_at(deliveries, at, true)
        }
        AggregationTrigger::SampleThreshold { min_samples } => {
            let mut acc = 0u64;
            for (i, (t, m)) in deliveries.iter().enumerate() {
                if *t > deadline {
                    break;
                }
                acc += m.sample_count;
                if acc >= min_samples {
                    return take_first(deliveries, i + 1, *t, true);
                }
            }
            split_at(deliveries, deadline, false)
        }
        AggregationTrigger::DeviceThreshold { min_devices } => {
            let mut seen: BTreeSet<DeviceId> = BTreeSet::new();
            for (i, (t, m)) in deliveries.iter().enumerate() {
                if *t > deadline {
                    break;
                }
                seen.insert(m.device);
                if seen.len() as u64 >= min_devices {
                    return take_first(deliveries, i + 1, *t, true);
                }
            }
            split_at(deliveries, deadline, false)
        }
    }
}

fn split_at(
    deliveries: &[(SimInstant, Message)],
    at: SimInstant,
    trigger_fired: bool,
) -> RoundOutcome {
    let included: Vec<Message> = deliveries
        .iter()
        .take_while(|(t, _)| *t <= at)
        .map(|(_, m)| *m)
        .collect();
    RoundOutcome {
        aggregated_at: at,
        stragglers: (deliveries.len() - included.len()) as u64,
        included,
        trigger_fired,
    }
}

fn take_first(
    deliveries: &[(SimInstant, Message)],
    n: usize,
    at: SimInstant,
    trigger_fired: bool,
) -> RoundOutcome {
    RoundOutcome {
        aggregated_at: at,
        included: deliveries[..n].iter().map(|(_, m)| *m).collect(),
        stragglers: (deliveries.len() - n) as u64,
        trigger_fired,
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
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 250 },
            t(0),
            &deliveries(),
            SimDuration::from_secs(1_000),
        );
        // 3 × 100 samples ≥ 250 → fires at the third delivery (t = 20).
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(20));
        assert_eq!(out.included.len(), 3);
        assert_eq!(out.stragglers, 7);
    }

    #[test]
    fn sample_threshold_times_out_gracefully() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold {
                min_samples: 100_000,
            },
            t(0),
            &deliveries(),
            SimDuration::from_secs(45),
        );
        assert!(!out.trigger_fired);
        assert_eq!(out.aggregated_at, t(45));
        assert_eq!(out.included.len(), 5); // t = 0, 10, 20, 30, 40
        assert_eq!(out.stragglers, 5);
    }

    #[test]
    fn device_threshold_counts_unique_devices() {
        let mut d = deliveries();
        // Duplicate device 0 at t=5 — must not double-count.
        d.insert(1, (t(5), msg(0, 100)));
        let out = resolve_round(
            AggregationTrigger::DeviceThreshold { min_devices: 3 },
            t(0),
            &d,
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
            &deliveries(),
            SimDuration::from_secs(1_000),
        );
        assert!(out.trigger_fired);
        assert_eq!(out.aggregated_at, t(35));
        assert_eq!(out.included.len(), 4);
        assert_eq!(out.stragglers, 6);
        // A period past the round timeout aggregates at the timeout.
        let clamped = resolve_round(
            AggregationTrigger::Scheduled {
                period: SimDuration::from_secs(35),
            },
            t(0),
            &deliveries(),
            SimDuration::from_secs(20),
        );
        assert!(clamped.trigger_fired);
        assert_eq!(clamped.aggregated_at, t(20));
    }

    #[test]
    fn empty_deliveries_time_out() {
        let out = resolve_round(
            AggregationTrigger::SampleThreshold { min_samples: 1 },
            t(0),
            &[],
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
