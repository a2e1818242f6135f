//! Device→cloud messages.
//!
//! When a device finishes a round of its operator flow it uploads the
//! computation result to shared storage and emits a [`Message`] toward the
//! cloud service. DeviceFlow intercepts these messages and forwards them
//! according to the task's dispatch strategy (§V of the paper); the cloud
//! service then fetches the payload from storage using
//! [`Message::storage_key`].

use serde::{Deserialize, Serialize};

use crate::ids::{DeviceId, MessageId, RoundId, StorageKey, TaskId};
use crate::time::SimInstant;

/// What a message announces to the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// A local model update is available in storage.
    ModelUpdate,
    /// The device started its round (used for liveness/telemetry).
    RoundStarted,
    /// The device gave up on the round (crash, user interruption).
    Aborted,
    /// A performance-measurement sample from a benchmarking phone.
    Telemetry,
}

/// A message from a (simulated or physical) device to a cloud service.
///
/// Messages are intentionally small: bulky payloads (model weights, metric
/// batches) live in shared storage and are referenced by key, mirroring the
/// paper's storage/notification split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Unique id assigned at emission.
    pub id: MessageId,
    /// Task this message belongs to; DeviceFlow's sorter routes on this.
    pub task: TaskId,
    /// Originating device.
    pub device: DeviceId,
    /// Round of the task's operator flow.
    pub round: RoundId,
    /// What the message announces.
    pub kind: MessageKind,
    /// Number of training samples behind this result (drives
    /// sample-threshold aggregation and FedAvg weighting).
    pub sample_count: u64,
    /// Where the payload was uploaded, if any.
    pub storage_key: Option<StorageKey>,
    /// Virtual time at which the device emitted the message.
    pub emitted_at: SimInstant,
}

impl Message {
    /// Creates a model-update message for a completed local round.
    #[must_use]
    pub fn model_update(
        id: MessageId,
        task: TaskId,
        device: DeviceId,
        round: RoundId,
        sample_count: u64,
        storage_key: StorageKey,
        emitted_at: SimInstant,
    ) -> Self {
        Message {
            id,
            task,
            device,
            round,
            kind: MessageKind::ModelUpdate,
            sample_count,
            storage_key: Some(storage_key),
            emitted_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> Message {
        Message::model_update(
            MessageId(1),
            TaskId(7),
            DeviceId(3),
            RoundId(0),
            2_000,
            StorageKey::for_update(TaskId(7), RoundId(0), DeviceId(3)),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn model_update_sets_kind_and_key() {
        let msg = sample_message();
        assert_eq!(msg.kind, MessageKind::ModelUpdate);
        assert_eq!(msg.storage_key.unwrap().to_string(), "task-7/round-0/dev-3");
    }

    #[test]
    fn serde_round_trip() {
        let msg = sample_message();
        let json = serde_json::to_string(&msg).unwrap();
        let back: Message = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }
}
