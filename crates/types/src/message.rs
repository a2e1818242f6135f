//! Device→cloud messages.
//!
//! When a device finishes a round of training it uploads its model update
//! and emits a [`Message`] toward the cloud service announcing it.
//! DeviceFlow intercepts these messages and forwards them according to the
//! task's dispatch strategy (§V of the paper); the cloud service then
//! fetches the update by [`Message::storage_key`].

use serde::{Deserialize, Serialize};

use crate::ids::{DeviceId, MessageId, RoundId, StorageKey, TaskId};
use crate::time::SimInstant;

/// A device's announcement to the cloud that its model update for a round
/// has been uploaded.
///
/// Messages are intentionally small: the bulky update (model weights) is
/// uploaded separately and referenced by key, mirroring the paper's
/// storage/notification split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Unique id assigned at emission.
    pub id: MessageId,
    /// Task this message belongs to; DeviceFlow's sorter routes on this.
    pub task: TaskId,
    /// Originating device.
    pub device: DeviceId,
    /// Round of the task.
    pub round: RoundId,
    /// Number of training samples behind this result (drives
    /// sample-threshold aggregation and FedAvg weighting).
    pub sample_count: u64,
    /// Where the update was uploaded.
    pub storage_key: StorageKey,
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
            sample_count,
            storage_key,
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
    fn model_update_sets_key() {
        let msg = sample_message();
        assert_eq!(msg.storage_key.to_string(), "task-7/round-0/dev-3");
    }

    #[test]
    fn serde_round_trip() {
        let msg = sample_message();
        let json = serde_json::to_string(&msg).unwrap();
        let back: Message = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }
}
