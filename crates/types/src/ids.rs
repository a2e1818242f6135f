//! Strongly typed identifiers.
//!
//! Each identifier is a newtype over an integer ([`StorageKey`] is a triple
//! of them) so that a task id can never be confused with a device id at a
//! call site. All ids implement the common traits eagerly
//! (`C-COMMON-TRAITS`); the integer ids serialize transparently.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! int_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value of this identifier.
            #[must_use]
            pub const fn as_u64(self) -> u64 {
                self.0 as u64
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

int_id!(
    /// Unique identifier of a submitted task (the paper's `task_id`).
    TaskId, "task", u64
);
int_id!(
    /// Identifier of one simulated edge device within a task.
    DeviceId, "dev", u64
);
int_id!(
    /// Identifier of a physical phone in the device-simulation cluster.
    PhoneId, "phone", u32
);
int_id!(
    /// Identifier of a worker node in the logical-simulation cluster.
    NodeId, "node", u32
);
int_id!(
    /// Identifier of a device→cloud message handled by DeviceFlow.
    MessageId, "msg", u64
);
int_id!(
    /// Zero-based index of a device-cloud collaboration round.
    RoundId, "round", u32
);

impl RoundId {
    /// The first round of a task.
    pub const FIRST: RoundId = RoundId(0);

    /// Returns the round that follows this one.
    #[must_use]
    pub const fn next(self) -> RoundId {
        RoundId(self.0 + 1)
    }
}

/// Key under which a device's computation result is stored in shared
/// storage: the `(task, round, device)` triple that produced it.
///
/// A device puts its update into storage and sends a [`crate::Message`]
/// carrying the key; the cloud service later takes the update out by key
/// (§III-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StorageKey {
    task: TaskId,
    round: RoundId,
    device: DeviceId,
}

impl StorageKey {
    /// Builds the canonical key for a device's result in a given round.
    ///
    /// ```
    /// use simdc_types::{DeviceId, RoundId, StorageKey, TaskId};
    /// let key = StorageKey::for_update(TaskId(7), RoundId(2), DeviceId(19));
    /// assert_eq!(key.to_string(), "task-7/round-2/dev-19");
    /// ```
    #[must_use]
    pub const fn for_update(task: TaskId, round: RoundId, device: DeviceId) -> Self {
        StorageKey {
            task,
            round,
            device,
        }
    }
}

impl fmt::Display for StorageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.task, self.round, self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_prefix() {
        assert_eq!(TaskId(3).to_string(), "task-3");
        assert_eq!(DeviceId(11).to_string(), "dev-11");
        assert_eq!(PhoneId(2).to_string(), "phone-2");
        assert_eq!(NodeId(9).to_string(), "node-9");
        assert_eq!(MessageId(1).to_string(), "msg-1");
        assert_eq!(RoundId(5).to_string(), "round-5");
    }

    #[test]
    fn round_next_increments() {
        assert_eq!(RoundId::FIRST.next(), RoundId(1));
        assert_eq!(RoundId(41).next(), RoundId(42));
    }

    #[test]
    fn ids_order_by_value() {
        assert!(TaskId(1) < TaskId(2));
        assert!(DeviceId(100) > DeviceId(99));
    }

    #[test]
    fn storage_key_round_trips_serde() {
        let key = StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(4));
        let json = serde_json::to_string(&key).unwrap();
        assert_eq!(json, r#"{"task":1,"round":0,"device":4}"#);
        let back: StorageKey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, key);
        assert_eq!(key.to_string(), "task-1/round-0/dev-4");
    }

    /// Keys order by `(task, round, device)` as numbers; the formatted
    /// string put `dev-10` before `dev-9`.
    #[test]
    fn storage_key_orders_numerically() {
        let key = |t, r, d| StorageKey::for_update(TaskId(t), RoundId(r), DeviceId(d));
        assert!(key(1, 0, 9) < key(1, 0, 10));
        assert!(key(1, 9, 99) < key(1, 10, 0));
        assert!(key(9, 7, 7) < key(10, 0, 0));
        assert!(key(1, 0, 10).to_string() < key(1, 0, 9).to_string());
    }

    #[test]
    fn id_serde_is_transparent() {
        assert_eq!(serde_json::to_string(&TaskId(9)).unwrap(), "9");
        let id: DeviceId = serde_json::from_str("77").unwrap();
        assert_eq!(id, DeviceId(77));
    }
}
