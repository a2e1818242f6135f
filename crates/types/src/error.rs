//! Platform-wide error type.

use std::error::Error as StdError;
use std::fmt;

use crate::ids::{PhoneId, TaskId};
use crate::time::SimInstant;

/// Convenience alias used across all SimDC crates.
pub type Result<T, E = SimdcError> = std::result::Result<T, E>;

/// Errors produced by the SimDC platform and its substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimdcError {
    /// A user-supplied configuration was rejected; the message explains the
    /// offending field and constraint.
    InvalidConfig(String),
    /// A resource request could not be satisfied by the current pools.
    ResourceExhausted {
        /// What was requested (human-readable).
        requested: String,
        /// What remained available (human-readable).
        available: String,
    },
    /// The referenced task is unknown to the task manager.
    TaskNotFound(TaskId),
    /// The referenced phone is not registered or not in a usable state.
    PhoneUnavailable(PhoneId),
    /// A phone was polled at an instant where it holds no active run: it
    /// is idle, outside its run, or crashed.
    NoActiveRun {
        /// The polled phone.
        phone: PhoneId,
        /// The polling instant.
        at: SimInstant,
    },
    /// A DeviceFlow strategy was rejected (e.g. a traffic function violating
    /// the single-valued/bounded/non-negative contract).
    InvalidStrategy(String),
    /// The allocation optimizer found the instance infeasible (e.g. more
    /// benchmarking phones requested than devices of that grade).
    InfeasibleAllocation(String),
    /// (De)serialization of a payload failed.
    Serialization(String),
}

impl fmt::Display for SimdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdcError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimdcError::ResourceExhausted {
                requested,
                available,
            } => write!(
                f,
                "resource request exceeds availability (requested {requested}, available {available})"
            ),
            SimdcError::TaskNotFound(id) => write!(f, "unknown task {id}"),
            SimdcError::PhoneUnavailable(id) => write!(f, "phone {id} is unavailable"),
            SimdcError::NoActiveRun { phone, at } => {
                write!(f, "phone {phone} has no active run at {at}")
            }
            SimdcError::InvalidStrategy(msg) => write!(f, "invalid dispatch strategy: {msg}"),
            SimdcError::InfeasibleAllocation(msg) => {
                write!(f, "infeasible allocation: {msg}")
            }
            SimdcError::Serialization(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl StdError for SimdcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_concise() {
        let cases: Vec<SimdcError> = vec![
            SimdcError::InvalidConfig("rounds must be > 0".into()),
            SimdcError::ResourceExhausted {
                requested: "80 bundles".into(),
                available: "50 bundles".into(),
            },
            SimdcError::TaskNotFound(TaskId(3)),
            SimdcError::PhoneUnavailable(PhoneId(1)),
            SimdcError::NoActiveRun {
                phone: PhoneId(1),
                at: SimInstant::EPOCH,
            },
            SimdcError::InvalidStrategy("negative rate".into()),
            SimdcError::InfeasibleAllocation("q exceeds N".into()),
            SimdcError::Serialization("truncated payload".into()),
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
        let no_run = SimdcError::NoActiveRun {
            phone: PhoneId(3),
            at: SimInstant::from_micros(40_000_000),
        };
        assert_eq!(
            no_run.to_string(),
            "phone phone-3 has no active run at t+40.000s"
        );
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_traits<T: StdError + Send + Sync + 'static>() {}
        assert_traits::<SimdcError>();
    }
}
