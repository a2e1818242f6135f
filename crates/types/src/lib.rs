//! Shared vocabulary types for the SimDC device simulation platform.
//!
//! Every other SimDC crate speaks in terms of the identifiers, virtual time,
//! resource descriptions, device grades and messages defined here. The crate
//! is deliberately dependency-light so that substrates (cluster, phone,
//! deviceflow) can interoperate without pulling each other in.
//!
//! # Examples
//!
//! ```
//! use simdc_types::{DeviceGrade, ResourceBundle, SimDuration};
//!
//! let bundle = ResourceBundle::new(1_000, 1_024, 0); // 1 core, 1 GiB
//! assert!(ResourceBundle::new(4_000, 12_288, 0).contains(&bundle));
//! assert_eq!(SimDuration::from_secs(90).as_millis(), 90_000);
//! assert!(DeviceGrade::High < DeviceGrade::Low);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod error;
pub mod grade;
pub mod ids;
pub mod message;
pub mod resources;
pub mod time;

pub use error::{Result, SimdcError};
pub use grade::{DeviceGrade, PerGrade};
pub use ids::{DeviceId, MessageId, NodeId, PhoneId, RoundId, StorageKey, TaskId};
pub use message::Message;
pub use resources::ResourceBundle;
pub use time::{SimDuration, SimInstant};
