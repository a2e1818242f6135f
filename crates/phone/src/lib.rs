//! The Device Simulation substrate: a physical phone cluster behind
//! PhoneMgr.
//!
//! The paper drives real Android phones over ADB: PhoneMgr selects devices,
//! submits work, polls *benchmarking devices* for current, voltage, CPU,
//! memory and bandwidth at a fixed frequency, post-processes the noisy
//! command output and uploads the cleaned samples to a cloud database
//! (§IV-C). Real phones are not available in this environment, so this
//! crate emulates them one layer below PhoneMgr: each [`PhoneDevice`] is
//! a set of grade-calibrated power/CPU/memory/network models, and PhoneMgr
//! samples them as typed values — already the clean [`PerfSample`]s the
//! paper's post-processing extracts.
//!
//! Stage machine (Table I): ① clear background (no APK) → ② APK launch →
//! ③ training → ④ post-training → ⑤ APK closed, with unmeasured
//! *waiting-for-aggregation* gaps between training rounds (Fig 5).
//!
//! # Examples
//!
//! ```
//! use simdc_phone::{PhoneDevice, PhoneMgr, Provenance, RunPlan};
//! use simdc_types::{DeviceGrade, PhoneId, SimDuration, SimInstant, TaskId};
//!
//! let mut mgr = PhoneMgr::paper_default(42);
//! assert_eq!(mgr.total(), 30); // 10 local + 20 MSP phones
//! let picked = mgr
//!     .select(DeviceGrade::High, 2, SimInstant::EPOCH)
//!     .unwrap();
//! assert_eq!(picked.len(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod device;
pub(crate) mod index;
pub mod measure;
pub mod mgr;
pub mod profile;
pub mod stage;

pub use device::{PhoneDevice, Provenance};
pub use measure::{PerfReport, PerfSample, StageMetrics};
pub use mgr::{FleetSegment, FleetSpec, PhoneMgr};
pub use profile::PhoneProfile;
pub use stage::{RunPlan, Stage, StageWindow};
