//! The SimDC benchmark: six workloads, end-to-end metrics from untraced
//! runs, per-layer metrics from traced runs and component probes.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions; nothing in the simulator is instrumented. See `README.md`
//! for the metric glossary and `BENCHMARK.json` at the repository root for
//! the contract the driver runs this against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// The root clippy.toml bans `Instant::now` because simulation code must run
// on virtual time. This package is the measurement harness: host time is
// its product, and none of it feeds back into a simulation.
#![allow(clippy::disallowed_methods)]

pub mod compare;
pub mod driver;
pub mod layers;
pub mod probes;
pub mod procfs;
pub mod registry;
pub mod rep;
pub mod spans;
pub mod stats;
pub mod traffic;
pub mod workload;
