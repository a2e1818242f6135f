//! Seeded taint violations: one trigger per T-rule (T1 reports both
//! collision sites), reached from `Worker::build` so the entry → sink
//! path diagnostics are exercised. The companion tests pin the exact
//! findings; edit both together.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// Deterministic stream stand-in (same surface as simrt's `RngStream`).
pub struct RngStream {
    state: u64,
}

impl RngStream {
    /// Root stream constructor: arg 0 is the audited seed position.
    pub fn named(seed: u64, label: &str) -> RngStream {
        RngStream {
            state: seed ^ label.len() as u64,
        }
    }

    /// Child stream constructor: arg 0 is the audited label position.
    pub fn fork(&mut self, label: &str) -> RngStream {
        RngStream {
            state: self.state ^ label.len() as u64,
        }
    }

    /// A draw: results are DRAWN-tainted.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(3);
        self.state
    }
}

/// Shared event-queue stand-in: `push` is the configured escape sink.
pub struct EventQueue {
    events: Vec<u64>,
}

impl EventQueue {
    /// The escape sink.
    pub fn push(&mut self, ev: u64) {
        self.events.push(ev);
    }
}

/// Merge-keyed event: `time` is a configured tainted field.
pub struct Event {
    /// Merge key, first component.
    pub time: u64,
}

/// The configured taint entry point's owner.
pub struct Worker {
    weights: BTreeMap<u64, f64>,
}

impl Worker {
    /// Entry: T1, T2 and T4 all fire on paths from here.
    pub fn build(seed: u64, tag: &str, queue: &mut EventQueue) -> f64 {
        let mut rng = RngStream::named(seed, "worker");
        let mut child = rng.fork("worker");
        let mut tagged = RngStream::named(seed, tag);
        let reseed = mk(child.next_u64());
        queue.push(step(&mut tagged));
        let mut ev = Event { time: 0 };
        ev.time = child.next_u64();
        let _ = (reseed, ev);
        let w = Worker {
            weights: BTreeMap::new(),
        };
        w.tally()
    }

    /// Transitively reached: an ordered float reduction — no finding.
    fn tally(&self) -> f64 {
        let mut acc = 0.0;
        for w in self.weights.values() {
            acc += w;
        }
        acc + self.weights.values().sum::<f64>()
    }
}

/// Helper: T4 fires at its call site when the caller hands it a draw.
fn mk(seed: u64) -> RngStream {
    RngStream::named(seed, "aux")
}

/// Helper whose summary records a drawn result.
fn step(rng: &mut RngStream) -> u64 {
    rng.next_u64()
}
