//! Deterministic twin of the t_violations fixture: distinct constant
//! labels, ordered containers, seeds traced to the experiment seed, and
//! draws that stay inside the compute phase. One deliberate reseed is
//! covered by a reviewed `simlint::allow` waiver, so the scan still
//! exits 0 — and the waiver is *used*, so no S1 fires either.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// Deterministic stream stand-in (same surface as simrt's `RngStream`).
pub struct RngStream {
    state: u64,
}

impl RngStream {
    /// Root stream constructor.
    pub fn named(seed: u64, label: &str) -> RngStream {
        RngStream {
            state: seed ^ label.len() as u64,
        }
    }

    /// Child stream constructor.
    pub fn fork(&mut self, label: &str) -> RngStream {
        RngStream {
            state: self.state ^ label.len() as u64,
        }
    }

    /// A draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(3);
        self.state
    }
}

/// Shared event-queue stand-in.
pub struct EventQueue {
    events: Vec<u64>,
}

impl EventQueue {
    /// Only untainted values arrive here.
    pub fn push(&mut self, ev: u64) {
        self.events.push(ev);
    }
}

/// The configured taint entry point's owner.
pub struct Worker {
    weights: BTreeMap<u64, f64>,
}

impl Worker {
    /// Entry: every stream label is distinct and constant, every seed
    /// traces to `seed`, and the one push carries no draw.
    pub fn build(seed: u64, queue: &mut EventQueue) -> f64 {
        let mut rng = RngStream::named(seed, "worker");
        let mut device = rng.fork("device");
        let _ = replay(&mut device);
        queue.push(seed);
        let w = Worker {
            weights: BTreeMap::new(),
        };
        w.tally()
    }

    /// Ordered float reduction — no finding.
    fn tally(&self) -> f64 {
        let mut acc = 0.0;
        for w in self.weights.values() {
            acc += w;
        }
        acc + self.weights.values().sum::<f64>()
    }
}

/// Replay deliberately reseeds from a draw; the inline waiver is the
/// reviewed record, and the scan must count it as used (no S1).
fn replay(rng: &mut RngStream) -> RngStream {
    let salt = rng.next_u64();
    // simlint::allow(T4/seed-provenance): replay reseeding is this fixture's reviewed waiver
    RngStream::named(salt, "replay")
}
