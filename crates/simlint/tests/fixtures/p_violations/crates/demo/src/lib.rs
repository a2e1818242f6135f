//! Seeded violations: one trigger per P-rule, reached through a short
//! call chain so the path diagnostics are exercised. The companion
//! tests pin the exact findings; edit both together.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Shared lease manager stand-in.
pub struct ResourceManager;

impl ResourceManager {
    /// Releases a lease (the seeded P1 mutation sink).
    pub fn release(&mut self, id: u64) {
        let _ = id;
    }
}

/// The configured worker entry point's owner.
pub struct Worker {
    rm: ResourceManager,
    cache: BTreeMap<u64, u64>,
}

impl Worker {
    /// Entry: everything reachable from here must be pure.
    pub fn build(&mut self, seed: u64) -> u64 {
        let total = self.tally(seed);
        self.finish(seed);
        total
    }

    /// Transitively reached: P2 (interior mutability), constructed and
    /// used; the ordered-map walk below it is fine.
    fn tally(&mut self, seed: u64) -> u64 {
        let guard = Mutex::new(seed);
        let mut total = 0u64;
        if let Ok(g) = guard.lock() {
            total += *g;
        }
        for (k, v) in self.cache.iter() {
            total += k + v;
        }
        total
    }

    /// Transitively reached: P1 (lease mutation mid-compute).
    fn finish(&mut self, id: u64) {
        self.rm.release(id);
    }
}

/// An unregistered parallel region: P4.
pub fn fan_out(items: Vec<u64>) -> Vec<u64> {
    run_batch(items)
}

fn run_batch(items: Vec<u64>) -> Vec<u64> {
    items
}
