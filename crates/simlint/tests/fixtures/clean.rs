//! A determinism-clean file: every rule passes.
//!
//! Kept as the negative control for the fixture suite — if simlint ever
//! flags this file, a rule grew a false positive.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

/// Ordered per-task accounting.
pub struct Claims {
    by_task: BTreeMap<u64, u64>,
    seen: BTreeSet<u64>,
}

impl Claims {
    /// Records a claim; error strings mentioning HashMap or Instant are
    /// fine — rules never look inside literals or comments.
    pub fn record(&mut self, task: u64, amount: u64) -> Result<(), String> {
        if !self.seen.insert(task) {
            return Err("task already claimed (not a HashMap ordering bug)".into());
        }
        self.by_task.insert(task, amount);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // Test code may use anything: unordered maps, wall clocks, unwraps.
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn scaffolding_is_exempt() {
        let mut m = HashMap::new();
        m.insert(1u8, Instant::now());
        assert!(m.get(&1).unwrap().elapsed().as_secs() < 60);
    }
}
