//! The Resource Manager: querying, freezing and releasing hybrid
//! heterogeneous resources (§III-B).
//!
//! The manager tracks *quantities* — unit bundles in the logical cluster
//! and phones per grade — so the task scheduler can decide admission
//! without touching the substrates; the substrates enforce the physical
//! placement when the task actually runs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceGrade, PerGrade, Result, SimdcError, TaskId};

/// Quantities a task freezes for its lifetime. `Ord` (bundles, then high
/// phones, then low phones) exists so a claim can key the task queue's
/// pending index; the order itself carries no meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct ResourceClaim {
    /// Unit bundles in Logical Simulation.
    pub unit_bundles: u64,
    /// Phones per grade in Device Simulation.
    pub phones: PerGrade<u64>,
}

impl ResourceClaim {
    /// Whether nothing is claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.unit_bundles == 0 && self.phones.iter().all(|(_, &n)| n == 0)
    }
}

/// Tracks free/total capacity and per-task leases.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    total_bundles: u64,
    free_bundles: u64,
    total_phones: PerGrade<u64>,
    free_phones: PerGrade<u64>,
    leases: BTreeMap<TaskId, ResourceClaim>,
}

impl ResourceManager {
    /// Creates a manager over the given capacity.
    #[must_use]
    pub fn new(total_bundles: u64, total_phones: PerGrade<u64>) -> Self {
        ResourceManager {
            total_bundles,
            free_bundles: total_bundles,
            total_phones,
            free_phones: total_phones,
            leases: BTreeMap::new(),
        }
    }

    /// Free unit bundles.
    #[must_use]
    pub fn free_bundles(&self) -> u64 {
        self.free_bundles
    }

    /// Total unit bundles (free + frozen).
    #[must_use]
    pub fn total_bundles(&self) -> u64 {
        self.total_bundles
    }

    /// Free phones of a grade.
    #[must_use]
    pub fn free_phones(&self, grade: DeviceGrade) -> u64 {
        *self.free_phones.get(grade)
    }

    /// Total phones per grade (free + frozen).
    #[must_use]
    pub fn total_phones(&self) -> PerGrade<u64> {
        self.total_phones
    }

    /// Whether every resource is back in the pool: no lease outstanding
    /// and free capacity equal to total capacity. An idle platform must
    /// satisfy this — a `false` here means a freeze was never paired with
    /// its release (or vice versa).
    #[must_use]
    pub fn fully_free(&self) -> bool {
        self.leases.is_empty()
            && self.free_bundles == self.total_bundles
            && DeviceGrade::ALL
                .iter()
                .all(|&g| self.free_phones.get(g) == self.total_phones.get(g))
    }

    /// Resyncs the unit-bundle total to `total` (the logical cluster's
    /// *ready* capacity as of the current scheduling pass) and recomputes
    /// free capacity as `total − frozen` (saturating at zero). Free is
    /// derived from the outstanding leases rather than by applying a
    /// delta, so an elastic scale-in below the frozen amount followed by a
    /// later scale-out stays honest: regrown capacity only frees once its
    /// leases release. (Phone totals have no such resync: the fleet is
    /// fixed, so they keep the value [`ResourceManager::new`] gave them.)
    pub fn set_total_bundles(&mut self, total: u64) {
        let frozen: u64 = self.leases.values().map(|c| c.unit_bundles).sum();
        self.total_bundles = total;
        self.free_bundles = total.saturating_sub(frozen);
    }

    /// Whether `claim` currently fits.
    #[must_use]
    pub fn fits(&self, claim: &ResourceClaim) -> bool {
        self.free_bundles >= claim.unit_bundles
            && DeviceGrade::ALL
                .iter()
                .all(|&g| *self.free_phones.get(g) >= *claim.phones.get(g))
    }

    /// Freezes `claim` for `task`.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] when the claim does not
    /// fit, and `InvalidConfig` when the task already holds a lease.
    pub fn freeze(&mut self, task: TaskId, claim: ResourceClaim) -> Result<()> {
        if self.leases.contains_key(&task) {
            return Err(SimdcError::InvalidConfig(format!(
                "task {task} already holds a resource lease"
            )));
        }
        if !self.fits(&claim) {
            return Err(SimdcError::ResourceExhausted {
                requested: format!(
                    "{} bundles, {}/{} phones",
                    claim.unit_bundles, claim.phones.high, claim.phones.low
                ),
                available: format!(
                    "{} bundles, {}/{} phones",
                    self.free_bundles, self.free_phones.high, self.free_phones.low
                ),
            });
        }
        self.free_bundles -= claim.unit_bundles;
        for grade in DeviceGrade::ALL {
            *self.free_phones.get_mut(grade) -= *claim.phones.get(grade);
        }
        self.leases.insert(task, claim);
        Ok(())
    }

    /// Releases a task's lease. Returns the claim, or `None` if the task
    /// held nothing.
    pub fn release(&mut self, task: TaskId) -> Option<ResourceClaim> {
        let claim = self.leases.remove(&task)?;
        self.free_bundles = (self.free_bundles + claim.unit_bundles).min(self.total_bundles);
        for grade in DeviceGrade::ALL {
            let free = self.free_phones.get_mut(grade);
            *free = (*free + *claim.phones.get(grade)).min(*self.total_phones.get(grade));
        }
        Some(claim)
    }

    /// Number of active leases.
    #[must_use]
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ResourceManager {
        ResourceManager::new(200, PerGrade::from_parts(17, 13))
    }

    fn claim(bundles: u64, high: u64, low: u64) -> ResourceClaim {
        ResourceClaim {
            unit_bundles: bundles,
            phones: PerGrade::from_parts(high, low),
        }
    }

    #[test]
    fn freeze_and_release_round_trip() {
        let mut rm = manager();
        rm.freeze(TaskId(1), claim(80, 5, 0)).unwrap();
        assert_eq!(rm.free_bundles(), 120);
        assert_eq!(rm.free_phones(DeviceGrade::High), 12);
        assert_eq!(rm.active_leases(), 1);
        let released = rm.release(TaskId(1)).unwrap();
        assert_eq!(released, claim(80, 5, 0));
        assert_eq!(rm.free_bundles(), 200);
        assert_eq!(rm.active_leases(), 0);
    }

    #[test]
    fn overcommit_rejected() {
        let mut rm = manager();
        assert!(rm.freeze(TaskId(1), claim(201, 0, 0)).is_err());
        assert!(rm.freeze(TaskId(1), claim(10, 18, 0)).is_err());
        assert!(rm.freeze(TaskId(1), claim(10, 0, 14)).is_err());
        assert_eq!(rm.free_bundles(), 200, "failed freeze must not leak");
    }

    #[test]
    fn double_freeze_rejected() {
        let mut rm = manager();
        rm.freeze(TaskId(1), claim(10, 0, 0)).unwrap();
        assert!(rm.freeze(TaskId(1), claim(10, 0, 0)).is_err());
    }

    #[test]
    fn release_unknown_task_is_none() {
        let mut rm = manager();
        assert!(rm.release(TaskId(9)).is_none());
    }

    #[test]
    fn concurrent_leases_share_capacity() {
        let mut rm = manager();
        rm.freeze(TaskId(1), claim(100, 8, 6)).unwrap();
        rm.freeze(TaskId(2), claim(100, 9, 7)).unwrap();
        assert_eq!(rm.free_bundles(), 0);
        assert!(rm.freeze(TaskId(3), claim(1, 0, 0)).is_err());
        rm.release(TaskId(1));
        assert!(rm.freeze(TaskId(3), claim(1, 0, 0)).is_ok());
    }

    #[test]
    fn fully_free_detects_leaks() {
        let mut rm = manager();
        assert!(rm.fully_free());
        rm.freeze(TaskId(1), claim(10, 1, 0)).unwrap();
        assert!(!rm.fully_free());
        rm.release(TaskId(1));
        assert!(rm.fully_free());
        assert_eq!(rm.total_bundles(), 200);
        assert_eq!(rm.total_phones(), PerGrade::from_parts(17, 13));
    }
}
