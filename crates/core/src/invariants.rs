//! Platform-invariant oracles shared by debug assertions, the scenario
//! fuzzer and post-run checks.
//!
//! Each oracle is a pure *reader*: it inspects platform components and
//! reports [`InvariantViolation`]s without touching any state, so the same
//! functions back three consumers:
//!
//! * the platform's own `debug_assert`s (armed in every debug build, so a
//!   violation aborts the run at the first event that exhibits it),
//! * [`crate::Platform::invariant_violations`], the post-run oracle the
//!   scenario fuzzer (`crates/workload/tests/fuzz_scenarios.rs`) asserts
//!   after every sampled spec, and
//! * ad-hoc tests that want one invariant in isolation.
//!
//! The oracle catalog (ARCHITECTURE.md § "Scenario DSL & invariant
//! oracles"):
//!
//! 1. **Freeze/release pairing** — at idle, every freeze was paired with
//!    its release: free capacity equals total capacity and no lease is
//!    held ([`idle_violations`]).
//! 2. **Capacity bounds** — free never exceeds total, for unit bundles
//!    and for every phone grade, at every event
//!    ([`capacity_violations`]).
//! 3. **No terminal-state clobber** — no `mark_*` call ever attempted a
//!    transition out of a terminal task state
//!    ([`clobber_violation`]).
//! 4. **Billing reconciliation** — the reported cloud spend equals billed
//!    node-seconds × the hourly rate ([`billing_violation`]).
//! 5. **Thread-count invariance** — byte-identical summaries for every
//!    worker-thread count; this one needs two runs, so it lives in the
//!    fuzzer itself rather than here.

use std::fmt;

use simdc_types::DeviceGrade;

use crate::resources::ResourceManager;

/// One violated platform invariant, with the numbers that prove it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A resource freeze was never paired with its release: the platform
    /// is idle but capacity is still held.
    LeaseLeak {
        /// Leases still held at idle.
        active_leases: usize,
        /// Free unit bundles at idle.
        free_bundles: u64,
        /// Total unit bundles.
        total_bundles: u64,
    },
    /// Free unit bundles exceed the total — a double release or a botched
    /// rescale.
    BundleOverflow {
        /// Free unit bundles.
        free: u64,
        /// Total unit bundles.
        total: u64,
    },
    /// Free phones of one grade exceed that grade's total.
    PhoneOverflow {
        /// The offending grade.
        grade: DeviceGrade,
        /// Free phones of the grade.
        free: u64,
        /// Total phones of the grade.
        total: u64,
    },
    /// Cloud placement groups are still held at idle.
    PlacementLeak {
        /// Placement groups still held.
        active_jobs: usize,
    },
    /// A `mark_*` call attempted to transition a task out of a terminal
    /// state (the pre-PR-3 clobber bug); the guard rejected it and the
    /// queue counted the attempt.
    TerminalClobber {
        /// Rejected terminal-state transitions observed.
        attempts: u64,
    },
    /// The reported cloud spend does not reconcile with billed
    /// node-seconds × the hourly rate.
    BillingMismatch {
        /// Spend the cost meter reported.
        reported: f64,
        /// Spend implied by the lifecycle log (node-seconds pricing).
        expected: f64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::LeaseLeak {
                active_leases,
                free_bundles,
                total_bundles,
            } => write!(
                f,
                "resource lease leak at idle: {active_leases} active leases, \
                 {free_bundles}/{total_bundles} bundles free"
            ),
            InvariantViolation::BundleOverflow { free, total } => {
                write!(f, "free unit bundles exceed total: {free} > {total}")
            }
            InvariantViolation::PhoneOverflow { grade, free, total } => {
                write!(f, "free {grade:?} phones exceed total: {free} > {total}")
            }
            InvariantViolation::PlacementLeak { active_jobs } => {
                write!(
                    f,
                    "placement-group leak at idle: {active_jobs} groups still held"
                )
            }
            InvariantViolation::TerminalClobber { attempts } => write!(
                f,
                "terminal-state clobber: {attempts} rejected transitions out of terminal states"
            ),
            InvariantViolation::BillingMismatch { reported, expected } => write!(
                f,
                "billing mismatch: reported cost {reported} but node-seconds pricing implies \
                 {expected}"
            ),
        }
    }
}

/// Oracle 2 — capacity bounds: free ≤ total for unit bundles and for every
/// phone grade. Holds at *every* event, not just at idle; the platform
/// asserts it (debug builds) on each dispatch and completion.
#[must_use]
pub fn capacity_violations(rm: &ResourceManager) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    if rm.free_bundles() > rm.total_bundles() {
        violations.push(InvariantViolation::BundleOverflow {
            free: rm.free_bundles(),
            total: rm.total_bundles(),
        });
    }
    let totals = rm.total_phones();
    for grade in [DeviceGrade::High, DeviceGrade::Low] {
        let free = rm.free_phones(grade);
        let total = *totals.get(grade);
        if free > total {
            violations.push(InvariantViolation::PhoneOverflow { grade, free, total });
        }
    }
    violations
}

/// Oracle 1 — freeze/release pairing at idle: no active lease, free ==
/// total, and no placement group still held. Only meaningful once the
/// platform has drained (nothing pending or running).
#[must_use]
pub fn idle_violations(rm: &ResourceManager, active_jobs: usize) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    if !rm.fully_free() {
        violations.push(InvariantViolation::LeaseLeak {
            active_leases: rm.active_leases(),
            free_bundles: rm.free_bundles(),
            total_bundles: rm.total_bundles(),
        });
    }
    if active_jobs > 0 {
        violations.push(InvariantViolation::PlacementLeak { active_jobs });
    }
    violations
}

/// Oracle 3 — no terminal-state clobber: the queue counted zero rejected
/// transitions out of terminal states.
#[must_use]
pub fn clobber_violation(attempts: u64) -> Option<InvariantViolation> {
    (attempts > 0).then_some(InvariantViolation::TerminalClobber { attempts })
}

/// Oracle 4 — node-hour billing reconciles with the lifecycle log:
/// `reported == node_seconds * hourly_rate / 3600` within one float
/// rounding step. Call after the final partial node-hour was flushed
/// ([`crate::Platform::finalize_cost`]); an unflushed tail is a genuine
/// mismatch this oracle is meant to catch.
#[must_use]
pub fn billing_violation(
    reported: f64,
    node_seconds: f64,
    hourly_rate: f64,
) -> Option<InvariantViolation> {
    let expected = node_seconds * hourly_rate / 3_600.0;
    let tolerance = 1e-9 * expected.abs().max(1.0);
    ((reported - expected).abs() > tolerance)
        .then_some(InvariantViolation::BillingMismatch { reported, expected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::PerGrade;

    fn rm() -> ResourceManager {
        ResourceManager::new(10, PerGrade::from_parts(4, 6))
    }

    #[test]
    fn fresh_manager_passes_every_reader_oracle() {
        let rm = rm();
        assert!(capacity_violations(&rm).is_empty());
        assert!(idle_violations(&rm, 0).is_empty());
        assert!(clobber_violation(0).is_none());
        assert!(billing_violation(1.0, 3_600.0, 1.0).is_none());
    }

    #[test]
    fn held_lease_is_an_idle_leak_but_not_a_capacity_violation() {
        let mut rm = rm();
        rm.freeze(
            simdc_types::TaskId(1),
            crate::ResourceClaim {
                unit_bundles: 4,
                phones: PerGrade::from_parts(1, 0),
            },
        )
        .unwrap();
        assert!(capacity_violations(&rm).is_empty(), "free < total is fine");
        let violations = idle_violations(&rm, 0);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            InvariantViolation::LeaseLeak {
                active_leases: 1,
                free_bundles: 6,
                total_bundles: 10,
            }
        ));
    }

    #[test]
    fn overflow_and_placement_and_clobber_and_billing_fire() {
        let mut rm = rm();
        // Shrinking the total below the free count is the overflow shape
        // a double release would produce.
        rm.set_total_bundles(15);
        rm.set_total_bundles(10);
        assert!(capacity_violations(&rm).is_empty(), "set_total re-derives");
        assert_eq!(
            idle_violations(&rm, 3),
            vec![InvariantViolation::PlacementLeak { active_jobs: 3 }]
        );
        assert_eq!(
            clobber_violation(2),
            Some(InvariantViolation::TerminalClobber { attempts: 2 })
        );
        let billing = billing_violation(5.0, 3_600.0, 1.0).expect("5 != 1");
        assert!(billing.to_string().contains("billing mismatch"));
    }

    #[test]
    fn violations_render_their_numbers() {
        let v = InvariantViolation::BundleOverflow { free: 7, total: 5 };
        assert_eq!(v.to_string(), "free unit bundles exceed total: 7 > 5");
        let leak = InvariantViolation::LeaseLeak {
            active_leases: 1,
            free_bundles: 2,
            total_bundles: 3,
        };
        assert!(leak.to_string().contains("1 active leases"));
    }
}
