//! The hybrid allocation optimizer (§IV-B).
//!
//! A task simulates `N_g` devices of each grade `g`, of which `q_g` are
//! pinned to benchmarking phones. The remaining `N_g − q_g` must be split
//! between the Logical Simulation (`x_g` devices over `⌊f_g / k_g⌋`
//! actors, `⌈k_g·x_g / f_g⌉·α_g` of wall time) and the Device Simulation
//! (`N_g − q_g − x_g` devices over `m_g` phones,
//! `⌈(N_g−q_g−x_g)/m_g⌉·β_g + λ_g`). The task finishes when the slowest
//! grade on the slowest cluster finishes:
//!
//! ```text
//! minimize  T = max_g max( Tl_g(x_g), Tp_g(x_g) )
//! subject to 0 ≤ x_g ≤ N_g − q_g, x_g integer
//! ```
//!
//! Because each `x_g` only influences its own grade, the problem separates:
//! each grade independently minimizes `max(Tl, Tp)` where `Tl` is a
//! non-decreasing and `Tp` a non-increasing step function — the pointwise
//! max is unimodal and an exact binary search finds the integer optimum.
//! A secondary objective (paper: "maximize Σ x_g", preferring logical
//! resources) then pushes every grade's `x_g` as high as possible without
//! raising the global optimum `T*`.

use serde::{Deserialize, Serialize};
use simdc_types::{Result, SimDuration, SimdcError};

/// Per-grade inputs of the optimizer. All durations are the *calibrated
/// averages* the paper obtains "through empirical values or
/// pre-experimental measurements".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GradeAllocParams {
    /// Total devices to simulate (`N`).
    pub total_devices: u64,
    /// Devices reserved for benchmarking phones (`q`).
    pub benchmark: u64,
    /// Unit resource bundles granted in Logical Simulation (`f`).
    pub unit_bundles: u64,
    /// Unit bundles one simulated device consumes (`k`).
    pub units_per_device: u64,
    /// Physical *computation* phones granted in Device Simulation (`m`).
    /// Benchmarking phones are reserved separately — the paper notes they
    /// "are not reused as computation units".
    pub phones: u64,
    /// Mean per-device round time in Logical Simulation (`α`).
    pub alpha: SimDuration,
    /// Mean per-device round time on phones (`β`).
    pub beta: SimDuration,
    /// Compute-framework startup on phones (`λ`).
    pub lambda: SimDuration,
}

impl GradeAllocParams {
    /// Number of logical actors this grade can launch.
    #[must_use]
    pub fn actors(&self) -> u64 {
        self.unit_bundles
            .checked_div(self.units_per_device)
            .unwrap_or(0)
    }

    /// Devices that must be split between the two clusters (`N − q`).
    #[must_use]
    pub fn splittable(&self) -> u64 {
        self.total_devices.saturating_sub(self.benchmark)
    }

    /// Validates feasibility.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InfeasibleAllocation`] when `q > N`, when both
    /// clusters are absent while devices remain, or when durations are
    /// zero.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InfeasibleAllocation;
        if self.benchmark > self.total_devices {
            return Err(InfeasibleAllocation(format!(
                "benchmark devices ({}) exceed total devices ({})",
                self.benchmark, self.total_devices
            )));
        }
        if self.splittable() > 0 && self.actors() == 0 && self.phones == 0 {
            return Err(InfeasibleAllocation(
                "devices to simulate but neither bundles nor phones granted".into(),
            ));
        }
        if self.alpha.is_zero() || self.beta.is_zero() {
            return Err(InfeasibleAllocation(
                "per-device durations must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Logical-cluster time if `x` devices run there.
    #[must_use]
    pub fn logical_time(&self, x: u64) -> SimDuration {
        if x == 0 {
            return SimDuration::ZERO;
        }
        if self.actors() == 0 {
            // f < k: not even one actor fits, so no device can run here.
            return SimDuration::MAX;
        }
        // ⌈k·x / f⌉ · α
        let waves = (self.units_per_device * x).div_ceil(self.unit_bundles);
        self.alpha * waves
    }

    /// Phone-cluster time if `x` devices went logical: `N − q − x` compute
    /// devices wave over the `m` compute phones, while the `q` benchmark
    /// devices each run one round on their own reserved phone in parallel.
    #[must_use]
    pub fn phone_time(&self, x: u64) -> SimDuration {
        let compute_devices = self.splittable() - x.min(self.splittable());
        let compute_time = if compute_devices == 0 {
            SimDuration::ZERO
        } else if self.phones == 0 {
            SimDuration::MAX
        } else {
            self.lambda
                .saturating_add(self.beta * compute_devices.div_ceil(self.phones))
        };
        let benchmark_time = if self.benchmark > 0 {
            self.lambda.saturating_add(self.beta)
        } else {
            SimDuration::ZERO
        };
        compute_time.max(benchmark_time)
    }

    /// The grade's completion time for a given split.
    #[must_use]
    pub fn grade_time(&self, x: u64) -> SimDuration {
        self.logical_time(x).max(self.phone_time(x))
    }
}

/// The optimizer's decision for one grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GradeAllocation {
    /// Devices simulated in Logical Simulation (`x`).
    pub logical_devices: u64,
    /// Compute devices simulated on phones (`N − q − x`).
    pub phone_devices: u64,
    /// Benchmark devices (always on phones, `q`).
    pub benchmark_devices: u64,
    /// This grade's completion time.
    pub grade_time: SimDuration,
}

/// A full allocation across grades.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Per-grade decisions, in input order.
    pub grades: Vec<GradeAllocation>,
    /// The minimized task time `T* = max_g grade_time`.
    pub task_time: SimDuration,
}

/// Minimizes task time over the per-grade splits, then applies the
/// secondary objective: among all splits achieving `T*`, maximize the
/// number of logically simulated devices (the paper's "prioritizing the
/// use of Logical Simulation resources").
///
/// # Errors
///
/// Returns [`SimdcError::InfeasibleAllocation`] if any grade is infeasible
/// (see [`GradeAllocParams::validate`]).
pub fn optimize(params: &[GradeAllocParams]) -> Result<Allocation> {
    for p in params {
        p.validate()?;
    }
    // Phase 1: independent per-grade minimum.
    let optima: Vec<u64> = params.iter().map(minimize_grade).collect();
    let task_time = params
        .iter()
        .zip(&optima)
        .map(|(p, &x)| p.grade_time(x))
        .max()
        .unwrap_or(SimDuration::ZERO);

    // Phase 2: push x up to the largest value whose grade time still fits
    // under T* (logical_time is non-decreasing → binary search upper edge;
    // raising x never increases phone_time, so only Tl constrains).
    let grades = params
        .iter()
        .zip(&optima)
        .map(|(p, &x_opt)| {
            let hi = p.splittable();
            let x = largest_x_within(p, task_time, x_opt, hi);
            GradeAllocation {
                logical_devices: x,
                phone_devices: p.splittable() - x,
                benchmark_devices: p.benchmark,
                grade_time: p.grade_time(x),
            }
        })
        .collect();
    Ok(Allocation { grades, task_time })
}

/// Exhaustive reference implementation (used by property tests and tiny
/// instances): tries every feasible `x` and returns the minimal grade time.
#[must_use]
pub fn brute_force_grade(p: &GradeAllocParams) -> (u64, SimDuration) {
    let mut best_x = 0;
    let mut best_t = p.grade_time(0);
    for x in 1..=p.splittable() {
        let t = p.grade_time(x);
        if t < best_t {
            best_t = t;
            best_x = x;
        }
    }
    (best_x, best_t)
}

/// Binary search for the minimizer of the unimodal `max(Tl, Tp)`.
fn minimize_grade(p: &GradeAllocParams) -> u64 {
    let hi = p.splittable();
    if hi == 0 {
        return 0;
    }
    if p.actors() == 0 {
        return 0; // no logical capacity
    }
    if p.phones == 0 {
        return hi; // no phone capacity
    }
    // Find the largest x with Tl(x) <= Tp(x); the optimum is there or one
    // step right (where the curves cross).
    let (mut lo, mut hi_b) = (0u64, hi);
    // Invariant: Tl(lo) <= Tp(lo) (holds at 0: Tl=0). If not even x=0
    // satisfies it, phones dominate everywhere and x* = argmin over edge.
    if p.logical_time(0) > p.phone_time(0) {
        return 0;
    }
    while lo < hi_b {
        let mid = (lo + hi_b).div_ceil(2);
        if p.logical_time(mid) <= p.phone_time(mid) {
            lo = mid;
        } else {
            hi_b = mid - 1;
        }
    }
    let candidates = [lo, (lo + 1).min(hi)];
    candidates
        .into_iter()
        .min_by_key(|&x| (p.grade_time(x), std::cmp::Reverse(x)))
        .expect("two candidates")
}

/// Largest `x ∈ [floor, hi]` with `grade_time(x) ≤ budget` (logical time is
/// non-decreasing in x, so the feasible set is a prefix above `floor`).
fn largest_x_within(p: &GradeAllocParams, budget: SimDuration, floor: u64, hi: u64) -> u64 {
    if p.actors() == 0 {
        return floor;
    }
    let (mut lo, mut hi_b) = (floor, hi);
    while lo < hi_b {
        let mid = (lo + hi_b).div_ceil(2);
        if p.grade_time(mid) <= budget {
            lo = mid;
        } else {
            hi_b = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// The paper's running example: High devices with k = 8, f = 80.
    fn high_grade(n: u64) -> GradeAllocParams {
        GradeAllocParams {
            total_devices: n,
            benchmark: 5,
            unit_bundles: 80,
            units_per_device: 8,
            phones: 10,
            alpha: secs(16),
            beta: secs(16),
            lambda: secs(30),
        }
    }

    #[test]
    fn matches_brute_force_on_paper_example() {
        let p = high_grade(100);
        let alloc = optimize(&[p]).unwrap();
        let (_, best_t) = brute_force_grade(&p);
        assert_eq!(alloc.task_time, best_t);
        assert_eq!(alloc.grades[0].grade_time, best_t);
        // Sum check: every device is placed somewhere.
        let g = alloc.grades[0];
        assert_eq!(
            g.logical_devices + g.phone_devices + g.benchmark_devices,
            100
        );
    }

    #[test]
    fn secondary_objective_maximizes_logical_share() {
        let p = high_grade(100);
        let alloc = optimize(&[p]).unwrap();
        let x = alloc.grades[0].logical_devices;
        // Any larger x must exceed T*.
        if x < p.splittable() {
            assert!(p.grade_time(x + 1) > alloc.task_time);
        }
        // And x achieves T*.
        assert!(p.grade_time(x) <= alloc.task_time);
    }

    #[test]
    fn no_phones_pushes_everything_logical() {
        let p = GradeAllocParams {
            phones: 0,
            benchmark: 0,
            ..high_grade(50)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.grades[0].logical_devices, 50);
        assert_eq!(alloc.grades[0].phone_devices, 0);
    }

    #[test]
    fn no_bundles_pushes_everything_physical() {
        let p = GradeAllocParams {
            unit_bundles: 0,
            ..high_grade(50)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.grades[0].logical_devices, 0);
        assert_eq!(alloc.grades[0].phone_devices, 45);
    }

    #[test]
    fn small_scale_prefers_logical_due_to_startup() {
        // 8 devices, λ = 30 s dominates: logical (1 wave of α = 16 s) wins.
        let p = GradeAllocParams {
            benchmark: 0,
            ..high_grade(8)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.grades[0].logical_devices, 8);
        assert_eq!(alloc.task_time, secs(16));
    }

    #[test]
    fn large_scale_splits_work() {
        let p = GradeAllocParams {
            benchmark: 0,
            beta: secs(10), // phones faster per device at scale
            ..high_grade(500)
        };
        let alloc = optimize(&[p]).unwrap();
        let g = alloc.grades[0];
        assert!(g.logical_devices > 0 && g.phone_devices > 0, "{g:?}");
        // Optimized time beats both pure assignments.
        assert!(alloc.task_time <= p.grade_time(0));
        assert!(alloc.task_time <= p.grade_time(p.splittable()));
    }

    #[test]
    fn multi_grade_takes_the_max() {
        let fast = GradeAllocParams {
            benchmark: 0,
            ..high_grade(10)
        };
        let slow = GradeAllocParams {
            total_devices: 1_000,
            benchmark: 0,
            unit_bundles: 16,
            units_per_device: 8,
            phones: 4,
            alpha: secs(21),
            beta: secs(22),
            lambda: secs(45),
        };
        let alloc = optimize(&[fast, slow]).unwrap();
        assert_eq!(
            alloc.task_time,
            alloc.grades.iter().map(|g| g.grade_time).max().unwrap()
        );
        assert!(alloc.grades[1].grade_time > alloc.grades[0].grade_time);
    }

    #[test]
    fn infeasible_instances_rejected() {
        let p = GradeAllocParams {
            benchmark: 200,
            ..high_grade(100)
        };
        assert!(optimize(&[p]).is_err());
        let p = GradeAllocParams {
            unit_bundles: 0,
            phones: 0,
            benchmark: 0,
            ..high_grade(10)
        };
        assert!(optimize(&[p]).is_err());
    }

    #[test]
    fn benchmark_without_compute_phones_is_feasible() {
        // All splittable devices can go logical; the q benchmark devices
        // run on their own reserved phones.
        let p = GradeAllocParams {
            benchmark: 2,
            phones: 0,
            ..high_grade(10)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.grades[0].logical_devices, 8);
        assert_eq!(alloc.grades[0].benchmark_devices, 2);
    }

    #[test]
    fn zero_devices_is_trivially_ok() {
        let p = GradeAllocParams {
            total_devices: 0,
            benchmark: 0,
            ..high_grade(0)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.task_time, SimDuration::ZERO);
        assert_eq!(alloc.grades[0].logical_devices, 0);
    }

    #[test]
    fn benchmark_only_task_costs_one_phone_round() {
        let p = GradeAllocParams {
            total_devices: 5,
            benchmark: 5,
            ..high_grade(5)
        };
        let alloc = optimize(&[p]).unwrap();
        assert_eq!(alloc.task_time, secs(30 + 16));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn params_strategy() -> impl Strategy<Value = GradeAllocParams> {
            (
                0u64..400, // total
                0u64..4,   // benchmark
                0u64..200, // f
                1u64..12,  // k
                0u64..30,  // m
                1u64..40,  // alpha secs
                1u64..40,  // beta secs
                0u64..60,  // lambda secs
            )
                .prop_map(|(n, q, f, k, m, a, b, l)| GradeAllocParams {
                    total_devices: n,
                    benchmark: q.min(n),
                    unit_bundles: f,
                    units_per_device: k,
                    phones: m,
                    alpha: secs(a),
                    beta: secs(b),
                    lambda: secs(l),
                })
                .prop_filter("feasible", |p| p.validate().is_ok())
        }

        proptest! {
            #[test]
            fn optimizer_matches_brute_force(p in params_strategy()) {
                let alloc = optimize(&[p]).unwrap();
                let (_, best_t) = brute_force_grade(&p);
                prop_assert_eq!(alloc.task_time, best_t);
            }

            #[test]
            fn allocation_places_every_device(p in params_strategy()) {
                let alloc = optimize(&[p]).unwrap();
                let g = alloc.grades[0];
                prop_assert_eq!(
                    g.logical_devices + g.phone_devices + g.benchmark_devices,
                    p.total_devices
                );
            }

            #[test]
            fn secondary_objective_is_maximal(p in params_strategy()) {
                let alloc = optimize(&[p]).unwrap();
                let x = alloc.grades[0].logical_devices;
                prop_assert!(p.grade_time(x) <= alloc.task_time);
                if x < p.splittable() {
                    prop_assert!(p.grade_time(x + 1) > alloc.task_time);
                }
            }
        }
    }
}
