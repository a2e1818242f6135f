//! AUC-based discretization of rate functions into time-point plans.
//!
//! §V-B's recipe: (1) equate the pending message volume with the total area
//! under the user's curve, (2) pick a discrete step small enough that no
//! single point exceeds DeviceFlow's transmission capacity, (3) assign each
//! step the message count proportional to its share of the AUC, taking the
//! step's start as its transmission time. The function domain is scaled
//! onto the user's actual dispatch interval.

use serde::{Deserialize, Serialize};
use simdc_simrt::pearson_correlation;
use simdc_types::{Result, SimDuration, SimdcError};

use crate::function::{Domain, TrafficFunction};

/// One discrete transmission: `count` messages at `offset` from the start
/// of the dispatch interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchPoint {
    /// Offset from interval start.
    pub offset: SimDuration,
    /// Messages to send at this point.
    pub count: u64,
}

/// A discretized dispatch schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchPlan {
    points: Vec<DispatchPoint>,
    interval: SimDuration,
    step: SimDuration,
    volume: u64,
}

impl DispatchPlan {
    /// The scheduled points in time order (points with zero count are
    /// retained so the plan samples the curve uniformly).
    #[must_use]
    pub fn points(&self) -> &[DispatchPoint] {
        &self.points
    }

    /// The real-time length the plan spans.
    #[must_use]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The discrete step between points.
    #[must_use]
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Total messages scheduled (equals the requested volume exactly).
    #[must_use]
    pub fn volume(&self) -> u64 {
        self.volume
    }

    /// Largest single-point send.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|p| p.count).max().unwrap_or(0)
    }

    /// Pearson correlation between the planned per-point amounts and the
    /// source curve sampled at the same (scaled) offsets — Table II's
    /// similarity measure.
    #[must_use]
    pub fn correlation_with(&self, function: &TrafficFunction, domain: &Domain) -> f64 {
        let interval_secs = self.interval.as_secs_f64();
        if interval_secs == 0.0 {
            return 0.0;
        }
        // Each point's count is the bin's AUC mass, so the fairest curve
        // sample is the bin midpoint (the dispatch itself still fires at
        // the bin start, per §V-B).
        let half_step = self.step.as_secs_f64() / 2.0;
        let xs: Vec<f64> = self
            .points
            .iter()
            .map(|p| {
                let frac = (p.offset.as_secs_f64() + half_step) / interval_secs;
                function.eval(domain.lerp(frac))
            })
            .collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.count as f64).collect();
        pearson_correlation(&xs, &ys)
    }
}

/// Discretizes `function` over `domain`, scaled to `interval`, delivering
/// exactly `volume` messages with no point exceeding `capacity` messages.
///
/// # Errors
///
/// Returns [`SimdcError::InvalidStrategy`] when the function violates the
/// §V-B contract, the curve's area is zero (nothing to apportion) or not
/// finite, or the capacity is zero / infeasibly small.
pub fn discretize(
    function: &TrafficFunction,
    domain: &Domain,
    interval: SimDuration,
    volume: u64,
    capacity: u64,
) -> Result<DispatchPlan> {
    use SimdcError::InvalidStrategy;
    function.validate_on(domain)?;
    if interval.is_zero() {
        return Err(InvalidStrategy("dispatch interval must be positive".into()));
    }
    if capacity == 0 {
        return Err(InvalidStrategy(
            "transmission capacity must be positive".into(),
        ));
    }
    if volume == 0 {
        return Ok(DispatchPlan {
            points: Vec::new(),
            interval,
            step: interval,
            volume: 0,
        });
    }

    // Start from a reasonably dense grid and refine until the per-point
    // peak fits the capacity ("the interval is sufficiently small", §V-B).
    let mut n: usize = FIRST_GRID.min(volume as usize).max(1);
    const MAX_POINTS: usize = 1 << 20;
    loop {
        let shares = auc_shares(function, domain, n)?;
        let counts = largest_remainder(&shares, volume);
        let peak = counts.iter().copied().max().unwrap_or(0);
        if peak <= capacity {
            let step = interval / n as u64;
            // Offsets are apportioned as `interval · i / n` (in u128 so a
            // long interval times a dense grid cannot overflow) rather
            // than `step · i`: the truncated step would shift every point
            // early by up to `i` ticks, clustering the whole grid at the
            // front of the interval whenever `n` does not divide it.
            // Distributing the remainder keeps the last bin's start
            // within one tick of `interval · (n-1) / n` exactly.
            let grid_offset = |i: usize| {
                let micros = u128::from(interval.as_micros()) * i as u128 / n as u128;
                SimDuration::from_micros(micros as u64)
            };
            let points = counts
                .into_iter()
                .enumerate()
                .map(|(i, count)| DispatchPoint {
                    offset: grid_offset(i),
                    count,
                })
                .collect();
            return Ok(DispatchPlan {
                points,
                interval,
                step,
                volume,
            });
        }
        if n >= MAX_POINTS {
            return Err(InvalidStrategy(format!(
                "volume {volume} cannot respect capacity {capacity} even with {n} points \
                 (peak {peak}); lower the volume or raise the capacity"
            )));
        }
        n = (n * 2).min(MAX_POINTS);
    }
}

/// The grid [`discretize`] starts from for volumes of at least this many
/// messages.
pub(crate) const FIRST_GRID: usize = 64;

/// Per-subinterval AUC shares (normalized to sum 1), using an 8-subsample
/// trapezoid per subinterval so piecewise-continuous curves integrate
/// acceptably.
///
/// # Errors
///
/// Returns [`SimdcError::InvalidStrategy`] when the total area is zero or
/// not finite: there is nothing to apportion, or the shares are not
/// numbers.
pub(crate) fn auc_shares(
    function: &TrafficFunction,
    domain: &Domain,
    n: usize,
) -> Result<Vec<f64>> {
    const SUB: usize = 8;
    let mut areas = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        let mut area = 0.0;
        let h = (hi - lo) / SUB as f64;
        for s in 0..SUB {
            let a = domain.lerp(lo + h * s as f64);
            let b = domain.lerp(lo + h * (s + 1) as f64);
            area += 0.5 * (function.eval(a) + function.eval(b)) * (b - a);
        }
        areas.push(area);
        total += area;
    }
    if !(total.is_finite() && total > 0.0) {
        return Err(SimdcError::InvalidStrategy(format!(
            "rate function's area on the domain must be positive and finite, got {total}"
        )));
    }
    Ok(areas.into_iter().map(|a| a / total).collect())
}

/// Apportions `volume` across `shares` (which sum to 1) with the largest-
/// remainder method, so the result sums to `volume` exactly.
fn largest_remainder(shares: &[f64], volume: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = Vec::with_capacity(shares.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(shares.len());
    let mut assigned: u64 = 0;
    for (i, &s) in shares.iter().enumerate() {
        let exact = s * volume as f64;
        let floor = exact.floor() as u64;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    let mut leftover = volume - assigned;
    // Stable tie-break on index keeps the apportionment deterministic.
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("remainders are finite")
            .then(a.0.cmp(&b.0))
    });
    for &(idx, _) in &remainders {
        if leftover == 0 {
            break;
        }
        counts[idx] += 1;
        leftover -= 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_secs(60)
    }

    #[test]
    fn plan_conserves_volume_exactly() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        let plan = discretize(&f, &d, minute(), 10_000, 700).unwrap();
        let total: u64 = plan.points().iter().map(|p| p.count).sum();
        assert_eq!(total, 10_000);
        assert_eq!(plan.volume(), 10_000);
    }

    #[test]
    fn peak_respects_capacity() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        let plan = discretize(&f, &d, minute(), 10_000, 700).unwrap();
        assert!(plan.peak() <= 700, "peak {}", plan.peak());
    }

    #[test]
    fn offsets_are_increasing_and_within_interval() {
        let (f, d) = TrafficFunction::right_tailed_normal(2.0);
        let plan = discretize(&f, &d, minute(), 5_000, 700).unwrap();
        for pair in plan.points().windows(2) {
            assert!(pair[0].offset < pair[1].offset);
        }
        assert!(plan.points().last().unwrap().offset < minute());
    }

    #[test]
    fn grid_spans_the_interval_without_truncation_drift() {
        // 7 µs over a grid the point count does not divide: the old
        // `step * i` offsets truncated `step` first, clustering every
        // point early and leaving the tail of the interval empty.
        let f = TrafficFunction::Constant(1.0);
        let d = Domain::new(0.0, 1.0).unwrap();
        let interval = SimDuration::from_micros(1_000_003); // prime, n ∤ interval
        let plan = discretize(&f, &d, interval, 640, 700).unwrap();
        let n = plan.points().len() as u64;
        assert!(n > 1);
        // The last bin must start within one tick of interval·(n-1)/n —
        // i.e. the grid reaches the end of the interval instead of
        // stopping `n` ticks short.
        let last = plan.points().last().unwrap().offset;
        let exact_last = interval.as_micros() * (n - 1) / n;
        assert!(
            last.as_micros() >= exact_last.saturating_sub(1),
            "grid stops early: last offset {last} vs exact {exact_last}µs"
        );
        assert!(last + plan.step() <= interval + SimDuration::from_micros(n));
        // Per-point drift never exceeds one tick anywhere on the grid.
        for (i, p) in plan.points().iter().enumerate() {
            let exact = interval.as_micros() * i as u64 / n;
            assert!(
                p.offset.as_micros().abs_diff(exact) <= 1,
                "point {i} drifted: {} vs {exact}",
                p.offset.as_micros()
            );
        }
    }

    #[test]
    fn table2_correlations_exceed_0_99() {
        let six_pi = 6.0 * std::f64::consts::PI;
        let cases: Vec<(TrafficFunction, Domain)> = vec![
            (
                TrafficFunction::Normal { sigma: 1.0 },
                Domain::new(-4.0, 4.0).unwrap(),
            ),
            (
                TrafficFunction::Normal { sigma: 2.0 },
                Domain::new(-4.0, 4.0).unwrap(),
            ),
            (TrafficFunction::SinPlus1, Domain::new(0.0, six_pi).unwrap()),
            (TrafficFunction::CosPlus1, Domain::new(0.0, six_pi).unwrap()),
            (TrafficFunction::Exp2, Domain::new(0.0, 3.0).unwrap()),
            (TrafficFunction::Exp10, Domain::new(0.0, 3.0).unwrap()),
        ];
        for (f, d) in cases {
            let plan = discretize(&f, &d, minute(), 10_000, 700).unwrap();
            let r = plan.correlation_with(&f, &d);
            assert!(r > 0.99, "{f:?}: r = {r}");
        }
    }

    #[test]
    fn capacity_forces_denser_grids() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        let loose = discretize(&f, &d, minute(), 10_000, 700).unwrap();
        let tight = discretize(&f, &d, minute(), 10_000, 50).unwrap();
        assert!(tight.points().len() > loose.points().len());
        assert!(tight.peak() <= 50);
        let total: u64 = tight.points().iter().map(|p| p.count).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn zero_volume_gives_empty_plan() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        let plan = discretize(&f, &d, minute(), 0, 700).unwrap();
        assert!(plan.points().is_empty());
        assert_eq!(plan.peak(), 0);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        assert!(discretize(&f, &d, SimDuration::ZERO, 10, 700).is_err());
        assert!(discretize(&f, &d, minute(), 10, 0).is_err());
        let zero = TrafficFunction::Constant(0.0);
        assert!(discretize(&zero, &d, minute(), 10, 700).is_err());
        // Every sample is finite, but neighbouring ones sum past f64::MAX:
        // an error, not a panic.
        let huge = Domain::new(0.0, 308.2).unwrap();
        assert!(TrafficFunction::Exp10.validate_on(&huge).is_ok());
        assert!(discretize(&TrafficFunction::Exp10, &huge, minute(), 100, 700).is_err());
    }

    #[test]
    fn uniform_curve_spreads_evenly() {
        let f = TrafficFunction::Constant(1.0);
        let d = Domain::new(0.0, 1.0).unwrap();
        let plan = discretize(&f, &d, minute(), 6_400, 700).unwrap();
        let counts: Vec<u64> = plan.points().iter().map(|p| p.count).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "uniform apportionment: {min}..{max}");
    }

    #[test]
    fn largest_remainder_is_exact() {
        let shares = vec![0.5, 0.25, 0.25];
        // Exact quotas 3.5 / 1.75 / 1.75 → floors 3/1/1, two leftovers go to
        // the largest remainders (the 0.75s).
        assert_eq!(largest_remainder(&shares, 7), vec![3, 2, 2]);
        let shares = vec![1.0 / 3.0; 3];
        let counts = largest_remainder(&shares, 10);
        assert_eq!(counts.iter().sum::<u64>(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn function_strategy() -> impl Strategy<Value = (TrafficFunction, Domain)> {
        prop_oneof![
            (0.2f64..4.0).prop_map(|s| (
                TrafficFunction::Normal { sigma: s },
                Domain {
                    start: -3.0,
                    end: 3.0
                },
            )),
            (0.5f64..20.0).prop_map(|end| (TrafficFunction::SinPlus1, Domain { start: 0.0, end },)),
            (0.1f64..3.0).prop_map(|end| (TrafficFunction::Exp2, Domain { start: 0.0, end },)),
            (0.1f64..100.0).prop_map(|c| (
                TrafficFunction::Constant(c),
                Domain {
                    start: 0.0,
                    end: 1.0
                },
            )),
        ]
    }

    proptest! {
        /// Σ dispatched == volume, exactly, for any curve/volume/capacity.
        #[test]
        fn conservation(
            (function, domain) in function_strategy(),
            volume in 0u64..20_000,
            capacity in 1u64..2_000,
            interval_secs in 1u64..600,
        ) {
            let plan = discretize(
                &function,
                &domain,
                SimDuration::from_secs(interval_secs),
                volume,
                capacity,
            );
            // Tiny capacities with huge volumes may be infeasible; that
            // must surface as an error, never as silent loss.
            if let Ok(plan) = plan {
                let total: u64 = plan.points().iter().map(|p| p.count).sum();
                prop_assert_eq!(total, volume);
                prop_assert!(plan.peak() <= capacity);
                for pair in plan.points().windows(2) {
                    prop_assert!(pair[0].offset < pair[1].offset);
                }
            } else {
                prop_assert!(volume > capacity, "feasible inputs must not error");
            }
        }

        /// Largest-remainder apportionment is exact for any share vector.
        #[test]
        fn apportionment_exact(
            raw in proptest::collection::vec(0.01f64..10.0, 1..64),
            volume in 0u64..10_000,
        ) {
            let total: f64 = raw.iter().sum();
            let shares: Vec<f64> = raw.iter().map(|x| x / total).collect();
            let counts = largest_remainder(&shares, volume);
            prop_assert_eq!(counts.iter().sum::<u64>(), volume);
            prop_assert_eq!(counts.len(), shares.len());
        }
    }
}
