//! Dispatch strategies and dropout specifications (§V-B).

use serde::{Deserialize, Serialize};
use simdc_types::{Result, SimDuration, SimInstant, SimdcError};

use crate::discretize::{auc_shares, FIRST_GRID};
use crate::function::{Domain, TrafficFunction};

/// A point in time that is either relative to the end of the round or
/// absolute on the simulation timeline (§V-B supports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeSpec {
    /// Offset after the activating event (round completion).
    Relative(SimDuration),
    /// Absolute virtual time.
    Absolute(SimInstant),
}

impl TimeSpec {
    /// Resolves against the activating instant, clamping absolute times
    /// that already passed to `reference` (dispatch as soon as possible).
    #[must_use]
    pub fn resolve(&self, reference: SimInstant) -> SimInstant {
        match *self {
            TimeSpec::Relative(d) => reference + d,
            TimeSpec::Absolute(t) => t.max(reference),
        }
    }
}

/// Dropout simulation knobs shared by the rule-based mechanisms: a
/// per-message transmission-failure probability and a random discard of a
/// fixed number of messages per dispatch point/interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Dropout {
    /// Independent per-message failure probability in `[0, 1]`.
    pub probability: f64,
    /// Number of randomly selected messages discarded at each dispatch
    /// point.
    pub random_discard: u64,
}

impl Dropout {
    /// No dropout.
    pub const NONE: Dropout = Dropout {
        probability: 0.0,
        random_discard: 0,
    };

    /// Validates the probability range.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidStrategy`] if the probability is not a
    /// probability.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.probability) {
            return Err(SimdcError::InvalidStrategy(format!(
                "dropout probability must be in [0, 1], got {}",
                self.probability
            )));
        }
        Ok(())
    }
}

/// One rule of the specific time-point dispatching mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePointRule {
    /// When to send.
    pub at: TimeSpec,
    /// How many messages to send (capped by what the shelf holds).
    pub count: u64,
    /// Dropout applied at this point.
    pub dropout: Dropout,
}

/// A task's message-dispatching strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatchStrategy {
    /// Real-time accumulated dispatching: activated at round start; each
    /// time the accumulated shelf reaches the current threshold the batch
    /// is flushed downstream. The threshold sequence is cycled (`[20, 100,
    /// 50]` → 20, 100, 50, 20, …); `[1]` degenerates to immediate
    /// per-message forwarding like conventional simulators.
    RealTimeAccumulated {
        /// Cycled accumulation thresholds.
        thresholds: Vec<u64>,
        /// Per-message transmission-failure probability (device dropout).
        failure_prob: f64,
    },
    /// Rule-based: send fixed amounts at specific time points after round
    /// completion.
    TimePoints {
        /// The dispatch rules.
        points: Vec<TimePointRule>,
    },
    /// Rule-based: follow a transmission-rate curve over a time interval
    /// after round completion; the pending shelf volume is apportioned by
    /// AUC shares (see [`crate::discretize()`]).
    TimeInterval {
        /// The rate curve.
        function: TrafficFunction,
        /// The curve's own domain (scaled onto `interval`).
        domain: Domain,
        /// When the interval starts.
        start: TimeSpec,
        /// Real-time length of the dispatch interval.
        interval: SimDuration,
        /// Dropout applied per dispatch point.
        dropout: Dropout,
    },
}

impl DispatchStrategy {
    /// Immediate forwarding (threshold 1, no failures) — the behaviour of
    /// conventional simulators.
    #[must_use]
    pub fn immediate() -> Self {
        DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: 0.0,
        }
    }

    /// Validates the strategy.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidStrategy`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidStrategy;
        match self {
            DispatchStrategy::RealTimeAccumulated {
                thresholds,
                failure_prob,
            } => {
                if thresholds.is_empty() {
                    return Err(InvalidStrategy(
                        "real-time strategy needs at least one threshold".into(),
                    ));
                }
                if thresholds.contains(&0) {
                    return Err(InvalidStrategy("thresholds must be >= 1".into()));
                }
                if !(0.0..=1.0).contains(failure_prob) {
                    return Err(InvalidStrategy(format!(
                        "failure probability must be in [0, 1], got {failure_prob}"
                    )));
                }
            }
            DispatchStrategy::TimePoints { points } => {
                if points.is_empty() {
                    return Err(InvalidStrategy(
                        "time-point strategy needs at least one point".into(),
                    ));
                }
                for p in points {
                    p.dropout.validate()?;
                }
            }
            DispatchStrategy::TimeInterval {
                function,
                domain,
                interval,
                dropout,
                ..
            } => {
                function.validate_on(domain)?;
                // The area must be apportionable at round completion.
                auc_shares(function, domain, FIRST_GRID)?;
                if interval.is_zero() {
                    return Err(InvalidStrategy("dispatch interval must be positive".into()));
                }
                dropout.validate()?;
            }
        }
        Ok(())
    }

    /// Whether the strategy activates at round start (real-time) rather
    /// than round completion (rule-based).
    #[must_use]
    pub fn activates_at_round_start(&self) -> bool {
        matches!(self, DispatchStrategy::RealTimeAccumulated { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timespec_resolution() {
        let t0 = SimInstant::from_micros(1_000_000);
        assert_eq!(
            TimeSpec::Relative(SimDuration::from_secs(5)).resolve(t0),
            t0 + SimDuration::from_secs(5)
        );
        let future = SimInstant::from_micros(9_000_000);
        assert_eq!(TimeSpec::Absolute(future).resolve(t0), future);
        // Past absolute times clamp to the reference.
        let past = SimInstant::from_micros(10);
        assert_eq!(TimeSpec::Absolute(past).resolve(t0), t0);
    }

    #[test]
    fn realtime_validation() {
        assert!(DispatchStrategy::immediate().validate().is_ok());
        assert!(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![],
            failure_prob: 0.0
        }
        .validate()
        .is_err());
        assert!(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![0],
            failure_prob: 0.0
        }
        .validate()
        .is_err());
        assert!(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: 1.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn timepoint_validation() {
        assert!(DispatchStrategy::TimePoints { points: vec![] }
            .validate()
            .is_err());
        let good = DispatchStrategy::TimePoints {
            points: vec![TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(1)),
                count: 100,
                dropout: Dropout::NONE,
            }],
        };
        assert!(good.validate().is_ok());
        let bad = DispatchStrategy::TimePoints {
            points: vec![TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(1)),
                count: 100,
                dropout: Dropout {
                    probability: -0.1,
                    random_discard: 0,
                },
            }],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn interval_validation() {
        let (f, d) = TrafficFunction::right_tailed_normal(1.0);
        let good = DispatchStrategy::TimeInterval {
            function: f.clone(),
            domain: d,
            start: TimeSpec::Relative(SimDuration::ZERO),
            interval: SimDuration::from_secs(60),
            dropout: Dropout::NONE,
        };
        assert!(good.validate().is_ok());
        let bad = DispatchStrategy::TimeInterval {
            function: f,
            domain: d,
            start: TimeSpec::Relative(SimDuration::ZERO),
            interval: SimDuration::ZERO,
            dropout: Dropout::NONE,
        };
        assert!(bad.validate().is_err());
        // The curve's area must be positive (else nothing is apportioned)
        // and finite (else the apportionment is not a number).
        for (function, end) in [
            (TrafficFunction::Constant(0.0), 1.0),
            (TrafficFunction::Exp10, 308.2),
        ] {
            let curve = DispatchStrategy::TimeInterval {
                function,
                domain: Domain::new(0.0, end).unwrap(),
                start: TimeSpec::Relative(SimDuration::ZERO),
                interval: SimDuration::from_secs(60),
                dropout: Dropout::NONE,
            };
            assert!(
                matches!(curve.validate(), Err(SimdcError::InvalidStrategy(_))),
                "{curve:?}"
            );
        }
    }

    #[test]
    fn activation_phase() {
        assert!(DispatchStrategy::immediate().activates_at_round_start());
        assert!(!DispatchStrategy::TimePoints {
            points: vec![TimePointRule {
                at: TimeSpec::Relative(SimDuration::ZERO),
                count: 1,
                dropout: Dropout::NONE,
            }],
        }
        .activates_at_round_start());
    }
}
