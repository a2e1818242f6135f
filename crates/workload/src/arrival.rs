//! Composable task arrival processes.
//!
//! Every process is a (possibly time-varying) Poisson process described by
//! an intensity `λ(t)` in tasks per minute. Sampling uses Lewis–Shedler
//! thinning against the peak intensity, driven by a named [`RngStream`], so
//! any two runs with the same seed produce the same arrival instants and
//! different seeds produce different ones.

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
use simdc_types::{Result, SimDuration, SimdcError};

/// A stochastic arrival process for task submissions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson {
        /// Mean arrivals per minute.
        rate_per_min: f64,
    },
    /// Sinusoidal day/night modulation:
    /// `λ(t) = mean + amplitude · sin(2πt / period)`.
    Diurnal {
        /// Mean arrivals per minute.
        mean_per_min: f64,
        /// Modulation amplitude (must not exceed the mean).
        amplitude_per_min: f64,
        /// Length of one day/night cycle.
        period: SimDuration,
    },
    /// Flash-crowd traffic: a base rate multiplied by `burst_multiplier`
    /// during a recurring burst window.
    Bursty {
        /// Background arrivals per minute.
        base_per_min: f64,
        /// Rate multiplier inside a burst window.
        burst_multiplier: f64,
        /// Interval between burst starts.
        burst_every: SimDuration,
        /// Length of each burst window.
        burst_len: SimDuration,
    },
    /// Superposition of independent processes (rates add) — the
    /// composition operator.
    Superpose(Vec<ArrivalProcess>),
}

impl ArrivalProcess {
    /// The intensity `λ(t)` in arrivals per minute, `t` measured from the
    /// scenario start.
    #[must_use]
    pub fn rate_per_min_at(&self, t: SimDuration) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_min } => *rate_per_min,
            ArrivalProcess::Diurnal {
                mean_per_min,
                amplitude_per_min,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64();
                (mean_per_min + amplitude_per_min * (std::f64::consts::TAU * phase).sin()).max(0.0)
            }
            ArrivalProcess::Bursty {
                base_per_min,
                burst_multiplier,
                burst_every,
                burst_len,
            } => {
                let within = t.as_micros() % burst_every.as_micros();
                if within < burst_len.as_micros() {
                    base_per_min * burst_multiplier
                } else {
                    *base_per_min
                }
            }
            ArrivalProcess::Superpose(parts) => parts.iter().map(|p| p.rate_per_min_at(t)).sum(),
        }
    }

    /// An upper bound on `λ(t)` used as the thinning envelope.
    #[must_use]
    pub fn peak_rate_per_min(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_min } => *rate_per_min,
            ArrivalProcess::Diurnal {
                mean_per_min,
                amplitude_per_min,
                ..
            } => mean_per_min + amplitude_per_min,
            ArrivalProcess::Bursty {
                base_per_min,
                burst_multiplier,
                ..
            } => base_per_min * burst_multiplier.max(1.0),
            ArrivalProcess::Superpose(parts) => {
                parts.iter().map(ArrivalProcess::peak_rate_per_min).sum()
            }
        }
    }

    /// Validates rates and windows.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for non-positive/non-finite rates, an
    /// amplitude exceeding the mean, degenerate burst windows, or an empty
    /// superposition.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        let finite_positive = |v: f64, what: &str| -> Result<()> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(InvalidConfig(format!("{what} must be positive, got {v}")))
            }
        };
        match self {
            ArrivalProcess::Poisson { rate_per_min } => {
                finite_positive(*rate_per_min, "poisson rate")
            }
            ArrivalProcess::Diurnal {
                mean_per_min,
                amplitude_per_min,
                period,
            } => {
                finite_positive(*mean_per_min, "diurnal mean rate")?;
                if !amplitude_per_min.is_finite() || *amplitude_per_min < 0.0 {
                    return Err(InvalidConfig(format!(
                        "diurnal amplitude must be non-negative, got {amplitude_per_min}"
                    )));
                }
                if amplitude_per_min > mean_per_min {
                    return Err(InvalidConfig(format!(
                        "diurnal amplitude ({amplitude_per_min}) exceeds mean ({mean_per_min})"
                    )));
                }
                if period.is_zero() {
                    return Err(InvalidConfig("diurnal period must be positive".into()));
                }
                Ok(())
            }
            ArrivalProcess::Bursty {
                base_per_min,
                burst_multiplier,
                burst_every,
                burst_len,
            } => {
                finite_positive(*base_per_min, "bursty base rate")?;
                finite_positive(*burst_multiplier, "burst multiplier")?;
                if burst_every.is_zero() || burst_len.is_zero() || burst_len > burst_every {
                    return Err(InvalidConfig(
                        "burst window must satisfy 0 < burst_len <= burst_every".into(),
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Superpose(parts) => {
                if parts.is_empty() {
                    return Err(InvalidConfig("superposition must not be empty".into()));
                }
                parts.iter().try_for_each(ArrivalProcess::validate)
            }
        }
    }

    /// Samples the arrival offsets (from the scenario start) within
    /// `[0, horizon)` using Lewis–Shedler thinning. Offsets come back
    /// non-decreasing: two draws in the same microsecond tie (about one
    /// gap in a million at one arrival a second). A scenario run submits
    /// tied arrivals together before one admission pass, so priority
    /// decides between them.
    ///
    /// # Panics
    ///
    /// Panics if the process fails [`ArrivalProcess::validate`] — sampling
    /// an invalid process would spin forever or divide by zero.
    #[must_use]
    pub fn sample(&self, horizon: SimDuration, rng: &mut RngStream) -> Vec<SimDuration> {
        self.validate().expect("arrival process must be valid");
        let peak = self.peak_rate_per_min();
        let mut arrivals = Vec::new();
        let mut t_min = 0.0f64; // minutes since scenario start
        let horizon_min = horizon.as_mins_f64();
        loop {
            // Exponential(peak) inter-arrival for the envelope process.
            t_min += rng.exp(1.0 / peak);
            if t_min >= horizon_min {
                return arrivals;
            }
            let at = SimDuration::from_secs_f64(t_min * 60.0);
            if rng.uniform() * peak < self.rate_per_min_at(at) {
                arrivals.push(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn poisson_rate_matches_empirical_count() {
        let p = ArrivalProcess::Poisson { rate_per_min: 2.0 };
        let mut rng = RngStream::named(7, "arrivals");
        let arrivals = p.sample(mins(1_000), &mut rng);
        let per_min = arrivals.len() as f64 / 1_000.0;
        assert!((per_min - 2.0).abs() < 0.15, "empirical rate {per_min}");
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_within_horizon() {
        let p = ArrivalProcess::Poisson { rate_per_min: 5.0 };
        let mut rng = RngStream::named(3, "arrivals");
        let horizon = mins(60);
        let arrivals = p.sample(horizon, &mut rng);
        for pair in arrivals.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(arrivals.iter().all(|&a| a < horizon));
    }

    /// At 10⁸ arrivals a minute the mean gap is 0.6 µs, under the
    /// microsecond offsets are kept in, so draws tie.
    #[test]
    fn dense_arrivals_are_non_decreasing_and_tie() {
        let p = ArrivalProcess::Poisson { rate_per_min: 1e8 };
        let mut rng = RngStream::named(3, "arrivals");
        let arrivals = p.sample(SimDuration::from_millis(50), &mut rng);
        assert!(arrivals.windows(2).all(|pair| pair[0] <= pair[1]));
        let ties = arrivals.windows(2).filter(|pair| pair[0] == pair[1]);
        assert!(ties.count() > 0, "{} arrivals, no tie", arrivals.len());
    }

    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let p = ArrivalProcess::Diurnal {
            mean_per_min: 1.0,
            amplitude_per_min: 0.8,
            period: mins(30),
        };
        let run = |seed| p.sample(mins(120), &mut RngStream::named(seed, "arrivals"));
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn diurnal_rate_oscillates_and_never_goes_negative() {
        let p = ArrivalProcess::Diurnal {
            mean_per_min: 1.0,
            amplitude_per_min: 1.0,
            period: mins(40),
        };
        let quarter = mins(10); // sin peak
        let three_quarters = mins(30); // sin trough
        assert!((p.rate_per_min_at(quarter) - 2.0).abs() < 1e-9);
        assert!(p.rate_per_min_at(three_quarters).abs() < 1e-9);
        assert!((p.rate_per_min_at(SimDuration::ZERO) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_rate_spikes_inside_window() {
        let p = ArrivalProcess::Bursty {
            base_per_min: 0.5,
            burst_multiplier: 10.0,
            burst_every: mins(20),
            burst_len: mins(2),
        };
        assert!((p.rate_per_min_at(SimDuration::from_mins(1)) - 5.0).abs() < 1e-9);
        assert!((p.rate_per_min_at(SimDuration::from_mins(10)) - 0.5).abs() < 1e-9);
        // Window recurs.
        assert!((p.rate_per_min_at(SimDuration::from_mins(21)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn superposition_adds_rates() {
        let p = ArrivalProcess::Superpose(vec![
            ArrivalProcess::Poisson { rate_per_min: 1.0 },
            ArrivalProcess::Poisson { rate_per_min: 2.5 },
        ]);
        assert!((p.rate_per_min_at(SimDuration::ZERO) - 3.5).abs() < 1e-9);
        assert!((p.peak_rate_per_min() - 3.5).abs() < 1e-9);
        let mut rng = RngStream::named(5, "arrivals");
        let arrivals = p.sample(mins(500), &mut rng);
        let per_min = arrivals.len() as f64 / 500.0;
        assert!((per_min - 3.5).abs() < 0.25, "empirical rate {per_min}");
    }

    #[test]
    fn validation_rejects_bad_processes() {
        assert!(ArrivalProcess::Poisson { rate_per_min: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson {
            rate_per_min: f64::NAN
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Diurnal {
            mean_per_min: 1.0,
            amplitude_per_min: 2.0,
            period: mins(10),
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Bursty {
            base_per_min: 1.0,
            burst_multiplier: 2.0,
            burst_every: mins(1),
            burst_len: mins(5),
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Superpose(vec![]).validate().is_err());
        // Nested validation propagates.
        assert!(
            ArrivalProcess::Superpose(vec![ArrivalProcess::Poisson { rate_per_min: -1.0 }])
                .validate()
                .is_err()
        );
    }

    #[test]
    fn serde_round_trip() {
        let p = ArrivalProcess::Superpose(vec![
            ArrivalProcess::Poisson { rate_per_min: 1.0 },
            ArrivalProcess::Bursty {
                base_per_min: 0.2,
                burst_multiplier: 6.0,
                burst_every: mins(15),
                burst_len: mins(2),
            },
        ]);
        let json = serde_json::to_string(&p).unwrap();
        let back: ArrivalProcess = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
