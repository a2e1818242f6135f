//! Fleet-dynamics injectors: phone churn, stragglers and benchmark-phone
//! failures layered onto [`PhoneMgr`].
//!
//! The injector pre-samples crash instants from the scenario seed; the
//! scenario run walks them in firing order beside the task arrivals, and
//! each crash that lands queues the phone's reboot `reboot_after` later in
//! the run's own event queue.

use serde::{Deserialize, Serialize};
use simdc_phone::{PhoneMgr, Provenance};
use simdc_simrt::RngStream;
use simdc_types::{PhoneId, Result, SimDuration, SimdcError};

/// The largest [`FleetDynamics::straggler_slowdown`] a scenario may carry.
/// A straggler's training and startup durations are multiplied by the
/// factor; a far larger one pushes its run's instants past the end of
/// virtual time, where adding a duration overflows.
pub const MAX_STRAGGLER_SLOWDOWN: f64 = 1_000.0;

/// The most crashes a scenario may expect over its horizon, counted as
/// `horizon / mean_time_between_crashes` ([`crate::Scenario::validate`]).
/// [`FleetDynamics::sample_crashes`] materialises the whole schedule, about
/// that many 24-byte entries, before the run starts; an unbounded ratio
/// (a 1 µs mean over 30 minutes is 1.8e9 entries) exhausts memory. The
/// densest committed spec, the benchmark's `churn_storm`, expects 60 000.
pub const MAX_EXPECTED_CRASHES: u64 = 1_000_000;

/// A fleet perturbation on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// The phone drops off ADB (crash / battery pull / network loss).
    Crash(PhoneId),
    /// The phone reboots and becomes selectable again.
    Reboot(PhoneId),
}

/// Declarative fleet-dynamics configuration of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDynamics {
    /// Mean time between phone crashes (exponential), `None` = no churn.
    pub mean_time_between_crashes: Option<SimDuration>,
    /// How long a crashed phone stays down before rebooting.
    pub reboot_after: SimDuration,
    /// Bias crashes toward locally racked phones. [`PhoneMgr::select`]
    /// prefers local devices, so local churn is what knocks out benchmark
    /// phones mid-task.
    pub target_local: bool,
    /// Fraction of the fleet slowed down at scenario start.
    pub straggler_frac: f64,
    /// Training/startup duration multiplier applied to stragglers, in
    /// `[1, MAX_STRAGGLER_SLOWDOWN]`.
    pub straggler_slowdown: f64,
}

impl FleetDynamics {
    /// A calm fleet: no churn, no stragglers.
    #[must_use]
    pub fn calm() -> Self {
        FleetDynamics {
            mean_time_between_crashes: None,
            reboot_after: SimDuration::from_mins(3),
            target_local: false,
            straggler_frac: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for a zero crash interval or reboot delay, a
    /// straggler fraction outside `[0, 1]`, or a slowdown below 1 or above
    /// [`MAX_STRAGGLER_SLOWDOWN`].
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if let Some(mtbc) = self.mean_time_between_crashes {
            if mtbc.is_zero() {
                return Err(InvalidConfig(
                    "mean_time_between_crashes must be positive".into(),
                ));
            }
        }
        if self.reboot_after.is_zero() {
            return Err(InvalidConfig("reboot_after must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.straggler_frac) {
            return Err(InvalidConfig(format!(
                "straggler_frac must be in [0, 1], got {}",
                self.straggler_frac
            )));
        }
        if self.straggler_slowdown < 1.0 || !self.straggler_slowdown.is_finite() {
            return Err(InvalidConfig(format!(
                "straggler_slowdown must be >= 1, got {}",
                self.straggler_slowdown
            )));
        }
        if self.straggler_slowdown > MAX_STRAGGLER_SLOWDOWN {
            return Err(InvalidConfig(format!(
                "straggler_slowdown must be at most {MAX_STRAGGLER_SLOWDOWN}, got {}",
                self.straggler_slowdown
            )));
        }
        Ok(())
    }

    /// Pre-samples the crash schedule over `[0, horizon)`: exponential
    /// inter-crash gaps, victims drawn uniformly from the (optionally
    /// local-only) fleet. Reboots are *not* scheduled here — the scenario
    /// run queues each reboot `reboot_after` after its crash lands (never,
    /// if that instant is past the end of time).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FleetDynamics::validate`]. The
    /// schedule's length is bounded only through
    /// [`crate::Scenario::validate`] ([`MAX_EXPECTED_CRASHES`]).
    #[must_use]
    pub fn sample_crashes(
        &self,
        mgr: &PhoneMgr,
        horizon: SimDuration,
        rng: &mut RngStream,
    ) -> Vec<(SimDuration, FleetEvent)> {
        self.validate().expect("fleet dynamics must be valid");
        let Some(mtbc) = self.mean_time_between_crashes else {
            return Vec::new();
        };
        // The whole fleet is drawn from by slot; only local targeting
        // needs its own victim list.
        let phones = mgr.phones();
        let locals: Option<Vec<PhoneId>> = self.target_local.then(|| {
            phones
                .iter()
                .filter(|p| p.provenance() == Provenance::Local)
                .map(|p| p.id())
                .collect()
        });
        let victims = locals.as_ref().map_or(phones.len(), Vec::len);
        if victims == 0 {
            return Vec::new();
        }
        let mut schedule = Vec::new();
        let mut t = 0.0f64;
        let horizon_secs = horizon.as_secs_f64();
        let mean_secs = mtbc.as_secs_f64();
        loop {
            t += rng.exp(mean_secs);
            if t >= horizon_secs {
                return schedule;
            }
            let pick = rng.index(victims);
            let victim = locals
                .as_ref()
                .map_or_else(|| phones[pick].id(), |ids| ids[pick]);
            schedule.push((SimDuration::from_secs_f64(t), FleetEvent::Crash(victim)));
        }
    }

    /// Slows down a seed-chosen fraction of the fleet by multiplying each
    /// straggler's training and framework-startup durations. Returns the
    /// number of phones slowed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FleetDynamics::validate`].
    pub fn apply_stragglers(&self, mgr: &mut PhoneMgr, rng: &mut RngStream) -> u64 {
        self.validate().expect("fleet dynamics must be valid");
        if self.straggler_frac <= 0.0 || self.straggler_slowdown <= 1.0 {
            return 0;
        }
        let mut slowed = 0u64;
        // By slot: re-profiling moves no phone, so this is `phones()` order.
        for slot in 0..mgr.total() {
            if !rng.chance(self.straggler_frac) {
                continue;
            }
            let phone = &mgr.phones()[slot];
            let id = phone.id();
            let mut profile = phone.profile().clone();
            profile.train_duration = SimDuration::from_secs_f64(
                profile.train_duration.as_secs_f64() * self.straggler_slowdown,
            );
            profile.framework_startup = SimDuration::from_secs_f64(
                profile.framework_startup.as_secs_f64() * self.straggler_slowdown,
            );
            // The manager re-indexes the phone as it writes, so the grade
            // index's effective-profile sums track the slowdown exactly.
            mgr.set_phone_profile(id, profile)
                .expect("slowed profile keeps its grade and stays valid");
            slowed += 1;
        }
        slowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> PhoneMgr {
        PhoneMgr::paper_default(1)
    }

    #[test]
    fn calm_fleet_schedules_nothing() {
        let dynamics = FleetDynamics::calm();
        let mut rng = RngStream::named(1, "churn");
        assert!(dynamics
            .sample_crashes(&mgr(), SimDuration::from_mins(60), &mut rng)
            .is_empty());
        assert_eq!(dynamics.apply_stragglers(&mut mgr(), &mut rng), 0);
    }

    #[test]
    fn crash_schedule_matches_mean_rate() {
        let dynamics = FleetDynamics {
            mean_time_between_crashes: Some(SimDuration::from_mins(2)),
            ..FleetDynamics::calm()
        };
        let mut rng = RngStream::named(2, "churn");
        let schedule = dynamics.sample_crashes(&mgr(), SimDuration::from_mins(2_000), &mut rng);
        // ~1000 crashes expected over 2000 minutes at one per 2 minutes.
        assert!(
            (900..1_100).contains(&schedule.len()),
            "{} crashes",
            schedule.len()
        );
        for pair in schedule.windows(2) {
            assert!(pair[0].0 < pair[1].0, "crash times must increase");
        }
    }

    #[test]
    fn local_targeting_only_hits_local_phones() {
        let fleet = mgr();
        let dynamics = FleetDynamics {
            mean_time_between_crashes: Some(SimDuration::from_mins(1)),
            target_local: true,
            ..FleetDynamics::calm()
        };
        let mut rng = RngStream::named(3, "churn");
        let schedule = dynamics.sample_crashes(&fleet, SimDuration::from_mins(500), &mut rng);
        assert!(!schedule.is_empty());
        for (_, event) in &schedule {
            let FleetEvent::Crash(id) = event else {
                panic!("sample_crashes only emits crashes");
            };
            assert_eq!(
                fleet.phone(*id).unwrap().provenance(),
                Provenance::Local,
                "victim {id} is not local"
            );
        }
    }

    #[test]
    fn stragglers_get_slower_but_stay_valid() {
        let mut fleet = mgr();
        let baseline_beta = fleet.phones()[0].profile().beta();
        let dynamics = FleetDynamics {
            straggler_frac: 1.0,
            straggler_slowdown: 2.0,
            ..FleetDynamics::calm()
        };
        let mut rng = RngStream::named(4, "stragglers");
        let slowed = dynamics.apply_stragglers(&mut fleet, &mut rng);
        assert_eq!(slowed, fleet.total() as u64);
        for phone in fleet.phones() {
            assert!(phone.profile().validate().is_ok());
            assert_eq!(phone.profile().grade, phone.grade());
        }
        assert_eq!(
            fleet.phones()[0].profile().beta().as_micros(),
            baseline_beta.as_micros() * 2
        );
    }

    #[test]
    fn partial_straggler_fraction_is_deterministic() {
        let dynamics = FleetDynamics {
            straggler_frac: 0.4,
            straggler_slowdown: 3.0,
            ..FleetDynamics::calm()
        };
        let slow = |seed: u64| {
            let mut fleet = mgr();
            let mut rng = RngStream::named(seed, "stragglers");
            dynamics.apply_stragglers(&mut fleet, &mut rng);
            fleet
                .phones()
                .iter()
                .map(|p| p.profile().beta().as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(slow(7), slow(7));
        assert_ne!(slow(7), slow(8));
        let slowed = |betas: &[u64]| {
            betas
                .iter()
                .zip(
                    mgr()
                        .phones()
                        .iter()
                        .map(|p| p.profile().beta().as_micros()),
                )
                .filter(|(&b, base)| b > *base)
                .count()
        };
        let n = slowed(&slow(7));
        assert!(n > 0 && n < 30, "expected a strict subset slowed, got {n}");
    }

    #[test]
    fn validation_rejects_bad_dynamics() {
        let zero_mtbc = FleetDynamics {
            mean_time_between_crashes: Some(SimDuration::ZERO),
            ..FleetDynamics::calm()
        };
        assert!(zero_mtbc.validate().is_err());
        let zero_reboot = FleetDynamics {
            reboot_after: SimDuration::ZERO,
            ..FleetDynamics::calm()
        };
        assert!(zero_reboot.validate().is_err());
        let bad_frac = FleetDynamics {
            straggler_frac: 1.2,
            ..FleetDynamics::calm()
        };
        assert!(bad_frac.validate().is_err());
        let speedup = FleetDynamics {
            straggler_slowdown: 0.5,
            straggler_frac: 0.5,
            ..FleetDynamics::calm()
        };
        assert!(speedup.validate().is_err());
    }
}
