//! Grade-calibrated phone behaviour profiles.
//!
//! The numeric defaults are calibrated against Table I of the paper: stage
//! power (mAh) over the measured stage durations implies the mean discharge
//! current of each stage; the training-stage durations give the per-round
//! train time `β`; Fig 5 gives the CPU/memory envelopes.

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceGrade, Result, SimDuration, SimdcError};

use crate::stage::Stage;

/// Static behaviour model of one phone model/grade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhoneProfile {
    /// Device grade this profile describes.
    pub grade: DeviceGrade,
    /// Battery voltage in mV (phones report µV over sysfs; see
    /// [`crate::adb`]).
    pub voltage_mv: f64,
    /// Mean discharge current per Table-I stage, in mA, indexed by
    /// [`Stage::table_index`] (waiting gaps use [`PhoneProfile::waiting_current_ma`]).
    pub stage_current_ma: [f64; 5],
    /// Mean discharge current while waiting for aggregation, in mA.
    pub waiting_current_ma: f64,
    /// Per-round training duration `β` (Table I stage 3: 0.27 min High,
    /// 0.36 min Low).
    pub train_duration: SimDuration,
    /// Compute-framework startup `λ` charged once per task before the first
    /// round (§IV-B's allocation model).
    pub framework_startup: SimDuration,
    /// Bytes exchanged with the cloud per training round, in KB
    /// (Table I: ~33.1 KB).
    pub comm_kb_per_round: f64,
    /// Mean CPU % during training.
    pub cpu_train_base_pct: f64,
    /// CPU fluctuation amplitude during training (slow sine + noise).
    pub cpu_train_amp_pct: f64,
    /// CPU % outside training stages.
    pub cpu_idle_pct: f64,
    /// Process memory right after APK launch, MB.
    pub mem_launch_mb: f64,
    /// Plateau process memory during training, MB.
    pub mem_train_peak_mb: f64,
    /// Time for memory to ramp from launch level to the plateau.
    pub mem_ramp: SimDuration,
    /// Relative measurement noise applied to instantaneous readings.
    pub noise_frac: f64,
}

impl PhoneProfile {
    /// High-grade profile (≥8 GB memory phones in the paper).
    ///
    /// Stage currents derive from Table I row "High": `mAh · 60 / minutes`
    /// → `[57.6, 122.4, 40.0, 88.8, 105.6]` mA across the five stages.
    #[must_use]
    pub const fn high() -> Self {
        PhoneProfile {
            grade: DeviceGrade::High,
            voltage_mv: 3_900.0,
            stage_current_ma: [57.6, 122.4, 40.0, 88.8, 105.6],
            waiting_current_ma: 35.0,
            train_duration: SimDuration::from_micros(16_200_000), // 0.27 min
            framework_startup: SimDuration::from_secs(30),
            comm_kb_per_round: 33.1,
            cpu_train_base_pct: 8.5,
            cpu_train_amp_pct: 3.5,
            cpu_idle_pct: 1.0,
            mem_launch_mb: 14.0,
            mem_train_peak_mb: 47.0,
            mem_ramp: SimDuration::from_secs(30),
            noise_frac: 0.04,
        }
    }

    /// Low-grade profile (<8 GB memory phones).
    ///
    /// Table I row "Low" → stage currents
    /// `[410.4, 432.0, 110.0, 396.0, 436.8]` mA.
    #[must_use]
    pub const fn low() -> Self {
        PhoneProfile {
            grade: DeviceGrade::Low,
            voltage_mv: 3_800.0,
            stage_current_ma: [410.4, 432.0, 110.0, 396.0, 436.8],
            waiting_current_ma: 90.0,
            train_duration: SimDuration::from_micros(21_600_000), // 0.36 min
            framework_startup: SimDuration::from_secs(45),
            comm_kb_per_round: 33.1,
            cpu_train_base_pct: 10.0,
            cpu_train_amp_pct: 3.0,
            cpu_idle_pct: 1.5,
            mem_launch_mb: 12.0,
            mem_train_peak_mb: 42.0,
            mem_ramp: SimDuration::from_secs(40),
            noise_frac: 0.05,
        }
    }

    /// The profile for a grade.
    #[must_use]
    pub fn for_grade(grade: DeviceGrade) -> Self {
        Self::nominal(grade).clone()
    }

    /// The one shared copy of a grade's profile: what every phone that was
    /// never re-profiled points at instead of carrying its own 144 bytes.
    #[must_use]
    pub(crate) fn nominal(grade: DeviceGrade) -> &'static PhoneProfile {
        static HIGH: PhoneProfile = PhoneProfile::high();
        static LOW: PhoneProfile = PhoneProfile::low();
        match grade {
            DeviceGrade::High => &HIGH,
            DeviceGrade::Low => &LOW,
        }
    }

    /// Mean current of a stage in mA.
    #[must_use]
    pub fn stage_current(&self, stage: Stage) -> f64 {
        match stage.table_index() {
            Some(i) => self.stage_current_ma[i],
            None => self.waiting_current_ma,
        }
    }

    /// `β` as used by the allocation optimizer.
    #[must_use]
    pub fn beta(&self) -> SimDuration {
        self.train_duration
    }

    /// `λ` as used by the allocation optimizer.
    #[must_use]
    pub fn lambda(&self) -> SimDuration {
        self.framework_startup
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for non-positive durations/currents or noise
    /// outside `[0, 0.5]`.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.train_duration.is_zero() {
            return Err(InvalidConfig("train_duration must be positive".into()));
        }
        if self
            .stage_current_ma
            .iter()
            .any(|&c| c <= 0.0 || !c.is_finite())
        {
            return Err(InvalidConfig("stage currents must be positive".into()));
        }
        if !(0.0..=0.5).contains(&self.noise_frac) {
            return Err(InvalidConfig(format!(
                "noise_frac must be in [0, 0.5], got {}",
                self.noise_frac
            )));
        }
        if self.mem_train_peak_mb < self.mem_launch_mb {
            return Err(InvalidConfig(
                "mem_train_peak_mb must be >= mem_launch_mb".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(PhoneProfile::high().validate().is_ok());
        assert!(PhoneProfile::low().validate().is_ok());
    }

    #[test]
    fn table1_power_reconstruction() {
        // Integrating stage current over Table I durations must reproduce
        // the paper's mAh values.
        let high = PhoneProfile::high();
        let durations_min = [0.25, 0.25, 0.27, 0.25, 0.25];
        let expected_mah = [0.24, 0.51, 0.18, 0.37, 0.44];
        for i in 0..5 {
            let mah = high.stage_current_ma[i] * durations_min[i] / 60.0;
            assert!(
                (mah - expected_mah[i]).abs() < 1e-9,
                "stage {i}: {mah} vs {}",
                expected_mah[i]
            );
        }
        let low = PhoneProfile::low();
        let durations_min = [0.25, 0.25, 0.36, 0.25, 0.25];
        let expected_mah = [1.71, 1.80, 0.66, 1.65, 1.82];
        for i in 0..5 {
            let mah = low.stage_current_ma[i] * durations_min[i] / 60.0;
            assert!(
                (mah - expected_mah[i]).abs() < 1e-9,
                "stage {i}: {mah} vs {}",
                expected_mah[i]
            );
        }
    }

    #[test]
    fn high_grade_trains_faster_and_cheaper() {
        let high = PhoneProfile::high();
        let low = PhoneProfile::low();
        assert!(high.train_duration < low.train_duration);
        assert!(high.stage_current_ma[2] < low.stage_current_ma[2]);
        assert!(high.framework_startup < low.framework_startup);
    }

    /// Pins the `const` rewrite of the two training durations to the float
    /// expressions they replaced.
    #[test]
    fn const_durations_equal_the_table1_minutes() {
        assert_eq!(
            PhoneProfile::high().train_duration,
            SimDuration::from_secs_f64(0.27 * 60.0)
        );
        assert_eq!(
            PhoneProfile::low().train_duration,
            SimDuration::from_secs_f64(0.36 * 60.0)
        );
        for grade in DeviceGrade::ALL {
            assert_eq!(
                *PhoneProfile::nominal(grade),
                PhoneProfile::for_grade(grade)
            );
        }
    }

    #[test]
    fn for_grade_round_trips() {
        assert_eq!(
            PhoneProfile::for_grade(DeviceGrade::High).grade,
            DeviceGrade::High
        );
        assert_eq!(
            PhoneProfile::for_grade(DeviceGrade::Low).grade,
            DeviceGrade::Low
        );
    }

    #[test]
    fn invalid_profiles_rejected() {
        let mut p = PhoneProfile::high();
        p.noise_frac = 0.9;
        assert!(p.validate().is_err());
        let mut p = PhoneProfile::high();
        p.stage_current_ma[0] = 0.0;
        assert!(p.validate().is_err());
        let mut p = PhoneProfile::high();
        p.mem_train_peak_mb = 1.0;
        assert!(p.validate().is_err());
        let mut p = PhoneProfile::high();
        p.train_duration = SimDuration::ZERO;
        assert!(p.validate().is_err());
    }
}
