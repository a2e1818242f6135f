//! The timing model of the logical simulation.

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
use simdc_types::{DeviceGrade, PerGrade, SimDuration};

/// Virtual-time costs of cluster operations.
///
/// Calibrated so the *shapes* of the paper's Fig 7/8 hold: per-device
/// compute times `α` match the training-stage durations of Table I within
/// a few percent, and every actor pays a data/model download each round —
/// the overhead that makes SimDC slower than in-memory simulators below
/// ~1,000 devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One-time placement-group creation latency per job.
    pub pg_create: SimDuration,
    /// Spawn latency per actor (paid once per job, actors start in
    /// parallel).
    pub actor_spawn: SimDuration,
    /// Fixed part of the per-actor, per-round data+model download.
    pub download_base: SimDuration,
    /// Variable download cost per MiB of payload.
    pub download_per_mib: SimDuration,
    /// Per-device result upload to shared storage + cloud notification.
    pub upload_per_device: SimDuration,
    /// Per-device compute time `α` by grade.
    pub compute_per_device: PerGrade<SimDuration>,
    /// Multiplicative jitter applied to each device's compute time,
    /// uniform in `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
    /// Elastic node boot latency: a scale-up's capacity only becomes
    /// visible to placement this long after it was requested (k8s node
    /// provisioning + kubelet ready).
    pub node_boot: SimDuration,
    /// Cost of keeping one node up for one hour, in abstract currency
    /// units — what the autoscaler's budget cap and the cost meter price
    /// node time with.
    pub node_hourly_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            pg_create: SimDuration::from_millis(1_500),
            actor_spawn: SimDuration::from_millis(800),
            download_base: SimDuration::from_millis(600),
            download_per_mib: SimDuration::from_millis(80),
            upload_per_device: SimDuration::from_millis(120),
            // α: High 20 s, Low 26 s — deliberately slower per device than
            // the phones' β (16.2 s / 21.6 s, Table I): the paper notes the
            // C++ MNN operators of device simulation "execute faster" than
            // the PyMNN logical operators, which produces Fig 7's
            // large-scale crossover.
            compute_per_device: PerGrade::from_parts(
                SimDuration::from_secs(20),
                SimDuration::from_secs(26),
            ),
            jitter_frac: 0.05,
            // ~45 s from scale-up request to schedulable node, the order
            // k8s cluster autoscalers achieve on warm capacity pools.
            node_boot: SimDuration::from_secs(45),
            node_hourly_cost: 1.0,
        }
    }
}

impl CostModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` if `jitter_frac` is outside `[0, 1)` or any
    /// compute time is zero.
    pub fn validate(&self) -> simdc_types::Result<()> {
        use simdc_types::SimdcError::InvalidConfig;
        if !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(InvalidConfig(format!(
                "jitter_frac must be in [0, 1), got {}",
                self.jitter_frac
            )));
        }
        for (grade, d) in self.compute_per_device.iter() {
            if d.is_zero() {
                return Err(InvalidConfig(format!(
                    "compute_per_device[{grade}] must be positive"
                )));
            }
        }
        if !self.node_hourly_cost.is_finite() || self.node_hourly_cost < 0.0 {
            return Err(InvalidConfig(format!(
                "node_hourly_cost must be finite and >= 0, got {}",
                self.node_hourly_cost
            )));
        }
        Ok(())
    }

    /// The per-actor round download time for a payload of `payload_mib`.
    #[must_use]
    pub fn download_time(&self, payload_mib: f64) -> SimDuration {
        self.download_base
            .saturating_add(self.download_per_mib.mul_f64(payload_mib.max(0.0)))
    }

    /// One device's compute time with jitter applied.
    #[must_use]
    pub fn device_compute(&self, grade: DeviceGrade, rng: &mut RngStream) -> SimDuration {
        let base = *self.compute_per_device.get(grade);
        if self.jitter_frac == 0.0 {
            return base;
        }
        let factor = rng.uniform_range(1.0 - self.jitter_frac, 1.0 + self.jitter_frac);
        base.mul_f64(factor)
    }

    /// Deterministic mean compute time (no jitter), used by the allocation
    /// optimizer as its `α` parameter.
    #[must_use]
    pub fn alpha(&self, grade: DeviceGrade) -> SimDuration {
        *self.compute_per_device.get(grade)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(CostModel::default().validate().is_ok());
    }

    #[test]
    fn invalid_jitter_rejected() {
        let m = CostModel {
            jitter_frac: 1.0,
            ..CostModel::default()
        };
        assert!(m.validate().is_err());
        let m = CostModel {
            jitter_frac: -0.1,
            ..CostModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn zero_compute_rejected() {
        let m = CostModel {
            compute_per_device: PerGrade::from_parts(SimDuration::ZERO, SimDuration::from_secs(1)),
            ..CostModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn download_scales_with_payload() {
        let m = CostModel::default();
        let small = m.download_time(1.0);
        let big = m.download_time(10.0);
        assert!(big > small);
        assert_eq!(m.download_time(0.0), m.download_base);
        // Negative payloads are clamped.
        assert_eq!(m.download_time(-5.0), m.download_base);
    }

    #[test]
    fn jitter_stays_in_band() {
        let m = CostModel::default();
        let mut rng = RngStream::from_seed(3);
        let base = m.alpha(DeviceGrade::High).as_secs_f64();
        for _ in 0..1_000 {
            let d = m.device_compute(DeviceGrade::High, &mut rng).as_secs_f64();
            assert!(d >= base * 0.95 - 1e-9 && d <= base * 1.05 + 1e-9, "{d}");
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let m = CostModel {
            jitter_frac: 0.0,
            ..CostModel::default()
        };
        let mut rng = RngStream::from_seed(4);
        assert_eq!(
            m.device_compute(DeviceGrade::Low, &mut rng),
            m.alpha(DeviceGrade::Low)
        );
    }

    #[test]
    fn high_grade_is_faster() {
        let m = CostModel::default();
        assert!(m.alpha(DeviceGrade::High) < m.alpha(DeviceGrade::Low));
    }
}
