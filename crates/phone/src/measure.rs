//! Measurement samples and their aggregation into Table-I-style reports.
//!
//! On real phones the paper post-processes noisy ADB tool output "to
//! extract valid data" (§IV-C). Here PhoneMgr samples the device model's
//! typed reading, so a [`PerfSample`] is already clean: the numbers carry
//! the units the paper reports and nothing else. A [`PerfReport`] keeps
//! each sample once; Fig 5's traces are [`PerfReport::trace`], a view of
//! those samples.

use serde::{Deserialize, Serialize};
use simdc_types::{DeviceGrade, PhoneId, SimDuration, SimInstant};

use crate::stage::Stage;

/// One cleaned measurement sample from a benchmarking phone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Sampled phone.
    pub phone: PhoneId,
    /// Virtual sampling time.
    pub at: SimInstant,
    /// Stage the phone was in.
    pub stage: Stage,
    /// Discharge current, µA (positive).
    pub current_ua: f64,
    /// Battery voltage, mV.
    pub voltage_mv: f64,
    /// Training-process CPU usage, %.
    pub cpu_pct: f64,
    /// Training-process PSS, KB.
    pub mem_kb: f64,
    /// Cumulative network bytes (rx + tx) of the training process.
    pub net_bytes: u64,
}

impl PerfSample {
    /// Training-process PSS in MB, the unit of Fig 5's memory panel.
    #[must_use]
    pub fn mem_mb(&self) -> f64 {
        self.mem_kb / 1_024.0
    }
}

/// Aggregated metrics of one Table-I stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// The stage.
    pub stage: Stage,
    /// Energy drawn during the stage, mAh.
    pub power_mah: f64,
    /// Stage duration, minutes.
    pub duration_min: f64,
    /// Bytes exchanged during the stage, KB.
    pub comm_kb: f64,
}

/// A full measurement report for one benchmarking phone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Measured phone.
    pub phone: PhoneId,
    /// Its grade.
    pub grade: DeviceGrade,
    /// Per-stage aggregates in Table-I order (first round only, like the
    /// paper's table).
    pub stages: Vec<StageMetrics>,
    /// All samples in time order, waiting-for-aggregation ones included.
    pub samples: Vec<PerfSample>,
}

impl PerfReport {
    /// The metrics of one stage, if measured.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The samples Fig 5 plots, in time order: those taken while the APK
    /// runs and the phone is not waiting for aggregation. The paper
    /// records no data while a device waits (Fig 5's dashed gaps); the
    /// waiting samples stay in [`PerfReport::samples`] only as stage
    /// markers that separate adjacent rounds for the Table-I aggregation.
    pub fn trace(&self) -> impl Iterator<Item = &PerfSample> + '_ {
        self.samples
            .iter()
            .filter(|s| s.stage != Stage::Waiting && s.stage.apk_running())
    }
}

/// Builds Table-I stage aggregates from a time-ordered sample trace.
///
/// Power integrates `current × dt` at the sampled voltage-independent
/// current (mAh); communication is the net-byte delta across the stage.
/// Only the five Table-I stages appear, each reported once (first
/// occurrence, matching the paper's "initial training round" framing).
#[must_use]
pub fn aggregate_stages(samples: &[PerfSample], poll: SimDuration) -> Vec<StageMetrics> {
    let mut out: Vec<StageMetrics> = Vec::new();
    let order = [
        Stage::NoApk,
        Stage::ApkLaunch,
        Stage::Training,
        Stage::PostTraining,
        Stage::ApkClosed,
    ];
    for stage in order {
        // First contiguous window of this stage.
        let Some(first_idx) = samples.iter().position(|s| s.stage == stage) else {
            continue;
        };
        let window: Vec<&PerfSample> = samples[first_idx..]
            .iter()
            .take_while(|s| s.stage == stage)
            .collect();
        if window.is_empty() {
            continue;
        }
        let dt_h = poll.as_secs_f64() / 3_600.0;
        let power_mah: f64 = window.iter().map(|s| s.current_ua / 1_000.0 * dt_h).sum();
        let duration_min = window.len() as f64 * poll.as_secs_f64() / 60.0;
        let comm_bytes = window.last().expect("non-empty").net_bytes
            - window.first().expect("non-empty").net_bytes;
        out.push(StageMetrics {
            stage,
            power_mah,
            duration_min,
            comm_kb: comm_bytes as f64 / 1_024.0,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_reports_first_window_per_stage() {
        let poll = SimDuration::from_secs(1);
        let mk = |at: u64, stage, ua: f64, net: u64| PerfSample {
            phone: PhoneId(0),
            at: SimInstant::EPOCH + SimDuration::from_secs(at),
            stage,
            current_ua: ua,
            voltage_mv: 3_900.0,
            cpu_pct: 5.0,
            mem_kb: 20_000.0,
            net_bytes: net,
        };
        let samples = vec![
            mk(0, Stage::NoApk, 57_600.0, 0),
            mk(1, Stage::NoApk, 57_600.0, 0),
            mk(2, Stage::Training, 40_000.0, 0),
            mk(3, Stage::Training, 40_000.0, 16_950),
            mk(4, Stage::Waiting, 35_000.0, 16_950),
            mk(5, Stage::Training, 40_000.0, 16_950), // 2nd round: ignored
            mk(6, Stage::ApkClosed, 105_600.0, 33_900),
        ];
        let stages = aggregate_stages(&samples, poll);
        let training = stages.iter().find(|s| s.stage == Stage::Training).unwrap();
        assert_eq!(training.duration_min * 60.0, 2.0);
        assert!((training.comm_kb - 16_950.0 / 1_024.0).abs() < 1e-9);
        // 2 samples × 40 mA × 1 s = 80/3600 mAh.
        assert!((training.power_mah - 2.0 * 40.0 / 3_600.0).abs() < 1e-12);
        // Waiting never appears.
        assert!(stages.iter().all(|s| s.stage != Stage::Waiting));
    }
}
