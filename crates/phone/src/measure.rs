//! Parsing of ADB output and aggregation into Table-I-style reports.
//!
//! Real tool output contains headers, idle lines and units; the paper notes
//! the collected information "typically contains other non-essential data,
//! requiring post-processing to extract valid data" (§IV-C). The parsers
//! here do exactly that extraction on [`crate::adb`]'s output. PhoneMgr's
//! own sampling builds a [`PerfSample`] from typed values with the same
//! unit conversions; the parsers serve callers holding shell text and are
//! the reference `tests/poll_reference.rs` compares that sampling to.

use serde::{Deserialize, Serialize};
use simdc_simrt::TimeSeries;
use simdc_types::{DeviceGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError};

use crate::stage::Stage;
use crate::TRAIN_PROCESS;

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
    /// CPU trace over the measured run (Fig 5 top panel).
    pub cpu_series: TimeSeries,
    /// Memory trace in MB (Fig 5 bottom panel).
    pub mem_series: TimeSeries,
    /// All raw samples.
    pub samples: Vec<PerfSample>,
}

impl PerfReport {
    /// The metrics of one stage, if measured.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// Parses `cat …/current_now` output (µA, negative while discharging) into
/// positive µA.
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] if no integer is present.
pub fn parse_current_ua(raw: &str) -> Result<f64> {
    let value: i64 = raw
        .trim()
        .parse()
        .map_err(|_| SimdcError::AdbCommand(format!("unparsable current: '{raw}'")))?;
    Ok(value.unsigned_abs() as f64)
}

/// Parses `cat …/voltage_now` output (µV) into mV.
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] if no integer is present.
pub fn parse_voltage_mv(raw: &str) -> Result<f64> {
    let uv: i64 = raw
        .trim()
        .parse()
        .map_err(|_| SimdcError::AdbCommand(format!("unparsable voltage: '{raw}'")))?;
    Ok(uv as f64 / 1_000.0)
}

/// Extracts the `%CPU` value of the training process from `top -b -n 1 -p`
/// output.
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] when the process row is missing or
/// malformed.
pub fn parse_top_cpu(raw: &str) -> Result<f64> {
    let header = raw
        .lines()
        .find(|l| l.contains("%CPU"))
        .ok_or_else(|| SimdcError::AdbCommand("top output missing %CPU header".into()))?;
    // Column index of [%CPU] in the header.
    let cpu_col = header
        .split_whitespace()
        .position(|c| c.contains("%CPU"))
        .expect("header contains %CPU");
    let row = raw
        .lines()
        .find(|l| l.contains(TRAIN_PROCESS))
        .ok_or_else(|| SimdcError::AdbCommand("top output missing process row".into()))?;
    let field = row
        .split_whitespace()
        .nth(cpu_col)
        .ok_or_else(|| SimdcError::AdbCommand("top process row shorter than header".into()))?;
    field
        .parse()
        .map_err(|_| SimdcError::AdbCommand(format!("unparsable %CPU field '{field}'")))
}

/// Extracts the `TOTAL PSS: <n> kB` figure from (grep-filtered) `dumpsys`
/// output.
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] when no PSS total is present.
pub fn parse_pss_kb(raw: &str) -> Result<f64> {
    for line in raw.lines() {
        if let Some(rest) = line.trim().strip_prefix("TOTAL PSS:") {
            let number: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if !number.is_empty() {
                return number
                    .parse()
                    .map_err(|_| SimdcError::AdbCommand(format!("unparsable PSS '{number}'")));
            }
        }
        // Some dumps embed the total mid-line.
        if let Some(pos) = line.find("TOTAL PSS:") {
            let rest = &line[pos + "TOTAL PSS:".len()..];
            let number: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if !number.is_empty() {
                return number
                    .parse()
                    .map_err(|_| SimdcError::AdbCommand(format!("unparsable PSS '{number}'")));
            }
        }
    }
    Err(SimdcError::AdbCommand(
        "dumpsys output missing TOTAL PSS".into(),
    ))
}

/// Sums received + transmitted bytes of the wlan interface from
/// `/proc/<pid>/net/dev` output (the paper: "encompasses both received and
/// transmitted data that need to be extracted and summed").
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] when no wlan row is present.
pub fn parse_wlan_bytes(raw: &str) -> Result<u64> {
    let line = raw
        .lines()
        .find(|l| l.trim_start().starts_with("wlan"))
        .ok_or_else(|| SimdcError::AdbCommand("net/dev output missing wlan row".into()))?;
    let after_colon = line
        .split_once(':')
        .ok_or_else(|| SimdcError::AdbCommand("malformed net/dev row".into()))?
        .1;
    let fields: Vec<u64> = after_colon
        .split_whitespace()
        .map(|f| {
            f.parse()
                .map_err(|_| SimdcError::AdbCommand(format!("bad counter '{f}'")))
        })
        .collect::<Result<_>>()?;
    if fields.len() < 9 {
        return Err(SimdcError::AdbCommand(format!(
            "net/dev row has {} fields, expected >= 9",
            fields.len()
        )));
    }
    // Receive bytes is field 0, transmit bytes field 8.
    Ok(fields[0] + fields[8])
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
    fn parse_current_handles_sign() {
        assert_eq!(parse_current_ua("-57600").unwrap(), 57_600.0);
        assert_eq!(parse_current_ua(" 110000 ").unwrap(), 110_000.0);
        assert!(parse_current_ua("n/a").is_err());
    }

    #[test]
    fn parse_voltage_converts_to_mv() {
        assert_eq!(parse_voltage_mv("3900000").unwrap(), 3_900.0);
        assert!(parse_voltage_mv("").is_err());
    }

    #[test]
    fn parse_top_extracts_cpu_column() {
        let out = "Tasks: 1 total\nMem: 5873664K total\n400%cpu 57%user\n\
                   \x20 PID USER PR NI VIRT RES SHR S [%CPU] %MEM TIME+ ARGS\n\
                   12345 u0_a217 10 -10 1.9G 45M 22M S  8.3 0.8 0:42.17 com.simdc.train";
        let cpu = parse_top_cpu(out).unwrap();
        assert!((cpu - 8.3).abs() < 1e-9);
    }

    #[test]
    fn parse_top_rejects_missing_row() {
        assert!(parse_top_cpu("Tasks: 0 total").is_err());
        let headers_only = "PID USER [%CPU]\n";
        assert!(parse_top_cpu(headers_only).is_err());
    }

    #[test]
    fn parse_pss_variants() {
        assert_eq!(parse_pss_kb("   TOTAL PSS: 46234 kB").unwrap(), 46_234.0);
        assert_eq!(
            parse_pss_kb("junk\nfoo TOTAL PSS: 999 kB TOTAL RSS: 1").unwrap(),
            999.0
        );
        assert!(parse_pss_kb("no memory info").is_err());
    }

    #[test]
    fn parse_wlan_sums_rx_tx() {
        let out = "Inter-| Receive | Transmit\n face |bytes packets ...\n\
                   \x20   lo: 100 2 0 0 0 0 0 0 100 2 0 0 0 0 0 0\n\
                   \x20wlan0: 20000 18 0 0 0 0 0 0 13500 15 0 0 0 0 0 0";
        assert_eq!(parse_wlan_bytes(out).unwrap(), 33_500);
        assert!(parse_wlan_bytes("lo: 1 1 1 1 1 1 1 1 1").is_err());
    }

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
