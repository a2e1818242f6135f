//! Table I — physical performance metrics measured during simulation.
//!
//! Simulates 500 High + 500 Low devices with 5 benchmarking phones per
//! grade and reports the benchmark phones' per-stage power (mAh), duration
//! (min) and communication (KB) for the initial training round, exactly
//! like the paper's Table I.

use std::sync::Arc;

use serde::Serialize;
use simdc_core::{Platform, PlatformConfig, RunnerConfig};
use simdc_phone::Stage;
use simdc_types::{DeviceGrade, TaskId};

use crate::{f, render_table, ExpOptions};

/// One aggregated Table-I row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Device grade.
    pub grade: String,
    /// Stage number (1-5).
    pub stage: usize,
    /// Stage label.
    pub label: String,
    /// Mean power across benchmark phones, mAh.
    pub power_mah: f64,
    /// Mean duration, minutes.
    pub duration_min: f64,
    /// Mean communication, KB (training stage only, like the paper).
    pub comm_kb: Option<f64>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the platform rejects the standard spec (a bug, not an input
/// error).
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    let n_per_grade = if opts.quick { 60 } else { 500 };
    let data = Arc::new(super::standard_dataset(200, opts.seed));
    let mut platform = Platform::new(PlatformConfig {
        runner: RunnerConfig {
            measure_benchmarks: true,
        },
        seed: opts.seed,
        ..PlatformConfig::default()
    });
    let spec = super::two_grade_spec(1, n_per_grade, 5);
    platform.submit(spec, data).expect("submit table1 task");
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).expect("task completed");

    let order = [
        Stage::NoApk,
        Stage::ApkLaunch,
        Stage::Training,
        Stage::PostTraining,
        Stage::ApkClosed,
    ];
    let mut rows = Vec::new();
    for grade in DeviceGrade::ALL {
        let reports: Vec<_> = report
            .benchmark_reports
            .iter()
            .filter(|r| r.grade == grade)
            .collect();
        assert!(!reports.is_empty(), "benchmark phones measured for {grade}");
        for (i, stage) in order.iter().enumerate() {
            let metrics: Vec<_> = reports.iter().filter_map(|r| r.stage(*stage)).collect();
            if metrics.is_empty() {
                continue;
            }
            let n = metrics.len() as f64;
            let power = metrics.iter().map(|m| m.power_mah).sum::<f64>() / n;
            let duration = metrics.iter().map(|m| m.duration_min).sum::<f64>() / n;
            let comm = metrics.iter().map(|m| m.comm_kb).sum::<f64>() / n;
            rows.push(Row {
                grade: grade.to_string(),
                stage: i + 1,
                label: stage.label().to_owned(),
                power_mah: power,
                duration_min: duration,
                comm_kb: (*stage == Stage::Training).then_some(comm),
            });
        }
    }

    let table = render_table(
        &[
            "Grade",
            "Stage",
            "Power (mAh)",
            "Duration (min)",
            "Commu (KB)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.grade.clone(),
                    format!("{} {}", r.stage, r.label),
                    f(r.power_mah, 2),
                    f(r.duration_min, 2),
                    r.comm_kb.map_or(String::new(), |c| f(c, 2)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Table I — measurement of physical performance metrics during simulation\n{table}");
    opts.write_json("table1", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_table1_shape() {
        let opts = ExpOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("simdc-table1-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let rows = run(&opts);
        assert_eq!(rows.len(), 10, "5 stages × 2 grades");
        // High consumes less power than Low in every stage.
        for i in 0..5 {
            assert!(
                rows[i].power_mah < rows[i + 5].power_mah,
                "stage {}: High {} vs Low {}",
                i + 1,
                rows[i].power_mah,
                rows[i + 5].power_mah
            );
        }
        // Training durations track β (0.27 vs 0.36 min).
        assert!((rows[2].duration_min - 0.27).abs() < 0.03);
        assert!((rows[7].duration_min - 0.36).abs() < 0.03);
        // Communication ≈ 33.1 KB in the training stage.
        assert!((rows[2].comm_kb.unwrap() - 33.1).abs() < 3.0);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
