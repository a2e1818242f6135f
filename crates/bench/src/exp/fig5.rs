//! Fig 5 — CPU and memory usage of one benchmarking device over the first
//! three training rounds (with the waiting-for-aggregation gaps left
//! blank, as in the paper).

use std::sync::Arc;

use serde::Serialize;
use simdc_core::{Platform, PlatformConfig};
use simdc_phone::PerfSample;
use simdc_simrt::SeriesStats;
use simdc_types::TaskId;

use crate::{f, ExpOptions};

/// The two traces of Fig 5.
#[derive(Debug, Clone, Serialize)]
pub struct Traces {
    /// `(seconds since task start, cpu %)` samples.
    pub cpu: Vec<(f64, f64)>,
    /// `(seconds since task start, memory MB)` samples.
    pub mem: Vec<(f64, f64)>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the platform rejects the spec.
pub fn run(opts: &ExpOptions) -> Traces {
    let data = Arc::new(super::standard_dataset(100, opts.seed));
    let mut platform = Platform::new(PlatformConfig {
        seed: opts.seed,
        ..PlatformConfig::default()
    });
    let mut spec = super::two_grade_spec(1, 40, 1);
    spec.rounds = 3;
    platform.submit(spec, data).expect("submit fig5 task");
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).expect("task completed");
    let bench = report
        .benchmark_reports
        .first()
        .expect("one benchmark phone measured");

    let start = report.started_at;
    let secs = |s: &PerfSample| s.at.duration_since(start).as_secs_f64();
    let traces = Traces {
        cpu: bench.trace().map(|s| (secs(s), s.cpu_pct)).collect(),
        mem: bench.trace().map(|s| (secs(s), s.mem_mb())).collect(),
    };

    let stats = |xy: &[(f64, f64)]| SeriesStats::from_values(xy.iter().map(|&(_, v)| v));
    let cpu_stats = stats(&traces.cpu);
    let mem_stats = stats(&traces.mem);
    println!("Fig 5 — CPU / memory during the first three training rounds");
    println!(
        "  cpu:    {} samples, range {}–{} %, mean {} %",
        cpu_stats.count,
        f(cpu_stats.min, 1),
        f(cpu_stats.max, 1),
        f(cpu_stats.mean, 1)
    );
    println!(
        "  memory: {} samples, range {}–{} MB, mean {} MB",
        mem_stats.count,
        f(mem_stats.min, 1),
        f(mem_stats.max, 1),
        f(mem_stats.mean, 1)
    );
    println!(
        "  rounds measured: {} (gaps between training windows carry no samples)",
        report.rounds.len()
    );
    opts.write_json("fig5", &traces);
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_match_fig5_envelope() {
        let opts = ExpOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("simdc-fig5-test"),
            ..ExpOptions::default()
        };
        let traces = run(&opts);
        assert!(traces.cpu.len() > 50);
        // CPU during training peaks in the paper's 4–13 % band.
        let max_cpu = traces.cpu.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!((4.0..16.0).contains(&max_cpu), "max cpu {max_cpu}");
        // Memory ramps into the 10–50 MB band.
        let max_mem = traces.mem.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!((20.0..55.0).contains(&max_mem), "max mem {max_mem}");
        // Samples are time-ordered with gaps (waiting windows skipped).
        let mut last = -1.0;
        for &(t, _) in &traces.cpu {
            assert!(t >= last);
            last = t;
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
