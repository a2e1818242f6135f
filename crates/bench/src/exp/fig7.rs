//! Fig 7 — single-task execution time vs scale for the five fixed
//! allocation ratios and the hybrid allocation optimizer.
//!
//! The paper's shape: at small scales physical execution is dominated by
//! APK/framework startup so logical-heavy allocations win; at large scales
//! the per-round train time dominates and the phone operators' faster
//! underlying implementation pays off; the optimizer's red line sits at or
//! below every fixed ratio everywhere.

use serde::Serialize;
use simdc_cluster::{ClusterConfig, LogicalCluster};
use simdc_core::runner::TaskRunner;
use simdc_core::{AllocationPolicy, TaskSpec};

use crate::{f, render_table, ExpOptions};

/// One measured execution time.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Devices per grade.
    pub scale: u64,
    /// "Type 1"… "Type 5" or "Optimization".
    pub series: String,
    /// Task execution time in seconds (per §IV-B's `T = max(Tl, Tp)`).
    pub time_secs: f64,
}

const FRACTIONS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

/// Runs the experiment.
///
/// # Panics
///
/// Panics if allocation planning fails for the standard specs.
pub fn run(opts: &ExpOptions) -> Vec<Point> {
    let scales: &[u64] = if opts.quick {
        &[4, 20, 100]
    } else {
        &[4, 20, 100, 500]
    };
    let cluster = LogicalCluster::new(ClusterConfig::default());
    let runner = TaskRunner;

    let mut points = Vec::new();
    for &scale in scales {
        let mut policies: Vec<(String, AllocationPolicy)> = FRACTIONS
            .iter()
            .enumerate()
            .map(|(i, &frac)| {
                (
                    format!("Type {}", i + 1),
                    AllocationPolicy::FixedLogicalFraction(frac),
                )
            })
            .collect();
        policies.push(("Optimization".into(), AllocationPolicy::Optimized));

        for (name, policy) in policies {
            let mut spec: TaskSpec = super::two_grade_spec(1, scale, 0);
            spec.allocation = policy;
            let allocation = runner
                .plan_allocation(&spec, &cluster)
                .expect("allocation plans");
            points.push(Point {
                scale,
                series: name,
                time_secs: allocation.task_time.as_secs_f64(),
            });
        }
    }

    let table = render_table(
        &["Scale", "Series", "Execution time (s)"],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("({0},{0})", p.scale),
                    p.series.clone(),
                    f(p.time_secs, 1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Fig 7 — execution time vs scale (Types 1–5 + optimizer)\n{table}");
    opts.write_json("fig7", &points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_dominates_every_fixed_ratio() {
        let opts = ExpOptions {
            quick: false,
            out_dir: std::env::temp_dir().join("simdc-fig7-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let points = run(&opts);
        for scale in [4u64, 20, 100, 500] {
            let opt = points
                .iter()
                .find(|p| p.scale == scale && p.series == "Optimization")
                .unwrap()
                .time_secs;
            for p in points.iter().filter(|p| p.scale == scale) {
                assert!(
                    opt <= p.time_secs + 1e-9,
                    "optimizer ({opt}s) beaten by {} ({}s) at scale {scale}",
                    p.series,
                    p.time_secs
                );
            }
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn small_scale_logical_beats_phones_large_scale_narrows() {
        let opts = ExpOptions {
            quick: false,
            out_dir: std::env::temp_dir().join("simdc-fig7-test2"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let points = run(&opts);
        let time = |scale: u64, series: &str| {
            points
                .iter()
                .find(|p| p.scale == scale && p.series == series)
                .unwrap()
                .time_secs
        };
        // Small scale: all-logical (Type 1) beats all-physical (Type 5),
        // which pays the λ framework startup.
        assert!(time(4, "Type 1") < time(4, "Type 5"));
        // Large scale: the crossover of §VI-B.3 — the phones' faster
        // operator implementation wins once startup amortizes.
        assert!(
            time(500, "Type 5") < time(500, "Type 1"),
            "Type 5 {} vs Type 1 {} at (500,500)",
            time(500, "Type 5"),
            time(500, "Type 1")
        );
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
