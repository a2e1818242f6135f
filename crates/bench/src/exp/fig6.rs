//! Fig 6 — accuracy difference of hybrid heterogeneous computing relative
//! to a conventional all-server benchmark, across allocation ratios and
//! scales.
//!
//! Types 1–5 put (100%, 75%, 50%, 25%, 0%) of the devices in Logical
//! Simulation (PyMNN-analog `f64` kernel) and the rest on phones
//! (MNN-analog `f32` kernel). The benchmark is the same FedAvg computed
//! entirely with the server kernel. The paper's claim: |ΔACC| < 0.5 %
//! everywhere.
//!
//! The benchmark is `run_round`, a plain FedAvg loop kept apart from the
//! platform on purpose. Type 1 (all-logical) is not bit-equal to it: the
//! platform folds updates in inclusion order, which is delivery-time
//! order, while `run_round` folds them in shard order, and f64 sums
//! depend on order. In `--quick` at the default seed, 9 weights of the
//! scale-4 Type 1 model differ from the benchmark's; at scale 20 they are
//! bit-equal. An all-logical platform task therefore cannot stand in for
//! the benchmark, and the reference stays an independent loop, held to
//! Type 1 within 0.05 percentage points.

use std::sync::Arc;

use serde::Serialize;
use simdc_core::{AllocationPolicy, Platform, PlatformConfig, RunnerConfig};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_ml::{evaluate, FedAvg, KernelKind, LocalTrainer, LrModel, TrainConfig};
use simdc_types::Result;

use crate::{f, render_table, ExpOptions};

/// One measured cell of Fig 6.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Devices per grade.
    pub scale: u64,
    /// Allocation type 1–5.
    pub alloc_type: usize,
    /// Logical fraction of that type.
    pub logical_fraction: f64,
    /// Hybrid test accuracy.
    pub hybrid_acc: f64,
    /// All-server benchmark accuracy.
    pub benchmark_acc: f64,
    /// Difference in percentage points.
    pub acc_diff_pct: f64,
}

const FRACTIONS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

/// One FedAvg round over the first `n` device shards with the server
/// kernel and sample-weighted averaging, folded in shard order.
///
/// # Errors
///
/// Fails on an empty participant set, as [`FedAvg::aggregate`] does.
pub fn run_round(
    global: &LrModel,
    dataset: &CtrDataset,
    n: usize,
    train: TrainConfig,
) -> Result<LrModel> {
    let trainer = LocalTrainer::new(train);
    let updates: Vec<_> = dataset
        .devices
        .iter()
        .take(n)
        .map(|d| trainer.train(global, &d.data, KernelKind::Server))
        .collect();
    FedAvg::aggregate(&updates)
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on platform rejection of the generated specs.
pub fn run(opts: &ExpOptions) -> Vec<Cell> {
    let scales: &[u64] = if opts.quick {
        &[4, 20]
    } else {
        &[4, 20, 100, 500]
    };
    let rounds = if opts.quick { 4 } else { 10 };
    // One shard per device at the largest scale (2 × 500), so hybrid and
    // benchmark train the identical participant multiset. The test set must
    // be large enough that a single flipped prediction moves accuracy by
    // far less than the 0.5% bound under scrutiny.
    let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 2 * scales.iter().max().copied().unwrap_or(500) as usize,
        n_test_devices: 150,
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: opts.seed,
        ..GeneratorConfig::default()
    }));

    let mut cells = Vec::new();
    let mut next_task = 1u64;
    for &scale in scales {
        // Benchmark: plain all-server FedAvg over the same population.
        let participants = (2 * scale) as usize;
        let mut bench_model = LrModel::zeros(data.feature_dim);
        for _ in 0..rounds {
            bench_model = run_round(
                &bench_model,
                &data,
                participants.min(data.devices.len()),
                super::visible_train_config(),
            )
            .expect("benchmark aggregation");
        }
        let benchmark_acc = evaluate(&bench_model, &data.test).accuracy;

        for (idx, &frac) in FRACTIONS.iter().enumerate() {
            let mut platform = Platform::new(PlatformConfig {
                runner: RunnerConfig {
                    measure_benchmarks: false,
                },
                seed: opts.seed,
                ..PlatformConfig::default()
            });
            let mut spec = super::two_grade_spec(next_task, scale, 0);
            next_task += 1;
            spec.rounds = rounds;
            spec.allocation = AllocationPolicy::FixedLogicalFraction(frac);
            let id = spec.id;
            platform
                .submit(spec, data.clone())
                .expect("submit fig6 task");
            platform.run_until_idle();
            let report = platform.report(id).expect("task completed");
            let hybrid_acc = report.final_accuracy();
            cells.push(Cell {
                scale,
                alloc_type: idx + 1,
                logical_fraction: frac,
                hybrid_acc,
                benchmark_acc,
                acc_diff_pct: (hybrid_acc - benchmark_acc) * 100.0,
            });
        }
    }

    let table = render_table(
        &[
            "Scale",
            "Type",
            "Logical %",
            "Hybrid ACC",
            "Benchmark ACC",
            "ΔACC (%)",
        ],
        &cells
            .iter()
            .map(|c| {
                vec![
                    format!("({0},{0})", c.scale),
                    format!("Type {}", c.alloc_type),
                    f(c.logical_fraction * 100.0, 0),
                    f(c.hybrid_acc, 4),
                    f(c.benchmark_acc, 4),
                    f(c.acc_diff_pct, 3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Fig 6 — accuracy difference vs scale across allocation types\n{table}");
    opts.write_json("fig6", &cells);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_differences_stay_below_half_percent() {
        let opts = ExpOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("simdc-fig6-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let cells = run(&opts);
        assert_eq!(cells.len(), 2 * 5);
        for c in &cells {
            assert!(
                c.acc_diff_pct.abs() < 0.5,
                "type {} at scale {}: ΔACC {}%",
                c.alloc_type,
                c.scale,
                c.acc_diff_pct
            );
        }
        // Type 1 (all-logical, all-server kernel) is essentially identical
        // to the benchmark: same kernel and participants, the only wiggle
        // room is f64 summation order inside FedAvg.
        for c in cells.iter().filter(|c| c.alloc_type == 1) {
            assert!(c.acc_diff_pct.abs() < 0.05, "{c:?}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
