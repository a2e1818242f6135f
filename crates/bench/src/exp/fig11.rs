//! Fig 11 — the impact of device dropout under different data
//! distributions.
//!
//! 1,000 devices, real-time dispatching with per-message failure
//! probability ∈ {0, 0.3, 0.7, 0.9}, timed (scheduled) aggregation,
//! 10 rounds:
//!
//! * **(a) identically distributed** shards — dropout barely moves test
//!   accuracy (surviving clients are statistically interchangeable);
//! * **(b) differentially distributed** shards (70% positive-heavy / 30%
//!   negative-heavy) — convergence destabilizes and test accuracy degrades
//!   as dropout grows.
//!
//! Each `(distribution, dropout)` pair is one platform task over an
//! all-logical High grade, one device per shard. DeviceFlow's real-time
//! strategy loses each upload with the dropout probability, and a
//! scheduled trigger aggregates whatever arrived. The 30-minute period
//! outlasts every round's compute (the full run's slowest round computes
//! for about 1 283 s), so no upload is a straggler and dropout alone
//! decides what each aggregate misses; a shorter period would mix the
//! clock's cut into the dropout effect.

use std::sync::Arc;

use serde::Serialize;
use simdc_core::{
    AggregationTrigger, AllocationPolicy, GradeRequirement, Platform, RoundReport, TaskSpec,
};
use simdc_data::{
    iid_partition, label_skew_partition, CtrDataset, GeneratorConfig, LabelSkewConfig,
};
use simdc_deviceflow::DispatchStrategy;
use simdc_simrt::RngStream;
use simdc_types::{DeviceGrade, SimDuration, TaskId};

use crate::{f, render_table, ExpOptions};

/// One `(distribution, dropout)` series.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// "identical" or "differential".
    pub distribution: String,
    /// Dropout probability.
    pub dropout: f64,
    /// The task's rounds, in order.
    pub rounds: Vec<RoundReport>,
}

impl Series {
    /// Test accuracy after each round.
    #[must_use]
    pub fn accuracy(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.eval.accuracy).collect()
    }
}

const DROPOUTS: [f64; 4] = [0.0, 0.3, 0.7, 0.9];

/// The aggregation period; see the module docs for why it must exceed
/// every round's compute.
const PERIOD: SimDuration = SimDuration::from_mins(30);

/// Runs one `(distribution, dropout)` task over `data`, one device per
/// shard, and returns its rounds.
fn run_config(data: &Arc<CtrDataset>, dropout: f64, rounds: u32, seed: u64) -> Vec<RoundReport> {
    let mut platform = Platform::paper_default();
    let spec = TaskSpec::builder(TaskId(1))
        .rounds(rounds)
        .grade(GradeRequirement {
            logical_unit_bundles: 128,
            phones: 0,
            ..GradeRequirement::sized(DeviceGrade::High, data.devices.len() as u64)
        })
        .strategy(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: dropout,
        })
        .trigger(AggregationTrigger::Scheduled { period: PERIOD })
        .round_timeout(PERIOD)
        .train(super::visible_train_config())
        .allocation(AllocationPolicy::FixedLogicalFraction(1.0))
        .seed(seed ^ dropout.to_bits())
        .build()
        .expect("fig11 spec is valid");
    platform
        .submit(spec, data.clone())
        .expect("submit fig11 task");
    platform.run_until_idle();
    platform
        .take_reports()
        .remove(&TaskId(1))
        .expect("fig11 task completed")
        .rounds
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the platform rejects or fails a task.
pub fn run(opts: &ExpOptions) -> Vec<Series> {
    let n_devices = if opts.quick { 200 } else { 1_000 };
    let rounds = if opts.quick { 6 } else { 10 };
    let base = CtrDataset::generate(&GeneratorConfig {
        n_devices,
        n_test_devices: 60,
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        // Balanced labels so accuracy reflects learning (and so the 70/30
        // skew targets of Fig 11(b) are reachable from the pool).
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: opts.seed,
        ..GeneratorConfig::default()
    });

    let mut rng = RngStream::named(opts.seed, "fig11/partition");
    let identical = iid_partition(&base.devices, n_devices, &mut rng);
    let differential = label_skew_partition(
        &base.devices,
        n_devices,
        &LabelSkewConfig::default(),
        &mut rng,
    );

    let mut series = Vec::new();
    for (name, shards) in [("identical", identical), ("differential", differential)] {
        let data = Arc::new(CtrDataset {
            devices: shards,
            test: base.test.clone(),
            feature_dim: base.feature_dim,
        });
        for &p in &DROPOUTS {
            series.push(Series {
                distribution: name.into(),
                dropout: p,
                rounds: run_config(&data, p, rounds, opts.seed),
            });
        }
    }

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            vec![
                s.distribution.clone(),
                format!("{:.1}", s.dropout),
                f(s.rounds.last().expect("rounds ran").eval.accuracy, 4),
                f(spread(&s.accuracy()), 4),
            ]
        })
        .collect();
    println!(
        "Fig 11 — dropout impact by data distribution\n{}",
        render_table(
            &[
                "Distribution",
                "Dropout",
                "Final test ACC",
                "ACC spread (last half)"
            ],
            &rows
        )
    );
    opts.write_json("fig11", &series);
    series
}

/// Max−min of the last half of a series (convergence instability measure).
fn spread(acc: &[f64]) -> f64 {
    let tail = &acc[acc.len() / 2..];
    let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_hurts_only_under_label_skew() {
        let opts = ExpOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("simdc-fig11-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let series = run(&opts);
        assert_eq!(series.len(), 8);
        // The premise: the period outlasts every round's compute, so no
        // upload is a straggler and only DeviceFlow's dropout removes one.
        for s in &series {
            for r in &s.rounds {
                let premise = r.stragglers == 0 && r.included_updates + r.dropped_messages == 200;
                assert!(premise, "{} p={}: {r:?}", s.distribution, s.dropout);
            }
        }
        let find = |dist: &str, p: f64| {
            series
                .iter()
                .find(|s| s.distribution == dist && (s.dropout - p).abs() < 1e-9)
                .unwrap()
                .accuracy()
        };
        // (a) identical: negligible difference between p=0 and p=0.9.
        let iid_gap =
            (find("identical", 0.0).last().unwrap() - find("identical", 0.9).last().unwrap()).abs();
        assert!(iid_gap < 0.05, "IID dropout gap {iid_gap}");
        // (b) differential: high dropout destabilizes convergence more than
        // no dropout (spread grows with p).
        let skew_stable = spread(&find("differential", 0.0));
        let skew_unstable = spread(&find("differential", 0.9));
        assert!(
            skew_unstable > skew_stable,
            "spread p=0 {skew_stable} vs p=0.9 {skew_unstable}"
        );
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
