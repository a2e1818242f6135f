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

use serde::Serialize;
use simdc_data::{
    iid_partition, label_skew_partition, CtrDataset, DeviceDataset, GeneratorConfig,
    LabelSkewConfig,
};
use simdc_deviceflow::{DeviceFlow, DispatchStrategy, FlowHarness};
use simdc_ml::{evaluate, FedAvg, KernelKind, LocalTrainer, LocalUpdate, LrModel};
use simdc_simrt::RngStream;
use simdc_types::{
    DeviceId, Message, MessageId, RoundId, SimDuration, SimInstant, StorageKey, TaskId,
};

use crate::{f, render_table, ExpOptions};

/// One `(distribution, dropout)` accuracy series.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// "identical" or "differential".
    pub distribution: String,
    /// Dropout probability.
    pub dropout: f64,
    /// Test accuracy after each round.
    pub accuracy: Vec<f64>,
}

const DROPOUTS: [f64; 4] = [0.0, 0.3, 0.7, 0.9];

fn run_config(
    shards: &[DeviceDataset],
    test: &CtrDataset,
    dropout: f64,
    rounds: u32,
    seed: u64,
) -> Vec<f64> {
    let trainer = LocalTrainer::new(super::visible_train_config());
    let mut global = LrModel::zeros(test.feature_dim);
    let mut accs = Vec::with_capacity(rounds as usize);

    // All updates flow through a real DeviceFlow with the paper's
    // real-time strategy and failure probability.
    let mut flow = DeviceFlow::new();
    flow.register_task(
        TaskId(1),
        DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: dropout,
        },
    )
    .expect("valid strategy");
    let mut harness = FlowHarness::new(flow, RngStream::named(seed, "fig11/flow"));
    let mut now = SimInstant::EPOCH;
    let round_len = SimDuration::from_secs(60);

    for r in 0..rounds {
        let round = RoundId(r);
        let updates: Vec<LocalUpdate> = shards
            .iter()
            .map(|d| trainer.train(&global, &d.data, KernelKind::Server))
            .collect();
        harness.round_started(TaskId(1), round);
        for (i, (shard, update)) in shards.iter().zip(&updates).enumerate() {
            let at = now + SimDuration::from_millis(10 * i as u64 % 50_000);
            harness.ingest_at(
                at,
                Message::model_update(
                    MessageId(u64::from(r) * shards.len() as u64 + i as u64),
                    TaskId(1),
                    DeviceId(shard.device.0),
                    round,
                    update.n_samples,
                    StorageKey::for_update(TaskId(1), round, shard.device),
                    at,
                ),
            );
        }
        // Timed aggregation at the end of the round window.
        now += round_len;
        let included: Vec<LocalUpdate> = harness
            .deliver_round(round, now)
            .map(|(_, m)| {
                let idx = shards
                    .iter()
                    .position(|s| s.device.0 == m.device.0)
                    .expect("message from a known shard");
                updates[idx].clone()
            })
            .collect();
        if !included.is_empty() {
            global = FedAvg::aggregate(&included).expect("non-empty aggregate");
        }
        accs.push(evaluate(&global, &test.test).accuracy);
    }
    accs
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on internal aggregation errors.
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
    for (name, shards) in [("identical", &identical), ("differential", &differential)] {
        for &p in &DROPOUTS {
            let accuracy = run_config(shards, &base, p, rounds, opts.seed ^ p.to_bits());
            series.push(Series {
                distribution: name.into(),
                dropout: p,
                accuracy,
            });
        }
    }

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            vec![
                s.distribution.clone(),
                format!("{:.1}", s.dropout),
                f(*s.accuracy.last().expect("rounds ran"), 4),
                f(spread(&s.accuracy), 4),
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
        let series = run(&opts);
        assert_eq!(series.len(), 8);
        let find = |dist: &str, p: f64| {
            series
                .iter()
                .find(|s| s.distribution == dist && (s.dropout - p).abs() < 1e-9)
                .unwrap()
        };
        // (a) identical: negligible difference between p=0 and p=0.9.
        let iid_gap = (find("identical", 0.0).accuracy.last().unwrap()
            - find("identical", 0.9).accuracy.last().unwrap())
        .abs();
        assert!(iid_gap < 0.05, "IID dropout gap {iid_gap}");
        // (b) differential: high dropout destabilizes convergence more than
        // no dropout (spread grows with p).
        let skew_stable = spread(&find("differential", 0.0).accuracy);
        let skew_unstable = spread(&find("differential", 0.9).accuracy);
        assert!(
            skew_unstable > skew_stable,
            "spread p=0 {skew_stable} vs p=0.9 {skew_unstable}"
        );
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
