//! Dropout study: how device disconnections affect federated learning
//! under different data distributions (the Fig 11 scenario as a library
//! workflow).
//!
//! Sweeps DeviceFlow's transmission-failure probability over an IID and a
//! label-skewed population and prints the per-round test accuracy.
//!
//! ```sh
//! cargo run --example dropout_study
//! ```

use simdc::data::{iid_partition, label_skew_partition, LabelSkewConfig};
use simdc::deviceflow::{DeviceFlow, FlowHarness};
use simdc::ml::{evaluate, FedAvg, LocalTrainer};
use simdc::prelude::*;
use simdc::simrt::RngStream;
use simdc::types::{DeviceId, Message, MessageId, RoundId, StorageKey};

fn main() -> Result<(), SimdcError> {
    let base = CtrDataset::generate(&GeneratorConfig {
        n_devices: 200,
        n_test_devices: 40,
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: 9,
        ..GeneratorConfig::default()
    });
    let mut rng = RngStream::from_seed(10);
    let populations = [
        ("IID", iid_partition(&base.devices, 200, &mut rng)),
        (
            "label-skew 70/30",
            label_skew_partition(&base.devices, 200, &LabelSkewConfig::default(), &mut rng),
        ),
    ];

    let trainer = LocalTrainer::new(TrainConfig {
        learning_rate: 0.3,
        epochs: 5,
    });
    let rounds = 8u32;

    for (name, shards) in &populations {
        println!("\n=== {name} population ===");
        println!("dropout | per-round test accuracy");
        for dropout in [0.0, 0.3, 0.7, 0.9] {
            let mut flow = DeviceFlow::new();
            flow.register_task(
                TaskId(1),
                DispatchStrategy::RealTimeAccumulated {
                    thresholds: vec![1],
                    failure_prob: dropout,
                },
            )?;
            let mut harness = FlowHarness::new(flow, RngStream::from_seed(dropout.to_bits()));
            let mut global = LrModel::zeros(base.feature_dim);
            let mut now = SimInstant::EPOCH;
            let mut accs = Vec::new();

            for r in 0..rounds {
                let round = RoundId(r);
                let updates: Vec<_> = shards
                    .iter()
                    .map(|d| trainer.train(&global, &d.data, KernelKind::Server))
                    .collect();
                harness.round_started(TaskId(1), round);
                for (i, shard) in shards.iter().enumerate() {
                    let at = now + SimDuration::from_millis(i as u64 * 5);
                    harness.ingest_at(
                        at,
                        Message::model_update(
                            MessageId(u64::from(r) * shards.len() as u64 + i as u64),
                            TaskId(1),
                            DeviceId(shard.device.0),
                            round,
                            updates[i].n_samples,
                            StorageKey::for_update(TaskId(1), round, shard.device),
                            at,
                        ),
                    );
                }
                now += SimDuration::from_secs(30);
                let included: Vec<_> = harness
                    .deliver_round(round, now)
                    .map(|(_, m)| {
                        let idx = shards
                            .iter()
                            .position(|s| s.device.0 == m.device.0)
                            .expect("known device");
                        updates[idx].clone()
                    })
                    .collect();
                if !included.is_empty() {
                    global = FedAvg::aggregate(&included)?;
                }
                accs.push(evaluate(&global, &base.test).accuracy);
            }
            let rendered: Vec<String> = accs.iter().map(|a| format!("{a:.3}")).collect();
            println!("  {dropout:.1}   | {}", rendered.join(" "));
        }
    }
    println!(
        "\nTakeaway: with IID shards dropout barely matters; under label skew, high\n\
         dropout biases each round's aggregate toward whichever class mix survived."
    );
    Ok(())
}
