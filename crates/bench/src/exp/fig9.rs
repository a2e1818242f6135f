//! Fig 9 — impact of device-behavior traffic curves on cloud aggregation.
//!
//! Non-IID scenario: devices with higher CTR transmit faster; per-round
//! response delays follow a right-tailed normal `|N(0, σ)|`, σ ∈ {1, 2, 3}
//! (scaled to minutes). Two cloud configurations:
//!
//! * **(a) sample-threshold aggregation** in a fixed 20-minute window — a
//!   tighter curve (σ = 1) completes more aggregation rounds and reaches a
//!   lower training loss;
//! * **(b) scheduled aggregation** — per round, a tighter curve lets more
//!   samples arrive before the deadline, so train accuracy per round is
//!   higher.

use serde::Serialize;
use simdc_core::cloud::{resolve_round, AggregationTrigger};
use simdc_data::{ctr_correlated_delays, CtrDataset, Dataset, GeneratorConfig};
use simdc_ml::{evaluate, FedAvg, KernelKind, LocalTrainer, LrModel};
use simdc_simrt::RngStream;
use simdc_types::{Message, MessageId, RoundId, SimDuration, SimInstant, StorageKey, TaskId};

use crate::{f, render_table, ExpOptions};

/// Results of both panels.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Panel (a): per σ, `(minutes, loss)` at each completed aggregation.
    pub threshold_loss: Vec<SigmaSeries>,
    /// Panel (b): per σ, train accuracy after each scheduled round.
    pub scheduled_accuracy: Vec<SigmaSeries>,
}

/// One σ's series.
#[derive(Debug, Clone, Serialize)]
pub struct SigmaSeries {
    /// The traffic-curve σ.
    pub sigma: f64,
    /// `(x, y)` points: (minutes, loss) for panel (a), (round, accuracy)
    /// for panel (b).
    pub points: Vec<(f64, f64)>,
}

struct Scenario {
    data: CtrDataset,
    train_eval: Dataset,
}

fn scenario(opts: &ExpOptions, n_devices: usize) -> Scenario {
    let data = CtrDataset::generate(&GeneratorConfig {
        n_devices,
        n_test_devices: 50,
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        // Balanced labels: accuracy/loss must show learning dynamics.
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: opts.seed,
        ..GeneratorConfig::default()
    });
    // Pooled training sample for "train accuracy" reporting.
    let train_eval: Dataset = data
        .devices
        .iter()
        .take(100)
        .flat_map(|d| d.data.iter().cloned())
        .collect();
    Scenario { data, train_eval }
}

/// One federated round with CTR-correlated delays: trains every device,
/// stamps each update with its arrival time, resolves the trigger and
/// aggregates what made it. Returns `(new_global, aggregated_at,
/// included_updates, weighted_loss)`.
#[allow(clippy::too_many_arguments)]
fn delayed_round(
    global: &LrModel,
    scn: &Scenario,
    sigma: f64,
    round_start: SimInstant,
    round: RoundId,
    trigger: AggregationTrigger,
    timeout: SimDuration,
    trainer: &LocalTrainer,
    rng: &mut RngStream,
) -> (LrModel, SimInstant, usize, f64) {
    let delays = ctr_correlated_delays(&scn.data.devices, sigma, SimDuration::from_secs(60), rng);
    let mut deliveries: Vec<(SimInstant, Message, simdc_ml::LocalUpdate)> = scn
        .data
        .devices
        .iter()
        .zip(&delays)
        .map(|(dev, &(id, delay))| {
            let update = trainer.train(global, &dev.data, KernelKind::Server);
            let at = round_start + delay;
            let msg = Message::model_update(
                MessageId(id.0),
                TaskId(1),
                id,
                round,
                update.n_samples,
                StorageKey::for_update(TaskId(1), round, id),
                at,
            );
            (at, msg, update)
        })
        .collect();
    deliveries.sort_by_key(|(at, m, _)| (*at, m.id));

    let timeline = deliveries.iter().map(|(at, m, _)| (*at, *m));
    let outcome = resolve_round(trigger, round_start, timeline, timeout);
    let included: Vec<simdc_ml::LocalUpdate> = deliveries
        .iter()
        .filter(|(_, m, _)| outcome.included.iter().any(|inc| inc.id == m.id))
        .map(|(_, _, u)| u.clone())
        .collect();
    let loss = FedAvg::weighted_loss(&included);
    let new_global = if included.is_empty() {
        global.clone()
    } else {
        FedAvg::aggregate(&included).expect("non-empty aggregate")
    };
    (new_global, outcome.aggregated_at, included.len(), loss)
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on internal aggregation errors.
pub fn run(opts: &ExpOptions) -> Fig9 {
    let n_devices = if opts.quick { 200 } else { 1_000 };
    let scn = scenario(opts, n_devices);
    let trainer = LocalTrainer::new(super::visible_train_config());
    let sigmas = [1.0, 2.0, 3.0];

    // Panel (a): sample-threshold aggregation in a 20-minute window.
    let window = SimDuration::from_mins(20);
    let threshold = AggregationTrigger::SampleThreshold {
        min_samples: (n_devices as u64) * 20 / 2, // ~half the population's samples
    };
    let mut threshold_loss = Vec::new();
    for &sigma in &sigmas {
        let mut rng = RngStream::named(opts.seed, &format!("fig9a/{sigma}"));
        let mut global = LrModel::zeros(scn.data.feature_dim);
        let mut now = SimInstant::EPOCH;
        let deadline = SimInstant::EPOCH + window;
        let mut points = Vec::new();
        let mut round = RoundId::FIRST;
        while now < deadline {
            let (next_global, agg_at, included, loss) = delayed_round(
                &global, &scn, sigma, now, round, threshold, window, &trainer, &mut rng,
            );
            if agg_at > deadline || included == 0 {
                break;
            }
            global = next_global;
            now = agg_at;
            round = round.next();
            points.push((agg_at.as_secs_f64() / 60.0, loss));
        }
        threshold_loss.push(SigmaSeries { sigma, points });
    }

    // Panel (b): scheduled aggregation, fixed rounds.
    let rounds = if opts.quick { 5 } else { 10 };
    let period = SimDuration::from_secs(90);
    let mut scheduled_accuracy = Vec::new();
    for &sigma in &sigmas {
        let mut rng = RngStream::named(opts.seed, &format!("fig9b/{sigma}"));
        let mut global = LrModel::zeros(scn.data.feature_dim);
        let mut now = SimInstant::EPOCH;
        let mut points = Vec::new();
        for r in 0..rounds {
            let (next_global, agg_at, _, _) = delayed_round(
                &global,
                &scn,
                sigma,
                now,
                RoundId(r),
                AggregationTrigger::Scheduled { period },
                period * 2,
                &trainer,
                &mut rng,
            );
            global = next_global;
            now = agg_at;
            let acc = evaluate(&global, &scn.train_eval).accuracy;
            points.push((f64::from(r + 1), acc));
        }
        scheduled_accuracy.push(SigmaSeries { sigma, points });
    }

    let result = Fig9 {
        threshold_loss,
        scheduled_accuracy,
    };

    let rows_a: Vec<Vec<String>> = result
        .threshold_loss
        .iter()
        .map(|s| {
            vec![
                format!("σ={}", s.sigma),
                s.points.len().to_string(),
                s.points.last().map_or("-".into(), |&(_, l)| f(l, 4)),
            ]
        })
        .collect();
    println!(
        "Fig 9(a) — sample-threshold aggregation in a 20-min window\n{}",
        render_table(&["Curve", "Rounds completed", "Final loss"], &rows_a)
    );
    let rows_b: Vec<Vec<String>> = result
        .scheduled_accuracy
        .iter()
        .map(|s| {
            vec![
                format!("σ={}", s.sigma),
                s.points.last().map_or("-".into(), |&(_, a)| f(a, 4)),
            ]
        })
        .collect();
    println!(
        "Fig 9(b) — scheduled aggregation train accuracy (final round)\n{}",
        render_table(&["Curve", "Final train ACC"], &rows_b)
    );
    opts.write_json("fig9", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighter_curves_aggregate_more_and_learn_better() {
        let opts = ExpOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("simdc-fig9-test"),
            ..ExpOptions::default()
        };
        let result = run(&opts);
        // (a) σ=1 completes at least as many rounds as σ=3 and ends with a
        // loss no worse.
        let rounds = |i: usize| result.threshold_loss[i].points.len();
        assert!(
            rounds(0) >= rounds(2),
            "σ=1 {} vs σ=3 {}",
            rounds(0),
            rounds(2)
        );
        assert!(rounds(0) >= 2, "σ=1 completes multiple rounds");
        let final_loss = |i: usize| result.threshold_loss[i].points.last().unwrap().1;
        assert!(final_loss(0) <= final_loss(2) + 0.02);
        // (b) σ=1 final train accuracy ≥ σ=3's.
        let final_acc = |i: usize| result.scheduled_accuracy[i].points.last().unwrap().1;
        assert!(
            final_acc(0) >= final_acc(2) - 0.005,
            "σ=1 {} vs σ=3 {}",
            final_acc(0),
            final_acc(2)
        );
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
