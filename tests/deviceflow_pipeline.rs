//! Integration of DeviceFlow with the platform's cloud triggers: strategy ×
//! trigger interactions that no single crate exercises alone.

use std::sync::Arc;

use simdc::prelude::*;

fn dataset(seed: u64) -> Arc<CtrDataset> {
    Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 50,
        n_test_devices: 10,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed,
        ..GeneratorConfig::default()
    }))
}

fn spec_with(id: u64, strategy: Option<DispatchStrategy>, trigger: AggregationTrigger) -> TaskSpec {
    let mut b = TaskSpec::builder(TaskId(id));
    b.rounds(2)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 24,
            benchmark_phones: 0,
            logical_unit_bundles: 48,
            units_per_device: 8,
            phones: 6,
        })
        .trigger(trigger)
        .round_timeout(SimDuration::from_mins(30))
        .train(TrainConfig {
            learning_rate: 0.3,
            epochs: 3,
        })
        .seed(id);
    if let Some(s) = strategy {
        b.strategy(s);
    }
    b.build().expect("valid spec")
}

#[test]
fn immediate_strategy_matches_direct_delivery() {
    // Routing through DeviceFlow with threshold 1 and no failures must
    // produce the same learning outcome as bypassing DeviceFlow. A
    // schedule is independent of delivery timing, so there the two routes
    // must also aggregate at the same instants — even when the period
    // overruns the round timeout (`spec_with` sets 30 min) and both clamp.
    let overrun = SimDuration::from_mins(60);
    for (trigger, same_instants) in [
        (
            AggregationTrigger::DeviceThreshold { min_devices: 24 },
            false,
        ),
        (AggregationTrigger::Scheduled { period: overrun }, true),
    ] {
        let run = |strategy: Option<DispatchStrategy>| {
            let mut platform = Platform::paper_default();
            let id = match strategy {
                Some(_) => 1,
                None => 2,
            };
            platform
                .submit(spec_with(id, strategy, trigger), dataset(7))
                .unwrap();
            platform.run_until_idle();
            let report = platform.report(TaskId(id)).unwrap();
            let aggregated_at: Vec<SimInstant> =
                report.rounds.iter().map(|r| r.aggregated_at).collect();
            (aggregated_at, report.final_model.clone())
        };
        let through_flow = run(Some(DispatchStrategy::immediate()));
        let direct = run(None);
        assert_eq!(through_flow.1, direct.1, "{trigger:?}");
        if same_instants {
            assert_eq!(through_flow.0, direct.0, "{trigger:?}");
        }
    }
}

#[test]
fn accumulation_threshold_delays_aggregation() {
    // Batching messages in groups of 8 means the device-threshold trigger
    // fires at a batch boundary, not per message.
    let mut platform = Platform::paper_default();
    let spec = spec_with(
        1,
        Some(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![8],
            failure_prob: 0.0,
        }),
        AggregationTrigger::DeviceThreshold { min_devices: 20 },
    );
    platform.submit(spec, dataset(8)).unwrap();
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).unwrap();
    for round in &report.rounds {
        // 20 needed, batches of 8 → trigger crosses at the 24-message
        // batch: everything delivered in that batch is included.
        assert_eq!(round.included_updates, 24, "{round:?}");
        assert!(round.trigger_fired);
    }
}

#[test]
fn dropout_with_timeout_still_aggregates_best_effort() {
    let mut platform = Platform::paper_default();
    let mut spec = spec_with(
        1,
        Some(DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![1],
            failure_prob: 0.95,
        }),
        AggregationTrigger::DeviceThreshold { min_devices: 24 },
    );
    spec.round_timeout = SimDuration::from_mins(5);
    platform.submit(spec, dataset(9)).unwrap();
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).unwrap();
    for round in &report.rounds {
        // With 95% dropout the 24-device threshold is unreachable: the
        // round times out and aggregates what survived.
        assert!(!round.trigger_fired, "{round:?}");
        assert_eq!(
            round.aggregated_at,
            round.started_at + SimDuration::from_mins(5)
        );
        assert!(round.dropped_messages >= 15, "{round:?}");
    }
}

#[test]
fn time_point_strategy_defers_everything_to_the_dispatch_point() {
    use simdc::deviceflow::TimePointRule;
    let mut platform = Platform::paper_default();
    let spec = spec_with(
        1,
        Some(DispatchStrategy::TimePoints {
            points: vec![TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(30)),
                count: 500,
                dropout: Dropout::NONE,
            }],
        }),
        AggregationTrigger::DeviceThreshold { min_devices: 24 },
    );
    platform.submit(spec, dataset(10)).unwrap();
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).unwrap();
    for round in &report.rounds {
        // Nothing reaches the cloud until 30 s after compute finished.
        assert!(
            round.aggregated_at >= round.compute_finished_at + SimDuration::from_secs(30),
            "{round:?}"
        );
        assert_eq!(round.included_updates, 24);
    }
}

#[test]
fn sample_threshold_tracks_partial_participation() {
    let mut platform = Platform::paper_default();
    let spec = spec_with(
        1,
        None,
        // ~24 devices × ~20 samples ≈ 480 total; threshold at 200 means
        // roughly the fastest half participates.
        AggregationTrigger::SampleThreshold { min_samples: 200 },
    );
    platform.submit(spec, dataset(11)).unwrap();
    platform.run_until_idle();
    let report = platform.report(TaskId(1)).unwrap();
    for round in &report.rounds {
        assert!(round.trigger_fired);
        assert!(round.included_samples >= 200);
        assert!(
            round.included_updates < 24,
            "some devices must be stragglers: {round:?}"
        );
        assert!(round.stragglers > 0);
    }
}
