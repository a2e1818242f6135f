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
    // Threshold 1 without failures releases each message when it arrives,
    // so DeviceFlow is an identity stage: the same task (same id, same
    // seed) reports exactly the same through it as without it. The cases
    // cover a threshold that fires before compute finishes (whose round
    // completion then arrives inside the next round), a sample count, and
    // schedules that fall before compute finishes and past the 30 min
    // round timeout `spec_with` sets.
    let mut superseded = false;
    for trigger in [
        AggregationTrigger::DeviceThreshold { min_devices: 24 },
        AggregationTrigger::DeviceThreshold { min_devices: 10 },
        AggregationTrigger::SampleThreshold { min_samples: 200 },
        AggregationTrigger::Scheduled {
            period: SimDuration::from_mins(60),
        },
        AggregationTrigger::Scheduled {
            period: SimDuration::from_secs(40),
        },
    ] {
        let run = |strategy| {
            let mut platform = Platform::paper_default();
            platform
                .submit(spec_with(1, strategy, trigger), dataset(7))
                .unwrap();
            platform.run_until_idle();
            platform.report(TaskId(1)).unwrap().clone()
        };
        let direct = run(None);
        assert_eq!(
            run(Some(DispatchStrategy::immediate())),
            direct,
            "{trigger:?}"
        );
        superseded |= direct
            .rounds
            .iter()
            .any(|r| r.aggregated_at < r.compute_finished_at);
    }
    assert!(
        superseded,
        "some round aggregates before its compute finishes"
    );
}

#[test]
fn accumulation_threshold_delays_aggregation() {
    // Batching messages in groups of 8 means the device-threshold trigger
    // can only fire when a batch lands, not per arrival. The cloud then
    // takes the prefix up to the message that reaches the threshold: the
    // batch that crosses 20 releases messages 17–24 at one instant, and
    // the 20th is included while the last 4 are stragglers.
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
        assert_eq!(round.included_updates, 20, "{round:?}");
        assert_eq!(round.stragglers, 4, "{round:?}");
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
