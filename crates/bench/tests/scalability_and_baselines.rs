//! Cross-crate checks of the scalability story (Fig 8) and the baseline
//! comparators: orderings the paper reports must hold for the calibrated
//! cost models, and Fig 6's benchmark loop must agree with the platform
//! algorithmically.

use std::sync::Arc;

use simdc_bench::exp::fig6::run_round;
use simdc_bench::exp::fig8::{simdc_round_time, FEDERATED_SCOPE, FEDSCALE};
use simdc_bench::exp::visible_train_config;
use simdc_core::{AggregationTrigger, AllocationPolicy, GradeRequirement, Platform, TaskSpec};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_ml::{evaluate, LrModel};
use simdc_types::{DeviceGrade, TaskId};

#[test]
fn fig8_orderings_hold_across_four_decades() {
    for n in [100u64, 1_000, 10_000, 100_000] {
        let simdc = simdc_round_time(n, 1).as_secs_f64();
        let scale = FEDSCALE.round_time(n).as_secs_f64();
        let scope = FEDERATED_SCOPE.round_time(n).as_secs_f64();
        // FedScale is always fastest (no device-cloud communication).
        assert!(scale < scope && scale < simdc, "n={n}");
        if n < 1_000 {
            assert!(simdc > scope, "SimDC pays realism overhead at n={n}");
        } else {
            let ratio = simdc / scope;
            assert!(
                (0.5..2.0).contains(&ratio),
                "SimDC ≈ FederatedScope at n={n}: ratio {ratio}"
            );
        }
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "this test's assertion *is* a wall-time bound, so it reads the real \
              clock (clippy.toml bans `Instant::now` in simulation code)"
)]
fn simulating_100k_devices_is_tractable() {
    let start = std::time::Instant::now();
    let secs = simdc_round_time(100_000, 1).as_secs_f64();
    assert!(secs > 1_000.0, "virtual time is hours-scale: {secs}");
    assert!(
        start.elapsed().as_secs() < 30,
        "wall time must stay laptop-scale: {:?}",
        start.elapsed()
    );
}

#[test]
fn baseline_fedavg_agrees_with_platform_all_server_run() {
    // Fig 6's benchmark loop and the platform implement the *same* FedAvg:
    // an all-logical platform task reaches the loop's accuracy on the same
    // participants.
    let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 16,
        n_test_devices: 4,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: 13,
        ..GeneratorConfig::default()
    }));
    let rounds = 3;
    let train = visible_train_config();

    let mut baseline = LrModel::zeros(data.feature_dim);
    for _ in 0..rounds {
        baseline = run_round(&baseline, &data, 16, train).unwrap();
    }

    let mut platform = Platform::paper_default();
    let spec = TaskSpec::builder(TaskId(1))
        .rounds(rounds)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 16,
            benchmark_phones: 0,
            logical_unit_bundles: 128,
            units_per_device: 8,
            phones: 0,
        })
        .trigger(AggregationTrigger::DeviceThreshold { min_devices: 16 })
        .train(train)
        .allocation(AllocationPolicy::FixedLogicalFraction(1.0))
        .build()
        .unwrap();
    platform.submit(spec, data.clone()).unwrap();
    platform.run_until_idle();
    let platform_model = &platform.report(TaskId(1)).unwrap().final_model;

    let acc_base = evaluate(&baseline, &data.test).accuracy;
    let acc_platform = evaluate(platform_model, &data.test).accuracy;
    assert!(
        (acc_base - acc_platform).abs() < 1e-9,
        "identical algorithm, identical outcome: {acc_base} vs {acc_platform}"
    );
}
