//! Cross-crate checks of the scalability story (Fig 8) and the baseline
//! comparators: orderings the paper reports must hold for the calibrated
//! cost models, and the baselines must agree with the platform
//! algorithmically.

use simdc::baselines::{run_round, BaselineSimulator, FedScaleSim, FederatedScopeSim};
use simdc::cluster::{ClusterConfig, CostModel, JobSpec, LogicalCluster};
use simdc::ml::{evaluate, LrModel};
use simdc::prelude::*;
use simdc::simrt::RngStream;
use simdc::types::{DeviceId, PerGrade, RoundId};

fn simdc_round_secs(n: u64) -> f64 {
    let mut cluster = LogicalCluster::new(ClusterConfig {
        node_template: ResourceBundle::cores_gib(200, 300),
        initial_nodes: 1,
        max_nodes: 1,
        cost: CostModel {
            jitter_frac: 0.0,
            compute_per_device: PerGrade::new(SimDuration::from_secs(16)),
            ..CostModel::default()
        },
        ..ClusterConfig::default()
    });
    let job = JobSpec {
        task: TaskId(1),
        round: RoundId(0),
        grade: DeviceGrade::High,
        devices: (0..n).map(DeviceId).collect(),
        unit_bundles: 200,
        units_per_device: 1,
        payload_mib: 4.0,
    };
    let mut rng = RngStream::from_seed(1);
    let plan = cluster.submit_job(&job, &mut rng).unwrap();
    plan.makespan.as_secs_f64() + 2.5
}

#[test]
fn fig8_orderings_hold_across_four_decades() {
    let fedscale = FedScaleSim::default();
    let fedscope = FederatedScopeSim::default();
    for n in [100u64, 1_000, 10_000, 100_000] {
        let simdc = simdc_round_secs(n);
        let scale = fedscale.round_time(n).as_secs_f64();
        let scope = fedscope.round_time(n).as_secs_f64();
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
    let secs = simdc_round_secs(100_000);
    assert!(secs > 1_000.0, "virtual time is hours-scale: {secs}");
    assert!(
        start.elapsed().as_secs() < 30,
        "wall time must stay laptop-scale: {:?}",
        start.elapsed()
    );
}

#[test]
fn baseline_fedavg_agrees_with_platform_all_server_run() {
    // The FedScale/FederatedScope baselines and the SimDC platform must
    // implement the *same* FedAvg; an all-logical platform task equals the
    // baseline loop on the same participants.
    let data = std::sync::Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 16,
        n_test_devices: 4,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed: 13,
        ..GeneratorConfig::default()
    }));
    let rounds = 3;
    let train = TrainConfig {
        learning_rate: 0.3,
        epochs: 5,
    };

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
    let platform_model = platform.report(TaskId(1)).unwrap().final_model.clone();

    let acc_base = evaluate(&baseline, &data.test).accuracy;
    let acc_platform = evaluate(&platform_model, &data.test).accuracy;
    assert!(
        (acc_base - acc_platform).abs() < 1e-9,
        "identical algorithm, identical outcome: {acc_base} vs {acc_platform}"
    );
}
