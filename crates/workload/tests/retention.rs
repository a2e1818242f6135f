//! What a scenario run retains of a finished task: its terminal state,
//! not its report. `run_detailed` takes each report as the task
//! completes and keeps only its final accuracy, so the platform it hands
//! back holds no reports while every task state stays readable.

use std::sync::Arc;

use simdc_core::TaskState;
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_types::TaskId;
use simdc_workload::scenario;

#[test]
fn a_scenario_run_keeps_task_states_but_no_reports() {
    let data = Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 40,
        n_test_devices: 8,
        mean_records_per_device: 15.0,
        feature_dim: 1 << 12,
        seed: 55,
        ..GeneratorConfig::default()
    }));
    let compiled = scenario("steady_poisson")
        .unwrap()
        .with_horizon_scale(0.25)
        .compile()
        .unwrap();
    let (summary, mut platform) = compiled.run_detailed(&data);
    assert!(summary.completed > 0, "{summary:?}");

    // Arrival `i` carries task id `i`; rejected arrivals have no state.
    let completed = (1..=summary.arrivals)
        .filter(|&i| {
            matches!(
                platform.task_state(TaskId(i)),
                Some(TaskState::Completed { .. })
            )
        })
        .count() as u64;
    assert_eq!(completed, summary.completed);
    assert!(platform.report(TaskId(1)).is_none());
    assert!(platform.take_reports().is_empty());
}
