//! Boundary values a valid scenario spec may carry: each one runs to a
//! clean end instead of panicking inside the simulator.

use std::sync::Arc;

use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_workload::ScenarioSpec;

fn steady() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/steady_poisson.json"
    ))
    .expect("steady_poisson fixture")
}

fn dataset() -> Arc<CtrDataset> {
    Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 40,
        n_test_devices: 8,
        mean_records_per_device: 15.0,
        feature_dim: 1 << 12,
        seed: 55,
        ..GeneratorConfig::default()
    }))
}

/// A round deadline past the end of time means the round never times
/// out. Its rounds all fire their device threshold well inside the
/// fixture's own four-hour timeout, so the run is the fixture's run.
#[test]
fn a_round_timeout_of_u64_max_never_times_out() {
    let committed = steady();
    let endless = committed.replacen(
        "\"round_timeout\": 14400000000",
        "\"round_timeout\": 18446744073709551615",
        1,
    );
    assert_ne!(endless, committed, "patch needle not in fixture");
    let data = dataset();
    let run = |text: &str| {
        let spec = ScenarioSpec::from_json_str(text).unwrap();
        spec.compile().unwrap().run(&data)
    };
    let summary = run(&endless);
    assert!(summary.completed > 0, "{summary:?}");
    assert_eq!(
        serde_json::to_string(&summary).unwrap(),
        serde_json::to_string(&run(&committed)).unwrap()
    );
}
