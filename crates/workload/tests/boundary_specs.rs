//! Boundary values a valid scenario spec may carry: each one runs to a
//! clean end instead of panicking inside the simulator.

use std::sync::Arc;

use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_simrt::RngStream;
use simdc_workload::fleet::MAX_STRAGGLER_SLOWDOWN;
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

/// A reboot delay past the end of time means a crashed phone never comes
/// back: the run schedules no reboot at all, so every outer event is an
/// arrival, a sampled crash or a dispatch tick.
#[test]
fn a_reboot_after_of_u64_max_keeps_crashed_phones_down() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/phone_churn.json"
    ))
    .expect("phone_churn fixture");
    let never = committed.replacen(
        "\"reboot_after\": 180000000",
        "\"reboot_after\": 18446744073709551615",
        1,
    );
    assert_ne!(never, committed, "patch needle not in fixture");
    let compiled = ScenarioSpec::from_json_str(&never)
        .unwrap()
        .compile()
        .unwrap();
    let (summary, platform) = compiled.run_detailed(&dataset());
    assert!(summary.crashes > 0, "{summary:?}");
    assert_eq!(summary.reboots, 0, "{summary:?}");

    // The crash schedule the run sampled, from its own fork order.
    let scenario = &compiled.scenario;
    let mut rng = RngStream::named(compiled.config.seed, "scenario/phone_churn");
    for stream in ["arrivals", "templates", "stragglers"] {
        let _ = rng.fork(stream);
    }
    let sampled = scenario
        .fleet
        .sample_crashes(platform.phones(), scenario.horizon, &mut rng.fork("churn"))
        .len() as u64;
    // Every tick but the final drain leaves one cloud sample, and
    // `summarize` adds one more after the drain.
    let ticks = summary.cloud.series.len() as u64;
    let outer = summary.events - platform.completion_events() - platform.cluster_events();
    assert_eq!(outer, summary.arrivals + sampled + ticks, "{summary:?}");
}

/// FNV-1a 64-bit, as `byte_identity.rs` digests summaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The largest straggler slowdown a spec may carry is one the simulator
/// runs: every phone of `straggler_fleet` slowed by the cap runs to a
/// clean end, to the same summary bytes in debug and release builds (the
/// digest is checked under both profiles).
#[test]
fn the_straggler_slowdown_cap_runs_alike_in_both_profiles() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/straggler_fleet.json"
    ))
    .expect("straggler_fleet fixture");
    let capped = committed
        .replacen("\"straggler_frac\": 0.4", "\"straggler_frac\": 1", 1)
        .replacen(
            "\"straggler_slowdown\": 2.5",
            "\"straggler_slowdown\": 1000",
            1,
        );
    let spec = ScenarioSpec::from_json_str(&capped)
        .unwrap()
        .with_horizon_scale(0.2);
    assert_eq!(spec.fleet_dynamics.straggler_frac, 1.0, "patch needle");
    assert_eq!(
        spec.fleet_dynamics.straggler_slowdown,
        MAX_STRAGGLER_SLOWDOWN
    );
    let summary = spec.compile().unwrap().run(&dataset());
    assert_eq!(summary.stragglers, 30, "{summary:?}");
    assert!(summary.completed > 0, "{summary:?}");
    let digest = fnv1a(serde_json::to_string(&summary).unwrap().as_bytes());
    assert_eq!(digest, CAPPED_STRAGGLERS_DIGEST, "observed digest {digest}");
}

const CAPPED_STRAGGLERS_DIGEST: u64 = 10_572_425_055_548_573_556;
