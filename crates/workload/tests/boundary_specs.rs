//! Boundary values a valid scenario spec may carry: each one runs to a
//! clean end instead of panicking inside the simulator.

use std::sync::Arc;

use simdc_cluster::runner::{MAX_NODES, MAX_POOL_UNITS};
use simdc_core::TaskState;
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_simrt::RngStream;
use simdc_types::{SimDuration, TaskId};
use simdc_workload::fleet::{MAX_EXPECTED_CRASHES, MAX_STRAGGLER_SLOWDOWN};
use simdc_workload::scenario::{MAX_DEVICE_ROUNDS, MAX_DISPATCH_TICKS, MAX_EXPECTED_ARRIVALS};
use simdc_workload::template::MAX_DEVICES_PER_GRADE;
use simdc_workload::{scenario, scenario_names, ScenarioSpec};

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

/// The largest device count a task may draw per grade is one the simulator
/// runs: `steady_poisson` with every task at the cap in each grade it
/// spans runs to a clean end, to the same summary bytes in debug and
/// release builds (the digest is checked under both profiles).
#[test]
fn the_devices_per_grade_cap_runs_alike_in_both_profiles() {
    let committed = steady();
    let capped = committed.replacen(
        "\"devices_per_grade\": [\n      8,\n      24\n    ]",
        "\"devices_per_grade\": [\n      100000,\n      100000\n    ]",
        1,
    );
    let spec = ScenarioSpec::from_json_str(&capped)
        .unwrap()
        .with_horizon_scale(0.2);
    let cap = (MAX_DEVICES_PER_GRADE, MAX_DEVICES_PER_GRADE);
    assert_eq!(spec.template.devices_per_grade, cap, "patch needle");
    let summary = spec.compile().unwrap().run(&dataset());
    assert!(summary.completed > 0, "{summary:?}");
    let digest = fnv1a(serde_json::to_string(&summary).unwrap().as_bytes());
    assert_eq!(digest, CAPPED_DEVICES_DIGEST, "observed digest {digest}");
}

const CAPPED_DEVICES_DIGEST: u64 = 1_736_564_252_937_182_850;

/// The crash-schedule cap admits every committed spec with a 16× margin:
/// the nine fixtures and the benchmark's workload files, whose densest,
/// `churn_storm`, expects 60 000 crashes. (The fuzzer draws horizons of at
/// most 4 minutes and crash means of at least 2, so it expects at most 2.)
/// The workload files wrap their spec in `{why, dataset, spec}`, so their
/// two numbers are read from the text.
#[test]
fn the_crash_cap_admits_every_committed_spec_with_margin() {
    let expected = |horizon: u64, mtbc: Option<u64>| mtbc.map_or(0, |mean| horizon / mean);
    let mut densest = 0;
    for name in scenario_names() {
        let spec = scenario(name).unwrap();
        let mtbc = spec.fleet_dynamics.mean_time_between_crashes;
        densest = densest.max(expected(
            spec.horizon.as_micros(),
            mtbc.map(SimDuration::as_micros),
        ));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
    for entry in std::fs::read_dir(dir).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let number = |key: &str| {
            let (_, rest) = text.split_once(&format!("\"{key}\": "))?;
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        if let Some(horizon) = number("horizon") {
            densest = densest.max(expected(horizon, number("mean_time_between_crashes")));
        }
    }
    assert_eq!(densest, 60_000, "churn_storm is the densest committed spec");
    assert!(densest * 16 <= MAX_EXPECTED_CRASHES);
}

/// The committed specs read as `ScenarioSpec`s: the nine fixtures and
/// the benchmark's workload files (a workload file wraps its spec in
/// `{why, dataset, spec}`; `traffic_shaping` has none).
fn committed_specs() -> Vec<(String, ScenarioSpec)> {
    let mut specs: Vec<(String, ScenarioSpec)> = scenario_names()
        .map(|name| (name.to_string(), scenario(name).unwrap()))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let serde_json::Value::Object(fields) = serde_json::from_str(&text).unwrap() else {
            panic!("{} is not an object", path.display());
        };
        if let Some((_, spec)) = fields.iter().find(|(key, _)| key == "spec") {
            let spec = ScenarioSpec::from_json_str(&serde_json::to_string(spec).unwrap());
            specs.push((path.display().to_string(), spec.unwrap()));
        }
    }
    assert_eq!(specs.len(), 9 + 5);
    specs
}

/// The work caps admit every committed spec with a margin: the nine
/// fixtures and the benchmark's workload files at full size. Each estimate is
/// restated here from `Scenario::validate`'s documented formula. The
/// densest specs are `dense_flow` for arrivals (12 000, 83× under the
/// cap), `cloud_elastic` for dispatch ticks (72) and device-rounds
/// (258 048, 387× under). The fuzzer draws horizons of at most 4 minutes,
/// peak rates of at most 3.2 per minute, dispatch every minute, at most 2
/// rounds and at most 6 devices per grade: at most 13 arrivals, 4 ticks
/// and 312 device-rounds.
#[test]
fn the_work_caps_admit_every_committed_spec_with_margin() {
    let specs = committed_specs();
    let (mut arrivals, mut ticks, mut device_rounds) = (0.0f64, 0, 0.0f64);
    for (name, spec) in &specs {
        let expected = spec.arrivals.peak_rate_per_min() * spec.horizon.as_mins_f64();
        arrivals = arrivals.max(expected);
        ticks = ticks.max(spec.horizon.as_micros() / spec.dispatch_interval.as_micros());
        let rounds = f64::from(spec.template.rounds.1);
        let devices = 2.0 * spec.template.devices_per_grade.1 as f64;
        device_rounds = device_rounds.max(expected.max(1.0) * rounds * devices);
        assert!(spec.validate().is_ok(), "{name}");
    }
    assert_eq!((arrivals, ticks, device_rounds), (12_000.0, 72, 258_048.0));
    assert!(arrivals * 16.0 <= MAX_EXPECTED_ARRIVALS as f64);
    assert!(ticks * 16 <= MAX_DISPATCH_TICKS);
    assert!(device_rounds * 16.0 <= MAX_DEVICE_ROUNDS as f64);
    // The `devices_per_grade`-cap run above: `steady_poisson` at 0.2 of
    // its horizon, 100 000 devices per grade.
    let capped = 0.7 * 6.0 * 3.0 * 2.0 * MAX_DEVICES_PER_GRADE as f64;
    assert!(capped * 16.0 <= MAX_DEVICE_ROUNDS as f64, "{capped}");
}

/// The cluster caps admit every committed spec with a margin. A spec
/// without a cluster override runs the default cluster (16 nodes of 50
/// units). The densest is `cloud_elastic`: 512 nodes (195× under
/// `MAX_NODES`) of 50 units, 25 600 units in all (167 000× under
/// `MAX_POOL_UNITS`). The fuzzer drops the cluster override, so it runs
/// the default cluster.
#[test]
fn the_cluster_caps_admit_every_committed_spec_with_margin() {
    let (mut nodes, mut units) = (0, 0);
    for (name, spec) in committed_specs() {
        let cluster = spec.cluster.clone().unwrap_or_default();
        assert!(cluster.validate().is_ok(), "{name}");
        let per_node = cluster.node_template.max_bundles(&cluster.unit_bundle);
        nodes = nodes.max(cluster.max_nodes);
        units = units.max(cluster.max_nodes as u64 * per_node);
    }
    assert_eq!((nodes, units), (512, 25_600));
    assert!(nodes * 16 <= MAX_NODES);
    assert!(units * 16 <= MAX_POOL_UNITS);
}

/// A device that needs more units than any task asks for launches no
/// actor: `steady_poisson`, every device on the cloud tier, with high
/// devices of 10^18 units each. Every task that draws a high grade
/// fails with a typed error naming the real `k` (no `u32` truncation,
/// no overflow in building its actor bundle), and the run ends to the
/// same summary bytes in debug and release builds (the digest is
/// checked under both profiles).
#[test]
fn a_device_larger_than_its_task_fails_alike_in_both_profiles() {
    let committed = steady();
    let huge = committed
        .replacen(
            "\"units_per_device\": 8",
            "\"units_per_device\": 1000000000000000000",
            1,
        )
        .replacen(
            "\"allocation\": \"Optimized\"",
            "\"allocation\": {\n      \"FixedLogicalFraction\": 1\n    }",
            1,
        );
    let spec = ScenarioSpec::from_json_str(&huge).unwrap();
    assert_eq!(
        spec.template.high.units_per_device,
        1_000_000_000_000_000_000
    );
    let (summary, platform) = spec.compile().unwrap().run_detailed(&dataset());
    assert_eq!((summary.submitted, summary.failed), (27, 21), "{summary:?}");
    let reason = "invalid configuration: unit_bundles (48) must be >= units_per_device \
                  (1000000000000000000) to launch an actor";
    for id in 1..=summary.submitted {
        match platform.task_state(TaskId(id)) {
            Some(TaskState::Completed { .. }) => {}
            Some(TaskState::Failed { reason: r }) => assert_eq!(r, reason, "task {id}"),
            other => panic!("task {id} ended {other:?}"),
        }
    }
    let digest = fnv1a(serde_json::to_string(&summary).unwrap().as_bytes());
    assert_eq!(digest, HUGE_DEVICE_DIGEST, "observed digest {digest}");
}

const HUGE_DEVICE_DIGEST: u64 = 1_049_254_158_184_544_376;
