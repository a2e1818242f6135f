//! The benchmark's own bookkeeping: workload files load, names obey the
//! contract, and `BENCHMARK.json` says what the code's registry says.

use std::collections::BTreeSet;

use simdc_benchmark::registry::{
    manifest, per_layer, workload, DEFAULT_SEED, END_TO_END, TRAFFIC_SHAPING, WORKLOADS,
};
use simdc_benchmark::workload::{load_scenario, load_traffic, whys};

fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_file_strict_loads() {
    for w in &WORKLOADS {
        if w.name == TRAFFIC_SHAPING {
            let file = load_traffic(w, false).unwrap();
            assert_eq!(file.phases.len(), 6);
            assert_eq!(load_traffic(w, true).unwrap().messages, 50_000);
        } else {
            let full = load_scenario(w, DEFAULT_SEED, 1, false).unwrap();
            assert_eq!(full.spec.name, w.name, "spec.name is the RNG stream label");
            assert_eq!(full.spec.threads, 1);
            assert_eq!(full.dataset.n_devices, 64);
            let quick = load_scenario(w, 7, 1, true).unwrap();
            assert_eq!(quick.spec.seed, 7);
            assert!(quick.spec.fleet.total() <= 20_000);
            assert!(quick.spec.horizon < full.spec.horizon);
        }
        assert!(
            !w.expected.trim().is_empty(),
            "{} has an expected output",
            w.name
        );
    }
    assert!(workload("no_such_workload").is_none());
}

#[test]
fn names_and_units_obey_the_contract() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS.iter().map(|w| w.name.to_string()) {
        assert!(is_valid_name(&name), "{name}");
        assert!(seen.insert(name));
    }
    let layer = per_layer();
    assert!(layer.len() <= 128);
    let layers: BTreeSet<&str> = layer.iter().map(|m| m.layer()).collect();
    let known = [
        "cluster",
        "core",
        "data",
        "deviceflow",
        "ml",
        "phone",
        "simrt",
        "trace",
        "workload",
    ];
    assert_eq!(layers, BTreeSet::from(known));
    let units = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(layer.iter().map(|m| (m.name.clone(), m.unit)));
    for (name, unit) in units {
        assert!(is_valid_name(&name), "{name}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
        assert!(
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: unit {unit}"
        );
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for (name, why) in whys().unwrap() {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
    }
}

#[test]
fn benchmark_json_is_the_registry_written_out() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let on_disk: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(
        on_disk == manifest(&whys().unwrap()),
        "BENCHMARK.json is stale: regenerate it with `simdc-benchmark manifest`"
    );
}
