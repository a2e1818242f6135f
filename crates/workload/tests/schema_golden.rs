//! Pins the `ScenarioSummary` JSON schema — field names, nesting and
//! declaration order — against a committed golden fixture, so sweep
//! artifacts stay diffable across PRs: a renamed, reordered or added
//! field fails here until `fixtures/scenarios/scenario_summary.schema.json`
//! is regenerated (`SIMDC_WRITE_FIXTURES=1`) and the diff reviewed.
//!
//! The fixture stores key *paths*, not values, so it never churns with
//! behavior changes — only with schema changes.

use std::path::PathBuf;

use serde::Serialize;
use serde_json::Value;
use simdc_workload::{CloudSample, CloudSummary, ScenarioSummary};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/scenarios/scenario_summary.schema.json")
}

/// A fully populated summary: every `Vec` holds one element so nested
/// schemas (the cloud series) appear in the walk.
fn sample_summary() -> ScenarioSummary {
    ScenarioSummary {
        scenario: "schema_probe".into(),
        seed: 7,
        horizon_secs: 60.0,
        arrivals: 2,
        submitted: 2,
        rejected: 0,
        completed: 1,
        failed: 1,
        crashes: 0,
        reboots: 0,
        stragglers: 0,
        events: 9,
        makespan_secs: 61.5,
        mean_wait_secs: 0.5,
        max_wait_secs: 1.0,
        mean_run_secs: 30.0,
        mean_final_accuracy: 0.5,
        arrival_preview_secs: vec![1.25],
        cloud: CloudSummary {
            peak_nodes: 4,
            final_ready: 4,
            nodes_booted: 4,
            nodes_retired: 0,
            node_ready_events: 0,
            cost_total: 0.1,
            series: vec![CloudSample {
                t_secs: 60.0,
                nodes: 4,
                ready: 4,
                utilization: 0.25,
                cost: 0.1,
            }],
        },
    }
}

/// Collects every key path of the serialized document, in serialization
/// order — `cloud.series[].nodes` style. Order is part of the schema:
/// the vendored serde preserves declaration order, which is what keeps
/// same-seed artifacts byte-diffable.
fn key_paths(value: &Value, prefix: &str, out: &mut Vec<String>) {
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.push(path.clone());
                key_paths(child, &path, out);
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn scenario_summary_schema_matches_the_golden_fixture() {
    let mut paths = Vec::new();
    key_paths(&sample_summary().to_value(), "", &mut paths);
    let mut expected = serde_json::to_string_pretty(&paths).unwrap();
    expected.push('\n');

    let path = golden_path();
    #[expect(
        clippy::disallowed_methods,
        reason = "the fixture-regeneration switch: it decides whether the golden is \
                  rewritten, never what the simulation computes (clippy.toml bans \
                  environment reads in simulation code)"
    )]
    let regenerate = std::env::var_os("SIMDC_WRITE_FIXTURES").is_some();
    if regenerate {
        std::fs::write(&path, &expected).expect("write schema golden");
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("schema golden {} unreadable: {e}", path.display()));
    assert_eq!(
        committed, expected,
        "ScenarioSummary schema drifted; regenerate the golden with \
         SIMDC_WRITE_FIXTURES=1 and review the diff"
    );
}

#[test]
fn schema_walk_sees_the_load_bearing_fields() {
    let mut paths = Vec::new();
    key_paths(&sample_summary().to_value(), "", &mut paths);
    for expected in [
        "scenario",
        "seed",
        "cloud",
        "cloud.cost_total",
        "cloud.series[].utilization",
    ] {
        assert!(paths.iter().any(|p| p == expected), "missing {expected}");
    }
    // Declaration order is preserved: `scenario` leads, `cloud` trails.
    assert_eq!(paths.first().map(String::as_str), Some("scenario"));
    assert_eq!(
        paths.iter().position(|p| p == "cloud").unwrap(),
        paths.iter().position(|p| p == "seed").unwrap() + 17,
        "cloud block sits after the scalar block"
    );
}
