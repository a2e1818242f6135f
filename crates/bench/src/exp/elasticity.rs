//! Elasticity bench — the cost-vs-scale story of the elastic cloud tier.
//!
//! Drives the two cloud-contention library scenarios (`cloud_surge` and
//! `budget_capped`) and emits their node-count / utilization / cost time
//! series to `BENCH_elasticity.json` — the data behind the paper's Fig
//! 8/Fig 9 framing that elastic capacity trades money for queueing delay.
//! The uncapped run shows the pool surging with each arrival burst and
//! draining back between them; the budget-capped run shows the same
//! traffic held at six nodes with the overflow absorbed as wait time.
//!
//! Everything inside each scenario summary (including the series) is
//! byte-deterministic per seed; CI diffs a same-seed double run and
//! archives the JSON as a workflow artifact.

use std::sync::Arc;

use serde::Serialize;
use simdc_workload::{scenario, ScenarioSummary};

use crate::{f, render_table, ExpOptions};

/// The `BENCH_elasticity.json` payload: one entry per elastic scenario.
#[derive(Debug, Clone, Serialize)]
pub struct ElasticityResult {
    /// Seed every stream derived from.
    pub seed: u64,
    /// Per-scenario outcomes, in run order (uncapped, then budget-capped).
    pub scenarios: Vec<ScenarioSummary>,
}

/// Runs the elasticity bench and writes `BENCH_elasticity.json`.
///
/// # Panics
///
/// Panics if a library scenario fails to compile (a fixture bug), or if
/// the uncapped run never scaled out / never scaled back in — the bench
/// exists to certify exactly that behavior, so a flat series is a
/// regression, not a result.
pub fn run(opts: &ExpOptions) -> ElasticityResult {
    let scale = if opts.quick { 0.5 } else { 1.0 };
    let data = Arc::new(super::standard_dataset(64, opts.seed));

    let mut summaries = Vec::new();
    for name in ["cloud_surge", "budget_capped"] {
        let mut spec = scenario(name)
            .expect("library scenario exists")
            .with_horizon_scale(scale);
        spec.seed = opts.seed;
        let compiled = spec.compile().expect("library scenario must compile");
        summaries.push(compiled.run(&data));
    }

    // The bench's own acceptance: the uncapped pool surged and drained.
    let surge = &summaries[0].cloud;
    let first_nodes = surge.series.first().map_or(0, |s| s.nodes);
    assert!(
        surge.peak_nodes > first_nodes,
        "cloud_surge never scaled out: {surge:?}"
    );
    assert!(
        surge
            .series
            .last()
            .is_some_and(|s| s.ready < surge.peak_nodes),
        "cloud_surge never scaled back in: {surge:?}"
    );

    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                s.submitted.to_string(),
                s.completed.to_string(),
                s.cloud.peak_nodes.to_string(),
                s.cloud.final_ready.to_string(),
                s.cloud.nodes_booted.to_string(),
                s.cloud.nodes_retired.to_string(),
                f(s.cloud.cost_total, 2),
                f(s.mean_wait_secs, 1),
                f(s.max_wait_secs, 1),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "Scenario", "Tasks", "Done", "Peak", "Final", "Booted", "Retired", "Cost", "Wait (s)",
            "Max wait",
        ],
        &rows,
    );
    println!("Elasticity bench — autoscaled cloud tier under bursty logical-heavy load\n{table}");

    let result = ElasticityResult {
        seed: opts.seed,
        scenarios: summaries,
    };
    opts.write_json("BENCH_elasticity", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_elasticity_run_emits_the_scaling_story() {
        let out_dir = std::env::temp_dir().join(format!("simdc-elastic-{}", std::process::id()));
        let opts = ExpOptions {
            quick: true,
            seed: 5,
            out_dir: out_dir.clone(),
            fleet: None,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.scenarios.len(), 2);
        let surge = &result.scenarios[0];
        let capped = &result.scenarios[1];
        assert_eq!(surge.scenario, "cloud_surge");
        assert_eq!(capped.scenario, "budget_capped");
        // The cap binds where the uncapped run was free to grow.
        assert!(capped.cloud.peak_nodes <= 6, "{:?}", capped.cloud);
        assert!(!surge.cloud.series.is_empty());
        let json = std::fs::read_to_string(out_dir.join("BENCH_elasticity.json")).unwrap();
        assert!(json.contains("peak_nodes"));
        assert!(json.contains("\"series\""));
        // Summaries (series included) are deterministic per seed.
        let again = run(&opts);
        assert_eq!(result.scenarios, again.scenarios);
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
