//! Scenario suite — the workload library beyond the paper's fixed
//! experiments.
//!
//! Runs every scenario in [`simdc_workload::library()`] against a fresh
//! paper-default platform and reports per-scenario throughput, queueing,
//! fleet-perturbation and accuracy figures. The whole suite derives from
//! one seed: rerunning with the same seed writes byte-identical JSON
//! (the CI determinism gate `diff`s two runs), while a different seed
//! yields different task arrivals (`arrival_preview_secs`).

use std::sync::Arc;

use simdc_workload::{library, ScenarioSummary};

use crate::{f, render_table, ExpOptions};

/// Runs the scenario suite.
///
/// # Panics
///
/// Panics if a library scenario fails to compile (a bug in the committed
/// fixtures, not an input error).
pub fn run(opts: &ExpOptions) -> Vec<ScenarioSummary> {
    // Quick mode shrinks the arrival horizon; the scenario set is fixed.
    let scale = if opts.quick { 0.3 } else { 1.0 };
    let data = Arc::new(super::standard_dataset(120, opts.seed));

    let mut summaries = Vec::new();
    for spec in library() {
        let mut spec = spec.with_horizon_scale(scale);
        spec.seed = opts.seed;
        let compiled = spec.compile().expect("library scenario must compile");
        summaries.push(compiled.run(&data));
    }

    let table = render_table(
        &[
            "Scenario", "Tasks", "Done", "Fail", "Crash", "Wait (s)", "Run (s)", "Acc",
        ],
        &summaries
            .iter()
            .map(|s| {
                vec![
                    s.scenario.clone(),
                    s.submitted.to_string(),
                    s.completed.to_string(),
                    s.failed.to_string(),
                    s.crashes.to_string(),
                    f(s.mean_wait_secs, 1),
                    f(s.mean_run_secs, 1),
                    f(s.mean_final_accuracy, 3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Scenario suite — workload library over the paper-default platform\n{table}");
    opts.write_json("scenarios", &summaries);
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_covers_library_and_is_deterministic() {
        let out_dir = std::env::temp_dir().join(format!("simdc-scenarios-{}", std::process::id()));
        let opts = ExpOptions {
            quick: true,
            seed: 11,
            out_dir: out_dir.clone(),
        };
        let first = run(&opts);
        assert_eq!(first.len(), 8, "one summary per library scenario");
        for s in &first {
            assert_eq!(s.completed + s.failed, s.submitted, "{s:?}");
        }
        // At least one scenario must actually process work and one must
        // perturb the fleet, otherwise the suite stopped testing anything.
        assert!(first.iter().any(|s| s.completed > 0));
        assert!(first.iter().any(|s| s.crashes > 0));
        let first_json = std::fs::read_to_string(out_dir.join("scenarios.json")).unwrap();
        let second = run(&opts);
        let second_json = std::fs::read_to_string(out_dir.join("scenarios.json")).unwrap();
        assert_eq!(first, second);
        assert_eq!(first_json, second_json, "same seed must be byte-identical");
        // A different seed changes the sampled workload.
        let other = run(&ExpOptions {
            seed: 12,
            ..opts.clone()
        });
        assert_ne!(
            first
                .iter()
                .map(|s| &s.arrival_preview_secs)
                .collect::<Vec<_>>(),
            other
                .iter()
                .map(|s| &s.arrival_preview_secs)
                .collect::<Vec<_>>(),
        );
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
