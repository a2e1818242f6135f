//! Parameter-sweep runner — scenario matrices over the declarative spec
//! layer.
//!
//! Expands a [`SweepGrid`] (base [`ScenarioSpec`] × seeds × arrival-rate
//! scales) into one compiled run per cell, writing one
//! `SWEEP_<cell>.json` summary per cell plus the aggregate
//! `BENCH_sweep.json` manifest.

use std::sync::Arc;

use serde::Serialize;
use simdc_workload::{scenario, ScenarioSpec, ScenarioSummary};

use crate::{f, render_table, ExpOptions};

/// A parameter grid over one base spec: the cartesian product of every
/// axis, expanded by [`SweepGrid::cells`] in deterministic order
/// (seed-major, then rate scale).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Spec every cell derives from (its name and seed are overridden per
    /// cell).
    pub base: ScenarioSpec,
    /// Root-seed axis.
    pub seeds: Vec<u64>,
    /// Arrival-rate multipliers applied via
    /// [`ScenarioSpec::with_rate_scale`].
    pub rate_scales: Vec<f64>,
}

/// One expanded grid cell, ready to compile and run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Rate-scale-axis value this cell was expanded with.
    pub rate_scale: f64,
    /// Fully parameterized spec (seed and rates applied). Its `name`,
    /// `<base>_s<seed>_r<scale>` (e.g. `steady_poisson_s7_r0p50`), is the
    /// cell's artifact stem.
    pub spec: ScenarioSpec,
}

impl SweepGrid {
    /// Expands the grid into cells, seed-major then rate — the order is
    /// part of the artifact contract (it is the manifest's row order).
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &seed in &self.seeds {
            for &rate_scale in &self.rate_scales {
                let mut spec = self.base.clone().with_rate_scale(rate_scale);
                spec.name =
                    format!("{}_s{seed}_r{rate_scale:.2}", self.base.name).replace('.', "p");
                spec.seed = seed;
                cells.push(SweepCell { rate_scale, spec });
            }
        }
        cells
    }
}

/// One row of the aggregate `BENCH_sweep.json` manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellRecord {
    /// Cell artifact stem (also the `SWEEP_<cell>.json` file stem).
    pub cell: String,
    /// Seed-axis value.
    pub seed: u64,
    /// Rate-scale-axis value.
    pub rate_scale: f64,
    /// The cell's run summary.
    pub summary: ScenarioSummary,
}

/// Runs the default sweep: the steady-Poisson library scenario over
/// 2 seeds × 2 rate scales.
pub fn run(opts: &ExpOptions) -> Vec<CellRecord> {
    // Quick mode shrinks the horizon; the grid shape is fixed.
    let horizon_scale = if opts.quick { 0.2 } else { 1.0 };
    let base = scenario("steady_poisson")
        .expect("library scenario exists")
        .with_horizon_scale(horizon_scale);
    let grid = SweepGrid {
        base,
        seeds: vec![opts.seed, opts.seed + 1],
        rate_scales: vec![0.5, 1.0],
    };
    let data = Arc::new(super::standard_dataset(120, opts.seed));

    let mut records = Vec::new();
    for cell in grid.cells() {
        let summary = cell
            .spec
            .compile()
            .expect("sweep cells derive from a validated library scenario")
            .run(&data);
        opts.write_json(&format!("SWEEP_{}", cell.spec.name), &summary);
        records.push(CellRecord {
            cell: cell.spec.name,
            seed: cell.spec.seed,
            rate_scale: cell.rate_scale,
            summary,
        });
    }

    let table = render_table(
        &["Cell", "Seed", "Rate", "Tasks", "Done", "Wait (s)"],
        &records
            .iter()
            .map(|r| {
                vec![
                    r.cell.clone(),
                    r.seed.to_string(),
                    f(r.rate_scale, 2),
                    r.summary.submitted.to_string(),
                    r.summary.completed.to_string(),
                    f(r.summary.mean_wait_secs, 1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Scenario sweep — seed × rate grid over the spec layer\n{table}");
    opts.write_json("BENCH_sweep", &records);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_deterministic_and_complete() {
        let base = scenario("steady_poisson").unwrap();
        let grid = SweepGrid {
            base,
            seeds: vec![7, 8],
            rate_scales: vec![0.5, 1.0],
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].spec.name, "steady_poisson_s7_r0p50");
        assert_eq!(cells[3].spec.name, "steady_poisson_s8_r1p00");
        assert_eq!(cells, grid.cells(), "expansion is deterministic");
        for cell in &cells {
            cell.spec.validate().expect("expanded cells stay valid");
        }
    }

    #[test]
    fn quick_sweep_writes_one_artifact_per_cell_and_is_reproducible() {
        let out_dir = std::env::temp_dir().join(format!("simdc-sweep-{}", std::process::id()));
        let opts = ExpOptions {
            quick: true,
            seed: 7,
            out_dir: out_dir.clone(),
        };
        let first = run(&opts);
        assert_eq!(first.len(), 4, "2 seeds x 2 rates");
        let manifest = std::fs::read_to_string(out_dir.join("BENCH_sweep.json")).unwrap();
        for record in &first {
            assert!(out_dir.join(format!("SWEEP_{}.json", record.cell)).exists());
        }
        // Higher arrival rate never means fewer submissions per seed.
        assert!(first[1].summary.submitted >= first[0].summary.submitted);
        let second = run(&opts);
        let manifest_again = std::fs::read_to_string(out_dir.join("BENCH_sweep.json")).unwrap();
        assert_eq!(first, second);
        assert_eq!(manifest, manifest_again, "same seed must be byte-identical");
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
