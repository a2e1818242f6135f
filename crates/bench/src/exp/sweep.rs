//! Parameter-sweep runner — scenario matrices over the declarative spec
//! layer.
//!
//! Expands a [`SweepGrid`] (base [`ScenarioSpec`] × seeds × arrival-rate
//! scales × thread counts) into one compiled run per cell, writing one
//! `SWEEP_<cell>.json` summary per cell plus the aggregate
//! `BENCH_sweep.json` manifest CI archives and `diff`s across two runs.
//! The thread axis is a built-in determinism gate: summaries within a
//! (seed, rate-scale) group must be byte-identical across thread counts,
//! and the runner panics if they are not.

use std::sync::Arc;

use serde::Serialize;
use simdc_workload::{scenario, ScenarioSpec, ScenarioSummary};

use crate::{f, render_table, ExpOptions};

/// A parameter grid over one base spec: the cartesian product of every
/// axis, expanded by [`SweepGrid::cells`] in deterministic order
/// (seed-major, then rate scale, then threads).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Spec every cell derives from (its seed/threads fields are
    /// overridden per cell).
    pub base: ScenarioSpec,
    /// Root-seed axis.
    pub seeds: Vec<u64>,
    /// Arrival-rate multipliers applied via
    /// [`ScenarioSpec::with_rate_scale`].
    pub rate_scales: Vec<f64>,
    /// Worker-thread axis — never changes summaries, only wall-clock.
    pub threads: Vec<usize>,
}

/// One expanded grid cell, ready to compile and run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Artifact stem: `<base>_s<seed>_r<scale>_t<threads>`.
    pub name: String,
    /// Rate-scale-axis value this cell was expanded with.
    pub rate_scale: f64,
    /// Fully parameterized spec (seed, rates and threads applied). Its
    /// `name` excludes the thread suffix, so summaries stay byte-equal
    /// across the thread axis.
    pub spec: ScenarioSpec,
}

/// Thread-axis-free cell tag, e.g. `steady_poisson_s7_r0p50`.
fn group_name(base: &str, seed: u64, rate_scale: f64) -> String {
    format!("{base}_s{seed}_r{:.2}", rate_scale).replace('.', "p")
}

impl SweepGrid {
    /// Expands the grid into cells, seed-major then rate then threads —
    /// the order is part of the artifact contract (CI diffs the
    /// aggregate manifest across runs).
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &seed in &self.seeds {
            for &rate_scale in &self.rate_scales {
                let group = group_name(&self.base.name, seed, rate_scale);
                for &threads in &self.threads {
                    let mut spec = self.base.clone().with_rate_scale(rate_scale);
                    spec.name = group.clone();
                    spec.seed = seed;
                    spec.threads = threads;
                    cells.push(SweepCell {
                        name: format!("{group}_t{threads}"),
                        rate_scale,
                        spec,
                    });
                }
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
    /// Thread-axis value.
    pub threads: usize,
    /// The cell's run summary.
    pub summary: ScenarioSummary,
}

/// Runs the default sweep: the steady-Poisson library scenario over
/// 2 seeds × 2 rate scales × {1, 4} threads.
///
/// # Panics
///
/// Panics if any (seed, rate-scale) group is not byte-identical across
/// the thread axis — that would be a determinism regression, and the
/// sweep doubles as its gate.
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
        threads: vec![1, 4],
    };
    let data = Arc::new(super::standard_dataset(120, opts.seed));

    let mut records = Vec::new();
    for cell in grid.cells() {
        let summary = cell
            .spec
            .compile()
            .expect("sweep cells derive from a validated library scenario")
            .run(&data);
        opts.write_json(&format!("SWEEP_{}", cell.name), &summary);
        records.push(CellRecord {
            cell: cell.name,
            seed: cell.spec.seed,
            rate_scale: cell.rate_scale,
            threads: cell.spec.threads,
            summary,
        });
    }

    // Thread-axis determinism gate: within a (seed, rate) group every
    // summary must serialize to the same bytes.
    for chunk in records.chunks(grid.threads.len()) {
        let first = serde_json::to_string(&chunk[0].summary).expect("serialize summary");
        for other in &chunk[1..] {
            assert_eq!(
                first,
                serde_json::to_string(&other.summary).expect("serialize summary"),
                "thread axis changed results in sweep group {}",
                chunk[0].summary.scenario
            );
        }
    }

    let table = render_table(
        &["Cell", "Seed", "Rate", "Thr", "Tasks", "Done", "Wait (s)"],
        &records
            .iter()
            .map(|r| {
                vec![
                    r.cell.clone(),
                    r.seed.to_string(),
                    f(r.rate_scale, 2),
                    r.threads.to_string(),
                    r.summary.submitted.to_string(),
                    r.summary.completed.to_string(),
                    f(r.summary.mean_wait_secs, 1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Scenario sweep — seed × rate × thread grid over the spec layer\n{table}");
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
            threads: vec![1, 4],
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].name, "steady_poisson_s7_r0p50_t1");
        assert_eq!(cells[7].name, "steady_poisson_s8_r1p00_t4");
        // The thread suffix stays out of the spec name, so thread-axis
        // runs produce byte-identical summaries.
        assert_eq!(cells[0].spec.name, cells[1].spec.name);
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
            ..ExpOptions::default()
        };
        let first = run(&opts);
        assert_eq!(first.len(), 8, "2 seeds x 2 rates x 2 thread counts");
        let manifest = std::fs::read_to_string(out_dir.join("BENCH_sweep.json")).unwrap();
        for record in &first {
            assert!(out_dir.join(format!("SWEEP_{}.json", record.cell)).exists());
        }
        // Higher arrival rate never means fewer submissions per seed.
        assert!(first[2].summary.submitted >= first[0].summary.submitted);
        let second = run(&opts);
        let manifest_again = std::fs::read_to_string(out_dir.join("BENCH_sweep.json")).unwrap();
        assert_eq!(first, second);
        assert_eq!(manifest, manifest_again, "same seed must be byte-identical");
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
