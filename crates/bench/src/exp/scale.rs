//! Scale bench — the `mega_fleet` scenario against its 100k-phone fleet,
//! swept over a worker-thread axis.
//!
//! This is the experiment that *measures* (rather than asserts) the two
//! per-fleet-size optimizations in the platform core: the grade-indexed
//! availability accounting in `PhoneMgr` (per-task cost O(k log F)
//! instead of a fleet rescan) and the sharded execution path (parallel
//! fleet construction plus batched plan-phase dispatch behind
//! `PlatformConfig::threads`). It drives the `mega_fleet` library
//! scenario — superposed bursty arrivals of phone-heavy tasks, light
//! churn, a straggler tail — over a fleet scaled with
//! [`FleetSpec::scaled_paper`], once per thread count, and reports
//! wall-clock throughput per point: simulation events per second,
//! completed tasks per second, the virtual-time speedup, and the
//! wall-clock speedup relative to the sequential run.
//!
//! Every point of the sweep must produce **byte-identical** summary JSON
//! — the deterministic-merge contract — and this bench hard-asserts it
//! (that's the CI byte-equality diff for `--threads 1` vs `--threads 4`:
//! both points run here, in release and in debug with assertions armed).
//! `host_cpus` is recorded next to the curve so a flat speedup on a
//! 1-CPU runner reads as what it is, not as a regression.
//!
//! The default fleet is the scenario's own 100,000 phones (`--fleet N`
//! overrides, up to the ROADMAP's million); `--quick` drops to a
//! 2,000-phone smoke size with a shortened horizon. `--threads N` raises
//! the top of the thread axis (default 4); the axis is the powers of two
//! up to and including N.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use simdc_phone::FleetSpec;
use simdc_workload::{scenario, ScenarioSpec, ScenarioSummary};

use crate::{f, render_table, ExpOptions};

/// Fleet size of `--quick` smoke runs.
pub const QUICK_FLEET: usize = 2_000;
/// Default top of the worker-thread axis (`--threads N` overrides).
pub const DEFAULT_MAX_THREADS: usize = 4;

/// Wall-clock throughput figures (not seed-deterministic).
#[derive(Debug, Clone, Serialize)]
pub struct ScaleTiming {
    /// End-to-end wall time of the scenario run, including fleet
    /// construction, seconds.
    pub wall_secs: f64,
    /// Simulation events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Tasks completed per wall-clock second.
    pub tasks_per_sec: f64,
    /// Virtual seconds simulated per wall-clock second.
    pub virtual_per_wall: f64,
}

/// One point of the thread sweep: a full scenario run at `threads`
/// workers, with its wall-clock timing and its speedup relative to the
/// sequential point.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadPoint {
    /// Worker threads (`1` = the classic sequential path).
    pub threads: usize,
    /// Wall-clock throughput of this run.
    pub timing: ScaleTiming,
    /// `wall_secs(threads=1) / wall_secs(this)` — > 1 means faster. On a
    /// host with fewer CPUs than `threads` this hovers near (or below)
    /// 1.0; read it against `host_cpus`.
    pub speedup: f64,
}

/// The `BENCH_scale.json` payload: a deterministic scenario summary, the
/// host's parallelism, and the wall-clock speedup curve measured over the
/// thread axis.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleResult {
    /// Phones in the simulated fleet.
    pub fleet_size: usize,
    /// CPUs the host exposes — the honest denominator of `speedup`.
    pub host_cpus: usize,
    /// Seed-deterministic scenario outcome (same seed ⇒ byte-identical;
    /// asserted equal across every point of the sweep).
    pub summary: ScenarioSummary,
    /// The speedup curve, one point per thread count, ascending.
    pub sweep: Vec<ThreadPoint>,
}

fn run_once(
    spec: &ScenarioSpec,
    threads: usize,
    data: &Arc<simdc_data::CtrDataset>,
) -> (ScenarioSummary, ScaleTiming) {
    let mut spec = spec.clone();
    spec.threads = threads;
    let compiled = spec.compile().expect("mega_fleet must compile");
    // Wall-clock throughput is this bench's product (clippy.toml bans
    // `Instant::now` in simulation code; `crates/bench` is harness).
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let summary = compiled.run(data);
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let timing = ScaleTiming {
        wall_secs,
        events_per_sec: summary.events as f64 / wall_secs,
        tasks_per_sec: summary.completed as f64 / wall_secs,
        virtual_per_wall: summary.makespan_secs / wall_secs,
    };
    (summary, timing)
}

/// The thread axis: powers of two up to and including `max`.
fn thread_axis(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut axis = vec![1];
    let mut t = 2;
    while t < max {
        axis.push(t);
        t *= 2;
    }
    if max > 1 {
        axis.push(max);
    }
    axis
}

/// Runs the scale bench — one scenario run per thread count — and writes
/// `BENCH_scale.json`.
///
/// # Panics
///
/// Panics if the `mega_fleet` scenario fails to compile (a fixture bug),
/// or if any threaded run's summary differs byte-for-byte from the
/// sequential run's — the deterministic-merge contract.
pub fn run(opts: &ExpOptions) -> ScaleResult {
    let mut spec = scenario("mega_fleet").expect("library scenario exists");
    spec.seed = opts.seed;
    if opts.quick {
        spec = spec.with_horizon_scale(0.1);
        spec.fleet = FleetSpec::scaled_paper(QUICK_FLEET);
    }
    if let Some(fleet_size) = opts.fleet {
        spec.fleet = FleetSpec::scaled_paper(fleet_size);
    }
    let fleet_size = spec.fleet.total();
    let data = Arc::new(super::standard_dataset(64, opts.seed));
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let axis = thread_axis(opts.threads.unwrap_or(DEFAULT_MAX_THREADS));
    let mut sweep: Vec<ThreadPoint> = Vec::with_capacity(axis.len());
    let mut summary: Option<ScenarioSummary> = None;
    let mut sequential_json = String::new();
    let mut sequential_wall = 0.0f64;
    for &threads in &axis {
        let (run_summary, timing) = run_once(&spec, threads, &data);
        let json = serde_json::to_string(&run_summary).expect("summary serializes");
        if let Some(_first) = &summary {
            assert_eq!(
                json, sequential_json,
                "threads={threads} changed the scenario bytes — deterministic merge broken"
            );
        } else {
            sequential_json = json;
            sequential_wall = timing.wall_secs;
            summary = Some(run_summary);
        }
        sweep.push(ThreadPoint {
            threads,
            speedup: sequential_wall / timing.wall_secs.max(1e-9),
            timing,
        });
    }
    let summary = summary.expect("axis is never empty");

    let result = ScaleResult {
        fleet_size,
        host_cpus,
        summary,
        sweep,
    };

    let rows: Vec<Vec<String>> = result
        .sweep
        .iter()
        .map(|p| {
            vec![
                result.fleet_size.to_string(),
                p.threads.to_string(),
                result.summary.submitted.to_string(),
                result.summary.completed.to_string(),
                result.summary.events.to_string(),
                f(p.timing.wall_secs, 2),
                f(p.timing.events_per_sec, 1),
                f(p.speedup, 2),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "Fleet", "Threads", "Tasks", "Done", "Events", "Wall (s)", "Events/s", "Speedup",
        ],
        &rows,
    );
    println!(
        "Scale bench — mega_fleet over a grade-indexed {fleet_size}-phone fleet \
         (host: {host_cpus} CPUs; summaries byte-identical across the sweep)\n{table}"
    );
    opts.write_json("BENCH_scale", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_axis_is_powers_of_two_capped_at_max() {
        assert_eq!(thread_axis(1), vec![1]);
        assert_eq!(thread_axis(2), vec![1, 2]);
        assert_eq!(thread_axis(4), vec![1, 2, 4]);
        assert_eq!(thread_axis(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_axis(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_axis(0), vec![1]);
    }

    #[test]
    fn quick_scale_run_sweeps_threads_over_thousands_of_phones() {
        let out_dir = std::env::temp_dir().join(format!("simdc-scale-{}", std::process::id()));
        let opts = ExpOptions {
            quick: true,
            seed: 11,
            out_dir: out_dir.clone(),
            fleet: Some(1_200),
            threads: Some(2),
        };
        let result = run(&opts);
        assert_eq!(result.fleet_size, 1_200);
        assert!(result.host_cpus >= 1);
        assert!(result.summary.submitted > 0, "{result:?}");
        assert!(result.summary.completed > 0, "{result:?}");
        // One point per thread count, sequential first, speedup defined
        // relative to it. (`run` itself asserts byte-equality.)
        assert_eq!(
            result.sweep.iter().map(|p| p.threads).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!((result.sweep[0].speedup - 1.0).abs() < 1e-9);
        assert!(result.sweep.iter().all(|p| p.timing.events_per_sec > 0.0));
        assert!(result.sweep[0].timing.virtual_per_wall > 1.0, "{result:?}");
        let json = std::fs::read_to_string(out_dir.join("BENCH_scale.json")).unwrap();
        assert!(json.contains("host_cpus"));
        assert!(json.contains("speedup"));
        // The scenario summary (not the wall timing) is deterministic.
        let again = run(&opts);
        assert_eq!(result.summary, again.summary);
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
