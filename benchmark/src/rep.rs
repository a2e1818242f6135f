//! What one child process does: set up a workload, run it once (plain or
//! traced) or probe its layers, check the output, and report one JSON line.
//!
//! The plain scenario path is the end-to-end path and uses the narrowest
//! public surface there is, so that refactors behind it cannot break the
//! benchmark: `ScenarioSpec::from_json_str` → `compile` →
//! `CompiledScenario::run_detailed` → `serde_json::to_string`, plus
//! `CtrDataset::generate` and `Platform::new` for set-up and
//! `Platform::invariant_violations` for the check.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use simdc_core::Platform;
use simdc_data::CtrDataset;
use simdc_workload::{CompiledScenario, ScenarioSummary};

use crate::layers::{self, ENGINE_SPAN, ROOT_SPAN};
use crate::registry::{Workload, LOOP_FIELDS, LOOP_SPANS, ONE_SHOT_SPANS, TRAFFIC_SHAPING};
use crate::spans::{aggregate, span_if, to_json_lines, Span, SpanStats, Tracer};
use crate::workload::{load_scenario, load_traffic};
use crate::{probes, procfs, traffic};

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One untraced run: the end-to-end measurement.
    Plain,
    /// One run with spans around every call into a layer.
    Traced,
    /// The component probes.
    Probes,
}

/// A child's arguments.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// What to do.
    pub mode: Mode,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads of the platform under test.
    pub threads: usize,
    /// Shrunk workload for smoke tests.
    pub quick: bool,
    /// Pool size the probes place against (from an earlier run's summary).
    pub peak_nodes: usize,
    /// File the traced child writes its raw spans to.
    pub spans_out: Option<String>,
}

/// The one JSON line a child prints.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChildReport {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// The throw-away `Platform::new` inside set-up, seconds.
    pub platform_new_s: f64,
    /// Wall time of the run plus output serialization, seconds.
    pub wall_s: f64,
    /// Events the run processed (messages for `traffic_shaping`).
    pub events: u64,
    /// Operations attempted: task arrivals, or messages ingested.
    pub attempted: u64,
    /// Operations failed: tasks rejected or failed, or messages lost.
    pub failed: u64,
    /// `VmHWM` of this process at exit, MiB.
    pub peak_rss_mb: f64,
    /// User CPU time of this process at exit, seconds.
    pub user_cpu_s: f64,
    /// Output checks that did not hold, in words.
    pub problems: Vec<String>,
    /// The run's output, byte for byte what the expected file pins.
    pub summary: String,
    /// Per-layer metrics this child measured.
    pub layer: Vec<(String, f64)>,
}

/// Runs the child named by `args` on `workload`.
///
/// # Errors
///
/// Returns a message when the workload cannot be loaded or the kernel's
/// process accounting cannot be read; a failed output check is reported in
/// [`ChildReport::problems`], not as an error.
pub fn run_child(workload: &Workload, args: &ChildArgs) -> Result<ChildReport, String> {
    let mut report = if workload.name == TRAFFIC_SHAPING {
        traffic_child(workload, args)?
    } else {
        scenario_child(workload, args)?
    };
    report.peak_rss_mb = procfs::peak_rss_mib()?;
    report.user_cpu_s = procfs::user_cpu_secs()?;
    Ok(report)
}

/// A scenario workload ready to run, and what getting there cost.
struct SetUp {
    compiled: CompiledScenario,
    dataset: Arc<CtrDataset>,
    setup_s: f64,
    platform_new_s: f64,
}

/// Set-up as `setup_s` defines it, with spans when traced: workload-file
/// parse + compile, dataset generation, one throw-away platform.
fn set_up(
    workload: &Workload,
    args: &ChildArgs,
    mut tracer: Option<&mut Tracer>,
) -> Result<SetUp, String> {
    let started = Instant::now();
    let loaded = span_if(tracer.as_deref_mut(), "workload.spec_load", || {
        load_scenario(workload, args.seed, args.threads, args.quick)
    })?;
    let dataset = span_if(tracer, "data.generate", || {
        loaded.dataset.generate(args.seed)
    });
    let mut config = loaded.compiled.config.clone();
    if let Some(cluster) = &loaded.compiled.scenario.cluster {
        config.cluster = cluster.clone();
    }
    let platform_started = Instant::now();
    drop(Platform::new(config));
    let platform_new_s = platform_started.elapsed().as_secs_f64();
    Ok(SetUp {
        compiled: loaded.compiled,
        dataset,
        setup_s: started.elapsed().as_secs_f64(),
        platform_new_s,
    })
}

/// Checks that hold for every seed: nothing lost, nothing left over, and
/// every platform invariant oracle quiet.
fn scenario_problems(summary: &ScenarioSummary, platform: &Platform) -> Vec<String> {
    let mut problems: Vec<String> = platform
        .invariant_violations()
        .iter()
        .map(|v| format!("invariant violated: {v}"))
        .collect();
    if summary.submitted + summary.rejected != summary.arrivals {
        problems.push(format!(
            "{} submitted + {} rejected != {} arrivals",
            summary.submitted, summary.rejected, summary.arrivals
        ));
    }
    if summary.completed + summary.failed != summary.submitted {
        problems.push(format!(
            "{} completed + {} failed != {} submitted",
            summary.completed, summary.failed, summary.submitted
        ));
    }
    if summary.reboots > summary.crashes {
        problems.push(format!(
            "{} reboots exceed {} crashes",
            summary.reboots, summary.crashes
        ));
    }
    problems
}

fn scenario_child(workload: &Workload, args: &ChildArgs) -> Result<ChildReport, String> {
    let mut setup_tracer = (args.mode == Mode::Traced).then(|| Tracer::with_capacity(2));
    let SetUp {
        compiled,
        dataset,
        setup_s,
        platform_new_s,
    } = set_up(workload, args, setup_tracer.as_mut())?;
    let mut report = ChildReport {
        setup_s,
        platform_new_s,
        ..ChildReport::default()
    };
    let (summary, platform) = match args.mode {
        Mode::Probes => {
            report.layer = probes::run(&compiled, &dataset, args.peak_nodes)?;
            return Ok(report);
        }
        Mode::Plain => {
            let started = Instant::now();
            let (summary, platform) = compiled.run_detailed(&dataset);
            report.summary = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
            report.wall_s = started.elapsed().as_secs_f64();
            (summary, platform)
        }
        Mode::Traced => {
            let setup_spans = setup_tracer
                .expect("traced mode records its set-up")
                .finish();
            let run_tracer = Tracer::with_capacity(layers::span_capacity(&compiled));
            let run = layers::run_traced(&compiled, &dataset, run_tracer);
            report.wall_s = run.spans[0].duration_ns() as f64 / 1e9;
            report.layer = scenario_layer_metrics(&setup_spans, &run);
            if let Some(path) = &args.spans_out {
                std::fs::write(path, to_json_lines(&run.spans))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            report.summary = run.summary_json;
            (run.summary, run.platform)
        }
    };
    report.problems = scenario_problems(&summary, &platform);
    report.events = summary.events;
    report.attempted = summary.arrivals;
    report.failed = summary.rejected + summary.failed;
    Ok(report)
}

/// The per-layer metrics a traced scenario run yields. Spans that never
/// fired report zero.
fn scenario_layer_metrics(setup_spans: &[Span], run: &layers::TracedRun) -> Vec<(String, f64)> {
    let mut stats = aggregate(&run.spans);
    stats.extend(aggregate(setup_spans));
    let mut out = span_metrics(&stats);
    out.push(("core.admit_now.admitted".into(), run.admits.admitted as f64));
    out.push((
        "core.admit_now.admitted_max".into(),
        run.admits.admitted_max as f64,
    ));
    out.push((
        "core.admit_now.passes_ge2".into(),
        run.admits.passes_ge2 as f64,
    ));
    out.push((
        "workload.summarize.bytes".into(),
        run.summary_json.len() as f64,
    ));
    let engine_self_ns = stats.get(ENGINE_SPAN).map_or(0, |s| s.self_ns) as f64;
    out.push(("simrt.engine_self.busy_s".into(), engine_self_ns / 1e9));
    out.push((
        "simrt.engine_self.ns_per_event".into(),
        engine_self_ns / run.outer_events.max(1) as f64,
    ));
    let root = &stats[ROOT_SPAN];
    out.push((
        "trace.root_self_share".into(),
        root.self_ns as f64 / root.busy_ns.max(1) as f64,
    ));
    out.push(("trace.spans".into(), run.spans.len() as f64));
    out
}

/// `<span>.busy_s` for one-shot spans and the five loop fields for loop
/// spans, zero where a span never fired or a percentile lacks samples.
fn span_metrics(stats: &std::collections::BTreeMap<&'static str, SpanStats>) -> Vec<(String, f64)> {
    let empty = SpanStats::default();
    let mut out = Vec::new();
    for (span, _) in ONE_SHOT_SPANS {
        let s = stats.get(span).unwrap_or(&empty);
        out.push((format!("{span}.busy_s"), s.busy_ns as f64 / 1e9));
    }
    for (span, _) in LOOP_SPANS {
        let s = stats.get(span).unwrap_or(&empty);
        for (field, _) in LOOP_FIELDS {
            let value = match field {
                "count" => s.count as f64,
                "busy_s" => s.busy_ns as f64 / 1e9,
                "p50_us" => s.p50_ns.map_or(0.0, |ns| ns as f64 / 1e3),
                "p99_us" => s.p99_ns.map_or(0.0, |ns| ns as f64 / 1e3),
                "growth" => s.growth.unwrap_or(0.0),
                other => unreachable!("loop span field {other} has no value"),
            };
            out.push((format!("{span}.{field}"), value));
        }
    }
    out
}

fn traffic_child(workload: &Workload, args: &ChildArgs) -> Result<ChildReport, String> {
    let started = Instant::now();
    let file = load_traffic(workload, args.quick)?;
    let mut report = ChildReport {
        setup_s: started.elapsed().as_secs_f64(),
        ..ChildReport::default()
    };
    if args.mode == Mode::Probes {
        return Ok(report);
    }
    let mut tracer =
        (args.mode == Mode::Traced).then(|| Tracer::with_capacity(2 * file.phases.len()));
    let started = Instant::now();
    let outcomes = traffic::run_phases(&file, args.seed, tracer.as_mut())?;
    report.summary = serde_json::to_string(&outcomes).map_err(|e| e.to_string())?;
    report.wall_s = started.elapsed().as_secs_f64();
    report.problems = traffic::problems(&file, &outcomes);
    report.attempted = file.messages * file.phases.len() as u64;
    report.events = report.attempted;
    report.failed = outcomes
        .iter()
        .map(traffic::PhaseOutcome::unaccounted)
        .sum();
    if let Some(tracer) = tracer {
        let spans = tracer.finish();
        let stats = aggregate(&spans);
        let busy_s = |name: &str| stats.get(name).map_or(0, |s| s.busy_ns) as f64 / 1e9;
        let (ingest_s, run_s) = (busy_s("deviceflow.ingest"), busy_s("deviceflow.run"));
        let batches: u64 = outcomes.iter().map(|o| o.batches).sum();
        let messages = report.attempted as f64;
        report.layer = vec![
            ("deviceflow.ingest.busy_s".into(), ingest_s),
            ("deviceflow.ingest.msgs_per_s".into(), messages / ingest_s),
            ("deviceflow.run.busy_s".into(), run_s),
            ("deviceflow.run.msgs_per_s".into(), messages / run_s),
            ("deviceflow.run.batches".into(), batches as f64),
            // Harness construction, drop and the digest: what no span covers.
            (
                "trace.root_self_share".into(),
                (report.wall_s - ingest_s - run_s) / report.wall_s,
            ),
            ("trace.spans".into(), spans.len() as f64),
        ];
        if let Some(path) = &args.spans_out {
            std::fs::write(path, to_json_lines(&spans)).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(report)
}
