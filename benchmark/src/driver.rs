//! The parent process: spawns one child per repetition, strictly one at a
//! time, checks every output, and folds the children's numbers into the
//! reported metrics.
//!
//! Every workload runs `threads = 1`, so the load never exceeds one busy
//! thread; a fresh process per repetition gives each one its own peak RSS
//! and CPU clock, and its own cold allocator.

use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use simdc_workload::ScenarioSummary;

use crate::registry::{per_layer, Workload, DEFAULT_SEED, END_TO_END, TRAFFIC_SHAPING, WORKLOADS};
use crate::rep::{ChildArgs, ChildReport, Mode};
use crate::stats::{median, Fnv64};

/// What the `run` subcommand was asked for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep starting repetitions for.
    pub seconds: f64,
    /// Shrunk workloads for smoke tests.
    pub quick: bool,
    /// File the last traced repetition writes its raw spans to.
    pub spans_out: Option<String>,
}

/// One reported metric: the repetitions folded into one value, with the
/// range, median and sample count behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sampled {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median sample.
    pub median: f64,
    /// Samples behind the value.
    pub samples: u64,
}

impl Sampled {
    fn of(name: &str, unit: &str, value: f64, samples: &[f64]) -> Self {
        Sampled {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            min: samples.iter().copied().reduce(f64::min).unwrap_or(value),
            max: samples.iter().copied().reduce(f64::max).unwrap_or(value),
            median: if samples.is_empty() {
                value
            } else {
                median(samples)
            },
            samples: samples.len() as u64,
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Whether every output check held.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// FNV-1a digest of the run's output.
    pub output_digest: String,
    /// The metrics: end-to-end ones of an untraced run, per-layer ones of a
    /// traced run.
    pub metrics: Vec<Sampled>,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    /// The result line the benchmark contract asks for: `correct`,
    /// `attempted`, `failed`, and `metrics` by name with value and unit.
    #[must_use]
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::String(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("value serialization is infallible")
    }

    /// The human-readable report: one line per metric.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{}: {} (failed_share {share} = {} failed / {} attempted, output {})",
            self.workload,
            if self.correct { "correct" } else { "INCORRECT" },
            self.failed,
            self.attempted,
            self.output_digest,
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.6} {:<6} (min {:.6}, median {:.6}, max {:.6}, n {})",
                m.name, m.value, m.unit, m.min, m.median, m.max, m.samples
            );
        }
        for problem in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {problem}");
        }
        out
    }
}

fn spawn_child(workload: &Workload, args: &ChildArgs) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mode = match args.mode {
        Mode::Plain => "plain",
        Mode::Traced => "traced",
        Mode::Probes => "probes",
    };
    let mut command = Command::new(exe);
    command
        .args(["child", mode, "--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--threads", &args.threads.to_string()])
        .args(["--peak-nodes", &args.peak_nodes.to_string()]);
    if args.quick {
        command.arg("--quick");
    }
    if let Some(path) = &args.spans_out {
        command.args(["--spans-out", path]);
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{mode} child of {} exited with {}: {}",
            workload.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| format!("child output: {e}"))?;
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("child report: {e}"))
}

/// Folds the output checks of a set of repetitions into `problems`:
/// each child's own checks, byte-equality among repetitions, and — at the
/// default seed and full size — byte-equality with the committed output.
fn check_outputs(
    workload: &Workload,
    opts: &RunOptions,
    reports: &[(&str, &ChildReport)],
    problems: &mut Vec<String>,
) {
    let Some((_, first)) = reports.first() else {
        return;
    };
    for (label, report) in reports {
        for problem in &report.problems {
            problems.push(format!("{label}: {problem}"));
        }
        if report.summary != first.summary {
            problems.push(format!(
                "{label}: output differs from the first repetition's"
            ));
        }
    }
    if opts.seed == DEFAULT_SEED && !opts.quick && first.summary != workload.expected.trim_end() {
        problems.push(format!(
            "output differs from the one committed under benchmark/expected/ for {}",
            workload.name
        ));
    }
}

fn digest(text: &str) -> String {
    let mut digest = Fnv64::default();
    digest.write(text.as_bytes());
    digest.hex()
}

/// Runs the end-to-end measurement of one workload: untraced repetitions
/// until `opts.seconds` have passed, each in its own process.
///
/// # Errors
///
/// Returns a message when a child cannot run; failed output checks make
/// the result incorrect instead.
pub fn run_end_to_end(workload: &Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let args = ChildArgs {
        mode: Mode::Plain,
        seed: opts.seed,
        threads: 1,
        quick: opts.quick,
        peak_nodes: 0,
        spans_out: None,
    };
    let started = Instant::now();
    let mut reports = Vec::new();
    loop {
        reports.push(spawn_child(workload, &args)?);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut problems = Vec::new();
    let labelled: Vec<(&str, &ChildReport)> = reports.iter().map(|r| ("rep", r)).collect();
    check_outputs(workload, opts, &labelled, &mut problems);

    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let samples: Vec<f64> = reports.iter().map(m.sample).collect();
            Sampled::of(m.name, m.unit, m.fold.apply(m.better, &samples), &samples)
        })
        .collect();

    Ok(WorkloadResult {
        workload: workload.name.to_string(),
        correct: problems.is_empty(),
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        output_digest: digest(&reports[0].summary),
        metrics,
        problems,
    })
}

/// Runs the traced measurement of one workload: pairs of an untraced and a
/// traced repetition until `opts.seconds` have passed (the difference of
/// the fastest of each is the tracing overhead), then one repetition at
/// `threads = 2` and the component probes. Every output must equal the
/// untraced one byte for byte.
///
/// # Errors
///
/// Returns a message when a child cannot run.
pub fn run_traced(workload: &Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let args = |mode, threads, peak_nodes, spans_out| ChildArgs {
        mode,
        seed: opts.seed,
        threads,
        quick: opts.quick,
        peak_nodes,
        spans_out,
    };
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        plain.push(spawn_child(workload, &args(Mode::Plain, 1, 0, None))?);
        let spans_out = opts.spans_out.clone();
        traced.push(spawn_child(workload, &args(Mode::Traced, 1, 0, spans_out))?);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut labelled: Vec<(&str, &ChildReport)> = plain.iter().map(|r| ("rep", r)).collect();
    labelled.extend(traced.iter().map(|r| ("traced rep", r)));

    // Per-layer values are those of the fastest traced repetition, one
    // coherent run whose self times add up, with every repetition's value
    // kept as the sample range. The rest come from the pairing, the
    // two-thread repetition and the probes.
    let fastest = |reports: &[ChildReport]| {
        reports
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::INFINITY, f64::min)
    };
    let (plain_wall, traced_wall) = (fastest(&plain), fastest(&traced));
    let best = traced
        .iter()
        .position(|r| r.wall_s == traced_wall)
        .expect("at least one traced repetition");
    let mut values: Vec<(String, f64, Vec<f64>)> = Vec::new();
    for (name, value) in &traced[best].layer {
        let samples = traced
            .iter()
            .filter_map(|r| r.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        values.push((name.clone(), *value, samples));
    }
    let mut single = |name: &str, value: f64| values.push((name.to_string(), value, vec![value]));
    single("trace.wall_s", traced_wall);
    single(
        "trace.overhead_share",
        (traced_wall - plain_wall) / plain_wall,
    );

    let two_threads;
    if workload.name != TRAFFIC_SHAPING {
        two_threads = spawn_child(workload, &args(Mode::Plain, 2, 0, None))?;
        labelled.push(("threads=2 rep", &two_threads));
        let one_thread = plain
            .iter()
            .map(|r| r.platform_new_s)
            .fold(f64::INFINITY, f64::min);
        single(
            "core.platform_new.t2_ratio",
            two_threads.platform_new_s / one_thread,
        );
        let summary: ScenarioSummary = serde_json::from_str(&plain[0].summary)
            .map_err(|e| format!("summary of {}: {e}", workload.name))?;
        let peak_nodes = summary.cloud.peak_nodes as usize;
        let probes = spawn_child(workload, &args(Mode::Probes, 1, peak_nodes, None))?;
        for (name, value) in &probes.layer {
            single(name, *value);
        }
    }

    let mut problems = Vec::new();
    check_outputs(workload, opts, &labelled, &mut problems);

    let metrics = per_layer()
        .iter()
        .map(|m| match values.iter().find(|(n, _, _)| *n == m.name) {
            Some((_, value, samples)) => Sampled::of(&m.name, m.unit, *value, samples),
            // A span that cannot fire on this workload, or a probe that
            // does not apply to it.
            None => Sampled::of(&m.name, m.unit, 0.0, &[]),
        })
        .collect();
    Ok(WorkloadResult {
        workload: workload.name.to_string(),
        correct: problems.is_empty(),
        attempted: labelled.iter().map(|(_, r)| r.attempted).sum(),
        failed: labelled.iter().map(|(_, r)| r.failed).sum(),
        output_digest: digest(&plain[0].summary),
        metrics,
        problems,
    })
}

/// A complete set of runs, as `run --out` writes it and `compare` reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Workload seed of every run.
    pub seed: u64,
    /// Seconds each run kept starting repetitions for.
    pub seconds: f64,
    /// CPUs the host exposes; read every thread-dependent number against it.
    pub host_cpus: u64,
    /// Untraced runs, one per workload.
    pub end_to_end: Vec<WorkloadResult>,
    /// Traced runs, one per workload.
    pub per_layer: Vec<WorkloadResult>,
}

/// CPUs the host exposes.
#[must_use]
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Runs every workload, untraced then traced, printing each report as it
/// completes.
///
/// # Errors
///
/// Returns a message when a child cannot run.
pub fn run_all(opts: &RunOptions) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        seed: opts.seed,
        seconds: opts.seconds,
        host_cpus: host_cpus(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    println!("host_cpus {}, seed {}", set.host_cpus, set.seed);
    for workload in &WORKLOADS {
        let result = run_end_to_end(workload, opts)?;
        print!("{}", result.table());
        set.end_to_end.push(result);
        let result = run_traced(workload, opts)?;
        print!("{}", result.table());
        set.per_layer.push(result);
    }
    Ok(set)
}
