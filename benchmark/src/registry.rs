//! The benchmark's vocabulary: every workload and every metric by name,
//! with its unit, direction, regression bound, layer and the end-to-end
//! metric it is expected to move. `BENCHMARK.json` at the repository root is
//! this registry written out (`simdc-benchmark manifest`); a test keeps the
//! two equal.

use serde_json::Value;

use crate::rep::ChildReport;

/// Seed the committed expected outputs were recorded at.
pub const DEFAULT_SEED: u64 = 1_370_341_598;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The workload file, embedded so the binary needs no file at run time.
    pub file: &'static str,
    /// Expected output at [`DEFAULT_SEED`]: the summary JSON of a scenario
    /// workload, the phase table of `traffic_shaping`.
    pub expected: &'static str,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "dense_flow",
        file: include_str!("../workloads/dense_flow.json"),
        expected: include_str!("../expected/dense_flow.summary.json"),
    },
    Workload {
        name: "backlog",
        file: include_str!("../workloads/backlog.json"),
        expected: include_str!("../expected/backlog.summary.json"),
    },
    Workload {
        name: "cloud_elastic",
        file: include_str!("../workloads/cloud_elastic.json"),
        expected: include_str!("../expected/cloud_elastic.summary.json"),
    },
    Workload {
        name: "fleet_1m",
        file: include_str!("../workloads/fleet_1m.json"),
        expected: include_str!("../expected/fleet_1m.summary.json"),
    },
    Workload {
        name: "churn_storm",
        file: include_str!("../workloads/churn_storm.json"),
        expected: include_str!("../expected/churn_storm.summary.json"),
    },
    Workload {
        name: "traffic_shaping",
        file: include_str!("../workloads/traffic_shaping.json"),
        expected: include_str!("../expected/traffic_shaping.phases.json"),
    },
];

/// Name of the one workload that is not a scenario.
pub const TRAFFIC_SHAPING: &str = "traffic_shaping";

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How the samples of the repetitions become the reported value.
///
/// The sandbox's noise is one-sided and comes in episodes of seconds: a
/// co-tenant slows a repetition down by up to 40 % and never speeds one up
/// (README, "Why the fastest repetition"). A median over a 16-second run
/// moves with the episodes; the fastest repetition does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The best repetition: the smallest sample of a lower-is-better
    /// metric, the largest of a higher-is-better one.
    Fastest,
    /// The median, for a sample the host's load does not move.
    Median,
    /// The mean of the better quarter of the samples, for a sample too
    /// coarse for its minimum to tell two runs apart.
    FastQuarterMean,
}

impl Fold {
    /// Folds `samples` of a metric that improves in direction `better`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN.
    #[must_use]
    pub fn apply(self, better: Better, samples: &[f64]) -> f64 {
        let mut best_first = samples.to_vec();
        best_first.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        if better == Better::Higher {
            best_first.reverse();
        }
        match self {
            Fold::Fastest => best_first[0],
            Fold::Median => crate::stats::median(samples),
            Fold::FastQuarterMean => {
                let quarter = &best_first[..samples.len().div_ceil(4)];
                quarter.iter().sum::<f64>() / quarter.len() as f64
            }
        }
    }
}

/// A metric a user of the simulator would see; host time, tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// The repetition's sample of this metric.
    pub sample: fn(&ChildReport) -> f64,
    /// How repetitions fold into the reported value.
    pub fold: Fold,
    /// What exactly is measured.
    pub definition: &'static str,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sample: |r| r.wall_s,
        fold: Fold::Fastest,
        definition: "fastest repetition's wall time of run_detailed plus summary \
                     serialization (traffic_shaping: all six phases)",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        sample: |r| r.events as f64 / r.wall_s,
        fold: Fold::Fastest,
        definition: "fastest repetition's summary.events / wall (traffic_shaping: messages \
                     ingested / wall)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sample: |r| r.setup_s,
        fold: Fold::Fastest,
        definition: "fastest repetition's workload-file parse + compile + dataset generation + \
                     one throw-away Platform::new, dropped before the wall timer starts",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        sample: |r| r.peak_rss_mb,
        fold: Fold::Median,
        definition: "median over reps of the rep process's VmHWM at exit",
    },
    EndToEnd {
        name: "user_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sample: |r| r.user_cpu_s,
        fold: Fold::FastQuarterMean,
        definition: "mean over the faster quarter of the reps of the rep process's user CPU time, \
                     set-up included (10 ms ticks, so the minimum would read the same run after \
                     run)",
    },
];

/// A metric of one layer, from the traced run or a probe.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name; the part before the first dot is the layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The (end-to-end metric, workload) pairs this one is expected to
    /// move, and where it should stay flat.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer (crate) the metric belongs to.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Spans that fire once per run: `<span>.busy_s`.
pub const ONE_SHOT_SPANS: [(&str, &str); 10] = [
    (
        "workload.spec_load",
        "setup_s on all workloads (small everywhere)",
    ),
    (
        "workload.arrivals_sample",
        "wall_s on dense_flow; flat on backlog",
    ),
    (
        "workload.template_instantiate",
        "wall_s on dense_flow (the most instantiations); flat on backlog",
    ),
    (
        "workload.sample_crashes",
        "wall_s on churn_storm (one draw per crash) and fleet_1m (victim list over 1M phones)",
    ),
    (
        "workload.apply_stragglers",
        "wall_s on fleet_1m (sweep over 1M phones) and churn_storm; 0 on calm fleets",
    ),
    (
        "workload.summarize",
        "wall_s on dense_flow (one lookup per task); flat on fleet_1m",
    ),
    ("data.generate", "setup_s on all workloads (small)"),
    (
        "core.platform_new",
        "setup_s and wall_s on fleet_1m; wall_s on churn_storm; flat on backlog",
    ),
    (
        "core.run_until_idle",
        "wall_s on backlog (the final drain of the queue); flat on dense_flow",
    ),
    (
        "simrt.schedule_initial",
        "wall_s and events_per_s on churn_storm (one push per crash); flat on cloud_elastic",
    ),
];

/// Spans that fire many times per run: `<span>.count`, `.busy_s`,
/// `.p50_us`, `.p99_us`, `.growth`.
pub const LOOP_SPANS: [(&str, &str); 6] = [
    (
        "core.sync_to_arrival",
        "wall_s and events_per_s on dense_flow and backlog (completions and the passes they \
         unlock run here); growth >> 1 flags cost rising with history",
    ),
    (
        "core.submit",
        "wall_s on dense_flow and backlog; peak_rss_mb on dense_flow",
    ),
    (
        "core.admit_now",
        "wall_s on backlog (one pass over the whole queue per arrival); flat on fleet_1m",
    ),
    (
        "core.run_until",
        "wall_s on cloud_elastic (node-ready wake-ups between arrivals); flat on dense_flow",
    ),
    (
        "phone.inject_crash",
        "wall_s and events_per_s on churn_storm; 0 on calm fleets",
    ),
    (
        "phone.reboot",
        "wall_s and events_per_s on churn_storm; 0 on calm fleets",
    ),
];

/// The fields of a loop span, with their units.
pub const LOOP_FIELDS: [(&str, &str); 5] = [
    ("count", "count"),
    ("busy_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("growth", "ratio"),
];

/// Every per-layer metric, in report order.
#[must_use]
pub fn per_layer() -> Vec<PerLayer> {
    let lower = |name: String, unit, moves| PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    };
    let higher = |name: &str, unit, moves| PerLayer {
        name: name.to_string(),
        unit,
        better: Better::Higher,
        moves,
    };
    let mut out = Vec::new();
    for (span, moves) in ONE_SHOT_SPANS {
        out.push(lower(format!("{span}.busy_s"), "s", moves));
    }
    for (span, moves) in LOOP_SPANS {
        for (field, unit) in LOOP_FIELDS {
            out.push(lower(format!("{span}.{field}"), unit, moves));
        }
    }
    let admit = "wall_s on backlog: how much each pass admits, and how often a task waited \
                 for a second pass";
    out.push(higher("core.admit_now.admitted", "count", admit));
    out.push(higher("core.admit_now.admitted_max", "count", admit));
    out.push(lower("core.admit_now.passes_ge2".into(), "count", admit));
    out.push(lower(
        "workload.summarize.bytes".into(),
        "B",
        "wall_s on cloud_elastic (the cloud series is most of the summary)",
    ));
    let engine = "events_per_s on churn_storm (the only deep outer queue); flat on cloud_elastic";
    out.push(lower("simrt.engine_self.busy_s".into(), "s", engine));
    out.push(lower("simrt.engine_self.ns_per_event".into(), "ns", engine));
    out.push(lower("simrt.event_queue.ns_per_op".into(), "ns", engine));
    out.push(lower(
        "core.platform_new.t2_ratio".into(),
        "ratio",
        "setup_s on fleet_1m once fleet build scales with threads (read with host_cpus)",
    ));
    out.push(lower(
        "core.scheduler.pass_us".into(),
        "us",
        "wall_s on backlog; flat on dense_flow",
    ));
    out.push(lower(
        "core.resources.freeze_release_ns".into(),
        "ns",
        "wall_s on dense_flow (one lease per task)",
    ));
    out.push(lower(
        "core.runner.plan_commit_us".into(),
        "us",
        "wall_s on cloud_elastic and dense_flow",
    ));
    out.push(lower(
        "phone.with_fleet_s".into(),
        "s",
        "setup_s and peak_rss_mb on fleet_1m; flat on cloud_elastic",
    ));
    out.push(lower(
        "phone.select_ns".into(),
        "ns",
        "wall_s on fleet_1m and churn_storm (phone-only tasks); flat on cloud_elastic",
    ));
    out.push(lower(
        "phone.crash_reboot_ns".into(),
        "ns",
        "wall_s and events_per_s on churn_storm; flat on fleet_1m",
    ));
    let cluster = "wall_s on cloud_elastic (measured at its peak node count); flat on backlog";
    out.push(lower("cluster.acquire_release_us".into(), "us", cluster));
    out.push(lower("cluster.can_place_all_ns".into(), "ns", cluster));
    out.push(lower("cluster.advance_autoscale_us".into(), "us", cluster));
    out.push(lower(
        "ml.train_us_per_device".into(),
        "us",
        "wall_s on cloud_elastic (feature_dim 4096); flat on dense_flow and churn_storm",
    ));
    let flow = "wall_s and events_per_s on traffic_shaping only; 0 elsewhere";
    out.push(lower("deviceflow.ingest.busy_s".into(), "s", flow));
    out.push(higher("deviceflow.ingest.msgs_per_s", "1/s", flow));
    out.push(lower("deviceflow.run.busy_s".into(), "s", flow));
    out.push(higher("deviceflow.run.msgs_per_s", "1/s", flow));
    out.push(lower("deviceflow.run.batches".into(), "count", flow));
    let trace = "no end-to-end metric: the cost and coverage of tracing itself";
    out.push(lower("trace.wall_s".into(), "s", trace));
    out.push(lower("trace.overhead_share".into(), "ratio", trace));
    out.push(lower("trace.root_self_share".into(), "ratio", trace));
    out.push(lower("trace.spans".into(), "count", trace));
    out
}

/// `BENCHMARK.json`, built from the registry. `whys` gives each workload's
/// one-line reason, read from its workload file.
#[must_use]
pub fn manifest(whys: &[(&str, String)]) -> Value {
    let text = |s: &str| Value::String(s.to_string());
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    };
    object(vec![
        (
            "command",
            Value::Array(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                whys.iter()
                    .map(|(name, why)| object(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_pick_the_better_end_of_the_samples() {
        let samples = [3.0, 1.0, 4.0, 2.0, 10.0];
        assert_eq!(Fold::Fastest.apply(Better::Lower, &samples), 1.0);
        assert_eq!(Fold::Fastest.apply(Better::Higher, &samples), 10.0);
        assert_eq!(Fold::Median.apply(Better::Lower, &samples), 3.0);
        // The better quarter of five samples is two of them.
        assert_eq!(Fold::FastQuarterMean.apply(Better::Lower, &samples), 1.5);
        assert_eq!(Fold::FastQuarterMean.apply(Better::Higher, &samples), 7.0);
        assert_eq!(Fold::FastQuarterMean.apply(Better::Lower, &[7.0]), 7.0);
    }
}
