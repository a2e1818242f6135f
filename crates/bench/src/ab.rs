//! `simdc-bench ab`: a paired A/B of two prebuilt `simdc-benchmark`
//! binaries, kept as one row of the append-only `BENCH_trajectory.json`.
//!
//! ```sh
//! simdc-bench ab --base <bin> --change <bin> --pairs N --seeds S[,S…] \
//!     [--workload W[,W…]] --label TEXT --base-rev REV [--change-rev REV] \
//!     --out BENCH_trajectory.json
//! ```
//!
//! For every workload × seed it runs both binaries `N` times, alternating
//! who goes first (base in odd pairs, change in even pairs), each call the
//! documented `run --workload W --seed S --seconds 0 --trace 0`, and reads
//! the result from the call's last output line. Per metric it records
//! both sides' q1/median/q3, the ratio of the medians (change / base) and
//! the pairs the change won and lost. It then runs `run --quick` once per
//! side and requires every workload's output digest to be equal, so a row
//! exists only for two builds that compute the same thing. Of the row it
//! prints each cell's `wall_s`, then every cell that reads worse than
//! its metric's bound, as `worse` or, when the medians moved by no more
//! than the base's spread (or one 10 ms tick of `user_cpu_s`),
//! `unresolved`.
//!
//! The tool measures from outside, as `BENCHMARK.json`'s command does: it
//! links no simulator code, only starts the two binaries.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize, Value};

/// The benchmark's workloads, in its registry order.
pub const WORKLOADS: [&str; 6] = [
    "dense_flow",
    "backlog",
    "cloud_elastic",
    "fleet_1m",
    "churn_storm",
    "traffic_shaping",
];

/// The benchmark's end-to-end metrics: name, whether higher is better,
/// and the bound (a fraction of the base) by which a change may read
/// worse.
pub const END_TO_END: [(&str, bool, f64); 5] = [
    ("wall_s", false, 0.25),
    ("events_per_s", true, 0.25),
    ("setup_s", false, 0.25),
    ("peak_rss_mb", false, 0.2),
    ("user_cpu_s", false, 0.25),
];

/// The resolution of `user_cpu_s`: the benchmark reads it in 10 ms utime
/// ticks.
const CPU_TICK_S: f64 = 0.01;

/// The `about` text of a new trajectory file.
const ABOUT: &str = "Append-only: one row per measured change. A row with `set` holds the \
    end-to-end values of one committed result set; a row with `ab` holds a paired A/B made by \
    `simdc-bench ab` (quartiles per side, ratio of medians change/base, pairs won and lost by \
    the change) and the output digest both builds agreed on.";

/// The command line of `simdc-bench ab`.
pub const USAGE: &str =
    "usage: simdc-bench ab --base <bin> --change <bin> --pairs N --seeds S[,S…] \
    [--workload W[,W…]] --label TEXT --base-rev REV [--change-rev REV] --out <file>";

/// The trajectory file: every row of measured evidence, oldest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// What the rows mean.
    pub about: String,
    /// One row per measurement, appended in order.
    pub rows: Vec<TrajectoryRow>,
}

/// One measurement: a committed result set (`set`) or an A/B (`ab`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryRow {
    /// What was measured, e.g. the change's name.
    pub label: String,
    /// The base revision of an A/B; `None` for a result set.
    pub parent: Option<String>,
    /// The measured revision, when it is known.
    pub commit: Option<String>,
    /// CPUs of the measuring host.
    pub host_cpus: u64,
    /// Pairs per cell of an A/B; 0 for a result set.
    pub pairs: u64,
    /// The seeds measured.
    pub seeds: Vec<u64>,
    /// A result set's end-to-end values; empty in an A/B row.
    pub set: Vec<SetValue>,
    /// An A/B's cells; empty in a result-set row.
    pub ab: Vec<AbCell>,
    /// Each workload's output digest at the default seed.
    pub digests: Vec<Digest>,
}

/// One end-to-end value of a committed result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetValue {
    /// The workload.
    pub workload: String,
    /// One of [`END_TO_END`].
    pub metric: String,
    /// The set's reported value.
    pub value: f64,
}

/// One workload × seed × metric of an A/B.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbCell {
    /// The workload.
    pub workload: String,
    /// The seed both sides ran.
    pub seed: u64,
    /// One of [`END_TO_END`].
    pub metric: String,
    /// The base binary's runs.
    pub base: Quartiles,
    /// The change binary's runs.
    pub change: Quartiles,
    /// `change.median / base.median` (1 when the medians are equal, so
    /// two zero medians give 1).
    pub ratio: f64,
    /// Pairs in which the change was strictly better.
    pub won: u64,
    /// Pairs in which the change was strictly worse.
    pub lost: u64,
}

/// The quartiles of one side's runs (linear interpolation between
/// order statistics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

/// A workload's output digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Digest {
    /// The workload.
    pub workload: String,
    /// Its 16-hex-digit output digest.
    pub output: String,
}

impl Quartiles {
    /// The quartiles of `values`.
    ///
    /// # Errors
    ///
    /// Returns a message when `values` is empty or holds a non-finite
    /// value.
    fn of(values: &[f64]) -> Result<Self, String> {
        if values.is_empty() || !values.iter().all(|v| v.is_finite()) {
            return Err(format!("quartiles need finite values, got {values:?}"));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Ok(Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        })
    }
}

impl AbCell {
    /// The cell of `pairs` — (base, change) per pair — for `metric`.
    ///
    /// # Errors
    ///
    /// Returns a message when `metric` is not an end-to-end metric or a
    /// value is not finite.
    fn from_pairs(
        workload: &str,
        seed: u64,
        metric: &str,
        pairs: &[(f64, f64)],
    ) -> Result<Self, String> {
        let (higher_is_better, _) = metric_rule(metric)?;
        let base = Quartiles::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())?;
        let change = Quartiles::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>())?;
        let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
        Ok(AbCell {
            workload: workload.to_string(),
            seed,
            metric: metric.to_string(),
            base,
            change,
            ratio: median_ratio(base, change),
            won: pairs.iter().filter(|(b, c)| better(*c, *b)).count() as u64,
            lost: pairs.iter().filter(|(b, c)| better(*b, *c)).count() as u64,
        })
    }
}

impl AbCell {
    /// `None` while the change reads no worse than the metric's bound;
    /// beyond it, `unresolved` when the medians moved by no more than the
    /// base's interquartile range (for `user_cpu_s`, or by one 10 ms
    /// tick), else `worse`.
    fn verdict(&self) -> Option<&'static str> {
        let (higher_is_better, bound) = metric_rule(&self.metric).ok()?;
        let beyond = if higher_is_better {
            self.ratio < 1.0 - bound
        } else {
            self.ratio > 1.0 + bound
        };
        if !beyond {
            return None;
        }
        let mut noise = self.base.q3 - self.base.q1;
        if self.metric == "user_cpu_s" {
            noise = noise.max(CPU_TICK_S);
        }
        // The slack absorbs the rounding of two decimal medians.
        let moved = (self.change.median - self.base.median).abs();
        Some(if moved <= noise + 1e-9 {
            "unresolved"
        } else {
            "worse"
        })
    }
}

fn median_ratio(base: Quartiles, change: Quartiles) -> f64 {
    if change.median == base.median {
        1.0
    } else {
        change.median / base.median
    }
}

/// Whether higher is better for `metric`, and its bound.
fn metric_rule(metric: &str) -> Result<(bool, f64), String> {
    END_TO_END
        .iter()
        .find(|(name, ..)| *name == metric)
        .map(|&(_, higher, bound)| (higher, bound))
        .ok_or_else(|| format!("`{metric}` is not an end-to-end metric"))
}

fn known_workload(workload: &str) -> Result<(), String> {
    if WORKLOADS.contains(&workload) {
        Ok(())
    } else {
        Err(format!("unknown workload `{workload}`"))
    }
}

impl TrajectoryRow {
    /// Checks the row's shape: exactly one of `set` and `ab`, known
    /// workloads and metrics, ordered quartiles, a ratio equal to the
    /// medians' quotient, at most `pairs` pairs won and lost, and a
    /// digest for every A/B workload.
    ///
    /// # Errors
    ///
    /// Returns the first violation, naming the row.
    pub fn check(&self) -> Result<(), String> {
        let fail = |what: String| format!("row `{}`: {what}", self.label);
        if self.label.is_empty() || self.host_cpus == 0 || self.seeds.is_empty() {
            return Err(fail("needs a label, host_cpus and seeds".into()));
        }
        for d in &self.digests {
            known_workload(&d.workload).map_err(fail)?;
            if d.output.len() != 16 || !d.output.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(fail(format!("digest `{}` is not 16 hex digits", d.output)));
            }
        }
        match (self.set.is_empty(), self.ab.is_empty()) {
            (false, true) => {
                if self.pairs != 0 || self.parent.is_some() {
                    return Err(fail("a result-set row has no pairs and no parent".into()));
                }
                for v in &self.set {
                    known_workload(&v.workload).map_err(fail)?;
                    metric_rule(&v.metric).map_err(fail)?;
                    if !v.value.is_finite() {
                        return Err(fail(format!("{} {} is not finite", v.workload, v.metric)));
                    }
                }
            }
            (true, false) => {
                if self.pairs == 0 || self.parent.is_none() {
                    return Err(fail("an A/B row has pairs and a parent".into()));
                }
                for c in &self.ab {
                    let cell = format!("{} seed {} {}", c.workload, c.seed, c.metric);
                    known_workload(&c.workload).map_err(fail)?;
                    metric_rule(&c.metric).map_err(fail)?;
                    if !self.seeds.contains(&c.seed) {
                        return Err(fail(format!("{cell}: seed not in the row's seeds")));
                    }
                    for q in [c.base, c.change] {
                        if !(q.q1 <= q.median && q.median <= q.q3) {
                            return Err(fail(format!("{cell}: quartiles out of order")));
                        }
                    }
                    let ratio = median_ratio(c.base, c.change);
                    if !ratio.is_finite() || (c.ratio - ratio).abs() > 1e-9 * ratio.abs() {
                        return Err(fail(format!("{cell}: ratio {} is not {ratio}", c.ratio)));
                    }
                    if c.won + c.lost > self.pairs {
                        return Err(fail(format!("{cell}: more pairs decided than run")));
                    }
                    if !self.digests.iter().any(|d| d.workload == c.workload) {
                        return Err(fail(format!("{cell}: no output digest")));
                    }
                }
            }
            _ => return Err(fail("holds exactly one of `set` and `ab`".into())),
        }
        Ok(())
    }
}

/// Parsed `simdc-bench ab` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct AbOptions {
    /// The base `simdc-benchmark` binary.
    pub base: PathBuf,
    /// The change `simdc-benchmark` binary.
    pub change: PathBuf,
    /// Pairs per workload × seed.
    pub pairs: u64,
    /// Seeds, each run on every workload.
    pub seeds: Vec<u64>,
    /// Workloads (default: all of [`WORKLOADS`]).
    pub workloads: Vec<String>,
    /// The row's label.
    pub label: String,
    /// The base revision, recorded as the row's `parent`.
    pub base_rev: String,
    /// The change revision, recorded as the row's `commit`.
    pub change_rev: Option<String>,
    /// The trajectory file the row is appended to (created if missing).
    pub out: PathBuf,
}

impl AbOptions {
    /// Parses the flags after `ab`.
    ///
    /// # Errors
    ///
    /// Returns a message naming a missing, unknown or malformed flag.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut base, mut change, mut pairs, mut seeds) = (None, None, None, None);
        let (mut workloads, mut label, mut out) = (None, None, None);
        let (mut base_rev, mut change_rev) = (None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let list = || value.split(',').map(str::to_string).collect::<Vec<_>>();
            match flag.as_str() {
                "--base" => base = Some(PathBuf::from(&value)),
                "--change" => change = Some(PathBuf::from(&value)),
                "--pairs" => pairs = Some(parse_number(&flag, &value)?),
                "--seeds" => {
                    let parsed: Result<Vec<u64>, String> =
                        list().iter().map(|s| parse_number(&flag, s)).collect();
                    seeds = Some(parsed?);
                }
                "--workload" => workloads = Some(list()),
                "--label" => label = Some(value),
                "--base-rev" => base_rev = Some(value),
                "--change-rev" => change_rev = Some(value),
                "--out" => out = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        let need = |name: &str| format!("{name} is required");
        let workloads = workloads.unwrap_or_else(|| WORKLOADS.map(str::to_string).to_vec());
        for w in &workloads {
            known_workload(w)?;
        }
        let opts = AbOptions {
            base: base.ok_or(need("--base"))?,
            change: change.ok_or(need("--change"))?,
            pairs: pairs.ok_or(need("--pairs"))?,
            seeds: seeds.ok_or(need("--seeds"))?,
            workloads,
            label: label.ok_or(need("--label"))?,
            base_rev: base_rev.ok_or(need("--base-rev"))?,
            change_rev,
            out: out.ok_or(need("--out"))?,
        };
        if opts.pairs == 0 {
            return Err("--pairs must be at least 1".into());
        }
        Ok(opts)
    }
}

fn parse_number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes unsigned integers, got '{value}'"))
}

/// Runs `bin` with `args` and returns its stdout.
fn stdout_of(bin: &Path, args: &[&str]) -> Result<String, String> {
    let output = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} {}: {}\n{}",
            bin.display(),
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8(output.stdout).map_err(|e| format!("{}: {e}", bin.display()))
}

/// The end-to-end values, in [`END_TO_END`] order, of one
/// `run --workload` call's last output line.
///
/// # Errors
///
/// Returns a message when the line is not the result object, the run
/// reports `"correct": false` or a metric is missing.
fn parse_result_line(stdout: &str) -> Result<[f64; 5], String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("result line `{line}`: {e}"))?;
    let field = |v: &'_ Value, name: &str| match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    if field(&value, "correct") != Some(Value::Bool(true)) {
        return Err(format!("the run is not correct: `{line}`"));
    }
    let metrics = field(&value, "metrics").unwrap_or(Value::Null);
    let mut out = [0.0; 5];
    for (slot, (name, ..)) in out.iter_mut().zip(END_TO_END) {
        *slot = match field(&metrics, name).and_then(|m| field(&m, "value")) {
            Some(Value::F64(v)) => v,
            Some(Value::U64(v)) => v as f64,
            Some(Value::I64(v)) => v as f64,
            _ => return Err(format!("no value for `{name}` in `{line}`")),
        };
    }
    Ok(out)
}

/// Each workload's output digest from `run --quick`'s report lines
/// (`<workload>: correct (… output <hex>)`), first occurrence per
/// workload, in [`WORKLOADS`] order.
///
/// # Errors
///
/// Returns a message when a workload is missing or not correct.
fn parse_quick_digests(stdout: &str) -> Result<Vec<Digest>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let prefix = format!("{w}: ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .ok_or(format!("`run --quick` reported no `{w}`"))?;
            let output = line
                .strip_prefix(&format!("{prefix}correct "))
                .and_then(|rest| rest.rsplit_once("output "))
                .map(|(_, hex)| hex.trim_end_matches(')').to_string())
                .ok_or(format!("`run --quick` did not pass: `{line}`"))?;
            Ok(Digest {
                workload: (*w).to_string(),
                output,
            })
        })
        .collect()
}

/// Measures `opts` and returns the row.
///
/// # Errors
///
/// Returns a message when a run fails or the two sides' digests differ.
fn measure(opts: &AbOptions) -> Result<TrajectoryRow, String> {
    let mut ab = Vec::new();
    for workload in &opts.workloads {
        for &seed in &opts.seeds {
            let seed_text = seed.to_string();
            let args = [
                "run",
                "--workload",
                workload,
                "--seed",
                &seed_text,
                "--seconds",
                "0",
                "--trace",
                "0",
            ];
            let mut pairs = Vec::new();
            for pair in 1..=opts.pairs {
                let sides = if pair % 2 == 1 {
                    [&opts.base, &opts.change]
                } else {
                    [&opts.change, &opts.base]
                };
                let first = parse_result_line(&stdout_of(sides[0], &args)?)?;
                let second = parse_result_line(&stdout_of(sides[1], &args)?)?;
                pairs.push(if pair % 2 == 1 {
                    (first, second)
                } else {
                    (second, first)
                });
            }
            for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
                let values: Vec<(f64, f64)> = pairs.iter().map(|(b, c)| (b[m], c[m])).collect();
                ab.push(AbCell::from_pairs(workload, seed, metric, &values)?);
            }
            eprintln!("ab: {workload} seed {seed} done");
        }
    }
    let base = parse_quick_digests(&stdout_of(&opts.base, &["run", "--quick"])?)?;
    let change = parse_quick_digests(&stdout_of(&opts.change, &["run", "--quick"])?)?;
    if base != change {
        return Err(format!(
            "the two builds compute different outputs:\nbase   {base:?}\nchange {change:?}"
        ));
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let row = TrajectoryRow {
        label: opts.label.clone(),
        parent: Some(opts.base_rev.clone()),
        commit: opts.change_rev.clone(),
        host_cpus,
        pairs: opts.pairs,
        seeds: opts.seeds.clone(),
        set: Vec::new(),
        ab,
        digests: change,
    };
    row.check()?;
    Ok(row)
}

/// Reads the trajectory at `path`, or a new empty one when it does not
/// exist.
///
/// # Errors
///
/// Returns a message when the file cannot be read or parsed, or a row
/// fails [`TrajectoryRow::check`].
pub fn read_trajectory(path: &Path) -> Result<Trajectory, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Trajectory {
                about: ABOUT.to_string(),
                rows: Vec::new(),
            })
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let trajectory: Trajectory =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for row in &trajectory.rows {
        row.check()?;
    }
    Ok(trajectory)
}

/// `simdc-bench ab`: measures `opts`, prints each cell's `wall_s` and
/// every cell beyond its bound with its verdict, and appends the row to
/// `opts.out`.
///
/// # Errors
///
/// Returns the message to print: a run, digest or file error.
pub fn run(opts: &AbOptions) -> Result<(), String> {
    let mut trajectory = read_trajectory(&opts.out)?;
    if trajectory.rows.iter().any(|r| r.label == opts.label) {
        return Err(format!(
            "{} already has a row `{}`",
            opts.out.display(),
            opts.label
        ));
    }
    let row = measure(opts)?;
    for c in row.ab.iter().filter(|c| c.metric == "wall_s") {
        println!(
            "{} seed {}: wall_s {:.4} -> {:.4} s ({:.3}x), won {}/{} (base q1-q3 {:.4}-{:.4})",
            c.workload,
            c.seed,
            c.base.median,
            c.change.median,
            c.ratio,
            c.won,
            row.pairs,
            c.base.q1,
            c.base.q3
        );
    }
    for c in &row.ab {
        if let Some(verdict) = c.verdict() {
            println!(
                "{} seed {}: {} {:.4} -> {:.4} ({:.3}x) beyond its bound: {verdict} \
                 (base q1-q3 {:.4}-{:.4})",
                c.workload,
                c.seed,
                c.metric,
                c.base.median,
                c.change.median,
                c.ratio,
                c.base.q1,
                c.base.q3
            );
        }
    }
    trajectory.rows.push(row);
    let text = serde_json::to_string_pretty(&trajectory).map_err(|e| e.to_string())?;
    std::fs::write(&opts.out, text + "\n").map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("appended row `{}` to {}", opts.label, opts.out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let one = Quartiles::of(&[5.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (5.0, 5.0, 5.0));
        assert!(Quartiles::of(&[]).is_err());
        assert!(Quartiles::of(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn a_pair_is_won_in_the_metric_s_better_direction() {
        let pairs = [(2.0, 1.0), (2.0, 3.0), (2.0, 2.0), (2.0, 1.5)];
        let wall = AbCell::from_pairs("dense_flow", 7, "wall_s", &pairs).unwrap();
        assert_eq!((wall.won, wall.lost), (2, 1));
        let rate = AbCell::from_pairs("dense_flow", 7, "events_per_s", &pairs).unwrap();
        assert_eq!((rate.won, rate.lost), (1, 2));
        assert_eq!(wall.ratio, wall.change.median / wall.base.median);
        assert!(AbCell::from_pairs("dense_flow", 7, "wall", &pairs).is_err());
        let idle = AbCell::from_pairs("dense_flow", 7, "user_cpu_s", &[(0.0, 0.0)]).unwrap();
        assert_eq!((idle.ratio, idle.won, idle.lost), (1.0, 0, 0));
    }

    #[test]
    fn a_one_tick_cpu_move_is_unresolved_and_a_real_move_worse() {
        // backlog's user_cpu_s: every base run reads two 10 ms ticks and
        // every change run three, a 1.5x ratio beyond the 25 % bound.
        let tick = [(0.02, 0.03); 10];
        let cpu = AbCell::from_pairs("backlog", 7, "user_cpu_s", &tick).unwrap();
        assert!((cpu.ratio - 1.5).abs() < 1e-12);
        assert_eq!(cpu.verdict(), Some("unresolved"));
        // The same numbers as wall time are a resolved regression.
        let wall = AbCell::from_pairs("backlog", 7, "wall_s", &tick).unwrap();
        assert_eq!(wall.verdict(), Some("worse"));
        // Two ticks of CPU are more than the tick.
        let two = AbCell::from_pairs("backlog", 7, "user_cpu_s", &[(0.02, 0.04); 4]).unwrap();
        assert_eq!(two.verdict(), Some("worse"));
        // A move inside the base's spread is unresolved.
        let spread = [(0.08, 0.14), (0.10, 0.14), (0.12, 0.14), (0.20, 0.14)];
        let noisy = AbCell::from_pairs("backlog", 7, "wall_s", &spread).unwrap();
        assert!(noisy.ratio > 1.25);
        assert_eq!(noisy.verdict(), Some("unresolved"));
        // Within the bound, or better, there is no verdict; a rate is
        // worse when it falls.
        let within = AbCell::from_pairs("backlog", 7, "wall_s", &[(1.0, 1.2); 3]).unwrap();
        assert_eq!(within.verdict(), None);
        let faster = AbCell::from_pairs("backlog", 7, "wall_s", &[(1.0, 0.5); 3]).unwrap();
        assert_eq!(faster.verdict(), None);
        let slower = AbCell::from_pairs("backlog", 7, "events_per_s", &[(100.0, 70.0); 3]).unwrap();
        assert_eq!(slower.verdict(), Some("worse"));
    }

    #[test]
    fn the_result_line_is_the_last_line() {
        let out = "dense_flow: correct (…)\n  wall_s 0.1\n{\"correct\":true,\"attempted\":9,\
            \"failed\":0,\"metrics\":{\"wall_s\":{\"value\":0.5,\"unit\":\"s\"},\
            \"events_per_s\":{\"value\":100,\"unit\":\"1/s\"},\"setup_s\":{\"value\":0.01,\
            \"unit\":\"s\"},\"peak_rss_mb\":{\"value\":12.5,\"unit\":\"MiB\"},\
            \"user_cpu_s\":{\"value\":0.4,\"unit\":\"s\"}}}\n";
        assert_eq!(
            parse_result_line(out).unwrap(),
            [0.5, 100.0, 0.01, 12.5, 0.4]
        );
        let incorrect = out.replace("\"correct\":true", "\"correct\":false");
        assert!(parse_result_line(&incorrect).is_err());
        assert!(parse_result_line(&out.replace("user_cpu_s", "cpu")).is_err());
    }

    #[test]
    fn quick_digests_need_every_workload_correct() {
        let mut out = String::new();
        for w in WORKLOADS {
            out.push_str(&format!(
                "{w}: correct (failed_share 0 = 0 failed / 9 attempted, output 0123456789abcdef)\n"
            ));
        }
        let digests = parse_quick_digests(&out).unwrap();
        assert_eq!(digests.len(), WORKLOADS.len());
        assert!(digests.iter().all(|d| d.output == "0123456789abcdef"));
        let broken = out.replace("backlog: correct", "backlog: INCORRECT");
        assert!(parse_quick_digests(&broken).is_err());
        assert!(parse_quick_digests(&out.replace("fleet_1m", "fleet")).is_err());
    }

    #[test]
    fn flags_parse_and_name_what_is_missing() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let opts = AbOptions::from_args(
            args(
                "--base a --change b --pairs 10 --seeds 1,7 --workload dense_flow,backlog \
                 --label x --base-rev r --out t.json",
            )
            .into_iter(),
        )
        .unwrap();
        assert_eq!(opts.seeds, vec![1, 7]);
        assert_eq!(opts.workloads, vec!["dense_flow", "backlog"]);
        assert_eq!(opts.change_rev, None);
        let all = AbOptions::from_args(
            args("--base a --change b --pairs 1 --seeds 1 --label x --base-rev r --out t")
                .into_iter(),
        )
        .unwrap();
        assert_eq!(all.workloads.len(), WORKLOADS.len());
        for bad in [
            "--base a --change b --pairs 10 --seeds 1 --label x --base-rev r",
            "--base a --change b --pairs 0 --seeds 1 --label x --base-rev r --out t",
            "--base a --change b --pairs 2 --seeds x --label x --base-rev r --out t",
            "--base a --change b --pairs 2 --seeds 1 --workload nope --label x --base-rev r --out t",
            "--bogus 1",
            "--base",
        ] {
            assert!(AbOptions::from_args(args(bad).into_iter()).is_err(), "{bad}");
        }
    }

    /// A stand-in `simdc-benchmark`: logs `name` to `calls`, prints a
    /// result line with `wall_s` = `wall`, and digest `digest` for every
    /// workload under `run --quick`.
    #[cfg(unix)]
    fn fake_benchmark(dir: &Path, name: &str, wall: f64, digest: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path = dir.join(name);
        let metrics = END_TO_END
            .map(|(m, ..)| format!("\"{m}\":{{\"value\":{wall},\"unit\":\"s\"}}"))
            .join(",");
        let script = format!(
            "#!/bin/sh\necho {name} >> {calls}\nif [ \"$2\" = --quick ]; then\n\
             for w in {workloads}; do echo \"$w: correct (failed_share 0, output {digest})\"; \
             done\nelse\necho '{{\"correct\":true,\"metrics\":{{{metrics}}}}}'\nfi\n",
            calls = dir.join("calls").display(),
            workloads = WORKLOADS.join(" "),
        );
        std::fs::write(&path, script).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[cfg(unix)]
    #[test]
    fn a_run_alternates_the_binaries_and_appends_one_checked_row() {
        let dir = std::env::temp_dir().join(format!("simdc-ab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = AbOptions {
            base: fake_benchmark(&dir, "base", 2.0, "0123456789abcdef"),
            change: fake_benchmark(&dir, "change", 1.0, "0123456789abcdef"),
            pairs: 3,
            seeds: vec![7],
            workloads: vec!["backlog".into()],
            label: "first".into(),
            base_rev: "parent".into(),
            change_rev: None,
            out: dir.join("trajectory.json"),
        };
        run(&opts).unwrap();
        let calls = std::fs::read_to_string(dir.join("calls")).unwrap();
        let order: Vec<&str> = calls.lines().collect();
        let pairs = ["base", "change", "change", "base", "base", "change"];
        assert_eq!(order, [&pairs[..], &["base", "change"]].concat());
        let trajectory = read_trajectory(&opts.out).unwrap();
        let row = &trajectory.rows[0];
        assert_eq!((row.parent.as_deref(), row.ab.len()), (Some("parent"), 5));
        let wall = &row.ab[0];
        assert_eq!((wall.metric.as_str(), wall.ratio), ("wall_s", 0.5));
        assert_eq!((wall.won, wall.lost), (3, 0));
        let rate = &row.ab[1];
        assert_eq!(
            (rate.metric.as_str(), rate.won, rate.lost),
            ("events_per_s", 0, 3)
        );

        // A label already present, or builds whose digests differ, write
        // nothing.
        assert!(run(&opts).is_err());
        opts.label = "second".into();
        opts.change = fake_benchmark(&dir, "other", 1.0, "fedcba9876543210");
        assert!(run(&opts).unwrap_err().contains("different outputs"));
        assert_eq!(read_trajectory(&opts.out).unwrap().rows.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
