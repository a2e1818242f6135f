//! `simdc-benchmark`: `run`, `compare`, `manifest`, `expect`, and the
//! `child` mode the parent spawns itself in.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use simdc_benchmark::compare::compare;
use simdc_benchmark::driver::{run_all, run_end_to_end, run_traced, ResultSet, RunOptions};
use simdc_benchmark::registry::{self, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use simdc_benchmark::rep::{run_child, ChildArgs, Mode};
use simdc_benchmark::workload::whys;

const USAGE: &str = "usage:
  simdc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--quick] [--spans-out FILE] [--out FILE]
      Without --workload: every workload, untraced then traced; --out writes
      the result set `compare` reads. With --workload: one run, whose last
      line of output is the result as one JSON object.
  simdc-benchmark compare A.json B.json
      One row per (workload, metric): ok / worse / unresolved. Exits 1 on worse.
  simdc-benchmark manifest
      Prints BENCHMARK.json as the registry defines it.
  simdc-benchmark expect
      Re-records benchmark/expected/ at the default seed.";

/// `--name value` pairs and bare `--flags`, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if bare.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn text(&self, name: &str) -> Option<String> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.clone())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: `{text}` is not a valid number")),
            None => Ok(default),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

fn find_workload(name: &str) -> Result<&'static registry::Workload, String> {
    registry::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", names.join(", "))
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "quick",
        "spans-out",
        "out",
    ])?;
    let opts = RunOptions {
        seed: flags.number("seed", DEFAULT_SEED)?,
        seconds: flags.number("seconds", RUN_SECONDS as f64)?,
        quick: flags.has("quick"),
        spans_out: flags.text("spans-out"),
    };
    if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            opts.seconds
        ));
    }
    let Some(name) = flags.text("workload") else {
        if flags.has("trace") {
            return Err("--trace needs --workload; without it both kinds of run are made".into());
        }
        let set = run_all(&opts)?;
        let correct = set
            .end_to_end
            .iter()
            .chain(&set.per_layer)
            .all(|r| r.correct);
        match flags.text("out") {
            // A quick run is a smoke test; its numbers are not results.
            Some(_) if opts.quick => eprintln!("--quick: no result set written"),
            Some(_) if !correct => eprintln!("an output check failed: no result set written"),
            Some(path) => {
                let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
                std::fs::write(&path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
            }
            None => {}
        }
        return Ok(if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    if flags.has("out") {
        return Err("--out writes a whole result set; drop --workload".into());
    }
    let workload = find_workload(&name)?;
    let result = match flags.number("trace", 0u8)? {
        0 => run_end_to_end(workload, &opts)?,
        1 => run_traced(workload, &opts)?,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    print!("{}", result.table());
    // The result line reports a failed check as `"correct": false`; the
    // exit code stays 0 because the run itself completed.
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let (mode, rest) = args.split_first().ok_or("child needs a mode")?;
    let mode = match mode.as_str() {
        "plain" => Mode::Plain,
        "traced" => Mode::Traced,
        "probes" => Mode::Probes,
        other => return Err(format!("unknown child mode `{other}`")),
    };
    let flags = Flags::parse(rest, &["quick"])?;
    let workload = find_workload(&flags.text("workload").ok_or("child needs --workload")?)?;
    let report = run_child(
        workload,
        &ChildArgs {
            mode,
            seed: flags.number("seed", DEFAULT_SEED)?,
            threads: flags.number("threads", 1)?,
            quick: flags.has("quick"),
            peak_nodes: flags.number("peak-nodes", 0)?,
            spans_out: flags.text("spans-out"),
        },
    )?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn read_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn expect() -> Result<ExitCode, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/expected");
    for workload in &WORKLOADS {
        let report = run_child(
            workload,
            &ChildArgs {
                mode: Mode::Plain,
                seed: DEFAULT_SEED,
                threads: 1,
                quick: false,
                peak_nodes: 0,
                spans_out: None,
            },
        )?;
        if !report.problems.is_empty() {
            return Err(format!("{}: {:?}", workload.name, report.problems));
        }
        let kind = if workload.name == registry::TRAFFIC_SHAPING {
            "phases"
        } else {
            "summary"
        };
        let path = format!("{dir}/{}.{kind}.json", workload.name);
        std::fs::write(&path, report.summary + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("rebuild before the next run: the expected outputs are compiled in");
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => run(rest),
        "child" => child(rest),
        "compare" => {
            let [a, b] = rest else {
                return Err(USAGE.into());
            };
            let (report, any_worse) = compare(&read_set(a)?, &read_set(b)?);
            print!("{report}");
            Ok(if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "manifest" => {
            let manifest = registry::manifest(&whys()?);
            println!(
                "{}",
                serde_json::to_string_pretty(&manifest).map_err(|e| e.to_string())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "expect" => expect(),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("simdc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
