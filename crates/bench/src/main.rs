//! `simdc-bench <name>|all [--quick] [--seed N] [--out DIR]` — runs one
//! experiment of [`exp::ALL`] by name, or the whole suite. An unknown
//! name or a malformed flag prints the usage line and exits 2.
//!
//! `simdc-bench ab …` is a paired A/B of two prebuilt benchmark binaries
//! ([`simdc_bench::ab`]); it exits 2 on a bad flag and 1 on a failed run.
//!
//! Results land in `<out>/<name>.json` (default `results/`); the printed
//! tables mirror the paper's layout. `--quick` is the fast smoke profile.
//!
//! ```sh
//! cargo run --release -p simdc-bench -- all --quick
//! cargo run --release -p simdc-bench -- fig9 --seed 3 --out /tmp/fig9
//! ```

#![deny(clippy::unwrap_used)]

use std::process::ExitCode;

use simdc_bench::{ab, exp, ExpOptions};

const USAGE: &str = "usage: simdc-bench <name>|all [--quick] [--seed N] [--out DIR]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "ab" {
        let opts = match ab::AbOptions::from_args(args) {
            Ok(opts) => opts,
            Err(err) => {
                eprintln!("simdc-bench ab: {err}\n{}", ab::USAGE);
                return ExitCode::from(2);
            }
        };
        return match ab::run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("simdc-bench ab: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let suite = name == "all";
    let selected: Vec<exp::ExpRunner> = if suite {
        exp::ALL.iter().map(|(_, run)| *run).collect()
    } else {
        exp::find(&name).into_iter().collect()
    };
    if selected.is_empty() {
        let names: Vec<&str> = exp::ALL.iter().map(|(known, _)| *known).collect();
        eprintln!("{USAGE}\n{}\nexperiments: {}", ab::USAGE, names.join(", "));
        return ExitCode::from(2);
    }
    let opts = match ExpOptions::from_args(args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("simdc-bench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = opts.create_out_dir() {
        eprintln!("simdc-bench: {err}");
        return ExitCode::FAILURE;
    }
    if suite {
        println!(
            "=== SimDC experiment suite (seed {}, quick: {}) ===\n",
            opts.seed, opts.quick
        );
    }
    for run in selected {
        run(&opts);
    }
    if suite {
        println!("\nAll results written to {}/", opts.out_dir.display());
    }
    ExitCode::SUCCESS
}
