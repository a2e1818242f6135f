//! `simdc-bench <name>|all [--quick] [--seed N] [--out DIR]` — runs one
//! experiment of [`exp::ALL`] by name (the `BENCH_` prefix is optional),
//! or the whole suite.
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

use simdc_bench::{exp, ExpOptions};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let suite = name == "all";
    let selected: Vec<exp::ExpRunner> = if suite {
        exp::ALL.iter().map(|(_, run)| *run).collect()
    } else {
        exp::find(&name).into_iter().collect()
    };
    if selected.is_empty() {
        let names: Vec<&str> = exp::ALL.iter().map(|(known, _)| *known).collect();
        eprintln!(
            "usage: simdc-bench <name>|all [--quick] [--seed N] [--out DIR]\nexperiments: {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let opts = ExpOptions::from_args(args);
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
