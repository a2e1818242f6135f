//! Shared plumbing for the SimDC experiment harness.
//!
//! Every table and figure of the paper's evaluation is a module under
//! [`exp`], registered in [`exp::ALL`] and run by name through the one
//! `simdc-bench` binary (`src/main.rs`); this library holds the bits they
//! share: CLI parsing, result serialization and small text-rendering
//! helpers. [`ab`] is the binary's other command: a paired A/B of two
//! benchmark builds, recorded in `BENCH_trajectory.json`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use std::path::PathBuf;

use serde::Serialize;

pub mod ab;
pub mod exp;

/// Common command-line options of every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Root RNG seed.
    pub seed: u64,
    /// Scale experiment knobs down for smoke testing.
    pub quick: bool,
    /// Where to write the JSON result (default `results/<name>.json`).
    pub out_dir: PathBuf,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 0x51AD_C0DE,
            quick: false,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpOptions {
    /// Parses `--seed N`, `--quick` and `--out DIR` from `args` — what
    /// follows the experiment name on the `simdc-bench` command line.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending argument when a
    /// flag is unknown, `--seed` or `--out` lacks its value, or the seed
    /// is not an unsigned integer.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be an unsigned integer, got '{v}'"))?;
                }
                "--quick" => opts.quick = true,
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(opts)
    }

    /// Creates `out_dir` and its parents, so that a bad `--out` fails
    /// before any experiment runs.
    ///
    /// # Errors
    ///
    /// Returns `<dir>: <error>` when the directory cannot be created.
    pub fn create_out_dir(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|err| format!("{}: {err}", self.out_dir.display()))
    }

    /// Writes `value` as pretty JSON to `<out_dir>/<name>.json` and returns
    /// the path. The directory must exist ([`ExpOptions::create_out_dir`]).
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure (experiment runs want loud
    /// failures).
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> PathBuf {
        let path = self.out_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize result");
        std::fs::write(&path, json).expect("write result file");
        path
    }
}

/// Renders a text table with a header row (every experiment prints its
/// paper-table analog this way).
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with fixed decimals for table cells.
#[must_use]
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use exp::fig6::run_round;
    use exp::fig8::{FEDERATED_SCOPE, FEDSCALE};
    use simdc_data::{CtrDataset, GeneratorConfig};
    use simdc_ml::{LrModel, TrainConfig};

    #[test]
    fn table_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{table}");
        assert!(table.contains("| alpha | 1     |"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.12349, 3), "0.123");
        assert_eq!(f(2.0, 1), "2.0");
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        let parse = |args: &[&str]| ExpOptions::from_args(args.iter().map(|a| (*a).to_owned()));
        assert_eq!(
            parse(&["--seed", "x"]).unwrap_err(),
            "--seed must be an unsigned integer, got 'x'"
        );
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument '--bogus'"
        );
        let opts = parse(&["--quick", "--seed", "7", "--out", "dir"]).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.out_dir, PathBuf::from("dir"));
    }

    // The baseline comparators: Fig 8's cost curves and Fig 6's benchmark
    // FedAvg loop.

    #[test]
    fn fedscale_is_fastest_everywhere() {
        for n in [100u64, 1_000, 10_000, 100_000] {
            assert!(
                FEDSCALE.round_time(n) < FEDERATED_SCOPE.round_time(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn round_times_scale_linearly() {
        let fscope = FEDERATED_SCOPE;
        let t1 = fscope.round_time(1_000).as_secs_f64();
        let t10 = fscope.round_time(10_000).as_secs_f64();
        assert!((t10 / t1 - 10.0).abs() < 0.5, "ratio {}", t10 / t1);
    }

    #[test]
    fn names_match_the_figure_legend() {
        assert_eq!(FEDSCALE.name, "FedScale");
        assert_eq!(FEDERATED_SCOPE.name, "FederatedScope");
    }

    #[test]
    fn baseline_round_matches_fedavg_semantics() {
        let data = CtrDataset::generate(&GeneratorConfig {
            n_devices: 12,
            n_test_devices: 2,
            feature_dim: 1 << 10,
            seed: 3,
            ..GeneratorConfig::default()
        });
        let global = LrModel::zeros(data.feature_dim);
        let a = run_round(&global, &data, 12, TrainConfig::default()).unwrap();
        let b = run_round(&global, &data, 12, TrainConfig::default()).unwrap();
        assert_eq!(a, b, "deterministic");
        assert_ne!(a, global, "training moved the model");
    }

    #[test]
    fn empty_participant_set_errors() {
        let data = CtrDataset::generate(&GeneratorConfig {
            n_devices: 2,
            n_test_devices: 1,
            feature_dim: 1 << 10,
            ..GeneratorConfig::default()
        });
        let global = LrModel::zeros(data.feature_dim);
        assert!(run_round(&global, &data, 0, TrainConfig::default()).is_err());
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join(format!("simdc-bench-test-{}", std::process::id()));
        let opts = ExpOptions {
            out_dir: dir.clone(),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let path = opts.write_json("probe", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn out_dir_below_a_regular_file_is_an_error_naming_it() {
        let file = std::env::temp_dir().join(format!("simdc-bench-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let opts = ExpOptions {
            out_dir: file.join("results"),
            ..ExpOptions::default()
        };
        let err = opts.create_out_dir().unwrap_err();
        std::fs::remove_file(&file).ok();
        let prefix = format!("{}: ", opts.out_dir.display());
        assert!(err.starts_with(&prefix), "{err}");
        assert!(err.len() > prefix.len(), "{err}");
    }
}
