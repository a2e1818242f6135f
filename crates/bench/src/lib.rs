//! Shared plumbing for the SimDC experiment harness.
//!
//! Every table and figure of the paper's evaluation is a module under
//! [`exp`], registered in [`exp::ALL`] and run by name through the one
//! `simdc-bench` binary (`src/main.rs`); this library holds the bits they
//! share: CLI parsing, result serialization and small text-rendering
//! helpers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use std::path::PathBuf;

use serde::Serialize;

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
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (this is a
    /// developer-facing binary).
    #[must_use]
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Self {
        let mut opts = ExpOptions::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed must be an integer");
                }
                "--quick" => opts.quick = true,
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().expect("--out needs a value"));
                }
                other => {
                    panic!("unknown argument '{other}' (supported: --seed N, --quick, --out DIR)")
                }
            }
        }
        opts
    }

    /// Writes `value` as pretty JSON to `<out_dir>/<name>.json` and returns
    /// the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure (experiment runs want loud
    /// failures).
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create results directory");
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
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join(format!("simdc-bench-test-{}", std::process::id()));
        let opts = ExpOptions {
            out_dir: dir.clone(),
            ..ExpOptions::default()
        };
        let path = opts.write_json("probe", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_dir_all(dir).ok();
    }
}
