//! CLI entry point: `cargo run -p simdc-simlint --release -- --workspace`.

use std::path::PathBuf;
use std::process::ExitCode;

use simdc_simlint::{find_workspace_root, lint_workspace, Config};

const USAGE: &str = "usage: simlint --workspace [--root DIR] [--config FILE]

Lints the SimDC workspace for determinism & invariant violations; prints
`path:line:col: [code] message` diagnostics and exits 1 on any finding.
  --workspace        scan the whole workspace (required; explicit by design)
  --root DIR         workspace root (default: walk up from the current dir)
  --config FILE      simlint.toml to use (default: <root>/simlint.toml)";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage_error("--config needs a value"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage_error("pass --workspace to scan the workspace");
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => return fatal(&format!("cannot determine working directory: {e}")),
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => return fatal("no workspace root found above the current directory"),
            }
        }
    };

    let config = match config_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(text) => match Config::parse(&text) {
                Ok(c) => c,
                Err(e) => return fatal(&e.to_string()),
            },
            Err(e) => return fatal(&format!("read {}: {e}", p.display())),
        },
        None => match Config::load(&root) {
            Ok(c) => c,
            Err(e) => return fatal(&e.to_string()),
        },
    };

    let report = match lint_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => return fatal(&e),
    };
    let summary = if report.findings.is_empty() {
        format!("simlint: clean ({} files scanned)", report.files_scanned)
    } else {
        let files: std::collections::BTreeSet<&str> =
            report.findings.iter().map(|f| f.path.as_str()).collect();
        format!(
            "simlint: {} finding(s) in {} file(s) ({} files scanned)",
            report.findings.len(),
            files.len(),
            report.files_scanned
        )
    };
    for finding in &report.findings {
        println!("{finding}");
    }
    println!("{summary}");
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn fatal(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}");
    ExitCode::from(2)
}
