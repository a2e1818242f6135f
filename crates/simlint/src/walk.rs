//! Workspace discovery: which files get linted, and with what context.
//!
//! The scan covers the façade crate (`src/`) and every member under
//! `crates/*/src/`. Deliberately out of scope:
//!
//! * `vendor/` — offline stand-ins for external crates; not SimDC code;
//! * `tests/`, `benches/`, `examples/` directories — test scaffolding
//!   (in-file `#[cfg(test)]` modules are already exempted by the lexer);
//! * `target/` and anything else outside the two source roots.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::{sort_findings, Finding};
use crate::lexer::lex_with_comments;
use crate::rules::{lint_file, FileContext};
use crate::suppress::{filter_suppressed, parse_directives, unused_finding};

/// The result of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, sorted by path and position.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Walks the workspace at `root` and lints every in-scope file.
///
/// # Errors
///
/// Returns a message when the root does not look like the SimDC
/// workspace or a source file cannot be read.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<ScanReport, String> {
    lint_sources(&workspace_sources(root)?, cfg)
}

/// Loads every in-scope file of the workspace at `root` as
/// `(workspace-relative path, source)` pairs in scan order: the façade
/// crate's `src/`, then each `crates/*/src` member by name.
///
/// # Errors
///
/// Returns a message when the root does not look like the SimDC
/// workspace or a source file cannot be read.
fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() || !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like the workspace root (no crates/ + Cargo.toml)",
            root.display()
        ));
    }

    // Crate source roots: the façade crate plus every crates/* member.
    let mut src_roots: Vec<PathBuf> = Vec::new();
    if root.join("src").is_dir() {
        src_roots.push(root.join("src"));
    }
    let mut members: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read crates/: {e}"))?;
        if entry.path().is_dir() {
            members.push(entry.path());
        }
    }
    members.sort();
    for member in members {
        let src = member.join("src");
        if src.is_dir() {
            src_roots.push(src);
        }
    }

    let mut sources: Vec<(String, String)> = Vec::new();
    for src_root in src_roots {
        let mut files = Vec::new();
        collect_rs_files(&src_root, &mut files)?;
        files.sort();
        for file in files {
            let rel = relative_slash_path(root, &file);
            let source =
                fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
            sources.push((rel, source));
        }
    }
    Ok(sources)
}

/// Runs the full lint pipeline over already-loaded sources: per-file
/// token rules, inline `simlint::allow` suppression, and
/// `S1/unused-suppression` reporting.
///
/// `files` are `(workspace-relative path, source)` pairs in scan order
/// — the same pipeline serves [`lint_workspace`] and in-memory tests.
///
/// # Errors
///
/// Returns a message on a malformed suppression directive (unknown rule
/// code, missing reason) — directives are policy, and a typo must never
/// silently widen a waiver.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> Result<ScanReport, String> {
    let mut findings = Vec::new();
    let mut directives = Vec::new();
    for (path, source) in files {
        let ctx = FileContext {
            is_crate_root: path_is_crate_root(path),
        };
        findings.extend(lint_file(path, source, &ctx, cfg));
        let (tokens, comments) = lex_with_comments(source);
        directives.extend(parse_directives(path, &comments, &tokens)?);
    }
    // Inline suppressions: drop waived findings, then report every
    // directive that waived nothing.
    let (mut findings, used) = filter_suppressed(&directives, findings);
    for (directive, used) in directives.iter().zip(used) {
        if !used {
            findings.push(unused_finding(directive));
        }
    }
    sort_findings(&mut findings);
    Ok(ScanReport {
        findings,
        files_scanned: files.len(),
    })
}

/// Whether a workspace-relative path is a crate root (`src/lib.rs` of
/// the façade crate or of a `crates/*` member).
fn path_is_crate_root(path: &str) -> bool {
    let segs: Vec<&str> = path.split('/').collect();
    matches!(
        segs.as_slice(),
        ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"]
    )
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators, for stable diagnostics.
fn relative_slash_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking up from `start` until a directory
/// holds both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
