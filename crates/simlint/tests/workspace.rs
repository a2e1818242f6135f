//! Workspace-level self-tests: the real tree is clean under the real
//! policy, and the CLI's exit codes hold on seeded mini-workspaces.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{lint_workspace, Config};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The gate this whole crate exists for: the SimDC tree has zero
/// findings under the committed `simlint.toml`.
#[test]
fn the_workspace_is_clean() {
    let root = workspace_root();
    let config = Config::load(&root).expect("simlint.toml parses");
    let report = lint_workspace(&root, &config).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace has simlint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually covered the tree (all 12 crates + root).
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The generic determinism bans are `clippy.toml`'s to enforce, not
/// simlint's — and tier-1 does not run clippy, so pin the entries here:
/// silently dropping a moved ban must fail `cargo test`, not just CI.
#[test]
fn clippy_toml_owns_the_moved_bans() {
    let clippy = std::fs::read_to_string(workspace_root().join("clippy.toml"))
        .expect("clippy.toml at the workspace root");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
    ] {
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\", reason = ")),
            "clippy.toml lost its `{path}` ban"
        );
    }
}

/// Builds a throwaway mini-workspace containing `lib_source` as the only
/// crate and returns the CLI's (exit_code, stdout).
fn run_cli_on(tag: &str, lib_source: &str) -> (i32, String) {
    let root = std::env::temp_dir().join(format!("simlint-cli-{}-{tag}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create mini workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src.join("lib.rs"), lib_source).expect("write lib.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&root);
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
    )
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture exists")
}

#[test]
fn cli_exits_zero_on_a_clean_tree() {
    let (code, stdout) = run_cli_on("clean", &fixture("clean.rs"));
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("simlint: clean"), "{stdout}");
}

#[test]
fn cli_exits_nonzero_on_each_seeded_rule_family() {
    for name in ["d3_lifecycle.rs", "d4_hygiene.rs"] {
        let (code, stdout) = run_cli_on(name, &fixture(name));
        assert_eq!(code, 1, "{name} must fail the gate:\n{stdout}");
        assert!(
            stdout.contains("crates/demo/src/lib.rs:"),
            "{name} diagnostics must point into the mini workspace:\n{stdout}"
        );
        assert!(stdout.contains("finding(s)"), "{name}: {stdout}");
    }
}

#[test]
fn cli_rejects_bad_usage_and_bad_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing --workspace is usage error"
    );

    let root = std::env::temp_dir().join(format!("simlint-badcfg-{}", std::process::id()));
    std::fs::create_dir_all(root.join("crates")).expect("create root");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(root.join("simlint.toml"), "[rules.nope]\nallowed = 3\n").expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(out.status.code(), Some(2), "bad config is a hard error");
}
