//! Workspace-level self-tests: the real tree is clean under the real
//! policy, and the CLI's exit codes hold on seeded mini-workspaces.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{lint_sources, lint_workspace, Config};

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
/// The interior-mutability list is the half of the worker-purity
/// contract rustc's `Fn + Sync` bound cannot see (`Sync` cells), and
/// `clippy.toml` is its only owner.
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
        "std::cell::RefCell",
        "std::cell::Cell",
        "std::cell::OnceCell",
        "std::cell::UnsafeCell",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::OnceLock",
        "std::sync::LazyLock",
        "std::sync::atomic::AtomicBool",
        "std::sync::atomic::AtomicI8",
        "std::sync::atomic::AtomicI16",
        "std::sync::atomic::AtomicI32",
        "std::sync::atomic::AtomicI64",
        "std::sync::atomic::AtomicIsize",
        "std::sync::atomic::AtomicU8",
        "std::sync::atomic::AtomicU16",
        "std::sync::atomic::AtomicU32",
        "std::sync::atomic::AtomicU64",
        "std::sync::atomic::AtomicUsize",
        "std::sync::atomic::AtomicPtr",
    ] {
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\", reason = ")),
            "clippy.toml lost its `{path}` ban"
        );
    }
}

/// Builds a throwaway mini-workspace containing `lib_source` as the only
/// crate (and `config` as its `simlint.toml`, when given) and returns
/// the CLI's (exit_code, stdout, stderr).
fn run_cli(tag: &str, lib_source: &str, config: Option<&str>) -> (i32, String, String) {
    let root = std::env::temp_dir().join(format!("simlint-cli-{}-{tag}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create mini workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src.join("lib.rs"), lib_source).expect("write lib.rs");
    if let Some(config) = config {
        std::fs::write(root.join("simlint.toml"), config).expect("write config");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
        .args(["--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&root);
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
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
    let (code, stdout, _) = run_cli("clean", &fixture("clean.rs"), None);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout, "simlint: clean (1 files scanned)\n");
}

#[test]
fn cli_exits_nonzero_on_each_seeded_rule_family() {
    for name in ["d3_lifecycle.rs", "d4_hygiene.rs"] {
        let (code, stdout, _) = run_cli(name, &fixture(name), None);
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

    // Bad configs: an unsupported value, and the tables of the deleted
    // call-graph and taint tiers (unknown keys now).
    for (tag, config, expected) in [
        (
            "nope",
            "[rules.nope]\nallowed = 3\n",
            "unsupported value `3`",
        ),
        (
            "purity",
            "[rules.worker-purity]\nentries = []\n",
            "unknown key `rules.worker-purity.entries`",
        ),
        (
            "taint",
            "[rules.determinism-taint]\nseed_args = []\n",
            "unknown key `rules.determinism-taint.seed_args`",
        ),
    ] {
        let (code, _, stderr) = run_cli(tag, &fixture("clean.rs"), Some(config));
        assert_eq!(code, 2, "{tag}: bad config is a hard error:\n{stderr}");
        assert!(stderr.contains(expected), "{tag}: {stderr}");
    }

    // Waivers naming a retired rule code: the six PR 15 moved to
    // clippy.toml / rustc, and the call-graph and taint codes whose
    // contract rustc's `Fn + Sync` owns (or nobody does: T1).
    for gone in [
        "D1/hash-collections",
        "D2/wall-clock",
        "D2/ambient-entropy",
        "D4/pub-docs",
        "P3/unordered-iteration",
        "T3/unordered-float-reduction",
        "P1/shared-mutation",
        "T1/rng-stream-aliasing",
    ] {
        let source = format!(
            "{}\n// simlint::allow({gone}): x\nfn waived() {{}}\n",
            fixture("clean.rs")
        );
        let tag = gone.replace('/', "-");
        let (code, _, stderr) = run_cli(&tag, &source, None);
        assert_eq!(code, 2, "{gone} is no longer a rule code:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown rule code `{gone}`")),
            "{gone}: {stderr}"
        );
    }
}

/// A `simlint::allow` that suppresses nothing is itself a finding (S1):
/// stale waivers rot into false confidence and must be cleaned up. A
/// waiver that does suppress its finding leaves the tree clean.
#[test]
fn unused_suppression_is_reported_as_s1() {
    let lib = |body: &str| {
        let source = [
            "//! Demo.",
            "#![deny(missing_docs)]",
            "#![forbid(unsafe_code)]",
            "/// Takes the value.",
            "pub fn take(o: Option<u64>) -> u64 {",
            "    // simlint::allow(D4/unwrap-in-lib): checked by the caller",
            body,
            "}",
        ]
        .join("\n");
        vec![("crates/demo/src/lib.rs".to_string(), source)]
    };
    let render = |files: &[(String, String)]| -> Vec<String> {
        lint_sources(files, &Config::default())
            .expect("sources lint")
            .findings
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    assert_eq!(render(&lib("    o.unwrap()")), Vec::<String>::new());
    assert_eq!(
        render(&lib("    o.unwrap_or(7)")),
        vec![
            "crates/demo/src/lib.rs:6:5: [S1/unused-suppression] suppression `simlint::allow(D4/unwrap-in-lib)` matched no finding on line 7 — remove it, or fix the rule code it should waive",
        ]
    );
}
