//! P-rule suite: the seeded fixture *workspaces* under
//! `tests/fixtures/p_violations` and `tests/fixtures/p_clean` pin the
//! call-graph analysis end to end — every P-rule fires with an exact,
//! path-naming diagnostic on the seeded tree and stays silent on its
//! pure twin. The final tests prove the rules sharp on the real tree:
//! a lease release or a `RefCell` moved into the compute phase is caught.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{analyze_sources, lint_workspace, workspace_sources, Config};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan(name: &str) -> Vec<String> {
    let root = fixture_root(name);
    let cfg = Config::load(&root).expect("fixture simlint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("fixture scan succeeds");
    report.findings.iter().map(ToString::to_string).collect()
}

/// Every P-rule fires on the seeded workspace, and the rendered
/// diagnostics — including the entry → callee paths — are pinned
/// verbatim. Message wording is contract: CI logs are read by humans
/// chasing a red build.
#[test]
fn seeded_workspace_pins_every_p_rule_diagnostic() {
    assert_eq!(
        scan("p_violations"),
        vec![
            "crates/demo/src/lib.rs:38:28: [P2/interior-mutability] worker-reachable code constructs interior mutability `Mutex::new` — path: `Worker::build` → `Worker::tally`; worker results must be pure functions of (input, seed)",
            "crates/demo/src/lib.rs:40:30: [P2/interior-mutability] worker-reachable code uses interior mutability `Mutex::lock` — path: `Worker::build` → `Worker::tally`; worker results must be pure functions of (input, seed)",
            "crates/demo/src/lib.rs:51:17: [D3/freeze-release] lease `rm.release` outside the plan/commit pairing points () — freezes happen at admission, releases at the completion event, nowhere else",
            "crates/demo/src/lib.rs:51:17: [P1/shared-mutation] worker-reachable shared mutation `ResourceManager::release` — path: `Worker::build` → `Worker::finish`; shared state may only change in the serial prepare/merge phases (simlint.toml [rules.worker-purity])",
            "crates/demo/src/lib.rs:57:5: [P4/unregistered-spawner] worker fan-out `run_batch` outside the registered spawner sites () — every parallel region must be a reviewed prepare/compute/merge split (simlint.toml [rules.worker-purity] spawner_sites)",
            "simlint.toml:1:1: [P0/unresolved-config] [rules.worker-purity] entry `Ghost::missing` matches no function in the workspace — fix the spec or remove the stale entry",
        ]
    );
}

/// The pure twin — same policy surface, ordered containers, registered
/// spawner site — has zero findings.
#[test]
fn clean_workspace_has_zero_findings() {
    assert_eq!(scan("p_clean"), Vec::<String>::new());
}

/// The CLI gate holds on both fixture workspaces: violations exit 1
/// with their diagnostics on stdout, the pure twin exits 0.
#[test]
fn cli_gate_on_fixture_workspaces() {
    let run = |name: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
            .args(["--workspace", "--root"])
            .arg(fixture_root(name))
            .output()
            .expect("binary runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf8 stdout"),
        )
    };

    let (code, stdout) = run("p_violations");
    assert_eq!(code, 1, "{stdout}");
    for rule in [
        "[P0/unresolved-config]",
        "[P1/shared-mutation]",
        "[P2/interior-mutability]",
        "[P4/unregistered-spawner]",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = run("p_clean");
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.starts_with("simlint: clean"), "{stdout}");
}

/// Loads the real tree and policy, asserts the tree is clean and the
/// graph really spans the workspace, and returns (sources, config) ready
/// for an injection.
fn clean_real_tree() -> (Vec<(String, String)>, Config) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = Config::load(&root).expect("real simlint.toml parses");
    let sources = workspace_sources(&root).expect("real tree loads");
    let (findings, graph) = analyze_sources(&sources, &cfg);
    assert!(
        findings.is_empty(),
        "real tree must be clean before injection:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(graph.functions > 500, "graph too small: {graph:?}");
    assert!(graph.edges > 1000, "graph too sparse: {graph:?}");
    (sources, cfg)
}

/// Injects `extra` into the parallel compute step of `compute_one` and
/// returns the findings carrying `code`.
fn inject_into_compute_one(extra: &str, code: &str) -> Vec<String> {
    let (mut sources, cfg) = clean_real_tree();
    let dispatch = sources
        .iter_mut()
        .find(|(rel, _)| rel == "crates/core/src/dispatch.rs")
        .expect("dispatch.rs is in scope");
    let anchor = "let mut scratch = Storage::new();";
    assert!(dispatch.1.contains(anchor), "compute_one anchor moved");
    dispatch.1 = dispatch
        .1
        .replace(anchor, &format!("{anchor}\n    {extra}"));
    let (findings, _) = analyze_sources(&sources, &cfg);
    findings
        .iter()
        .filter(|f| f.code == code)
        .map(ToString::to_string)
        .collect()
}

/// Run against the *real* tree and the *real* policy without touching
/// the checkout: an `rm.release(...)` injected into the compute phase of
/// `compute_one` must produce a P1 finding that names the worker entry.
#[test]
fn injected_release_in_compute_phase_is_caught_on_the_real_tree() {
    let p1 = inject_into_compute_one("rm.release(spec.id);", "P1/shared-mutation");
    assert_eq!(p1.len(), 1, "exactly one P1 expected: {p1:?}");
    assert!(
        p1[0].contains("crates/core/src/dispatch.rs")
            && p1[0].contains("`ResourceManager::release`")
            && p1[0].contains("`compute_one`"),
        "P1 must name the sink and the worker entry: {}",
        p1[0]
    );
}

/// Why P2 is kept: the tree holds one reviewed `RefCell` (`PhoneMgr`'s
/// lazy index), and P2 is what proves it is not worker-reachable — the
/// same construction inside `compute_one` is caught.
#[test]
fn injected_refcell_in_compute_phase_is_caught_on_the_real_tree() {
    let p2 = inject_into_compute_one(
        "let memo = RefCell::new(spec.id);",
        "P2/interior-mutability",
    );
    assert_eq!(p2.len(), 1, "exactly one P2 expected: {p2:?}");
    assert!(
        p2[0].contains("crates/core/src/dispatch.rs")
            && p2[0].contains("`RefCell::new`")
            && p2[0].contains("`compute_one`"),
        "P2 must name the type and the worker entry: {}",
        p2[0]
    );
}
