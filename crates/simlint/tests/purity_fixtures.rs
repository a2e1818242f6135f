//! P-rule suite: the seeded fixture *workspaces* under
//! `tests/fixtures/p_violations` and `tests/fixtures/p_clean` pin the
//! call-graph analysis end to end — every P-rule fires with an exact,
//! path-naming diagnostic on the seeded tree and stays silent on its
//! pure twin. A final test proves the acceptance criterion on the real
//! tree: moving a lease release into the compute phase is caught.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{analyze_sources, lint_workspace, Config};

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
            "crates/demo/src/lib.rs:43:34: [P3/unordered-iteration] worker-reachable iteration over unordered `HashMap` state (`.iter()`) — path: `Worker::build` → `Worker::tally`; iteration order would vary run to run",
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

/// The CLI gate holds on both fixture workspaces, and `--format json`
/// on the clean one reproduces the committed-baseline document byte for
/// byte.
#[test]
fn cli_gate_and_json_baseline_on_fixture_workspaces() {
    let run = |name: &str, format: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_simdc-simlint"))
            .args(["--workspace", "--format", format, "--root"])
            .arg(fixture_root(name))
            .output()
            .expect("binary runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf8 stdout"),
        )
    };

    let (code, stdout) = run("p_violations", "text");
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[P1/shared-mutation]"), "{stdout}");

    let (code, json) = run("p_violations", "json");
    assert_eq!(code, 1, "{json}");
    assert!(
        json.contains("\"code\": \"P4/unregistered-spawner\""),
        "{json}"
    );

    let (code, json) = run("p_clean", "json");
    assert_eq!(code, 0, "{json}");
    assert_eq!(
        json, "{\n  \"findings\": []\n}\n",
        "clean JSON must match the committed simlint-baseline.json"
    );
}

/// Collects the real workspace's in-scope sources exactly as the walk
/// does (root `src/` plus `crates/*/src`, `/`-separated relative paths).
fn real_sources(root: &Path) -> Vec<(String, String)> {
    fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("readable source dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                collect(&path, root, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let source = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel, source));
            }
        }
    }
    let mut out = Vec::new();
    if root.join("src").is_dir() {
        collect(&root.join("src"), root, &mut out);
    }
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    members.sort();
    for member in members {
        collect(&member.join("src"), root, &mut out);
    }
    out
}

/// The ISSUE's acceptance criterion, run against the *real* tree and the
/// *real* policy without touching the checkout: injecting an
/// `rm.release(...)` into the compute phase of `compute_one` must
/// produce a P1 finding that names the worker entry.
#[test]
fn injected_release_in_compute_phase_is_caught_on_the_real_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = Config::load(&root).expect("real simlint.toml parses");
    let mut sources = real_sources(&root);

    // Baseline: the unmodified tree is P-clean under the real policy.
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
    // The graph really spans the workspace, not just one crate.
    assert!(graph.functions > 500, "graph too small: {graph:?}");
    assert!(graph.edges > 1000, "graph too sparse: {graph:?}");

    // Inject the race: a lease release inside the parallel compute step.
    let dispatch = sources
        .iter_mut()
        .find(|(rel, _)| rel == "crates/core/src/dispatch.rs")
        .expect("dispatch.rs is in scope");
    let anchor = "let mut scratch = Storage::new();";
    assert!(dispatch.1.contains(anchor), "compute_one anchor moved");
    dispatch.1 = dispatch.1.replace(
        anchor,
        "let mut scratch = Storage::new();\n    rm.release(spec.id);",
    );

    let (findings, _) = analyze_sources(&sources, &cfg);
    let p1: Vec<String> = findings
        .iter()
        .filter(|f| f.code == "P1/shared-mutation")
        .map(ToString::to_string)
        .collect();
    assert_eq!(p1.len(), 1, "exactly one P1 expected: {findings:?}");
    assert!(
        p1[0].contains("crates/core/src/dispatch.rs")
            && p1[0].contains("`ResourceManager::release`")
            && p1[0].contains("`compute_one`"),
        "P1 must name the sink and the worker entry: {}",
        p1[0]
    );
}
