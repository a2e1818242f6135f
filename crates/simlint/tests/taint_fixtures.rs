//! T-rule suite: the seeded fixture *workspaces* under
//! `tests/fixtures/t_violations` and `tests/fixtures/t_clean` pin the
//! interprocedural taint analysis end to end — every T-rule fires with
//! an exact, path-naming diagnostic on the seeded tree and stays silent
//! on its deterministic twin (whose one reviewed `simlint::allow`
//! waiver must count as used). The final tests prove the acceptance
//! criteria on the real tree: an injected stream-label collision and an
//! injected drawn reseed are both caught with entry → sink paths.

use std::path::{Path, PathBuf};
use std::process::Command;

use simdc_simlint::{analyze_sources, lint_sources, lint_workspace, workspace_sources, Config};

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

/// Every T-rule fires on the seeded workspace, and the rendered
/// diagnostics — including the entry → callee paths and the T1
/// cross-reference between colliding label sites — are pinned verbatim.
/// Message wording is contract: CI logs are read by humans chasing a
/// red build.
#[test]
fn seeded_workspace_pins_every_t_rule_diagnostic() {
    assert_eq!(
        scan("t_violations"),
        vec![
            "crates/demo/src/lib.rs:64:34: [T1/rng-stream-aliasing] rng stream label \"worker\" is also used at crates/demo/src/lib.rs:65:29 — path: `Worker::build`; streams sharing a label draw identical sequences: give each stream a distinct label (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:65:29: [T1/rng-stream-aliasing] rng stream label \"worker\" is also used at crates/demo/src/lib.rs:64:34 — path: `Worker::build`; streams sharing a label draw identical sequences: give each stream a distinct label (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:66:37: [T1/rng-stream-aliasing] rng stream label for `RngStream::named` is not a constant string — path: `Worker::build`; non-literal labels cannot be audited for stream aliasing: use a string literal, or suppress with a reviewed `simlint::allow` (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:67:22: [T4/seed-provenance] argument reaches the seed of `RngStream::named` inside `mk` while carrying drawn or float taint — path: `Worker::build`; seeds must trace to the experiment seed or config (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:68:15: [T2/rng-escape] draw-tainted value flows into shared sink `EventQueue::push` — path: `Worker::build`; randomness may not escape the compute phase into shared or merge state (simlint.toml [rules.determinism-taint])",
            "crates/demo/src/lib.rs:70:17: [T2/rng-escape] draw-tainted value assigned to `ev.time` — path: `Worker::build`; `time` orders the deterministic merge and must not depend on draw order (simlint.toml [rules.determinism-taint])",
            "simlint.toml:1:1: [P0/unresolved-config] [rules.worker-purity] entry `Ghost::missing` matches no function in the workspace — fix the spec or remove the stale entry",
        ]
    );
}

/// The deterministic twin — distinct constant labels, ordered
/// containers, seeds traced to the experiment seed, a reviewed and
/// *used* `simlint::allow` waiver — has zero findings.
#[test]
fn clean_workspace_has_zero_findings() {
    assert_eq!(scan("t_clean"), Vec::<String>::new());
}

/// The CLI gate holds on both fixture workspaces: violations exit 1,
/// the clean twin exits 0 even though it contains a (used) waiver.
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

    let (code, stdout) = run("t_violations");
    assert_eq!(code, 1, "{stdout}");
    for rule in [
        "[T1/rng-stream-aliasing]",
        "[T2/rng-escape]",
        "[T4/seed-provenance]",
        "[P0/unresolved-config]",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }

    let (code, stdout) = run("t_clean");
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(
        stdout,
        "simlint: clean (1 files scanned; call graph: 7 fns, 7 edges)\n"
    );
}

/// A `simlint::allow` that suppresses nothing is itself a finding (S1):
/// stale waivers rot into false confidence and must be cleaned up.
#[test]
fn unused_suppression_is_reported_as_s1() {
    let files = vec![(
        "crates/demo/src/lib.rs".to_string(),
        concat!(
            "//! Demo.\n",
            "#![deny(missing_docs)]\n",
            "#![forbid(unsafe_code)]\n",
            "/// Nothing here needs a waiver.\n",
            "pub fn quiet() -> u64 {\n",
            "    // simlint::allow(T4/seed-provenance): stale waiver, nothing fires here\n",
            "    7\n",
            "}\n",
        )
        .to_string(),
    )];
    let report = lint_sources(&files, &Config::default()).expect("sources lint");
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/demo/src/lib.rs:6:5: [S1/unused-suppression] suppression `simlint::allow(T4/seed-provenance)` matched no finding on line 7 — remove it, or fix the rule code it should waive",
        ]
    );
}

/// Loads the real tree, asserts it is taint-clean under the real
/// policy, and returns (sources, config) ready for an injection.
fn clean_real_tree() -> (Vec<(String, String)>, Config) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = Config::load(&root).expect("real simlint.toml parses");
    let sources = workspace_sources(&root).expect("real tree loads");
    let (findings, _) = analyze_sources(&sources, &cfg);
    assert!(
        findings.is_empty(),
        "real tree must be clean before injection:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    (sources, cfg)
}

const DISPATCH_ANCHOR: &str =
    "let mut rng = RngStream::named(spec.seed, &format!(\"task/{}\", spec.id.0));";

fn inject_into_compute_one(sources: &mut [(String, String)], extra: &str) {
    let dispatch = sources
        .iter_mut()
        .find(|(rel, _)| rel == "crates/core/src/dispatch.rs")
        .expect("dispatch.rs is in scope");
    assert!(
        dispatch.1.contains(DISPATCH_ANCHOR),
        "compute_one anchor moved"
    );
    dispatch.1 = dispatch
        .1
        .replace(DISPATCH_ANCHOR, &format!("{DISPATCH_ANCHOR}\n    {extra}"));
}

/// Acceptance criterion, T1 on the real tree: forking a second stream
/// with the label `"deviceflow"` inside `compute_one` collides with the
/// existing fork in `TaskRunner::plan_timeline` (crates/core/runner.rs),
/// and both sites are reported, each naming the other.
#[test]
fn injected_label_collision_is_caught_on_the_real_tree() {
    let (mut sources, cfg) = clean_real_tree();
    inject_into_compute_one(&mut sources, "let mut dup = rng.fork(\"deviceflow\");");

    let (findings, _) = analyze_sources(&sources, &cfg);
    let t1: Vec<String> = findings
        .iter()
        .filter(|f| f.code == "T1/rng-stream-aliasing")
        .map(ToString::to_string)
        .collect();
    assert_eq!(t1.len(), 2, "both collision sites expected: {findings:?}");
    let injected = t1
        .iter()
        .find(|m| m.starts_with("crates/core/src/dispatch.rs"))
        .expect("injected site reported");
    let existing = t1
        .iter()
        .find(|m| m.starts_with("crates/core/src/runner.rs"))
        .expect("existing plan_timeline site reported");
    assert!(
        injected.contains("\"deviceflow\"")
            && injected.contains("is also used at crates/core/src/runner.rs")
            && injected.contains("`compute_one`"),
        "injected site must name the label, the other site and the entry: {injected}"
    );
    assert!(
        existing.contains("is also used at crates/core/src/dispatch.rs")
            && existing.contains("`TaskRunner::plan_timeline`"),
        "existing site must point back at the injection: {existing}"
    );
}

/// Acceptance criterion, T4 on the real tree: reseeding a stream from a
/// draw inside `compute_one` must produce a seed-provenance finding on
/// a path from the worker entry.
#[test]
fn injected_drawn_reseed_is_caught_on_the_real_tree() {
    let (mut sources, cfg) = clean_real_tree();
    inject_into_compute_one(
        &mut sources,
        "let reseed = rng.next_u64();\n    let mut rogue = RngStream::named(reseed, \"task/rogue\");",
    );

    let (findings, _) = analyze_sources(&sources, &cfg);
    let t4: Vec<String> = findings
        .iter()
        .filter(|f| f.code == "T4/seed-provenance")
        .map(ToString::to_string)
        .collect();
    assert_eq!(t4.len(), 1, "exactly one T4 expected: {findings:?}");
    assert!(
        t4[0].starts_with("crates/core/src/dispatch.rs")
            && t4[0].contains("`RngStream::named`")
            && t4[0].contains("`compute_one`"),
        "T4 must name the seed sink and the entry path: {}",
        t4[0]
    );
}
