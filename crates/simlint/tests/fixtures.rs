//! Fixture suite: each rule family has a seeded-violation file under
//! `tests/fixtures/`, and the exact rendered diagnostics are pinned —
//! message wording is part of the tool's contract (CI logs are read by
//! humans chasing a red build).

use std::path::Path;

use simdc_simlint::{lint_file, Config, FileContext};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture exists")
}

/// The workspace policy, inlined so fixture expectations are
/// self-contained (and so a future edit to the real simlint.toml cannot
/// silently change what these tests assert).
fn policy() -> Config {
    Config::parse(
        r#"
[rules.freeze-release]
receivers = ["rm"]
types = ["ResourceManager"]
callers = ["crates/core/src/scheduler.rs", "crates/core/src/platform.rs"]

[rules.task-state]
owners = ["crates/core/src/queue.rs"]
guard = "TaskState"
"#,
    )
    .expect("policy parses")
}

fn render(name: &str, ctx: &FileContext, cfg: &Config) -> Vec<String> {
    render_source(name, &fixture(name), ctx, cfg)
}

fn render_source(name: &str, source: &str, ctx: &FileContext, cfg: &Config) -> Vec<String> {
    lint_file(name, source, ctx, cfg)
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn clean_fixture_has_zero_findings() {
    // The clean file must pass even as a crate root.
    let ctx = FileContext {
        is_crate_root: true,
    };
    assert_eq!(render("clean.rs", &ctx, &policy()), Vec::<String>::new());
}

#[test]
fn d3_lifecycle_discipline() {
    const TASK_STATE: &str = "d3_lifecycle.rs:7:12: [D3/task-state] task state assigned directly — route the transition through the `mark_*` APIs (crates/core/src/queue.rs) so terminal states stay terminal";
    const RM_RELEASE: &str = "d3_lifecycle.rs:8:8: [D3/freeze-release] lease `rm.release` outside the plan/commit pairing points (crates/core/src/scheduler.rs, crates/core/src/platform.rs) — freezes happen at admission, releases at the completion event, nowhere else";
    const RM_FREEZE: &str = "d3_lifecycle.rs:13:16: [D3/freeze-release] lease `rm.freeze` outside the plan/commit pairing points (crates/core/src/scheduler.rs, crates/core/src/platform.rs) — freezes happen at admission, releases at the completion event, nowhere else";
    let ctx = FileContext::default();
    assert_eq!(
        render("d3_lifecycle.rs", &ctx, &policy()),
        vec![
            TASK_STATE,
            RM_RELEASE,
            RM_FREEZE,
            // The renamed binding: the file names `ResourceManager`, so the
            // receiver's spelling does not matter.
            "d3_lifecycle.rs:21:16: [D3/freeze-release] `.release(` in a file that names `ResourceManager` (a lease call whatever the receiver is called) outside the plan/commit pairing points (crates/core/src/scheduler.rs, crates/core/src/platform.rs) — freezes happen at admission, releases at the completion event, nowhere else",
        ]
    );
    // The same lines in a file that does not name the lease type: the
    // `rm.*` calls still fire by receiver name, `leases.release(id)`
    // stays silent (it could be any type's `release`).
    let unnamed = fixture("d3_lifecycle.rs").replace("ResourceManager", "Leases");
    assert_eq!(
        render_source("d3_lifecycle.rs", &unnamed, &ctx, &policy()),
        vec![TASK_STATE, RM_RELEASE, RM_FREEZE]
    );
}

#[test]
fn d4_hygiene() {
    // As a crate root under the default config: both gates missing, one
    // bare unwrap.
    let ctx = FileContext {
        is_crate_root: true,
    };
    assert_eq!(
        render("d4_hygiene.rs", &ctx, &Config::default()),
        vec![
            "d4_hygiene.rs:1:1: [D4/lint-gates] crate root lacks `#![deny(missing_docs)]` — every public item must explain itself",
            "d4_hygiene.rs:1:1: [D4/lint-gates] crate root lacks `#![forbid(unsafe_code)]` — the simulator is safe-Rust only",
            "d4_hygiene.rs:6:11: [D4/unwrap-in-lib] `unwrap()` in library code — propagate the error or use `expect(\"invariant\")` to document why this cannot fail",
        ]
    );
}

#[test]
fn d4_expect_waived_by_policy_and_docs_by_gate() {
    assert_eq!(
        render("d4_hygiene.rs", &FileContext::default(), &policy()),
        vec![
            "d4_hygiene.rs:6:11: [D4/unwrap-in-lib] `unwrap()` in library code — propagate the error or use `expect(\"invariant\")` to document why this cannot fail",
        ],
        "off the crate root only the bare unwrap is simlint's: the `expect` is accepted, \
         and the undocumented pub fn is rustc's to flag under the `missing_docs` gate"
    );
}
