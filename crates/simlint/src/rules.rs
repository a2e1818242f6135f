//! The per-file token rules: the project-specific disciplines no
//! compiler-backed lint can express.
//!
//! | code | rule | what it guards |
//! |------|------|----------------|
//! | `D3/task-state` | `.state = …` only inside the `mark_*` owner files | terminal-state discipline is an API, not a convention |
//! | `D3/freeze-release` | lease `freeze`/`release` only at pairing points — matched by receiver name, and by any receiver in a file naming the lease type | every freeze must meet its release at the completion event |
//! | `D4/lint-gates` | crate roots carry `deny(missing_docs)` + `forbid(unsafe_code)` | hygiene gates stay on as crates are added |
//! | `D4/unwrap-in-lib` | no bare `.unwrap()` in library code | library panics carry an invariant message or propagate |
//!
//! The generic determinism bans (hash-ordered collections, wall-clock
//! reads, ambient entropy, interior mutability) are owned by
//! `clippy.toml`, public-item docs by rustc's `missing_docs` and worker
//! purity by rustc's `Fn + Sync` bound on `run_batch` (both of which
//! lean on the gates `D4/lint-gates` keeps switched on) — see the audit
//! table in ARCHITECTURE.md.
//!
//! Test-gated code (`#[cfg(test)]`, `#[test]`) is exempt from all rules:
//! the discipline protects simulation behavior, not test scaffolding.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{lex, TokKind, Token};

/// Per-file facts the walker supplies alongside the source text.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Whether this file is a crate root (`src/lib.rs`), where the
    /// hygiene gates must sit.
    pub is_crate_root: bool,
}

/// Lints one file; `path` must be workspace-relative with `/` separators.
pub fn lint_file(path: &str, source: &str, ctx: &FileContext, cfg: &Config) -> Vec<Finding> {
    let tokens = lex(source);
    let mut findings = Vec::new();
    rule_task_state(path, &tokens, cfg, &mut findings);
    rule_freeze_release(path, &tokens, cfg, &mut findings);
    if ctx.is_crate_root {
        rule_lint_gates(path, &tokens, &mut findings);
    }
    rule_unwrap(path, &tokens, &mut findings);
    crate::diag::sort_findings(&mut findings);
    findings
}

fn finding(path: &str, tok: &Token, code: &'static str, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        code,
        message,
    }
}

/// D3: direct task-state assignment outside the `mark_*` owner files.
///
/// Only files that reference the lifecycle type (`TaskState` by default)
/// are policed; `state` fields of unrelated types (RNG internals, node
/// lifecycles) keep their name without tripping the rule.
fn rule_task_state(path: &str, tokens: &[Token], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.state_owners.iter().any(|o| o == path) {
        return;
    }
    if !tokens
        .iter()
        .any(|t| !t.in_test && t.is_ident(&cfg.state_guard))
    {
        return;
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test || !t.is_ident("state") {
            continue;
        }
        // Pattern: `. state =` with the `=` not part of `==`, `=>`.
        if i == 0 || !tokens[i - 1].is_punct(".") {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        if !next.is_punct("=") {
            continue;
        }
        if tokens
            .get(i + 2)
            .is_some_and(|t| t.is_punct("=") || t.is_punct(">"))
        {
            continue;
        }
        out.push(finding(
            path,
            t,
            "D3/task-state",
            format!(
                "task state assigned directly — route the transition through the \
                 `mark_*` APIs ({}) so terminal states stay terminal",
                cfg.state_owners.join(", ")
            ),
        ));
    }
}

/// D3: lease freeze/release outside the plan/commit pairing points.
///
/// A `.freeze(` / `.release(` call is a lease operation when its
/// receiver is one of the configured names (`rm`), or — whatever the
/// receiver is called — when the file names a lease type
/// (`ResourceManager`) outside test code, so `let leases = &mut self.rm`
/// cannot dodge the rule. Files that never mention the type keep their
/// unrelated `freeze`/`release` methods (`BytesMut`, node groups).
fn rule_freeze_release(path: &str, tokens: &[Token], cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.lease_callers.iter().any(|c| c == path) {
        return;
    }
    let lease_type = cfg
        .lease_types
        .iter()
        .find(|ty| tokens.iter().any(|t| !t.in_test && t.is_ident(ty)));
    for i in 1..tokens.len() {
        let method = &tokens[i];
        if method.in_test
            || !(method.is_ident("freeze") || method.is_ident("release"))
            || !tokens[i - 1].is_punct(".")
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let named_receiver = i >= 2
            && cfg
                .lease_receivers
                .iter()
                .any(|name| tokens[i - 2].is_ident(name));
        let what = if named_receiver {
            format!("lease `{}.{}`", tokens[i - 2].text, method.text)
        } else if let Some(ty) = lease_type {
            format!(
                "`.{}(` in a file that names `{ty}` (a lease call whatever the \
                 receiver is called)",
                method.text
            )
        } else {
            continue;
        };
        out.push(finding(
            path,
            method,
            "D3/freeze-release",
            format!(
                "{what} outside the plan/commit pairing points ({}) — \
                 freezes happen at admission, releases at the completion event, \
                 nowhere else",
                cfg.lease_callers.join(", ")
            ),
        ));
    }
}

/// D4: crate roots must carry both hygiene gates.
fn rule_lint_gates(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let has = |ident: &str| tokens.iter().any(|t| t.is_ident(ident));
    let origin = Token {
        line: 1,
        col: 1,
        text: String::new(),
        kind: TokKind::Punct,
        in_test: false,
    };
    if !(has("deny") && has("missing_docs")) {
        out.push(finding(
            path,
            &origin,
            "D4/lint-gates",
            "crate root lacks `#![deny(missing_docs)]` — every public item must \
             explain itself"
                .to_string(),
        ));
    }
    if !(has("forbid") && has("unsafe_code")) {
        out.push(finding(
            path,
            &origin,
            "D4/lint-gates",
            "crate root lacks `#![forbid(unsafe_code)]` — the simulator is \
             safe-Rust only"
                .to_string(),
        ));
    }
}

/// D4: bare `.unwrap()` in library code. `.expect("…")` is accepted:
/// the message documents the invariant whose violation panics.
fn rule_unwrap(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test || !t.is_punct(".") {
            continue;
        }
        let Some(method) = tokens.get(i + 1) else {
            continue;
        };
        if method.is_ident("unwrap")
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            out.push(finding(
                path,
                method,
                "D4/unwrap-in-lib",
                "`unwrap()` in library code — propagate the error or use \
                 `expect(\"invariant\")` to document why this cannot fail"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> Vec<Finding> {
        lint_file("x.rs", source, &FileContext::default(), &Config::default())
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn state_assignment_needs_the_guard_ident() {
        // No TaskState reference: a `state` field of some other type.
        assert!(run("fn f(s: &mut Rng) { s.state = 1; }").is_empty());
        // With the guard referenced, assignment is flagged…
        let src = "use x::TaskState;\nfn f(r: &mut Rec) { r.state = TaskState::Pending; }";
        assert_eq!(codes(&run(src)), vec!["D3/task-state"]);
        // …but comparisons and matches are not.
        let cmp = "use x::TaskState;\nfn f(r: &Rec) -> bool { r.state == TaskState::Pending }";
        assert!(run(cmp).is_empty());
    }

    #[test]
    fn state_owner_file_is_exempt() {
        let cfg = Config {
            state_owners: vec!["owner.rs".into()],
            ..Config::default()
        };
        let src = "use x::TaskState;\nfn f(r: &mut Rec) { r.state = TaskState::Pending; }";
        let f = lint_file("owner.rs", src, &FileContext::default(), &cfg);
        assert!(f.is_empty());
    }

    #[test]
    fn lease_calls_match_receiver_not_type() {
        // `rm` receiver outside a pairing point: flagged (freeze + release).
        let f = run("fn f(rm: &mut Rm) { rm.freeze(t, c); rm.release(t); }");
        assert_eq!(codes(&f), vec!["D3/freeze-release", "D3/freeze-release"]);
        // `buf.freeze()` (BytesMut) has a different receiver: clean.
        assert!(run("fn f(buf: BytesMut) -> Bytes { buf.freeze() }").is_empty());
        // Pairing-point file is exempt.
        let cfg = Config {
            lease_callers: vec!["pair.rs".into()],
            ..Config::default()
        };
        let ok = lint_file(
            "pair.rs",
            "fn f(rm: &mut Rm) { rm.freeze(t, c); }",
            &FileContext::default(),
            &cfg,
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn lease_type_guard_catches_any_receiver_outside_test_code() {
        // A renamed binding and an expression receiver, in a file that
        // names the lease type: both are lease calls.
        let src = "fn f(p: &mut P, _: &ResourceManager) {\n    let leases = &mut p.rm;\n    leases.release(1);\n    p.leases().freeze(2, c);\n}";
        let f = run(src);
        assert_eq!(codes(&f), vec!["D3/freeze-release", "D3/freeze-release"]);
        assert_eq!((f[0].line, f[0].col), (3, 12));
        assert!(f[1]
            .message
            .starts_with("`.freeze(` in a file that names `ResourceManager`"));
        // Naming the type only in test code does not arm the guard, and
        // test code itself is never policed.
        let gated = "fn f(buf: BytesMut) -> Bytes { buf.freeze() }\n#[cfg(test)]\nmod tests {\n    fn t(m: &mut ResourceManager) { m.release(1); }\n}";
        assert!(run(gated).is_empty());
    }

    #[test]
    fn self_rm_calls_are_caught() {
        let f = run("impl P { fn f(&mut self) { self.rm.release(id); } }");
        assert_eq!(codes(&f), vec!["D3/freeze-release"]);
    }

    #[test]
    fn crate_root_gates_required() {
        let ctx = FileContext {
            is_crate_root: true,
        };
        let f = lint_file("lib.rs", "//! Docs.\n", &ctx, &Config::default());
        assert_eq!(codes(&f), vec!["D4/lint-gates", "D4/lint-gates"]);
        let ok = lint_file(
            "lib.rs",
            "//! Docs.\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n",
            &ctx,
            &Config::default(),
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn unwrap_flagged_expect_accepted() {
        let f = run("fn f(o: Option<u8>) -> u8 { o.unwrap() }");
        assert_eq!(codes(&f), vec!["D4/unwrap-in-lib"]);
        // An expect message documents the invariant: accepted.
        assert!(run("fn f(o: Option<u8>) -> u8 { o.expect(\"set\") }").is_empty());
        // `unwrap_or` must not match the unwrap pattern.
        assert!(run("fn f(o: Option<u8>) -> u8 { o.unwrap_or(0) }").is_empty());
    }
}
