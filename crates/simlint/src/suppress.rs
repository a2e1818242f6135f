//! Inline suppression directives.
//!
//! A finding can be waived exactly where it fires with a line comment:
//!
//! ```text
//! // simlint::allow(<rule>): <reason>
//! ```
//!
//! * `<rule>` is a full rule code (`D4/unwrap-in-lib`, not `D4`) —
//!   an unknown code is a hard error (exit 2), so a typo can never
//!   silently widen the waiver.
//! * `<reason>` is mandatory: the comment is the review record for the
//!   exception, and an empty reason is a hard error.
//! * A trailing directive suppresses findings on its own line; a
//!   standalone directive suppresses the next code line (stacked
//!   directives and blank lines in between are fine — each targets the
//!   first following line that carries code).
//! * A directive that matches no finding is itself a finding
//!   (`S1/unused-suppression`), so stale waivers cannot rot in place.
//!
//! Only `simlint::allow` exists; any other `simlint::…` comment is a
//! hard error rather than a silently ignored near-miss.

use crate::diag::Finding;
use crate::lexer::{Comment, Token};

/// Every rule code a directive may name. `S1/unused-suppression` is
/// deliberately absent: suppressing the unused-suppression rule would
/// let dead waivers accumulate, which is the one thing it exists to
/// prevent.
pub const RULE_CODES: &[&str] = &[
    "D3/task-state",
    "D3/freeze-release",
    "D4/lint-gates",
    "D4/unwrap-in-lib",
];

/// A parsed, target-resolved suppression directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// Workspace-relative path of the file the directive sits in.
    pub path: String,
    /// 1-based line of the comment itself.
    pub line: u32,
    /// 1-based column of the comment itself.
    pub col: u32,
    /// The full rule code being waived.
    pub rule: String,
    /// The reviewer-facing justification.
    pub reason: String,
    /// The code line whose findings the directive suppresses.
    pub target: u32,
}

/// Parses one file's captured `simlint::` comments into directives.
/// Malformed directives are hard errors — the returned message carries
/// the file position, ready for the CLI's exit-2 path.
pub fn parse_directives(
    path: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> Result<Vec<Directive>, String> {
    let mut out = Vec::new();
    for c in comments {
        match parse_one(c, tokens) {
            Ok(d) => out.push(Directive {
                path: path.to_string(),
                ..d
            }),
            Err(msg) => {
                return Err(format!(
                    "{path}:{}:{}: malformed simlint directive: {msg}",
                    c.line, c.col
                ))
            }
        }
    }
    Ok(out)
}

fn parse_one(c: &Comment, tokens: &[Token]) -> Result<Directive, String> {
    let rest = c.text.strip_prefix("simlint::allow").ok_or_else(|| {
        format!(
            "unknown directive `{}` (only `simlint::allow(<rule>): <reason>` is recognized)",
            c.text
        )
    })?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or("expected `(` after `simlint::allow`")?;
    let close = rest
        .find(')')
        .ok_or("unterminated rule code (missing `)`)")?;
    let rule = rest[..close].trim();
    if !RULE_CODES.contains(&rule) {
        return Err(format!(
            "unknown rule code `{rule}` (use the full code, e.g. `D4/unwrap-in-lib`)"
        ));
    }
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix(':')
        .map(str::trim)
        .ok_or("missing `: <reason>` — every suppression must say why")?;
    if reason.is_empty() {
        return Err("empty reason — every suppression must say why".to_string());
    }
    let target = if c.trailing {
        c.line
    } else {
        tokens
            .iter()
            .find(|t| t.line > c.line)
            .map(|t| t.line)
            // No code follows: target the directive's own line, which can
            // match nothing, so the unused-suppression rule reports it.
            .unwrap_or(c.line)
    };
    Ok(Directive {
        path: String::new(),
        line: c.line,
        col: c.col,
        rule: rule.to_string(),
        reason: reason.to_string(),
        target,
    })
}

/// Applies directives to a finding set: findings matched by a directive
/// (same file, target line, and rule code) are removed. Returns the kept
/// findings plus a per-directive used flag, in directive order.
pub fn filter_suppressed(
    directives: &[Directive],
    findings: Vec<Finding>,
) -> (Vec<Finding>, Vec<bool>) {
    let mut used = vec![false; directives.len()];
    let kept = findings
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for (i, d) in directives.iter().enumerate() {
                if d.path == f.path && d.target == f.line && d.rule == f.code {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    (kept, used)
}

/// The `S1/unused-suppression` finding for a directive that matched
/// nothing.
pub fn unused_finding(d: &Directive) -> Finding {
    Finding {
        path: d.path.clone(),
        line: d.line,
        col: d.col,
        code: "S1/unused-suppression",
        message: format!(
            "suppression `simlint::allow({})` matched no finding on line {} — remove it, or fix the rule code it should waive",
            d.rule, d.target
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_with_comments;

    fn parse(src: &str) -> Result<Vec<Directive>, String> {
        let (tokens, comments) = lex_with_comments(src);
        parse_directives("crates/demo/src/lib.rs", &comments, &tokens)
    }

    #[test]
    fn trailing_directive_targets_its_own_line() {
        let ds = parse("fn f() {\n    let x = 1; // simlint::allow(D3/task-state): scratch\n}")
            .expect("parses");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].target, 2);
        assert_eq!(ds[0].rule, "D3/task-state");
        assert_eq!(ds[0].reason, "scratch");
    }

    #[test]
    fn standalone_directive_targets_the_next_code_line_across_blanks() {
        let src = "fn f() {\n    // simlint::allow(D4/unwrap-in-lib): checked two lines up\n    // simlint::allow(D3/task-state): replay harness rewinds\n\n    let x = 1;\n}";
        let ds = parse(src).expect("parses");
        assert_eq!(ds.len(), 2);
        // Both stacked directives land on the first following code line.
        assert_eq!(ds[0].target, 5);
        assert_eq!(ds[1].target, 5);
    }

    #[test]
    fn unknown_rule_code_is_a_hard_error() {
        let err = parse("// simlint::allow(D9/bogus): nope\nfn f() {}").unwrap_err();
        assert!(err.contains("unknown rule code `D9/bogus`"), "{err}");
        assert!(err.starts_with("crates/demo/src/lib.rs:1:1:"), "{err}");
        // A ban that moved to clippy.toml, a rule whose contract rustc
        // owns (`Fn + Sync`), and the given-up label check are no longer
        // simlint codes.
        for gone in [
            "D1/hash-collections",
            "P1/shared-mutation",
            "T1/rng-stream-aliasing",
        ] {
            let err = parse(&format!("// simlint::allow({gone}): old\nfn f() {{}}")).unwrap_err();
            assert!(
                err.contains(&format!("unknown rule code `{gone}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn short_rule_codes_are_rejected() {
        let err = parse("// simlint::allow(D3): terse\nfn f() {}").unwrap_err();
        assert!(err.contains("unknown rule code `D3`"), "{err}");
    }

    #[test]
    fn missing_reason_is_a_hard_error() {
        let err = parse("// simlint::allow(D3/freeze-release)\nfn f() {}").unwrap_err();
        assert!(err.contains("missing `: <reason>`"), "{err}");
        let err = parse("// simlint::allow(D3/freeze-release):   \nfn f() {}").unwrap_err();
        assert!(err.contains("empty reason"), "{err}");
    }

    #[test]
    fn unknown_directive_kind_is_a_hard_error() {
        let err = parse("// simlint::deny(D3/task-state): no\nfn f() {}").unwrap_err();
        assert!(err.contains("unknown directive"), "{err}");
    }

    #[test]
    fn filter_marks_used_and_removes_matched_findings() {
        let ds = parse("fn f() {\n    let x = 1; // simlint::allow(D3/task-state): fixture\n}")
            .expect("parses");
        let hit = Finding {
            path: "crates/demo/src/lib.rs".into(),
            line: 2,
            col: 5,
            code: "D3/task-state",
            message: "m".into(),
        };
        let miss = Finding {
            path: "crates/demo/src/lib.rs".into(),
            line: 2,
            col: 9,
            code: "D4/unwrap-in-lib",
            message: "m".into(),
        };
        let (kept, used) = filter_suppressed(&ds, vec![hit, miss]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].code, "D4/unwrap-in-lib");
        assert_eq!(used, vec![true]);
    }
}
