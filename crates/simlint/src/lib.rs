//! `simlint`: SimDC's workspace determinism & invariant linter.
//!
//! The platform's core promise — same-seed runs are byte-identical and
//! the golden `table1`/`fig5` fixtures survive every PR — used to rest
//! on convention: ordered maps by habit, freeze/release pairing by
//! `debug_assert`, no wall-clock reads because nobody had added one yet.
//! `simlint` turns the project-specific conventions into checked
//! properties. It is an offline, dependency-free static-analysis pass
//! with its own lightweight Rust scanner ([`lexer`]); it does not parse
//! Rust — it lexes just enough to pattern-match the per-file rules in
//! [`rules`] without tripping over strings or doc comments. That is the
//! whole analysis: simlint decides what a token stream of one file can
//! decide. File-local policy exceptions are inline
//! `// simlint::allow(<rule>): <reason>` comments ([`suppress`]);
//! workspace policy lives in `simlint.toml` at the workspace root
//! ([`config`]).
//!
//! Run it over the workspace (the CI gate):
//!
//! ```text
//! cargo run -p simdc-simlint --release -- --workspace
//! ```
//!
//! Exit code 0 means a clean tree; any finding exits 1 and prints
//! GCC-style `path:line:col: [code] message` diagnostics.
//!
//! A check lives here only if no compiler-backed lint expresses it and
//! it can fire on a tree that passes the other gates: the generic bans
//! (hash-ordered collections, wall-clock reads, ambient entropy,
//! `env::var`, interior-mutability types) belong to `clippy.toml`,
//! public-item docs to rustc's `missing_docs`, and worker purity — no
//! shared mutation inside the parallel compute phase — to rustc itself:
//! `minipool::FixedPool::run_batch` demands `F: Fn(T) -> R + Sync`, and
//! its two `compile_fail` doctests pin that bound. See ARCHITECTURE.md
//! § "Static analysis & determinism discipline" for the per-rule audit
//! and the exception policy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use config::{Config, ConfigError};
pub use diag::Finding;
pub use rules::{lint_file, FileContext};
pub use walk::{find_workspace_root, lint_sources, lint_workspace, ScanReport};
