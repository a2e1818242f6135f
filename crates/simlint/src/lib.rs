//! `simlint`: SimDC's workspace determinism & invariant linter.
//!
//! The platform's core promise — same-seed runs are byte-identical and
//! the golden `table1`/`fig5` fixtures survive every PR — used to rest
//! on convention: ordered maps by habit, freeze/release pairing by
//! `debug_assert`, no wall-clock reads because nobody had added one yet.
//! `simlint` turns each convention into a checked property. It is an
//! offline, dependency-free static-analysis pass with its own
//! lightweight Rust scanner ([`lexer`]); it does not parse Rust fully —
//! it lexes just enough to pattern-match the project-specific rules in
//! [`rules`] without tripping over strings or doc comments. On top of
//! the lexer sits a workspace-level layer — an item parser
//! ([`parser`]), a cross-file symbol table ([`symbols`]) and a resolved
//! call graph ([`callgraph`]) — powering the P-rule purity analysis
//! ([`purity`]): the transitive worker-reachability check that makes
//! the sharded core's "no shared mutation off the serial phases"
//! contract a static gate instead of a runtime hope.
//!
//! Above the call graph sits the value-flow tier: statement-level
//! def-use extraction ([`dataflow`]) and the interprocedural
//! determinism-taint analysis ([`taint`]) behind the T-rules — rng
//! stream-label aliasing, draws escaping the compute phase, and seed
//! provenance. File-local policy exceptions
//! are inline `// simlint::allow(<rule>): <reason>` comments
//! ([`suppress`]); workspace policy lives in `simlint.toml` at the
//! workspace root ([`config`]).
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
//! `env::var`) belong to `clippy.toml`, public-item docs to rustc's
//! `missing_docs`. See ARCHITECTURE.md § "Static analysis & determinism
//! discipline" for the per-rule audit and the exception policy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod purity;
pub mod rules;
pub mod suppress;
pub mod symbols;
pub mod taint;
pub mod walk;

pub use config::{Config, ConfigError};
pub use diag::Finding;
pub use purity::{analyze_sources, GraphStats};
pub use rules::{lint_file, FileContext};
pub use taint::{function_summaries, TaintSummary, DRAWN, FLOATY, STREAM};
pub use walk::{find_workspace_root, lint_sources, lint_workspace, workspace_sources, ScanReport};
