//! The workspace's lint gates stay switched on. rustc and clippy enforce
//! them, but only while the attributes and `clippy.toml` entries exist —
//! and tier-1 does not run clippy — so deleting a gate must fail
//! `cargo test`, not just CI. Which gate owns which rule:
//! ARCHITECTURE.md, "Static analysis & determinism discipline".

use std::path::{Path, PathBuf};

/// No bare `.unwrap()` outside test code: on every library crate root
/// and on every binary's `main.rs`.
const UNWRAP_GATE: &str = "#![deny(clippy::unwrap_used)]";

/// The attributes every library crate root carries: public items are
/// documented, no `unsafe`, and the unwrap gate.
const ROOT_GATES: [&str; 3] = [
    "#![deny(missing_docs)]",
    "#![forbid(unsafe_code)]",
    UNWRAP_GATE,
];

/// Every entry of `clippy.toml`'s `disallowed-types` and
/// `disallowed-methods` lists: the generic determinism bans, whose only
/// enforcement is the CI clippy step.
const CLIPPY_BANS: [&str; 28] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::collections::hash_map::RandomState",
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::env::var",
    "std::env::var_os",
    "std::env::vars",
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
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `src/<file>` of the façade crate and of every `crates/*` member that
/// has one, in name order.
fn crate_files(file: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path().join("src").join(file))
        .chain([root().join("src").join(file)])
        .filter(|path| path.is_file())
        .collect();
    out.sort();
    out
}

/// The gates of `path` that are missing, as whole source lines.
fn missing_gates(path: &Path, gates: &[&'static str]) -> Vec<&'static str> {
    let source = std::fs::read_to_string(path).expect("crate file is readable");
    gates
        .iter()
        .copied()
        .filter(|gate| !source.lines().any(|line| line.trim() == *gate))
        .collect()
}

#[test]
fn every_crate_root_carries_the_lint_gates() {
    let roots = crate_files("lib.rs");
    assert!(roots.len() >= 12, "found only {} crate roots", roots.len());
    let binaries = crate_files("main.rs");
    assert!(!binaries.is_empty(), "simdc-bench's main.rs not found");
    let missing: Vec<String> = roots
        .iter()
        .map(|path| (path, missing_gates(path, &ROOT_GATES)))
        .chain(
            binaries
                .iter()
                .map(|path| (path, missing_gates(path, &[UNWRAP_GATE]))),
        )
        .filter(|(_, gates)| !gates.is_empty())
        .map(|(path, gates)| format!("{}: {gates:?}", path.display()))
        .collect();
    assert!(
        missing.is_empty(),
        "lint gates removed:\n{}",
        missing.join("\n")
    );
}

#[test]
fn clippy_toml_keeps_every_ban() {
    let clippy =
        std::fs::read_to_string(root().join("clippy.toml")).expect("clippy.toml at the root");
    for path in CLIPPY_BANS {
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\", reason = ")),
            "clippy.toml lost its `{path}` ban"
        );
    }
    assert!(
        clippy
            .lines()
            .any(|l| l.trim() == "allow-unwrap-in-tests = true"),
        "clippy.toml lost `allow-unwrap-in-tests`: the crate roots' \
         unwrap_used gate would then fire on #[cfg(test)] code"
    );
}
