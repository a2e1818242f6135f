//! `simlint.toml`: the policy surface of the linter.
//!
//! Each rule's scope — the files that own task-state assignment, the
//! lease pairing points, the worker entry points and their reviewed
//! prunes, the sink lists — is declared here, so a policy change is a
//! diffable, reviewable line. (Single-site waivers are inline
//! `simlint::allow` comments, see [`crate::suppress`].) The format is a
//! small TOML subset (tables, strings, string arrays, `#` comments),
//! parsed by hand because the linter must not depend on the crates it
//! audits (and the workspace deliberately vendors no TOML parser).
//!
//! Unknown keys are hard errors: a typoed list that silently parses is
//! a list that silently does nothing.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A parse or validation error in `simlint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simlint.toml: {}", self.0)
    }
}

/// One parsed TOML value (the subset simlint uses).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    List(Vec<String>),
}

/// The linter configuration. `Config::default()` is the strictest
/// setting — everything the workspace relaxes is in its `simlint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Receiver identifiers whose `.freeze(..)` / `.release(..)` calls
    /// are lease operations (rule D3), as opposed to e.g.
    /// `BytesMut::freeze`.
    pub lease_receivers: Vec<String>,
    /// Receiver *types* whose `.freeze(..)` / `.release(..)` calls are
    /// lease operations, matched through the call graph's receiver-type
    /// resolution (so a renamed binding cannot dodge rule D3).
    pub lease_types: Vec<String>,
    /// Files allowed to call lease freeze/release: the plan/commit
    /// pairing points.
    pub lease_callers: Vec<String>,
    /// Worker entry points the P- and T-rules walk from (`Type::method`,
    /// `file.rs::name` or bare-name specs). Empty means both analyses
    /// are off — the workspace opts in via `simlint.toml`.
    pub purity_entries: Vec<String>,
    /// Functions pruned from the reachability walk: the reviewed escape
    /// hatch for call-graph over-approximation.
    pub purity_exempt: Vec<String>,
    /// Shared-mutation sink patterns for P1 (`Type::method`,
    /// `recv.method`, `prefix*` or bare names).
    pub mutation_sinks: Vec<String>,
    /// Interior-mutability type patterns for P2.
    pub interior_mutability: Vec<String>,
    /// Fan-out call names policed by P4 (e.g. `run_batch`).
    pub spawners: Vec<String>,
    /// Files allowed to call the spawners: the registered parallel
    /// regions.
    pub spawner_sites: Vec<String>,
    /// Files that own direct task-state assignment (the `mark_*` APIs).
    pub state_owners: Vec<String>,
    /// Identifier whose presence marks a file as task-lifecycle-aware;
    /// `.state = …` assignments are only policed in files referencing it
    /// (so unrelated `state` fields — RNG internals, node lifecycles —
    /// are not dragged in).
    pub state_guard: String,
    /// Type heads whose values *are* rng streams: seeds the `STREAM`
    /// taint bit, and any method on such a receiver counts as a draw
    /// unless listed in [`Config::fork_methods`].
    pub stream_types: Vec<String>,
    /// Methods on a stream receiver that produce another stream rather
    /// than a draw (`fork`, `clone`).
    pub fork_methods: Vec<String>,
    /// `name:argindex` / `Type::method:argindex` positions that consume
    /// a root seed (rule T4 polices their provenance).
    pub seed_args: Vec<String>,
    /// `name:argindex` / `Type::method:argindex` positions that consume
    /// a stream label (rule T1 polices constancy and uniqueness).
    pub label_args: Vec<String>,
    /// Shared-state sink patterns for T2 (same grammar as the P1
    /// `mutation_sinks`): calls where a draw-tainted argument means
    /// randomness escaped the compute phase.
    pub escape_sinks: Vec<String>,
    /// Field names whose assignment from a draw-tainted value is a T2
    /// escape (`time`, `seq` — the deterministic-merge ordering keys).
    pub tainted_fields: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            lease_receivers: vec!["rm".into()],
            lease_types: vec!["ResourceManager".into()],
            lease_callers: Vec::new(),
            purity_entries: Vec::new(),
            purity_exempt: Vec::new(),
            mutation_sinks: Vec::new(),
            interior_mutability: vec![
                "RefCell".into(),
                "Cell".into(),
                "UnsafeCell".into(),
                "Mutex".into(),
                "RwLock".into(),
                "OnceCell".into(),
                "OnceLock".into(),
                "LazyLock".into(),
                "Atomic*".into(),
            ],
            spawners: Vec::new(),
            spawner_sites: Vec::new(),
            state_owners: Vec::new(),
            state_guard: "TaskState".into(),
            stream_types: vec!["RngStream".into(), "SplitMix64".into()],
            fork_methods: vec!["fork".into(), "clone".into()],
            seed_args: vec!["derive_seed:0".into(), "RngStream::named:0".into()],
            label_args: vec!["RngStream::named:1".into(), "RngStream::fork:0".into()],
            escape_sinks: Vec::new(),
            tainted_fields: vec!["time".into(), "seq".into()],
        }
    }
}

impl Config {
    /// Parses a `simlint.toml` document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on malformed syntax or unknown keys.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let values = parse_toml(text)?;
        let mut config = Config::default();
        for (key, value) in values {
            match key.as_str() {
                "rules.freeze-release.receivers" => {
                    config.lease_receivers = expect_list(&key, value)?;
                }
                "rules.freeze-release.types" => {
                    config.lease_types = expect_list(&key, value)?;
                }
                "rules.freeze-release.callers" => {
                    config.lease_callers = expect_list(&key, value)?;
                }
                "rules.worker-purity.entries" => {
                    config.purity_entries = expect_list(&key, value)?;
                }
                "rules.worker-purity.exempt" => {
                    config.purity_exempt = expect_list(&key, value)?;
                }
                "rules.worker-purity.mutation_sinks" => {
                    config.mutation_sinks = expect_list(&key, value)?;
                }
                "rules.worker-purity.interior_mutability" => {
                    config.interior_mutability = expect_list(&key, value)?;
                }
                "rules.worker-purity.spawners" => {
                    config.spawners = expect_list(&key, value)?;
                }
                "rules.worker-purity.spawner_sites" => {
                    config.spawner_sites = expect_list(&key, value)?;
                }
                "rules.task-state.owners" => config.state_owners = expect_list(&key, value)?,
                "rules.task-state.guard" => config.state_guard = expect_str(&key, value)?,
                "rules.determinism-taint.stream_types" => {
                    config.stream_types = expect_list(&key, value)?;
                }
                "rules.determinism-taint.fork_methods" => {
                    config.fork_methods = expect_list(&key, value)?;
                }
                "rules.determinism-taint.seed_args" => {
                    config.seed_args = expect_list(&key, value)?;
                }
                "rules.determinism-taint.label_args" => {
                    config.label_args = expect_list(&key, value)?;
                }
                "rules.determinism-taint.escape_sinks" => {
                    config.escape_sinks = expect_list(&key, value)?;
                }
                "rules.determinism-taint.tainted_fields" => {
                    config.tainted_fields = expect_list(&key, value)?;
                }
                _ => return Err(ConfigError(format!("unknown key `{key}`"))),
            }
        }
        Ok(config)
    }

    /// Loads the config from `<root>/simlint.toml`; absent file means
    /// default (strictest) settings.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the file exists but does not parse.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        match std::fs::read_to_string(root.join("simlint.toml")) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(ConfigError(format!("unreadable: {e}"))),
        }
    }
}

fn expect_list(key: &str, value: Value) -> Result<Vec<String>, ConfigError> {
    match value {
        Value::List(v) => Ok(v),
        _ => Err(ConfigError(format!("`{key}` must be a string array"))),
    }
}

fn expect_str(key: &str, value: Value) -> Result<String, ConfigError> {
    match value {
        Value::Str(s) => Ok(s),
        _ => Err(ConfigError(format!("`{key}` must be a string"))),
    }
}

/// Parses the TOML subset into dotted-key → value pairs.
fn parse_toml(text: &str) -> Result<BTreeMap<String, Value>, ConfigError> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| ConfigError(format!("line {}: unterminated table header", n + 1)))?;
            section = name.trim().to_string();
            continue;
        }
        let (key, mut value_text) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| ConfigError(format!("line {}: expected `key = value`", n + 1)))?;
        // Multi-line arrays: keep consuming until the closing bracket.
        if value_text.starts_with('[') {
            while !value_text.trim_end().ends_with(']') {
                let (_, cont) = lines
                    .next()
                    .ok_or_else(|| ConfigError(format!("line {}: unterminated array", n + 1)))?;
                value_text.push(' ');
                value_text.push_str(strip_comment(cont).trim());
            }
        }
        let full_key = if section.is_empty() {
            key
        } else {
            format!("{section}.{key}")
        };
        let value = parse_value(value_text.trim())
            .map_err(|e| ConfigError(format!("line {}: {e}", n + 1)))?;
        if out.insert(full_key.clone(), value).is_some() {
            return Err(ConfigError(format!("duplicate key `{full_key}`")));
        }
    }
    Ok(out)
}

/// Drops a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(inner) = text.strip_prefix('"') {
        let s = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let body = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?
            .trim();
        let mut items = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue; // trailing comma
                }
                match parse_value(item)? {
                    Value::Str(s) => items.push(s),
                    _ => return Err("arrays may only hold strings".into()),
                }
            }
        }
        return Ok(Value::List(items));
    }
    Err(format!("unsupported value `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_surface() {
        let cfg = Config::parse(
            r##"
# comment
[rules.freeze-release]
receivers = ["rm"]
callers = ["crates/core/src/platform.rs"]

[rules.task-state]
owners = ["crates/core/src/queue.rs"]
guard = "TaskState"

[rules.worker-purity]
entries = [
    "Worker::build", # reviewed: the parallel region's root
    "crates/a/src/x.rs::compute",
]
"##,
        )
        .expect("parses");
        assert_eq!(cfg.lease_callers, vec!["crates/core/src/platform.rs"]);
        assert_eq!(cfg.state_owners, vec!["crates/core/src/queue.rs"]);
        assert_eq!(
            cfg.purity_entries,
            vec!["Worker::build", "crates/a/src/x.rs::compute"]
        );
    }

    #[test]
    fn unknown_keys_are_rejected() {
        // A typo, and the keys whose rules moved to clippy.toml.
        for doc in [
            "[rules.task-state]\nowner = []",
            "[workspace]\nharness = []",
            "[rules.hash-collections]\nallow = []",
            "[rules.determinism-taint]\nentries = []",
        ] {
            let err = Config::parse(doc).unwrap_err();
            assert!(err.0.contains("unknown key"), "{doc}: {err}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Config::parse("just text").is_err());
        assert!(Config::parse("[unclosed").is_err());
        assert!(Config::parse("k = [\"a\"").is_err());
        assert!(Config::parse("[t]\nk = 17").is_err());
    }

    #[test]
    fn empty_and_missing_config_are_strict_defaults() {
        let cfg = Config::parse("").expect("empty parses");
        assert!(cfg.purity_entries.is_empty());
        assert!(cfg.lease_callers.is_empty());
        assert_eq!(cfg.lease_receivers, vec!["rm"]);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Config::parse("[rules.task-state]\nowners = []\nowners = []").unwrap_err();
        assert!(err.0.contains("duplicate"), "{err}");
    }
}
