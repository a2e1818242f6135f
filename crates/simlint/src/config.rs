//! `simlint.toml`: the policy surface of the linter.
//!
//! Each rule's scope — the files that own task-state assignment, the
//! lease pairing points and what marks a lease call — is declared here,
//! so a policy change is a diffable, reviewable line. (Single-site
//! waivers are inline `simlint::allow` comments, see
//! [`crate::suppress`].) The format is a small TOML subset (tables,
//! strings, string arrays, `#` comments), parsed by hand because the
//! linter must not depend on the crates it audits (and the workspace
//! deliberately vendors no TOML parser).
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
    /// Type names that mark a file as lease-aware: in a file naming one
    /// outside test code, every `.freeze(..)` / `.release(..)` call is a
    /// lease operation whatever its receiver is called (so a renamed
    /// binding cannot dodge rule D3).
    pub lease_types: Vec<String>,
    /// Files allowed to call lease freeze/release: the plan/commit
    /// pairing points.
    pub lease_callers: Vec<String>,
    /// Files that own direct task-state assignment (the `mark_*` APIs).
    pub state_owners: Vec<String>,
    /// Identifier whose presence marks a file as task-lifecycle-aware;
    /// `.state = …` assignments are only policed in files referencing it
    /// (so unrelated `state` fields — RNG internals, node lifecycles —
    /// are not dragged in).
    pub state_guard: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            lease_receivers: vec!["rm".into()],
            lease_types: vec!["ResourceManager".into()],
            lease_callers: Vec::new(),
            state_owners: Vec::new(),
            state_guard: "TaskState".into(),
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
                "rules.task-state.owners" => config.state_owners = expect_list(&key, value)?,
                "rules.task-state.guard" => config.state_guard = expect_str(&key, value)?,
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
receivers = ["rm", "leases"]
types = ["ResourceManager"]
callers = [
    "crates/core/src/scheduler.rs", # reviewed: the plan step
    "crates/core/src/platform.rs",
]

[rules.task-state]
owners = ["crates/core/src/queue.rs"]
guard = "TaskState"
"##,
        )
        .expect("parses");
        assert_eq!(cfg.lease_receivers, vec!["rm", "leases"]);
        assert_eq!(cfg.lease_types, vec!["ResourceManager"]);
        assert_eq!(
            cfg.lease_callers,
            vec![
                "crates/core/src/scheduler.rs",
                "crates/core/src/platform.rs"
            ]
        );
        assert_eq!(cfg.state_owners, vec!["crates/core/src/queue.rs"]);
        assert_eq!(cfg.state_guard, "TaskState");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        // A typo, the keys whose rules moved to clippy.toml, and the
        // tables of the deleted call-graph and taint tiers.
        for doc in [
            "[rules.task-state]\nowner = []",
            "[workspace]\nharness = []",
            "[rules.hash-collections]\nallow = []",
            "[rules.worker-purity]\nentries = []",
            "[rules.determinism-taint]\nseed_args = []",
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
        assert!(cfg.state_owners.is_empty());
        assert!(cfg.lease_callers.is_empty());
        assert_eq!(cfg.lease_receivers, vec!["rm"]);
        assert_eq!(cfg.lease_types, vec!["ResourceManager"]);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Config::parse("[rules.task-state]\nowners = []\nowners = []").unwrap_err();
        assert!(err.0.contains("duplicate"), "{err}");
    }
}
