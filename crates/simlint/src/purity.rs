//! The P-rule family: worker-purity race detection over the call graph.
//!
//! | code | rule | what it guards |
//! |------|------|----------------|
//! | `P0/unresolved-config` | every entry/exempt spec resolves | a typoed entry point is a gate that silently does nothing |
//! | `P1/shared-mutation` | no worker-reachable call into a shared-mutation sink | freeze/release, `mark_*`, event pushes and `PhoneMgr` writes belong to the serial prepare/merge phases |
//! | `P2/interior-mutability` | no worker-reachable `RefCell`/`Mutex`/`Cell`/atomics | interior mutability inside workers is a data race or a hidden ordering dependency |
//! | `P4/unregistered-spawner` | fan-out (`run_batch`) only at registered sites | every parallel region must be a reviewed prepare/compute/merge split |
//!
//! The analysis computes the transitive closure of functions reachable
//! from the worker entry points configured in `simlint.toml`
//! (`[rules.worker-purity] entries`) over the [`crate::callgraph`], then
//! flags any reachable call matching a configured sink. Diagnostics name
//! the full entry-point → sink path so a violation reads as the race it
//! would become. `exempt` entries prune the walk — the reviewed escape
//! hatch for context-insensitivity (e.g. `Engine::schedule_at`, which
//! workers only ever call on the DeviceFlow engine they own). The
//! T-rules ([`crate::taint`]) police the same reachable set.
//!
//! The same pass upgrades D3 freeze/release from receiver-name token
//! matching to call-graph-aware pairing: any call whose *resolved
//! receiver type* is a lease manager (`[rules.freeze-release] types`)
//! is flagged outside the blessed pairing points, however the receiver
//! is spelled.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::diag::Finding;
use crate::parser::parse_file;
use crate::symbols::{FnId, SymbolTable};

/// Constructor names policed by P2 on interior-mutability types.
const CTOR_METHODS: &[&str] = &["new", "default", "from", "with_capacity"];

/// Size of the graph the analysis ran over (reported by the CLI).
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Functions in the symbol table.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
}

/// A `Type::method` / `file.rs::name` / bare-name function spec, as
/// used by `entries` and `exempt`.
#[derive(Debug)]
struct FnSpec {
    raw: String,
    file: Option<String>,
    owner: Option<String>,
    name: String,
    wildcard: bool,
}

impl FnSpec {
    fn parse(raw: &str) -> FnSpec {
        let (file, rest) = match raw.split_once(".rs::") {
            Some((f, r)) => (Some(format!("{f}.rs")), r),
            None => (None, raw),
        };
        let (owner, name) = match rest.rsplit_once("::") {
            Some((o, n)) => (Some(o.to_string()), n),
            None => (None, rest),
        };
        let (name, wildcard) = match name.strip_suffix('*') {
            Some(p) => (p.to_string(), true),
            None => (name.to_string(), false),
        };
        FnSpec {
            raw: raw.to_string(),
            file,
            owner,
            name,
            wildcard,
        }
    }

    fn matches(&self, symbols: &SymbolTable, id: FnId) -> bool {
        let entry = &symbols.fns[id];
        if let Some(file) = &self.file {
            if !entry.file.ends_with(file.as_str()) {
                return false;
            }
        }
        if let Some(owner) = &self.owner {
            if entry.def.owner.as_deref() != Some(owner.as_str()) {
                return false;
            }
        }
        if self.wildcard {
            entry.def.name.starts_with(&self.name)
        } else {
            entry.def.name == self.name
        }
    }
}

/// One parsed mutation-sink pattern (shared with the T2 escape-sink
/// matching in [`crate::taint`]).
#[derive(Debug)]
pub(crate) enum SinkSpec {
    /// `Type::method` — matches by resolved receiver type or target.
    Typed(String, String),
    /// `recv.method` — matches by the raw receiver identifier.
    Recv(String, String),
    /// `prefix*` — matches any callee name with the prefix.
    Prefix(String),
    /// Bare `name` — matches any callee of that exact name.
    Bare(String),
}

impl SinkSpec {
    pub(crate) fn parse(raw: &str) -> SinkSpec {
        if let Some((ty, m)) = raw.split_once("::") {
            return SinkSpec::Typed(ty.to_string(), m.to_string());
        }
        if let Some((recv, m)) = raw.split_once('.') {
            return SinkSpec::Recv(recv.to_string(), m.to_string());
        }
        if let Some(prefix) = raw.strip_suffix('*') {
            return SinkSpec::Prefix(prefix.to_string());
        }
        SinkSpec::Bare(raw.to_string())
    }

    /// Whether `call` (resolved, in `graph`) hits this sink. Returns a
    /// display name for the matched sink.
    pub(crate) fn matches(
        &self,
        graph: &CallGraph,
        call: &crate::callgraph::ResolvedCall,
    ) -> Option<String> {
        match self {
            SinkSpec::Typed(ty, m) => {
                if call.name != *m {
                    return None;
                }
                let by_type = call.recv_types.iter().any(|t| t == ty);
                let by_target = call
                    .targets
                    .iter()
                    .any(|&t| graph.symbols.fns[t].def.owner.as_deref() == Some(ty.as_str()));
                (by_type || by_target).then(|| format!("{ty}::{m}"))
            }
            SinkSpec::Recv(recv, m) => (call.name == *m
                && call.prev_ident.as_deref() == Some(recv.as_str()))
            .then(|| format!("{recv}.{m}")),
            SinkSpec::Prefix(prefix) => call
                .name
                .starts_with(prefix.as_str())
                .then(|| format!("{}(..)", call.name)),
            SinkSpec::Bare(name) => (call.name == *name).then(|| name.clone()),
        }
    }
}

/// Matches a `Name` / `Prefix*` type pattern.
fn type_pat_match(pat: &str, ty: &str) -> bool {
    match pat.strip_suffix('*') {
        Some(prefix) => ty.starts_with(prefix),
        None => ty == pat,
    }
}

/// Runs the workspace-level analysis over already-loaded sources, then
/// applies inline `simlint::allow` suppressions (leniently — the full
/// pipeline in [`crate::walk`] hard-errors on malformed directives and
/// reports unused ones; this entry point serves tests and callers that
/// only want the surviving findings).
///
/// `files` are `(workspace-relative path, source)` pairs in scan order;
/// the same call serves the CLI walk and the in-memory test harness.
pub fn analyze_sources(files: &[(String, String)], cfg: &Config) -> (Vec<Finding>, GraphStats) {
    let (findings, stats) = workspace_findings(files, cfg);
    let mut directives = Vec::new();
    for (path, source) in files {
        let (tokens, comments) = crate::lexer::lex_with_comments(source);
        directives.extend(crate::suppress::parse_directives_lenient(
            path, &comments, &tokens,
        ));
    }
    let (kept, _) = crate::suppress::filter_suppressed(&directives, findings);
    (kept, stats)
}

/// The unsuppressed workspace-analysis findings: symbol table, call
/// graph, P-rules, T-rules, typed D3 leases and stale-config checks.
pub(crate) fn workspace_findings(
    files: &[(String, String)],
    cfg: &Config,
) -> (Vec<Finding>, GraphStats) {
    let parsed = files
        .iter()
        .map(|(path, source)| parse_file(path, source))
        .collect();
    let symbols = SymbolTable::build(parsed);
    let graph = CallGraph::build(symbols);
    let stats = GraphStats {
        functions: graph.symbols.fns.len(),
        edges: graph.edges,
    };
    let mut findings = Vec::new();
    if !cfg.purity_entries.is_empty() {
        let reach = Reach::walk(&graph, cfg, &mut findings);
        check_purity(&graph, cfg, &reach, &mut findings);
        crate::taint::check_taint(&graph, cfg, &reach, &mut findings);
    }
    check_spawners(&graph, cfg, &mut findings);
    check_typed_leases(&graph, cfg, &mut findings);
    check_stale_lease_types(&graph.symbols, cfg, &mut findings);
    (findings, stats)
}

/// Resolves a `[rules.worker-purity]` spec list against the table, in
/// spec order; a spec matching nothing is a `P0/unresolved-config`
/// finding.
fn resolve_specs(
    symbols: &SymbolTable,
    raws: &[String],
    kind: &str,
    findings: &mut Vec<Finding>,
) -> Vec<FnId> {
    let mut out = Vec::new();
    for raw in raws {
        let spec = FnSpec::parse(raw);
        let before = out.len();
        out.extend((0..symbols.fns.len()).filter(|&id| spec.matches(symbols, id)));
        if out.len() == before {
            findings.push(Finding {
                path: "simlint.toml".into(),
                line: 1,
                col: 1,
                code: "P0/unresolved-config",
                message: format!(
                    "[rules.worker-purity] {kind} `{}` matches no function in the \
                     workspace — fix the spec or remove the stale entry",
                    spec.raw
                ),
            });
        }
    }
    out
}

/// The worker-reachable function set both rule families police: a BFS
/// over the call graph from the `[rules.worker-purity] entries`, pruned
/// at the `exempt` functions.
pub(crate) struct Reach {
    /// Each reached function's BFS predecessor (`None` for an entry).
    pub(crate) preds: BTreeMap<FnId, Option<FnId>>,
    /// The functions the `exempt` specs resolved to.
    pub(crate) exempt: BTreeSet<FnId>,
}

impl Reach {
    /// Resolves the entry/exempt specs (stale ones become P0 findings)
    /// and walks the graph.
    pub(crate) fn walk(graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) -> Reach {
        let symbols = &graph.symbols;
        let entries = resolve_specs(symbols, &cfg.purity_entries, "entry", findings);
        let exempt: BTreeSet<FnId> = resolve_specs(symbols, &cfg.purity_exempt, "exempt", findings)
            .into_iter()
            .collect();
        let mut preds: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for id in entries {
            if !exempt.contains(&id) && !preds.contains_key(&id) {
                preds.insert(id, None);
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            for next in graph.successors(id) {
                if !exempt.contains(&next) && !preds.contains_key(&next) {
                    preds.insert(next, Some(id));
                    queue.push_back(next);
                }
            }
        }
        Reach { preds, exempt }
    }

    /// The `entry → … → fn` chain for diagnostics.
    pub(crate) fn path_to(&self, symbols: &SymbolTable, id: FnId) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(Some(parent)) = self.preds.get(&cur) {
            chain.push(*parent);
            cur = *parent;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&f| format!("`{}`", symbols.fns[f].def.display()))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Stale-config check for `[rules.freeze-release] types`: a lease type
/// that names no type in the workspace is a gate that silently does
/// nothing. Only checked once the workspace has actually configured the
/// rule (non-empty `callers`) — the built-in default type list must not
/// trip projects that never opted in.
fn check_stale_lease_types(symbols: &SymbolTable, cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.lease_callers.is_empty() {
        return;
    }
    for ty in &cfg.lease_types {
        if !symbols.types.contains(ty) {
            findings.push(Finding {
                path: "simlint.toml".into(),
                line: 1,
                col: 1,
                code: "P0/unresolved-config",
                message: format!(
                    "[rules.freeze-release] types `{ty}` matches no type in the \
                     workspace — fix the spec or remove the stale entry"
                ),
            });
        }
    }
}

/// P1/P2: per-call sink checks over the worker-reachable set.
fn check_purity(graph: &CallGraph, cfg: &Config, reach: &Reach, findings: &mut Vec<Finding>) {
    let symbols = &graph.symbols;
    let sinks: Vec<SinkSpec> = cfg
        .mutation_sinks
        .iter()
        .map(|s| SinkSpec::parse(s))
        .collect();

    let mut reported: BTreeSet<(String, u32, u32, &'static str)> = BTreeSet::new();
    for &id in reach.preds.keys() {
        let file = symbols.fns[id].file.clone();
        let chain = reach.path_to(symbols, id);
        for call in &graph.calls[id] {
            // P1: configured shared-mutation sinks.
            for sink in &sinks {
                if let Some(display) = sink.matches(graph, call) {
                    if reported.insert((file.clone(), call.line, call.col, "P1/shared-mutation")) {
                        findings.push(Finding {
                            path: file.clone(),
                            line: call.line,
                            col: call.col,
                            code: "P1/shared-mutation",
                            message: format!(
                                "worker-reachable shared mutation `{display}` — path: {chain}; \
                                 shared state may only change in the serial prepare/merge \
                                 phases (simlint.toml [rules.worker-purity])"
                            ),
                        });
                    }
                }
            }
            // P2: interior-mutability constructors / uses.
            for ty in call
                .recv_types
                .iter()
                .filter(|ty| {
                    cfg.interior_mutability
                        .iter()
                        .any(|pat| type_pat_match(pat, ty.as_str()))
                })
                .take(1)
            {
                let is_ctor = !call.is_method && CTOR_METHODS.contains(&call.name.as_str());
                let verb = if is_ctor { "constructs" } else { "uses" };
                if reported.insert((file.clone(), call.line, call.col, "P2/interior-mutability")) {
                    findings.push(Finding {
                        path: file.clone(),
                        line: call.line,
                        col: call.col,
                        code: "P2/interior-mutability",
                        message: format!(
                            "worker-reachable code {verb} interior mutability \
                             `{ty}::{}` — path: {chain}; worker results must be pure \
                             functions of (input, seed)",
                            call.name
                        ),
                    });
                }
            }
        }
    }
}

/// P4: fan-out primitives only at registered spawner sites.
fn check_spawners(graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.spawners.is_empty() {
        return;
    }
    for (id, entry) in graph.symbols.fns.iter().enumerate() {
        let file = &entry.file;
        if cfg.spawner_sites.iter().any(|s| s == file) {
            continue;
        }
        for call in &graph.calls[id] {
            if cfg.spawners.iter().any(|s| s == &call.name) {
                findings.push(Finding {
                    path: file.clone(),
                    line: call.line,
                    col: call.col,
                    code: "P4/unregistered-spawner",
                    message: format!(
                        "worker fan-out `{}` outside the registered spawner sites ({}) — \
                         every parallel region must be a reviewed prepare/compute/merge \
                         split (simlint.toml [rules.worker-purity] spawner_sites)",
                        call.name,
                        cfg.spawner_sites.join(", ")
                    ),
                });
            }
        }
    }
}

/// Call-graph-aware D3: lease operations matched by *resolved receiver
/// type*, not just receiver spelling — a renamed `ResourceManager`
/// binding cannot dodge the pairing-point rule.
fn check_typed_leases(graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.lease_types.is_empty() {
        return;
    }
    for (id, entry) in graph.symbols.fns.iter().enumerate() {
        let file = &entry.file;
        if cfg.lease_callers.iter().any(|c| c == file) {
            continue;
        }
        for call in &graph.calls[id] {
            if call.name != "freeze" && call.name != "release" {
                continue;
            }
            // Already caught by the receiver-name token rule? Skip —
            // one diagnostic per site.
            if call
                .prev_ident
                .as_deref()
                .is_some_and(|r| cfg.lease_receivers.iter().any(|lr| lr == r))
            {
                continue;
            }
            let matched = call
                .recv_types
                .iter()
                .find(|ty| cfg.lease_types.iter().any(|lt| lt == *ty))
                .cloned()
                .or_else(|| {
                    call.targets
                        .iter()
                        .filter_map(|&t| graph.symbols.fns[t].def.owner.clone())
                        .find(|o| cfg.lease_types.iter().any(|lt| lt == o))
                });
            if let Some(ty) = matched {
                findings.push(Finding {
                    path: file.clone(),
                    line: call.line,
                    col: call.col,
                    code: "D3/freeze-release",
                    message: format!(
                        "lease `{ty}::{}` (resolved by receiver type) outside the \
                         plan/commit pairing points ({}) — freezes happen at admission, \
                         releases at the completion event, nowhere else",
                        call.name,
                        cfg.lease_callers.join(", ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(entries: &[&str], exempt: &[&str], sinks: &[&str]) -> Config {
        Config {
            purity_entries: entries.iter().map(ToString::to_string).collect(),
            purity_exempt: exempt.iter().map(ToString::to_string).collect(),
            mutation_sinks: sinks.iter().map(ToString::to_string).collect(),
            ..Config::default()
        }
    }

    fn run(src: &str, cfg: &Config) -> Vec<String> {
        let files = vec![("crates/a/src/lib.rs".to_string(), src.to_string())];
        let (findings, _) = analyze_sources(&files, cfg);
        findings.iter().map(ToString::to_string).collect()
    }

    const CHAIN: &str = "struct Rm {}\nimpl Rm { fn release(&mut self, id: u64) { let _ = id; } }\nstruct W { rm: Rm }\nimpl W {\n    fn entry(&mut self) { self.mid(); }\n    fn mid(&mut self) { self.rm.release(1); }\n}\n";

    #[test]
    fn sink_reached_through_a_chain_names_the_path() {
        let findings = run(CHAIN, &cfg(&["W::entry"], &[], &["Rm::release"]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("[P1/shared-mutation]")
                && findings[0].contains("`Rm::release`")
                && findings[0].contains("`W::entry` → `W::mid`"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn exempting_the_mediator_prunes_the_whole_subtree() {
        let findings = run(CHAIN, &cfg(&["W::entry"], &["W::mid"], &["Rm::release"]));
        assert_eq!(findings, Vec::<String>::new());
    }

    #[test]
    fn wildcard_exempt_matches_every_method_of_the_type() {
        let findings = run(CHAIN, &cfg(&["W::entry"], &["W::*"], &["Rm::release"]));
        assert_eq!(findings, Vec::<String>::new());
    }

    #[test]
    fn typed_sinks_survive_receiver_renaming() {
        // The binding is not called `rm`; only the resolved receiver
        // type can match the sink spec.
        let src = "struct Rm {}\nimpl Rm { fn release(&mut self, id: u64) { let _ = id; } }\nfn entry(leases: &mut Rm) { leases.release(1); }\n";
        let findings = run(
            src,
            &cfg(&["crates/a/src/lib.rs::entry"], &[], &["Rm::release"]),
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("`Rm::release`"), "{}", findings[0]);
    }

    #[test]
    fn stale_entry_and_exempt_specs_are_hard_findings() {
        let findings = run(CHAIN, &cfg(&["Ghost::entry"], &["Ghost::*"], &[]));
        assert_eq!(findings.len(), 2, "{findings:?}");
        for f in &findings {
            assert!(
                f.starts_with("simlint.toml:1:1: [P0/unresolved-config]"),
                "{f}"
            );
        }
        assert!(findings.iter().any(|f| f.contains("entry `Ghost::entry`")));
        assert!(findings.iter().any(|f| f.contains("exempt `Ghost::*`")));
    }

    #[test]
    fn stale_lease_type_is_a_hard_finding_once_the_rule_is_configured() {
        let cfg = Config {
            lease_callers: vec!["W::entry".into()],
            lease_types: vec!["GhostLease".into()],
            ..Config::default()
        };
        let findings = run(CHAIN, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].starts_with("simlint.toml:1:1: [P0/unresolved-config]")
                && findings[0].contains("[rules.freeze-release] types `GhostLease`"),
            "{}",
            findings[0]
        );
    }

    #[test]
    fn default_lease_types_do_not_trip_unconfigured_projects() {
        // `lease_callers` empty → the built-in default type list must
        // stay silent even though none of its names exist here.
        let findings = run(CHAIN, &Config::default());
        assert_eq!(findings, Vec::<String>::new());
    }

    #[test]
    fn code_not_reachable_from_an_entry_is_not_policed() {
        // Same sink, but nothing links `entry` to it.
        let src = "struct Rm {}\nimpl Rm { fn release(&mut self, id: u64) { let _ = id; } }\nstruct W { rm: Rm }\nimpl W {\n    fn entry(&self) -> u64 { 1 }\n    fn serial(&mut self) { self.rm.release(1); }\n}\n";
        let findings = run(src, &cfg(&["W::entry"], &[], &["Rm::release"]));
        assert_eq!(findings, Vec::<String>::new());
    }

    #[test]
    fn empty_entry_list_disables_the_reachability_rules() {
        let findings = run(CHAIN, &cfg(&[], &[], &["Rm::release"]));
        assert_eq!(findings, Vec::<String>::new());
    }
}
