//! The workspace call graph: every call site resolved against the
//! [`crate::symbols::SymbolTable`], with receiver types inferred from
//! parameters, `let` bindings, struct fields and generic trait bounds.
//!
//! Resolution is *nominal and conservative in the direction the purity
//! rules need*: when a receiver's type cannot be inferred, the call
//! falls back to linking every same-named method in the workspace —
//! unless the name is on the [`UBIQUITOUS`] list (`push`, `iter`,
//! `clone`, …), where a union over `Vec::push` lookalikes would drown
//! the graph in false edges. A missed edge can hide a violation only if
//! the callee is *also* unreachable by name and type — the sink specs
//! in `simlint.toml` close that gap by matching resolved target
//! functions as well as receiver types and raw receiver names.
//!
//! Like the rest of simlint the graph is context-insensitive: a
//! function body is one node regardless of who calls it. Where that
//! over-approximates (e.g. `Engine::schedule_at` on a DeviceFlow engine
//! a worker owns privately being indistinguishable from a push into
//! shared event state), the exception is a named, reviewed `exempt`
//! entry in `simlint.toml` — never a weaker graph.

use std::collections::BTreeMap;

use crate::parser::{Callee, Receiver};
use crate::symbols::{FnId, SymbolTable};

/// Method names too common for unknown-receiver fallback resolution:
/// linking every `.push(..)` to `EventQueue::push` (etc.) would create
/// edges from nearly every function to nearly every collection-shaped
/// API. Typed receivers still resolve these precisely.
pub const UBIQUITOUS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "parse",
    "partial_cmp",
    "pop",
    "push",
    "remove",
    "retain",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sum",
    "take",
    "to_string",
    "to_vec",
    "trim",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "zip",
];

/// One call site with everything resolution could establish.
#[derive(Debug)]
pub struct ResolvedCall {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// The simple (last-segment) callee name.
    pub name: String,
    /// The identifier immediately before the `.` for method calls.
    pub prev_ident: Option<String>,
    /// Receiver / path types the call is known to go through — the
    /// receiver's inferred type head, or the `Type` of a `Type::method`
    /// path call. Empty when inference failed.
    pub recv_types: Vec<String>,
    /// Workspace functions this call can land in.
    pub targets: Vec<FnId>,
    /// Whether this is a method call (`recv.name(..)`).
    pub is_method: bool,
}

/// The resolved call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// The underlying symbol table.
    pub symbols: SymbolTable,
    /// Per-function resolved call sites (indexed by [`FnId`]).
    pub calls: Vec<Vec<ResolvedCall>>,
    /// Total number of edges (target links across all call sites).
    pub edges: usize,
}

impl CallGraph {
    /// Resolves every call site in `symbols` into a graph.
    pub fn build(symbols: SymbolTable) -> CallGraph {
        let mut calls: Vec<Vec<ResolvedCall>> = Vec::with_capacity(symbols.fns.len());
        let mut edges = 0usize;
        for id in 0..symbols.fns.len() {
            let resolved: Vec<ResolvedCall> = symbols.fns[id]
                .def
                .calls
                .iter()
                .map(|site| resolve_call(&symbols, id, site))
                .collect();
            edges += resolved.iter().map(|c| c.targets.len()).sum::<usize>();
            calls.push(resolved);
        }
        CallGraph {
            symbols,
            calls,
            edges,
        }
    }

    /// Successor functions of `id` (deduplicated, in call order).
    pub fn successors(&self, id: FnId) -> Vec<FnId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for call in &self.calls[id] {
            for &t in &call.targets {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out
    }
}

/// Resolves one call site from within function `caller`.
fn resolve_call(
    symbols: &SymbolTable,
    caller: FnId,
    site: &crate::parser::CallSite,
) -> ResolvedCall {
    let entry = &symbols.fns[caller];
    let def = &entry.def;
    let mut rc = ResolvedCall {
        line: site.line,
        col: site.col,
        name: site.name().to_string(),
        prev_ident: site.prev_ident().map(str::to_string),
        recv_types: Vec::new(),
        targets: Vec::new(),
        is_method: matches!(site.callee, Callee::Method { .. }),
    };
    match &site.callee {
        Callee::Free(name) => {
            rc.targets = symbols.resolve_free(name, &entry.file);
        }
        Callee::Path(segs) => {
            let name = match segs.last() {
                Some(n) => n.clone(),
                None => return rc,
            };
            if segs.len() >= 2 {
                let qualifier = &segs[segs.len() - 2];
                let qualifier = if qualifier == "Self" {
                    def.owner.clone().unwrap_or_else(|| qualifier.clone())
                } else {
                    qualifier.clone()
                };
                let methods = symbols.resolve_method(&qualifier, &name);
                if !methods.is_empty() {
                    rc.recv_types.push(qualifier);
                    rc.targets = methods;
                } else if symbols.trait_impls.contains_key(&qualifier) {
                    rc.recv_types.push(qualifier.clone());
                    rc.targets = symbols.resolve_trait_method(&qualifier, &name);
                } else if qualifier.chars().next().is_some_and(char::is_uppercase) {
                    // A type qualifier we know nothing about (std or
                    // vendored): record it for sink matching, no edges.
                    rc.recv_types.push(qualifier);
                } else {
                    // Module-path call (`crate::dispatch::prepare`).
                    rc.targets = symbols.resolve_free(&name, &entry.file);
                }
            }
        }
        Callee::Method { name, recv } => {
            resolve_method_call(symbols, caller, name, recv, &mut rc);
        }
    }
    rc
}

/// Resolves a method call's receiver type and targets.
fn resolve_method_call(
    symbols: &SymbolTable,
    caller: FnId,
    name: &str,
    recv: &Receiver,
    rc: &mut ResolvedCall,
) {
    let entry = &symbols.fns[caller];
    let def = &entry.def;
    let bounds: BTreeMap<&str, &Vec<String>> =
        def.bounds.iter().map(|(p, b)| (p.as_str(), b)).collect();
    let recv_type: Option<String> = match recv {
        Receiver::SelfValue => def.owner.clone(),
        Receiver::SelfField(field) => def
            .owner
            .as_deref()
            .and_then(|o| symbols.field_type(o, field))
            .map(str::to_string),
        Receiver::Ident(ident) => def.locals.get(ident).cloned(),
        Receiver::Opaque(_) => None,
    };
    match recv_type {
        Some(ty) => {
            rc.recv_types.push(ty.clone());
            let direct = symbols.resolve_method(&ty, name);
            if !direct.is_empty() {
                rc.targets = direct;
                return;
            }
            // The "type" may be a generic parameter with trait bounds,
            // or a trait used as an object — resolve through impls.
            let mut traits: Vec<&str> = Vec::new();
            if let Some(tb) = bounds.get(ty.as_str()) {
                traits.extend(tb.iter().map(String::as_str));
            }
            if symbols.trait_impls.contains_key(ty.as_str()) {
                traits.push(ty.as_str());
            }
            for tr in traits {
                if symbols
                    .trait_methods
                    .get(tr)
                    .is_some_and(|m| m.contains(name))
                {
                    rc.recv_types.push(tr.to_string());
                    rc.targets.extend(symbols.resolve_trait_method(tr, name));
                }
            }
            rc.targets.sort_unstable();
            rc.targets.dedup();
        }
        None => {
            // Unknown receiver: union over same-named methods, except
            // for ubiquitous collection/iterator names.
            if !UBIQUITOUS.contains(&name) {
                rc.targets = symbols.resolve_any_method(name, &entry.file);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::symbols::SymbolTable;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(SymbolTable::build(
            files
                .iter()
                .map(|(path, src)| parse_file(path, src))
                .collect(),
        ))
    }

    fn id(g: &CallGraph, display: &str) -> FnId {
        (0..g.symbols.fns.len())
            .find(|&i| g.symbols.fns[i].def.display() == display)
            .unwrap_or_else(|| panic!("no fn `{display}`"))
    }

    fn succ_names(g: &CallGraph, display: &str) -> Vec<String> {
        g.successors(id(g, display))
            .into_iter()
            .map(|s| g.symbols.fns[s].def.display())
            .collect()
    }

    #[test]
    fn typed_receivers_link_exactly_one_target() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct Q {}\nimpl Q { fn push_back(&mut self, x: u64) { let _ = x; } }\nstruct W { q: Q }\nimpl W { fn f(&mut self) { self.q.push_back(1); } }\nfn free(q: &mut Q) { q.push_back(2); }\nfn ctor() { let q = Q::new(); q.push_back(3); }\nimpl Q { fn new() -> Q { Q {} } }",
        )]);
        for caller in ["W::f", "free", "ctor"] {
            let succ = succ_names(&g, caller);
            assert!(
                succ.contains(&"Q::push_back".to_string()),
                "{caller}: {succ:?}"
            );
        }
    }

    #[test]
    fn generic_bound_links_every_impl_and_the_default() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "trait Plan { fn go(&self) {} }\nstruct A {}\nstruct B {}\nimpl Plan for A { fn go(&self) {} }\nimpl Plan for B { fn go(&self) {} }\nfn drive<S: Plan>(s: &S) { s.go(); }",
        )]);
        let succ = succ_names(&g, "drive");
        for target in ["Plan::go", "A::go", "B::go"] {
            assert!(succ.contains(&target.to_string()), "{succ:?}");
        }
    }

    #[test]
    fn unknown_receiver_unions_unless_ubiquitous() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct Rm {}\nimpl Rm { fn release(&mut self) {}\n    fn push(&mut self) {} }\nfn f() { x.release(); x.push(); }",
        )]);
        let succ = succ_names(&g, "f");
        // `release` is rare: the union fallback links it. `push` is
        // ubiquitous: no speculative edge.
        assert_eq!(succ, vec!["Rm::release"]);
        assert!(UBIQUITOUS.contains(&"push"));
    }

    #[test]
    fn self_paths_resolve_within_the_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct W {}\nimpl W { fn new() -> W { W {} }\n    fn make() -> W { Self::new() } }",
        )]);
        assert_eq!(succ_names(&g, "W::make"), vec!["W::new"]);
    }
}
