//! Cross-file symbol table: every function, struct field, trait and
//! trait-impl in the workspace, indexed for nominal resolution.
//!
//! The table flattens all [`crate::parser::ParsedFile`]s into one
//! function arena with stable ids ([`FnId`] — the index order follows
//! the sorted file order of the scan, so every derived artifact is
//! deterministic). Lookup structure matches how the call-graph layer
//! resolves names:
//!
//! * bare name → free functions (for `foo(..)` and `path::foo(..)`),
//!   narrowed same-file → same-crate → workspace;
//! * `(type, method)` → inherent/trait-impl methods;
//! * method name → all methods anywhere (the unknown-receiver fallback);
//! * trait → implementing types, and trait → method names (for calls
//!   through generic bounds like `S: Strategy`);
//! * `(type, field)` → field type head (to type `self.rm.release(..)`).

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{FnDef, ParsedFile};

/// Index of a function in the symbol table's arena.
pub type FnId = usize;

/// The flattened workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All functions; `FnId` indexes into this.
    pub fns: Vec<FnEntry>,
    /// Free functions by bare name.
    pub free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Methods by `(owner type, method name)`.
    pub by_owner_method: BTreeMap<(String, String), Vec<FnId>>,
    /// Methods by bare name (unknown-receiver fallback).
    pub methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// Trait name → implementing type heads.
    pub trait_impls: BTreeMap<String, Vec<String>>,
    /// Trait name → method names it declares.
    pub trait_methods: BTreeMap<String, BTreeSet<String>>,
    /// `(type, field)` → field type head.
    pub fields: BTreeMap<(String, String), String>,
    /// Struct names defined in the workspace.
    pub types: BTreeSet<String>,
}

/// One function plus its defining file.
#[derive(Debug)]
pub struct FnEntry {
    /// The parsed definition.
    pub def: FnDef,
    /// Workspace-relative `/`-separated path of the defining file.
    pub file: String,
    /// The crate prefix of `file` (`crates/<name>` or `src`).
    pub crate_key: String,
}

/// The `crates/<name>` (or `src`) prefix of a workspace-relative path.
pub fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some(root @ ("crates" | "vendor")), Some(member)) => format!("{root}/{member}"),
        (Some(first), _) => first.to_string(),
        _ => String::new(),
    }
}

impl SymbolTable {
    /// Builds the table from parsed files (already in scan order).
    pub fn build(files: Vec<ParsedFile>) -> SymbolTable {
        let mut table = SymbolTable::default();
        for file in files {
            let path = file.path.clone();
            let ckey = crate_key(&path);
            for s in &file.structs {
                table.types.insert(s.name.clone());
                for (field, ty) in &s.fields {
                    table
                        .fields
                        .insert((s.name.clone(), field.clone()), ty.clone());
                }
            }
            for t in &file.traits {
                let methods = table.trait_methods.entry(t.name.clone()).or_default();
                methods.extend(t.methods.iter().cloned());
                table.trait_impls.entry(t.name.clone()).or_default();
            }
            for ti in &file.trait_impls {
                let impls = table.trait_impls.entry(ti.trait_name.clone()).or_default();
                if !impls.contains(&ti.type_name) {
                    impls.push(ti.type_name.clone());
                }
            }
            for def in file.fns {
                let id = table.fns.len();
                match &def.owner {
                    Some(owner) => {
                        table
                            .by_owner_method
                            .entry((owner.clone(), def.name.clone()))
                            .or_default()
                            .push(id);
                        table
                            .methods_by_name
                            .entry(def.name.clone())
                            .or_default()
                            .push(id);
                    }
                    None => {
                        table
                            .free_by_name
                            .entry(def.name.clone())
                            .or_default()
                            .push(id);
                    }
                }
                table.fns.push(FnEntry {
                    def,
                    file: path.clone(),
                    crate_key: ckey.clone(),
                });
            }
        }
        table
    }

    /// Free functions named `name`, narrowed to the closest scope that
    /// has any: same file, then same crate, then the whole workspace.
    pub fn resolve_free(&self, name: &str, from_file: &str) -> Vec<FnId> {
        let Some(all) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<FnId> = all
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == from_file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let from_crate = crate_key(from_file);
        let same_crate: Vec<FnId> = all
            .iter()
            .copied()
            .filter(|&id| self.fns[id].crate_key == from_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        all.clone()
    }

    /// Methods `name` on type `owner` (inherent or trait-impl).
    pub fn resolve_method(&self, owner: &str, name: &str) -> Vec<FnId> {
        self.by_owner_method
            .get(&(owner.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Methods `name` on every implementor of `trait_name`, plus the
    /// trait's own defaulted body if it has one.
    pub fn resolve_trait_method(&self, trait_name: &str, name: &str) -> Vec<FnId> {
        let mut out = self.resolve_method(trait_name, name);
        if let Some(impls) = self.trait_impls.get(trait_name) {
            for ty in impls {
                out.extend(self.resolve_method(ty, name));
            }
        }
        out
    }

    /// All methods named `name`, narrowed to the caller's crate when
    /// that scope has any (the unknown-receiver fallback).
    pub fn resolve_any_method(&self, name: &str, from_file: &str) -> Vec<FnId> {
        let Some(all) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        let from_crate = crate_key(from_file);
        let same_crate: Vec<FnId> = all
            .iter()
            .copied()
            .filter(|&id| self.fns[id].crate_key == from_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        all.clone()
    }

    /// The type head of `owner.field`, if known.
    pub fn field_type(&self, owner: &str, field: &str) -> Option<&str> {
        self.fields
            .get(&(owner.to_string(), field.to_string()))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(path, src)| parse_file(path, src))
                .collect(),
        )
    }

    fn displays(table: &SymbolTable, ids: &[FnId]) -> Vec<String> {
        ids.iter().map(|&id| table.fns[id].def.display()).collect()
    }

    #[test]
    fn crate_keys_group_by_workspace_member() {
        assert_eq!(crate_key("crates/core/src/dispatch.rs"), "crates/core");
        assert_eq!(crate_key("crates/core/src/sub/deep.rs"), "crates/core");
        assert_eq!(crate_key("vendor/minipool/src/lib.rs"), "vendor/minipool");
        assert_eq!(crate_key("src/lib.rs"), "src");
    }

    #[test]
    fn free_fn_resolution_narrows_file_then_crate_then_workspace() {
        let t = table(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn local() { helper(); }",
            ),
            ("crates/a/src/other.rs", "fn caller() {}"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        // Same file wins outright.
        let same_file = t.resolve_free("helper", "crates/a/src/lib.rs");
        assert_eq!(same_file.len(), 1);
        assert_eq!(t.fns[same_file[0]].file, "crates/a/src/lib.rs");
        // From a sibling file, same crate wins over the workspace twin.
        let same_crate = t.resolve_free("helper", "crates/a/src/other.rs");
        assert_eq!(same_crate.len(), 1);
        assert_eq!(t.fns[same_crate[0]].crate_key, "crates/a");
        // From an unrelated crate, the whole workspace is in play.
        assert_eq!(t.resolve_free("helper", "crates/c/src/lib.rs").len(), 2);
    }

    #[test]
    fn methods_fields_and_trait_impls_are_indexed() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "struct W { rm: R }\ntrait Plan { fn go(&self) {} }\nimpl Plan for W { fn go(&self) {} }\nimpl W { fn tick(&self) {} }",
        )]);
        assert_eq!(
            displays(&t, &t.resolve_method("W", "tick")),
            vec!["W::tick"]
        );
        assert_eq!(t.field_type("W", "rm"), Some("R"));
        // Trait resolution reaches the default body and every impl.
        let through_trait = displays(&t, &t.resolve_trait_method("Plan", "go"));
        assert!(
            through_trait.contains(&"Plan::go".to_string()),
            "{through_trait:?}"
        );
        assert!(
            through_trait.contains(&"W::go".to_string()),
            "{through_trait:?}"
        );
    }
}
