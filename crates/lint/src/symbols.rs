//! The cross-file workspace symbol table.
//!
//! The semantic rules need two kinds of workspace-global knowledge that
//! no single file contains:
//!
//! * which **quantity newtypes** exist and where (`Millivolts` in
//!   `crates/sim` wraps `u32`) — drives L7 unit-escape,
//! * which function names **always return `Result`** — drives L10
//!   swallowed-fallibility,
//!
//! plus the **crate dependency graph** (from `Cargo.toml` manifests), so a
//! rule only binds crates that can actually *see* the type it wants used
//! (the `trace` crate stores raw primitives deliberately: it does not
//! depend on `sim`, so `Millivolts` is not nameable there).
//!
//! Each file contributes a small [`FileSymbols`] summary; the merged
//! [`Symbols`] table is what every file is then judged against.

use crate::parse::{ItemKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Primitive types a quantity newtype may wrap.
const PRIMITIVES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

/// The per-file symbol summary — everything one file contributes to the
/// workspace table.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Public single-field tuple structs wrapping a primitive:
    /// `(newtype name, inner primitive)`.
    pub newtypes: Vec<(String, String)>,
    /// Every function declared in this file: `(name, returns Result)`.
    pub fns: Vec<(String, bool)>,
}

/// Extracts the symbol summary of one parsed file.
#[must_use]
pub fn file_symbols(parsed: &ParsedFile) -> FileSymbols {
    let mut out = FileSymbols::default();
    for item in &parsed.items {
        match &item.kind {
            ItemKind::Struct { tuple_fields }
                if item.is_pub
                    && tuple_fields.len() == 1
                    && PRIMITIVES.contains(&tuple_fields[0].as_str()) =>
            {
                out.newtypes
                    .push((item.name.clone(), tuple_fields[0].clone()));
            }
            ItemKind::Fn(sig) => {
                let returns_result = sig.ret.as_deref().is_some_and(|r| ty_mentions(r, "Result"));
                out.fns.push((item.name.clone(), returns_result));
            }
            _ => {}
        }
    }
    out.newtypes.sort();
    out.fns.sort();
    out
}

/// One quantity the unit-escape rule enforces, bound to a newtype that was
/// actually found in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quantity {
    /// The newtype that should carry the quantity (`Millivolts`).
    pub newtype: &'static str,
    /// Raw primitive(s) the newtype replaces at boundaries.
    pub raw: &'static [&'static str],
    /// Exact parameter/function names that denote the quantity.
    pub names: &'static [&'static str],
    /// Name suffixes that denote the quantity (`_mv`).
    pub suffixes: &'static [&'static str],
}

/// The registry of quantities the rule knows how to type. A quantity only
/// activates when its newtype exists somewhere in the workspace.
const QUANTITIES: [Quantity; 3] = [
    Quantity {
        newtype: "Millivolts",
        raw: &["u32"],
        names: &["mv"],
        suffixes: &["_mv"],
    },
    Quantity {
        newtype: "Megahertz",
        raw: &["u32"],
        names: &["mhz"],
        suffixes: &["_mhz"],
    },
    Quantity {
        newtype: "CoreId",
        raw: &["u8"],
        names: &["core"],
        suffixes: &[],
    },
];

/// A quantity together with its defining crate, as resolved against the
/// actual workspace.
#[derive(Debug, Clone)]
pub struct ActiveQuantity {
    /// The registry entry.
    pub quantity: Quantity,
    /// The crate that declares the newtype.
    pub def_crate: String,
}

/// The merged, workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Newtype name → (inner primitive, defining crate).
    pub newtypes: BTreeMap<String, (String, String)>,
    /// Function name → (how many declarations return `Result`, total
    /// declarations).
    pub fn_result: BTreeMap<String, (u32, u32)>,
    /// Crate → transitive dependency closure (workspace crates only,
    /// including the crate itself).
    pub dep_closure: BTreeMap<String, BTreeSet<String>>,
    /// Quantities whose newtype exists in this workspace.
    pub active_quantities: Vec<ActiveQuantity>,
}

impl Symbols {
    /// Builds the table from per-file summaries and manifest texts.
    ///
    /// `per_file` maps workspace-relative paths to summaries;
    /// `manifests` maps workspace-relative `Cargo.toml` paths to contents.
    #[must_use]
    pub fn build(
        per_file: &BTreeMap<String, FileSymbols>,
        manifests: &BTreeMap<String, String>,
    ) -> Symbols {
        let mut sym = Symbols::default();
        for (rel, fs) in per_file {
            let krate = crate_of(rel).unwrap_or_default();
            for (name, inner) in &fs.newtypes {
                sym.newtypes
                    .entry(name.clone())
                    .or_insert_with(|| (inner.clone(), krate.clone()));
            }
            for (name, returns_result) in &fs.fns {
                let slot = sym.fn_result.entry(name.clone()).or_insert((0, 0));
                slot.1 += 1;
                if *returns_result {
                    slot.0 += 1;
                }
            }
        }
        sym.dep_closure = dep_closure(manifests);
        sym.active_quantities = QUANTITIES
            .iter()
            .filter_map(|q| {
                sym.newtypes
                    .get(q.newtype)
                    .map(|(_, def_crate)| ActiveQuantity {
                        quantity: q.clone(),
                        def_crate: def_crate.clone(),
                    })
            })
            .collect();
        sym
    }

    /// Whether code in `krate` can name items of `def_crate` (it is the
    /// same crate or a transitive dependency).
    #[must_use]
    pub fn crate_sees(&self, krate: &str, def_crate: &str) -> bool {
        if krate == def_crate {
            return true;
        }
        self.dep_closure
            .get(krate)
            .is_some_and(|deps| deps.contains(def_crate))
    }

    /// Whether every workspace function named `name` returns `Result`
    /// (and at least one such function exists).
    #[must_use]
    pub fn always_returns_result(&self, name: &str) -> bool {
        self.fn_result
            .get(name)
            .is_some_and(|(res, total)| *res == *total && *total > 0)
    }
}

/// The owning workspace crate of a relative path: `crates/sim/src/x.rs`
/// → `sim`; anything else under the root package → `voltmargin`.
#[must_use]
pub fn crate_of(rel: &str) -> Option<String> {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().map(str::to_owned),
        Some(_) => Some("voltmargin".to_owned()),
        None => None,
    }
}

/// Whether type text `ty` names `what` as a standalone path segment
/// (`Option<u32>` mentions `u32`; `Vec<u32>` too; `u32x4` does not).
#[must_use]
pub fn ty_mentions(ty: &str, what: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|seg| seg == what)
}

/// Parses the `[dependencies]` sections of every manifest and computes
/// each workspace crate's transitive dependency closure.
///
/// Workspace crates are identified by the `margins-` package-name prefix
/// (the root package is `voltmargin`); only intra-workspace edges are
/// recorded. The parse is line-oriented and deliberately minimal — enough
/// for the manifest style this repo uses.
fn dep_closure(manifests: &BTreeMap<String, String>) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (rel, text) in manifests {
        let krate = match manifest_crate(rel) {
            Some(k) => k,
            None => continue,
        };
        let deps = direct.entry(krate).or_default();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]" || line.starts_with("[dependencies.");
                if let Some(rest) = line.strip_prefix("[dependencies.") {
                    if let Some(name) = rest.strip_suffix(']') {
                        if let Some(ws) = workspace_dep_name(name) {
                            deps.insert(ws);
                        }
                    }
                }
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(eq) = line.find('=') {
                let key = line[..eq].trim().trim_matches('"');
                // `margins-sim.workspace = true` style keys.
                let key = key.split('.').next().unwrap_or(key);
                if let Some(ws) = workspace_dep_name(key) {
                    deps.insert(ws);
                }
            }
        }
    }
    // Transitive closure by iteration to a fixed point.
    let mut closure = direct.clone();
    loop {
        let mut grew = false;
        for krate in direct.keys() {
            let current: BTreeSet<String> = closure[krate].clone();
            let mut next = current.clone();
            for dep in &current {
                if let Some(inner) = closure.get(dep) {
                    next.extend(inner.iter().cloned());
                }
            }
            if next.len() > current.len() {
                closure.insert(krate.clone(), next);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    closure
}

/// Maps a dependency key to a workspace crate directory name.
fn workspace_dep_name(key: &str) -> Option<String> {
    key.strip_prefix("margins-").map(str::to_owned)
}

/// The crate a manifest path belongs to (`crates/sim/Cargo.toml` → `sim`,
/// the root `Cargo.toml` → `voltmargin`).
fn manifest_crate(rel: &str) -> Option<String> {
    if rel == "Cargo.toml" {
        return Some("voltmargin".to_owned());
    }
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "Cargo.toml"] => Some((*name).to_owned()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn symbols_of(src: &str) -> FileSymbols {
        file_symbols(&parse(&lex(src).tokens))
    }

    #[test]
    fn newtypes_are_public_primitive_tuples_only() {
        let fs = symbols_of(
            "pub struct Millivolts(u32);\n\
             struct Private(u32);\n\
             pub struct Pair(u32, u32);\n\
             pub struct Wrapper(String);\n\
             pub struct Named { v: u32 }",
        );
        assert_eq!(
            fs.newtypes,
            vec![("Millivolts".to_owned(), "u32".to_owned())]
        );
    }

    #[test]
    fn fn_result_tracking() {
        let fs = symbols_of(
            "pub fn a() -> Result<(), E> { Ok(()) }\nfn b() -> u32 { 0 }\nfn a() -> io::Result<u8> { Ok(0) }",
        );
        let mut per_file = BTreeMap::new();
        per_file.insert("crates/sim/src/x.rs".to_owned(), fs);
        let sym = Symbols::build(&per_file, &BTreeMap::new());
        assert!(sym.always_returns_result("a"));
        assert!(!sym.always_returns_result("b"));
        assert!(!sym.always_returns_result("missing"));
    }

    #[test]
    fn dep_closure_is_transitive() {
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "crates/sim/Cargo.toml".to_owned(),
            "[package]\nname = \"margins-sim\"\n[dependencies]\nserde = \"1\"\n".to_owned(),
        );
        manifests.insert(
            "crates/core/Cargo.toml".to_owned(),
            "[dependencies]\nmargins-sim = { workspace = true }\n".to_owned(),
        );
        manifests.insert(
            "crates/energy/Cargo.toml".to_owned(),
            "[dependencies]\nmargins-core.workspace = true\n".to_owned(),
        );
        let sym = Symbols::build(&BTreeMap::new(), &manifests);
        assert!(sym.crate_sees("core", "sim"));
        assert!(sym.crate_sees("energy", "sim"), "transitive edge");
        assert!(!sym.crate_sees("sim", "core"));
        assert!(sym.crate_sees("sim", "sim"), "a crate sees itself");
    }

    #[test]
    fn quantities_activate_only_when_newtype_exists() {
        let mut per_file = BTreeMap::new();
        per_file.insert(
            "crates/sim/src/volt.rs".to_owned(),
            symbols_of("pub struct Millivolts(u32);"),
        );
        let sym = Symbols::build(&per_file, &BTreeMap::new());
        let names: Vec<&str> = sym
            .active_quantities
            .iter()
            .map(|a| a.quantity.newtype)
            .collect();
        assert_eq!(names, vec!["Millivolts"]);
        assert_eq!(sym.active_quantities[0].def_crate, "sim");
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/sim/src/volt.rs").as_deref(), Some("sim"));
        assert_eq!(crate_of("src/lib.rs").as_deref(), Some("voltmargin"));
        assert_eq!(
            crate_of("examples/quickstart.rs").as_deref(),
            Some("voltmargin")
        );
    }

    #[test]
    fn ty_mentions_segments_only() {
        assert!(ty_mentions("Option<u32>", "u32"));
        assert!(ty_mentions("&mut u32", "u32"));
        assert!(!ty_mentions("u32x4", "u32"));
        assert!(!ty_mentions("Millivolts", "u32"));
    }
}
