//! Tier-1 gate: the real workspace must lint clean.
//!
//! This is margins-lint's one entry point: zero unwaived findings of L7
//! and L10, and no dead waivers rotting in the tree either. The former
//! rules L1–L5 are clippy lints configured in `clippy.toml` and the crate
//! manifests; the last test here keeps the crate set those manifests deny
//! `disallowed_types` for in step with the set L10 binds.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = option_env!("CARGO_MANIFEST_DIR")
        .map_or_else(|| std::env::current_dir().expect("cwd"), PathBuf::from);
    // crates/lint -> workspace root.
    manifest
        .ancestors()
        .find(|a| a.join("Cargo.toml").is_file() && a.join("crates").is_dir())
        .expect("workspace root above crates/lint")
        .to_path_buf()
}

#[test]
fn workspace_has_no_unwaived_findings() {
    let report = margins_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        report.files_scanned > 50,
        "sanity: expected to scan the whole workspace, saw {} files",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        report.render_human()
    );
}

#[test]
fn workspace_has_no_unused_waivers() {
    let report = margins_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    let unused: Vec<_> = report.waivers.iter().filter(|w| !w.used).collect();
    assert!(
        unused.is_empty(),
        "every waiver must still suppress something: {unused:?}"
    );
}

#[test]
fn workspace_semantic_rules_see_the_symbol_table() {
    // The semantic pass must actually resolve workspace symbols: the sim
    // crate declares Millivolts, so the quantity registry must activate.
    // (An empty table would silently disable L7 everywhere.)
    let root = workspace_root();
    let files = margins_lint::walk::walk(&root).expect("walk");
    let mut per_file = std::collections::BTreeMap::new();
    let mut manifests = std::collections::BTreeMap::new();
    for rel in &files {
        if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            manifests.insert(
                rel.clone(),
                std::fs::read_to_string(root.join(rel)).unwrap(),
            );
        }
        if rel.ends_with(".rs") && margins_lint::rules::classify_path(rel).is_some() {
            let src = std::fs::read_to_string(root.join(rel)).unwrap();
            let parsed = margins_lint::parse::parse(&margins_lint::lexer::lex(&src).tokens);
            per_file.insert(rel.clone(), margins_lint::symbols::file_symbols(&parsed));
        }
    }
    let symbols = margins_lint::symbols::Symbols::build(&per_file, &manifests);
    assert!(
        symbols.newtypes.contains_key("Millivolts"),
        "sim's Millivolts newtype must be in the workspace symbol table"
    );
    assert!(
        symbols
            .active_quantities
            .iter()
            .any(|q| q.quantity.newtype == "Millivolts"),
        "the Millivolts quantity must be active"
    );
    assert!(
        symbols.crate_sees("core", "sim"),
        "core depends on sim, so L7 must bind core"
    );
    assert!(
        !symbols.crate_sees("trace", "sim"),
        "trace does not depend on sim, so L7 must not bind trace"
    );
}

/// Whether a manifest's own `[lints.clippy]` table denies
/// `disallowed_types` (the former hash-iter rule L2).
fn denies_disallowed_types(manifest: &str) -> bool {
    let mut in_clippy_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_clippy_table = line == "[lints.clippy]";
        } else if in_clippy_table && line.replace(' ', "") == "disallowed_types=\"deny\"" {
            return true;
        }
    }
    false
}

#[test]
fn deterministic_crates_are_the_crates_denying_disallowed_types() {
    // DETERMINISTIC_CRATES scopes L10; the manifests scope clippy's
    // determinism lints. One set, written down twice, must not drift.
    let crates_dir = workspace_root().join("crates");
    let mut denying = BTreeSet::new();
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        if denies_disallowed_types(&manifest) {
            let name = dir.file_name().expect("crate dir name");
            denying.insert(name.to_string_lossy().into_owned());
        }
    }
    let expected: BTreeSet<String> = margins_lint::DETERMINISTIC_CRATES
        .iter()
        .map(|c| (*c).to_owned())
        .collect();
    assert_eq!(
        denying, expected,
        "crates denying clippy::disallowed_types must be exactly DETERMINISTIC_CRATES"
    );
}
