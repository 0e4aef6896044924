//! `margins-lint` — the workspace-semantic checks behind the
//! reproduction's unit-safety and determinism invariants that no other
//! tool in the build checks.
//!
//! The paper's figures (safe `Vmin` per benchmark/core, severity, predictor
//! accuracy) are statements about *distributions* of system-level effects;
//! they only replicate if quantities keep their units and a fixed seed
//! yields bit-identical campaigns. Clippy guards the per-expression half of
//! that through the root `clippy.toml` and the crate manifests' lint levels
//! (the former rules L1–L5). This crate checks two rules:
//!
//! | rule | name | scope | invariant |
//! |------|------|-------|-----------|
//! | L7 | `unit-escape` | all non-test code | no raw `u32`/`u8` quantities on `pub fn` boundaries where a workspace newtype exists |
//! | L10 | `swallowed-fallibility` | deterministic crates | no `let _ =`/`drop()` of fallible I/O, cache and sink `Result`s |
//!
//! Both are *semantic* rules: a first pass parses every workspace file into
//! items (see [`parse`]) and merges their declarations into a cross-file
//! symbol table (see [`symbols`]); a second pass judges each file against
//! that table. Every run is one full scan of what cargo builds (see
//! [`walk`]).
//!
//! The *deterministic crates* are `rng`, `sim`, `core`, `energy`,
//! `predict`, `trace` and `scope` — everything between a campaign seed and
//! a figure. Test code (`tests/`, `benches/`, `examples/`, `#[cfg(test)]`
//! modules) is exempt.
//!
//! Any finding can be waived per line with an explicit, reported comment:
//!
//! ```text
//! // lint: allow(swallowed-fallibility) — best-effort progress on stderr
//! ```
//!
//! The linter is dependency-free by design: it lexes Rust itself (see
//! [`lexer`]) instead of using `syn`, so it builds in hermetic sandboxes
//! with no registry access.
//!
//! It runs as the tier-1 `workspace_clean` integration test, which fails
//! on any unwaived finding or unused waiver and prints
//! [`report::Report::render_human`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod walk;

use report::Report;
use rules::FileOutcome;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use symbols::Symbols;

pub use rules::{Finding, Rule, Waiver, DETERMINISTIC_CRATES};

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
///
/// # Errors
///
/// Returns any I/O error raised while walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::walk(root)?;

    // Pass 1: collect manifests, read every lintable Rust file, and build
    // its symbol summary.
    let mut manifests: BTreeMap<String, String> = BTreeMap::new();
    let mut sources: Vec<(String, rules::FileScope, String)> = Vec::new();
    let mut per_file_syms = BTreeMap::new();
    let mut report = Report::default();

    for rel in files {
        if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            manifests.insert(rel.clone(), fs::read_to_string(root.join(&rel))?);
        }
        let Some(scope) = rules::classify_path(&rel) else {
            continue;
        };
        report.files_scanned += 1;
        if !rel.ends_with(".rs") {
            continue;
        }
        let src = fs::read_to_string(root.join(&rel))?;
        let syms = symbols::file_symbols(&parse::parse(&lexer::lex(&src).tokens));
        per_file_syms.insert(rel.clone(), syms);
        sources.push((rel, scope, src));
    }

    // Pass 2: merge the table, then judge each file against it.
    let symbols = Symbols::build(&per_file_syms, &manifests);
    for (rel, scope, src) in &sources {
        let FileOutcome { findings, waivers } = rules::lint_rust_file(rel, src, *scope, &symbols);
        report.findings.extend(findings);
        report.waivers.extend(waivers);
    }

    report.sort();
    Ok(report)
}
