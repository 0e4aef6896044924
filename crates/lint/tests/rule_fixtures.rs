//! Exercises both rules against the `semantic` fixture tree — positive
//! hits, waived hits and clean files — which carries manifests and
//! newtypes so L7 and L10 resolve against a real symbol table. (The
//! `seedlike` tree holds only `bad.rs`, the clippy probe CI mounts into
//! `margins-sim`.)

use margins_lint::rules::Rule;
use std::fs;
use std::path::{Path, PathBuf};

const SEM_BAD: &str = "crates/core/src/bad.rs";
const SEM_CLEAN: &str = "crates/core/src/clean.rs";
const SEM_WAIVED: &str = "crates/core/src/waived.rs";
const SEM_UNKNOWN: &str = "crates/core/src/unknown_waivers.rs";
const SEM_OFFPATH: &str = "crates/bench/src/offpath.rs";
const SEM_TRACE_RAW: &str = "crates/trace/src/raw.rs";
const SEM_EXEMPT: &str = "crates/core/tests/exempt_semantic.rs";

fn semantic_root() -> PathBuf {
    let manifest = option_env!("CARGO_MANIFEST_DIR")
        .map_or_else(|| std::env::current_dir().expect("cwd"), PathBuf::from);
    manifest.join("tests/fixtures/semantic")
}

fn lint_semantic() -> margins_lint::report::Report {
    margins_lint::lint_workspace(&semantic_root()).expect("semantic tree lints")
}

fn count(report: &margins_lint::report::Report, rule: Rule, file: &str) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .count()
}

#[test]
fn human_diagnostics_use_file_line_col() {
    let human = lint_semantic().render_human();
    assert!(
        human.contains("crates/core/src/bad.rs:"),
        "diagnostics carry file:line"
    );
    assert!(human.contains("[unit-escape]"));
    assert!(human.contains("unused waivers"));
}

#[test]
fn semantic_rules_fire_on_the_bad_file() {
    let report = lint_semantic();
    // L7: raw `mv: u32` param, raw `-> u32` on `vmin_mv`, raw `core: u8`.
    assert_eq!(count(&report, Rule::UnitEscape, SEM_BAD), 3);
    // L10: .flush(), drop(.send()), always-Result workspace fn, writeln!
    // to a path target.
    assert_eq!(count(&report, Rule::SwallowedFallibility, SEM_BAD), 4);
}

#[test]
fn unit_escape_messages_name_the_newtype_and_its_crate() {
    let report = lint_semantic();
    let msg = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::UnitEscape && f.file == SEM_BAD)
        .map(|f| f.message.clone())
        .expect("at least one L7 finding");
    assert!(msg.contains("Millivolts"), "{msg}");
    assert!(msg.contains("`sim`"), "{msg}");
}

#[test]
fn semantic_clean_file_produces_nothing() {
    let report = lint_semantic();
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.file == SEM_CLEAN)
            .count(),
        0,
        "{:?}",
        report
            .findings
            .iter()
            .filter(|f| f.file == SEM_CLEAN)
            .collect::<Vec<_>>()
    );
}

#[test]
fn semantic_waivers_suppress_and_are_reported() {
    let report = lint_semantic();
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.file == SEM_WAIVED)
            .count(),
        0,
        "all violations in waived.rs carry waivers"
    );
    let waivers: Vec<_> = report
        .waivers
        .iter()
        .filter(|w| w.file == SEM_WAIVED)
        .collect();
    assert_eq!(waivers.len(), 3, "{waivers:?}");
    assert_eq!(waivers.iter().filter(|w| w.used).count(), 2);
    let unused: Vec<_> = waivers.iter().filter(|w| !w.used).collect();
    assert_eq!(unused.len(), 1);
    assert_eq!(unused[0].rule, Rule::UnitEscape.name());
}

#[test]
fn waivers_naming_no_rule_are_reported_and_waive_nothing() {
    let report = lint_semantic();
    let waivers: Vec<_> = report
        .waivers
        .iter()
        .filter(|w| w.file == SEM_UNKNOWN)
        .map(|w| (w.line, w.rule.as_str(), w.used))
        .collect();
    assert_eq!(
        waivers,
        [(7, "span-balance", false), (11, "unit-escpae", false)]
    );
    assert_eq!(count(&report, Rule::UnitEscape, SEM_UNKNOWN), 1);
    let human = report.render_human();
    assert!(
        human.contains(&format!(
            "{SEM_UNKNOWN}:11: allow(unit-escpae) (no such rule)"
        )),
        "{human}"
    );
}

#[test]
fn unit_escape_respects_the_dependency_graph() {
    let report = lint_semantic();
    // `trace` cannot name `sim`'s newtypes: raw primitives are fine there.
    assert_eq!(count(&report, Rule::UnitEscape, SEM_TRACE_RAW), 0);
    // `bench` can: the rule binds it even off the deterministic path.
    assert_eq!(count(&report, Rule::UnitEscape, SEM_OFFPATH), 1);
}

#[test]
fn concurrency_rules_do_not_bind_off_path_crates() {
    let report = lint_semantic();
    assert_eq!(count(&report, Rule::SwallowedFallibility, SEM_OFFPATH), 0);
}

#[test]
fn semantic_rules_skip_test_context_files() {
    let report = lint_semantic();
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.file == SEM_EXEMPT)
            .count(),
        0,
        "integration-test files are exempt from semantic rules"
    );
}

#[test]
fn newtype_declarations_do_not_self_flag() {
    let report = lint_semantic();
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.file == "crates/sim/src/units.rs")
            .count(),
        0,
        "the newtype's own impl speaks raw units"
    );
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy dir");
    for entry in fs::read_dir(from).expect("list fixture dir") {
        let path = entry.expect("fixture entry").path();
        let dest = to.join(path.file_name().expect("entry name"));
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            fs::copy(&path, &dest).expect("copy fixture file");
        }
    }
}

#[test]
fn an_untracked_copy_of_the_sources_changes_nothing() {
    // A benchmark checkout under the git-ignored `.bench_build/` is not
    // part of any package: it must neither be linted nor claim the
    // newtypes (a copy declaring `Millivolts` first would make L7 stop
    // binding `core`).
    let root = std::env::temp_dir().join(format!("margins-lint-untracked-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    copy_tree(&semantic_root(), &root);
    let alone = margins_lint::lint_workspace(&root).expect("copy lints");
    copy_tree(&semantic_root(), &root.join(".bench_build/parent"));
    let shadowed = margins_lint::lint_workspace(&root).expect("copy lints");
    fs::remove_dir_all(&root).expect("remove copy");

    assert_eq!(count(&alone, Rule::UnitEscape, SEM_BAD), 3);
    assert_eq!(shadowed.findings, alone.findings);
    assert_eq!(shadowed.waivers, alone.waivers);
}
