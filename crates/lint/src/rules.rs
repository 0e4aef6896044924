//! Rules L7 and L10 and the waiver machinery.
//!
//! Both are semantic checks over the item-level parse ([`crate::parse`])
//! and the workspace symbol table ([`crate::symbols`]): unit-escape at
//! `pub fn` boundaries and swallowed fallibility. They are scoped by file
//! role (test code is exempt) and, for L10, by crate (only the
//! deterministic-path crates). Findings can be waived with an explicit
//! comment:
//!
//! ```text
//! // lint: allow(<rule>[, <rule>...]) — optional justification
//! ```
//!
//! placed either on the offending line or on its own line directly above.
//! Waivers are never silent: each one is recorded in the report with a
//! `used` flag so reviewers can see (and the tier-1 gate can count) every
//! escape hatch.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use crate::parse::{self, ItemKind, ParsedFile};
use crate::symbols::{crate_of, ty_mentions, Symbols};
use std::collections::BTreeSet;

/// The lint rules: the part of the unit-safety and determinism invariant
/// set that neither clippy nor rustc nor a conformance suite checks.
/// DESIGN.md §6 and §10 say where the other L-numbers are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L7: a raw primitive carrying a typed quantity (`mv: u32`,
    /// `core: u8`) across a `pub fn` boundary of a crate that can see the
    /// workspace newtype for that quantity.
    UnitEscape,
    /// L10: a discarded `Result` (`let _ =` / `drop(...)`) from an I/O,
    /// sink or always-fallible workspace call on the deterministic path.
    SwallowedFallibility,
}

impl Rule {
    /// The rule's machine name, used in reports and waiver comments.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Rule::UnitEscape => "unit-escape",
            Rule::SwallowedFallibility => "swallowed-fallibility",
        }
    }

    /// Parses a waiver rule name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unit-escape" => Some(Rule::UnitEscape),
            "swallowed-fallibility" => Some(Rule::SwallowedFallibility),
            _ => None,
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// One waiver comment found in a file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waiver {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Waived rule.
    pub rule: Rule,
    /// Whether a finding was actually suppressed by this waiver.
    pub used: bool,
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// File lives in test/bench/example context: code rules don't apply.
    pub is_test_context: bool,
    /// File belongs to a deterministic-path crate
    /// (sim/core/energy/predict/trace/scope).
    pub is_deterministic_path: bool,
}

/// Result of linting one Rust source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unwaived findings.
    pub findings: Vec<Finding>,
    /// All waivers seen, with usage flags.
    pub waivers: Vec<Waiver>,
}

/// The crates whose results must be bit-reproducible: the seeded
/// generator, the simulator, the characterization framework, the
/// predictor, the energy models, the trace subsystem (its serialized
/// streams are part of the reproducible surface), and the analytics crate
/// (its reports and diffs gate CI on byte equality).
///
/// L10 binds these crates; their manifests deny clippy's determinism
/// lints. The `workspace_clean` test keeps the two lists equal.
pub const DETERMINISTIC_CRATES: [&str; 7] =
    ["rng", "sim", "core", "energy", "predict", "trace", "scope"];

/// Classifies `rel` (workspace-relative, `/`-separated) into a scope.
///
/// Returns `None` when the file must not be linted at all (lint fixtures,
/// VCS/build internals).
#[must_use]
pub fn classify_path(rel: &str) -> Option<FileScope> {
    let components: Vec<&str> = rel.split('/').collect();
    if components
        .iter()
        .any(|c| *c == ".git" || *c == "target" || *c == "fixtures")
    {
        return None;
    }
    let is_test_context = components
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
    let is_deterministic_path = components.len() > 1
        && components[0] == "crates"
        && DETERMINISTIC_CRATES.contains(&components[1]);
    Some(FileScope {
        is_test_context,
        is_deterministic_path,
    })
}

/// Lints one Rust source file with the code rules L7 and L10, resolving
/// them against the workspace symbol table.
#[must_use]
pub fn lint_rust_file(rel: &str, src: &str, scope: FileScope, symbols: &Symbols) -> FileOutcome {
    let lexed = lex(src);
    let test_lines = test_line_spans(&lexed.tokens);
    let waivers = collect_waivers(&lexed, src);

    let mut raw: Vec<Finding> = Vec::new();
    if !scope.is_test_context {
        let in_test = |line: u32| test_lines.iter().any(|(a, b)| line >= *a && line <= *b);
        let parsed = parse::parse(&lexed.tokens);
        check_unit_escape(rel, &parsed, symbols, &in_test, &mut raw);
        if scope.is_deterministic_path {
            check_swallowed_fallibility(rel, &lexed.tokens, symbols, &in_test, &mut raw);
        }
    }

    apply_waivers(rel, raw, waivers)
}

/// Resolves waivers against raw findings: a finding is suppressed when a
/// waiver for its rule targets its line.
fn apply_waivers(rel: &str, raw: Vec<Finding>, waivers: Vec<(Rule, u32, u32)>) -> FileOutcome {
    // (rule, comment line, target line)
    let mut used = vec![false; waivers.len()];
    let mut findings = Vec::new();
    for f in raw {
        let mut waived = false;
        for (i, (rule, _, target)) in waivers.iter().enumerate() {
            if *rule == f.rule && *target == f.line {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            findings.push(f);
        }
    }
    let waivers = waivers
        .into_iter()
        .zip(used)
        .map(|((rule, line, _), used)| Waiver {
            file: rel.to_owned(),
            line,
            rule,
            used,
        })
        .collect();
    FileOutcome { findings, waivers }
}

/// Extracts `lint: allow(rule[, rule])` waivers from comments and computes
/// each waiver's target line: the comment's own line when code shares it,
/// otherwise the next line that carries code.
fn collect_waivers(lexed: &Lexed, src: &str) -> Vec<(Rule, u32, u32)> {
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let last_line = src.lines().count() as u32;
    let mut out = Vec::new();
    for Comment { line, text } in &lexed.comments {
        // Doc comments (`///`, `//!`, `/** .. */`) never carry waivers —
        // they are rendered documentation, not annotations on code lines.
        if text.starts_with('/') || text.starts_with('!') || text.starts_with('*') {
            continue;
        }
        for rule in parse_waiver_rules(text) {
            let target = if code_lines.contains(line) {
                *line
            } else {
                (*line + 1..=last_line)
                    .find(|l| code_lines.contains(l))
                    .unwrap_or(*line)
            };
            out.push((rule, *line, target));
        }
    }
    out
}

/// Parses the rule list out of a `lint: allow(a, b)` comment.
fn parse_waiver_rules(comment: &str) -> Vec<Rule> {
    let Some(pos) = comment.find("lint:") else {
        return Vec::new();
    };
    let rest = comment[pos + "lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Vec::new();
    };
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|name| Rule::from_name(name.trim()))
        .collect()
}

/// Computes `(first, last)` line spans of `#[cfg(test)]`-guarded items, so
/// in-file unit-test modules are exempt from code rules.
fn test_line_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].punct() == Some("#")
            && matches!(tokens.get(i + 1).and_then(Token::punct), Some("["))
        {
            let attr_line = tokens[i].line;
            let (attr_end, is_test_cfg) = scan_attribute(tokens, i + 1);
            if is_test_cfg {
                if let Some((_, close_line)) = item_body_span(tokens, attr_end) {
                    spans.push((attr_line, close_line));
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Scans an attribute starting at its `[`; returns (index past `]`, whether
/// it is a `cfg(...)` containing the `test` flag or a bare `#[test]`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct(p) if p == "[" => depth += 1,
            TokKind::Punct(p) if p == "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            TokKind::Ident(s) => idents.push(s.as_str().to_owned()),
            _ => {}
        }
        j += 1;
    }
    let is_cfg_test =
        idents.first().is_some_and(|f| f == "cfg") && idents.iter().any(|s| s == "test");
    let is_bare_test = idents.len() == 1 && idents[0] == "test";
    (j, is_cfg_test || is_bare_test)
}

/// From just past a test attribute, skips any further attributes and finds
/// the brace-delimited body of the next item. Returns `(open, close)` lines.
fn item_body_span(tokens: &[Token], mut i: usize) -> Option<(u32, u32)> {
    // Skip subsequent outer attributes.
    while i < tokens.len() && tokens[i].punct() == Some("#") {
        if tokens.get(i + 1).and_then(Token::punct) == Some("[") {
            let (end, _) = scan_attribute(tokens, i + 1);
            i = end;
        } else {
            i += 1;
        }
    }
    // Find the item's opening brace; a `;` first means no body (`mod x;`).
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].punct() {
            Some(";") => return None,
            Some("{") => break,
            _ => j += 1,
        }
    }
    if j >= tokens.len() {
        return None;
    }
    let open_line = tokens[j].line;
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].punct() {
            Some("{") => depth += 1,
            Some("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some((open_line, tokens[j].line));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some((open_line, tokens.last().map_or(open_line, |t| t.line)))
}

fn push(out: &mut Vec<Finding>, rel: &str, tok: &Token, rule: Rule, message: String) {
    out.push(Finding {
        file: rel.to_owned(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
    });
}

/// Whether a name denotes quantity `q` (`mv` exactly, or a `_mv` suffix).
fn name_denotes(name: &str, names: &[&str], suffixes: &[&str]) -> bool {
    names.contains(&name) || suffixes.iter().any(|s| name.ends_with(s))
}

/// L7: raw primitives crossing `pub fn` boundaries where a workspace
/// newtype exists for the quantity.
fn check_unit_escape(
    rel: &str,
    parsed: &ParsedFile,
    symbols: &Symbols,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let Some(krate) = crate_of(rel) else { return };
    for item in &parsed.items {
        let ItemKind::Fn(sig) = &item.kind else {
            continue;
        };
        if !item.is_pub || item.in_trait_impl || in_test(item.line) {
            continue;
        }
        for aq in &symbols.active_quantities {
            let q = &aq.quantity;
            // The newtype's own impl is allowed to speak raw units.
            if item.owner.as_deref() == Some(q.newtype) {
                continue;
            }
            // The rule only binds crates that can actually name the newtype.
            if !symbols.crate_sees(&krate, &aq.def_crate) {
                continue;
            }
            for p in &sig.params {
                if name_denotes(&p.name, q.names, q.suffixes)
                    && q.raw.iter().any(|raw| ty_mentions(&p.ty, raw))
                    && !ty_mentions(&p.ty, q.newtype)
                {
                    out.push(Finding {
                        file: rel.to_owned(),
                        line: item.line,
                        col: item.col,
                        rule: Rule::UnitEscape,
                        message: format!(
                            "pub fn `{}` takes `{}: {}`; use the `{}` newtype from `{}` at public boundaries",
                            item.name, p.name, p.ty, q.newtype, aq.def_crate
                        ),
                    });
                }
            }
            if let Some(ret) = &sig.ret {
                if name_denotes(&item.name, q.names, q.suffixes)
                    && q.raw.iter().any(|raw| ty_mentions(ret, raw))
                    && !ty_mentions(ret, q.newtype)
                {
                    out.push(Finding {
                        file: rel.to_owned(),
                        line: item.line,
                        col: item.col,
                        rule: Rule::UnitEscape,
                        message: format!(
                            "pub fn `{}` returns `{}`; use the `{}` newtype from `{}` at public boundaries",
                            item.name, ret, q.newtype, aq.def_crate
                        ),
                    });
                }
            }
        }
    }
}

/// Fallible I/O-ish method names whose `Result` must not be dropped
/// silently in deterministic crates.
const IO_METHODS: [&str; 9] = [
    "flush",
    "send",
    "recv",
    "sync_all",
    "sync_data",
    "write_all",
    "write_fmt",
    "set_len",
    "wait",
];

/// Whether a discarded expression's tokens contain a fallible I/O, fs, or
/// always-`Result` workspace call.
fn expr_swallows_result(expr: &[Token], symbols: &Symbols) -> Option<String> {
    for (j, t) in expr.iter().enumerate() {
        let next_is = |p: &str| expr.get(j + 1).and_then(Token::punct) == Some(p);
        if let Some(id) = t.ident() {
            let prev_punct = j.checked_sub(1).and_then(|k| expr[k].punct());
            if next_is("(") {
                if prev_punct == Some(".") && IO_METHODS.contains(&id) {
                    return Some(format!(".{id}()"));
                }
                if prev_punct == Some("::") && j >= 2 && expr[j - 2].ident() == Some("fs") {
                    return Some(format!("fs::{id}()"));
                }
                if prev_punct != Some(".") && symbols.always_returns_result(id) {
                    return Some(format!("{id}()"));
                }
            }
            if (id == "write" || id == "writeln") && next_is("!") {
                // Fallible only when the target is a field/path expression
                // (`self.writer`, `io::stderr()`); a bare local ident is a
                // `fmt::Write` String target and infallible.
                if let Some(open) =
                    (j + 2..expr.len()).find(|k| matches!(expr[*k].punct(), Some("(" | "[" | "{")))
                {
                    let args = &expr[open + 1..];
                    let target: Vec<&Token> = parse::split_top_commas(args)
                        .first()
                        .map(|s| s.iter().collect())
                        .unwrap_or_default();
                    if target.iter().any(|t| matches!(t.punct(), Some("." | "::"))) {
                        return Some(format!("{id}!"));
                    }
                }
            }
        }
    }
    None
}

/// L10: `let _ =` / `drop(...)` silently discarding a fallible result.
fn check_swallowed_fallibility(
    rel: &str,
    tokens: &[Token],
    symbols: &Symbols,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if in_test(t.line) {
            i += 1;
            continue;
        }
        // `let _ = <expr> ;`
        if t.ident() == Some("let")
            && tokens.get(i + 1).and_then(Token::ident) == Some("_")
            && tokens.get(i + 2).and_then(Token::punct) == Some("=")
        {
            let start = i + 3;
            let mut depth = 0i32;
            let mut end = start;
            while end < tokens.len() {
                match tokens[end].punct() {
                    Some("(" | "[" | "{") => depth += 1,
                    Some(")" | "]" | "}") => depth -= 1,
                    Some(";") if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            if let Some(what) = expr_swallows_result(&tokens[start..end], symbols) {
                push(
                    out,
                    rel,
                    t,
                    Rule::SwallowedFallibility,
                    format!(
                        "`let _ =` discards the Result of `{what}`; handle the error or add an accounted waiver"
                    ),
                );
            }
            i = end;
            continue;
        }
        // `drop(<expr>)` — the free function, not `.drop()` or `fn drop`.
        if t.ident() == Some("drop")
            && tokens.get(i + 1).and_then(Token::punct) == Some("(")
            && i.checked_sub(1)
                .is_none_or(|k| tokens[k].punct() != Some(".") && tokens[k].ident() != Some("fn"))
        {
            let open = i + 1;
            let mut depth = 0i32;
            let mut close = open;
            while close < tokens.len() {
                match tokens[close].punct() {
                    Some("(") => depth += 1,
                    Some(")") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            if let Some(what) =
                expr_swallows_result(&tokens[open + 1..close.min(tokens.len())], symbols)
            {
                push(
                    out,
                    rel,
                    t,
                    Rule::SwallowedFallibility,
                    format!(
                        "`drop(..)` discards the Result of `{what}`; handle the error or add an accounted waiver"
                    ),
                );
            }
            i = close;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET: FileScope = FileScope {
        is_test_context: false,
        is_deterministic_path: true,
    };

    fn rules_of(out: &FileOutcome) -> Vec<Rule> {
        out.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_paths() {
        assert!(classify_path("crates/lint/tests/fixtures/seedlike/x.rs").is_none());
        assert!(classify_path("target/debug/x.rs").is_none());
        let s = classify_path("crates/sim/src/volt.rs").unwrap();
        assert!(s.is_deterministic_path && !s.is_test_context);
        let t = classify_path("crates/sim/tests/substrate_properties.rs").unwrap();
        assert!(t.is_test_context);
        let b = classify_path("crates/bench/src/lib.rs").unwrap();
        assert!(!b.is_deterministic_path);
        let tr = classify_path("crates/trace/src/sink.rs").unwrap();
        assert!(tr.is_deterministic_path && !tr.is_test_context);
        let root = classify_path("src/bin/voltmargin.rs").unwrap();
        assert!(!root.is_deterministic_path && !root.is_test_context);
    }

    // ------------------------------------------------------------------
    // Semantic rules L7 and L10 against a hand-built symbol table.

    fn sim_symbols() -> Symbols {
        let mut sym = Symbols::default();
        sym.newtypes
            .insert("Millivolts".into(), ("u32".into(), "sim".into()));
        sym.newtypes
            .insert("CoreId".into(), ("u8".into(), "sim".into()));
        sym.fn_result.insert("persist_cache".into(), (1, 1));
        sym.fn_result.insert("lookup".into(), (1, 2));
        sym.active_quantities = vec![
            crate::symbols::ActiveQuantity {
                quantity: crate::symbols::Quantity {
                    newtype: "Millivolts",
                    raw: &["u32"],
                    names: &["mv"],
                    suffixes: &["_mv"],
                },
                def_crate: "sim".into(),
            },
            crate::symbols::ActiveQuantity {
                quantity: crate::symbols::Quantity {
                    newtype: "CoreId",
                    raw: &["u8"],
                    names: &["core"],
                    suffixes: &[],
                },
                def_crate: "sim".into(),
            },
        ];
        sym
    }

    fn lint_sem(src: &str) -> FileOutcome {
        lint_rust_file("crates/sim/src/x.rs", src, DET, &sim_symbols())
    }

    #[test]
    fn unit_escape_flags_raw_param_and_return() {
        let out = lint_sem("pub fn set(mv: u32) {}\npub fn vmin_mv(&self) -> Option<u32> { None }");
        assert_eq!(rules_of(&out), vec![Rule::UnitEscape, Rule::UnitEscape]);
    }

    #[test]
    fn unit_escape_exemptions() {
        // Private fn, typed param, newtype's own impl, unrelated name.
        let src = "fn step(mv: u32) {}\n\
                   pub fn set(mv: Millivolts) {}\n\
                   impl Millivolts { pub fn new(mv: u32) -> Self { Self(mv) } }\n\
                   pub fn count(n: u32) {}";
        assert!(lint_sem(src).findings.is_empty());
    }

    #[test]
    fn unit_escape_needs_dep_visibility() {
        // `trace` does not depend on `sim`, so it cannot name Millivolts.
        let out = lint_rust_file(
            "crates/trace/src/x.rs",
            "pub fn set(mv: u32) {}",
            DET,
            &sim_symbols(),
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn swallowed_fallibility_flags_io_and_workspace_results() {
        let src = "fn f(w: &mut W) { let _ = w.flush(); }\n\
                   fn g() { let _ = persist_cache(&path); }\n\
                   fn h(w: &mut W) { let _ = writeln!(self.writer, \"x\"); }\n\
                   fn k() { drop(fs::remove_file(p)); }";
        let out = lint_sem(src);
        assert_eq!(rules_of(&out), vec![Rule::SwallowedFallibility; 4]);
    }

    #[test]
    fn swallowed_fallibility_exemptions() {
        // String-target write! is infallible; `lookup` is not always-Result;
        // plain drops of values are fine; waived sites count as waivers.
        let src = "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }\n\
                   fn g() { let _ = lookup(k); }\n\
                   fn h(v: Vec<u8>) { drop(v); }\n\
                   fn k(w: &mut W) {\n\
                     // lint: allow(swallowed-fallibility) — best-effort progress\n\
                     let _ = w.flush();\n\
                   }";
        let out = lint_sem(src);
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(out.waivers[0].used);
    }

    #[test]
    fn waiver_same_line_and_line_above() {
        let same =
            "fn f(w: &mut W) { let _ = w.flush(); } // lint: allow(swallowed-fallibility) — ok";
        let out = lint_sem(same);
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(out.waivers[0].used);

        let above =
            "fn f(w: &mut W) {\n // lint: allow(swallowed-fallibility) — ok\n let _ = w.flush();\n}";
        assert!(lint_sem(above).findings.is_empty());
    }

    #[test]
    fn unused_waiver_reported_unused() {
        let out = lint_sem("// lint: allow(swallowed-fallibility)\nfn f() { let a = 1; }");
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(!out.waivers[0].used);
    }

    #[test]
    fn waiver_only_covers_its_rule() {
        let src = "fn f(w: &mut W) { let _ = w.flush(); } // lint: allow(unit-escape)";
        let out = lint_sem(src);
        assert_eq!(rules_of(&out), vec![Rule::SwallowedFallibility]);
    }

    #[test]
    fn tokens_in_strings_do_not_fire() {
        let src = r#"fn f() { let s = "let _ = w.flush(); drop(fs::remove_file(p))"; }"#;
        assert!(lint_sem(src).findings.is_empty());
    }

    #[test]
    fn test_context_files_are_exempt() {
        let out = lint_rust_file(
            "crates/sim/tests/t.rs",
            "fn f(w: &mut W) { let _ = w.flush(); }",
            FileScope {
                is_test_context: true,
                is_deterministic_path: true,
            },
            &sim_symbols(),
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn semantic_rules_skip_test_spans() {
        let src = "#[cfg(test)]\nmod tests {\n pub fn set(mv: u32) {}\n fn f(w: &mut W) { let _ = w.flush(); }\n}";
        assert!(lint_sem(src).findings.is_empty());
    }
}
