//! The result of a lint run and its human diagnostics.
//!
//! Findings and waivers are kept in sorted order, so two runs over the
//! same tree render byte-identical text — the linter holds itself to the
//! invariant it enforces.

use crate::rules::{Finding, Rule, Waiver};
use std::fmt::Write as _;

/// Everything a lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace-relative files scanned (manifests and Rust sources).
    pub files_scanned: usize,
    /// Unwaived findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Every waiver encountered, sorted, each flagged used/unused.
    pub waivers: Vec<Waiver>,
}

impl Report {
    /// Finalizes ordering so rendering is deterministic.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        self.waivers
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// `file:line:col: [rule] message` diagnostics plus a summary block.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(
                s,
                "{}:{}:{}: [{}] {}",
                f.file,
                f.line,
                f.col,
                f.rule.name(),
                f.message
            );
        }
        let _ = writeln!(
            s,
            "margins-lint: {} file(s) scanned, {} finding(s), {} waiver(s)",
            self.files_scanned,
            self.findings.len(),
            self.waivers.len()
        );
        let unused: Vec<&Waiver> = self.waivers.iter().filter(|w| !w.used).collect();
        if !unused.is_empty() {
            let _ = writeln!(s, "unused waivers ({}):", unused.len());
            for w in unused {
                let unknown = if Rule::from_name(&w.rule).is_some() {
                    ""
                } else {
                    " (no such rule)"
                };
                let _ = writeln!(s, "  {}:{}: allow({}){unknown}", w.file, w.line, w.rule);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_render_names_each_finding_and_unused_waiver() {
        let mut r = Report {
            files_scanned: 2,
            findings: vec![
                Finding {
                    file: "crates/sim/src/b.rs".into(),
                    line: 9,
                    col: 4,
                    rule: Rule::SwallowedFallibility,
                    message: "flush()".into(),
                },
                Finding {
                    file: "crates/sim/src/a.rs".into(),
                    line: 2,
                    col: 1,
                    rule: Rule::UnitEscape,
                    message: "m".into(),
                },
            ],
            waivers: vec![
                Waiver {
                    file: "crates/sim/src/a.rs".into(),
                    line: 5,
                    rule: "unit-escape".into(),
                    used: false,
                },
                Waiver {
                    file: "crates/sim/src/a.rs".into(),
                    line: 6,
                    rule: "span-balance".into(),
                    used: false,
                },
            ],
        };
        r.sort();
        let text = r.render_human();
        let a = text
            .find("crates/sim/src/a.rs:2:1: [unit-escape] m")
            .unwrap();
        let b = text
            .find("crates/sim/src/b.rs:9:4: [swallowed-fallibility] flush()")
            .unwrap();
        assert!(a < b, "findings are sorted by file");
        assert!(text.contains("2 file(s) scanned, 2 finding(s), 2 waiver(s)"));
        assert!(text.contains(
            "unused waivers (2):\n  crates/sim/src/a.rs:5: allow(unit-escape)\n  \
             crates/sim/src/a.rs:6: allow(span-balance) (no such rule)\n"
        ));
    }
}
