//! The files cargo builds, in a deterministic order.
//!
//! The lint judges the workspace's packages, not whatever lies in the
//! working tree: the root package and each `crates/*` member contribute
//! their `Cargo.toml` and the Rust files under `src/`, `tests/`,
//! `examples/` and `benches/`. An untracked copy of the sources (a
//! benchmark checkout under `.bench_build/`, say) would otherwise be
//! linted as root-package code and could claim the workspace's newtypes,
//! and `perf/`, which is not a member, would be linted too.

use std::fs;
use std::io;
use std::path::Path;

/// The package directories whose Rust files cargo compiles.
const SOURCE_DIRS: [&str; 4] = ["src", "tests", "examples", "benches"];

/// Lists the package manifests and Rust sources of the workspace at
/// `root`, sorted, as workspace-relative `/`-separated paths.
pub fn walk(root: &Path) -> io::Result<Vec<String>> {
    let mut packages = vec![String::new()];
    let members = root.join("crates");
    if members.is_dir() {
        for entry in fs::read_dir(&members)? {
            let dir = entry?.path();
            if dir.join("Cargo.toml").is_file() {
                packages.push(format!("crates/{}/", file_name(&dir)));
            }
        }
    }
    let mut out = Vec::new();
    for package in packages {
        let manifest = format!("{package}Cargo.toml");
        if root.join(&manifest).is_file() {
            out.push(manifest);
        }
        for sub in SOURCE_DIRS {
            let rel = format!("{package}{sub}");
            let dir = root.join(&rel);
            if dir.is_dir() {
                walk_sources(&dir, &rel, &mut out)?;
            }
        }
    }
    // `read_dir` order is filesystem-dependent; the report must not be.
    out.sort();
    Ok(out)
}

fn walk_sources(dir: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = format!("{rel}/{}", file_name(&path));
        if path.is_dir() {
            walk_sources(&path, &rel, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_sorted_and_relative() {
        let dir = std::env::temp_dir().join(format!("margins-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for file in [
            "Cargo.toml",
            "src/lib.rs",
            "src/bin/z.rs",
            "src/notes.md",
            "tests/t.rs",
            "crates/b/Cargo.toml",
            "crates/b/benches/x.rs",
            "crates/b/scratch.rs",
            "crates/unlisted/src/y.rs",
            "perf/src/p.rs",
            ".bench_build/parent/src/lib.rs",
            ".git/ignored.rs",
        ] {
            let path = dir.join(file);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, "").unwrap();
        }
        assert_eq!(
            walk(&dir).unwrap(),
            [
                "Cargo.toml",
                "crates/b/Cargo.toml",
                "crates/b/benches/x.rs",
                "src/bin/z.rs",
                "src/lib.rs",
                "tests/t.rs",
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
