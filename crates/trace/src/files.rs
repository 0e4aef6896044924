//! Trace and cache files on disk: deterministic discovery and whole-file
//! writes.
//!
//! `trace-check` and `trace-scope` both accept directories as well as
//! explicit files; [`collect_jsonl`] expands the former into a sorted
//! recursive listing of `*.jsonl` files so a directory argument yields the
//! same file order on every run and platform. [`write_atomic`] replaces a
//! file whole or not at all, so a reader never finds it torn.

use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` whole or not at all: into a sibling
/// temporary file (`.NAME.PID.tmp` in the same directory), which is then
/// renamed over `path`. A process killed mid-write leaves the previous
/// file, or none, never a torn one. On failure `path` is untouched and the
/// temporary file is removed (the error says so if it could not be).
///
/// # Errors
///
/// Fails if `path` has no file name, or the temporary file cannot be
/// written or renamed.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{}: not a file path", path.display()),
        )
    })?;
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let Err(e) = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path)) else {
        return Ok(());
    };
    match std::fs::remove_file(&tmp) {
        Ok(()) => Err(e),
        Err(gone) if gone.kind() == io::ErrorKind::NotFound => Err(e),
        Err(left) => Err(io::Error::new(
            e.kind(),
            format!("{e}; {} left behind: {left}", tmp.display()),
        )),
    }
}

/// Expands a mixed list of files and directories into concrete trace
/// files. Explicit file arguments are kept verbatim (whatever their
/// extension); directories are walked recursively and contribute their
/// `*.jsonl` files in lexicographic path order.
///
/// # Errors
///
/// Fails if any argument does not exist or a directory cannot be read.
pub fn collect_jsonl<P: AsRef<Path>>(paths: &[P]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for path in paths {
        let path = path.as_ref();
        let meta = std::fs::metadata(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        if meta.is_dir() {
            walk_sorted(path, &mut files)?;
        } else {
            files.push(path.to_path_buf());
        }
    }
    Ok(files)
}

/// Appends every `*.jsonl` under `dir` (recursively) in sorted order.
fn walk_sorted(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            walk_sorted(&entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "jsonl") {
            out.push(entry);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("margins-trace-files-{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean scratch");
        }
        std::fs::create_dir_all(&dir).expect("create scratch");
        dir
    }

    #[test]
    fn directories_recurse_sorted_and_filter_jsonl() {
        let dir = scratch_dir("walk");
        std::fs::create_dir(dir.join("sub")).expect("mkdir");
        for name in ["b.jsonl", "a.jsonl", "notes.txt", "sub/c.jsonl"] {
            std::fs::write(dir.join(name), "").expect("touch");
        }
        let found = collect_jsonl(&[&dir]).expect("walk");
        let names: Vec<String> = found
            .iter()
            .map(|p| {
                p.strip_prefix(&dir)
                    .expect("under scratch")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        assert_eq!(names, ["a.jsonl", "b.jsonl", "sub/c.jsonl"]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The names of every entry of `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn atomic_writes_replace_whole_files_and_leave_no_temporary() {
        let dir = scratch_dir("atomic");
        let file = dir.join("cache.jsonl");
        write_atomic(&file, "first\n").expect("create");
        write_atomic(&file, "second\n").expect("replace");
        assert_eq!(std::fs::read_to_string(&file).expect("read"), "second\n");
        assert_eq!(listing(&dir), ["cache.jsonl"]);

        // A failed write leaves the old file and no temporary behind.
        let err = write_atomic(dir.join("missing/cache.jsonl"), "x").expect_err("no parent");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(listing(&dir), ["cache.jsonl"]);
        assert!(write_atomic(Path::new("/"), "x").is_err(), "no file name");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn explicit_files_pass_through_and_missing_paths_fail() {
        let dir = scratch_dir("explicit");
        let file = dir.join("trace.log");
        std::fs::write(&file, "").expect("touch");
        let found = collect_jsonl(&[&file]).expect("explicit file");
        assert_eq!(found, vec![file]);
        let missing = dir.join("absent.jsonl");
        let err = collect_jsonl(&[&missing]).expect_err("missing path");
        assert!(err.to_string().contains("absent.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
