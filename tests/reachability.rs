//! Every library `pub fn` has a caller: some other file of the workspace
//! names it. A function named only by its own file is either dead or
//! private in all but its keyword.
//!
//! The search reads every `.rs` file under `crates/`, `src/`, `tests/`,
//! `examples/` and `e2e_bench/src` once, as a set of identifiers per file,
//! leaving out its `pub use …;` statements: a re-export names a function
//! without calling it.
//! The candidates are the `pub fn NAME` lines of `crates/*/src`, each file
//! read up to its first `#[cfg(test)]`. There is no allowlist: a function
//! that must stay public names a caller.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "e2e_bench/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` without its `pub use …;` statements.
fn without_reexports(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("pub use ") {
        out.push_str(&rest[..i]);
        rest = rest[i..].find(';').map_or("", |j| &rest[i + j + 1..]);
    }
    out.push_str(rest);
    out
}

fn identifiers(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// The names of the `pub fn`s declared before the file's first `#[cfg(test)]`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .filter_map(|rest| rest.split(['(', '<']).next())
        .map(str::trim)
        .collect()
}

#[test]
fn every_library_pub_fn_is_named_by_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    files.retain(|f| *f != this_file);
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).unwrap())
        .collect();

    // identifier -> how many files contain it
    let uses: Vec<String> = texts.iter().map(|t| without_reexports(t)).collect();
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for text in &uses {
        for id in identifiers(text) {
            *files_naming.entry(id).or_default() += 1;
        }
    }

    let library = root.join("crates");
    let mut orphans = Vec::new();
    let mut checked = 0;
    for (file, text) in files.iter().zip(&texts) {
        let rel = file.strip_prefix(&library).unwrap_or(file);
        if !file.starts_with(&library)
            || rel
                .components()
                .nth(1)
                .is_none_or(|c| c.as_os_str() != "src")
        {
            continue;
        }
        for name in pub_fns(text) {
            checked += 1;
            // its own file is one of the files containing it
            if files_naming.get(name).copied().unwrap_or(0) < 2 {
                orphans.push(format!("{}::{name}", rel.display()));
            }
        }
    }
    assert!(checked > 0, "no pub fn found under {}", library.display());
    assert!(
        orphans.is_empty(),
        "{} pub fn(s) named by no file but their own; delete each, or drop its `pub`:\n  {}",
        orphans.len(),
        orphans.join("\n  ")
    );
}
