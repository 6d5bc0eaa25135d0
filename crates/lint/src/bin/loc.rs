//! `loc` — non-test line counts per crate, for line-count claims in
//! change notes: `cargo run -p cent-lint --bin loc` from the workspace.
//!
//! For every `.rs` file under a crate's `src/` (the file set of
//! `cent-lint`'s own walk), it counts the lines before the first top-level
//! `#[cfg(test)]` — the whole file when there is none — and prints each
//! file, then a total per crate and a grand total. A crate is the
//! directory that holds `src/` (`.` for the root package).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use cent_lint::{find_workspace_root, workspace_files};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loc: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let root = find_workspace_root(&std::env::current_dir().map_err(|e| e.to_string())?);
    let files = workspace_files(&root).map_err(|e| e.to_string())?;
    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for path in &files {
        let Some(krate) = crate_of(path) else { continue };
        let text = std::fs::read_to_string(root.join(path)).map_err(|e| format!("{path}: {e}"))?;
        let lines = non_test_lines(&text);
        println!("{lines:>7}  {path}");
        *totals.entry(krate).or_default() += lines;
    }
    for (krate, lines) in &totals {
        println!("{lines:>7}  {krate} total");
    }
    println!("{:>7}  all crates", totals.values().sum::<usize>());
    Ok(())
}

/// The crate directory of a workspace-relative `path` under some `src/`.
fn crate_of(path: &str) -> Option<&str> {
    if path.starts_with("src/") {
        return Some(".");
    }
    path.find("/src/").map(|at| &path[..at])
}

/// Lines before the first top-level `#[cfg(test)]` (all lines if none).
/// Only an unindented attribute counts: a test gate inside an item does
/// not end the file's non-test part.
fn non_test_lines(text: &str) -> usize {
    text.lines().take_while(|line| line.trim_end() != "#[cfg(test)]").count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_stop_at_the_first_top_level_test_gate() {
        let text = "fn a() {}\n    #[cfg(test)]\n    fn b() {}\n\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(non_test_lines(text), 4);
        assert_eq!(non_test_lines("fn a() {}\nfn b() {}\n"), 2);
        assert_eq!(non_test_lines("#[cfg(test)]\nmod tests {}\n"), 0);
    }

    #[test]
    fn crates_are_the_directories_holding_src() {
        assert_eq!(crate_of("crates/pim/src/channel.rs"), Some("crates/pim"));
        assert_eq!(crate_of("crates/lint/src/bin/loc.rs"), Some("crates/lint"));
        assert_eq!(crate_of("src/lib.rs"), Some("."));
        assert_eq!(crate_of("tests/proptests.rs"), None);
    }
}
