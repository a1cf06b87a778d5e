#![forbid(unsafe_code)]
//! `dles-lint` — the source scanner behind the workspace's two README
//! cross-checks.
//!
//! The determinism rules themselves are Clippy configuration (`LINTS.md`
//! at the workspace root). Two facts Clippy cannot see stay here, each
//! run by a unit test next to the code it guards:
//!
//! * D006 — every `repro` CLI flag appears in README (the test in
//!   `crates/bench/src/bin/repro.rs` calls [`scan_file`] and
//!   [`crosscheck_docs`]);
//! * D010 — every `CounterSet` key is a literal with one owning crate and
//!   a row in README's counter-key registry, and every row still has an
//!   emit site (the test in `crates/core/src/pipeline.rs` calls
//!   [`check_workspace_counters`]).
//!
//! The scanner is a hand-rolled token-level lexer ([`lexer`]) because the
//! build environment is offline (no `syn`); [`rules`] and [`counters`]
//! walk its token stream, so comments, doc examples and strings never
//! count as code.

pub mod counters;
pub mod lexer;
pub mod rules;

pub use counters::CounterSite;
pub use rules::{crosscheck_docs, scan_file, DocCandidate, Finding, RuleId};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Subdirectories of the workspace root scanned for counter sites.
const DEFAULT_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Recursively collect `.rs` files under `dir`, sorted by path so the
/// findings come out in a stable order. Skips build output (`target`),
/// test corpora (`fixtures` directories hold intentionally bad code) and
/// packages that are their own workspace root (the `e2e` benchmark), which
/// are not part of the workspace Cargo and Clippy see.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let own_workspace = fs::read_to_string(path.join("Cargo.toml"))
                .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"));
            if name == "target" || name == "fixtures" || name.starts_with('.') || own_workspace {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run D010 over the whole workspace at `root`: every file's counter
/// sites (paths relative to `root`), merged and checked against
/// `root/README.md`. The findings come back sorted; an unreadable file is
/// an error, never a silently partial scan.
pub fn check_workspace_counters(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for dir in DEFAULT_ROOTS {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let scan = scan_file(&rel, &fs::read_to_string(file)?);
        findings.extend(scan.findings);
        sites.extend(scan.counter_sites);
    }
    let readme = fs::read_to_string(root.join("README.md"))?;
    findings.extend(counters::analyze(&sites, Some(&readme), true));
    sort_findings(&mut findings);
    Ok(findings)
}

/// Sort findings for stable output: by path, then line, then rule.
fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then((a.rule as u8).cmp(&(b.rule as u8)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_is_stable_by_path_line_rule() {
        let f = |rule, path: &str, line| Finding::new(rule, path, line, String::new());
        let mut v = vec![
            f(RuleId::D010, "b.rs", 2),
            f(RuleId::D006, "b.rs", 2),
            f(RuleId::D010, "a.rs", 9),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].path, "a.rs");
        assert_eq!(v[1].rule, RuleId::D006);
        assert_eq!(v[2].rule, RuleId::D010);
    }
}
