#![forbid(unsafe_code)]
//! `dles-lint` — determinism & simulation-safety static analysis.
//!
//! The repro's headline guarantee is that a seeded run produces
//! byte-identical traces, counters and reports for any `--threads` count.
//! That guarantee is easy to break silently — a stray `Instant::now`, a
//! `HashMap` iterated into a report, a `partial_cmp().unwrap()` on a NaN —
//! so this crate checks the source mechanically instead of by convention.
//! Rules are numbered D001–D011 (D009 is retired), plus D000 for
//! allow-comment hygiene; `LINTS.md` at the workspace root documents each
//! one. Every rule runs on one file at a time ([`rules`]). The only
//! workspace step is D010's merge of every file's counter keys against
//! README's registry ([`counters`]).
//!
//! The scanner is a hand-rolled token-level lexer ([`lexer`]) because the
//! build environment is offline (no `syn`); the rules ([`rules`]) operate
//! on that token stream with string/comment/attribute awareness.

pub mod counters;
pub mod lexer;
pub mod rules;
pub mod suffixes;

pub use counters::CounterSite;
pub use rules::{crosscheck_docs, scan_file, DeferredAllow, DocCandidate, Finding, RuleId};

use std::fs;
use std::path::{Path, PathBuf};

/// Subdirectories of the workspace root scanned by default.
pub const DEFAULT_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// The aggregated result of scanning a set of files.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub cli_flags: Vec<DocCandidate>,
    /// Every file's literal counter keys, merged by the D010 check.
    pub counter_sites: Vec<CounterSite>,
    /// `allow(D010)` directives, matched after the merge.
    pub deferred_allows: Vec<DeferredAllow>,
    /// Files that could not be read: drives the distinct exit code 2, so
    /// CI can tell "the tree has violations" from "the scan was partial".
    pub io_errors: usize,
}

impl ScanOutcome {
    /// Findings not suppressed by an allow comment.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_violation())
    }

    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }
}

/// Recursively collect `.rs` files under `dir`, sorted by path so the
/// linter's own output is deterministic. Skips build output (`target`) and
/// lint test corpora (`fixtures` directories hold intentionally bad code).
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan `files` (absolute or root-relative paths), reporting findings with
/// workspace-relative paths. Unreadable files are themselves findings —
/// the linter must never silently skip part of the tree.
pub fn scan_files(root: &Path, files: &[PathBuf]) -> ScanOutcome {
    let mut outcome = ScanOutcome::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(file) {
            Ok(src) => {
                let scan = scan_file(&rel, &src);
                outcome.findings.extend(scan.findings);
                outcome.cli_flags.extend(scan.cli_flags);
                outcome.counter_sites.extend(scan.counter_sites);
                outcome.deferred_allows.extend(scan.deferred_allows);
                outcome.files_scanned += 1;
            }
            Err(e) => {
                outcome.io_errors += 1;
                outcome.findings.push(Finding::new(
                    RuleId::D000,
                    &rel,
                    0,
                    format!("cannot read file: {e}"),
                ));
            }
        }
    }
    outcome
}

/// Run the D006 documentation cross-check against `README.md` at the
/// workspace root, appending any findings to `outcome`.
pub fn crosscheck_workspace_docs(root: &Path, outcome: &mut ScanOutcome) {
    if outcome.cli_flags.is_empty() {
        return;
    }
    let readme = root.join("README.md");
    match fs::read_to_string(&readme) {
        Ok(text) => {
            let findings = crosscheck_docs("README.md", &text, &outcome.cli_flags);
            outcome.findings.extend(findings);
        }
        Err(e) => outcome.findings.push(Finding::new(
            RuleId::D006,
            "README.md",
            0,
            format!("cannot read README.md for the flag cross-check: {e}"),
        )),
    }
}

/// Run the workspace half of D010: the merged counter keys against the
/// counter-key registry in `README.md`, appending findings to `outcome`.
/// `full` marks a whole-workspace scan, the only mode where "documented
/// counter key has no emit site" is decidable.
pub fn analyze_workspace(root: &Path, outcome: &mut ScanOutcome, full: bool) {
    let readme = fs::read_to_string(root.join("README.md")).ok();
    let findings = counters::analyze(
        &outcome.counter_sites,
        readme.as_deref(),
        full,
        &outcome.deferred_allows,
    );
    outcome.findings.extend(findings);
}

/// Sort findings for stable output: by path, then line, then rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
}

/// Human-readable report: one line per violation, plus a summary.
pub fn render_human(outcome: &ScanOutcome) -> String {
    let mut out = String::new();
    for f in outcome.violations() {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            f.path,
            f.line,
            f.rule.as_str(),
            f.message
        ));
    }
    let allowed = outcome.findings.len() - outcome.violation_count();
    out.push_str(&format!(
        "dles-lint: {} file(s) scanned, {} violation(s), {} allowed\n",
        outcome.files_scanned,
        outcome.violation_count(),
        allowed
    ));
    out
}

/// JSON report (hand-rolled — the workspace is offline, no serde): every
/// finding including allowed ones, plus the per-rule summary. Uploaded as
/// a CI artifact.
pub fn render_json(outcome: &ScanOutcome) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in outcome.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": {}, \"line\": {}, \"message\": {}, \
             \"allowed\": {}}}{}\n",
            f.rule.as_str(),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            match &f.allowed {
                Some(reason) => json_str(reason),
                None => "null".to_owned(),
            },
            if i + 1 < outcome.findings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"summary\": {\n");
    out.push_str(&format!(
        "    \"files_scanned\": {},\n    \"violations\": {},\n    \"allowed\": {},\n",
        outcome.files_scanned,
        outcome.violation_count(),
        outcome.findings.len() - outcome.violation_count()
    ));
    // Every rule appears, including zero counts, so CI dashboards can
    // diff runs without special-casing absent keys.
    out.push_str("    \"by_rule\": {");
    for (i, rule) in RuleId::ALL.into_iter().enumerate() {
        let n = outcome.violations().filter(|f| f.rule == rule).count();
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {n}", rule.as_str()));
    }
    out.push_str("}\n  }\n}\n");
    out
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn render_json_is_valid_shape() {
        let mut outcome = ScanOutcome {
            files_scanned: 2,
            ..ScanOutcome::default()
        };
        outcome.findings.push(Finding::new(
            RuleId::D003,
            "crates/x/src/lib.rs",
            7,
            "hash-ordered container `HashMap`".to_owned(),
        ));
        outcome.findings.push(Finding {
            allowed: Some("invariant".to_owned()),
            ..Finding::new(
                RuleId::D005,
                "crates/core/src/pipeline.rs",
                9,
                "unwrap".to_owned(),
            )
        });
        let json = render_json(&outcome);
        assert!(json.contains("\"rule\": \"D003\""));
        assert!(json.contains("\"allowed\": \"invariant\""));
        assert!(json.contains("\"violations\": 1"));
        // All rules are present, zero counts included.
        assert!(json.contains("\"D003\": 1"));
        assert!(json.contains("\"D001\": 0"));
        assert!(json.contains("\"D008\": 0"));
    }

    #[test]
    fn sort_is_stable_by_path_line_rule() {
        let f = |rule, path: &str, line| Finding::new(rule, path, line, String::new());
        let mut v = vec![
            f(RuleId::D005, "b.rs", 2),
            f(RuleId::D001, "b.rs", 2),
            f(RuleId::D003, "a.rs", 9),
        ];
        sort_findings(&mut v);
        assert_eq!(v[0].path, "a.rs");
        assert_eq!(v[1].rule, RuleId::D001);
        assert_eq!(v[2].rule, RuleId::D005);
    }
}
