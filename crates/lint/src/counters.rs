//! D010, counter-key discipline: the one check that needs the whole
//! workspace in view.
//!
//! [`crate::scan_file`] collects each file's literal-keyed `CounterSet`
//! emit sites (and reports a non-literal key on the spot); [`analyze`]
//! then checks the merged sites against README's counter-key registry:
//! every key has one owning crate, every key is documented, and on a full
//! scan every registry row still has an emit site.

use crate::lexer::{Token, TokenKind};
use crate::rules::{close_of, Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// One literal key a `CounterSet` emit site can produce:
/// `counters.incr("k")`, `counters.add("k", n)`, or one arm of a `match`
/// key argument.
#[derive(Debug, Clone)]
pub struct CounterSite {
    pub key: String,
    pub path: String,
    pub line: u32,
}

/// Crate name from a workspace-relative path (`crates/<name>/…` →
/// `<name>`; otherwise the first segment, so `tests/` and `examples/`
/// each form a pseudo-crate).
fn crate_of(path: &str) -> &str {
    let segs: Vec<&str> = path.split('/').collect();
    let i = segs
        .iter()
        .position(|&s| s == "crates")
        .map_or(0, |i| i + 1);
    segs.get(i).unwrap_or(&segs[0])
}

/// Collect the counter sites of one file's non-test code. A keyed
/// `.incr(expr)` whose key is not a literal is reported as D010 here;
/// `.incr()` with no key and `.add(expr, …)` belong to other types
/// (`Counter`, `EnergyMeter`, …) and are skipped.
pub(crate) fn collect_sites(
    rel_path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) -> Vec<CounterSite> {
    let mut sites = Vec::new();
    for k in 1..sig.len() {
        let tok = &tokens[sig[k]];
        let method = tok.text.as_str();
        let is_call = tok.kind == TokenKind::Ident
            && matches!(method, "incr" | "add")
            && tokens[sig[k - 1]].is_punct('.')
            && sig.get(k + 1).is_some_and(|&ti| tokens[ti].is_punct('('));
        if !is_call || in_test[sig[k]] {
            continue;
        }
        match site_keys(tokens, sig, k + 1) {
            Some((keys, line)) if !keys.is_empty() => {
                sites.extend(keys.into_iter().map(|key| CounterSite {
                    key,
                    path: rel_path.to_owned(),
                    line,
                }));
            }
            Some(_) if method == "incr" => findings.push(Finding::new(
                RuleId::D010,
                rel_path,
                tok.line,
                "counter key is not a string literal — the registry cross-check \
                 needs literal keys"
                    .to_owned(),
            )),
            _ => {}
        }
    }
    sites
}

/// The literal keys of the call whose `(` is at sig index `open`, with
/// the line of its first argument: one key for a literal, one per arm
/// for a `match`, none for any other expression. `None` for an empty
/// argument list.
fn site_keys(tokens: &[Token], sig: &[usize], open: usize) -> Option<(Vec<String>, u32)> {
    let close = close_of(tokens, sig, open);
    if close <= open + 1 {
        return None;
    }
    let first = &tokens[sig[open + 1]];
    let keys = if first.kind == TokenKind::Str {
        vec![first.text.clone()]
    } else if first.is_ident("match") {
        sig[open + 1..close]
            .iter()
            .map(|&ti| &tokens[ti])
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.clone())
            .collect()
    } else {
        Vec::new()
    };
    Some((keys, first.line))
}

/// The workspace half of D010 over every file's counter sites: one
/// owning crate per key, every key in README's counter-key registry, and
/// no dead rows. `full` marks a whole-workspace scan, the only mode where
/// a registry row without an emit site is decidable.
pub fn analyze(sites: &[CounterSite], readme: Option<&str>, full: bool) -> Vec<Finding> {
    let mut by_key: BTreeMap<&str, Vec<&CounterSite>> = BTreeMap::new();
    for s in sites {
        by_key.entry(&s.key).or_default().push(s);
    }
    let registry = readme.and_then(registry_rows);
    let mut findings = Vec::new();
    let mut report = |site: &CounterSite, message: String| {
        findings.push(Finding::new(RuleId::D010, &site.path, site.line, message));
    };
    for (key, key_sites) in &by_key {
        let first = key_sites[0];
        let crates: BTreeSet<&str> = key_sites.iter().map(|s| crate_of(&s.path)).collect();
        if crates.len() > 1 {
            let list: Vec<&str> = crates.into_iter().collect();
            report(
                first,
                format!(
                    "counter key `{key}` is emitted from {} crates ({}) — a key needs a \
                     single owning crate so merged reports stay unambiguous",
                    list.len(),
                    list.join(", ")
                ),
            );
        }
        match &registry {
            Some(rows) if rows.iter().any(|(k, _)| k == key) => {}
            Some(_) => report(
                first,
                format!("counter key `{key}` is not documented in README's counter-key registry"),
            ),
            None => report(
                first,
                format!(
                    "counter key `{key}` cannot be cross-checked: README.md has no \
                     `Counter-key registry` section"
                ),
            ),
        }
    }
    if let (true, Some(rows)) = (full, &registry) {
        for (key, line) in rows {
            if !by_key.contains_key(key.as_str()) {
                findings.push(Finding::new(
                    RuleId::D010,
                    "README.md",
                    *line,
                    format!(
                        "documented counter key `{key}` has no live emit site — delete \
                         the registry row or restore the counter"
                    ),
                ));
            }
        }
    }
    findings
}

/// Rows of README's `Counter-key registry` table: (key, 1-based line).
/// `None` when the section heading is absent altogether.
fn registry_rows(readme: &str) -> Option<Vec<(String, u32)>> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut found = false;
    for (i, line) in readme.lines().enumerate() {
        if line.starts_with('#') {
            in_section = line.to_ascii_lowercase().contains("counter-key registry");
            found |= in_section;
            continue;
        }
        if in_section && line.trim_start().starts_with('|') {
            // First backtick-quoted cell is the key; the header and
            // separator rows have none and fall through.
            if let Some(open) = line.find('`') {
                if let Some(len) = line[open + 1..].find('`') {
                    rows.push((line[open + 1..open + 1 + len].to_owned(), (i + 1) as u32));
                }
            }
        }
    }
    found.then_some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_file;

    /// Scan files and run the workspace half over their merged sites.
    fn analyze_src(files: &[(&str, &str)], readme: Option<&str>, full: bool) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut sites = Vec::new();
        for (path, src) in files {
            let scan = scan_file(path, src);
            findings.extend(scan.findings);
            sites.extend(scan.counter_sites);
        }
        findings.extend(analyze(&sites, readme, full));
        findings
    }

    #[test]
    fn counter_sites_literal_match_and_non_literal() {
        let src = r#"fn f(c: &mut C, k: Kind) {
            c.incr("frames");
            c.add("sweep_jobs", 3);
            c.incr(match k { Kind::A => "a", Kind::B => "b" });
            c.incr(key);
            meter.add(mode, dur);
            plain.incr();
        }
        #[cfg(test)]
        mod tests { fn t(c: &mut C) { c.incr("test_only"); c.incr(k); } }"#;
        let scan = scan_file("crates/core/src/x.rs", src);
        let sites: Vec<(&str, u32)> = scan
            .counter_sites
            .iter()
            .map(|s| (s.key.as_str(), s.line))
            .collect();
        assert_eq!(
            sites,
            vec![("frames", 2), ("sweep_jobs", 3), ("a", 4), ("b", 4)]
        );
        // Only `c.incr(key)` is a non-literal key: `meter.add(mode, …)`
        // and `plain.incr()` are other types' methods.
        let d10: Vec<u32> = scan.findings.iter().map(|f| f.line).collect();
        assert_eq!(d10, vec![5]);
    }

    #[test]
    fn counter_sites_skip_test_example_and_bench_trees() {
        let src = "fn f(c: &mut C, k: &str) { c.incr(\"x\"); c.incr(k); }";
        for path in ["tests/a.rs", "examples/b.rs", "crates/bench/benches/c.rs"] {
            let scan = scan_file(path, src);
            assert!(scan.counter_sites.is_empty() && scan.findings.is_empty());
        }
    }

    #[test]
    fn d010_undocumented_and_non_literal_keys() {
        let src = "fn emit(c: &mut C, k: &str) { c.incr(\"frames\"); c.incr(k); }\n";
        let files = [("crates/core/src/stats_emit.rs", src)];
        let readme =
            "# Counter-key registry\n\n| Key | Meaning |\n|---|---|\n| `frames` | frames |\n";
        let findings = analyze_src(&files, Some(readme), true);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("not a string literal"));

        let readme_missing_key = "# Counter-key registry\n\n| `other` | x |\n";
        let findings = analyze_src(&files, Some(readme_missing_key), false);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("`frames` is not documented")),
            "{findings:?}"
        );
    }

    #[test]
    fn d010_dead_registry_rows_only_in_full_mode() {
        let files = [(
            "crates/core/src/stats_emit.rs",
            "fn emit(c: &mut C) { c.incr(\"frames\"); }\n",
        )];
        let readme = "# Counter-key registry\n| `frames` | ok |\n| `ghost` | dead |\n";
        let full = analyze_src(&files, Some(readme), true);
        assert!(
            full.iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("`ghost` has no live emit")),
            "{full:?}"
        );
        let partial = analyze_src(&files, Some(readme), false);
        assert!(
            !partial.iter().any(|f| f.message.contains("ghost")),
            "{partial:?}"
        );
    }

    #[test]
    fn d010_multi_crate_ownership() {
        let src = "fn e(c: &mut C) { c.incr(\"frames\"); }\n";
        let files = [("crates/core/src/a.rs", src), ("crates/sim/src/b.rs", src)];
        let findings = analyze_src(&files, None, false);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("2 crates (core, sim)")),
            "{findings:?}"
        );
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/sim/src/par.rs"), "sim");
        assert_eq!(crate_of("tests/golden_outputs.rs"), "tests");
        assert_eq!(
            crate_of("crates/lint/tests/fixtures/crates/core/x.rs"),
            "lint"
        );
    }
}
