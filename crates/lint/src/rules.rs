//! The per-file scanner and the README flag cross-check.
//!
//! Two facts about the source must match README, and neither is visible
//! to the compiler or to Clippy:
//!
//! * **D006** — every CLI flag `repro.rs` parses is documented in README;
//! * **D010** — every `CounterSet` key is a string literal listed in
//!   README's counter-key registry (the merge across files is in
//!   [`crate::counters`]).
//!
//! The ids are the ones `LINTS.md` uses. [`scan_file`] lexes one file and
//! walks its code tokens, so a flag literal or a counter call that only
//! appears in a comment or a doc example is never mistaken for code.

use crate::counters::{collect_sites, CounterSite};
use crate::lexer::{lex, Token, TokenKind};

/// Identifier of one cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// Every repro CLI flag must be documented in README.
    D006,
    /// Counter-key discipline: literal, single-owning-crate keys, all
    /// documented in README's counter-key registry, no dead registry rows.
    D010,
}

/// One cross-check finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(rule: RuleId, path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
        }
    }
}

/// A documented-name candidate collected for the D006 cross-check: a CLI
/// flag string matched in `repro.rs`.
#[derive(Debug, Clone)]
pub struct DocCandidate {
    pub name: String,
    pub path: String,
    pub line: u32,
}

/// Everything a file scan produces.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Non-literal counter keys (D010).
    pub findings: Vec<Finding>,
    pub cli_flags: Vec<DocCandidate>,
    /// Literal counter keys for the workspace half of D010.
    pub counter_sites: Vec<CounterSite>,
}

/// D010 covers production code: test, example and bench trees are
/// exempt (their scratch counters run once, off the hot path), but
/// fixture corpora stay in scope so the check is testable.
fn in_scope(path: &str) -> bool {
    if path.contains("fixtures/") {
        return true;
    }
    let in_dir = |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    !(in_dir("tests") || in_dir("examples") || in_dir("benches"))
}

/// Scan one file's source. `rel_path` is workspace-relative: flags are
/// collected only from a file named `repro.rs`, counter sites only
/// outside test, example and bench trees. Code inside a
/// `#[cfg(test)] mod` is skipped by both.
pub fn scan_file(rel_path: &str, src: &str) -> FileScan {
    let tokens = lex(src);
    let sig = sig_indices(&tokens);
    let in_test = mark_test_mods(&tokens, &sig);
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);

    let mut scan = FileScan::default();
    if file_name == "repro.rs" {
        scan.cli_flags = sig
            .iter()
            .map(|&ti| (&tokens[ti], in_test[ti]))
            .filter(|(tok, test_code)| {
                !test_code && tok.kind == TokenKind::Str && is_cli_flag(&tok.text)
            })
            .map(|(tok, _)| DocCandidate {
                name: tok.text.clone(),
                path: rel_path.to_owned(),
                line: tok.line,
            })
            .collect();
    }
    if in_scope(rel_path) {
        scan.counter_sites = collect_sites(rel_path, &tokens, &sig, &in_test, &mut scan.findings);
    }
    scan
}

/// Indices of the non-comment tokens, the stream the checks walk.
fn sig_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect()
}

/// Mark every token that sits inside a `#[cfg(test)] mod … { … }` block.
fn mark_test_mods(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let ident_at = |si: usize, w: &str| sig.get(si).is_some_and(|&ti| tokens[ti].is_ident(w));
    let punct_at = |si: usize, c: char| sig.get(si).is_some_and(|&ti| tokens[ti].is_punct(c));

    let mut si = 0;
    while si < sig.len() {
        let is_cfg_test = punct_at(si, '#')
            && punct_at(si + 1, '[')
            && ident_at(si + 2, "cfg")
            && punct_at(si + 3, '(')
            && ident_at(si + 4, "test")
            && punct_at(si + 5, ')')
            && punct_at(si + 6, ']');
        if !is_cfg_test {
            si += 1;
            continue;
        }
        // Skip over any further attributes between #[cfg(test)] and `mod`.
        let mut j = si + 7;
        while punct_at(j, '#') && punct_at(j + 1, '[') {
            j = close_of(tokens, sig, j + 1) + 1;
        }
        if !(ident_at(j, "mod") && punct_at(j + 2, '{')) {
            si += 1;
            continue;
        }
        let k = close_of(tokens, sig, j + 2);
        let end_tok = sig.get(k).map_or(tokens.len() - 1, |&ti| ti);
        for slot in &mut in_test[sig[si]..=end_tok] {
            *slot = true;
        }
        si = k.max(si + 1);
    }
    in_test
}

/// Sig index of the delimiter that closes the `(`, `[` or `{` at sig
/// index `open`; `sig.len()` when the file ends first.
pub(crate) fn close_of(tokens: &[Token], sig: &[usize], open: usize) -> usize {
    let (o, c) = match tokens[sig[open]].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    for (k, &ti) in sig.iter().enumerate().skip(open) {
        if tokens[ti].is_punct(o) {
            depth += 1;
        } else if tokens[ti].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    sig.len()
}

/// Does this string literal look like a CLI flag (`--trials`, `--fig10`)?
fn is_cli_flag(s: &str) -> bool {
    s.strip_prefix("--").is_some_and(|tail| {
        !tail.is_empty()
            && tail
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    })
}

/// D006: every parsed CLI flag must appear in the documentation text
/// (README), delimited by non-word characters so `--fig1` is not
/// satisfied by `--fig10`.
pub fn crosscheck_docs(doc_name: &str, doc_text: &str, flags: &[DocCandidate]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cand in flags {
        if !contains_word(doc_text, &cand.name) {
            findings.push(Finding::new(
                RuleId::D006,
                &cand.path,
                cand.line,
                format!("CLI flag `{}` is not documented in {doc_name}", cand.name),
            ));
        }
    }
    findings
}

/// Substring match with word boundaries: the characters adjacent to the
/// match must not be identifier-ish (or `-`, so flags match exactly).
fn contains_word(haystack: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return false;
    }
    let boundary = |c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-');
    let mut from = 0;
    while let Some(at) = haystack[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let ok_before = start == 0 || haystack[..start].chars().next_back().is_some_and(boundary);
        let ok_after =
            end == haystack.len() || haystack[end..].chars().next().is_some_and(boundary);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_flags_collected_only_from_repro() {
        let src = "fn main() { match a { \"--trials\" => {} \
                   \"--no-recovery\" => {} \"--exp <l>\" => {} _ => {} } }";
        let scan = scan_file("crates/bench/src/bin/repro.rs", src);
        let flags: Vec<&str> = scan.cli_flags.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(flags, vec!["--trials", "--no-recovery"]);
        assert!(scan_file("crates/core/src/x.rs", src).cli_flags.is_empty());
    }

    #[test]
    fn crosscheck_reports_undocumented_names_with_boundaries() {
        let cand = |name: &str| DocCandidate {
            name: name.to_owned(),
            path: "crates/bench/src/bin/repro.rs".to_owned(),
            line: 1,
        };
        let doc = "Flags: `--fig10` and `--trials N`.";
        let flags = [cand("--fig10"), cand("--fig1"), cand("--trials")];
        let fs = crosscheck_docs("README.md", doc, &flags);
        let missing: Vec<&str> = fs
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap())
            .collect();
        // --fig1 must NOT be satisfied by the --fig10 substring.
        assert_eq!(missing, vec!["--fig1"]);
    }

    #[test]
    fn word_boundary_matching() {
        assert!(contains_word("kind `rotation` here", "rotation"));
        assert!(!contains_word("rotations only", "rotation"));
        assert!(contains_word("use --seed N", "--seed"));
        assert!(!contains_word("--seeded", "--seed"));
    }
}
