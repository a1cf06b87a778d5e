//! Fixture tests for the scanner's public API: tricky lexing and doc
//! text must produce no findings, and the D010 fixtures must be judged
//! against the real README's counter-key registry.

use dles_lint::counters::analyze;
use dles_lint::lexer::{lex, TokenKind};
use dles_lint::{scan_file, Finding};

const README: &str = include_str!("../../../README.md");

fn fixture(name: &str) -> (String, String) {
    let rel = format!("crates/lint/tests/fixtures/{name}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(path).expect("fixture is readable");
    (rel, src)
}

/// Scan one fixture under `rel` and check its counter sites against
/// README's registry as a partial scan (other keys' rows are not dead).
fn d010_findings(rel: &str, src: &str) -> Vec<Finding> {
    let scan = scan_file(rel, src);
    let mut findings = scan.findings;
    findings.extend(analyze(&scan.counter_sites, Some(README), false));
    findings
}

#[test]
fn lexer_hardening_fixture_is_clean() {
    // Shebang line, byte-char literal, float suffixes and signed
    // exponents must lex into whole tokens, with no phantom findings.
    let (rel, src) = fixture("lexer_hardening.rs");
    let numbers: Vec<String> = lex(&src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Number)
        .map(|t| t.text)
        .collect();
    assert_eq!(numbers, ["1.5e-3", "2.5e+6", "1.0f64", "0xFF_u8"]);
    assert!(
        lex(&src).iter().all(|t| !t.is_ident("run")),
        "shebang lexed"
    );
    let scan = scan_file(&rel, &src);
    assert!(scan.findings.is_empty(), "{:?}", scan.findings);
    assert!(scan.counter_sites.is_empty(), "{:?}", scan.counter_sites);
}

#[test]
fn doc_comment_fixture_with_fake_violations_is_clean() {
    // Inner docs (`//!`, `/*! … */`) and code fences quoting real
    // violations are comment tokens end to end — nothing may fire, even
    // when the file is scanned as `repro.rs` for flags.
    let (rel, src) = fixture("doc_comments.rs");
    assert!(d010_findings(&rel, &src).is_empty());
    assert!(scan_file(&rel, &src).counter_sites.is_empty());
    let as_repro = scan_file("crates/bench/src/bin/repro.rs", &src);
    assert!(as_repro.cli_flags.is_empty(), "{:?}", as_repro.cli_flags);
}

#[test]
fn d010_reports_undocumented_and_non_literal_keys() {
    let (rel, src) = fixture("d010_counters.rs");
    let messages: Vec<String> = d010_findings(&rel, &src)
        .into_iter()
        .map(|f| f.message)
        .collect();
    assert!(
        messages.iter().any(|m| m.contains(
            "counter key `fixture_unregistered_key` is not documented in \
             README's counter-key registry"
        )),
        "undocumented-key message missing: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("counter key is not a string literal")),
        "non-literal-key message missing: {messages:?}"
    );
}

#[test]
fn d010_documented_match_arm_and_allowed_keys_pass() {
    // Registry-listed keys, including the per-arm keys of a `match`
    // argument, are clean.
    let (rel, src) = fixture("d010_counters_ok.rs");
    assert!(d010_findings(&rel, &src).is_empty());
    let keys: Vec<String> = scan_file(&rel, &src)
        .counter_sites
        .into_iter()
        .map(|s| s.key)
        .collect();
    assert_eq!(keys, ["frames_emitted", "transfers_data", "transfers_ack"]);
}
