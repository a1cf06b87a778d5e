//! End-to-end tests for the `dles-lint` binary: every bad fixture must
//! fail `--deny` with the expected rule, the clean fixture and the real
//! workspace must pass, and `--json` must produce the CI artifact shape.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dles-lint"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("dles-lint runs")
}

fn deny_fixture(name: &str) -> (Output, String) {
    let path = fixture(name);
    let out = run_lint(
        &workspace_root(),
        &["--deny", path.to_str().expect("utf-8 path")],
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 output");
    (out, stdout)
}

#[test]
fn workspace_is_clean_in_deny_mode() {
    let out = run_lint(&workspace_root(), &["--deny"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "dles-lint --deny failed on the workspace:\n{stdout}"
    );
    assert!(stdout.contains("0 violation(s)"), "summary: {stdout}");
}

#[test]
fn clean_fixture_passes_deny() {
    let (out, stdout) = deny_fixture("clean.rs");
    assert!(out.status.success(), "clean fixture flagged:\n{stdout}");
    // Its two justified allows must be accepted, not counted as violations.
    assert!(stdout.contains("2 allowed"), "summary: {stdout}");
}

#[test]
fn each_bad_fixture_fails_deny_with_its_rule() {
    let cases = [
        ("d001_wallclock.rs", "D001", 3),
        ("d002_entropy.rs", "D002", 3),
        ("d003_hashmap.rs", "D003", 3),
        ("d004_partial_cmp.rs", "D004", 2),
        ("pipeline.rs", "D005", 2),
        ("d000_bad_allow.rs", "D000", 6),
        // An undocumented repro CLI flag.
        ("repro.rs", "D006", 1),
        // The unit-discipline fixtures live under a `crates/core/`
        // subdirectory because D007/D008 apply only to unit-bearing
        // crate paths.
        ("crates/core/d007_bare_units.rs", "D007", 5),
        ("crates/core/d008_mixed_units.rs", "D008", 3),
        // Counter-key discipline, lock-order cycle plus
        // lock-across-par_map.
        ("d010_counters.rs", "D010", 2),
        ("d011_lock_cycle.rs", "D011", 3),
    ];
    for (name, rule, expected) in cases {
        let (out, stdout) = deny_fixture(name);
        assert!(
            !out.status.success(),
            "{name} should fail --deny but passed:\n{stdout}"
        );
        let hits = stdout.matches(rule).count();
        assert!(
            hits >= expected,
            "{name}: expected ≥{expected} {rule} findings, got {hits}:\n{stdout}"
        );
    }
}

#[test]
fn bad_allow_fixture_still_reports_the_unsuppressed_rule() {
    // A reasonless allow must not suppress: the raw D003 stays visible.
    let (_, stdout) = deny_fixture("d000_bad_allow.rs");
    assert!(stdout.contains("D003"), "missing D003 in:\n{stdout}");
    assert!(
        stdout.contains("without a reason"),
        "missing hygiene message:\n{stdout}"
    );
    // Retired rules are unknown rules like any other.
    for rule in ["D999", "D009", "D015", "D016"] {
        assert!(
            stdout.contains(&format!("D000 allow names unknown rule `{rule}`")),
            "{rule} not reported as unknown:\n{stdout}"
        );
    }
}

#[test]
fn d005_is_scoped_to_hot_path_file_names() {
    // The same unwrap-bearing code under a non-hot-path name passes.
    let (out, stdout) = deny_fixture("clean.rs");
    assert!(out.status.success());
    assert!(!stdout.contains("D005"), "D005 leaked: {stdout}");
}

#[test]
fn json_output_has_findings_and_summary() {
    let path = fixture("d003_hashmap.rs");
    let out = run_lint(
        &workspace_root(),
        &["--json", path.to_str().expect("utf-8 path")],
    );
    assert!(out.status.success(), "--json without --deny must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.contains("\"findings\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"D003\""), "{stdout}");
    // by_rule lists every rule, zero counts included, so CI can diff runs.
    assert!(
        stdout.contains(
            "\"by_rule\": {\"D000\": 0, \"D001\": 0, \"D002\": 0, \"D003\": 4, \
             \"D004\": 0, \"D005\": 0, \"D006\": 0, \"D007\": 0, \"D008\": 0, \
             \"D010\": 0, \"D011\": 0}"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("\"files_scanned\": 1"), "{stdout}");
}

#[test]
fn lexer_hardening_fixture_is_clean() {
    // Shebang line, byte-char literal, float suffixes and signed
    // exponents must lex without producing phantom findings.
    let (out, stdout) = deny_fixture("lexer_hardening.rs");
    assert!(out.status.success(), "hardening fixture flagged:\n{stdout}");
    assert!(stdout.contains("0 violation(s)"), "summary: {stdout}");
}

#[test]
fn d007_exempts_constructors_returning_self() {
    // The fixture's `new` takes bare f64 under suffixed names but returns
    // Self; none of its lines (25+) may appear among the findings.
    let (_, stdout) = deny_fixture("crates/core/d007_bare_units.rs");
    for line in stdout.lines().filter(|l| l.contains("D007")) {
        let n: u32 = line
            .split(':')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("line number in finding");
        assert!(n < 23, "constructor param flagged: {line}");
    }
}

#[test]
fn d008_does_not_flag_compound_products_or_conversions() {
    let (_, stdout) = deny_fixture("crates/core/d008_mixed_units.rs");
    assert!(
        !stdout.contains("ok_product") && !stdout.contains("`i_ma` * `dur_h`"),
        "compound-unit product flagged:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("D008").count(),
        3,
        "expected exactly 3 D008 findings:\n{stdout}"
    );
}

#[test]
fn non_deny_mode_reports_but_exits_zero() {
    let path = fixture("d001_wallclock.rs");
    let out = run_lint(&workspace_root(), &[path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "report mode must not fail the build");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.contains("D001"), "{stdout}");
}

#[test]
fn workspace_json_report_shape_for_ci_artifact() {
    let out = run_lint(&workspace_root(), &["--deny", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.contains("\"violations\": 0"), "{stdout}");
    assert!(stdout.contains("\"summary\""), "{stdout}");
}

#[test]
fn d010_reports_undocumented_and_non_literal_keys() {
    let (out, stdout) = deny_fixture("d010_counters.rs");
    assert!(!out.status.success(), "bad counter keys passed:\n{stdout}");
    assert!(
        stdout.contains(
            "counter key `fixture_unregistered_key` is not documented in \
             README's counter-key registry"
        ),
        "undocumented-key message missing:\n{stdout}"
    );
    assert!(
        stdout.contains("counter key is not a string literal"),
        "non-literal-key message missing:\n{stdout}"
    );
}

#[test]
fn d010_documented_match_arm_and_allowed_keys_pass() {
    // Registry-listed keys (including per-arm keys of a `match` argument)
    // are clean; the fixture-local key rides on an explicit allow.
    let (out, stdout) = deny_fixture("d010_counters_ok.rs");
    assert!(out.status.success(), "documented keys flagged:\n{stdout}");
    assert!(
        stdout.contains("0 violation(s), 1 allowed"),
        "summary: {stdout}"
    );
}

#[test]
fn d011_reports_cycle_and_lock_across_par_map() {
    let (out, stdout) = deny_fixture("d011_lock_cycle.rs");
    assert!(!out.status.success(), "lock-order cycle passed:\n{stdout}");
    assert!(
        stdout.contains("cycle: cache → stats → cache"),
        "cycle path missing:\n{stdout}"
    );
    assert!(
        stdout.contains("lock `cache` is held across the `par_map` boundary"),
        "par_map-under-lock message missing:\n{stdout}"
    );
}

#[test]
fn d011_consistent_order_and_scoped_guards_pass() {
    let (out, stdout) = deny_fixture("d011_lock_ok.rs");
    assert!(out.status.success(), "safe locking flagged:\n{stdout}");
    assert!(stdout.contains("0 violation(s)"), "summary: {stdout}");
}

#[test]
fn doc_comment_fixture_with_fake_violations_is_clean() {
    // Inner docs (`//!`, `/*! … */`) and code fences quoting real
    // violations are comment tokens end to end — nothing may fire.
    let (out, stdout) = deny_fixture("doc_comments.rs");
    assert!(
        out.status.success(),
        "doc text produced findings:\n{stdout}"
    );
    assert!(
        stdout.contains("0 violation(s), 0 allowed"),
        "summary: {stdout}"
    );
}

#[test]
fn exit_code_is_zero_on_a_clean_deny_run() {
    let (out, _) = deny_fixture("clean.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn exit_code_is_one_on_deny_violations() {
    let (out, _) = deny_fixture("d001_wallclock.rs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn exit_code_is_two_on_unreadable_input() {
    // A missing file is a broken scan, not a red tree: exit 2 even
    // without --deny, so CI never mistakes a partial run for a pass.
    let out = run_lint(
        &workspace_root(),
        &["crates/lint/tests/fixtures/no_such_file.rs"],
    );
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exit_code_is_two_on_unknown_flag() {
    // The retired trace-schema and call-graph modes are unknown flags
    // like any other.
    for flag in [
        "--bogus",
        "--schema-dump",
        "--check-goldens",
        "--graph-dump",
    ] {
        let out = run_lint(&workspace_root(), &[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}
