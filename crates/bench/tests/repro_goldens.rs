//! `repro`'s text outputs against `tests/goldens/`, byte for byte. A row
//! of [`GOLDENS`] is a golden file and the `repro` arguments whose stdout
//! it holds. After an intended output change, rewrite every file with
//! `cargo test -p dles-bench --test repro_goldens -- --ignored regen`
//! and review the diff.

use std::process::Command;

/// (golden file under `tests/goldens/`, `repro` arguments).
const GOLDENS: &[(&str, &[&str])] = &[
    ("fig1.txt", &["--fig1"]),
    ("fig2.txt", &["--fig2"]),
    ("fig3.txt", &["--fig3"]),
    ("fig5.txt", &["--fig5"]),
    ("fig6.txt", &["--fig6"]),
    ("fig7.txt", &["--fig7"]),
    ("fig8.txt", &["--fig8"]),
    ("fig9.txt", &["--fig9"]),
];

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/");

/// `repro`'s stdout for `args`; a non-zero exit fails the test.
fn repro_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "repro {args:?}: {} {stderr}",
        out.status
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// The first line where `actual` departs from `golden` (`None` marks an
/// ended text), or `None` if the two are equal.
fn first_difference(actual: &str, golden: &str) -> Option<String> {
    let (mut a, mut g) = (actual.split_inclusive('\n'), golden.split_inclusive('\n'));
    (1..)
        .find_map(|n| match (a.next(), g.next()) {
            (None, None) => Some(None),
            (x, y) if x == y => None,
            (x, y) => Some(Some(format!("line {n}: golden {y:?}, actual {x:?}"))),
        })
        .flatten()
}

#[test]
fn repro_outputs_match_their_goldens() {
    let mut failures = Vec::new();
    for &(file, args) in GOLDENS {
        let golden = std::fs::read_to_string(format!("{GOLDEN_DIR}{file}"))
            .unwrap_or_else(|e| panic!("{file}: {e} (run the ignored `regen` test once)"));
        if let Some(diff) = first_difference(&repro_stdout(args), &golden) {
            failures.push(format!("repro {} vs {file}: {diff}", args.join(" ")));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[ignore = "rewrites tests/goldens/ — run explicitly and review the diff"]
fn regen() {
    for &(file, args) in GOLDENS {
        std::fs::write(format!("{GOLDEN_DIR}{file}"), repro_stdout(args)).expect("golden written");
    }
}
