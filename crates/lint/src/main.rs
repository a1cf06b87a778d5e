#![forbid(unsafe_code)]
//! `dles-lint` CLI — run the determinism rules over the workspace.
//!
//! ```text
//! cargo run -p lint --                     report findings, always exit 0
//! cargo run -p lint -- --deny              exit non-zero on any violation (CI mode)
//! cargo run -p lint -- --json              machine-readable report on stdout
//! cargo run -p lint -- [paths…]            scan only these files/directories
//! ```
//!
//! With no paths, the whole workspace is scanned (`crates/`, `tests/`,
//! `examples/`), the D006 documentation cross-check runs against
//! `README.md`, and D010 also reports README counter-key rows that no
//! code emits. Rules and the allow-comment syntax are documented in
//! `LINTS.md`.
//!
//! Exit codes: 0 clean, 1 violations under `--deny`, 2 I/O or usage
//! errors (unknown flag, unreadable file or workspace) — so CI can tell a
//! red tree from a broken scan.

use dles_lint::{
    analyze_workspace, collect_rs_files, crosscheck_workspace_docs, find_workspace_root,
    render_human, render_json, scan_files, sort_findings, DEFAULT_ROOTS,
};
use std::path::PathBuf;

fn main() {
    let mut deny = false;
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: dles-lint [--deny] [--json] [paths…]");
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("dles-lint: unknown flag {other}");
                std::process::exit(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("dles-lint: cannot determine working directory: {e}");
        std::process::exit(2);
    });
    let root = find_workspace_root(&cwd).unwrap_or_else(|| {
        eprintln!("dles-lint: no workspace root ([workspace] Cargo.toml) above {cwd:?}");
        std::process::exit(2);
    });

    let explicit = !paths.is_empty();
    let mut files: Vec<PathBuf> = Vec::new();
    if explicit {
        for p in &paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                cwd.join(p)
            };
            if abs.is_dir() {
                if let Err(e) = collect_rs_files(&abs, &mut files) {
                    eprintln!("dles-lint: cannot walk {abs:?}: {e}");
                    std::process::exit(2);
                }
            } else {
                files.push(abs);
            }
        }
    } else {
        for sub in DEFAULT_ROOTS {
            let dir = root.join(sub);
            if dir.is_dir() {
                if let Err(e) = collect_rs_files(&dir, &mut files) {
                    eprintln!("dles-lint: cannot walk {dir:?}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    files.sort();
    files.dedup();

    let mut outcome = scan_files(&root, &files);
    crosscheck_workspace_docs(&root, &mut outcome);
    // Dead-registry-row detection needs the whole workspace in view; an
    // explicit file list would make every undriven key look dead.
    analyze_workspace(&root, &mut outcome, !explicit);
    sort_findings(&mut outcome.findings);

    if json {
        print!("{}", render_json(&outcome));
    } else {
        print!("{}", render_human(&outcome));
    }

    // A partial scan outranks a red one: findings from the files we did
    // read may be incomplete, so report the scan itself as broken first.
    if outcome.io_errors > 0 {
        std::process::exit(2);
    }
    if deny && outcome.violation_count() > 0 {
        std::process::exit(1);
    }
}
