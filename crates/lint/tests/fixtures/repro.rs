//! Fixture: D006 — a repro CLI flag that README.md does not document.
//! Flags are collected only from files named `repro.rs`; `--fig6` is
//! documented, the other one is not.

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--fig6") => {}
        Some("--totally-undocumented-flag") => {}
        _ => {}
    }
}
