//! Lexer fixture: doc text must never produce findings. This inner doc
//! mentions `counters.incr(key)` and the `--undocumented` flag — all as
//! prose — and the code fences below spell out full fake violations:
//!
//! ```ignore
//! counters.incr(non_literal_key);
//! counters.incr("fixture_unregistered_key");
//! match arg { "--undocumented" => {} _ => {} }
//! ```

/*!
Block-style inner docs too: counters.incr(k), "--also-undocumented".
*/

/// Outer docs with a fence:
///
/// ```ignore
/// counters.incr(non_literal_key);
/// counters.add("fixture_unregistered_key", 2);
/// ```
pub fn documented() -> u64 {
    /* A plain block comment: counters.incr(k); "--hidden" */
    42 // trailing comment mentioning counters.incr("ghost") and "--ghost"
}
