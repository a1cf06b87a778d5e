//! Pass 3b of the analysis: def-use over the [`crate::cfg`] regions, and
//! the two hot-path allocation rules that run on top of the D009 call
//! graph.
//!
//! * **D015 — allocation discipline in hot paths**: an alloc/copy *sink*
//!   (see [`sink_at`]) inside a loop region of any function transitively
//!   reachable from a D009 hot-path root. Each finding carries the call
//!   chain from the claiming root and the loop nesting depth, and anchors
//!   on the sink's own line so a same-line or above-line
//!   `// lint: allow(D015) — <reason>` can suppress it.
//! * **D016 — per-event rebuild of loop-invariant values**: a simple
//!   `let name = <expr containing a sink>;` inside a loop whose used
//!   identifiers are all defined *outside* the enclosing loop construct —
//!   the binding rebuilds the same value every iteration and should be
//!   hoisted above the loop.
//!
//! The def-use pass is deliberately modest: it tracks `let` patterns,
//! `for` patterns, `match`-arm patterns and par-closure parameters by
//! token position, with no type information. Two asymmetric consequences:
//! a name the pass cannot prove loop-defined counts as *defined inside*
//! only if a def site is found, so `self`-rooted expressions are assumed
//! loop-invariant (allow with a reason when the loop mutates the field);
//! and identifiers captured inline in format strings (`format!("{x}")`)
//! are extracted from the string literal so they still count as uses.

use crate::cfg::Cfg;
use crate::graph::SymbolGraph;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, RuleId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One alloc/copy sink inside a loop region.
#[derive(Debug)]
pub struct LoopSink {
    /// Canonical sink name (`format!`, `Vec::new`, `clone`, …).
    pub what: String,
    pub line: u32,
    /// Number of enclosing loop regions.
    pub depth: u32,
}

/// One `let` that rebuilds a loop-invariant value every iteration.
#[derive(Debug)]
pub struct HoistCandidate {
    /// The bound name.
    pub name: String,
    /// The sink in its RHS.
    pub what: String,
    pub line: u32,
    /// Line of the enclosing loop construct — the hoist target.
    pub loop_line: u32,
}

/// Per-function dataflow facts, attached to [`crate::model::FnItem`].
#[derive(Debug, Default)]
pub struct FnFlow {
    pub sinks: Vec<LoopSink>,
    pub hoists: Vec<HoistCandidate>,
}

/// The alloc/copy sink at sig index `k`, or `None`. Sinks are the calls
/// and macros that allocate or copy per invocation: `format!`, `vec![]`,
/// `Vec::new`, `Box::new`, `String::from`, `.to_string()`, `.to_owned()`,
/// `.clone()`, `.collect()`.
pub fn sink_at(tokens: &[Token], sig: &[usize], k: usize) -> Option<String> {
    let t = &tokens[sig[k]];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let punct_at = |p: usize, c: char| sig.get(p).is_some_and(|&ti| tokens[ti].is_punct(c));
    let name = t.text.as_str();
    match name {
        "format" | "vec" if punct_at(k + 1, '!') => Some(format!("{name}!")),
        "new" | "from"
            if punct_at(k + 1, '(') && k >= 3 && punct_at(k - 1, ':') && punct_at(k - 2, ':') =>
        {
            let owner = &tokens[sig[k - 3]];
            match (owner.text.as_str(), name) {
                ("Vec", "new") | ("Box", "new") | ("String", "from") => {
                    Some(format!("{}::{name}", owner.text))
                }
                _ => None,
            }
        }
        "to_string" | "to_owned" | "clone" | "collect"
            if k >= 1
                && punct_at(k - 1, '.')
                // Plain call or turbofish (`collect::<Vec<_>>()`).
                && (punct_at(k + 1, '(') || (punct_at(k + 1, ':') && punct_at(k + 2, ':'))) =>
        {
            Some(name.to_owned())
        }
        _ => None,
    }
}

/// Words that appear in `let`/`for` patterns without binding anything.
const PATTERN_KEYWORDS: [&str; 4] = ["mut", "ref", "box", "in"];

/// Words that appear in expressions without being variable uses.
const USE_KEYWORDS: [&str; 12] = [
    "self", "Self", "true", "false", "as", "if", "else", "match", "move", "return", "await", "in",
];

/// All binding sites in the body, as `(sig index, name)` in stream order:
/// `let` patterns, `for` patterns, and the pattern spans the CFG recorded
/// for match arms and par-closure parameters.
fn collect_defs(
    tokens: &[Token],
    sig: &[usize],
    open: usize,
    close: usize,
    cfg: &Cfg,
) -> Vec<(usize, String)> {
    let punct_at = |p: usize, c: char| sig.get(p).is_some_and(|&ti| tokens[ti].is_punct(c));
    let mut defs: Vec<(usize, String)> = Vec::new();
    let push_pattern = |defs: &mut Vec<(usize, String)>, lo: usize, hi: usize| {
        // Idents in `[lo, hi]` that actually bind: skip pattern keywords,
        // type/variant names (uppercase initial), path segments (adjacent
        // to `::`) and struct-pattern field names (followed by `:` that is
        // not a path `::`).
        for p in lo..=hi.min(sig.len().saturating_sub(1)) {
            let t = &tokens[sig[p]];
            if t.kind != TokenKind::Ident
                || PATTERN_KEYWORDS.contains(&t.text.as_str())
                || t.text.starts_with(|c: char| c.is_ascii_uppercase())
                || t.text.starts_with('_')
            {
                continue;
            }
            if (punct_at(p + 1, ':') && punct_at(p + 2, ':'))
                || (p >= 2 && punct_at(p - 1, ':') && punct_at(p - 2, ':'))
            {
                continue; // path segment
            }
            if punct_at(p + 1, ':') {
                continue; // `Foo { field: binding }` field name
            }
            defs.push((p, t.text.clone()));
        }
    };

    let mut k = open;
    while k <= close {
        let t = &tokens[sig[k]];
        if t.is_ident("let") {
            // Pattern runs to the `=`, a top-level type `:`, or the `;`.
            let mut depth = crate::cfg::Depth::default();
            let mut p = k + 1;
            let start = p;
            while p <= close {
                let t = &tokens[sig[p]];
                if depth.zero() && (t.is_punct('=') || t.is_punct(';') || t.is_punct(':')) {
                    break;
                }
                depth.update(t);
                p += 1;
            }
            if p > start {
                push_pattern(&mut defs, start, p - 1);
            }
            k = p;
            continue;
        }
        if t.is_ident("for") {
            // Pattern runs to the `in` keyword.
            let mut depth = crate::cfg::Depth::default();
            let mut p = k + 1;
            let start = p;
            while p <= close {
                let t = &tokens[sig[p]];
                if depth.zero() && t.is_ident("in") {
                    break;
                }
                depth.update(t);
                p += 1;
            }
            if p > start {
                push_pattern(&mut defs, start, p - 1);
            }
            k = p;
            continue;
        }
        k += 1;
    }
    for r in &cfg.regions {
        if let Some((lo, hi)) = r.pat {
            push_pattern(&mut defs, lo, hi);
        }
    }
    defs.sort();
    defs
}

/// Identifiers captured inline in a format-string literal (`"{x}"`,
/// `"{x:>8}"`), which the token stream otherwise hides. `{{` escapes are
/// skipped; positional/spec-only captures (`{}`, `{:04}`) yield nothing.
fn inline_captures(lit: &str, out: &mut Vec<String>) {
    let bytes = lit.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let mut j = i + 1;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &lit[i + 1..j];
        if !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        {
            out.push(name.to_owned());
        }
        i = j + 1;
    }
}

/// Build the per-function dataflow facts for the body `(open, close)`.
pub fn analyze_body(tokens: &[Token], sig: &[usize], open: usize, close: usize) -> FnFlow {
    let cfg = Cfg::build(tokens, sig, open, close);
    let mut flow = FnFlow::default();

    // D015 raw material: every sink inside a loop region.
    for k in (open + 1)..close {
        if let Some(what) = sink_at(tokens, sig, k) {
            let depth = cfg.loop_depth_at(k);
            if depth > 0 {
                flow.sinks.push(LoopSink {
                    what,
                    line: tokens[sig[k]].line,
                    depth,
                });
            }
        }
    }
    if flow.sinks.is_empty() {
        return flow; // no hoist candidates without a sink either
    }

    // D016: simple `let name = <sink expr>;` bindings whose RHS uses only
    // names defined outside the enclosing loop construct.
    let defs = collect_defs(tokens, sig, open, close, &cfg);
    let punct_at = |p: usize, c: char| sig.get(p).is_some_and(|&ti| tokens[ti].is_punct(c));
    for k in (open + 1)..close {
        if !tokens[sig[k]].is_ident("let") {
            continue;
        }
        let Some(lp) = cfg.innermost_loop_at(k) else {
            continue;
        };
        // Only simple bindings `let [mut] name [: T] = …;` — destructuring
        // patterns consume their RHS piecewise and rarely hoist cleanly.
        let mut p = k + 1;
        if sig.get(p).is_some_and(|&ti| tokens[ti].is_ident("mut")) {
            p += 1;
        }
        let Some(&name_ti) = sig.get(p) else { continue };
        let name_tok = &tokens[name_ti];
        if name_tok.kind != TokenKind::Ident
            || name_tok.text.starts_with(|c: char| c.is_ascii_uppercase())
        {
            continue;
        }
        if !(punct_at(p + 1, '=') || punct_at(p + 1, ':')) {
            continue;
        }
        // Find the `=` (skipping a type annotation) and the closing `;`.
        let mut depth = crate::cfg::Depth::default();
        let mut eq = p + 1;
        while eq <= lp.end && !(depth.zero() && tokens[sig[eq]].is_punct('=')) {
            depth.update(&tokens[sig[eq]]);
            eq += 1;
        }
        if eq > lp.end {
            continue;
        }
        let rhs_start = eq + 1;
        let mut depth = crate::cfg::Depth::default();
        let mut semi = rhs_start;
        while semi <= lp.end && !(depth.zero() && tokens[sig[semi]].is_punct(';')) {
            depth.update(&tokens[sig[semi]]);
            semi += 1;
        }
        if semi > lp.end {
            continue; // statement leaks out of the loop region: malformed
        }
        // The RHS must contain a sink at all.
        let Some(what) = (rhs_start..semi).find_map(|q| sink_at(tokens, sig, q)) else {
            continue;
        };
        // Collect the RHS's identifier uses, including format captures.
        let mut uses: Vec<String> = Vec::new();
        for q in rhs_start..semi {
            let t = &tokens[sig[q]];
            if t.kind == TokenKind::Str {
                inline_captures(&t.text, &mut uses);
                continue;
            }
            if t.kind != TokenKind::Ident
                || USE_KEYWORDS.contains(&t.text.as_str())
                || t.text.starts_with(|c: char| c.is_ascii_uppercase())
                || t.text.starts_with('_')
            {
                continue;
            }
            // Not a use: macro names, called functions, path segments,
            // method/field names after `.`.
            if punct_at(q + 1, '!') || punct_at(q + 1, '(') {
                continue;
            }
            if (punct_at(q + 1, ':') && punct_at(q + 2, ':'))
                || (q >= 2 && punct_at(q - 1, ':') && punct_at(q - 2, ':'))
            {
                continue;
            }
            if q >= 1 && punct_at(q - 1, '.') {
                continue;
            }
            uses.push(t.text.clone());
        }
        // Invariant ⇔ no use has a def inside the loop construct before
        // the RHS (`[lp.kw, rhs_start)` — loop-header bindings included).
        let loop_defined = |name: &str| {
            defs.iter()
                .any(|(d, n)| n == name && *d >= lp.kw && *d < rhs_start)
        };
        if uses.iter().any(|u| loop_defined(u)) {
            continue;
        }
        flow.hoists.push(HoistCandidate {
            name: name_tok.text.clone(),
            what,
            line: tokens[sig[k]].line,
            loop_line: lp.line,
        });
    }
    flow
}

/// D015/D016: walk the D009 call graph from the hot-path roots and report
/// every claimed function's loop sinks and hoist candidates. Findings
/// anchor on the offending line in the function's own file (unlike D009,
/// which anchors on the root), so allows sit next to the code they excuse.
pub(crate) fn check_hot_paths(graph: &SymbolGraph, findings: &mut Vec<Finding>) {
    let models = graph.models;
    let mut roots: Vec<(usize, usize)> = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        for fj in 0..m.fns.len() {
            if crate::graph::is_root(m, fj) {
                roots.push((fi, fj));
            }
        }
    }
    // Each function is claimed once, by the first root (in file/fn order)
    // that reaches it, with the chain root → … → fn for the message.
    let mut claimed: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    let mut order: Vec<(usize, usize)> = Vec::new();
    for &r in &roots {
        if let Entry::Vacant(e) = claimed.entry(r) {
            e.insert(vec![r]);
            order.push(r);
        }
        let mut parent: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        seen.insert(r);
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        queue.push_back(r);
        while let Some(node) = queue.pop_front() {
            let (fi, fj) = node;
            for call in &models[fi].fns[fj].calls {
                let Some(next) = graph.resolve(fi, call) else {
                    continue;
                };
                if models[next.0].fns[next.1].is_test || !seen.insert(next) {
                    continue;
                }
                parent.insert(next, node);
                if let Entry::Vacant(e) = claimed.entry(next) {
                    let mut chain = vec![next];
                    let mut cur = next;
                    while let Some(&p) = parent.get(&cur) {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    e.insert(chain);
                    order.push(next);
                }
                queue.push_back(next);
            }
        }
    }

    for id in order {
        let (fi, fj) = id;
        let m = &models[fi];
        if !crate::graph::in_scope(&m.path) {
            continue;
        }
        let f = &m.fns[fj];
        let chain_txt: Vec<String> = claimed[&id]
            .iter()
            .map(|&(ci, cj)| models[ci].fns[cj].display())
            .collect();
        let chain_txt = chain_txt.join(" → ");
        for s in &f.flow.sinks {
            findings.push(Finding {
                rule: RuleId::D015,
                path: m.path.clone(),
                line: s.line,
                message: format!(
                    "allocation sink `{}` inside a loop (depth {}) on a hot path — \
                     chain: {chain_txt}; hoist it out of the loop or reuse a buffer",
                    s.what, s.depth
                ),
                allowed: None,
            });
        }
        for h in &f.flow.hoists {
            findings.push(Finding {
                rule: RuleId::D016,
                path: m.path.clone(),
                line: h.line,
                message: format!(
                    "`let {}` rebuilds loop-invariant `{}` every iteration — hoist it \
                     above the loop at line {} (chain: {chain_txt})",
                    h.name, h.what, h.loop_line
                ),
                allowed: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{match_delim, model_of, sig_indices};

    /// FnFlow of the first fn in `src`.
    fn flow_of(src: &str) -> FnFlow {
        let tokens = crate::lexer::lex(src);
        let sig = sig_indices(&tokens);
        let open = sig
            .iter()
            .position(|&ti| tokens[ti].is_punct('{'))
            .expect("fn body");
        let close = match_delim(&tokens, &sig, open, '{', '}');
        analyze_body(&tokens, &sig, open, close)
    }

    #[test]
    fn sinks_outside_loops_are_ignored() {
        let f = flow_of("fn f() { let s = format!(\"{}\", 1); s.clone(); }");
        assert!(f.sinks.is_empty(), "{f:?}");
    }

    #[test]
    fn nested_loop_sink_carries_depth() {
        let f = flow_of(
            "fn f() { for i in 0..2 { for j in 0..3 { let s = format!(\"{}-{}\", i, j); } } }",
        );
        assert_eq!(f.sinks.len(), 1, "{f:?}");
        assert_eq!(f.sinks[0].what, "format!");
        assert_eq!(f.sinks[0].depth, 2);
    }

    #[test]
    fn all_sink_shapes_are_recognized() {
        let f = flow_of(
            "fn f(xs: &[u32]) { loop { let a = Vec::new(); let b = vec![1]; \
             let c = String::from(\"x\"); let d = 3.to_string(); let e = s.to_owned(); \
             let g = s.clone(); let h = Box::new(1); \
             let i: Vec<u32> = xs.iter().copied().collect(); } }",
        );
        let whats: Vec<&str> = f.sinks.iter().map(|s| s.what.as_str()).collect();
        for w in [
            "Vec::new",
            "vec!",
            "String::from",
            "to_string",
            "to_owned",
            "clone",
            "Box::new",
            "collect",
        ] {
            assert!(whats.contains(&w), "missing {w} in {whats:?}");
        }
    }

    #[test]
    fn write_into_buffer_is_not_a_sink() {
        let f = flow_of(
            "fn f(buf: &mut String) { for i in 0..2 { write!(buf, \"{}\", i); buf.clear(); } }",
        );
        assert!(f.sinks.is_empty(), "{f:?}");
    }

    #[test]
    fn hoist_flags_loop_invariant_let() {
        let f = flow_of(
            "fn f(base: u32) { for j in 0..4 { let tag = format!(\"run-{}\", base); use_it(&tag); } }",
        );
        assert_eq!(f.hoists.len(), 1, "{f:?}");
        assert_eq!(f.hoists[0].name, "tag");
        assert_eq!(f.hoists[0].what, "format!");
    }

    #[test]
    fn hoist_skips_let_using_the_loop_variable() {
        let f = flow_of("fn f() { for j in 0..4 { let tag = format!(\"{}\", j); } }");
        assert!(f.hoists.is_empty(), "{f:?}");
        assert_eq!(f.sinks.len(), 1); // still a D015 sink
    }

    #[test]
    fn hoist_sees_inline_format_captures() {
        // `{j}` hides the loop variable inside the string literal.
        let f = flow_of("fn f() { for j in 0..4 { let tag = format!(\"run-{j}\"); } }");
        assert!(f.hoists.is_empty(), "{f:?}");
    }

    #[test]
    fn hoist_respects_while_let_header_bindings() {
        let f = flow_of(
            "fn f(q: &mut Q) { while let Some(ev) = q.pop() { let s = format!(\"{}\", ev); } }",
        );
        assert!(f.hoists.is_empty(), "{f:?}");
    }

    #[test]
    fn shadowing_def_after_the_use_does_not_count() {
        // The `x` used in the RHS is the outer one; the shadowing `let x`
        // later in the loop must not suppress the hoist.
        let f = flow_of(
            "fn f(x: u32) { for j in 0..4 { let s = format!(\"{}\", x); let x = j + 1; \
             use_it(x); } }",
        );
        assert_eq!(f.hoists.len(), 1, "{f:?}");
        assert_eq!(f.hoists[0].name, "s");
    }

    #[test]
    fn shadowing_def_before_the_use_suppresses_the_hoist() {
        let f = flow_of(
            "fn f(x: u32) { for j in 0..4 { let x = j + 1; let s = format!(\"{}\", x); } }",
        );
        assert!(f.hoists.iter().all(|h| h.name != "s"), "{f:?}");
    }

    #[test]
    fn match_arm_binding_suppresses_the_hoist() {
        let f = flow_of(
            "fn f(k: K) { for j in 0..4 { match k { K::A(n) => { let s = format!(\"{}\", n); } \
             _ => {} } } }",
        );
        assert!(f.hoists.is_empty(), "{f:?}");
    }

    #[test]
    fn par_closure_param_suppresses_but_captured_var_hoists() {
        let src = "fn f(base: u32) { par_map(4, 0, |i| { let a = format!(\"{}\", i); \
                   let b = format!(\"{}\", base); 0 }); }";
        let f = flow_of(src);
        let names: Vec<&str> = f.hoists.iter().map(|h| h.name.as_str()).collect();
        assert!(!names.contains(&"a"), "{f:?}");
        assert!(names.contains(&"b"), "{f:?}");
        // Both formats are loop sinks (the closure body is per-job).
        assert_eq!(f.sinks.len(), 2);
    }

    #[test]
    fn vacuous_rhs_with_no_uses_is_flagged() {
        // `Vec::new()` uses nothing, so it is trivially invariant; the fix
        // is a buffer reused across iterations (clear, don't rebuild).
        let f = flow_of("fn f() { loop { let v = Vec::new(); fill(v); } }");
        assert_eq!(f.hoists.len(), 1, "{f:?}");
        assert_eq!(f.hoists[0].what, "Vec::new");
    }

    #[test]
    fn check_hot_paths_reports_chain_and_depth() {
        let models = vec![model_of(
            "crates/core/src/sweep.rs",
            "fn drive() { par_map(4, 2, |i| helper(i)); }\n\
             fn helper(i: usize) -> usize { for j in 0..i { let s = format!(\"{}\", j); } i }\n",
        )];
        let graph = SymbolGraph::build(&models);
        let mut findings = Vec::new();
        check_hot_paths(&graph, &mut findings);
        let d15: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D015).collect();
        assert_eq!(d15.len(), 1, "{findings:?}");
        assert_eq!(d15[0].line, 2, "anchors on the sink line");
        assert!(d15[0].message.contains("depth 1"), "{}", d15[0].message);
        assert!(
            d15[0].message.contains("chain: drive → helper"),
            "{}",
            d15[0].message
        );
    }

    #[test]
    fn check_hot_paths_skips_unreachable_fns() {
        let models = vec![model_of(
            "crates/core/src/calc.rs",
            "fn run() { par_map_slice(2, &x, |v| v); }\n\
             fn unreached() { for j in 0..4 { let s = format!(\"{}\", j); } }\n",
        )];
        let graph = SymbolGraph::build(&models);
        let mut findings = Vec::new();
        check_hot_paths(&graph, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn check_hot_paths_emits_d016_with_hoist_line() {
        let models = vec![model_of(
            "crates/core/src/sweep.rs",
            "fn drive(base: u32) { par_map(4, 2, |i| shout(base)); }\n\
             fn shout(base: u32) {\n\
             for j in 0..4 {\n\
             let tag = format!(\"run-{}\", base);\n\
             }\n\
             }\n",
        )];
        let graph = SymbolGraph::build(&models);
        let mut findings = Vec::new();
        check_hot_paths(&graph, &mut findings);
        let d16: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D016).collect();
        assert_eq!(d16.len(), 1, "{findings:?}");
        assert_eq!(d16[0].line, 4);
        assert!(
            d16[0].message.contains("hoist it above the loop at line 3"),
            "{}",
            d16[0].message
        );
        assert!(
            d16[0].message.contains("`let tag`") || d16[0].message.contains("let tag"),
            "{}",
            d16[0].message
        );
    }
}
