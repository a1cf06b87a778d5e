//! Pass 1 of the interprocedural analysis: a lightweight per-file item
//! model built on the token stream.
//!
//! For every `.rs` file this extracts the function definitions (with
//! enclosing `impl`/`trait` type, source line, and `#[cfg(test)]` scope),
//! and for each function body: the call sites (free, path-qualified and
//! method calls), the determinism *sinks* D009 chases transitively
//! (wall-clock reads, entropy sources, `unwrap`/`expect`), the
//! `Mutex`/`RwLock` acquisition sites with a same-function
//! held-simultaneously approximation for D011, and the `CounterSet`
//! increment sites with their string-literal keys for D010.
//!
//! The model is deliberately *name-resolution-lite*: it never type-checks.
//! [`crate::graph`] merges the per-file models into a workspace symbol
//! table and resolves calls conservatively (ambiguity drops the edge, so
//! the reachability rules under-approximate rather than false-positive).

use crate::lexer::{Token, TokenKind};

/// One parsed `.rs` file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate (`crates/<name>/…` → `<name>`; otherwise the first
    /// path segment, so `tests/` and `examples/` each form a pseudo-crate).
    pub krate: String,
    /// File-stem module name (`pipeline.rs` → `pipeline`; `lib.rs` → "").
    pub module: String,
    pub fns: Vec<FnItem>,
}

/// One `fn` definition.
#[derive(Debug, Default)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`SweepEngine::run`).
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword — D009 allow comments attach here.
    pub line: u32,
    /// Inside a `#[cfg(test)]` module.
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub sinks: Vec<Sink>,
    pub locks: Vec<LockSite>,
    pub counters: Vec<CounterSite>,
    /// Indices into `locks`: (outer, inner) acquired while outer held.
    pub lock_pairs: Vec<(usize, usize)>,
    /// (lock index, call index): calls made while the lock is held.
    pub calls_under_lock: Vec<(usize, usize)>,
}

impl FnItem {
    /// Display name for chains and dumps (`SweepEngine::run` or `run`).
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Called name (last path segment / method name).
    pub name: String,
    /// Leading path segments (`dles_sim::par_map` → `["dles_sim"]`;
    /// `Self::emit` has its `Self` already replaced by the impl type).
    pub path: Vec<String>,
    pub line: u32,
    /// `recv.name(…)` rather than `name(…)`.
    pub method: bool,
}

/// What kind of determinism sink a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `Instant` / `SystemTime` (D001's ban, chased transitively).
    WallClock,
    /// `thread_rng`, `OsRng`, … (D002's ban, chased transitively).
    Entropy,
    /// `.unwrap()` / `.expect(…)` (D005's ban, chased transitively).
    UnwrapPanic,
}

/// One sink occurrence.
#[derive(Debug)]
pub struct Sink {
    pub kind: SinkKind,
    /// The offending identifier (`Instant`, `unwrap`, …).
    pub what: String,
    pub line: u32,
}

/// One `Mutex`/`RwLock` acquisition (`x.lock()`, `x.read()`, `x.write()`
/// with empty argument lists).
#[derive(Debug)]
pub struct LockSite {
    /// Canonical lock name: the dotted receiver chain with a leading
    /// `self.` stripped (`self.cache.lock()` → `cache`).
    pub name: String,
    pub line: u32,
}

/// One `CounterSet` emit site (`counters.incr("k")` / `counters.add("k", n)`).
#[derive(Debug)]
pub struct CounterSite {
    /// Literal keys this site can emit (several for a `match` argument).
    pub keys: Vec<String>,
    pub line: u32,
    /// `.incr(expr)` whose key is not a string literal.
    pub non_literal: bool,
}

/// Crate name from a workspace-relative path.
fn crate_of(path: &str) -> String {
    let segs: Vec<&str> = path.split('/').collect();
    for (i, s) in segs.iter().enumerate() {
        if *s == "crates" && i + 1 < segs.len() {
            return segs[i + 1].to_owned();
        }
    }
    segs.first().copied().unwrap_or("").to_owned()
}

/// File-stem module name (`lib.rs`/`main.rs`/`mod.rs` → "").
fn module_of(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    match stem {
        "lib" | "main" | "mod" => String::new(),
        s => s.to_owned(),
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "ref", "box",
    "where", "await",
];

/// Method names that are modeled specially, not as call edges.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Build the item model for one file. `tokens` is the full lexed stream,
/// `sig` the indices of non-comment tokens, `in_test` the per-token
/// `#[cfg(test)]` marking (see `mark_test_mods` in `rules.rs`).
pub fn build_model(rel_path: &str, tokens: &[Token], sig: &[usize], in_test: &[bool]) -> FileModel {
    let mut model = FileModel {
        path: rel_path.to_owned(),
        krate: crate_of(rel_path),
        module: module_of(rel_path),
        fns: Vec::new(),
    };

    let impl_types = mark_impl_types(tokens, sig);
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let ident_at = |k: usize| {
        sig.get(k)
            .map(|&ti| &tokens[ti])
            .filter(|t| t.kind == TokenKind::Ident)
    };

    let mut si = 0;
    while si < sig.len() {
        let tok = &tokens[sig[si]];
        if !tok.is_ident("fn") {
            si += 1;
            continue;
        }
        // `fn(usize) -> R` pointer types have no name; skip them.
        let Some(name_tok) = ident_at(si + 1) else {
            si += 1;
            continue;
        };
        // Find the parameter list, skipping generics `<…>`.
        let mut j = si + 2;
        while j < sig.len() && !punct_at(j, '(') && !punct_at(j, '{') && !punct_at(j, ';') {
            j += 1;
        }
        if !punct_at(j, '(') {
            si += 1;
            continue;
        }
        let params_end = match_delim(tokens, sig, j, '(', ')');
        // Find the body `{`, unless the item is a bodyless trait method.
        let mut k = params_end + 1;
        while k < sig.len() && !punct_at(k, '{') && !punct_at(k, ';') {
            k += 1;
        }
        if !punct_at(k, '{') {
            si = k.max(si + 1);
            continue;
        }
        let body_end = match_delim(tokens, sig, k, '{', '}');
        let mut item = FnItem {
            name: name_tok.text.clone(),
            impl_type: impl_types[sig[si]].clone(),
            line: tok.line,
            is_test: in_test[sig[si]],
            ..FnItem::default()
        };
        scan_body(tokens, sig, k, body_end, &mut item);
        model.fns.push(item);
        si = body_end.max(si + 1);
    }
    model
}

/// Sig index of the delimiter matching the opener at `open` (or the last
/// sig index if the file is truncated).
fn match_delim(tokens: &[Token], sig: &[usize], open: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < sig.len() {
        let t = &tokens[sig[k]];
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    sig.len().saturating_sub(1)
}

/// For every token, the name of the enclosing `impl`/`trait` type, if any.
fn mark_impl_types(tokens: &[Token], sig: &[usize]) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; tokens.len()];
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let mut si = 0;
    while si < sig.len() {
        let tok = &tokens[sig[si]];
        if !(tok.is_ident("impl") || tok.is_ident("trait")) {
            si += 1;
            continue;
        }
        // Collect idents up to the block `{` (or give up at `;`, e.g.
        // `impl Trait` in return position never opens a block here).
        let mut j = si + 1;
        let mut idents: Vec<&str> = Vec::new();
        let mut after_for: Option<&str> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while j < sig.len() && !punct_at(j, '{') && !punct_at(j, ';') && j < si + 40 {
            let t = &tokens[sig[j]];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if t.kind == TokenKind::Ident && angle == 0 {
                if t.text == "for" {
                    saw_for = true;
                } else if saw_for && after_for.is_none() {
                    after_for = Some(&t.text);
                } else if !saw_for {
                    idents.push(&t.text);
                }
            }
            j += 1;
        }
        if !punct_at(j, '{') {
            si += 1;
            continue;
        }
        // `impl Trait for Type {…}` → Type; `impl Type {…}` / `trait
        // Name {…}` → the last pre-brace ident (skips `dyn`, generics).
        let ty = after_for.or(idents.last().copied());
        let close = match_delim(tokens, sig, j, '{', '}');
        if let Some(ty) = ty {
            for k in (j + 1)..close {
                out[sig[k]] = Some(ty.to_owned());
            }
        }
        si = j + 1; // descend into the block (nested impls overwrite)
    }
    out
}

/// Walk a function body `(open, close)` collecting calls, sinks, locks
/// and counter sites, with a brace-depth approximation of lock-guard
/// lifetimes: a `let`-bound guard lives to the end of its block, a
/// temporary guard to the end of its statement.
fn scan_body(tokens: &[Token], sig: &[usize], open: usize, close: usize, item: &mut FnItem) {
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let mut depth = 0usize; // brace depth relative to the body
    let mut active: Vec<ActiveLock> = Vec::new();
    let mut stmt_is_let = false;

    let mut k = open;
    while k <= close {
        let tok = &tokens[sig[k]];
        match tok.kind {
            TokenKind::Punct => {
                let c = tok.text.as_bytes().first().copied().unwrap_or(0) as char;
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        active.retain(|l| l.depth <= depth);
                    }
                    ';' => {
                        // Temporary guards die at the end of the statement.
                        active.retain(|l| l.is_let || l.depth < depth);
                        stmt_is_let = false;
                    }
                    _ => {}
                }
            }
            TokenKind::Ident => {
                let name = tok.text.as_str();
                if name == "let" {
                    stmt_is_let = true;
                } else if name == "Instant" || name == "SystemTime" {
                    item.sinks.push(Sink {
                        kind: SinkKind::WallClock,
                        what: name.to_owned(),
                        line: tok.line,
                    });
                } else if crate::rules::D002_IDENTS.contains(&name) {
                    item.sinks.push(Sink {
                        kind: SinkKind::Entropy,
                        what: name.to_owned(),
                        line: tok.line,
                    });
                }
                let is_call = punct_at(k + 1, '(');
                let is_method = k > 0 && punct_at(k - 1, '.');
                if is_call && is_method {
                    match name {
                        "unwrap" | "expect" => {
                            item.sinks.push(Sink {
                                kind: SinkKind::UnwrapPanic,
                                what: name.to_owned(),
                                line: tok.line,
                            });
                        }
                        _ if LOCK_METHODS.contains(&name) && punct_at(k + 2, ')') => {
                            let lock = LockSite {
                                name: receiver_chain(tokens, sig, k),
                                line: tok.line,
                            };
                            let idx = item.locks.len();
                            for l in &active {
                                item.lock_pairs.push((l.idx, idx));
                            }
                            item.locks.push(lock);
                            active.push(ActiveLock {
                                idx,
                                depth,
                                is_let: stmt_is_let,
                            });
                        }
                        "incr" | "add" => {
                            if let Some(site) = counter_site(tokens, sig, k, name) {
                                item.counters.push(site);
                            } else if name == "add" {
                                // Non-literal `.add` is some other type's
                                // method (EnergyMeter, BTreeMap…): a call.
                                push_call(tokens, sig, k, true, item, &active);
                            }
                        }
                        _ => push_call(tokens, sig, k, true, item, &active),
                    }
                } else if is_call
                    && !NON_CALL_KEYWORDS.contains(&name)
                    && !(k > 0 && tokens[sig[k - 1]].is_ident("fn"))
                {
                    push_call(tokens, sig, k, false, item, &active);
                }
            }
            _ => {}
        }
        k += 1;
    }
    // Nested fn items inside a body are rare; their calls are attributed
    // to the enclosing fn, which over-approximates reachability safely.
}

/// A lock guard currently live during the body walk.
struct ActiveLock {
    idx: usize,
    depth: usize,
    is_let: bool,
}

/// Record a call site (and which locks are held at it).
fn push_call(
    tokens: &[Token],
    sig: &[usize],
    k: usize,
    method: bool,
    item: &mut FnItem,
    active: &[ActiveLock],
) {
    let name = tokens[sig[k]].text.clone();
    // Skip macros: `name!(…)` — `(` is at k+1 only for calls, macros have
    // `!` first, so a macro never reaches here; but `name !(…)` with the
    // bang as the k+1 token does not match the `(` guard anyway.
    let mut path = Vec::new();
    if !method {
        // Walk back through `seg ::` pairs.
        let mut p = k;
        while p >= 2
            && sig.get(p - 1).is_some_and(|&ti| tokens[ti].is_punct(':'))
            && sig.get(p - 2).is_some_and(|&ti| tokens[ti].is_punct(':'))
        {
            if p >= 3 && tokens[sig[p - 3]].kind == TokenKind::Ident {
                path.insert(0, tokens[sig[p - 3]].text.clone());
                p -= 3;
            } else {
                break;
            }
        }
        // `Self::helper(…)` resolves within the enclosing impl type.
        if path.first().is_some_and(|s| s == "Self") {
            if let Some(t) = &item.impl_type {
                path[0] = t.clone();
            }
        }
    }
    let call = CallSite {
        name,
        path,
        line: tokens[sig[k]].line,
        method,
    };
    let idx = item.calls.len();
    for l in active {
        item.calls_under_lock.push((l.idx, idx));
    }
    item.calls.push(call);
}

/// The dotted receiver chain before a method call at sig index `k`
/// (`self.cache.lock` → `cache`): idents joined by `.`, `self.` stripped.
fn receiver_chain(tokens: &[Token], sig: &[usize], k: usize) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut p = k;
    while p >= 2
        && sig.get(p - 1).is_some_and(|&ti| tokens[ti].is_punct('.'))
        && sig
            .get(p - 2)
            .is_some_and(|&ti| tokens[ti].kind == TokenKind::Ident)
    {
        segs.insert(0, tokens[sig[p - 2]].text.clone());
        p -= 2;
    }
    if segs.first().is_some_and(|s| s == "self") {
        segs.remove(0);
    }
    if segs.is_empty() {
        segs.push("<expr>".to_owned());
    }
    segs.join(".")
}

/// Parse a `.incr(…)`/`.add(…)` call at sig index `k` into a counter
/// site, or `None` when it is not counter-shaped (`Counter::incr()` with
/// no key, `EnergyMeter::add(mode, …)` with a non-literal first arg).
fn counter_site(tokens: &[Token], sig: &[usize], k: usize, method: &str) -> Option<CounterSite> {
    let open = k + 1;
    let close = match_delim(tokens, sig, open, '(', ')');
    if close <= open + 1 {
        return None; // `.incr()` — the single-Counter method, not keyed.
    }
    let first = &tokens[sig[open + 1]];
    if first.kind == TokenKind::Str {
        return Some(CounterSite {
            keys: vec![first.text.clone()],
            line: first.line,
            non_literal: false,
        });
    }
    if first.is_ident("match") {
        // `counters.incr(match kind { A => "a", B => "b" })`: every arm's
        // literal is a key this site can emit.
        let keys: Vec<String> = ((open + 1)..close)
            .filter_map(|i| {
                let t = &tokens[sig[i]];
                (t.kind == TokenKind::Str).then(|| t.text.clone())
            })
            .collect();
        if !keys.is_empty() {
            return Some(CounterSite {
                keys,
                line: first.line,
                non_literal: false,
            });
        }
    }
    if method == "incr" {
        // A keyed-counter increment whose key the registry cannot see.
        return Some(CounterSite {
            keys: Vec::new(),
            line: tokens[sig[k]].line,
            non_literal: true,
        });
    }
    None
}

/// Indices of non-comment tokens (the "significant" stream the item
/// scanners walk).
pub fn sig_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect()
}

/// Convenience: lex + model in one step (tests, graph dumps).
pub fn model_of(rel_path: &str, src: &str) -> FileModel {
    let tokens = crate::lexer::lex(src);
    let sig = sig_indices(&tokens);
    let in_test = crate::rules::mark_test_mods(&tokens, &sig);
    build_model(rel_path, &tokens, &sig, &in_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_with_impl_types_and_test_marking() {
        let src = "impl SweepEngine { pub fn run(&self) {} }\n\
                   fn free() {}\n\
                   trait World { fn handle(&mut self) { self.run(); } }\n\
                   #[cfg(test)]\nmod tests { fn t() {} }\n";
        let m = model_of("crates/core/src/sweep.rs", src);
        let names: Vec<(String, bool)> = m.fns.iter().map(|f| (f.display(), f.is_test)).collect();
        assert_eq!(
            names,
            vec![
                ("SweepEngine::run".to_owned(), false),
                ("free".to_owned(), false),
                ("World::handle".to_owned(), false),
                ("t".to_owned(), true),
            ]
        );
        assert_eq!(m.krate, "core");
        assert_eq!(m.module, "sweep");
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let src = "impl World for Pipeline { fn handle(&mut self) {} }";
        let m = model_of("crates/core/src/pipeline.rs", src);
        assert_eq!(m.fns[0].display(), "Pipeline::handle");
    }

    #[test]
    fn calls_free_path_method_and_self() {
        let src = "impl P { fn f(&self) { helper(); crate::report::render(1); \
                   dles_sim::par_map(1, 0, |i| i); self.g(); Self::h(); x.unwrap(); } }";
        let m = model_of("crates/core/src/x.rs", src);
        let f = &m.fns[0];
        let calls: Vec<(String, Vec<String>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.path.clone(), c.method))
            .collect();
        assert!(calls.contains(&("helper".to_owned(), vec![], false)));
        assert!(calls.contains(&(
            "render".to_owned(),
            vec!["crate".to_owned(), "report".to_owned()],
            false
        )));
        assert!(calls.contains(&("par_map".to_owned(), vec!["dles_sim".to_owned()], false)));
        assert!(calls.contains(&("g".to_owned(), vec![], true)));
        assert!(calls.contains(&("h".to_owned(), vec!["P".to_owned()], false)));
        // unwrap is a sink, not a call.
        assert!(!calls.iter().any(|(n, _, _)| n == "unwrap"));
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.sinks[0].kind, SinkKind::UnwrapPanic);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f() { assert!(x); vec![1]; if (a) {} match (b) { _ => {} } }";
        let m = model_of("crates/core/src/x.rs", src);
        assert!(m.fns[0].calls.is_empty());
    }

    #[test]
    fn wallclock_and_entropy_sinks() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let m = model_of("crates/sim/src/x.rs", src);
        let kinds: Vec<SinkKind> = m.fns[0].sinks.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SinkKind::WallClock));
        assert!(kinds.contains(&SinkKind::Entropy));
    }

    #[test]
    fn lock_sites_and_nested_pairs() {
        let src = "impl E { fn f(&self) {\n\
                   let a = self.cache.lock();\n\
                   let b = self.counters.lock();\n\
                   } }";
        let m = model_of("crates/core/src/sweep.rs", src);
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].name, "cache");
        assert_eq!(f.locks[1].name, "counters");
        assert_eq!(f.lock_pairs, vec![(0, 1)]);
    }

    #[test]
    fn block_scoped_guards_do_not_pair() {
        let src = "impl E { fn f(&self) {\n\
                   { let a = self.cache.lock(); }\n\
                   { let b = self.counters.lock(); }\n\
                   } }";
        let m = model_of("crates/core/src/sweep.rs", src);
        assert!(m.fns[0].lock_pairs.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "impl E { fn f(&self) {\n\
                   self.counters.lock().clone();\n\
                   let b = self.cache.lock();\n\
                   } }";
        let m = model_of("crates/core/src/sweep.rs", src);
        assert!(m.fns[0].lock_pairs.is_empty());
    }

    #[test]
    fn calls_under_a_held_lock_are_recorded() {
        let src = "impl E { fn f(&self) { let g = self.cache.lock(); helper(); } }";
        let m = model_of("crates/core/src/sweep.rs", src);
        let f = &m.fns[0];
        assert_eq!(f.calls_under_lock.len(), 1);
        let (lock, call) = f.calls_under_lock[0];
        assert_eq!(f.locks[lock].name, "cache");
        assert_eq!(f.calls[call].name, "helper");
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
        }"#;
        let m = model_of("crates/core/src/x.rs", src);
        let f = &m.fns[0];
        assert_eq!(f.counters.len(), 4);
        assert_eq!(f.counters[0].keys, vec!["frames"]);
        assert_eq!(f.counters[1].keys, vec!["sweep_jobs"]);
        assert_eq!(f.counters[2].keys, vec!["a", "b"]);
        assert!(f.counters[3].non_literal);
        // `meter.add(mode, …)` became a call edge, `plain.incr()` nothing.
        assert!(f.calls.iter().any(|c| c.name == "add"));
        assert!(!f.calls.iter().any(|c| c.name == "incr"));
    }

    #[test]
    fn lock_methods_need_empty_parens() {
        // `file.write(buf)` is I/O, not a lock acquisition.
        let src = "fn f() { file.write(buf); port.read(n); q.lock(); }";
        let m = model_of("crates/net/src/x.rs", src);
        assert_eq!(m.fns[0].locks.len(), 1);
        assert_eq!(m.fns[0].locks[0].name, "q");
    }

    #[test]
    fn crate_and_module_attribution() {
        assert_eq!(crate_of("crates/sim/src/par.rs"), "sim");
        assert_eq!(crate_of("tests/golden_outputs.rs"), "tests");
        assert_eq!(
            crate_of("crates/lint/tests/fixtures/crates/core/x.rs"),
            "lint"
        );
        assert_eq!(module_of("crates/sim/src/par.rs"), "par");
        assert_eq!(module_of("crates/sim/src/lib.rs"), "");
    }
}
