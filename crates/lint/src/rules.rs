//! The numbered determinism rules and the per-file scanner.
//!
//! Every rule exists to protect one guarantee: **a seeded run produces
//! byte-identical traces, counters and reports on any machine, at any
//! `--threads` count**. See `LINTS.md` at the workspace root for the
//! rationale of each rule and the allow-comment syntax.
//!
//! Suppression: a finding on line `L` is allowed only by a line comment on
//! that same line of the form
//!
//! ```text
//! // lint: allow(D003) — membership-only set; iteration order never observed
//! ```
//!
//! The reason text after the dash is mandatory, and an allow that does not
//! suppress anything is itself reported (D000), so suppressions cannot rot.

use crate::counters::{collect_sites, CounterSite};
use crate::lexer::{lex, Token, TokenKind};
use crate::suffixes::{suggested_type, unit_dimension, unit_suffix};
use std::collections::{BTreeMap, VecDeque};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allow-comment hygiene: malformed, reasonless, unknown or unused.
    D000,
    /// No wall-clock time sources outside test code.
    D001,
    /// No OS/entropy randomness or env-dependent seeds.
    D002,
    /// No hash-ordered containers (iteration order leaks into output).
    D003,
    /// No `partial_cmp` on floats — use `total_cmp`.
    D004,
    /// No `unwrap`/`expect` in event-dispatch hot paths.
    D005,
    /// Every repro CLI flag must be documented in README.
    D006,
    /// No bare `f64` under a unit-suffixed name in public signatures or
    /// struct fields of the unit-bearing crates — use `dles-units` types.
    D007,
    /// No arithmetic mixing identifiers with conflicting unit suffixes
    /// without a same-line conversion call.
    D008,
    /// Counter-key discipline: literal, single-owning-crate keys, all
    /// documented in README's counter-key registry, no dead registry rows.
    D010,
    /// Lock-order discipline within one file: no acquisition cycles, no
    /// re-acquisition of a held lock, no lock held across a `par_map`.
    D011,
}

impl RuleId {
    pub const ALL: [RuleId; 11] = [
        RuleId::D000,
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
        RuleId::D007,
        RuleId::D008,
        RuleId::D010,
        RuleId::D011,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D000 => "D000",
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::D007 => "D007",
            RuleId::D008 => "D008",
            RuleId::D010 => "D010",
            RuleId::D011 => "D011",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == s)
    }
}

/// One lint finding. `allowed` carries the justification when the line has
/// a matching `// lint: allow(…)` comment; such findings never fail
/// `--deny` but stay visible in `--json` output.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub message: String,
    pub allowed: Option<String>,
}

impl Finding {
    /// A finding that no allow comment has suppressed (yet).
    pub fn new(rule: RuleId, path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
            allowed: None,
        }
    }

    pub fn is_violation(&self) -> bool {
        self.allowed.is_none()
    }
}

/// A documented-name candidate collected for the D006 cross-check: a CLI
/// flag string matched in `repro.rs`.
#[derive(Debug, Clone)]
pub struct DocCandidate {
    pub name: String,
    pub path: String,
    pub line: u32,
    /// Reason from an on-line `lint: allow(D006)`, if any.
    pub allowed: Option<String>,
}

/// An `allow(D010)` comment that suppressed nothing in its own file. The
/// cross-file D010 findings exist only once every file's counter sites are
/// merged, so the directive is matched (same line only) in
/// [`crate::counters::analyze`]; one that suppresses nothing becomes a
/// D000 there, exactly like a stale per-file allow.
#[derive(Debug, Clone)]
pub struct DeferredAllow {
    pub path: String,
    pub line: u32,
    pub reason: String,
}

/// Everything a file scan produces.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    pub cli_flags: Vec<DocCandidate>,
    /// Literal counter keys for the workspace half of D010.
    pub counter_sites: Vec<CounterSite>,
    /// `allow(D010)` directives left for the workspace half of D010.
    pub deferred_allows: Vec<DeferredAllow>,
}

/// Event-dispatch hot-path files covered by D005 (matched by file name so
/// the rule is testable on fixtures).
const D005_FILES: [&str; 3] = ["pipeline.rs", "recovery.rs", "faults.rs"];

/// Identifiers banned by D002 wherever they appear.
const D002_IDENTS: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Hash-ordered container type names banned by D003.
const D003_IDENTS: [&str; 6] = [
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

struct AllowDirective {
    rule: RuleId,
    reason: String,
    used: bool,
}

/// D010 and D011 cover production code: test, example and bench trees are
/// exempt (their scratch counters and locks run once, off the hot path),
/// but fixture corpora stay in scope so the rules are testable.
fn in_scope(path: &str) -> bool {
    if path.contains("fixtures/") {
        return true;
    }
    let in_dir = |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    !(in_dir("tests") || in_dir("examples") || in_dir("benches"))
}

/// Scan one file's source. `rel_path` is workspace-relative and decides
/// which rules apply (D005 covers only the event-dispatch files; flag
/// collection happens in `repro.rs`).
pub fn scan_file(rel_path: &str, src: &str) -> FileScan {
    let tokens = lex(src);
    let sig = sig_indices(&tokens);
    let in_test = mark_test_mods(&tokens, &sig);
    let (mut allows, mut findings) = parse_allow_directives(rel_path, &tokens);

    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let d005_applies = D005_FILES.contains(&file_name);
    let collect_flags = file_name == "repro.rs";

    let mut scan = FileScan::default();

    let prev_punct = |si: usize, c: char| si > 0 && tokens[sig[si - 1]].is_punct(c);
    let is_method_call = |si: usize| {
        prev_punct(si, '.') || (si > 1 && prev_punct(si, ':') && tokens[sig[si - 2]].is_punct(':'))
    };

    for si in 0..sig.len() {
        let ti = sig[si];
        let tok = &tokens[ti];
        let test_code = in_test[ti];
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "Instant" | "SystemTime" if !test_code => {
                    findings.push(Finding::new(
                        RuleId::D001,
                        rel_path,
                        tok.line,
                        format!(
                            "wall-clock source `{}` — simulation time must come from the \
                             engine clock (SimTime), never the host",
                            tok.text
                        ),
                    ));
                }
                name if D002_IDENTS.contains(&name) && !test_code => {
                    findings.push(Finding::new(
                        RuleId::D002,
                        rel_path,
                        tok.line,
                        format!(
                            "entropy source `{name}` — all randomness must flow through a \
                             seeded SimRng so runs replay byte-identically"
                        ),
                    ));
                }
                "var" | "var_os"
                    if !test_code
                        && si > 2
                        && prev_punct(si, ':')
                        && tokens[sig[si - 2]].is_punct(':')
                        && tokens[sig[si - 3]].is_ident("env") =>
                {
                    findings.push(Finding::new(
                        RuleId::D002,
                        rel_path,
                        tok.line,
                        format!(
                            "environment read `env::{}` — configuration must arrive through \
                             explicit CLI flags or seeds, not ambient state",
                            tok.text
                        ),
                    ));
                }
                name if D003_IDENTS.contains(&name) => {
                    findings.push(Finding::new(
                        RuleId::D003,
                        rel_path,
                        tok.line,
                        format!(
                            "hash-ordered container `{name}` — iteration order varies per \
                             process; use BTreeMap/BTreeSet or emit through a sorted view"
                        ),
                    ));
                }
                "partial_cmp" if is_method_call(si) => {
                    findings.push(Finding::new(
                        RuleId::D004,
                        rel_path,
                        tok.line,
                        "float comparison via `partial_cmp` — NaN turns this into a \
                         panic or a platform-dependent order; use `total_cmp`"
                            .to_owned(),
                    ));
                }
                "unwrap" | "expect" if d005_applies && !test_code && prev_punct(si, '.') => {
                    findings.push(Finding::new(
                        RuleId::D005,
                        rel_path,
                        tok.line,
                        format!(
                            "`{}` in an event-dispatch hot path — a panic here aborts the \
                             whole simulation; handle the None/Err arm or justify the \
                             invariant with an allow comment",
                            tok.text
                        ),
                    ));
                }
                _ => {}
            },
            TokenKind::Str if collect_flags && is_cli_flag(&tok.text) => {
                scan.cli_flags.push(DocCandidate {
                    name: tok.text.clone(),
                    path: rel_path.to_owned(),
                    line: tok.line,
                    allowed: None,
                });
            }
            _ => {}
        }
    }

    if unit_rules_apply(rel_path) {
        scan_unit_types(rel_path, &tokens, &sig, &in_test, &mut findings);
        scan_unit_mixing(rel_path, &tokens, &sig, &mut findings);
    }
    if in_scope(rel_path) {
        scan.counter_sites = collect_sites(rel_path, &tokens, &sig, &in_test, &mut findings);
        let locks = scan_locks(&tokens, &sig, &in_test);
        check_lock_order(rel_path, &locks, &mut findings);
    }

    // Apply allow directives: same line, same rule.
    for f in &mut findings {
        if let Some(list) = allows.get_mut(&f.line) {
            for a in list.iter_mut() {
                if a.rule == f.rule {
                    a.used = true;
                    f.allowed = Some(a.reason.clone());
                }
            }
        }
    }
    for cand in scan.cli_flags.iter_mut() {
        if let Some(list) = allows.get_mut(&cand.line) {
            for a in list.iter_mut() {
                if a.rule == RuleId::D006 {
                    a.used = true;
                    cand.allowed = Some(a.reason.clone());
                }
            }
        }
    }
    // Stale allows are findings themselves — except `allow(D010)`, whose
    // cross-file findings only exist once the workspace is merged; those
    // are exported for matching there.
    let mut lines: Vec<u32> = allows.keys().copied().collect();
    lines.sort_unstable();
    for line in lines {
        for a in &allows[&line] {
            if a.used {
                continue;
            }
            if a.rule == RuleId::D010 {
                scan.deferred_allows.push(DeferredAllow {
                    path: rel_path.to_owned(),
                    line,
                    reason: a.reason.clone(),
                });
                continue;
            }
            findings.push(Finding::new(
                RuleId::D000,
                rel_path,
                line,
                format!(
                    "stale `lint: allow({})` — it suppresses nothing on this line",
                    a.rule.as_str()
                ),
            ));
        }
    }

    scan.findings = findings;
    scan
}

/// Indices of the non-comment tokens, the stream the rules walk.
fn sig_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect()
}

/// D007/D008 cover only the unit-bearing crates (power, battery, core);
/// matched by substring so the rule is testable on fixture trees.
fn unit_rules_apply(rel_path: &str) -> bool {
    ["crates/power/", "crates/battery/", "crates/core/"]
        .iter()
        .any(|p| rel_path.contains(p))
}

/// Does the type ascription starting at sig index `k` resolve to a bare
/// `f64` once references and the transparent wrappers are peeled off?
fn type_is_bare_f64(tokens: &[Token], sig: &[usize], mut k: usize) -> bool {
    for _ in 0..8 {
        let Some(&ti) = sig.get(k) else { return false };
        let t = &tokens[ti];
        if t.is_punct('&')
            || t.is_punct('[')
            || t.is_punct('<')
            || t.is_ident("mut")
            || t.is_ident("Vec")
            || t.is_ident("Option")
            || t.kind == TokenKind::Lifetime
        {
            k += 1;
            continue;
        }
        return t.is_ident("f64");
    }
    false
}

/// D007: in the unit-bearing crates, a struct field or a public fn
/// signature must not carry a bare `f64` under a unit-suffixed name
/// (`*_s`, `*_mah`, `*_mhz`, …) — the typed quantity makes the unit part
/// of the signature. Constructor-boundary functions (returning `Self`)
/// are exempt: they are where raw measurements get wrapped.
fn scan_unit_types(
    rel_path: &str,
    tokens: &[Token],
    sig: &[usize],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    let ident_at = |k: usize, w: &str| sig.get(k).is_some_and(|&ti| tokens[ti].is_ident(w));
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let field_finding = |tok: &Token, suf: &str, what: &str| {
        Finding::new(
            RuleId::D007,
            rel_path,
            tok.line,
            format!(
                "{what} `{}` is a bare f64 under a unit-suffixed name — \
                 use dles_units::{} so the unit is part of the type",
                tok.text,
                suggested_type(suf)
            ),
        )
    };

    let mut si = 0;
    while si < sig.len() {
        if in_test[sig[si]] {
            si += 1;
            continue;
        }
        if ident_at(si, "struct") {
            // Find the opening brace; tuple (`(`) and unit (`;`) structs
            // have no named fields to check.
            let mut j = si + 1;
            let mut open = None;
            while j < sig.len() && j < si + 12 {
                if punct_at(j, '{') {
                    open = Some(j);
                    break;
                }
                if punct_at(j, ';') || punct_at(j, '(') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = open {
                let mut depth = 0usize;
                let mut k = open;
                while k < sig.len() {
                    if punct_at(k, '{') {
                        depth += 1;
                    } else if punct_at(k, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1 {
                        let tok = &tokens[sig[k]];
                        if tok.kind == TokenKind::Ident
                            && punct_at(k + 1, ':')
                            && !punct_at(k + 2, ':')
                        {
                            if let Some(suf) = unit_suffix(&tok.text) {
                                if type_is_bare_f64(tokens, sig, k + 2) {
                                    findings.push(field_finding(tok, suf, "struct field"));
                                }
                            }
                        }
                    }
                    k += 1;
                }
                si = k.max(si + 1);
                continue;
            }
        }
        if ident_at(si, "fn") {
            // Visibility: look back a few tokens for `pub`, stopping at
            // statement/block boundaries.
            let mut is_pub = false;
            let mut p = si;
            for _ in 0..6 {
                if p == 0 {
                    break;
                }
                p -= 1;
                let t = &tokens[sig[p]];
                if t.is_ident("pub") {
                    is_pub = true;
                    break;
                }
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
            }
            let fn_name = sig
                .get(si + 1)
                .map(|&ti| &tokens[ti])
                .filter(|t| t.kind == TokenKind::Ident);
            // Skip generics to the parameter list.
            let mut j = si + 2;
            while j < sig.len() && !punct_at(j, '(') && !punct_at(j, '{') && !punct_at(j, ';') {
                j += 1;
            }
            if !punct_at(j, '(') {
                si += 1;
                continue;
            }
            let mut depth = 0usize;
            let mut k = j;
            let mut param_hits: Vec<(Token, &str)> = Vec::new();
            while k < sig.len() {
                if punct_at(k, '(') {
                    depth += 1;
                } else if punct_at(k, ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 {
                    let tok = &tokens[sig[k]];
                    let starts_param = punct_at(k.wrapping_sub(1), '(')
                        || punct_at(k.wrapping_sub(1), ',')
                        || ident_at(k.wrapping_sub(1), "mut");
                    if tok.kind == TokenKind::Ident
                        && starts_param
                        && punct_at(k + 1, ':')
                        && !punct_at(k + 2, ':')
                    {
                        if let Some(suf) = unit_suffix(&tok.text) {
                            if type_is_bare_f64(tokens, sig, k + 2) {
                                param_hits.push((tok.clone(), suf));
                            }
                        }
                    }
                }
                k += 1;
            }
            let has_arrow = punct_at(k + 1, '-') && punct_at(k + 2, '>');
            let returns_self = has_arrow && ident_at(k + 3, "Self");
            let returns_f64 = has_arrow && ident_at(k + 3, "f64");
            if is_pub && !returns_self {
                for (tok, suf) in param_hits {
                    findings.push(field_finding(&tok, suf, "fn parameter"));
                }
                if returns_f64 {
                    if let Some(name) = fn_name {
                        if let Some(suf) = unit_suffix(&name.text) {
                            findings.push(field_finding(name, suf, "fn return type of"));
                        }
                    }
                }
            }
            si = k.max(si + 1);
            continue;
        }
        si += 1;
    }
}

/// D008: `a_s + b_h`, `x_ma - y_mah`, `t_s * u_h` — arithmetic between
/// identifiers whose unit suffixes conflict. `+` and `-` require the same
/// suffix; `*` and `/` flag only same-dimension scale mixing (s × h)
/// since cross-dimension products build compound units legitimately. A
/// conversion call (`to_*`, `from_*`, `into_*`, `as_*`) on the same line
/// suppresses, as does an allow comment.
fn scan_unit_mixing(rel_path: &str, tokens: &[Token], sig: &[usize], findings: &mut Vec<Finding>) {
    let conv_lines: std::collections::BTreeSet<u32> = tokens
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && (t.text.starts_with("to_")
                    || t.text.starts_with("from_")
                    || t.text.starts_with("into_")
                    || t.text.starts_with("as_"))
        })
        .map(|t| t.line)
        .collect();
    for i in 1..sig.len().saturating_sub(1) {
        let op = &tokens[sig[i]];
        if op.kind != TokenKind::Punct || op.text.len() != 1 {
            continue;
        }
        let c = op.text.as_bytes()[0] as char;
        if !matches!(c, '+' | '-' | '*' | '/') {
            continue;
        }
        let a = &tokens[sig[i - 1]];
        let b = &tokens[sig[i + 1]];
        if a.kind != TokenKind::Ident || b.kind != TokenKind::Ident {
            continue;
        }
        let (Some(sa), Some(sb)) = (unit_suffix(&a.text), unit_suffix(&b.text)) else {
            continue;
        };
        if sa == sb {
            continue;
        }
        let conflict = match c {
            '+' | '-' => true,
            _ => unit_dimension(sa) == unit_dimension(sb),
        };
        if !conflict || conv_lines.contains(&op.line) {
            continue;
        }
        findings.push(Finding::new(
            RuleId::D008,
            rel_path,
            op.line,
            format!(
                "`{}` {} `{}` mixes unit suffixes `_{}` and `_{}` — convert \
                 explicitly or justify with an allow comment",
                a.text, c, b.text, sa, sb
            ),
        ));
    }
}

/// Lock-acquisition methods. They count only with empty parentheses:
/// `file.write(buf)` is I/O, not a lock.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// The parallel-executor entry points no lock may be held across.
const PAR_CALLS: [&str; 2] = ["par_map", "par_map_slice"];

/// One `Mutex`/`RwLock` acquisition.
#[derive(Debug)]
struct LockSite {
    /// The dotted receiver chain, `self.` stripped (`self.cache.lock()`
    /// → `cache`).
    name: String,
    line: u32,
    /// The nearest enclosing `fn`.
    in_fn: String,
}

/// What D011 sees of one file's non-test code.
#[derive(Debug, Default)]
struct LockScan {
    /// Every acquisition, in source order.
    locks: Vec<LockSite>,
    /// Indices into `locks`: (outer, inner) where inner is acquired while
    /// outer is held.
    pairs: Vec<(usize, usize)>,
    /// (lock index, callee, line): a `par_map` call made while held.
    across_par: Vec<(usize, String, u32)>,
}

/// Track which lock guards are live through the file by brace depth: a
/// `let`-bound guard lives to the end of its block, a temporary dies at
/// the `;` that ends its statement.
fn scan_locks(tokens: &[Token], sig: &[usize], in_test: &[bool]) -> LockScan {
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let ident_at = |k: usize| {
        sig.get(k)
            .is_some_and(|&ti| tokens[ti].kind == TokenKind::Ident)
    };
    let mut scan = LockScan::default();
    // (index into `scan.locks`, brace depth, let-bound) per live guard.
    let mut live: Vec<(usize, usize, bool)> = Vec::new();
    let (mut depth, mut stmt_is_let, mut in_fn) = (0usize, false, "");
    for (k, &ti) in sig.iter().enumerate() {
        let tok = &tokens[ti];
        if in_test[ti] {
            continue;
        }
        if tok.is_punct('{') {
            (depth, stmt_is_let) = (depth + 1, false);
        } else if tok.is_punct('}') {
            (depth, stmt_is_let) = (depth.saturating_sub(1), false);
            live.retain(|l| l.1 <= depth);
        } else if tok.is_punct(';') {
            live.retain(|l| l.2 || l.1 < depth);
            stmt_is_let = false;
        } else if tok.is_ident("let") {
            stmt_is_let = true;
        } else if tok.is_ident("fn") && ident_at(k + 1) {
            in_fn = &tokens[sig[k + 1]].text;
        } else if LOCK_METHODS.contains(&tok.text.as_str())
            && punct_at(k.wrapping_sub(1), '.')
            && punct_at(k + 1, '(')
            && punct_at(k + 2, ')')
        {
            let idx = scan.locks.len();
            scan.pairs.extend(live.iter().map(|l| (l.0, idx)));
            scan.locks.push(LockSite {
                name: receiver_chain(tokens, sig, k),
                line: tok.line,
                in_fn: in_fn.to_owned(),
            });
            live.push((idx, depth, stmt_is_let));
        } else if PAR_CALLS.contains(&tok.text.as_str())
            && punct_at(k + 1, '(')
            && !(k > 0 && tokens[sig[k - 1]].is_ident("fn"))
        {
            for l in &live {
                scan.across_par.push((l.0, tok.text.clone(), tok.line));
            }
        }
    }
    scan
}

/// The dotted receiver chain before a method call at sig index `k`
/// (`self.cache.lock` → `cache`): idents joined by `.`, `self.` stripped.
fn receiver_chain(tokens: &[Token], sig: &[usize], k: usize) -> String {
    let mut segs: Vec<&str> = Vec::new();
    let mut p = k;
    while p >= 2 && tokens[sig[p - 1]].is_punct('.') && tokens[sig[p - 2]].kind == TokenKind::Ident
    {
        segs.insert(0, &tokens[sig[p - 2]].text);
        p -= 2;
    }
    if segs.first() == Some(&"self") {
        segs.remove(0);
    }
    if segs.is_empty() {
        return "<expr>".to_owned();
    }
    segs.join(".")
}

/// D011: within one file, a lock taken again while held, a lock-order
/// cycle, and a lock held across a `par_map` call. Locks a called fn takes
/// are not seen.
fn check_lock_order(rel_path: &str, scan: &LockScan, findings: &mut Vec<Finding>) {
    let mut report = |line: u32, message: String| {
        findings.push(Finding::new(RuleId::D011, rel_path, line, message));
    };
    for (li, call, line) in &scan.across_par {
        report(
            *line,
            format!(
                "lock `{}` is held across the `{call}` boundary — a worker touching the same \
                 lock deadlocks, and the serialized section defeats the parallel sweep",
                scan.locks[*li].name
            ),
        );
    }
    // One edge per (outer, inner) name pair, at its first acquisition.
    let mut edges: Vec<(&str, &str, &LockSite)> = Vec::new();
    for &(a, b) in &scan.pairs {
        let (from, to) = (scan.locks[a].name.as_str(), scan.locks[b].name.as_str());
        if !edges.iter().any(|e| (e.0, e.1) == (from, to)) {
            edges.push((from, to, &scan.locks[b]));
        }
    }
    for &(from, to, site) in &edges {
        if from == to {
            report(
                site.line,
                format!(
                    "lock `{from}` is acquired in `{}` while already held — a non-reentrant \
                     Mutex self-deadlocks here",
                    site.in_fn
                ),
            );
        } else if let Some(back) = lock_path(&edges, to, from) {
            report(
                site.line,
                format!(
                    "lock-order cycle: `{}` acquires `{to}` while holding `{from}`, but the \
                     reverse order exists elsewhere in this file — cycle: {from} → {}",
                    site.in_fn,
                    back.join(" → ")
                ),
            );
        }
    }
}

/// Shortest lock path `from → … → to` over the edges, by breadth-first
/// search; `from` and `to` differ.
fn lock_path<'a>(
    edges: &[(&'a str, &'a str, &LockSite)],
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            while let Some(&p) = prev.get(path[path.len() - 1]) {
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        for &(a, b, _) in edges {
            if a == n && b != from && !prev.contains_key(b) {
                prev.insert(b, a);
                queue.push_back(b);
            }
        }
    }
    None
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

type AllowMap = BTreeMap<u32, Vec<AllowDirective>>;

/// Extract `// lint: allow(Dxxx[, Dyyy]) — reason` directives, reporting
/// malformed ones (missing reason, unknown rule) as D000 findings.
fn parse_allow_directives(rel_path: &str, tokens: &[Token]) -> (AllowMap, Vec<Finding>) {
    let mut map = AllowMap::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = tok.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let mut bad = |msg: String| {
            findings.push(Finding::new(RuleId::D000, rel_path, tok.line, msg));
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            bad(format!("unrecognized lint directive `//{}`", tok.text));
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            bad("malformed allow: expected `allow(Dxxx)`".to_owned());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed allow: missing `)`".to_owned());
            continue;
        };
        let (ids, tail) = rest.split_at(close);
        let tail = tail[1..].trim_start();
        // The justification is mandatory: a dash separator plus prose.
        let reason = tail
            .strip_prefix('—')
            .or_else(|| tail.strip_prefix("--"))
            .or_else(|| tail.strip_prefix('-'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            bad(
                "allow without a reason: write `lint: allow(Dxxx) — <why this is safe>`".to_owned(),
            );
            continue;
        }
        for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match RuleId::parse(id) {
                Some(rule) => map.entry(tok.line).or_default().push(AllowDirective {
                    rule,
                    reason: reason.to_owned(),
                    used: false,
                }),
                None => bad(format!("allow names unknown rule `{id}`")),
            }
        }
    }
    (map, findings)
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
            findings.push(Finding {
                allowed: cand.allowed.clone(),
                ..Finding::new(
                    RuleId::D006,
                    &cand.path,
                    cand.line,
                    format!("CLI flag `{}` is not documented in {doc_name}", cand.name),
                )
            });
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

    fn violations(rel: &str, src: &str) -> Vec<(RuleId, u32)> {
        scan_file(rel, src)
            .findings
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d001_flags_wall_clock_outside_test_code_everywhere() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let v = violations("crates/sim/src/engine.rs", src);
        assert_eq!(v, vec![(RuleId::D001, 1), (RuleId::D001, 2)]);
        // No path is exempt: the retired criterion shim's path is flagged too.
        assert_eq!(violations("crates/criterion/src/lib.rs", src), v);
    }

    #[test]
    fn d002_flags_entropy_and_env() {
        let src = "fn f() { let r = thread_rng(); let s = std::env::var(\"SEED\"); }\n";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(v, vec![(RuleId::D002, 1), (RuleId::D002, 1)]);
        // env::args is fine — only var/var_os read ambient state.
        assert!(violations("crates/core/src/x.rs", "fn f() { std::env::args(); }").is_empty());
    }

    #[test]
    fn d003_flags_hash_containers_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        assert_eq!(
            violations("crates/core/src/x.rs", src),
            vec![(RuleId::D003, 3)]
        );
    }

    #[test]
    fn d004_flags_method_calls_not_trait_impls() {
        let def = "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> \
                   { Some(self.cmp(o)) } }";
        assert!(violations("crates/core/src/x.rs", def).is_empty());
        let call = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            violations("crates/core/src/x.rs", call),
            vec![(RuleId::D004, 1)]
        );
        let ufcs = "fn f(a: f64, b: f64) { let _ = f64::partial_cmp(&a, &b); }";
        assert_eq!(
            violations("crates/core/src/x.rs", ufcs),
            vec![(RuleId::D004, 1)]
        );
    }

    #[test]
    fn d005_applies_only_to_hot_path_files_outside_tests() {
        let src = "fn handle() { x.unwrap(); y.expect(\"inv\"); }\n\
                   #[cfg(test)]\nmod tests { fn t() { z.unwrap(); } }\n";
        let v = violations("crates/core/src/pipeline.rs", src);
        assert_eq!(v, vec![(RuleId::D005, 1), (RuleId::D005, 1)]);
        assert!(violations("crates/core/src/report.rs", src).is_empty());
        // unwrap_or / unwrap_or_else are fine.
        let soft = "fn handle() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }";
        assert!(violations("crates/core/src/recovery.rs", soft).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts_as_used() {
        let src = "use std::collections::HashSet; \
                   // lint: allow(D003) — membership only, never iterated\n";
        let scan = scan_file("crates/sim/src/event.rs", src);
        assert!(scan.findings.iter().all(|f| !f.is_violation()));
        let allowed: Vec<_> = scan
            .findings
            .iter()
            .filter(|f| f.allowed.is_some())
            .collect();
        assert_eq!(allowed.len(), 1);
        assert!(allowed[0]
            .allowed
            .as_deref()
            .unwrap()
            .contains("membership"));
    }

    #[test]
    fn allow_without_reason_is_a_d000_violation() {
        let src = "use std::collections::HashSet; // lint: allow(D003)\n";
        let v = violations("crates/sim/src/event.rs", src);
        // The allow is rejected, so both D000 and the raw D003 surface.
        assert!(v.contains(&(RuleId::D000, 1)));
        assert!(v.contains(&(RuleId::D003, 1)));
    }

    #[test]
    fn stale_allow_is_a_d000_violation() {
        let src = "fn clean() {} // lint: allow(D001) — nothing here needs it\n";
        assert_eq!(
            violations("crates/core/src/x.rs", src),
            vec![(RuleId::D000, 1)]
        );
    }

    #[test]
    fn allow_on_wrong_line_does_not_suppress() {
        let src = "// lint: allow(D003) — wrong line\nuse std::collections::HashMap;\n";
        let v = violations("crates/core/src/x.rs", src);
        assert!(v.contains(&(RuleId::D003, 2)));
        assert!(v.contains(&(RuleId::D000, 1)));
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "fn f() {} // lint: allow(D999) — no such rule\n";
        assert_eq!(
            violations("crates/core/src/x.rs", src),
            vec![(RuleId::D000, 1)]
        );
    }

    #[test]
    fn banned_names_in_strings_and_comments_do_not_flag() {
        let src = "// HashMap and Instant::now in prose are fine\n\
                   fn f() -> &'static str { \"use std::collections::HashMap;\" }\n\
                   /* thread_rng() in a block comment */\n";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

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
            allowed: None,
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

    #[test]
    fn d007_flags_struct_fields_and_pub_fn_params() {
        let src = "pub struct B { pub drain_ma: f64, label: String }\n\
                   pub fn set(core_v: f64) {}\n";
        let v = violations("crates/core/src/node.rs", src);
        assert_eq!(v, vec![(RuleId::D007, 1), (RuleId::D007, 2)]);
    }

    #[test]
    fn d007_exempts_constructors_and_private_fns() {
        let ctor = "impl B { pub fn new(cap_mah: f64, t_s: f64) -> Self { B } }";
        assert!(violations("crates/battery/src/lib.rs", ctor).is_empty());
        let private = "fn sigma_at(t_s: f64) -> f64 { t_s }";
        assert!(violations("crates/battery/src/rakhmatov.rs", private).is_empty());
    }

    #[test]
    fn d007_flags_suffixed_pub_fn_returning_bare_f64() {
        let src = "pub fn required_mhz(slack: f64) -> f64 { slack }";
        assert_eq!(
            violations("crates/core/src/workload.rs", src),
            vec![(RuleId::D007, 1)]
        );
        // An unsuffixed name returning f64 is fine (it is a ratio).
        let ratio = "pub fn utilization(slack: f64) -> f64 { slack }";
        assert!(violations("crates/core/src/workload.rs", ratio).is_empty());
    }

    #[test]
    fn d007_is_gated_to_unit_bearing_crates() {
        let src = "pub struct B { pub drain_ma: f64 }";
        assert!(violations("crates/sim/src/engine.rs", src).is_empty());
        assert!(violations("crates/lint/src/rules.rs", src).is_empty());
        assert_eq!(violations("crates/power/src/dvs.rs", src).len(), 1);
    }

    #[test]
    fn d007_does_not_fire_on_typed_or_unsuffixed_members() {
        let src = "pub struct B { pub cap_mah: MilliAmpHours, pub count: f64, \
                   pub items_mah: Vec<MilliAmpHours> }";
        assert!(violations("crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn d008_flags_additive_mixing_and_same_dimension_scaling() {
        let src = "fn f(dur_s: f64, dur_h: f64, q_mah: f64, i_ma: f64) -> f64 {\n\
                   let a = dur_s + dur_h;\n\
                   let b = q_mah - i_ma;\n\
                   let c = dur_s * dur_h;\n\
                   a + b + c }";
        let v = violations("crates/core/src/x.rs", src);
        assert_eq!(
            v,
            vec![(RuleId::D008, 2), (RuleId::D008, 3), (RuleId::D008, 4)]
        );
    }

    #[test]
    fn d008_permits_compound_products_and_conversion_lines() {
        // mA × h is a legitimate compound unit (charge), and a to_*/as_*
        // call on the line marks an explicit conversion.
        let src = "fn f(i_ma: f64, dur_h: f64, dur_s: f64) -> f64 {\n\
                   let q = i_ma * dur_h;\n\
                   let t = dur_s + to_secs(dur_h);\n\
                   q + t }";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }

    /// D011's view of `src`: acquisitions as (name, line), and the
    /// (outer, inner) name pairs held together.
    type Named<T> = Vec<(String, T)>;

    fn locks(src: &str) -> (Named<u32>, Named<String>) {
        let tokens = lex(src);
        let sig = sig_indices(&tokens);
        let scan = scan_locks(&tokens, &sig, &mark_test_mods(&tokens, &sig));
        let name = |i: usize| scan.locks[i].name.clone();
        let pairs = scan.pairs.iter().map(|&(a, b)| (name(a), name(b)));
        let sites = scan.locks.iter().map(|l| (l.name.clone(), l.line));
        (sites.collect(), pairs.collect())
    }

    fn d011(src: &str) -> Vec<String> {
        let scan = scan_file("crates/core/src/engine2.rs", src);
        let d011 = scan.findings.into_iter().filter(|f| f.rule == RuleId::D011);
        d011.map(|f| f.message).collect()
    }

    #[test]
    fn lock_sites_and_nested_pairs() {
        let (sites, pairs) =
            locks("fn f(&self) {\nlet a = self.cache.lock();\nlet b = self.counters.lock();\n}");
        assert_eq!(sites, [("cache".into(), 2), ("counters".into(), 3)]);
        assert_eq!(pairs, [("cache".into(), "counters".into())]);
    }

    #[test]
    fn block_scoped_guards_do_not_pair() {
        let src = "fn f(&self) { { let a = self.cache.lock(); } { let b = self.stats.lock(); } }";
        assert!(locks(src).1.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) { self.counters.lock().clone(); let b = self.cache.lock(); }";
        assert!(locks(src).1.is_empty());
    }

    #[test]
    fn guards_do_not_outlive_their_fn() {
        let src = "fn f(&self) { if let Some(x) = self.a.lock().get(0) { x; } }\n\
                   fn g(&self) { self.b.lock().clear(); let c = self.c.lock(); }";
        assert!(locks(src).1.is_empty());
    }

    #[test]
    fn lock_methods_need_empty_parens() {
        // `file.write(buf)` is I/O, not a lock acquisition.
        let (sites, _) = locks("fn f() { file.write(buf); port.read(n); q.lock(); }");
        assert_eq!(sites, [("q".into(), 1)]);
    }

    #[test]
    fn d011_cycle_detected_and_consistent_order_clean() {
        let cyclic = d011(
            "fn f(&self) { let a = self.cache.lock(); let b = self.stats.lock(); }\n\
             fn g(&self) { let b = self.stats.lock(); let a = self.cache.lock(); }\n",
        );
        assert_eq!(cyclic.len(), 2, "{cyclic:?}");
        assert!(cyclic[0].contains("`f` acquires `stats` while holding `cache`"));
        assert!(cyclic[0].contains("cycle: cache → stats → cache"));
        assert!(cyclic[1].contains("cycle: stats → cache → stats"));

        let clean = d011(
            "fn f(&self) { let a = self.cache.lock(); let b = self.stats.lock(); }\n\
             fn g(&self) { let a = self.cache.lock(); let b = self.stats.lock(); }\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn d011_self_deadlock_in_one_body() {
        let found = d011("fn f(&self) { let a = self.cache.lock(); let b = self.cache.lock(); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("lock `cache` is acquired in `f` while already held"));
    }

    #[test]
    fn d011_lock_held_across_par_map() {
        let found = d011("fn run(&self) { let g = self.cache.lock(); par_map_slice(2, &x, f); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("lock `cache` is held across the `par_map_slice`"));
    }

    #[test]
    fn d011_skips_test_code_and_test_trees() {
        let src = "fn t(&self) { let a = self.m.lock(); let b = self.m.lock(); }";
        assert!(d011(&format!("#[cfg(test)]\nmod tests {{ {src} }}")).is_empty());
        assert!(scan_file("tests/x.rs", src).findings.is_empty());
    }

    #[test]
    fn d008_respects_allow_comments() {
        let src = "fn f(dur_s: f64, dur_h: f64) -> f64 {\n\
                   dur_s + dur_h // lint: allow(D008) — legacy scale, audited\n\
                   }";
        assert!(violations("crates/core/src/x.rs", src).is_empty());
    }
}
