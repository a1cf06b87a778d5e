//! Pass 3a of the analysis: intraprocedural control-flow regions.
//!
//! For each function body this folds the token stream into a flat list of
//! brace/keyword-matched *regions*: loop regions from `for`/`while`/`loop`
//! (plus the closure passed to `par_map`/`par_map_slice`, whose body runs
//! once per job and is therefore loop-shaped), and branch regions from
//! `if`/`else` blocks and `match` arms. Regions nest by containment — no
//! explicit tree is kept; the two queries the rules need are answered by
//! walking the list:
//!
//! * [`Cfg::loop_depth_at`] — how many loop regions enclose a token
//!   (D015's "inside a loop, depth N");
//! * [`Cfg::innermost_loop_at`] — the tightest enclosing loop region
//!   (D016's "the enclosing loop" a `let` could be hoisted above).
//!
//! Like the rest of the linter this is name-resolution-free and built on
//! the shared token stream: a keyword opens a region, `match_delim`
//! closes it, and parenthesis/bracket depth tracking keeps closure bodies
//! in loop headers (`for x in v.iter().map(|y| f(y))`) from being mistaken
//! for the loop body.

use crate::lexer::{Token, TokenKind};
use crate::model::match_delim;

/// What introduced a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// `for pat in iter { … }`.
    For,
    /// `while cond { … }` / `while let pat = expr { … }`.
    While,
    /// `loop { … }`.
    Loop,
    /// The closure argument of `par_map`/`par_map_slice`: its body runs
    /// once per job, so it counts as a loop region for D015/D016.
    ParClosure,
    /// An `if`/`else if` block.
    IfBlock,
    /// A bare `else { … }` block.
    ElseBlock,
    /// One `match` arm (pattern span recorded for the def-use pass).
    MatchArm,
}

impl RegionKind {
    /// Does entering this region mean "executed once per iteration"?
    pub fn is_loop(self) -> bool {
        matches!(
            self,
            RegionKind::For | RegionKind::While | RegionKind::Loop | RegionKind::ParClosure
        )
    }
}

/// One control-flow region, as inclusive sig-index bounds `[start, end]`.
#[derive(Debug)]
pub struct Region {
    pub kind: RegionKind,
    /// Sig index where the whole construct begins (the `for`/`while`
    /// keyword, the par call, a match arm's pattern). Bindings introduced
    /// by the construct's header live in `[kw, start)`, so the def-use
    /// pass uses `kw` as the "defined inside this region" lower bound.
    pub kw: usize,
    /// First sig index of the region (block regions include their `{`).
    pub start: usize,
    /// Last sig index of the region (block regions include their `}`).
    pub end: usize,
    /// Line of the introducing keyword (`for`, `match`, …) or par call.
    pub line: u32,
    /// Sig-index span of the region's own bindings: a match arm's pattern
    /// or a par-closure's parameter list. `None` when there are none.
    pub pat: Option<(usize, usize)>,
}

impl Region {
    pub fn contains(&self, si: usize) -> bool {
        self.start <= si && si <= self.end
    }
}

/// The region list for one function body.
#[derive(Debug, Default)]
pub struct Cfg {
    pub regions: Vec<Region>,
}

/// The parallel-executor entry points whose closure argument is a loop
/// region (mirrors `PAR_CALLS` in [`crate::graph`]).
const PAR_CLOSURE_CALLS: [&str; 2] = ["par_map", "par_map_slice"];

impl Cfg {
    /// Build the region list for the body delimited by the sig indices
    /// `open` (the `{`) and `close` (its matching `}`).
    pub fn build(tokens: &[Token], sig: &[usize], open: usize, close: usize) -> Cfg {
        let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
        let mut regions = Vec::new();
        let mut k = open + 1;
        while k < close {
            let tok = &tokens[sig[k]];
            if tok.kind != TokenKind::Ident {
                k += 1;
                continue;
            }
            match tok.text.as_str() {
                "for" | "while" | "loop" => {
                    if let Some(body_open) = block_after(tokens, sig, k + 1, close) {
                        let body_close = match_delim(tokens, sig, body_open, '{', '}');
                        let kind = match tok.text.as_str() {
                            "for" => RegionKind::For,
                            "while" => RegionKind::While,
                            _ => RegionKind::Loop,
                        };
                        regions.push(Region {
                            kind,
                            kw: k,
                            start: body_open,
                            end: body_close,
                            line: tok.line,
                            pat: None,
                        });
                    }
                }
                "if" => {
                    if let Some(body_open) = block_after(tokens, sig, k + 1, close) {
                        let body_close = match_delim(tokens, sig, body_open, '{', '}');
                        regions.push(Region {
                            kind: RegionKind::IfBlock,
                            kw: k,
                            start: body_open,
                            end: body_close,
                            line: tok.line,
                            pat: None,
                        });
                    }
                }
                // `else if` is handled when the scan reaches its `if`.
                "else" if punct_at(k + 1, '{') => {
                    let body_close = match_delim(tokens, sig, k + 1, '{', '}');
                    regions.push(Region {
                        kind: RegionKind::ElseBlock,
                        kw: k,
                        start: k + 1,
                        end: body_close,
                        line: tok.line,
                        pat: None,
                    });
                }
                "match" => {
                    if let Some(body_open) = block_after(tokens, sig, k + 1, close) {
                        let body_close = match_delim(tokens, sig, body_open, '{', '}');
                        parse_match_arms(tokens, sig, body_open, body_close, &mut regions);
                    }
                }
                name if PAR_CLOSURE_CALLS.contains(&name) && punct_at(k + 1, '(') => {
                    let args_close = match_delim(tokens, sig, k + 1, '(', ')');
                    if let Some(r) = par_closure_region(tokens, sig, k + 2, args_close, tok.line) {
                        regions.push(r);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        Cfg { regions }
    }

    /// Number of loop regions enclosing sig index `si`.
    pub fn loop_depth_at(&self, si: usize) -> u32 {
        self.regions
            .iter()
            .filter(|r| r.kind.is_loop() && r.contains(si))
            .count() as u32
    }

    /// The tightest loop region enclosing sig index `si`.
    pub fn innermost_loop_at(&self, si: usize) -> Option<&Region> {
        self.regions
            .iter()
            .filter(|r| r.kind.is_loop() && r.contains(si))
            .min_by_key(|r| r.end - r.start)
    }
}

/// Nesting depth across all three bracket pairs, for "top level of this
/// span" checks while scanning forward.
#[derive(Default)]
pub(crate) struct Depth {
    paren: i32,
    brack: i32,
    brace: i32,
}

impl Depth {
    pub(crate) fn update(&mut self, t: &Token) {
        if t.kind != TokenKind::Punct || t.text.len() != 1 {
            return;
        }
        match t.text.as_bytes()[0] as char {
            '(' => self.paren += 1,
            ')' => self.paren -= 1,
            '[' => self.brack += 1,
            ']' => self.brack -= 1,
            '{' => self.brace += 1,
            '}' => self.brace -= 1,
            _ => {}
        }
    }

    pub(crate) fn zero(&self) -> bool {
        self.paren == 0 && self.brack == 0 && self.brace == 0
    }
}

/// The sig index of the `{` opening the block that follows a control-flow
/// header starting at `from`: the first `{` at bracket depth zero, so
/// closure bodies inside the header's parentheses are skipped. `None` when
/// a `;` ends the statement first (malformed or not a block form).
fn block_after(tokens: &[Token], sig: &[usize], from: usize, limit: usize) -> Option<usize> {
    let mut depth = Depth::default();
    let mut j = from;
    while j <= limit {
        let t = &tokens[sig.get(j).copied()?];
        if depth.zero() {
            if t.is_punct('{') {
                return Some(j);
            }
            if t.is_punct(';') {
                return None;
            }
        }
        depth.update(t);
        j += 1;
    }
    None
}

/// Split a `match` body into per-arm regions. An arm's pattern runs to the
/// top-level `=>`; its value is either the block that follows or the
/// expression up to the next top-level `,`.
fn parse_match_arms(
    tokens: &[Token],
    sig: &[usize],
    body_open: usize,
    body_close: usize,
    regions: &mut Vec<Region>,
) {
    let punct_at = |k: usize, c: char| sig.get(k).is_some_and(|&ti| tokens[ti].is_punct(c));
    let mut j = body_open + 1;
    while j < body_close {
        let pat_start = j;
        // Find the arm's `=>` at top level relative to the match body.
        let mut depth = Depth::default();
        let mut arrow = None;
        let mut p = j;
        while p < body_close {
            let t = &tokens[sig[p]];
            if depth.zero() && t.is_punct('=') && punct_at(p + 1, '>') {
                arrow = Some(p);
                break;
            }
            depth.update(t);
            p += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat = (arrow > pat_start).then_some((pat_start, arrow - 1));
        let line = tokens[sig[pat_start]].line;
        let val_start = arrow + 2;
        if punct_at(val_start, '{') {
            let val_end = match_delim(tokens, sig, val_start, '{', '}');
            regions.push(Region {
                kind: RegionKind::MatchArm,
                kw: pat_start,
                start: val_start,
                end: val_end,
                line,
                pat,
            });
            j = val_end + 1;
            if punct_at(j, ',') {
                j += 1;
            }
        } else {
            // Expression arm: scan to the `,` at top level (or body end).
            let mut depth = Depth::default();
            let mut q = val_start;
            while q < body_close {
                let t = &tokens[sig[q]];
                depth.update(t);
                if depth.zero() && t.is_punct(',') {
                    break;
                }
                q += 1;
            }
            if q > val_start {
                regions.push(Region {
                    kind: RegionKind::MatchArm,
                    kw: pat_start,
                    start: val_start,
                    end: q - 1,
                    line,
                    pat,
                });
            }
            j = q + 1;
        }
    }
}

/// The closure argument of a `par_map`/`par_map_slice` call, as a
/// [`RegionKind::ParClosure`] region spanning the parameter pipes and the
/// closure body (up to the next top-level `,` or the call's `)`).
fn par_closure_region(
    tokens: &[Token],
    sig: &[usize],
    args_start: usize,
    args_close: usize,
    line: u32,
) -> Option<Region> {
    let mut depth = Depth::default();
    let mut j = args_start;
    while j < args_close {
        let t = &tokens[sig[j]];
        if depth.zero() && t.is_punct('|') {
            // Parameter list to the matching `|` (no nested pipes occur in
            // closure parameters in practice).
            let mut p = j + 1;
            while p < args_close && !tokens[sig[p]].is_punct('|') {
                p += 1;
            }
            // Body extends to the next top-level `,` or the end of the args.
            let mut body_depth = Depth::default();
            let mut q = p + 1;
            while q < args_close {
                let t = &tokens[sig[q]];
                body_depth.update(t);
                if body_depth.zero() && t.is_punct(',') {
                    break;
                }
                q += 1;
            }
            let pat = (p > j + 1).then_some((j + 1, p - 1));
            return Some(Region {
                kind: RegionKind::ParClosure,
                kw: j,
                start: j,
                end: q.saturating_sub(1).max(p),
                line,
                pat,
            });
        }
        depth.update(t);
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::sig_indices;

    /// Build the CFG of the first fn body in `src` and return it with the
    /// token stream, for position lookups.
    fn cfg_of(src: &str) -> (Vec<Token>, Vec<usize>, Cfg) {
        let tokens = lex(src);
        let sig = sig_indices(&tokens);
        let open = sig
            .iter()
            .position(|&ti| tokens[ti].is_punct('{'))
            .expect("fn body");
        let close = match_delim(&tokens, &sig, open, '{', '}');
        let cfg = Cfg::build(&tokens, &sig, open, close);
        (tokens, sig, cfg)
    }

    /// Sig index of the first occurrence of ident `word`.
    fn at(tokens: &[Token], sig: &[usize], word: &str) -> usize {
        sig.iter()
            .position(|&ti| tokens[ti].is_ident(word))
            .unwrap_or_else(|| panic!("ident `{word}` not found"))
    }

    #[test]
    fn nested_loops_count_depth() {
        let src = "fn f() { before(); for i in 0..3 { mid(); while go() { deep(); } } }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "before")), 0);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "mid")), 1);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "deep")), 2);
    }

    #[test]
    fn loop_keyword_and_labels() {
        let src = "fn f() { loop { tick(); } }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "tick")), 1);
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(cfg.regions[0].kind, RegionKind::Loop);
    }

    #[test]
    fn closure_in_loop_header_is_not_the_body() {
        // The `{ y + 1 }` closure body inside the iterator chain must not
        // be mistaken for the for-loop body.
        let src = "fn f(v: &[u32]) { for x in v.iter().map(|y| { y + 1 }) { hot(); } cold(); }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "hot")), 1);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "cold")), 0);
    }

    #[test]
    fn match_arms_are_regions_with_patterns() {
        let src = "fn f(k: Kind) { for i in 0..2 { match k { Kind::A => hit(), \
                   Kind::B { n } => { block(n); } } } }";
        let (tokens, sig, cfg) = cfg_of(src);
        let arms: Vec<&Region> = cfg
            .regions
            .iter()
            .filter(|r| r.kind == RegionKind::MatchArm)
            .collect();
        assert_eq!(arms.len(), 2);
        // A sink inside a match arm still carries the loop depth.
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "hit")), 1);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "block")), 1);
        // Both arms recorded their pattern spans.
        assert!(arms.iter().all(|a| a.pat.is_some()));
    }

    #[test]
    fn par_map_closure_is_a_loop_region() {
        let src = "fn f(n: usize) { par_map(n, 0, |i| work(i)); after(); }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "work")), 1);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "after")), 0);
        let r = cfg
            .regions
            .iter()
            .find(|r| r.kind == RegionKind::ParClosure)
            .expect("par closure region");
        assert!(r.pat.is_some(), "closure params recorded");
    }

    #[test]
    fn par_map_slice_trailing_args_stay_outside() {
        // Only the closure is the loop region — the slice argument before
        // it and anything after the closure are not "per job".
        let src = "fn f(w: &[J]) { par_map_slice(w, threads(), |slot, job| run(job)); }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "run")), 1);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "threads")), 0);
    }

    #[test]
    fn if_else_blocks_are_branch_regions_not_loops() {
        let src = "fn f(c: bool) { if c { a(); } else { b(); } }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "a")), 0);
        let kinds: Vec<RegionKind> = cfg.regions.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegionKind::IfBlock));
        assert!(kinds.contains(&RegionKind::ElseBlock));
    }

    #[test]
    fn innermost_loop_is_the_tightest() {
        let src = "fn f() { for i in 0..2 { for j in 0..3 { x(); } } }";
        let (tokens, sig, cfg) = cfg_of(src);
        let inner = cfg.innermost_loop_at(at(&tokens, &sig, "x")).unwrap();
        // The inner for's body is smaller than the outer's.
        let spans: Vec<usize> = cfg
            .regions
            .iter()
            .filter(|r| r.kind == RegionKind::For)
            .map(|r| r.end - r.start)
            .collect();
        assert_eq!(inner.end - inner.start, *spans.iter().min().unwrap());
    }

    #[test]
    fn while_let_header_parens_do_not_confuse_the_body() {
        let src = "fn f(q: &mut Q) { while let Some(ev) = q.pop() { dispatch(ev); } }";
        let (tokens, sig, cfg) = cfg_of(src);
        assert_eq!(cfg.loop_depth_at(at(&tokens, &sig, "dispatch")), 1);
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(cfg.regions[0].kind, RegionKind::While);
    }
}
