//! Pass 2 of the interprocedural analysis: the workspace symbol graph and
//! the three rules that run over it.
//!
//! [`SymbolGraph`] merges every file's [`FileModel`] into one table and
//! resolves call sites *conservatively*: a call that cannot be pinned to
//! exactly one workspace function gets no edge, so the reachability rules
//! under-approximate instead of spraying false positives. On top of it run:
//!
//! * **D009** — wall-clock, entropy, and `unwrap`/`expect` sinks that are
//!   transitively reachable from a hot-path root (the event-dispatch files,
//!   the parallel executor, and every `par_map` caller). The finding is
//!   reported at the *root* function with the full call chain; an
//!   `allow(D009)` on the root's `fn` line suppresses it.
//! * **D010** — counter-key discipline: keys must be string literals with a
//!   single owning crate, documented in README's counter-key registry, and
//!   every registry row must have a live emit site.
//! * **D011** — lock-order discipline: no cycles in the
//!   simultaneously-held lock graph (same-function nesting plus one level
//!   of call propagation), and no lock held across a `par_map` boundary.

use crate::model::{CallSite, FileModel, SinkKind};
use crate::rules::{Finding, GraphAllow, RuleId, D005_FILES};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A function in the merged table: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// The merged workspace symbol table with name-resolution-lite.
pub struct SymbolGraph<'a> {
    pub models: &'a [FileModel],
    by_name: BTreeMap<&'a str, Vec<FnId>>,
}

impl<'a> SymbolGraph<'a> {
    pub fn build(models: &'a [FileModel]) -> Self {
        let mut by_name: BTreeMap<&'a str, Vec<FnId>> = BTreeMap::new();
        for (fi, m) in models.iter().enumerate() {
            for (fj, f) in m.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, fj));
            }
        }
        SymbolGraph { models, by_name }
    }

    /// Resolve a call site from `caller_file` to a workspace function, or
    /// `None` when the target is external (std, dependencies) or ambiguous.
    pub fn resolve(&self, caller_file: usize, call: &CallSite) -> Option<FnId> {
        let cands = self.by_name.get(call.name.as_str())?;
        if call.method {
            // A method call carries no path; only a workspace-unique name
            // resolves (`.par_map_slice(…)` yes, `.get(…)` usually no).
            return pick(self.models, cands, caller_file);
        }
        if call.path.is_empty() {
            return pick(self.models, cands, caller_file);
        }
        let caller_krate = &self.models[caller_file].krate;
        let filtered: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&(fi, fj)| {
                let m = &self.models[fi];
                let f = &m.fns[fj];
                call.path
                    .iter()
                    .all(|seg| segment_matches(seg, m, f.impl_type.as_deref(), caller_krate))
            })
            .collect();
        pick(self.models, &filtered, caller_file)
    }
}

/// Does one call-path segment fit a candidate's location? Matches the
/// owning crate (`dles_sim` or `sim`), relative-path keywords constrained
/// to the caller's crate, the file-stem module, or the `impl` type.
fn segment_matches(seg: &str, m: &FileModel, impl_type: Option<&str>, caller_krate: &str) -> bool {
    match seg {
        "crate" | "self" | "super" => m.krate == caller_krate,
        _ => {
            seg == m.krate
                || seg.strip_prefix("dles_") == Some(m.krate.as_str())
                || seg == m.module
                || impl_type == Some(seg)
        }
    }
}

/// Disambiguate candidates: unique in the caller's file, else unique in
/// the caller's crate, else unique workspace-wide, else unresolved.
fn pick(models: &[FileModel], cands: &[FnId], caller_file: usize) -> Option<FnId> {
    let only = |v: &[FnId]| (v.len() == 1).then(|| v[0]);
    let same_file: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|&(fi, _)| fi == caller_file)
        .collect();
    if !same_file.is_empty() {
        return only(&same_file);
    }
    let krate = &models[caller_file].krate;
    let same_crate: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|&(fi, _)| &models[fi].krate == krate)
        .collect();
    if !same_crate.is_empty() {
        return only(&same_crate);
    }
    only(cands)
}

/// The parallel-executor entry points: calling one makes the caller a
/// D009 root and holding a lock across one is a D011 violation.
const PAR_CALLS: [&str; 2] = ["par_map", "par_map_slice"];

/// The file that *implements* the parallel executor: its own body runs
/// inside the parallel region, so its functions are D009 roots too.
const PAR_FILE: &str = "par.rs";

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Interprocedural rules cover production code: test/example trees are
/// exempt (their scratch counters, locks and unwraps are not hot paths),
/// but fixture corpora stay in scope so the rules are testable.
fn in_scope(path: &str) -> bool {
    if path.contains("fixtures/") {
        return true;
    }
    let in_dir = |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    !(in_dir("tests") || in_dir("examples") || in_dir("benches"))
}

/// Is this function a D009 hot-path root?
fn is_root(m: &FileModel, fj: usize) -> bool {
    let f = &m.fns[fj];
    if f.is_test || !in_scope(&m.path) {
        return false;
    }
    let name = file_name(&m.path);
    D005_FILES.contains(&name)
        || name == PAR_FILE
        || f.calls.iter().any(|c| PAR_CALLS.contains(&c.name.as_str()))
}

/// Run all pass-2 rules and match the exported allow directives; an allow
/// that suppressed nothing becomes a D000 finding, like any stale allow.
pub fn analyze(
    models: &[FileModel],
    readme: Option<&str>,
    full: bool,
    allows: Vec<GraphAllow>,
) -> Vec<Finding> {
    let graph = SymbolGraph::build(models);
    let mut findings = Vec::new();
    check_reachability(&graph, &mut findings);
    check_counter_keys(&graph, readme, full, &mut findings);
    check_lock_order(&graph, &mut findings);
    apply_graph_allows(findings, allows)
}

fn apply_graph_allows(mut findings: Vec<Finding>, allows: Vec<GraphAllow>) -> Vec<Finding> {
    let mut used = vec![false; allows.len()];
    for f in &mut findings {
        for (i, a) in allows.iter().enumerate() {
            // Graph findings anchor on `fn` signature lines, which rustfmt
            // rewraps freely — so besides the usual same-line form, accept
            // an allow on its own comment line directly above the finding
            // (standalone comments are stable under reformatting).
            if a.rule == f.rule && a.path == f.path && (a.line == f.line || a.line + 1 == f.line) {
                used[i] = true;
                f.allowed = Some(a.reason.clone());
            }
        }
    }
    for (a, used) in allows.iter().zip(used) {
        if !used {
            findings.push(Finding {
                rule: RuleId::D000,
                path: a.path.clone(),
                line: a.line,
                message: format!(
                    "stale `lint: allow({})` — it suppresses nothing on this line",
                    a.rule.as_str()
                ),
                allowed: None,
            });
        }
    }
    findings
}

/// What D009 calls a sink of each kind in its messages.
fn kind_word(kind: SinkKind) -> &'static str {
    match kind {
        SinkKind::WallClock => "wall-clock source",
        SinkKind::Entropy => "entropy source",
        SinkKind::UnwrapPanic => "panic source",
    }
}

/// Is this sink in D009's domain at all? Criterion keeps its wall clock
/// (D001's own exemption) and the event-dispatch files keep their
/// unwraps under D005, which already reports them line-by-line.
fn sink_eligible(m: &FileModel, kind: SinkKind) -> bool {
    match kind {
        SinkKind::WallClock => !m.path.starts_with("crates/criterion"),
        SinkKind::Entropy => true,
        SinkKind::UnwrapPanic => !D005_FILES.contains(&file_name(&m.path)),
    }
}

/// D009: breadth-first reachability of sinks from hot-path roots. Each
/// sink line is claimed once — by its own function if that function is a
/// root, otherwise by the first root (in file/fn order) that reaches it —
/// and reported at the claiming root's `fn` line with the full chain.
fn check_reachability(graph: &SymbolGraph, findings: &mut Vec<Finding>) {
    let models = graph.models;
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        for fj in 0..m.fns.len() {
            if is_root(m, fj) {
                roots.push((fi, fj));
            }
        }
    }
    let mut claimed: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    let mut report = |root: FnId, chain: &[FnId], sink_fn: FnId, findings: &mut Vec<Finding>| {
        let (si, sj) = sink_fn;
        let sink_model = &models[si];
        let f = &sink_model.fns[sj];
        for s in &f.sinks {
            if !sink_eligible(sink_model, s.kind) {
                continue;
            }
            // Direct wall-clock/entropy in the root itself is already a
            // D001/D002 finding on that very line; D009 adds value only
            // one call or more away.
            if chain.len() == 1 && s.kind != SinkKind::UnwrapPanic {
                continue;
            }
            if !claimed.insert((si, s.line, s.what.clone())) {
                continue;
            }
            let (ri, rj) = root;
            let chain_txt: Vec<String> = chain
                .iter()
                .map(|&(ci, cj)| models[ci].fns[cj].display())
                .collect();
            findings.push(Finding {
                rule: RuleId::D009,
                path: models[ri].path.clone(),
                line: models[ri].fns[rj].line,
                message: format!(
                    "{} `{}` at {}:{} is reachable from hot-path root `{}` — \
                     chain: {}",
                    kind_word(s.kind),
                    s.what,
                    sink_model.path,
                    s.line,
                    models[ri].fns[rj].display(),
                    chain_txt.join(" → ")
                ),
                allowed: None,
            });
        }
    };

    // Pass A: every root claims its own direct sinks first, so the
    // finding (and its allow) lands on the frame that owns the code.
    for &r in &roots {
        report(r, &[r], r, findings);
    }
    // Pass B: breadth-first search from each root over resolved edges.
    for &r in &roots {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        seen.insert(r);
        let mut queue: VecDeque<FnId> = VecDeque::new();
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
                // Reconstruct root → … → next for the message.
                let mut chain = vec![next];
                let mut cur = next;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                report(r, &chain, next, findings);
                queue.push_back(next);
            }
        }
    }
}

/// One emit site of a counter key.
struct KeySite {
    path: String,
    line: u32,
    krate: String,
}

/// D010: counter-key discipline against README's counter-key registry.
fn check_counter_keys(
    graph: &SymbolGraph,
    readme: Option<&str>,
    full: bool,
    findings: &mut Vec<Finding>,
) {
    let mut sites: BTreeMap<String, Vec<KeySite>> = BTreeMap::new();
    for m in graph.models {
        if !in_scope(&m.path) {
            continue;
        }
        for f in &m.fns {
            if f.is_test {
                continue;
            }
            for c in &f.counters {
                if c.non_literal {
                    findings.push(Finding {
                        rule: RuleId::D010,
                        path: m.path.clone(),
                        line: c.line,
                        message: "counter key is not a string literal — the registry \
                                  cross-check needs literal keys"
                            .to_owned(),
                        allowed: None,
                    });
                    continue;
                }
                for key in &c.keys {
                    sites.entry(key.clone()).or_default().push(KeySite {
                        path: m.path.clone(),
                        line: c.line,
                        krate: m.krate.clone(),
                    });
                }
            }
        }
    }

    let registry = readme.and_then(registry_rows);
    for (key, key_sites) in &sites {
        let first = &key_sites[0];
        let crates: BTreeSet<&str> = key_sites.iter().map(|s| s.krate.as_str()).collect();
        if crates.len() > 1 {
            let list: Vec<&str> = crates.into_iter().collect();
            findings.push(Finding {
                rule: RuleId::D010,
                path: first.path.clone(),
                line: first.line,
                message: format!(
                    "counter key `{key}` is emitted from {} crates ({}) — a key needs a \
                     single owning crate so merged reports stay unambiguous",
                    list.len(),
                    list.join(", ")
                ),
                allowed: None,
            });
        }
        match &registry {
            Some(rows) if rows.iter().any(|(k, _)| k == key) => {}
            Some(_) => findings.push(Finding {
                rule: RuleId::D010,
                path: first.path.clone(),
                line: first.line,
                message: format!(
                    "counter key `{key}` is not documented in README's counter-key registry"
                ),
                allowed: None,
            }),
            None => findings.push(Finding {
                rule: RuleId::D010,
                path: first.path.clone(),
                line: first.line,
                message: format!(
                    "counter key `{key}` cannot be cross-checked: README.md has no \
                     `Counter-key registry` section"
                ),
                allowed: None,
            }),
        }
    }
    // Dead registry rows are only decidable when the whole workspace was
    // scanned; a partial run would call every key dead.
    if full {
        if let Some(rows) = &registry {
            for (key, line) in rows {
                if !sites.contains_key(key) {
                    findings.push(Finding {
                        rule: RuleId::D010,
                        path: "README.md".to_owned(),
                        line: *line,
                        message: format!(
                            "documented counter key `{key}` has no live emit site — delete \
                             the registry row or restore the counter"
                        ),
                        allowed: None,
                    });
                }
            }
        }
    }
}

/// Rows of README's `Counter-key registry` table: (key, 1-based line).
/// `None` when the section heading is absent altogether.
fn registry_rows(readme: &str) -> Option<Vec<(String, u32)>> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut found = false;
    for (i, line) in readme.lines().enumerate() {
        if line.starts_with('#') {
            in_section = line.to_ascii_lowercase().contains("counter-key registry");
            found |= in_section;
            continue;
        }
        if in_section && line.trim_start().starts_with('|') {
            // First backtick-quoted cell is the key; the header and
            // separator rows have none and fall through.
            if let Some(open) = line.find('`') {
                if let Some(len) = line[open + 1..].find('`') {
                    rows.push((line[open + 1..open + 1 + len].to_owned(), (i + 1) as u32));
                }
            }
        }
    }
    found.then_some(rows)
}

/// One directed lock-order edge: `from` held while `to` is acquired.
struct LockEdge {
    path: String,
    line: u32,
    fn_name: String,
    /// Callee display name when the inner acquisition came through a call.
    via: Option<String>,
}

/// D011: lock-order cycles and locks held across `par_map`.
fn check_lock_order(graph: &SymbolGraph, findings: &mut Vec<Finding>) {
    let models = graph.models;
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut edge_order: Vec<(String, String)> = Vec::new();
    let mut add_edge = |from: &str, to: &str, e: LockEdge| {
        let k = (from.to_owned(), to.to_owned());
        if let std::collections::btree_map::Entry::Vacant(slot) = edges.entry(k.clone()) {
            edge_order.push(k);
            slot.insert(e);
        }
    };

    for (fi, m) in models.iter().enumerate() {
        if !in_scope(&m.path) {
            continue;
        }
        for f in &m.fns {
            if f.is_test {
                continue;
            }
            for &(a, b) in &f.lock_pairs {
                add_edge(
                    &f.locks[a].name,
                    &f.locks[b].name,
                    LockEdge {
                        path: m.path.clone(),
                        line: f.locks[b].line,
                        fn_name: f.display(),
                        via: None,
                    },
                );
            }
            for &(li, ci) in &f.calls_under_lock {
                let call = &f.calls[ci];
                if PAR_CALLS.contains(&call.name.as_str()) {
                    findings.push(Finding {
                        rule: RuleId::D011,
                        path: m.path.clone(),
                        line: call.line,
                        message: format!(
                            "lock `{}` is held across the `{}` boundary — a worker touching \
                             the same lock deadlocks, and the serialized section defeats \
                             the parallel sweep",
                            f.locks[li].name, call.name
                        ),
                        allowed: None,
                    });
                    continue;
                }
                // One level of propagation: locks the callee acquires are
                // acquired while ours is held.
                let Some((gi, gj)) = graph.resolve(fi, call) else {
                    continue;
                };
                let callee = &models[gi].fns[gj];
                if callee.is_test {
                    continue;
                }
                let mut seen_names: BTreeSet<&str> = BTreeSet::new();
                for lock in &callee.locks {
                    if seen_names.insert(lock.name.as_str()) {
                        add_edge(
                            &f.locks[li].name,
                            &lock.name,
                            LockEdge {
                                path: m.path.clone(),
                                line: call.line,
                                fn_name: f.display(),
                                via: Some(callee.display()),
                            },
                        );
                    }
                }
            }
        }
    }

    // Adjacency + transitive closure over the (tiny) lock graph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from.as_str()).or_default().insert(to.as_str());
        }
    }
    let reaches = |from: &str, to: &str| -> Option<Vec<String>> {
        // BFS path from → to, for the cycle message.
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                let mut path = vec![n.to_owned()];
                let mut cur = n;
                while let Some(&p) = prev.get(cur) {
                    path.push(p.to_owned());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &nxt in adj.get(n).into_iter().flatten() {
                if seen.insert(nxt) {
                    prev.insert(nxt, n);
                    queue.push_back(nxt);
                }
            }
        }
        None
    };

    for key in &edge_order {
        let (from, to) = key;
        let e = &edges[key];
        let via = e
            .via
            .as_ref()
            .map(|v| format!(" (via call to `{v}`)"))
            .unwrap_or_default();
        if from == to {
            findings.push(Finding {
                rule: RuleId::D011,
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "lock `{from}` is acquired in `{}` while already held{via} — a \
                     non-reentrant Mutex self-deadlocks here",
                    e.fn_name
                ),
                allowed: None,
            });
            continue;
        }
        if let Some(back) = reaches(to, from) {
            let mut cycle = vec![from.clone()];
            cycle.extend(back);
            findings.push(Finding {
                rule: RuleId::D011,
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "lock-order cycle: `{}` acquires `{to}` while holding `{from}`{via}, \
                     but the reverse order exists elsewhere — cycle: {}",
                    e.fn_name,
                    cycle.join(" → ")
                ),
                allowed: None,
            });
        }
    }
}

/// Deterministic text dump of the merged graph (`--graph-dump`): one block
/// per file, every fn with its resolved call edges, sinks, locks and
/// counter keys. Uploaded as a CI artifact for debugging rule behavior.
pub fn render_graph(models: &[FileModel]) -> String {
    let graph = SymbolGraph::build(models);
    let mut out = String::from("# dles-lint symbol graph\n");
    for (fi, m) in models.iter().enumerate() {
        if m.fns.is_empty() {
            continue;
        }
        out.push_str(&format!("file {}\n", m.path));
        for (fj, f) in m.fns.iter().enumerate() {
            let mut tags = String::new();
            if f.is_test {
                tags.push_str(" [test]");
            }
            if is_root(m, fj) {
                tags.push_str(" [root]");
            }
            out.push_str(&format!("  fn {} @{}{}\n", f.display(), f.line, tags));
            for c in &f.calls {
                let target = match graph.resolve(fi, c) {
                    Some((ti, tj)) => {
                        format!("{}::{}", models[ti].path, models[ti].fns[tj].display())
                    }
                    None => "<unresolved>".to_owned(),
                };
                let full = if c.path.is_empty() {
                    c.name.clone()
                } else {
                    format!("{}::{}", c.path.join("::"), c.name)
                };
                out.push_str(&format!("    call {full} @{} -> {target}\n", c.line));
            }
            for s in &f.sinks {
                out.push_str(&format!(
                    "    sink {} `{}` @{}\n",
                    kind_word(s.kind),
                    s.what,
                    s.line
                ));
            }
            for l in &f.locks {
                out.push_str(&format!("    lock {} @{}\n", l.name, l.line));
            }
            for c in &f.counters {
                if c.non_literal {
                    out.push_str(&format!("    counter <non-literal> @{}\n", c.line));
                } else {
                    out.push_str(&format!("    counter {} @{}\n", c.keys.join(","), c.line));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::model_of;

    fn analyze_src(files: &[(&str, &str)]) -> Vec<Finding> {
        let models: Vec<FileModel> = files.iter().map(|(p, s)| model_of(p, s)).collect();
        analyze(&models, None, false, Vec::new())
    }

    #[test]
    fn d009_reports_chain_from_par_map_caller() {
        let findings = analyze_src(&[(
            "crates/core/src/sweep.rs",
            "fn run_sweep() { par_map(4, 2, |i| helper(i)); }\n\
             fn helper(i: usize) -> usize { inner(i) }\n\
             fn inner(i: usize) -> usize { maybe(i).unwrap() }\n",
        )]);
        let d9: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D009).collect();
        assert_eq!(d9.len(), 1, "{findings:?}");
        assert_eq!(d9[0].line, 1); // reported at the root fn
        assert!(
            d9[0].message.contains("run_sweep → helper → inner"),
            "{}",
            d9[0].message
        );
        assert!(d9[0].message.contains("`unwrap`"), "{}", d9[0].message);
    }

    #[test]
    fn d009_direct_sink_in_root_is_claimed_locally() {
        let findings = analyze_src(&[(
            "crates/sim/src/par.rs",
            "pub fn par_map(n: usize) { slots.lock().unwrap(); }\n",
        )]);
        let d9: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D009).collect();
        assert_eq!(d9.len(), 1);
        assert_eq!(d9[0].line, 1);
        assert!(
            d9[0].message.contains("chain: par_map"),
            "{}",
            d9[0].message
        );
    }

    #[test]
    fn d009_ignores_unreachable_and_test_sinks() {
        let findings = analyze_src(&[(
            "crates/core/src/calc.rs",
            "fn run() { par_map_slice(2, &x, |v| v); }\n\
             fn unreached() { y.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn t() { z.unwrap(); } }\n",
        )]);
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::D009),
            "{findings:?}"
        );
    }

    #[test]
    fn d009_wallclock_one_call_away() {
        let findings = analyze_src(&[(
            "crates/core/src/pipeline.rs",
            "fn handle() { stamp(); }\nfn stamp() { let t = Instant::now(); }\n",
        )]);
        let d9: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D009).collect();
        assert_eq!(d9.len(), 1, "{findings:?}");
        assert!(d9[0].message.contains("wall-clock source `Instant`"));
        // Direct unwraps in a D005 file stay D005's business, and the
        // direct Instant in `stamp` is D001's (per-file) — D009 adds only
        // the reachability finding at the root.
        assert_eq!(d9[0].line, 1);
    }

    #[test]
    fn d010_undocumented_and_non_literal_keys() {
        let models = vec![model_of(
            "crates/core/src/stats_emit.rs",
            "fn emit(c: &mut C, k: &str) { c.incr(\"frames\"); c.incr(k); }\n",
        )];
        let readme =
            "# Counter-key registry\n\n| Key | Meaning |\n|---|---|\n| `frames` | frames |\n";
        let findings = analyze(&models, Some(readme), true, Vec::new());
        let d10: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D010).collect();
        assert_eq!(d10.len(), 1, "{findings:?}");
        assert!(d10[0].message.contains("not a string literal"));

        let readme_missing_key = "# Counter-key registry\n\n| `other` | x |\n";
        let findings = analyze(&models, Some(readme_missing_key), false, Vec::new());
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("`frames` is not documented")),
            "{findings:?}"
        );
    }

    #[test]
    fn d010_dead_registry_rows_only_in_full_mode() {
        let models = vec![model_of(
            "crates/core/src/stats_emit.rs",
            "fn emit(c: &mut C) { c.incr(\"frames\"); }\n",
        )];
        let readme = "# Counter-key registry\n| `frames` | ok |\n| `ghost` | dead |\n";
        let full = analyze(&models, Some(readme), true, Vec::new());
        assert!(
            full.iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("`ghost` has no live emit")),
            "{full:?}"
        );
        let partial = analyze(&models, Some(readme), false, Vec::new());
        assert!(
            !partial.iter().any(|f| f.message.contains("ghost")),
            "{partial:?}"
        );
    }

    #[test]
    fn d010_multi_crate_ownership() {
        let findings = analyze_src(&[
            (
                "crates/core/src/a.rs",
                "fn e(c: &mut C) { c.incr(\"frames\"); }\n",
            ),
            (
                "crates/sim/src/b.rs",
                "fn e2(c: &mut C) { c.incr(\"frames\"); }\n",
            ),
        ]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D010 && f.message.contains("2 crates (core, sim)")),
            "{findings:?}"
        );
    }

    #[test]
    fn d011_cycle_detected_and_consistent_order_clean() {
        let cyclic = analyze_src(&[(
            "crates/core/src/engine2.rs",
            "impl E { fn f(&self) { let a = self.cache.lock(); let b = self.stats.lock(); }\n\
             fn g(&self) { let b = self.stats.lock(); let a = self.cache.lock(); } }\n",
        )]);
        let d11: Vec<&Finding> = cyclic.iter().filter(|f| f.rule == RuleId::D011).collect();
        assert_eq!(d11.len(), 2, "{cyclic:?}");
        assert!(d11[0].message.contains("cycle"));

        let clean = analyze_src(&[(
            "crates/core/src/engine2.rs",
            "impl E { fn f(&self) { let a = self.cache.lock(); let b = self.stats.lock(); }\n\
             fn g(&self) { let a = self.cache.lock(); let b = self.stats.lock(); } }\n",
        )]);
        assert!(!clean.iter().any(|f| f.rule == RuleId::D011), "{clean:?}");
    }

    #[test]
    fn d011_lock_held_across_par_map() {
        let findings = analyze_src(&[(
            "crates/core/src/sweep2.rs",
            "impl E { fn run(&self) { let g = self.cache.lock(); par_map_slice(2, &x, |v| v); } }\n",
        )]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D011 && f.message.contains("held across")),
            "{findings:?}"
        );
    }

    #[test]
    fn d011_one_level_call_propagation() {
        let findings = analyze_src(&[(
            "crates/core/src/engine2.rs",
            "impl E { fn f(&self) { let a = self.cache.lock(); self.emit(); }\n\
             fn emit(&self) { let b = self.stats.lock(); }\n\
             fn g(&self) { let b = self.stats.lock(); let a = self.cache.lock(); } }\n",
        )]);
        let d11: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D011).collect();
        assert!(
            d11.iter()
                .any(|f| f.message.contains("via call to `E::emit`")),
            "{findings:?}"
        );
    }

    #[test]
    fn d011_self_deadlock_via_callee() {
        let findings = analyze_src(&[(
            "crates/core/src/engine2.rs",
            "impl E { fn f(&self) { let a = self.cache.lock(); self.peek(); }\n\
             fn peek(&self) { let c = self.cache.lock(); } }\n",
        )]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D011 && f.message.contains("self-deadlocks")),
            "{findings:?}"
        );
    }

    #[test]
    fn graph_allows_suppress_at_root_and_go_stale() {
        let models = vec![model_of(
            "crates/core/src/sweep.rs",
            "fn run_sweep() { par_map(4, 2, |i| helper(i)); }\n\
             fn helper(i: usize) -> usize { maybe(i).unwrap() }\n",
        )];
        let allow = GraphAllow {
            rule: RuleId::D009,
            path: "crates/core/src/sweep.rs".to_owned(),
            line: 1,
            reason: "bounded retry".to_owned(),
        };
        let findings = analyze(&models, None, false, vec![allow]);
        let d9 = findings.iter().find(|f| f.rule == RuleId::D009).unwrap();
        assert_eq!(d9.allowed.as_deref(), Some("bounded retry"));

        let stale = GraphAllow {
            rule: RuleId::D011,
            path: "crates/core/src/sweep.rs".to_owned(),
            line: 1,
            reason: "nothing here".to_owned(),
        };
        let findings = analyze(&models, None, false, vec![stale]);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::D000 && f.message.contains("allow(D011)")),
            "{findings:?}"
        );
    }

    #[test]
    fn graph_allow_on_the_line_above_the_root_also_matches() {
        // rustfmt rewraps long `fn` signature lines, so the stable home
        // for a root-frame allow is a standalone comment directly above.
        let models = vec![model_of(
            "crates/core/src/sweep.rs",
            "// lint: allow(D009) — bounded retry\n\
             fn run_sweep() { par_map(4, 2, |i| helper(i)); }\n\
             fn helper(i: usize) -> usize { maybe(i).unwrap() }\n",
        )];
        let allow = GraphAllow {
            rule: RuleId::D009,
            path: "crates/core/src/sweep.rs".to_owned(),
            line: 1,
            reason: "bounded retry".to_owned(),
        };
        let findings = analyze(&models, None, false, vec![allow]);
        let d9 = findings.iter().find(|f| f.rule == RuleId::D009).unwrap();
        assert_eq!(d9.line, 2, "finding still anchors on the fn line");
        assert_eq!(d9.allowed.as_deref(), Some("bounded retry"));
        assert!(!findings.iter().any(|f| f.rule == RuleId::D000));
    }

    #[test]
    fn resolution_is_conservative_on_ambiguity() {
        let models: Vec<FileModel> = vec![
            model_of(
                "crates/core/src/a.rs",
                "fn caller() { par_map(1, 2, 3); helper(); }\n",
            ),
            model_of("crates/core/src/b.rs", "fn helper() { x.unwrap(); }\n"),
            model_of("crates/core/src/c.rs", "fn helper() { y.unwrap(); }\n"),
        ];
        // Two same-crate `helper` candidates → ambiguous → no edge → no
        // D009 through the call.
        let findings = analyze(&models, None, false, Vec::new());
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::D009),
            "{findings:?}"
        );
    }

    #[test]
    fn resolution_uses_path_segments_across_crates() {
        let models: Vec<FileModel> = vec![
            model_of(
                "crates/core/src/a.rs",
                "fn caller() { par_map(1, 2, 3); dles_sim::helper(); }\n",
            ),
            model_of("crates/sim/src/c.rs", "fn helper() { y.unwrap(); }\n"),
            model_of("crates/net/src/d.rs", "fn helper() { z.unwrap(); }\n"),
        ];
        let findings = analyze(&models, None, false, Vec::new());
        let d9: Vec<&Finding> = findings.iter().filter(|f| f.rule == RuleId::D009).collect();
        assert_eq!(d9.len(), 1, "{findings:?}");
        assert!(
            d9[0].message.contains("crates/sim/src/c.rs"),
            "{}",
            d9[0].message
        );
    }

    #[test]
    fn graph_dump_lists_fns_edges_and_sites() {
        let models = vec![model_of(
            "crates/core/src/sweep.rs",
            "impl E { fn run(&self) { let g = self.cache.lock(); par_map(1, 2, 3); \
             self.emit(); } fn emit(&self) { c.incr(\"frames\"); } }\n",
        )];
        let dump = render_graph(&models);
        assert!(dump.contains("file crates/core/src/sweep.rs"), "{dump}");
        assert!(dump.contains("fn E::run @1 [root]"), "{dump}");
        assert!(
            dump.contains("call emit @1 -> crates/core/src/sweep.rs::E::emit"),
            "{dump}"
        );
        assert!(dump.contains("lock cache @1"), "{dump}");
        assert!(dump.contains("counter frames @1"), "{dump}");
    }
}
