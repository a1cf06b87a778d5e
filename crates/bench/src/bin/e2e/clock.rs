//! The benchmark's only wall clock, and the spans it records.
//!
//! Everything timed in `e2e` goes through [`Clock`], so the wall-clock
//! exemptions from D001 sit in this file and nowhere else.
//! Spans are kept in memory and written out when the run ends.

use std::time::Instant; // lint: allow(D001) — the benchmark measures host time; no simulated quantity is derived from it

/// Nanoseconds since the benchmark process started measuring.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant, // lint: allow(D001) — host-time origin; results never depend on it
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(), // lint: allow(D001) — origin of the benchmark's host-time axis
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` and return its result with the host seconds it took.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = self.now_ns();
        let r = f();
        (r, secs(self.now_ns() - t0))
    }
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One recorded span. `busy_ns` is `end_ns - start_ns` for a contiguous
/// span; for a span accumulated from many short intervals (the per-record
/// trace spans) it is their sum, and `start_ns`/`end_ns` bound them.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

/// Spans of one traced run, in the order they closed.
#[derive(Debug)]
pub struct Spans {
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(clock: Clock) -> Self {
        Spans {
            clock,
            spans: Vec::new(),
        }
    }

    /// Close a contiguous span opened at `start_ns`.
    pub fn close(&mut self, name: &'static str, parent: &'static str, start_ns: u64, count: u64) {
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count,
        });
    }

    /// Total busy time of every span called `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// One JSON object per line; `self_ns` is the span's busy time minus
    /// what its direct children cover.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == s.name && c.start_ns >= s.start_ns && c.end_ns <= s.end_ns)
                .map(|c| c.busy_ns)
                .sum();
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"busy_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                s.name,
                s.parent,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.busy_ns.saturating_sub(children),
                s.count
            );
        }
        out
    }
}
