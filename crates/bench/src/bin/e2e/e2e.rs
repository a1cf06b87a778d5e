//! `e2e` — the repository's end-to-end benchmark of the `dles` simulator.
//!
//! ```text
//! e2e --workload W [--seed S] [--seconds N]        end-to-end metrics
//! e2e --workload W [--seed S] --trace 1            per-layer metrics
//! ```
//!
//! Workloads: `exp2c`, `exp2c_ideal`, `exp2c_jsonl`, `mc2b_lossy` (see
//! `README.md` beside this file for what each one stresses and why).
//! Every metric is printed as `name value unit`; the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! the run's details go to `target/e2e/`.
//!
//! The load is a closed loop: one simulation in flight per worker, every
//! input generated in this process from the workload name and the seed.

mod clock;
mod digest;
mod probe;
mod replay;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dles_core::build_engine_with;
use dles_sim::CounterSet;

use clock::{secs, Clock, Span, Spans};
use probe::Probe;
use replay::{replay, Run};
use workloads::{cores, Pass, Spec, Workload, DEFAULT_SEED};

/// `setup_s` is the median of samples that are each the mean of
/// `SETUP_BATCH` set-ups built back to back; samples are taken after each
/// pass for this share of the pass's time.
const SETUP_BATCH: usize = 50;
const SETUP_SHARE: f64 = 0.02;

const USAGE: &str = "usage: e2e --workload exp2c|exp2c_ideal|exp2c_jsonl|mc2b_lossy \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2e: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    let clock = Clock::start();
    let name = args.workload.name();
    let report = if args.trace {
        let t = run_traced(&spec, clock);
        write_file(&format!("{name}.spans.jsonl"), &t.spans.to_jsonl());
        t.report
    } else {
        run_untraced(&spec, args.seconds, clock)
    };
    write_file(
        &format!("{name}{}.json", if args.trace { ".layers" } else { "" }),
        &report.details_json(&spec),
    );
    print!("{}", report.human(&spec));
    println!("{}", report.result_json());
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A metric value; `NotMeasured` carries the reason and is written as
/// JSON `null`.
#[derive(Debug, Clone, Copy)]
enum Value {
    Count(u64),
    Real(f64),
    NotMeasured(&'static str),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Real(x) if x.is_finite() => format!("{x:?}"),
            Value::Real(_) | Value::NotMeasured(_) => "null".into(),
        }
    }

    fn human(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Real(x) if x.abs() < 1e-3 => format!("{x:.4e}"),
            Value::Real(x) => format!("{x:.6}"),
            Value::NotMeasured(why) => format!("null ({why})"),
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: Value,
    unit: &'static str,
    /// Whether `BENCHMARK.json` lists it (and the result line carries it).
    listed: bool,
}

fn metric(name: &'static str, value: Value, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        listed: true,
    }
}

/// Counts of simulations attempted and failed, and the named checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

impl Tally {
    /// Run one pass and return it with its host seconds, checking its
    /// digest against `reference` (the pinned digest, else the first
    /// pass's). A panic fails every simulation of the pass.
    fn pass(
        &mut self,
        spec: &Spec,
        clock: Clock,
        reference: &mut Option<u64>,
    ) -> (Option<Pass>, f64) {
        let (outcome, wall) = clock.time(|| catch_unwind(AssertUnwindSafe(|| spec.pass())));
        self.attempted += spec.sims as u64;
        let Ok(pass) = outcome else {
            self.failed += spec.sims as u64;
            return (None, wall);
        };
        if *reference.get_or_insert(pass.digest) != pass.digest {
            self.failed += pass.sims;
        }
        (Some(pass), wall)
    }

    fn check(&mut self, name: String, ok: bool) {
        self.checks.push((name, ok));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Everything one invocation reports.
#[derive(Debug)]
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    /// Host seconds of each timed pass, in run order (untraced runs).
    walls: Vec<f64>,
    /// The output digest every pass reproduced.
    digest: Option<u64>,
}

impl Report {
    fn human(&self, spec: &Spec) -> String {
        let mut out = format!(
            "workload {}  seed {}  cores {}  workers {}\n",
            spec.workload.name(),
            spec.seed,
            cores(),
            spec.workers
        );
        let n = self.walls.len();
        if n >= 20 {
            // The highest percentile with ten passes beyond it.
            let mut sorted = self.walls.clone();
            sorted.sort_by(f64::total_cmp);
            let pct = 100.0 * (n - 10) as f64 / n as f64;
            let tail = sorted[n - 11];
            let _ = writeln!(out, "timed passes: n={n}, wall_s p{pct:.0} {tail:.6} s");
        } else if n > 0 {
            let _ = writeln!(out, "timed passes: median only, n={n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value.human(), m.unit);
        }
        for (name, ok) in &self.tally.checks {
            let _ = writeln!(out, "check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        out
    }

    fn metrics_json(&self, only_listed: bool) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.listed || !only_listed)
            .map(|m| {
                let why = match m.value {
                    Value::NotMeasured(why) => format!(", \"why\": \"{why}\""),
                    _ => String::new(),
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{why}}}",
                    m.name,
                    m.value.json(),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The machine-readable result line: the last line of stdout.
    fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.metrics_json(true)
        )
    }

    /// The `target/e2e/` record: every metric, the checks and the host.
    fn details_json(&self, spec: &Spec) -> String {
        let checks: Vec<String> = self
            .tally
            .checks
            .iter()
            .map(|(name, ok)| format!("{{\"check\": \"{name}\", \"ok\": {ok}}}"))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"workers\": {}, \
             \"wall_s_samples\": {:?}, \"digest\": \"{}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [{}], \
             \"metrics\": {}}}\n",
            spec.workload.name(),
            spec.seed,
            cores(),
            spec.workers,
            self.walls,
            self.digest.map_or("none".into(), |d| format!("{d:#018x}")),
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            checks.join(", "),
            self.metrics_json(false)
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB, if the kernel
/// reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end run: one warm-up pass, then timed passes until
/// `seconds` have elapsed. Set-up is sampled after every pass for a
/// `SETUP_SHARE` of that pass's time, so its median sees the same host
/// conditions the passes do.
fn run_untraced(spec: &Spec, seconds: u64, clock: Clock) -> Report {
    let mut setup = Vec::new();
    let mut sample_setup = |budget_s: f64| {
        let t0 = clock.now_ns();
        loop {
            let mut engines = Vec::with_capacity(SETUP_BATCH);
            let ((), s) = clock.time(|| {
                for _ in 0..SETUP_BATCH {
                    engines.push(black_box(spec.setup()));
                }
            });
            drop(engines);
            setup.push(s / SETUP_BATCH as f64);
            if secs(clock.now_ns() - t0) >= budget_s {
                break;
            }
        }
    };

    let mut tally = Tally::default();
    let mut reference = spec.pinned_digest();
    let (_, warmup) = tally.pass(spec, clock, &mut reference);
    sample_setup(warmup * SETUP_SHARE);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let start = clock.now_ns();
    while walls.is_empty() || secs(clock.now_ns() - start) < seconds as f64 {
        let (pass, wall) = tally.pass(spec, clock, &mut reference);
        if let Some(pass) = pass {
            walls.push(wall);
            rates.push(pass.frames as f64 / wall);
        } else if secs(clock.now_ns() - start) >= seconds as f64 {
            break;
        }
        sample_setup(wall * SETUP_SHARE);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    // A missing reading fails the run rather than reading as 0 MiB.
    let rss = peak_rss_mib();
    tally.check("peak RSS read from /proc/self/status".into(), rss.is_some());
    let rss = rss.map_or(
        Value::NotMeasured("no VmHWM in /proc/self/status"),
        Value::Real,
    );
    Report {
        metrics: vec![
            metric("wall_s", Value::Real(median(&mut walls.clone())), "s"),
            metric("frames_per_s", Value::Real(median(&mut rates)), "1/s"),
            metric("setup_s", Value::Real(median(&mut setup)), "s"),
            metric("peak_rss_mb", rss, "MiB"),
            Metric {
                listed: false,
                ..metric("failed_frac", Value::Real(failed_frac), "ratio")
            },
        ],
        tally,
        walls,
        digest: reference,
    }
}

/// Per-layer totals summed over a traced run's simulations.
#[derive(Debug, Default)]
struct Totals {
    replayed: replay::Replayed,
    events_handled: u64,
    transfers_retained: u64,
    records: u64,
    bytes: u64,
    untraced_ns: u64,
    probe_ns: u64,
    counters: CounterSet,
}

struct Traced {
    report: Report,
    spans: Spans,
}

/// The traced run: a warm-up, the untraced baseline, a probe pass per
/// simulation, then the replay of every layer and the fidelity checks.
fn run_traced(spec: &Spec, clock: Clock) -> Traced {
    let root = spec.workload.name();
    let mut spans = Spans::new(clock);
    let mut tally = Tally::default();
    let mut totals = Totals::default();
    let root_start = clock.now_ns();

    let mut reference = spec.pinned_digest();
    let t0 = clock.now_ns();
    tally.pass(spec, clock, &mut reference);
    spans.close("warmup", root, t0, spec.sims as u64);
    let parallel_ns = (spec.workers > 1).then(|| {
        let t0 = clock.now_ns();
        tally.pass(spec, clock, &mut reference);
        spans.close("parallel", root, t0, spec.sims as u64);
        clock.now_ns() - t0
    });

    for i in 0..spec.sims {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            traced_sim(spec, i, reference, &mut spans, &mut totals, &mut tally)
        }));
        tally.attempted += 1;
        if outcome.is_err() {
            tally.failed += 1;
        }
    }
    spans.close(root, "", root_start, spec.sims as u64);

    let metrics = layer_metrics(spec, &spans, &totals, parallel_ns);
    Traced {
        report: Report {
            metrics,
            tally,
            walls: Vec::new(),
            digest: reference,
        },
        spans,
    }
}

/// Untraced baseline, probe pass, replay and checks of simulation `i`.
/// `reference` is the digest a whole pass must reproduce.
fn traced_sim(
    spec: &Spec,
    i: usize,
    reference: Option<u64>,
    spans: &mut Spans,
    totals: &mut Totals,
    tally: &mut Tally,
) {
    let root = spec.workload.name();
    let clock = spans.clock;
    let cfg = spec.sim_config(i);

    let t0 = clock.now_ns();
    let sim = spec.simulate(cfg.clone());
    spans.close("untraced", root, t0, 1);
    totals.untraced_ns += clock.now_ns() - t0;

    let forward = sim.trace.is_some();
    let probe = Probe::new(cfg.n_nodes(), cfg.sys.dvs.clone(), forward, clock);
    let capture = probe.0.clone();
    let t0 = clock.now_ns();
    let mut engine = build_engine_with(cfg.clone(), Box::new(probe));
    engine.run_until(cfg.horizon);
    let trace = capture.borrow_mut().finish_forward();
    if trace.is_none() {
        // No recorder to forward to: the layer's span is empty and reads
        // the timer's floor.
        spans.close("sim.trace", "probe", clock.now_ns(), 0);
    }
    spans.close("probe", root, t0, 1);
    totals.probe_ns += clock.now_ns() - t0;
    let counters = engine.world().counters().clone();
    let run_end = engine.now();
    totals.events_handled += engine.processed();
    let events_handled = engine.processed();
    drop(engine);

    let cap = capture.borrow();
    if let Some(f) = &cap.forward {
        spans.spans.push(Span {
            name: "sim.trace",
            parent: "probe",
            start_ns: f.first_ns,
            end_ns: f.last_ns,
            busy_ns: f.busy_ns,
            count: f.sink.lines.get(),
        });
    }
    if let Some((bytes, lines)) = trace {
        totals.bytes += bytes;
        totals.records += lines;
    }

    let t0 = clock.now_ns();
    let run = Run {
        cfg: &cfg,
        capture: &cap,
        counters: &counters,
        events_handled,
        end: run_end,
    };
    let r = replay(&run, spans, "replay");
    spans.close("replay", root, t0, 1);

    let planned = counters.get("transfers_data") + counters.get("transfers_ack");
    totals.transfers_retained += planned;
    let tag = |what: &str| format!("{what} (sim {i})");
    tally.check(tag("probe parsed every record"), cap.unparsed == 0);
    tally.check(
        tag("probe run counters equal the untraced run's"),
        counters == sim.result.counters,
    );
    tally.check(
        tag("trace bytes and lines equal the untraced run's"),
        trace == sim.trace,
    );
    tally.check(
        tag("replayed discharges equal power_segment records"),
        r.segment_discharges == cap.power_segments,
    );
    let delivered_ok = r.delivered_mah.len() == sim.result.nodes.len()
        && r.delivered_mah
            .iter()
            .zip(&sim.result.nodes)
            .all(|(&got, node)| {
                let want = node.delivered_mah.get();
                (got - want).abs() <= 1e-9 * want.abs().max(1e-12)
            });
    tally.check(
        tag("replayed delivered_mah matches each node"),
        delivered_ok,
    );
    if cfg
        .faults
        .as_ref()
        .is_some_and(|p| p.profile.has_link_faults())
    {
        // The trace shows a transfer when it starts, so the few planned
        // ones still waiting on a line when the last node died are not
        // replayed.
        let started = cap.xfers.len() as u64;
        tally.check(
            tag(&format!(
                "fault draws equal transfers started ({} planned, never started)",
                planned.saturating_sub(started)
            )),
            r.draw_calls == started && started <= planned,
        );
    }
    tally.check(tag("replayed counters equal the run's"), r.counters_match);
    if !spec.is_mc() {
        tally.check(
            tag("untraced digest equals the pass digest"),
            Some(sim.digest()) == reference,
        );
    }

    totals.counters.merge(&counters);
    let t = &mut totals.replayed;
    t.push_calls += r.push_calls;
    t.pop_calls += r.pop_calls;
    t.cancel_calls += r.cancel_calls;
    t.transition_calls += r.transition_calls;
    t.discharge_calls += r.discharge_calls;
    t.tte_calls += r.tte_calls;
    t.reserve_calls += r.reserve_calls;
    t.draw_calls += r.draw_calls;
    t.incr_calls += r.incr_calls;
}

/// Host nanoseconds per call, or the layer's span time when it made no
/// calls.
fn ns_per(busy_ns: u64, calls: u64) -> Value {
    Value::Real(busy_ns as f64 / calls.max(1) as f64)
}

fn layer_metrics(spec: &Spec, spans: &Spans, t: &Totals, parallel_ns: Option<u64>) -> Vec<Metric> {
    let r = &t.replayed;
    let busy = |name: &str| spans.busy_ns(name);
    let self_s = |name: &str| Value::Real(secs(busy(name)));
    let untraced = secs(t.untraced_ns);
    let layers = [
        "sim.event",
        "battery",
        "power.state",
        "net.hub",
        "core.faults",
        "sim.stats",
        "sim.trace",
    ];
    let covered: f64 = layers.iter().map(|l| secs(busy(l))).sum();
    let discharge_ns = busy("battery.discharge_only");
    let tte_ns = busy("battery") as f64 - discharge_ns as f64;
    let (speedup, efficiency) = match parallel_ns {
        Some(ns) => {
            let s = untraced / secs(ns);
            (Value::Real(s), Value::Real(s / spec.workers as f64))
        }
        None => (
            Value::NotMeasured("not measured (1 worker)"),
            Value::NotMeasured("not measured (1 worker)"),
        ),
    };
    use Value::{Count, Real};
    vec![
        metric(
            "sim.engine.events_handled",
            Count(t.events_handled),
            "count",
        ),
        metric(
            "sim.engine.ns_per_event",
            ns_per(t.untraced_ns, t.events_handled),
            "ns",
        ),
        metric("sim.event.push_calls", Count(r.push_calls), "count"),
        metric("sim.event.pop_calls", Count(r.pop_calls), "count"),
        metric("sim.event.cancel_calls", Count(r.cancel_calls), "count"),
        metric(
            "sim.event.ns_per_op",
            ns_per(
                busy("sim.event"),
                r.push_calls + r.pop_calls + r.cancel_calls,
            ),
            "ns",
        ),
        metric("sim.event.self_s", self_s("sim.event"), "s"),
        metric("battery.discharge_calls", Count(r.discharge_calls), "count"),
        metric("battery.tte_calls", Count(r.tte_calls), "count"),
        metric(
            "battery.ns_per_discharge",
            ns_per(discharge_ns, r.discharge_calls),
            "ns",
        ),
        metric(
            "battery.ns_per_tte",
            Real(tte_ns / r.tte_calls.max(1) as f64),
            "ns",
        ),
        metric("battery.self_s", self_s("battery"), "s"),
        metric(
            "battery.share",
            Real(secs(busy("battery")) / untraced),
            "ratio",
        ),
        metric(
            "power.state.transition_calls",
            Count(r.transition_calls),
            "count",
        ),
        metric(
            "power.state.ns_per_transition",
            ns_per(busy("power.state"), r.transition_calls),
            "ns",
        ),
        metric("power.state.self_s", self_s("power.state"), "s"),
        metric("net.hub.reserve_calls", Count(r.reserve_calls), "count"),
        metric(
            "net.hub.ns_per_reserve",
            ns_per(busy("net.hub"), r.reserve_calls),
            "ns",
        ),
        metric("net.hub.self_s", self_s("net.hub"), "s"),
        metric("core.faults.draw_calls", Count(r.draw_calls), "count"),
        metric(
            "core.faults.ns_per_draw",
            ns_per(busy("core.faults"), r.draw_calls),
            "ns",
        ),
        metric("core.faults.self_s", self_s("core.faults"), "s"),
        metric("sim.stats.incr_calls", Count(r.incr_calls), "count"),
        metric(
            "sim.stats.distinct_keys",
            Count(t.counters.len() as u64),
            "count",
        ),
        metric(
            "sim.stats.ns_per_incr",
            ns_per(busy("sim.stats"), r.incr_calls),
            "ns",
        ),
        metric("sim.stats.self_s", self_s("sim.stats"), "s"),
        metric("sim.trace.records", Count(t.records), "count"),
        metric("sim.trace.bytes", Count(t.bytes), "B"),
        metric(
            "sim.trace.ns_per_record",
            ns_per(busy("sim.trace"), t.records),
            "ns",
        ),
        metric("sim.trace.self_s", self_s("sim.trace"), "s"),
        metric(
            "sim.trace.overhead_s",
            Real(secs(t.probe_ns) - untraced),
            "s",
        ),
        metric(
            "core.pipeline.transfers_retained",
            Count(t.transfers_retained),
            "count",
        ),
        metric("core.pipeline.residual_s", Real(untraced - covered), "s"),
        metric("core.pipeline.coverage", Real(covered / untraced), "ratio"),
        metric("sim.par.workers", Count(spec.workers as u64), "count"),
        metric("sim.par.cores", Count(cores() as u64), "count"),
        Metric {
            listed: false,
            ..metric("sim.par.speedup", speedup, "ratio")
        },
        Metric {
            listed: false,
            ..metric("sim.par.efficiency", efficiency, "ratio")
        },
    ]
}

/// Write `target/e2e/<name>`; a read-only tree only costs the record.
fn write_file(name: &str, contents: &str) {
    let dir = Path::new("target").join("e2e");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents))
    {
        eprintln!("e2e: cannot write target/e2e/{name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dles_sim::SimTime;

    /// Ten simulated minutes and one Monte Carlo trial: quick in debug.
    fn short(workload: Workload, seed: u64) -> Spec {
        Spec {
            horizon: Some(SimTime::from_secs(600)),
            sims: 1,
            workers: 1,
            ..Spec::new(workload, seed)
        }
    }

    #[test]
    fn every_workload_repeats_its_digest() {
        for w in Workload::ALL {
            let spec = short(w, DEFAULT_SEED);
            let first = spec.pass();
            assert!(first.frames > 0, "{} completed no frames", w.name());
            assert_eq!(first, spec.pass(), "{} is not deterministic", w.name());
        }
    }

    #[test]
    fn the_seed_changes_the_exp2c_digest() {
        let a = short(Workload::Exp2c, DEFAULT_SEED).pass();
        let b = short(Workload::Exp2c, 7).pass();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn traced_runs_pass_their_fidelity_checks() {
        for w in Workload::ALL {
            let traced = run_traced(&short(w, DEFAULT_SEED), Clock::start());
            let tally = &traced.report.tally;
            assert!(tally.correct(), "{}: {:?}", w.name(), tally.checks);
            assert!(tally.checks.len() >= 6, "{}: {:?}", w.name(), tally.checks);
        }
    }

    #[test]
    fn the_result_line_carries_exactly_the_listed_metrics() {
        // This package sits at `crates/bench/src/bin/e2e/`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let bench = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = short(Workload::Exp2cIdeal, DEFAULT_SEED);
        let untraced = run_untraced(&spec, 1, Clock::start());
        let traced = run_traced(&spec, Clock::start()).report;
        let mut listed = 0;
        for m in untraced.metrics.iter().chain(&traced.metrics) {
            if m.listed {
                listed += 1;
                assert!(
                    bench.contains(&format!(
                        "\"name\": \"{}\", \"unit\": \"{}\"",
                        m.name, m.unit
                    )),
                    "{} ({}) missing from BENCHMARK.json",
                    m.name,
                    m.unit
                );
                assert!(matches!(m.value, Value::Count(_) | Value::Real(_)));
            }
        }
        assert_eq!(
            listed,
            bench.matches("\"unit\"").count(),
            "BENCHMARK.json lists others"
        );
        for w in Workload::ALL {
            assert!(bench.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let line = untraced.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }

    #[test]
    fn arguments_follow_the_benchmark_command_line() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload mc2b_lossy --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Mc2bLossy, 9, 20, true)
        );
        assert!(!parse("--workload exp2c --trace 0").unwrap().trace);
        for bad in [
            "",
            "--workload nope",
            "--workload exp2c --trace 2",
            "--workload exp2c --traced",
            "--workload exp2c --seconds 0",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
