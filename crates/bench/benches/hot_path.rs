//! Hot-path microbenches backing the D015/D016 dataflow lints: trace
//! emission through the buffered [`JsonlRecorder`] vs the pre-fix
//! per-record allocating renderer, plus raw event-dispatch throughput of
//! the engine loop the lints guard.
//!
//! Besides the usual criterion lines, `main` writes the measured medians
//! and the emission speedup to `BENCH_hotpath.json` at the repo root —
//! the committed baseline the docs quote.

use criterion::{black_box, Criterion};
use dles_core::build_engine_with;
use dles_core::experiment::Experiment;
use dles_core::rotation::RotationConfig;
use dles_sim::{
    Ctx, Engine, FieldValue, JsonlRecorder, MemoryRecorder, Recorder, SimTime, TraceRecord, World,
};
use std::io::{self, Write as _};

/// Events dispatched per bench iteration.
const EVENTS_PER_ITER: u64 = 20_000;

/// The records of 230 s of seeded EXP-2C with rotation every 10 frames
/// (the run behind `tests/goldens/exp2c_trace_230s.jsonl`): real
/// `TraceEvent` renderings in the simulator's own mix, about 971
/// state_transition : 780 power_segment : 581 transaction : 382 io :
/// 99 frame_complete.
fn sample_records() -> Vec<TraceRecord> {
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(0x5EED);
    cfg.rotation = Some(RotationConfig::every(10));
    cfg.horizon = SimTime::from_secs(230);
    let mut engine = build_engine_with(cfg, Box::new(MemoryRecorder::new()));
    engine.run_until(SimTime::from_secs(230));
    engine.recorder_mut().take_records()
}

/// The pre-fix rendering: one fresh `String` per record assembled with
/// `format!`, plus `FieldValue` temporaries for `component` and `kind` —
/// exactly the churn D015 flagged, kept here as the measured baseline.
fn alloc_render(r: &TraceRecord) -> String {
    let mut line = format!("{{\"t_us\": {}", r.time.as_micros());
    line.push_str(&format!(
        ", \"component\": {}",
        FieldValue::Str(r.component.clone())
    ));
    line.push_str(&format!(
        ", \"kind\": {}",
        FieldValue::Str(r.kind.to_string())
    ));
    for (name, value) in &r.fields {
        line.push_str(&format!(", \"{name}\": {value}"));
    }
    line.push('}');
    line
}

fn bench_trace_emit(c: &mut Criterion, records: &[TraceRecord]) {
    let mut group = c.benchmark_group("hot_path");
    group.sample_size(20);
    group.bench_function("trace_emit_alloc", |b| {
        let mut sink = io::sink();
        b.iter(|| {
            for r in records {
                let mut line = alloc_render(black_box(r));
                line.push('\n');
                let _ = sink.write_all(line.as_bytes());
            }
        })
    });
    group.bench_function("trace_emit_buffered", |b| {
        let mut rec = JsonlRecorder::to_writer(Box::new(io::sink()));
        b.iter(|| {
            for r in records {
                rec.record(black_box(r).clone());
            }
        })
    });
    group.finish();
}

/// Self-rescheduling world: each handled event schedules the next one
/// until the budget runs out, so a run is `EVENTS_PER_ITER` pure
/// pop → advance → dispatch cycles with no model work attached.
struct Ticker {
    remaining: u64,
}

impl World for Ticker {
    type Event = ();
    fn handle(&mut self, ctx: &mut Ctx<()>, _event: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimTime::from_micros(1), ());
        }
    }
}

fn bench_event_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path");
    group.sample_size(20);
    group.bench_function("event_dispatch", |b| {
        b.iter(|| {
            let mut engine = Engine::new(Ticker {
                remaining: black_box(EVENTS_PER_ITER),
            });
            engine.schedule_at(SimTime::ZERO, ());
            engine.run();
            engine.processed()
        })
    });
    group.finish();
}

fn write_baseline(c: &Criterion, records_per_iter: usize) {
    let median_ns = |label: &str| {
        c.results()
            .iter()
            .find(|s| s.label == format!("hot_path/{label}"))
            .map(|s| s.median.as_nanos())
            .unwrap_or(0)
    };
    let alloc = median_ns("trace_emit_alloc");
    let buffered = median_ns("trace_emit_buffered");
    let dispatch = median_ns("event_dispatch");
    let speedup = if buffered > 0 {
        alloc as f64 / buffered as f64
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"bench\": \"hot_path\",\n  \"records_per_iter\": {records_per_iter},\n  \
         \"events_per_iter\": {EVENTS_PER_ITER},\n  \
         \"trace_emit_alloc_median_ns\": {alloc},\n  \
         \"trace_emit_buffered_median_ns\": {buffered},\n  \
         \"event_dispatch_median_ns\": {dispatch},\n  \
         \"trace_emit_speedup\": {speedup:.2}\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("wrote {path}:\n{json}");
}

fn main() {
    let mut c = Criterion::default();
    let records = sample_records();
    bench_trace_emit(&mut c, &records);
    bench_event_dispatch(&mut c);
    write_baseline(&c, records.len());
}
