//! Integration tests for the observability subsystem: the structured
//! event trace must be byte-for-byte deterministic under a fixed seed,
//! and the monotonic event counters must agree with the metrics the
//! experiment runner reports.

use std::io::Write;
use std::sync::{Arc, Mutex};

use dles_core::experiment::Experiment;
use dles_core::pipeline::{run_pipeline, run_pipeline_with};
use dles_core::Technique;
use dles_sim::{JsonlRecorder, SimTime};
use std::num::NonZeroU64;

/// A `Write` target the test can read back after the recorder is dropped.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run 100 frame slots of experiment 2C (rotating every 10 frames so
/// rotation events land inside the window) with a JSONL recorder attached
/// and return the raw bytes it wrote.
fn traced_2c_jsonl(seed: u64) -> Vec<u8> {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(seed);
    cfg.technique = Some(Technique::Rotation {
        period_frames: NonZeroU64::new(10).unwrap(),
    });
    cfg.horizon = SimTime::from_secs(230);
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

#[test]
fn seeded_exp2c_traces_are_byte_identical() {
    let a = traced_2c_jsonl(0x5EED);
    let b = traced_2c_jsonl(0x5EED);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

#[test]
fn trace_lines_are_ordered_structured_jsonl() {
    let text = String::from_utf8(traced_2c_jsonl(7)).expect("trace is UTF-8");
    let mut last_t = 0u64;
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(line.starts_with("{\"t_us\": "), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
        let t: u64 = line["{\"t_us\": ".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("t_us not an integer in {line}"));
        assert!(t >= last_t, "time went backwards: {t} < {last_t}");
        last_t = t;
        let kind = line
            .split("\"kind\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no kind field in {line}"));
        kinds.insert(kind.to_owned());
    }
    for expected in [
        "state_transition",
        "power_segment",
        "transaction",
        "io",
        "frame_complete",
        "rotation",
    ] {
        assert!(
            kinds.contains(expected),
            "missing kind {expected}; saw {kinds:?}"
        );
    }
}

#[test]
fn counters_match_result_metrics_for_fig10_series() {
    // 100 frame slots of each I/O-bound experiment: the counters must
    // equal the metrics the result carries, because both are incremented
    // at the same event sites.
    for exp in Experiment::FIG10 {
        let mut cfg = exp.config();
        cfg.horizon = SimTime::from_secs(230);
        let r = run_pipeline(cfg);
        let c = |name: &str| r.counters.get(name);
        assert_eq!(
            c("frames_completed"),
            r.frames_completed,
            "{}: frames_completed counter",
            exp.label()
        );
        assert_eq!(
            c("deadline_misses"),
            r.deadline_misses,
            "{}: deadline_misses counter",
            exp.label()
        );
        assert!(
            c("frames_emitted") >= r.frames_completed,
            "{}: emitted {} < completed {}",
            exp.label(),
            c("frames_emitted"),
            r.frames_completed
        );
        assert!(
            c("state_transitions") > 0 && c("transfers_data") > 0,
            "{}: transitions {} transfers {}",
            exp.label(),
            c("state_transitions"),
            c("transfers_data")
        );
    }
}

#[test]
fn untraced_and_traced_runs_report_the_same_metrics() {
    // The recorder must be pure observation: attaching one cannot change
    // the simulation outcome.
    let mut cfg = Experiment::Exp2.config();
    cfg.horizon = SimTime::from_secs(230);
    let plain = run_pipeline(cfg.clone());
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let traced = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(buf))));
    assert_eq!(plain.frames_completed, traced.frames_completed);
    assert_eq!(plain.deadline_misses, traced.deadline_misses);
    assert_eq!(plain.lifetime, traced.lifetime);
    assert_eq!(
        plain.counters.iter().collect::<Vec<_>>(),
        traced.counters.iter().collect::<Vec<_>>()
    );
}
