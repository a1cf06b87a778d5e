//! Golden-output regression tests for the typed-quantities migration.
//!
//! The units refactor (`dles-units`) must be observationally invisible:
//! every serialized trace line and report byte must be identical before
//! and after wrapping the `f64` hot paths in newtypes. These tests pin
//! the seeded EXP-2C trace and the 16-trial Monte Carlo report against
//! goldens captured from the pre-migration tree (`tests/goldens/`), plus
//! an all-shapes trace that holds at least one record of every
//! `TraceEvent` shape the simulator emits.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! cargo test -p dles-tests --test golden_outputs -- --ignored regen
//! ```
//!
//! then inspect the diff before committing — an unexpected diff here
//! means simulation arithmetic changed, not just types.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dles_core::experiment::Experiment;
use dles_core::faults::{FaultPlan, FaultProfile};
use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
use dles_core::pipeline::{run_pipeline_with, PipelineConfig};
use dles_core::policy::SchedulingPolicy;
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name)
}

/// 230 s of seeded EXP-2C with rotation every 10 frames — the same window
/// `trace_observability.rs` uses, so every record kind appears.
fn exp2c_trace_bytes() -> Vec<u8> {
    let mut cfg = Experiment::Exp2C.config();
    cfg.jitter_seed = Some(0x5EED);
    cfg.technique = Some(Technique::Rotation {
        period_frames: NonZeroU64::new(10).unwrap(),
    });
    cfg.horizon = SimTime::from_secs(230);
    trace_bytes(cfg)
}

/// Stream one seeded run's JSONL trace into a fresh buffer.
fn trace_bytes(cfg: PipelineConfig) -> Vec<u8> {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let out = buf.clone();
    let _ = run_pipeline_with(cfg, Box::new(JsonlRecorder::to_writer(Box::new(out))));
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

/// Short seeded runs that together reach every record shape the
/// simulator emits, concatenated into one trace:
///
/// * EXP-0A's local PROC loop (`state_transition` with `share` only);
/// * EXP-2B with recovery over a lossy link with brownouts, its head
///   node on a tiny battery: every `fault_injected` shape, the node's
///   death, both timeout `transaction`s and the survivor's `migration`;
/// * EXP-2C under the `adaptive` and `soc-skew` policies: the
///   `policy_decision` records with and without `next_period_frames`.
fn all_shapes_trace_bytes() -> Vec<u8> {
    let mut local = Experiment::Exp0A.config();
    local.horizon = SimTime::from_secs(10);

    let mut faulty = Experiment::Exp2B.config();
    faulty.jitter_seed = Some(0x5EED);
    faulty.faults = Some(FaultPlan::new(
        FaultProfile {
            brownout_mean_interval: SimTime::from_secs(60),
            brownout_duration: SimTime::from_secs(5),
            ..FaultProfile::lossy_link()
        },
        7,
    ));
    faulty.battery_scales = Some(vec![0.002, 1.0]);
    faulty.horizon = SimTime::from_secs(120);

    let mut bytes = trace_bytes(local);
    bytes.extend(trace_bytes(faulty));
    for policy in [
        SchedulingPolicy::AdaptivePeriod,
        SchedulingPolicy::RotateOnSocSkew,
    ] {
        let mut cfg = Experiment::Exp2C.config();
        cfg.jitter_seed = Some(0x5EED);
        cfg.scheduling = policy;
        cfg.technique = Some(Technique::Rotation {
            period_frames: NonZeroU64::new(5).unwrap(),
        });
        cfg.horizon = SimTime::from_secs(40);
        bytes.extend(trace_bytes(cfg));
    }
    bytes
}

/// Every `(kind, field keys)` shape the simulator emits, keys in emit
/// order.
const ALL_SHAPES: [(&str, &[&str]); 18] = [
    ("fault_injected", &["fault", "duration_us"]),
    ("fault_injected", &["from", "to", "frame", "bytes", "fault"]),
    (
        "fault_injected",
        &["from", "to", "frame", "bytes", "fault", "delay_us"],
    ),
    (
        "fault_injected",
        &["from", "to", "frame", "bytes", "fault", "flipped_bits"],
    ),
    ("frame_complete", &["frame", "latency_s", "deadline_missed"]),
    ("io", &["dir", "payload", "frame"]),
    ("migration", &["dead", "merged_freq_mhz", "feasible"]),
    ("node_death", &["delivered_mah", "stranded_mah"]),
    (
        "policy_decision",
        &["policy", "frame", "skew_soc", "action"],
    ),
    (
        "policy_decision",
        &[
            "policy",
            "frame",
            "skew_soc",
            "action",
            "next_period_frames",
        ],
    ),
    (
        "power_segment",
        &["mode", "freq_mhz", "duration_us", "current_ma", "energy_mj"],
    ),
    ("rotation", &["frame", "rotations"]),
    ("state_transition", &["mode", "freq_mhz"]),
    ("state_transition", &["mode", "freq_mhz", "share"]),
    ("state_transition", &["mode", "freq_mhz", "share", "frame"]),
    ("transaction", &["event", "payload", "bytes", "frame"]),
    (
        "transaction",
        &["event", "payload", "bytes", "frame", "upstream_alive"],
    ),
    (
        "transaction",
        &["event", "payload", "bytes", "frame", "waiter"],
    ),
];

/// The `(kind, keys after kind)` shape of one JSONL trace line. Splitting
/// on `, "` is exact for these traces: no value contains that sequence.
fn line_shape(line: &str) -> (String, Vec<String>) {
    let mut kind = String::new();
    let mut keys = Vec::new();
    let body = line.trim_start_matches('{').trim_end_matches('}');
    for pair in body.split(", \"") {
        let (key, value) = pair
            .trim_start_matches('"')
            .split_once("\": ")
            .unwrap_or_else(|| panic!("no key in {line}"));
        match key {
            "t_us" | "component" => {}
            "kind" => kind = value.trim_matches('"').to_owned(),
            _ => keys.push(key.to_owned()),
        }
    }
    (kind, keys)
}

/// 16-trial Monte Carlo study over a lossy link, master seed 42, bounded
/// to a 3600 s horizon (the CI smoke setting) so the test stays fast.
fn mc16_report_text() -> String {
    let mut base = Experiment::Exp2B.config();
    base.horizon = SimTime::from_secs(3600);
    let report = run_monte_carlo(&MonteCarloConfig {
        base,
        trials: 16,
        master_seed: 42,
        profile: FaultProfile::lossy_link(),
        threads: 0,
    });
    render_montecarlo(&report)
}

#[test]
fn exp2c_trace_matches_golden() {
    let golden = std::fs::read(golden_path("exp2c_trace_230s.jsonl"))
        .expect("golden missing — run the ignored `regen` test once");
    let actual = exp2c_trace_bytes();
    assert!(
        actual == golden,
        "seeded EXP-2C trace diverged from tests/goldens/exp2c_trace_230s.jsonl \
         ({} vs {} bytes) — simulation output changed, not just types",
        actual.len(),
        golden.len()
    );
}

#[test]
fn mc16_report_matches_golden() {
    let golden = std::fs::read_to_string(golden_path("mc16_report_3600s.txt"))
        .expect("golden missing — run the ignored `regen` test once");
    let actual = mc16_report_text();
    assert_eq!(
        actual, golden,
        "16-trial Monte Carlo report diverged from tests/goldens/mc16_report_3600s.txt"
    );
}

#[test]
fn all_shapes_trace_matches_golden() {
    let golden = std::fs::read(golden_path("all_shapes_trace.jsonl"))
        .expect("golden missing — run the ignored `regen` test once");
    let actual = all_shapes_trace_bytes();
    assert!(
        actual == golden,
        "all-shapes trace diverged from tests/goldens/all_shapes_trace.jsonl \
         ({} vs {} bytes)",
        actual.len(),
        golden.len()
    );
    let text = String::from_utf8(actual).expect("JSONL is UTF-8");
    let seen: std::collections::BTreeSet<(String, Vec<String>)> =
        text.lines().map(line_shape).collect();
    let expected: std::collections::BTreeSet<(String, Vec<String>)> = ALL_SHAPES
        .iter()
        .map(|(kind, keys)| {
            (
                kind.to_string(),
                keys.iter().map(|k| k.to_string()).collect(),
            )
        })
        .collect();
    assert_eq!(seen, expected, "record shapes in the all-shapes trace");
}

/// Rewrites the goldens in place. Ignored by default: regeneration is an
/// explicit, reviewed act, never a side effect of `cargo test`.
#[test]
#[ignore = "rewrites tests/goldens/ — run explicitly and review the diff"]
fn regen_goldens() {
    std::fs::write(golden_path("exp2c_trace_230s.jsonl"), exp2c_trace_bytes()).unwrap();
    std::fs::write(
        golden_path("all_shapes_trace.jsonl"),
        all_shapes_trace_bytes(),
    )
    .unwrap();
    std::fs::write(golden_path("mc16_report_3600s.txt"), mc16_report_text()).unwrap();
}
