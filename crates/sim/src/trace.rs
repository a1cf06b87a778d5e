//! Structured observability: typed event records and pluggable recorders.
//!
//! Every instrumented component (power monitor, serial transactions, node
//! state machines, the pipeline itself) describes what happened as a
//! [`TraceEvent`] and renders it into a [`TraceRecord`] with
//! [`TraceEvent::record`], which it hands to a [`Recorder`]. The enum is
//! the trace schema: one variant per record shape, its fields typed and
//! listed in emit order. Three recorders cover the workspace's needs:
//!
//! * [`NullRecorder`] — the default; `enabled()` is `false`, so emit sites
//!   skip even building the record (zero overhead on long discharge runs);
//! * [`MemoryRecorder`] — collects records in memory; the timeline
//!   generator rebuilds the paper's Figs. 2/3/9 from this stream;
//! * [`JsonlRecorder`] — streams one JSON object per line to a writer;
//!   with a fixed seed the byte stream is identical run-to-run, making
//!   traces golden artifacts for regression testing.
//!
//! The JSONL schema per line, keys always in this order:
//!
//! ```json
//! {"t_us": 2300000, "component": "node1", "kind": "state_transition",
//!  "mode": "computation", "freq_mhz": 103.2, "current_ma": 67.9}
//! ```
//!
//! `t_us` is the simulation clock in microseconds; `component` tags the
//! emitter (`node1`, `host->node2`, `pipeline`); `kind` names the event
//! type; every following key is event-specific, written in the order its
//! [`TraceEvent`] variant documents.

use crate::time::SimTime;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A single typed field value in a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<SimTime> for FieldValue {
    fn from(v: SimTime) -> Self {
        FieldValue::U64(v.as_micros())
    }
}

impl fmt::Display for FieldValue {
    /// JSON-compatible rendering (strings escaped and quoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) if v.is_finite() => write!(f, "{v}"),
            FieldValue::F64(_) => write!(f, "null"),
            FieldValue::Str(s) => write_json_str(f, s),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Write `s` as a JSON string literal into any [`fmt::Write`] sink —
/// `Formatter`s (the `Display` impls) and plain `String` buffers (the
/// buffered [`JsonlRecorder`] path) alike, with no intermediate
/// allocation. Runs of characters that need no escape go out as one
/// `write_str` slice; every byte that needs one is ASCII, so the slice
/// bounds always fall on character boundaries.
fn write_json_str<W: fmt::Write + ?Sized>(f: &mut W, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        if escaped.is_empty() {
            write!(f, "\\u{:04x}", b)?;
        } else {
            f.write_str(escaped)?;
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

/// One structured trace record: when, who, what, plus typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub time: SimTime,
    /// Component tag, e.g. `"node1"`, `"host"`, `"link0→1"`.
    pub component: String,
    /// Event type, e.g. `"state_transition"`, `"frame_complete"`.
    pub kind: &'static str,
    /// Event-specific fields, serialized in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    /// Test-only: every real record comes from [`TraceEvent::record`], so
    /// only the kinds and keys it declares can be emitted.
    #[cfg(test)]
    pub(crate) fn new(time: SimTime, component: impl Into<String>, kind: &'static str) -> Self {
        TraceRecord {
            time,
            component: component.into(),
            kind,
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style; order is preserved in the output).
    #[cfg(test)]
    pub(crate) fn with(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Field as u64 if present and numeric.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Field as str if present and textual.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field as bool if present and boolean.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Write the canonical single-line JSON rendering (what
    /// [`JsonlRecorder`] writes) into a caller-supplied buffer. Keys in
    /// fixed order: `t_us`, `component`, `kind`, then the fields in emit
    /// order — so byte-identical inputs yield byte-identical lines. No
    /// intermediate `String`s: `component` and `kind` are escaped straight
    /// into `out`, which a streaming recorder reuses across records.
    pub(crate) fn write_jsonl<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        write!(out, "{{\"t_us\": {}", self.time.as_micros())?;
        out.write_str(", \"component\": ")?;
        write_json_str(out, &self.component)?;
        out.write_str(", \"kind\": ")?;
        write_json_str(out, self.kind)?;
        for (name, value) in &self.fields {
            write!(out, ", \"{name}\": {value}")?;
        }
        out.write_str("}")
    }
}

/// One event the simulator traces: the single declaration of the trace
/// schema. Each variant renders to one record `kind` (the variant name in
/// snake case), and its fields become the record's keys in the order
/// listed. A `None` optional field is left out of the record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// `state_transition`: a node enters a power state. Keys: `mode`,
    /// `freq_mhz`, then `share` and `frame` when the node starts PROC
    /// (`share` alone in the no-I/O local loop).
    StateTransition {
        mode: &'static str,
        freq_mhz: f64,
        share: Option<usize>,
        frame: Option<u64>,
    },
    /// `power_segment`: a settled constant-current interval, stamped at
    /// its end. Keys: `mode`, `freq_mhz`, `duration_us`, `current_ma`,
    /// `energy_mj`.
    PowerSegment {
        mode: &'static str,
        freq_mhz: f64,
        duration: SimTime,
        current_ma: f64,
        energy_mj: f64,
    },
    /// `transaction`: a lifecycle event (`start`, `delivered`, `timeout`)
    /// of one serial transfer. Keys: `event`, `payload`, `bytes`,
    /// `frame`, then `waiter` on ack timeouts or `upstream_alive` on
    /// receive timeouts.
    Transaction {
        event: &'static str,
        payload: &'static str,
        bytes: u64,
        frame: u64,
        waiter: Option<String>,
        upstream_alive: Option<bool>,
    },
    /// `io`: a node's side of a transfer, for the timeline renderer.
    /// Keys: `dir` (`send`/`recv`), `payload`, `frame`.
    Io {
        dir: &'static str,
        payload: &'static str,
        frame: u64,
    },
    /// `frame_complete`: the host received a frame's result. Keys:
    /// `frame`, `latency_s`, `deadline_missed`.
    FrameComplete {
        frame: u64,
        latency_s: f64,
        deadline_missed: bool,
    },
    /// `rotation`: a §5.5 rotation wave launched. Keys: `frame`,
    /// `rotations`.
    Rotation { frame: u64, rotations: u64 },
    /// `migration`: a survivor absorbed a dead neighbour's share. Keys:
    /// `dead`, `merged_freq_mhz`, `feasible`.
    Migration {
        dead: String,
        merged_freq_mhz: f64,
        feasible: bool,
    },
    /// `node_death`: a node's battery is exhausted. Keys:
    /// `delivered_mah`, `stranded_mah`.
    NodeDeath {
        delivered_mah: f64,
        stranded_mah: f64,
    },
    /// `policy_decision`: a scheduling policy launched a wave. Keys:
    /// `policy`, `frame`, `skew_soc`, `action`, then
    /// `next_period_frames` under the adaptive-period policy.
    PolicyDecision {
        policy: &'static str,
        frame: u64,
        skew_soc: f64,
        action: &'static str,
        next_period_frames: Option<u64>,
    },
    /// `fault_injected`: an injected fault, with the keys of its
    /// [`InjectedFault`] shape.
    FaultInjected(InjectedFault),
}

/// The two shapes of a `fault_injected` record.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedFault {
    /// A fault on one transfer. Keys: `from`, `to`, `frame`, `bytes`,
    /// `fault`, then the [`LinkFaultKind`]'s own detail.
    Link {
        from: String,
        to: String,
        frame: u64,
        bytes: u64,
        fault: LinkFaultKind,
    },
    /// A node browned out. Keys: `fault` (`brownout`), `duration_us`.
    Brownout { duration: SimTime },
}

/// What a link fault did to a transfer, rendered as the `fault` key plus
/// its detail key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// `fault: "drop"`, no detail.
    Drop,
    /// `fault: "bit_error"`, then `flipped_bits`.
    BitError { flipped_bits: u64 },
    /// `fault: "delay"`, then `delay_us`.
    Delay { delay: SimTime },
}

impl TraceEvent {
    /// The record `kind` this event renders as.
    fn kind(&self) -> &'static str {
        match self {
            TraceEvent::StateTransition { .. } => "state_transition",
            TraceEvent::PowerSegment { .. } => "power_segment",
            TraceEvent::Transaction { .. } => "transaction",
            TraceEvent::Io { .. } => "io",
            TraceEvent::FrameComplete { .. } => "frame_complete",
            TraceEvent::Rotation { .. } => "rotation",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::NodeDeath { .. } => "node_death",
            TraceEvent::PolicyDecision { .. } => "policy_decision",
            TraceEvent::FaultInjected(_) => "fault_injected",
        }
    }

    /// Render this event as the record `component` emits at `time`.
    pub fn record(self, time: SimTime, component: impl Into<String>) -> TraceRecord {
        let mut fields: Vec<(&'static str, FieldValue)> = Vec::with_capacity(6);
        let mut put = |name: &'static str, value: FieldValue| fields.push((name, value));
        let kind = self.kind();
        match self {
            TraceEvent::StateTransition {
                mode,
                freq_mhz,
                share,
                frame,
            } => {
                put("mode", mode.into());
                put("freq_mhz", freq_mhz.into());
                if let Some(share) = share {
                    put("share", share.into());
                }
                if let Some(frame) = frame {
                    put("frame", frame.into());
                }
            }
            TraceEvent::PowerSegment {
                mode,
                freq_mhz,
                duration,
                current_ma,
                energy_mj,
            } => {
                put("mode", mode.into());
                put("freq_mhz", freq_mhz.into());
                put("duration_us", duration.into());
                put("current_ma", current_ma.into());
                put("energy_mj", energy_mj.into());
            }
            TraceEvent::Transaction {
                event,
                payload,
                bytes,
                frame,
                waiter,
                upstream_alive,
            } => {
                put("event", event.into());
                put("payload", payload.into());
                put("bytes", bytes.into());
                put("frame", frame.into());
                if let Some(waiter) = waiter {
                    put("waiter", waiter.into());
                }
                if let Some(alive) = upstream_alive {
                    put("upstream_alive", alive.into());
                }
            }
            TraceEvent::Io {
                dir,
                payload,
                frame,
            } => {
                put("dir", dir.into());
                put("payload", payload.into());
                put("frame", frame.into());
            }
            TraceEvent::FrameComplete {
                frame,
                latency_s,
                deadline_missed,
            } => {
                put("frame", frame.into());
                put("latency_s", latency_s.into());
                put("deadline_missed", deadline_missed.into());
            }
            TraceEvent::Rotation { frame, rotations } => {
                put("frame", frame.into());
                put("rotations", rotations.into());
            }
            TraceEvent::Migration {
                dead,
                merged_freq_mhz,
                feasible,
            } => {
                put("dead", dead.into());
                put("merged_freq_mhz", merged_freq_mhz.into());
                put("feasible", feasible.into());
            }
            TraceEvent::NodeDeath {
                delivered_mah,
                stranded_mah,
            } => {
                put("delivered_mah", delivered_mah.into());
                put("stranded_mah", stranded_mah.into());
            }
            TraceEvent::PolicyDecision {
                policy,
                frame,
                skew_soc,
                action,
                next_period_frames,
            } => {
                put("policy", policy.into());
                put("frame", frame.into());
                put("skew_soc", skew_soc.into());
                put("action", action.into());
                if let Some(period) = next_period_frames {
                    put("next_period_frames", period.into());
                }
            }
            TraceEvent::FaultInjected(InjectedFault::Link {
                from,
                to,
                frame,
                bytes,
                fault,
            }) => {
                put("from", from.into());
                put("to", to.into());
                put("frame", frame.into());
                put("bytes", bytes.into());
                match fault {
                    LinkFaultKind::Drop => put("fault", "drop".into()),
                    LinkFaultKind::BitError { flipped_bits } => {
                        put("fault", "bit_error".into());
                        put("flipped_bits", flipped_bits.into());
                    }
                    LinkFaultKind::Delay { delay } => {
                        put("fault", "delay".into());
                        put("delay_us", delay.into());
                    }
                }
            }
            TraceEvent::FaultInjected(InjectedFault::Brownout { duration }) => {
                put("fault", "brownout".into());
                put("duration_us", duration.into());
            }
        }
        TraceRecord {
            time,
            component: component.into(),
            kind,
            fields,
        }
    }
}

/// Sink for trace records.
///
/// Emit sites guard with [`Recorder::enabled`] so a disabled recorder costs
/// one branch, not a record allocation.
pub trait Recorder {
    /// Whether records should be built and submitted at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one record.
    fn record(&mut self, record: TraceRecord);

    /// Drain buffered records, if this recorder keeps any (memory
    /// recorders do; streaming and null recorders return nothing).
    fn take_records(&mut self) -> Vec<TraceRecord> {
        Vec::new()
    }

    /// Flush the sink at the end of a run and report the first I/O error
    /// it met, if any. `record` cannot fail, so a recorder with a fallible
    /// sink keeps its first error for this call.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The default recorder: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _record: TraceRecord) {}
}

/// Collects records in memory, in emission order.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    records: Vec<TraceRecord>,
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Streams records as JSON Lines to any writer (file, `Vec<u8>`, stdout).
pub struct JsonlRecorder {
    out: BufWriter<Box<dyn Write>>,
    /// Line buffer reused across records: each record is rendered into it
    /// with [`TraceRecord::write_jsonl`] and flushed as one `write_all`,
    /// so the per-record cost is formatting only, not allocation.
    buf: String,
    /// The first write error; once set, records are dropped unwritten
    /// and [`Recorder::finish`] returns it.
    error: Option<std::io::Error>,
}

impl JsonlRecorder {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Stream to an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write>) -> Self {
        JsonlRecorder {
            out: BufWriter::new(writer),
            buf: String::new(),
            error: None,
        }
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, record: TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        let _ = record.write_jsonl(&mut self.buf);
        self.buf.push('\n');
        // A failed sink does not abort a multi-hour simulation: the error
        // waits for `finish`.
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecord {
        TraceRecord::new(SimTime::from_secs(2), "node1", "state_transition")
            .with("mode", "computation")
            .with("freq_mhz", 103.2)
            .with("frame", 7u64)
            .with("alive", true)
    }

    fn to_jsonl(r: &TraceRecord) -> String {
        let mut out = String::new();
        r.write_jsonl(&mut out).unwrap();
        out
    }

    #[test]
    fn jsonl_has_fixed_key_order() {
        let line = to_jsonl(&sample());
        assert_eq!(
            line,
            "{\"t_us\": 2000000, \"component\": \"node1\", \"kind\": \"state_transition\", \
             \"mode\": \"computation\", \"freq_mhz\": 103.2, \"frame\": 7, \"alive\": true}"
        );
    }

    #[test]
    fn string_fields_are_escaped() {
        let r = TraceRecord::new(SimTime::ZERO, "a\"b", "k").with("s", "x\ny\\");
        let line = to_jsonl(&r);
        assert!(line.contains("\"a\\\"b\""));
        assert!(line.contains("\"x\\ny\\\\\""));
    }

    #[test]
    fn escaping_keeps_multibyte_text_and_control_codes() {
        let mut out = String::new();
        write_json_str(&mut out, "host->node2 é→\u{1}\r\"end\\").unwrap();
        assert_eq!(out, "\"host->node2 é→\\u0001\\r\\\"end\\\\\"");
        out.clear();
        write_json_str(&mut out, "").unwrap();
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn field_lookup() {
        let r = sample();
        assert_eq!(r.u64_field("frame"), Some(7));
        assert_eq!(r.str_field("mode"), Some("computation"));
        assert!(r.field("missing").is_none());
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(sample());
        assert!(r.take_records().is_empty());
    }

    #[test]
    fn memory_recorder_collects_and_drains() {
        let mut r = MemoryRecorder::new();
        assert!(r.enabled());
        r.record(sample());
        r.record(sample());
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.take_records().len(), 2);
        assert!(r.records.is_empty());
    }

    #[test]
    fn jsonl_recorder_streams_lines() {
        // Write into a shared buffer via a small adapter.
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut rec = JsonlRecorder::to_writer(Box::new(buf.clone()));
            rec.record(sample());
            rec.record(sample());
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        assert!(lines[0].starts_with("{\"t_us\": 2000000"));
    }

    #[test]
    fn jsonl_recorder_reports_its_first_write_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Past the writer's buffer, so `record` itself meets the error.
        let mut rec = JsonlRecorder::to_writer(Box::new(Full));
        for _ in 0..1000 {
            rec.record(sample());
        }
        assert!(rec.error.is_some());
        let err = rec.finish().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        // A sink that takes every byte finishes clean.
        let mut ok = JsonlRecorder::to_writer(Box::new(std::io::sink()));
        ok.record(sample());
        assert!(ok.finish().is_ok());
    }

    /// The pre-buffering rendering: a fresh `String` per record with the
    /// `component`/`kind` escaping routed through temporary [`FieldValue`]s
    /// — kept here as the byte-for-byte reference the buffered path must
    /// match.
    fn reference_jsonl(r: &TraceRecord) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"t_us\": {}", r.time.as_micros());
        let _ = write!(
            out,
            ", \"component\": {}",
            FieldValue::from(r.component.as_str())
        );
        let _ = write!(out, ", \"kind\": {}", FieldValue::from(r.kind));
        for (name, value) in &r.fields {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push('}');
        out
    }

    #[test]
    fn buffered_rendering_matches_reference_on_randomized_records() {
        use crate::rng::SimRng;
        // Pools exercising every value class and the string escapes, plus
        // the non-finite floats that must render as `null`.
        const KINDS: [&str; 4] = ["state_transition", "power_segment", "tx", "a\"b\\c"];
        const STRS: [&str; 5] = ["computation", "x\ny\\", "\"", "\t\r", ""];
        const FLOATS: [f64; 7] = [
            0.0,
            -1.5,
            103.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-12,
        ];
        let mut rng = SimRng::seed_from_u64(0xD015_D016);
        let mut buf = String::new();
        for i in 0..500 {
            let mut r = TraceRecord::new(
                SimTime::from_micros(rng.uniform_u64(0, 1 << 40)),
                STRS[rng.uniform_u64(0, STRS.len() as u64 - 1) as usize],
                KINDS[rng.uniform_u64(0, KINDS.len() as u64 - 1) as usize],
            );
            // 0..=6 fields — iteration 0 pins the empty-field-list case.
            let n_fields = if i == 0 { 0 } else { rng.uniform_u64(0, 6) };
            for _ in 0..n_fields {
                r = match rng.uniform_u64(0, 3) {
                    0 => r.with("u", rng.next_u64()),
                    1 => r.with(
                        "f",
                        FLOATS[rng.uniform_u64(0, FLOATS.len() as u64 - 1) as usize],
                    ),
                    2 => r.with(
                        "s",
                        STRS[rng.uniform_u64(0, STRS.len() as u64 - 1) as usize],
                    ),
                    _ => r.with("b", rng.uniform_u64(0, 1) == 1),
                };
            }
            buf.clear();
            r.write_jsonl(&mut buf).unwrap();
            assert_eq!(buf, reference_jsonl(&r), "record #{i}: {r:?}");
        }
    }
}
