//! Structured observability: typed trace events and pluggable recorders.
//!
//! Every instrumented component (power monitor, serial transactions, node
//! state machines, the pipeline itself) describes what happened as a
//! [`TraceEvent`] and hands it, with the [`Component`] that emitted it, to
//! a [`Recorder`] through [`Recorder::event`]. The enum is the trace
//! schema: one variant per record shape, its fields typed and listed in
//! emit order by the one field walk every rendering reads. Three
//! recorders cover the workspace's needs:
//!
//! * [`NullRecorder`] — the default; `enabled()` is `false`, so emit sites
//!   skip even building the event (zero overhead on long discharge runs);
//! * [`MemoryRecorder`] — collects owned [`TraceRecord`]s, built by
//!   [`TraceEvent::record`]; the timeline generator rebuilds the paper's
//!   Figs. 2/3/9 from this stream;
//! * [`JsonlRecorder`] — renders each event straight into one JSON object
//!   per line, with no owned record in between; with a fixed seed the
//!   byte stream is identical run-to-run, making traces golden artifacts
//!   for regression testing.
//!
//! The JSONL schema per line, keys always in this order:
//!
//! ```json
//! {"t_us": 1817304, "component": "node2", "kind": "state_transition",
//!  "mode": "computation", "freq_mhz": 103.2, "share": 1, "frame": 0}
//! ```
//!
//! `t_us` is the simulation clock in microseconds; `component` tags the
//! emitter (`node1`, `host->node2`, `pipeline`); `kind` names the event
//! type; every following key is event-specific, written in the order its
//! [`TraceEvent`] variant documents. A [`TraceRecord`] renders the same
//! bytes as the event it was built from: both lines are written by the
//! same head, key and value writers.

use crate::time::SimTime;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A communication endpoint: the host or one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The host computer (external source, destination, and hub).
    Host,
    /// Node `i` (0-based).
    Node(usize),
}

impl Endpoint {
    /// `host`, or `node{i + 1}`: trace names are 1-based.
    fn write_name<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        match self {
            Endpoint::Host => out.write_str("host"),
            Endpoint::Node(i) => {
                out.write_str("node")?;
                write_u64(out, i as u64 + 1)
            }
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_name(f)
    }
}

/// Who emitted a trace event: its record's `component`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// `host`.
    Host,
    /// `node{i + 1}`: node `i` (0-based).
    Node(usize),
    /// `pipeline`: the scheduler's rotations and policy decisions.
    Pipeline,
    /// `link`: the link layer's `fault_injected` records.
    Link,
    /// `a->b`: one direction of a transfer, the only place the
    /// convention is spelled.
    Wire(Endpoint, Endpoint),
}

impl From<Endpoint> for Component {
    fn from(e: Endpoint) -> Self {
        match e {
            Endpoint::Host => Component::Host,
            Endpoint::Node(i) => Component::Node(i),
        }
    }
}

impl Component {
    /// The component's name. It never needs a JSON escape.
    fn write_name<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        match self {
            Component::Host => Endpoint::Host.write_name(out),
            Component::Node(i) => Endpoint::Node(i).write_name(out),
            Component::Pipeline => out.write_str("pipeline"),
            Component::Link => out.write_str("link"),
            Component::Wire(a, b) => {
                a.write_name(out)?;
                out.write_str("->")?;
                b.write_name(out)
            }
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_name(f)
    }
}

/// One field value as the field walk yields it, borrowed: what every
/// rendering reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field<'a> {
    U64(u64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
    /// A component or endpoint, written as its name in a JSON string.
    Name(Component),
}

/// A single typed field value in an owned trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl FieldValue {
    fn as_field(&self) -> Field<'_> {
        match self {
            FieldValue::U64(v) => Field::U64(*v),
            FieldValue::F64(v) => Field::F64(*v),
            FieldValue::Str(s) => Field::Str(s),
            FieldValue::Bool(b) => Field::Bool(*b),
        }
    }
}

impl From<Field<'_>> for FieldValue {
    fn from(v: Field<'_>) -> Self {
        match v {
            Field::U64(v) => FieldValue::U64(v),
            Field::F64(v) => FieldValue::F64(v),
            Field::Str(s) => FieldValue::Str(s.to_owned()),
            Field::Bool(b) => FieldValue::Bool(b),
            Field::Name(c) => FieldValue::Str(c.to_string()),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
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
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl fmt::Display for FieldValue {
    /// JSON-compatible rendering (strings escaped and quoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self.as_field())
    }
}

/// Write `v` in decimal, the bytes `{}` writes, without going through
/// `fmt::Arguments`.
fn write_u64<W: fmt::Write + ?Sized>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[start..]).map_err(|_| fmt::Error)?)
}

/// The one value writer: JSON text for a field value. Floats keep `{}`
/// `Display`, the shortest text that reads back to the same bits; a
/// non-finite one is `null`.
fn write_value<W: fmt::Write + ?Sized>(out: &mut W, value: Field<'_>) -> fmt::Result {
    match value {
        Field::U64(v) => write_u64(out, v),
        Field::F64(v) if v.is_finite() => write!(out, "{v}"),
        Field::F64(_) => out.write_str("null"),
        Field::Str(s) => write_json_str(out, s),
        Field::Bool(b) => out.write_str(if b { "true" } else { "false" }),
        Field::Name(c) => {
            out.write_str("\"")?;
            c.write_name(out)?;
            out.write_str("\"")
        }
    }
}

/// `, "name": value`: one key of a line after its first.
fn write_field<W: fmt::Write + ?Sized>(out: &mut W, name: &str, value: Field<'_>) -> fmt::Result {
    out.write_str(", \"")?;
    out.write_str(name)?;
    out.write_str("\": ")?;
    write_value(out, value)
}

/// A line's fixed head, `{"t_us": …, "component": …, "kind": …`, which
/// the fields and a closing `}` follow.
fn write_head<W: fmt::Write + ?Sized>(
    out: &mut W,
    time: SimTime,
    component: Field<'_>,
    kind: &str,
) -> fmt::Result {
    out.write_str("{\"t_us\": ")?;
    write_u64(out, time.as_micros())?;
    write_field(out, "component", component)?;
    write_field(out, "kind", Field::Str(kind))
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

/// One owned trace record: when, who, what, plus typed fields. What
/// [`MemoryRecorder`] keeps and the timeline renderer reads.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub time: SimTime,
    /// Component tag, e.g. `"node1"`, `"host"`, `"host->node2"`.
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
    /// order — so byte-identical inputs yield byte-identical lines.
    pub(crate) fn write_jsonl<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        write_head(out, self.time, Field::Str(&self.component), self.kind)?;
        for (name, value) in &self.fields {
            write_field(out, name, value.as_field())?;
        }
        out.write_str("}")
    }
}

/// One event the simulator traces: the single declaration of the trace
/// schema. Each variant renders to one record `kind` (the variant name in
/// snake case), and its fields become the record's keys in the order
/// listed. A `None` optional field is left out of the record.
#[derive(Debug, Clone, Copy, PartialEq)]
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
        waiter: Option<Endpoint>,
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
        dead: Endpoint,
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// A fault on one transfer. Keys: `from`, `to`, `frame`, `bytes`,
    /// `fault`, then the [`LinkFaultKind`]'s own detail.
    Link {
        from: Endpoint,
        to: Endpoint,
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

    /// The field walk: call `put` with each of this event's keys and
    /// values, in emit order. The one place a variant's fields are
    /// listed; every rendering of an event reads it.
    fn fields(&self, mut put: impl FnMut(&'static str, Field<'static>)) {
        use Field::{Bool, Name, Str, F64, U64};
        match *self {
            TraceEvent::StateTransition {
                mode,
                freq_mhz,
                share,
                frame,
            } => {
                put("mode", Str(mode));
                put("freq_mhz", F64(freq_mhz));
                if let Some(share) = share {
                    put("share", U64(share as u64));
                }
                if let Some(frame) = frame {
                    put("frame", U64(frame));
                }
            }
            TraceEvent::PowerSegment {
                mode,
                freq_mhz,
                duration,
                current_ma,
                energy_mj,
            } => {
                put("mode", Str(mode));
                put("freq_mhz", F64(freq_mhz));
                put("duration_us", U64(duration.as_micros()));
                put("current_ma", F64(current_ma));
                put("energy_mj", F64(energy_mj));
            }
            TraceEvent::Transaction {
                event,
                payload,
                bytes,
                frame,
                waiter,
                upstream_alive,
            } => {
                put("event", Str(event));
                put("payload", Str(payload));
                put("bytes", U64(bytes));
                put("frame", U64(frame));
                if let Some(waiter) = waiter {
                    put("waiter", Name(waiter.into()));
                }
                if let Some(alive) = upstream_alive {
                    put("upstream_alive", Bool(alive));
                }
            }
            TraceEvent::Io {
                dir,
                payload,
                frame,
            } => {
                put("dir", Str(dir));
                put("payload", Str(payload));
                put("frame", U64(frame));
            }
            TraceEvent::FrameComplete {
                frame,
                latency_s,
                deadline_missed,
            } => {
                put("frame", U64(frame));
                put("latency_s", F64(latency_s));
                put("deadline_missed", Bool(deadline_missed));
            }
            TraceEvent::Rotation { frame, rotations } => {
                put("frame", U64(frame));
                put("rotations", U64(rotations));
            }
            TraceEvent::Migration {
                dead,
                merged_freq_mhz,
                feasible,
            } => {
                put("dead", Name(dead.into()));
                put("merged_freq_mhz", F64(merged_freq_mhz));
                put("feasible", Bool(feasible));
            }
            TraceEvent::NodeDeath {
                delivered_mah,
                stranded_mah,
            } => {
                put("delivered_mah", F64(delivered_mah));
                put("stranded_mah", F64(stranded_mah));
            }
            TraceEvent::PolicyDecision {
                policy,
                frame,
                skew_soc,
                action,
                next_period_frames,
            } => {
                put("policy", Str(policy));
                put("frame", U64(frame));
                put("skew_soc", F64(skew_soc));
                put("action", Str(action));
                if let Some(period) = next_period_frames {
                    put("next_period_frames", U64(period));
                }
            }
            TraceEvent::FaultInjected(InjectedFault::Link {
                from,
                to,
                frame,
                bytes,
                fault,
            }) => {
                put("from", Name(from.into()));
                put("to", Name(to.into()));
                put("frame", U64(frame));
                put("bytes", U64(bytes));
                match fault {
                    LinkFaultKind::Drop => put("fault", Str("drop")),
                    LinkFaultKind::BitError { flipped_bits } => {
                        put("fault", Str("bit_error"));
                        put("flipped_bits", U64(flipped_bits));
                    }
                    LinkFaultKind::Delay { delay } => {
                        put("fault", Str("delay"));
                        put("delay_us", U64(delay.as_micros()));
                    }
                }
            }
            TraceEvent::FaultInjected(InjectedFault::Brownout { duration }) => {
                put("fault", Str("brownout"));
                put("duration_us", U64(duration.as_micros()));
            }
        }
    }

    /// This event as the owned record `component` emits at `time`.
    pub fn record(self, time: SimTime, component: Component) -> TraceRecord {
        let mut fields = Vec::with_capacity(6);
        self.fields(|name, value| fields.push((name, FieldValue::from(value))));
        TraceRecord {
            time,
            component: component.to_string(),
            kind: self.kind(),
            fields,
        }
    }

    /// Write the line [`TraceEvent::record`]'s record would write, with no
    /// record in between.
    fn write_jsonl<W: fmt::Write + ?Sized>(
        &self,
        out: &mut W,
        time: SimTime,
        component: Component,
    ) -> fmt::Result {
        write_head(out, time, Field::Name(component), self.kind())?;
        let mut written = Ok(());
        self.fields(|name, value| written = written.and_then(|()| write_field(out, name, value)));
        written?;
        out.write_str("}")
    }
}

/// Sink for trace events.
///
/// Emit sites guard with [`Recorder::enabled`] so a disabled recorder costs
/// one branch, not an event.
pub trait Recorder {
    /// Whether events should be built and submitted at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one owned record.
    fn record(&mut self, record: TraceRecord);

    /// Consume the `event` that `component` emitted at `time`. By default
    /// it becomes an owned [`TraceRecord`] for [`Recorder::record`]; a
    /// recorder that only renders the event overrides this to skip it.
    fn event(&mut self, time: SimTime, component: Component, event: TraceEvent) {
        self.record(event.record(time, component));
    }

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
    fn event(&mut self, _time: SimTime, _component: Component, _event: TraceEvent) {}
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

/// Streams events as JSON Lines to any writer (file, `Vec<u8>`, stdout).
pub struct JsonlRecorder {
    out: BufWriter<Box<dyn Write>>,
    /// Line buffer reused across lines: each event (or record) is rendered
    /// into it and flushed as one `write_all`, so the per-line cost is
    /// formatting only, not allocation.
    buf: String,
    /// The first write error; once set, lines are dropped unwritten and
    /// [`Recorder::finish`] returns it.
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

    /// Render one line into the reused buffer and write it out, unless the
    /// sink has already failed.
    fn write_line(&mut self, render: impl FnOnce(&mut String) -> fmt::Result) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        let _ = render(&mut self.buf);
        self.buf.push('\n');
        // A failed sink does not abort a multi-hour simulation: the error
        // waits for `finish`.
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, record: TraceRecord) {
        self.write_line(|buf| record.write_jsonl(buf));
    }

    fn event(&mut self, time: SimTime, component: Component, event: TraceEvent) {
        self.write_line(|buf| event.write_jsonl(buf, time, component));
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
    use crate::rng::SimRng;

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

    /// A writer whose bytes stay readable while a recorder owns it.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn take(&self) -> Vec<u8> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    #[test]
    fn jsonl_recorder_streams_lines() {
        let buf = Shared::default();
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

    /// The host, node 0 (`node1`) or a node with a multi-digit name.
    fn random_endpoint(rng: &mut SimRng) -> Endpoint {
        match rng.uniform_u64(0, 2) {
            0 => Endpoint::Host,
            1 => Endpoint::Node(0),
            _ => Endpoint::Node(rng.uniform_u64(1, 1 << 20) as usize),
        }
    }

    /// A random event of any shape: every variant, fault kind and
    /// optional key (present or absent), with floats that include the
    /// non-finite ones rendered `null` and text that needs escapes.
    fn random_event(rng: &mut SimRng) -> TraceEvent {
        const STRS: [&str; 5] = ["computation", "x\ny\\", "\"", "\t\r", ""];
        const FLOATS: [f64; 8] = [
            0.0,
            -1.5,
            103.2,
            39.9959052505,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-12,
        ];
        let s = |rng: &mut SimRng| STRS[rng.uniform_u64(0, 4) as usize];
        let f = |rng: &mut SimRng| FLOATS[rng.uniform_u64(0, 7) as usize];
        let t = |rng: &mut SimRng| SimTime::from_micros(rng.uniform_u64(0, 1 << 40));
        let coin = |rng: &mut SimRng| rng.uniform_u64(0, 1) == 1;
        match rng.uniform_u64(0, 10) {
            0 => TraceEvent::StateTransition {
                mode: s(rng),
                freq_mhz: f(rng),
                share: coin(rng).then(|| rng.uniform_u64(0, 8) as usize),
                frame: coin(rng).then(|| rng.next_u64()),
            },
            1 => TraceEvent::PowerSegment {
                mode: s(rng),
                freq_mhz: f(rng),
                duration: t(rng),
                current_ma: f(rng),
                energy_mj: f(rng),
            },
            2 => TraceEvent::Transaction {
                event: s(rng),
                payload: s(rng),
                bytes: rng.next_u64(),
                frame: rng.next_u64(),
                waiter: coin(rng).then(|| random_endpoint(rng)),
                upstream_alive: coin(rng).then(|| coin(rng)),
            },
            3 => TraceEvent::Io {
                dir: s(rng),
                payload: s(rng),
                frame: rng.next_u64(),
            },
            4 => TraceEvent::FrameComplete {
                frame: rng.next_u64(),
                latency_s: f(rng),
                deadline_missed: coin(rng),
            },
            5 => TraceEvent::Rotation {
                frame: rng.next_u64(),
                rotations: rng.next_u64(),
            },
            6 => TraceEvent::Migration {
                dead: random_endpoint(rng),
                merged_freq_mhz: f(rng),
                feasible: coin(rng),
            },
            7 => TraceEvent::NodeDeath {
                delivered_mah: f(rng),
                stranded_mah: f(rng),
            },
            8 => TraceEvent::PolicyDecision {
                policy: s(rng),
                frame: rng.next_u64(),
                skew_soc: f(rng),
                action: s(rng),
                next_period_frames: coin(rng).then(|| rng.next_u64()),
            },
            9 => TraceEvent::FaultInjected(InjectedFault::Brownout { duration: t(rng) }),
            _ => TraceEvent::FaultInjected(InjectedFault::Link {
                from: random_endpoint(rng),
                to: random_endpoint(rng),
                frame: rng.next_u64(),
                bytes: rng.next_u64(),
                fault: match rng.uniform_u64(0, 2) {
                    0 => LinkFaultKind::Drop,
                    1 => LinkFaultKind::BitError {
                        flipped_bits: rng.next_u64(),
                    },
                    _ => LinkFaultKind::Delay { delay: t(rng) },
                },
            }),
        }
    }

    /// The line `JsonlRecorder::event` renders straight from an event is
    /// the line `JsonlRecorder::record` writes for the event's record.
    #[test]
    fn direct_event_lines_match_their_records_on_randomized_events() {
        let mut rng = SimRng::seed_from_u64(0xD015_E7E7);
        let (direct, owned) = (Shared::default(), Shared::default());
        let mut by_event = JsonlRecorder::to_writer(Box::new(direct.clone()));
        let mut by_record = JsonlRecorder::to_writer(Box::new(owned.clone()));
        for i in 0..2000 {
            let time = SimTime::from_micros(rng.uniform_u64(0, 1 << 40));
            let component = match rng.uniform_u64(0, 4) {
                0 => Component::Host,
                1 => Component::from(random_endpoint(&mut rng)),
                2 => Component::Pipeline,
                3 => Component::Link,
                _ => Component::Wire(random_endpoint(&mut rng), random_endpoint(&mut rng)),
            };
            let event = random_event(&mut rng);
            by_event.event(time, component, event);
            by_record.record(event.record(time, component));
            by_event.flush().unwrap();
            by_record.flush().unwrap();
            let (line, reference) = (direct.take(), owned.take());
            assert_eq!(
                String::from_utf8(line).unwrap(),
                String::from_utf8(reference).unwrap(),
                "event #{i}: {event:?} from {component:?}"
            );
        }
    }
}
