//! The probe: a [`Recorder`] owned by the benchmark that turns a traced
//! run's records into compact per-layer operation streams for the replay.
//!
//! It keeps, per node, the power-state transitions (time, mode, level) and
//! the death; per run, the transfers in start order (route, bytes, frame)
//! and the number of `power_segment` records. For the streaming workload it
//! also forwards every record to a [`JsonlRecorder`], timing each `record`
//! call: that sum is the `sim.trace` layer's busy time.

use std::cell::RefCell;
use std::rc::Rc;

use dles_net::Endpoint;
use dles_power::{DvsTable, FreqLevel, Mode};
use dles_sim::{FieldValue, JsonlRecorder, Recorder, SimTime, TraceRecord};
use dles_units::Hertz;

use crate::clock::Clock;
use crate::workloads::CountingSink;

/// One operation of a node's power-state stream.
#[derive(Debug, Clone, Copy)]
pub enum NodeOp {
    Transition {
        at: SimTime,
        mode: Mode,
        level: FreqLevel,
    },
    Death {
        at: SimTime,
    },
}

/// One transfer, as it started.
#[derive(Debug, Clone, Copy)]
pub struct Xfer {
    pub at: SimTime,
    pub from: Endpoint,
    pub to: Endpoint,
    pub bytes: u64,
    pub frame: u64,
}

/// The JSONL recorder the streaming workload forwards to, with its sink
/// and the host time spent inside its `record` calls.
pub struct Forward {
    pub recorder: JsonlRecorder,
    pub sink: CountingSink,
    pub busy_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

/// Everything the probe captured from one run.
pub struct Capture {
    pub nodes: Vec<Vec<NodeOp>>,
    pub xfers: Vec<Xfer>,
    pub power_segments: u64,
    /// Records the probe could not interpret (a fidelity failure).
    pub unparsed: u64,
    pub forward: Option<Forward>,
    dvs: DvsTable,
    clock: Clock,
}

/// The recorder handed to the engine; the benchmark keeps the other
/// handle to the shared [`Capture`].
pub struct Probe(pub Rc<RefCell<Capture>>);

impl Probe {
    pub fn new(n_nodes: usize, dvs: DvsTable, forward_jsonl: bool, clock: Clock) -> Self {
        let forward = forward_jsonl.then(|| {
            let sink = CountingSink::default();
            Forward {
                recorder: JsonlRecorder::to_writer(Box::new(sink.clone())),
                sink,
                busy_ns: 0,
                first_ns: 0,
                last_ns: 0,
            }
        });
        Probe(Rc::new(RefCell::new(Capture {
            nodes: vec![Vec::new(); n_nodes],
            xfers: Vec::new(),
            power_segments: 0,
            unparsed: 0,
            forward,
            dvs,
            clock,
        })))
    }
}

impl Recorder for Probe {
    fn record(&mut self, record: TraceRecord) {
        let mut cap = self.0.borrow_mut();
        if cap.capture(&record).is_none() {
            cap.unparsed += 1;
        }
        let clock = cap.clock;
        if let Some(f) = cap.forward.as_mut() {
            let t0 = clock.now_ns();
            f.recorder.record(record);
            let t1 = clock.now_ns();
            if f.busy_ns == 0 {
                f.first_ns = t0;
            }
            f.busy_ns += t1 - t0;
            f.last_ns = t1;
        }
    }
}

impl Capture {
    /// File one record; `None` when a record the replay needs is malformed.
    fn capture(&mut self, r: &TraceRecord) -> Option<()> {
        match r.kind {
            "state_transition" => {
                let node = node_index(&r.component)?;
                let mode = mode_named(r.str_field("mode")?)?;
                let FieldValue::F64(mhz) = r.field("freq_mhz")? else {
                    return None;
                };
                let level = self.dvs.by_freq(Hertz::from_mhz(*mhz))?;
                self.nodes.get_mut(node)?.push(NodeOp::Transition {
                    at: r.time,
                    mode,
                    level,
                });
            }
            "node_death" => {
                let node = node_index(&r.component)?;
                self.nodes.get_mut(node)?.push(NodeOp::Death { at: r.time });
            }
            "power_segment" => self.power_segments += 1,
            "transaction" if r.str_field("event") == Some("start") => {
                let (from, to) = r.component.split_once("->")?;
                self.xfers.push(Xfer {
                    at: r.time,
                    from: endpoint(from)?,
                    to: endpoint(to)?,
                    bytes: r.u64_field("bytes")?,
                    frame: r.u64_field("frame")?,
                });
            }
            _ => {}
        }
        Some(())
    }

    /// Flush the forwarded trace (timed as part of `sim.trace`) and return
    /// its byte and line counts.
    pub fn finish_forward(&mut self) -> Option<(u64, u64)> {
        let clock = self.clock;
        let f = self.forward.as_mut()?;
        let t0 = clock.now_ns();
        let _ = f.recorder.flush();
        let t1 = clock.now_ns();
        f.busy_ns += t1 - t0;
        f.last_ns = t1;
        Some((f.sink.bytes.get(), f.sink.lines.get()))
    }
}

/// `node3` → 2 (trace components are 1-based).
fn node_index(component: &str) -> Option<usize> {
    component
        .strip_prefix("node")?
        .parse::<usize>()
        .ok()?
        .checked_sub(1)
}

fn endpoint(name: &str) -> Option<Endpoint> {
    if name == "host" {
        Some(Endpoint::Host)
    } else {
        node_index(name).map(Endpoint::Node)
    }
}

fn mode_named(name: &str) -> Option<Mode> {
    [Mode::Idle, Mode::Communication, Mode::Computation]
        .into_iter()
        .find(|m| m.name() == name)
}
