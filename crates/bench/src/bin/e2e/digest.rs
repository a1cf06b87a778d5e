//! Output digests: FNV-1a-64 over what each simulation reports.
//!
//! An experiment is digested through a fixed projection of its
//! [`ExperimentResult`] (every headline number and per-node outcome at
//! full precision, plus the counters named in [`COUNTER_KEYS`]) rather
//! than its `Debug` text, so a change that only adds a field or a counter
//! keeps the pinned digests; a change to any reported value does not.
//! A Monte Carlo study is digested the same way, trial by trial.

use dles_core::{render_montecarlo, ExperimentResult, MonteCarloReport};

/// The counters a digest covers: the `dles-core` keys of the README's
/// counter registry, minus the sweep-engine ones no workload here drives.
pub const COUNTER_KEYS: [&str; 24] = [
    "frames_emitted",
    "frames_completed",
    "deadline_misses",
    "duplicate_frames_dropped",
    "frames_lost_brownout",
    "frames_lost_migration",
    "transfers_data",
    "transfers_ack",
    "transfers_lost",
    "transfers_lost_offline",
    "retransmissions",
    "ack_timeouts",
    "recv_timeouts",
    "sends_abandoned",
    "state_transitions",
    "rotations",
    "rotations_deferred",
    "migrations",
    "node_deaths",
    "policy_decisions",
    "fault_drops",
    "fault_bit_errors",
    "fault_delays",
    "fault_brownouts",
];

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one experiment's reported outcome.
pub fn experiment(r: &ExperimentResult) -> u64 {
    let mut h = Fnv::new()
        .bytes(r.label.as_bytes())
        .u64(r.n_nodes as u64)
        .u64(r.lifetime.as_micros())
        .u64(r.frames_completed)
        .u64(r.deadline_misses)
        .f64(r.mean_frame_latency_s.get())
        .f64(r.p95_frame_latency_s.get());
    for n in &r.nodes {
        h = h
            .u64(n.death_time.map_or(u64::MAX, |t| t.as_micros()))
            .f64(n.delivered_mah.get())
            .f64(n.stranded_mah.get())
            .f64(n.mean_current_ma.get())
            .u64(n.dvs_transitions);
    }
    for key in COUNTER_KEYS {
        h = h.u64(r.counters.get(key));
    }
    h.finish()
}

/// Digest of an experiment that also streamed a JSONL trace.
pub fn traced_experiment(r: &ExperimentResult, trace_bytes: u64, trace_lines: u64) -> u64 {
    Fnv::new()
        .u64(experiment(r))
        .u64(trace_bytes)
        .u64(trace_lines)
        .finish()
}

/// Digest of a Monte Carlo study: its rendered report, as `repro
/// --montecarlo` prints it, and each trial's outcome at full precision,
/// since the report rounds its summaries.
pub fn montecarlo(report: &MonteCarloReport) -> u64 {
    let mut h = Fnv::new().bytes(render_montecarlo(report).as_bytes());
    for t in &report.trials {
        h = h
            .u64(t.trial as u64)
            .u64(t.jitter_seed)
            .u64(t.fault_seed)
            .f64(t.lifetime_h.get())
            .u64(t.frames_completed)
            .u64(t.deadline_misses);
        for key in COUNTER_KEYS {
            h = h.u64(t.counters.get(key));
        }
    }
    h.finish()
}
