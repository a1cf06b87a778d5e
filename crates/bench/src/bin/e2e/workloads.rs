//! The four workloads, built only through the simulator's public
//! constructors. The benchmark generates every input in this process from
//! the workload name and the seed; the simulator sees only the configs.

use std::cell::Cell;
use std::io::Write;
use std::rc::Rc;

use dles_battery::packs::itsy_pack_b;
use dles_core::experiment::Experiment;
use dles_core::montecarlo::trial_config;
use dles_core::node::BatterySpec;
use dles_core::{
    build_engine, build_engine_with, run_monte_carlo, run_pipeline, run_pipeline_with,
    ExperimentResult, FaultProfile, MonteCarloConfig, PipelineConfig, PipelineWorld,
};
use dles_sim::{Engine, JsonlRecorder, SimTime};

use crate::digest;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// EXP-2C to battery death: KiBaM dominates host time.
    Exp2c,
    /// EXP-2C on an ideal battery: KiBaM bypassed, the engine dominates.
    Exp2cIdeal,
    /// EXP-2C streaming its JSONL trace: the only workload with tracing on.
    Exp2cJsonl,
    /// Four EXP-2B trials over a lossy link: recovery, fault draws, the
    /// transfer table and `par_map` fan-out.
    Mc2bLossy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exp2c,
        Workload::Exp2cIdeal,
        Workload::Exp2cJsonl,
        Workload::Mc2bLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exp2c => "exp2c",
            Workload::Exp2cIdeal => "exp2c_ideal",
            Workload::Exp2cJsonl => "exp2c_jsonl",
            Workload::Mc2bLossy => "mc2b_lossy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The seed the digests are pinned for.
pub const DEFAULT_SEED: u64 = 42;

/// Monte Carlo trials per `mc2b_lossy` pass.
pub const MC_TRIALS: usize = 4;

/// Host cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload at one seed: everything a pass needs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Simulated horizon override (tests); `None` runs to battery death.
    pub horizon: Option<SimTime>,
    /// Simulations per pass: 1, or the Monte Carlo trial count.
    pub sims: usize,
    /// Worker threads of a pass; only the Monte Carlo workload uses more
    /// than one.
    pub workers: usize,
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mc = workload == Workload::Mc2bLossy;
        Spec {
            workload,
            seed,
            horizon: None,
            sims: if mc { MC_TRIALS } else { 1 },
            workers: if mc { MC_TRIALS.min(cores()) } else { 1 },
        }
    }

    pub fn is_mc(&self) -> bool {
        self.workload == Workload::Mc2bLossy
    }

    fn streams_trace(&self) -> bool {
        self.workload == Workload::Exp2cJsonl
    }

    /// The configuration every simulation of the workload starts from.
    fn base_config(&self) -> PipelineConfig {
        let mut cfg = match self.workload {
            Workload::Exp2c | Workload::Exp2cJsonl => Experiment::Exp2C.config(),
            Workload::Exp2cIdeal => PipelineConfig {
                battery: BatterySpec::Ideal {
                    capacity_mah: itsy_pack_b().kibam.capacity_mah,
                },
                ..Experiment::Exp2C.config()
            },
            Workload::Mc2bLossy => Experiment::Exp2B.config(),
        };
        if let Some(h) = self.horizon {
            cfg.horizon = h;
        }
        if !self.is_mc() {
            // The paper's 50–100 ms serial startup jitter: it moves event
            // times, and with them the frame count by about one frame.
            cfg.jitter_seed = Some(self.seed);
        }
        cfg
    }

    fn mc_config(&self) -> MonteCarloConfig {
        MonteCarloConfig {
            base: self.base_config(),
            trials: self.sims,
            master_seed: self.seed,
            profile: FaultProfile::lossy_link(),
            threads: self.workers,
        }
    }

    /// The configuration of simulation `i` of a pass.
    pub fn sim_config(&self, i: usize) -> PipelineConfig {
        let base = self.base_config();
        if self.is_mc() {
            trial_config(&base, FaultProfile::lossy_link(), self.seed, i)
        } else {
            base
        }
    }

    /// The digest every pass must reproduce, pinned for the default seed
    /// at full length. Other runs check each pass against their first.
    pub fn pinned_digest(&self) -> Option<u64> {
        if self.seed != DEFAULT_SEED || self.horizon.is_some() {
            return None;
        }
        Some(match self.workload {
            Workload::Exp2c => 0x24e9_dff4_95a8_b0aa,
            Workload::Exp2cIdeal => 0xda58_8956_40ee_a837,
            Workload::Exp2cJsonl => 0xc73e_7ef9_214f_5c7c,
            Workload::Mc2bLossy => 0xa0a4_217d_d731_09ce,
        })
    }

    /// Build one pass's inputs and one engine, which the caller drops
    /// without running: the set-up a pass pays before its first event.
    pub fn setup(&self) -> Engine<PipelineWorld> {
        if self.is_mc() {
            let mc = self.mc_config();
            build_engine(trial_config(&mc.base, mc.profile, mc.master_seed, 0))
        } else if self.streams_trace() {
            let sink = CountingSink::default();
            build_engine_with(
                self.base_config(),
                Box::new(JsonlRecorder::to_writer(Box::new(sink))),
            )
        } else {
            build_engine(self.base_config())
        }
    }

    /// Run one simulation untraced, the way the workload runs it.
    pub fn simulate(&self, cfg: PipelineConfig) -> Sim {
        if self.streams_trace() {
            let sink = CountingSink::default();
            let result = run_pipeline_with(
                cfg,
                Box::new(JsonlRecorder::to_writer(Box::new(sink.clone()))),
            );
            let trace = Some((sink.bytes.get(), sink.lines.get()));
            Sim { result, trace }
        } else {
            Sim {
                result: run_pipeline(cfg),
                trace: None,
            }
        }
    }

    /// One pass: every simulation of the workload, `workers` at a time.
    pub fn pass(&self) -> Pass {
        if self.is_mc() {
            let report = run_monte_carlo(&self.mc_config());
            Pass {
                sims: report.trials.len() as u64,
                frames: report.trials.iter().map(|t| t.frames_completed).sum(),
                digest: digest::montecarlo(&report),
            }
        } else {
            let sim = self.simulate(self.sim_config(0));
            Pass {
                sims: 1,
                frames: sim.result.frames_completed,
                digest: sim.digest(),
            }
        }
    }
}

/// What one untraced simulation produced.
#[derive(Debug)]
pub struct Sim {
    pub result: ExperimentResult,
    /// Bytes and lines of the JSONL trace, for the streaming workload.
    pub trace: Option<(u64, u64)>,
}

impl Sim {
    pub fn digest(&self) -> u64 {
        match self.trace {
            Some((bytes, lines)) => digest::traced_experiment(&self.result, bytes, lines),
            None => digest::experiment(&self.result),
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    pub sims: u64,
    pub frames: u64,
    pub digest: u64,
}

/// In-memory trace sink that keeps only byte and line counts, so trace
/// emission is measured without a disk in the loop.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    pub bytes: Rc<Cell<u64>>,
    pub lines: Rc<Cell<u64>>,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.set(self.bytes.get() + buf.len() as u64);
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.lines.set(self.lines.get() + lines);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
