//! # dles-core — distributed DVS for low-power embedded pipelines
//!
//! The primary contribution of Liu & Chou, *"Distributed Embedded Systems
//! for Low Power: A Case Study"* (IPPS 2004), rebuilt as a library on top
//! of the workspace substrates:
//!
//! * [`workload`] — a node's per-frame task triple RECV → PROC → SEND
//!   under the frame deadline `D` (§3, Figs. 2–3);
//! * [`partition`] — the feasibility analysis behind Fig. 8: enumerate the
//!   contiguous partitionings of the ATR chain, compute each node's
//!   minimum feasible DVS level, pick the best scheme (§5.3);
//! * [`policy`] — the scheduling policies: the fixed DVS rules
//!   (run-at-level and *DVS during I/O*, §5.2) plus the adaptive
//!   battery-state-aware layer that observes per-node SoC estimates and
//!   decides online when the §5.5 rotation wave launches;
//! * [`node`] — the simulated Itsy node: CPU power state + battery, with
//!   each power segment settled once into the battery, the mean-current
//!   monitor and the per-mode energy split;
//! * [`pipeline`] — the discrete-event model of the whole distributed
//!   system: host, serial hub, N nodes, and the [`Technique`] a run
//!   adds: the §5.4 acknowledgment and timeout protocol with failure
//!   detection (its private `protocol` module), or §5.5 node rotation,
//!   each with the paper's fixed protocol numbers;
//! * [`faults`] — seeded fault injection: serial bit errors (judged
//!   against the PPP framing), drops, delays, transient brownouts, battery
//!   variance;
//! * [`montecarlo`] — the Monte Carlo robustness harness: N seeded trials
//!   under a fault profile, sharded across threads, reproducibly
//!   aggregated;
//! * [`metrics`] — the paper's metrics `T(N)`, `F(N)`, `T_norm`, `R_norm`
//!   (§4.5);
//! * [`experiment`] — ready-made configurations for every experiment of
//!   §6 (0A, 0B, 1, 1A, 2, 2A, 2B, 2C) with the paper's measured numbers;
//! * [`sweep`] — the one batch runner, [`run_jobs`]: any list of
//!   configurations across scoped worker threads, with byte-identical
//!   output for any worker count; and the studies built on it (Fig. 8
//!   schemes, the §5.3 N-node scaling study, scheduling policies);
//! * [`report`] — the tables and figure data of the paper, regenerated.
//!
//! ```no_run
//! use dles_core::experiment::Experiment;
//! use dles_core::run_jobs;
//!
//! // Both runs in parallel (0 = one worker per core), results in job order.
//! let results = run_jobs(&[Experiment::Exp1.config(), Experiment::Exp2C.config()], 0);
//! let (baseline, rotation) = (&results[0], &results[1]);
//! // Node rotation extends normalized battery life vs. the baseline.
//! assert!(rotation.normalized_life_hours() > baseline.normalized_life_hours());
//! ```
#![forbid(unsafe_code)]

pub mod experiment;
pub mod faults;
pub mod metrics;
pub mod montecarlo;
pub mod node;
pub mod partition;
pub mod pipeline;
pub mod policy;
pub mod report;
pub mod sweep;
pub mod timeline;
pub mod workload;

pub use experiment::policy_config;
pub use faults::FaultProfile;
pub use metrics::ExperimentResult;
pub use montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig, MonteCarloReport};
pub use pipeline::{
    build_engine, build_engine_with, run_pipeline, run_pipeline_with, PipelineConfig,
    PipelineWorld, Technique,
};
pub use sweep::run_jobs;
pub use workload::SystemConfig;
