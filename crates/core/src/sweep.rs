//! Deterministic parallel sweep engine with a keyed simulation cache.
//!
//! Every headline result of the paper is a *sweep* — lifetime across the
//! six §6 configurations, the Fig. 8 partition schemes, Fig. 10 scaling
//! over 1..N nodes — and the sweeps overlap: the scaling study, the
//! lifetime-based partition ranking and the Fig. 8 comparison all
//! re-simulate byte-identical configurations. This module generalizes the
//! Monte Carlo scoped-thread work-pull (shared index, index-ordered
//! result slots; see [`dles_sim::par`]) to arbitrary config fan-outs and
//! adds a keyed result cache so a configuration is simulated **at most
//! once per engine**, within and across sweeps.
//!
//! Determinism contract:
//!
//! * [`SimKey`] is a canonical 128-bit hash of the *semantic* pipeline
//!   configuration — label excluded, seeds and horizon included — so two
//!   jobs that would produce identical simulations share a key.
//! * [`SweepEngine::run`] returns results in job order, byte-identical
//!   for any worker count and any cache state (a hit only skips work; the
//!   returned rows are indistinguishable from a cold run).
//! * The cache is a `BTreeMap` (D003: no hash-ordered iteration can leak
//!   into output) behind the engine's one mutex, and the hit/miss counters
//!   are a pure function of the job list and prior cache contents — never
//!   of scheduling.

use crate::metrics::ExperimentResult;
use crate::pipeline::{run_pipeline, PipelineConfig};
use crate::workload::SystemConfig;
use dles_sim::{par_map_slice, CounterSet};
use dles_units::{Hertz, Hours};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Canonical identity of one simulation: a 128-bit FNV-1a hash of the
/// pipeline configuration's canonical field-by-field encoding with the
/// display label excluded (the label names a run, it does not change
/// physics), so the key covers system constants, shares, levels, DVS +
/// scheduling policy, battery, rotation/recovery, fault plan, jitter seed
/// and horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimKey {
    hi: u64,
    lo: u64,
}

/// The canonical semantic encoding behind [`SimKey`]. The exhaustive
/// destructuring is the point: adding a `PipelineConfig` field without
/// deciding whether it is physics refuses to compile here, instead of
/// silently minting colliding keys (the regression that motivated this —
/// a policy field invisible to the key let two different-policy jobs
/// share one cached `ExperimentResult`).
fn canonical_encoding(cfg: &PipelineConfig) -> String {
    let PipelineConfig {
        label: _,
        sys,
        shares,
        levels,
        policy,
        scheduling,
        battery,
        current_model,
        rotation,
        recovery,
        io_enabled,
        jitter_seed,
        faults,
        battery_scales,
        horizon,
    } = cfg;
    format!(
        "sys={sys:?};shares={shares:?};levels={levels:?};policy={policy:?};\
         scheduling={scheduling:?};battery={battery:?};current={current_model:?};\
         rotation={rotation:?};recovery={recovery:?};io={io_enabled:?};\
         jitter={jitter_seed:?};faults={faults:?};scales={battery_scales:?};\
         horizon={horizon:?}"
    )
}

impl SimKey {
    /// Key of a pipeline configuration.
    pub fn of(cfg: &PipelineConfig) -> SimKey {
        Self::of_bytes(canonical_encoding(cfg).as_bytes())
    }

    /// FNV-1a 128 over raw bytes (split into two u64 halves for `Ord`).
    fn of_bytes(bytes: &[u8]) -> SimKey {
        const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        let mut h = OFFSET;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
        SimKey {
            hi: (h >> 64) as u64,
            lo: h as u64,
        }
    }
}

/// The sweep engine: a shared, thread-safe simulation cache plus the
/// deterministic fan-out runner. One engine per process (or per CLI
/// invocation) dedupes identical simulations across every sweep routed
/// through it.
#[derive(Debug, Default)]
pub struct SweepEngine {
    state: Mutex<SweepState>,
}

/// Everything the engine shares between calls, behind its one lock. A
/// panic in another thread cannot leave it half updated (every write is
/// one `insert` or `add`), so a poisoned lock is recovered.
#[derive(Debug, Default)]
struct SweepState {
    cache: BTreeMap<SimKey, ExperimentResult>,
    counters: CounterSet,
}

impl SweepEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run every job, in parallel, reusing cached results where the key
    /// matches. Returns one result per job, in job order; `threads` = 0
    /// means one worker per core and never affects the output.
    ///
    /// Counters accumulated per call (observable via [`Self::counters`]):
    /// `sweep_jobs`, `sweep_cache_hits` (key already cached before this
    /// call), `sweep_dedup_hits` (key repeated within this call),
    /// `sweep_sims_run` (simulations actually executed).
    pub fn run(&self, jobs: &[PipelineConfig], threads: usize) -> Vec<ExperimentResult> {
        let keys: Vec<SimKey> = jobs.iter().map(SimKey::of).collect();
        // Decide hits/misses/dedups and count them under the lock,
        // *before* any parallel work, so the counters are a pure function
        // of jobs × cache state. The guard drops before the fan-out.
        let mut work: Vec<(SimKey, &PipelineConfig)> = Vec::new();
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let (mut hits, mut dedups) = (0u64, 0u64);
            for (key, job) in keys.iter().zip(jobs) {
                if state.cache.contains_key(key) {
                    hits += 1;
                } else if work.iter().any(|(k, _)| k == key) {
                    dedups += 1;
                } else {
                    work.push((*key, job));
                }
            }
            let c = &mut state.counters;
            c.add("sweep_jobs", jobs.len() as u64);
            c.add("sweep_cache_hits", hits);
            c.add("sweep_dedup_hits", dedups);
            c.add("sweep_sims_run", work.len() as u64);
        }
        // Start the heaviest simulations first so the work-pull packs
        // them tightly: sort by descending node count, stable on first
        // appearance. Purely a scheduling hint — slots, cache and output
        // order are all keyed, so the result cannot observe it.
        let mut order: Vec<usize> = (0..work.len()).collect();
        order.sort_by_key(|&i| (usize::MAX - work[i].1.n_nodes(), i));
        work = order.into_iter().map(|i| work[i]).collect();
        let fresh = par_map_slice(&work, threads, |_, (_, cfg)| run_pipeline((*cfg).clone()));
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        for ((key, _), result) in work.iter().zip(fresh) {
            state.cache.insert(*key, result);
        }
        keys.iter()
            .zip(jobs)
            .map(|(key, job)| {
                // Cache invariant: every key was either already cached or
                // inserted from `fresh` just above, so this cannot fire.
                let mut r = state
                    .cache
                    .get(key)
                    .expect("every job key simulated or cached")
                    .clone();
                r.label = job.label.clone();
                r
            })
            .collect()
    }

    /// Snapshot of the accumulated sweep counters.
    pub fn counters(&self) -> CounterSet {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.counters.clone()
    }

    /// Number of distinct simulations currently cached.
    pub fn cache_len(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.cache.len()
    }
}

/// One row of the Fig. 8 lifetime sweep: a partition scheme simulated to
/// battery exhaustion (or marked infeasible — the scheme cannot meet the
/// frame deadline at any DVS level, so there is nothing to simulate).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Scheme number in the figure's order (1-based).
    pub scheme: usize,
    pub feasible: bool,
    /// Chosen DVS levels (empty when infeasible).
    pub levels_mhz: Vec<Hertz>,
    /// Exact per-node required clock before rounding up to a level.
    pub required_mhz: Vec<Hertz>,
    /// Simulated lifetime (zero when infeasible).
    pub lifetime_h: Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
}

/// Simulate every Fig. 8 partition scheme to battery exhaustion through
/// the sweep engine, in the figure's order. Infeasible schemes produce an
/// explicit marker row instead of being dropped, so the table always has
/// one row per scheme.
pub fn fig8_lifetime_sweep(
    engine: &SweepEngine,
    sys: &SystemConfig,
    threads: usize,
) -> Vec<Fig8Row> {
    use crate::experiment::Experiment;
    use crate::partition::fig8_schemes;
    let schemes = fig8_schemes(sys);
    let mut jobs: Vec<PipelineConfig> = Vec::new();
    let mut job_of_scheme: Vec<Option<usize>> = Vec::new();
    for (i, scheme) in schemes.iter().enumerate() {
        if scheme.is_feasible() {
            let mut cfg = Experiment::Exp2.config();
            cfg.label = format!("fig8 scheme {}", i + 1);
            cfg.sys = sys.clone();
            cfg.shares = scheme.shares.clone();
            cfg.levels = scheme.levels.iter().map(|l| l.expect("feasible")).collect();
            job_of_scheme.push(Some(jobs.len()));
            jobs.push(cfg);
        } else {
            job_of_scheme.push(None);
        }
    }
    let results = engine.run(&jobs, threads);
    schemes
        .iter()
        .enumerate()
        .map(|(i, scheme)| match job_of_scheme[i] {
            Some(j) => {
                let r = &results[j];
                Fig8Row {
                    scheme: i + 1,
                    feasible: true,
                    levels_mhz: scheme
                        .levels
                        .iter()
                        .map(|l| l.expect("feasible").freq_mhz)
                        .collect(),
                    required_mhz: scheme.required_mhz.clone(),
                    lifetime_h: Hours::new(r.life_hours()),
                    frames_completed: r.frames_completed,
                    deadline_misses: r.deadline_misses,
                }
            }
            None => Fig8Row {
                scheme: i + 1,
                feasible: false,
                levels_mhz: Vec::new(),
                required_mhz: scheme.required_mhz.clone(),
                lifetime_h: Hours::ZERO,
                frames_completed: 0,
                deadline_misses: 0,
            },
        })
        .collect()
}

/// Render the Fig. 8 lifetime sweep as a text table.
pub fn render_fig8_sweep(rows: &[Fig8Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8 schemes ranked by simulated lifetime\n\
         {:>6} {:<20} {:<20} {:>8} {:>8} {:>7}",
        "scheme", "levels (MHz)", "required (MHz)", "T (h)", "frames", "misses"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for r in rows {
        let required: Vec<String> = r
            .required_mhz
            .iter()
            .map(|f| format!("{:.1}", f.mhz()))
            .collect();
        if r.feasible {
            let levels: Vec<String> = r
                .levels_mhz
                .iter()
                .map(|f| format!("{:.1}", f.mhz()))
                .collect();
            let _ = writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8.2} {:>8} {:>7}",
                r.scheme,
                levels.join("/"),
                required.join("/"),
                r.lifetime_h.get(),
                r.frames_completed,
                r.deadline_misses
            );
        } else {
            let _ = writeln!(
                out,
                "{:>6} {:<20} {:<20} {:>8} {:>8} {:>7}",
                r.scheme,
                "infeasible",
                required.join("/"),
                "-",
                "-",
                "-"
            );
        }
    }
    out
}

/// One row of the scheduling-policy comparison: a policy run on the
/// paper's 2C rotation workload to battery exhaustion.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// CLI name of the policy (`static`, `soc-skew`, `adaptive`).
    pub name: &'static str,
    pub lifetime_h: Hours,
    pub frames_completed: u64,
    pub deadline_misses: u64,
    /// Rotation waves actually launched.
    pub rotations: u64,
    /// Lifetime delta vs the `static` fixed-100 baseline, percent.
    pub delta_percent: f64,
}

/// Simulate every scheduling policy on the 2C workload through the sweep
/// engine and compare against the paper's fixed rotation-100 baseline
/// (always the first row).
pub fn policy_lifetime_sweep(engine: &SweepEngine, threads: usize) -> Vec<PolicyRow> {
    use crate::experiment::policy_config;
    use crate::policy::SchedulingPolicy;
    let jobs: Vec<PipelineConfig> = SchedulingPolicy::NAMES
        .iter()
        .map(|name| policy_config(SchedulingPolicy::by_name(name).expect("NAMES entries resolve")))
        .collect();
    let results = engine.run(&jobs, threads);
    let base_h = results[0].life_hours();
    SchedulingPolicy::NAMES
        .iter()
        .zip(&results)
        .map(|(name, r)| {
            let h = r.life_hours();
            PolicyRow {
                name,
                lifetime_h: Hours::new(h),
                frames_completed: r.frames_completed,
                deadline_misses: r.deadline_misses,
                rotations: r.counters.get("rotations"),
                delta_percent: if base_h > 0.0 {
                    100.0 * (h - base_h) / base_h
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Render the policy comparison as a text table.
pub fn render_policy_sweep(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scheduling policies on the 2C workload (baseline: static rotation-100)\n\
         {:<10} {:>8} {:>8} {:>7} {:>10} {:>12}",
        "policy", "T (h)", "frames", "misses", "rotations", "vs static"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8.2} {:>8} {:>7} {:>10} {:>+11.2}%",
            r.name,
            r.lifetime_h.get(),
            r.frames_completed,
            r.deadline_misses,
            r.rotations,
            r.delta_percent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use dles_sim::SimTime;

    fn short(label: &str, horizon_s: u64) -> PipelineConfig {
        let mut cfg = Experiment::Exp2.config();
        cfg.label = label.to_owned();
        cfg.horizon = SimTime::from_secs(horizon_s);
        cfg
    }

    #[test]
    fn sim_key_ignores_label_but_not_physics() {
        let a = short("alpha", 300);
        let b = short("beta", 300);
        assert_eq!(SimKey::of(&a), SimKey::of(&b), "label must not split keys");
        let c = short("alpha", 301);
        assert_ne!(SimKey::of(&a), SimKey::of(&c), "horizon is physics");
        let mut d = short("alpha", 300);
        d.jitter_seed = Some(7);
        assert_ne!(SimKey::of(&a), SimKey::of(&d), "seed is physics");
    }

    /// Regression (pre-fix-failing): two configurations identical except
    /// for their scheduling policy must get distinct keys *and* distinct
    /// sweep results. With the policy invisible to the canonical encoding
    /// they collided in the keyed cache and the second job silently got
    /// the first job's cached `ExperimentResult`.
    #[test]
    fn sim_key_separates_scheduling_policies() {
        use crate::policy::SchedulingPolicy;
        let mut a = Experiment::Exp2C.config();
        a.label = "static".to_owned();
        a.horizon = SimTime::from_secs(1200);
        let mut b = a.clone();
        b.label = "skew".to_owned();
        b.scheduling = SchedulingPolicy::by_name("soc-skew").unwrap();
        assert_ne!(SimKey::of(&a), SimKey::of(&b), "policy is physics");
        let engine = SweepEngine::new();
        let out = engine.run(&[a, b], 2);
        assert_eq!(
            engine.counters().get("sweep_sims_run"),
            2,
            "different-policy jobs must not share one simulation"
        );
        assert_ne!(
            out[0].counters.get("rotations"),
            out[1].counters.get("rotations"),
            "the SoC-skew policy rotates far more often than fixed-100"
        );
    }

    #[test]
    fn identical_jobs_simulate_once_and_keep_their_labels() {
        let engine = SweepEngine::new();
        let jobs = vec![short("first", 300), short("second", 300)];
        let out = engine.run(&jobs, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].label, "first");
        assert_eq!(out[1].label, "second");
        assert_eq!(out[0].lifetime, out[1].lifetime);
        let c = engine.counters();
        assert_eq!(c.get("sweep_jobs"), 2);
        assert_eq!(c.get("sweep_sims_run"), 1);
        assert_eq!(c.get("sweep_dedup_hits"), 1);
        assert_eq!(c.get("sweep_cache_hits"), 0);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn second_sweep_hits_the_cache() {
        let engine = SweepEngine::new();
        let jobs = vec![short("x", 300)];
        let cold = engine.run(&jobs, 1);
        let warm = engine.run(&jobs, 3);
        assert_eq!(cold[0].lifetime, warm[0].lifetime);
        assert_eq!(cold[0].counters, warm[0].counters);
        let c = engine.counters();
        assert_eq!(c.get("sweep_cache_hits"), 1);
        assert_eq!(c.get("sweep_sims_run"), 1);
    }

    #[test]
    fn results_are_worker_count_invariant() {
        let jobs = vec![
            short("a", 300),
            short("b", 450),
            short("c", 300),
            short("d", 600),
        ];
        let baseline = SweepEngine::new().run(&jobs, 1);
        for threads in [2, 3, 8] {
            let out = SweepEngine::new().run(&jobs, threads);
            for (l, r) in baseline.iter().zip(&out) {
                assert_eq!(l.label, r.label);
                assert_eq!(l.lifetime, r.lifetime);
                assert_eq!(l.frames_completed, r.frames_completed);
                assert_eq!(l.counters, r.counters);
            }
        }
    }

    #[test]
    fn fig8_sweep_emits_one_row_per_scheme() {
        let engine = SweepEngine::new();
        let sys = SystemConfig::paper();
        let rows = fig8_lifetime_sweep(&engine, &sys, 0);
        assert_eq!(rows.len(), 3, "one row per Fig. 8 scheme, always");
        assert!(rows[0].feasible && rows[1].feasible);
        assert!(!rows[2].feasible, "scheme 3 needs ~380 MHz — infeasible");
        assert!(rows[0].lifetime_h.get() > rows[1].lifetime_h.get());
        let text = render_fig8_sweep(&rows);
        assert!(text.contains("infeasible"));
        assert!(text.contains("59.0/103.2"));
    }

    #[test]
    fn policy_sweep_adaptive_beats_the_fixed_baseline() {
        let engine = SweepEngine::new();
        let rows = policy_lifetime_sweep(&engine, 0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "static");
        assert_eq!(rows[0].delta_percent, 0.0, "baseline is its own reference");
        let best = rows
            .iter()
            .skip(1)
            .map(|r| r.delta_percent)
            .fold(f64::MIN, f64::max);
        assert!(
            best > 0.0,
            "at least one adaptive policy must beat fixed-100: {rows:?}"
        );
        let text = render_policy_sweep(&rows);
        assert!(text.contains("soc-skew") && text.contains("adaptive"));
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let engine = SweepEngine::new();
        assert!(engine.run(&[], 4).is_empty());
        assert_eq!(engine.counters().get("sweep_jobs"), 0);
    }
}
