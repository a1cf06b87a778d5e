//! End-to-end reproduction checks: run every §6 experiment to battery
//! exhaustion and verify the *shape* of the paper's results — who wins,
//! by roughly what factor, and in which order.
//!
//! Absolute numbers are expected to track the calibrated battery anchors
//! (exp 1, 2, 2C within a few percent); the known deviations (1A, 2B) are
//! asserted with wider bands and documented in EXPERIMENTS.md.

use dles_core::experiment::Experiment;
use dles_core::metrics::ExperimentResult;
use dles_core::{run_jobs, PipelineConfig};
use dles_tests::assert_close_percent;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Run all experiments once, in parallel, and memoize for every test.
fn results() -> &'static BTreeMap<&'static str, ExperimentResult> {
    static RESULTS: OnceLock<BTreeMap<&'static str, ExperimentResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let jobs: Vec<PipelineConfig> = Experiment::ALL.map(Experiment::config).into();
        Experiment::ALL
            .map(Experiment::label)
            .into_iter()
            .zip(run_jobs(&jobs, 0))
            .collect()
    })
}

fn rnorm(label: &str) -> f64 {
    let r = &results()[label];
    let baseline = &results()["1"];
    100.0 * r.normalized_ratio(baseline)
}

#[test]
fn calibrated_anchors_match_paper_lifetimes() {
    // The experiments the battery packs were calibrated against must land
    // close to the measured lifetimes.
    assert_close_percent(results()["0A"].life_hours(), 3.4, 8.0, "T(0A)");
    assert_close_percent(results()["0B"].life_hours(), 12.9, 8.0, "T(0B)");
    assert_close_percent(results()["1"].life_hours(), 6.13, 8.0, "T(1)");
    assert_close_percent(results()["2"].life_hours(), 14.1, 8.0, "T(2)");
    assert_close_percent(results()["2C"].life_hours(), 17.82, 8.0, "T(2C)");
}

#[test]
fn uncalibrated_experiments_land_in_band() {
    // 2A was not an anchor; it must still land near the paper's 14.44 h.
    assert_close_percent(results()["2A"].life_hours(), 14.44, 10.0, "T(2A)");
    // 2B and 1A carry the documented deviations; bound them loosely so a
    // regression that blows them up further still fails.
    let t2b = results()["2B"].life_hours();
    assert!((14.0..19.0).contains(&t2b), "T(2B) = {t2b} h");
    let t1a = results()["1A"].life_hours();
    assert!((7.0..10.0).contains(&t1a), "T(1A) = {t1a} h");
}

#[test]
fn fig10_ordering_matches_paper() {
    // Paper: 100 (1) < 115 (2) < 118 (2A) < 128 (2B) < 145 (2C),
    // with 1A at 124. Our reproduction preserves the ordering of the
    // distributed series and rotation's overall win.
    let r2 = rnorm("2");
    let r2a = rnorm("2A");
    let r2b = rnorm("2B");
    let r2c = rnorm("2C");
    assert!(r2 > 105.0, "partitioning must beat the baseline: {r2}");
    assert!(r2a > r2, "DVS during I/O must add on top of partitioning");
    assert!(r2b > r2a, "recovery must beat plain distributed DVS");
    assert!(r2c > r2b, "rotation must be the best technique");
    assert!(rnorm("1A") > 100.0, "DVS during I/O must beat the baseline");
}

#[test]
fn rotation_improvement_magnitude() {
    // The headline: ~45% normalized improvement (we reproduce ~47%).
    let r2c = rnorm("2C");
    assert!(
        (135.0..160.0).contains(&r2c),
        "R_norm(2C) = {r2c}%, paper says 145%"
    );
}

#[test]
fn partitioning_improvement_is_modest() {
    // §6.4's surprise: the battery life "more than doubled" in absolute
    // terms but only ~15% normalized.
    let abs_ratio = results()["2"].life_hours() / results()["1"].life_hours();
    assert!(abs_ratio > 2.0, "absolute ratio {abs_ratio}");
    let r2 = rnorm("2");
    assert!((108.0..130.0).contains(&r2), "R_norm(2) = {r2}%");
}

#[test]
fn node2_fails_first_in_static_partitioning() {
    // §6.4: "Node2 always fails first because the workload on the two
    // nodes is not balanced very well."
    for label in ["2", "2A"] {
        let r = &results()[label];
        let (first, _) = r.first_death().expect("a node died");
        assert_eq!(first, 1, "exp {label}: Node2 must die first");
        assert!(
            r.nodes[0].death_time.is_none(),
            "exp {label}: Node1 must still be alive at the stall"
        );
    }
}

#[test]
fn rotation_balances_battery_discharge() {
    // §6.7: rotation evens out the load; both batteries drain together.
    let r = &results()["2C"];
    let d0 = r.nodes[0].delivered_mah.get();
    let d1 = r.nodes[1].delivered_mah.get();
    assert!(
        (d0 - d1).abs() / d0.max(d1) < 0.1,
        "delivered {d0} vs {d1} mAh"
    );
    // And strands far less capacity than static partitioning.
    let stranded_2 = results()["2"].total_stranded_mah().get();
    let stranded_2c = r.total_stranded_mah().get();
    assert!(
        stranded_2c < 0.6 * stranded_2,
        "2C strands {stranded_2c} vs 2's {stranded_2}"
    );
}

#[test]
fn recovery_keeps_the_survivor_working() {
    // §6.6: after Node2 fails, Node1 picks up several thousand frames.
    let r = &results()["2B"];
    let first_death = r.first_death().expect("both die").1.as_secs_f64();
    let frames_at_first = (first_death / 2.3) as u64;
    assert!(
        r.frames_completed > frames_at_first + 2_000,
        "survivor only added {} frames",
        r.frames_completed - frames_at_first.min(r.frames_completed)
    );
    assert!(r.nodes.iter().all(|n| n.death_time.is_some()));
}

#[test]
fn frames_track_lifetime_over_d() {
    // §4.5: T(N) = F(N) × D (pipeline fill ignored at thousands of frames).
    for label in ["1", "1A", "2", "2A", "2C"] {
        let r = &results()[label];
        let f_times_d = r.frames_completed as f64 * 2.3 / 3600.0;
        assert_close_percent(f_times_d, r.life_hours(), 2.0, &format!("F×D exp {label}"));
    }
}

#[test]
fn frame_latency_metrics_are_consistent() {
    // Baseline: end-to-end latency ≈ recv + proc + send = 2.294 s, well
    // inside D, and stable (p95 ≈ mean under deterministic startup).
    let base = &results()["1"];
    assert!(
        (base.mean_frame_latency_s.get() - 2.294).abs() < 0.02,
        "baseline latency {}",
        base.mean_frame_latency_s.get()
    );
    assert!(
        (base.p95_frame_latency_s - base.mean_frame_latency_s)
            .abs()
            .get()
            < 0.1,
        "latency jitter without randomness: mean {} p95 {}",
        base.mean_frame_latency_s.get(),
        base.p95_frame_latency_s.get()
    );
    // Two-node pipelines: latency ≈ within (D, 2D].
    for label in ["2", "2A", "2C"] {
        let r = &results()[label];
        assert!(
            r.mean_frame_latency_s.get() > 2.3 && r.mean_frame_latency_s.get() < 4.6,
            "exp {label} latency {}",
            r.mean_frame_latency_s.get()
        );
    }
    // Recovery's acks are offset by its faster DVS levels (73.7/118 vs
    // 59/103.2), so its latency still fits the two-stage budget.
    let r2b = results()["2B"].mean_frame_latency_s.get();
    assert!((2.3..4.6).contains(&r2b), "exp 2B latency {r2b}");
}

#[test]
fn no_deadline_misses_in_feasible_configs() {
    for label in ["1", "1A", "2", "2A", "2C"] {
        let r = &results()[label];
        assert_eq!(
            r.deadline_misses, 0,
            "exp {label} should meet every deadline"
        );
    }
}

#[test]
fn energy_split_matches_narrative() {
    // §6.2 baseline: the node spends about half its time in I/O, and
    // communication energy is comparable to computation energy.
    let base = &results()["1"];
    let comm = base.nodes[0]
        .energy
        .energy_j(dles_power::Mode::Communication)
        .get();
    let comp = base.nodes[0]
        .energy
        .energy_j(dles_power::Mode::Computation)
        .get();
    assert!(comm > 0.5 * comp, "comm {comm} J vs comp {comp} J");
    // 1A slashes communication energy by ~60%+ (§6.3's 110 → 40 mA).
    let dvs = &results()["1A"];
    let comm_dvs = dvs.nodes[0]
        .energy
        .energy_j(dles_power::Mode::Communication)
        .get();
    // Per-hour comparison (lifetimes differ).
    let per_h = comm / base.life_hours();
    let per_h_dvs = comm_dvs / dvs.life_hours();
    assert!(
        per_h_dvs < 0.45 * per_h,
        "comm J/h {per_h_dvs} vs baseline {per_h}"
    );
}
