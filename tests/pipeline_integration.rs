//! Integration tests of the discrete-event pipeline against the analytic
//! battery model: the two independent paths to a lifetime prediction must
//! agree, and the pipeline's scheduling must respect the paper's timing.

use dles_battery::packs::itsy_pack_b;
use dles_battery::{simulate_lifetime, LoadProfile, LoadStep};
use dles_core::experiment::Experiment;
use dles_core::node::BatterySpec;
use dles_core::pipeline::run_pipeline;
use dles_core::policy::DvsPolicy;
use dles_core::Technique;
use dles_power::sa1100::BATTERY_VOLTS;
use dles_power::{CurrentModel, DvsTable, Mode};
use dles_sim::SimTime;
use dles_tests::assert_close_percent;
use std::num::NonZeroU64;

/// The DES lifetime of the baseline must match the analytic discharge of
/// the equivalent load profile (independent implementations).
#[test]
fn des_agrees_with_analytic_baseline() {
    let des = run_pipeline(Experiment::Exp1.config());

    let table = DvsTable::sa1100();
    let model = CurrentModel::itsy();
    let comm = model.current_ma(Mode::Communication, table.highest()).get();
    let comp = model.current_ma(Mode::Computation, table.highest()).get();
    let idle = model.current_ma(Mode::Idle, table.highest()).get();
    // RECV 1.109 s, PROC 1.1 s, SEND 0.085 s, idle remainder of 2.3 s.
    let recv = 0.075 + 10_342.0 * 8.0 / 80_000.0;
    let send = 0.075 + 102.0 * 8.0 / 80_000.0;
    let idle_t = 2.3 - recv - send - 1.1;
    let profile = LoadProfile::repeating(vec![
        LoadStep::from_secs(recv, comm),
        LoadStep::from_secs(1.1, comp),
        LoadStep::from_secs(send, comm),
        LoadStep::from_secs(idle_t, idle),
    ]);
    let mut batt = itsy_pack_b().fresh();
    let analytic = simulate_lifetime(&mut batt, &profile);

    assert_close_percent(
        des.life_hours(),
        analytic.lifetime.as_hours_f64(),
        1.0,
        "DES vs analytic baseline lifetime",
    );
}

/// The DES's mean node current must match the profile arithmetic.
#[test]
fn des_mean_current_matches_profile_arithmetic() {
    let r = run_pipeline(Experiment::Exp1.config());
    // (1.109·110 + 1.1·130 + 0.085·110 + idle·65) / 2.3
    let table = DvsTable::sa1100();
    let model = CurrentModel::itsy();
    let comm = model.current_ma(Mode::Communication, table.highest()).get();
    let comp = model.current_ma(Mode::Computation, table.highest()).get();
    let idle = model.current_ma(Mode::Idle, table.highest()).get();
    let recv = 0.075 + 10_342.0 * 8.0 / 80_000.0;
    let send = 0.075 + 102.0 * 8.0 / 80_000.0;
    let idle_t = 2.3 - recv - send - 1.1;
    let expect = (recv * comm + 1.1 * comp + send * comm + idle_t * idle) / 2.3;
    assert_close_percent(
        r.nodes[0].mean_current_ma.get(),
        expect,
        1.0,
        "baseline mean current",
    );
}

/// Every settle exit (transition, death, end of run) charges a segment to
/// the battery, the power monitor and the energy account alike, so at run
/// end the three charge totals agree: the battery's delivered charge, the
/// per-mode energies at the pack voltage, and the mean current over the
/// run. 600 s is short enough that no node dies; 1e-9 relative leaves
/// ample room for accumulated float error.
#[test]
fn run_end_charge_agrees_across_integrators() {
    for exp in Experiment::ALL {
        let mut cfg = exp.config();
        cfg.horizon = SimTime::from_secs(600);
        let r = run_pipeline(cfg);
        let hours = r.lifetime.as_hours_f64();
        for (i, n) in r.nodes.iter().enumerate() {
            assert_eq!(n.death_time, None, "{} node {i} died", r.label);
            let delivered = n.delivered_mah.get();
            let energy_j: f64 = [Mode::Idle, Mode::Communication, Mode::Computation]
                .iter()
                .map(|&m| n.energy.energy_j(m).get())
                .sum();
            let from_energy = energy_j / BATTERY_VOLTS.get() / 3.6;
            let from_mean = n.mean_current_ma.get() * hours;
            for (what, mah) in [("energy", from_energy), ("mean current", from_mean)] {
                let rel = (mah - delivered).abs() / delivered;
                assert!(
                    rel < 1e-9,
                    "{} node {i}: {what} gives {mah} mAh, battery delivered {delivered} mAh",
                    r.label
                );
            }
        }
    }
}

/// Scheme-1 steady state: both nodes meet D with the Fig. 8 levels, and
/// the host receives one result per D after pipeline fill.
#[test]
fn two_node_throughput_is_one_result_per_d() {
    let mut cfg = Experiment::Exp2.config();
    cfg.horizon = SimTime::from_secs(2300); // 1000 frame slots
    let r = run_pipeline(cfg);
    // ~999 results in 1000 slots (one slot of pipeline fill).
    assert!(
        (997..=1000).contains(&r.frames_completed),
        "frames {}",
        r.frames_completed
    );
    assert_eq!(r.deadline_misses, 0);
}

/// Rotation at an extreme period (every frame) still meets deadlines —
/// the §5.5 doubling absorbs each transition.
#[test]
fn rotation_every_frame_preserves_throughput() {
    let mut cfg = Experiment::Exp2C.config();
    cfg.technique = Some(Technique::Rotation {
        period_frames: NonZeroU64::new(1).unwrap(),
    });
    cfg.horizon = SimTime::from_secs(2300);
    let r = run_pipeline(cfg);
    assert!(r.frames_completed >= 990, "frames {}", r.frames_completed);
    assert_eq!(
        r.deadline_misses, 0,
        "per-frame rotation should still meet D"
    );
}

/// Three-node pipelines work end to end, including rotation.
#[test]
fn three_node_pipeline_with_rotation() {
    let sys = dles_core::workload::SystemConfig::paper();
    let best = dles_core::partition::best_partition(&sys, 3).expect("3-node feasible");
    let mut cfg = Experiment::Exp2C.config();
    cfg.shares = best.shares.clone();
    cfg.levels = best.levels.iter().map(|l| l.unwrap()).collect();
    cfg.technique = Some(Technique::Rotation {
        period_frames: NonZeroU64::new(50).unwrap(),
    });
    cfg.policy = DvsPolicy::DvsDuringIo;
    cfg.horizon = SimTime::from_secs(3 * 2300);
    let r = run_pipeline(cfg);
    assert_eq!(r.n_nodes, 3);
    let slots = 3 * 1000;
    assert!(
        r.frames_completed as i64 >= slots - 10,
        "frames {} of {} slots",
        r.frames_completed,
        slots
    );
    assert!(
        r.deadline_misses <= r.frames_completed / 100,
        "{} misses",
        r.deadline_misses
    );
}

/// An ideal battery erases the benefit ordering the paper observed for
/// recovery effects: with no rate-capacity fade the pulsed 1A profile
/// gains exactly its current-ratio, nothing more.
#[test]
fn ideal_battery_changes_the_story() {
    let mut base = Experiment::Exp1.config();
    base.battery = BatterySpec::Ideal {
        capacity_mah: itsy_pack_b().kibam.capacity_mah,
    };
    let mut dvs = Experiment::Exp1A.config();
    dvs.battery = base.battery;
    let t1 = run_pipeline(base).life_hours();
    let t1a = run_pipeline(dvs).life_hours();
    // Ideal battery: lifetime ratio = inverse mean-current ratio ≈ 1.44.
    let ratio = t1a / t1;
    assert_close_percent(ratio, 1.44, 3.0, "ideal-battery 1A/1 ratio");
}

/// Deterministic reproducibility of a full experiment run.
#[test]
fn full_runs_are_deterministic() {
    let a = run_pipeline(Experiment::Exp2C.config());
    let b = run_pipeline(Experiment::Exp2C.config());
    assert_eq!(a.frames_completed, b.frames_completed);
    assert_eq!(a.lifetime, b.lifetime);
    assert_eq!(a.deadline_misses, b.deadline_misses);
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.death_time, y.death_time);
        assert!((x.delivered_mah - y.delivered_mah).abs().get() < 1e-12);
    }
}
