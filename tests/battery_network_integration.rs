//! Integration of the battery models with the power/network substrates:
//! properties spanning crate boundaries that no single crate can test.

use dles_battery::packs::{itsy_pack_a, itsy_pack_b};
use dles_battery::{simulate_lifetime, Battery, LoadProfile, LoadStep};
use dles_net::ppp::{decode_frames, encode_frame};
use dles_net::SerialConfig;
use dles_power::{CurrentModel, DvsTable, Mode};
use dles_sim::SimRng;

/// Build the load profile of an arbitrary (mode, level, seconds) schedule
/// using the power model — the bridge the node simulator crosses every
/// frame.
fn profile_from_schedule(schedule: &[(Mode, usize, f64)]) -> LoadProfile {
    let table = DvsTable::sa1100();
    let model = CurrentModel::itsy();
    let steps: Vec<LoadStep> = schedule
        .iter()
        .map(|&(mode, level_idx, secs)| {
            let level = table.level(level_idx % table.iter().count());
            LoadStep::from_secs(secs, model.current_ma(mode, level).get())
        })
        .collect();
    LoadProfile::repeating(steps)
}

#[test]
fn dvs_during_io_always_helps_the_battery() {
    // Swapping the comm/idle steps of any frame shape to the 59 MHz level
    // never shortens pack-B lifetime.
    let table = DvsTable::sa1100();
    let model = CurrentModel::itsy();
    for level in table.iter().skip(1) {
        let low = table.lowest();
        let with_dvs = LoadProfile::repeating(vec![
            LoadStep::from_secs(1.0, model.current_ma(Mode::Communication, low).get()),
            LoadStep::from_secs(1.0, model.current_ma(Mode::Computation, level).get()),
            LoadStep::from_secs(0.3, model.current_ma(Mode::Idle, low).get()),
        ]);
        let without = LoadProfile::repeating(vec![
            LoadStep::from_secs(1.0, model.current_ma(Mode::Communication, level).get()),
            LoadStep::from_secs(1.0, model.current_ma(Mode::Computation, level).get()),
            LoadStep::from_secs(0.3, model.current_ma(Mode::Idle, level).get()),
        ]);
        let mut b1 = itsy_pack_b().fresh();
        let t_with = simulate_lifetime(&mut b1, &with_dvs).lifetime;
        let mut b2 = itsy_pack_b().fresh();
        let t_without = simulate_lifetime(&mut b2, &without).lifetime;
        assert!(
            t_with >= t_without,
            "DVS during I/O hurt at level {level}: {t_with:?} < {t_without:?}"
        );
    }
}

#[test]
fn both_packs_prefer_lower_dvs_levels_for_compute_only_loads() {
    // Monotonicity across the full frequency ladder (experiment 0A→0B
    // generalized): lower level ⇒ longer life, more total frames.
    for pack in [itsy_pack_a(), itsy_pack_b()] {
        let table = DvsTable::sa1100();
        let model = CurrentModel::itsy();
        let mut prev_life = 0.0;
        for level in table.iter().collect::<Vec<_>>().into_iter().rev() {
            let profile = LoadProfile::constant(model.current_ma(Mode::Computation, level).get());
            let mut b = pack.fresh();
            let life = simulate_lifetime(&mut b, &profile).lifetime.as_hours_f64();
            assert!(
                life > prev_life,
                "{}: life at {level} = {life} not longer than at next level up",
                pack.name
            );
            prev_life = life;
        }
    }
}

#[test]
fn transfer_time_accounts_for_framing_overhead_budget() {
    // The serial model's 80/115.2 efficiency envelope must cover the PPP
    // framing overhead our codec actually produces for the paper's
    // payloads (framing alone explains only part; TCP/IP + turnaround the
    // rest).
    let cfg = SerialConfig::paper();
    let payload: Vec<u8> = (0..10_342u32).map(|i| (i as u8).wrapping_mul(31)).collect();
    let encoded = encode_frame(&payload);
    let framing_ratio = encoded.len() as f64 / payload.len() as f64;
    let efficiency = cfg.efficiency(); // ≈ 0.69
    assert!(
        1.0 / efficiency > framing_ratio,
        "measured efficiency {} can't even cover framing {framing_ratio}",
        efficiency
    );
    // And the frame survives the trip.
    let frames = decode_frames(&encoded);
    assert_eq!(frames, vec![Ok(payload)]);
}

#[test]
fn jittered_transaction_times_bound_battery_impact() {
    // Over many jittered transactions the mean startup approaches 75 ms,
    // so the deterministic profile is an unbiased stand-in.
    let cfg = SerialConfig::paper();
    let mut rng = SimRng::seed_from_u64(123);
    let n = 10_000;
    let mean_s: f64 = (0..n)
        .map(|_| cfg.transfer_time(614, Some(&mut rng)).as_secs_f64())
        .sum::<f64>()
        / n as f64;
    let nominal = cfg.transfer_secs(614);
    assert!(
        (mean_s - nominal).abs() < 0.002,
        "mean {mean_s} vs {nominal}"
    );
}

fn random_schedule(
    rng: &mut SimRng,
    max_steps: u64,
    min_secs: f64,
    max_secs: f64,
) -> Vec<(Mode, usize, f64)> {
    let modes = [Mode::Idle, Mode::Communication, Mode::Computation];
    let n = rng.uniform_u64(1, max_steps) as usize;
    (0..n)
        .map(|_| {
            (
                modes[rng.uniform_u64(0, 2) as usize],
                rng.uniform_u64(0, 10) as usize,
                rng.uniform_f64(min_secs, max_secs),
            )
        })
        .collect()
}

/// Cross-crate conservation: any schedule of (mode, level, duration)
/// steps discharges a battery by exactly the charge the power model
/// integrates. (Seeded randomized test — deterministic.)
#[test]
fn prop_schedule_charge_conservation() {
    let mut rng = SimRng::seed_from_u64(0x5C8E);
    for round in 0..48 {
        let schedule = random_schedule(&mut rng, 19, 0.01, 30.0);
        let profile = profile_from_schedule(&schedule);
        let mut b = itsy_pack_b().fresh();
        let life = simulate_lifetime(&mut b, &profile);
        let total = life.delivered_mah + b.state_of_charge() * b.nominal_capacity_mah();
        assert!(
            (total - itsy_pack_b().kibam.capacity_mah).abs() < 1e-6 * total,
            "round {round}: delivered {} + stranded {} != capacity",
            life.delivered_mah.get(),
            (b.state_of_charge() * b.nominal_capacity_mah()).get()
        );
    }
}

/// Lifetime under any repeating schedule is bounded below by the
/// all-at-max-current estimate and above by nominal capacity over the
/// mean current. (Seeded randomized test — deterministic.)
#[test]
fn prop_lifetime_bounds() {
    let mut rng = SimRng::seed_from_u64(0xB0B5);
    let mut checked = 0;
    for round in 0..48 {
        let schedule = random_schedule(&mut rng, 9, 0.05, 10.0);
        let profile = profile_from_schedule(&schedule);
        let mean = profile.mean_current_ma();
        if mean.get() <= 1.0 {
            continue;
        }
        checked += 1;
        let cap = itsy_pack_b().kibam.capacity_mah;
        let mut b = itsy_pack_b().fresh();
        let life = simulate_lifetime(&mut b, &profile).lifetime.as_hours_f64();
        let upper = (cap / mean).get();
        // Available-well-only lower bound.
        let lower = itsy_pack_b().kibam.c * cap.get() / 135.0; // max model current ≈ 130 mA
        assert!(
            life <= upper * 1.001,
            "round {round}: life {life} > {upper}"
        );
        assert!(
            life >= lower * 0.999,
            "round {round}: life {life} < {lower}"
        );
    }
    assert!(checked > 24, "too few non-trivial schedules: {checked}");
}
