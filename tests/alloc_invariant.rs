//! The steady-state allocation invariant: once a fault-free run is warm,
//! the simulator allocates nothing per event.
//!
//! A counting [`GlobalAlloc`] wraps [`System`] and counts every `alloc`,
//! `alloc_zeroed` and `realloc` made on the calling thread. The
//! configurations are the paper's experiments on KiBaM, EXP-2C on the
//! ideal and Peukert batteries, and the two adaptive policies. Each
//! configuration runs under `NullRecorder` for its first
//! [`WARM_UP`] of simulated time. The rest of the run, to battery death,
//! must then make at most [`MAX_STEADY_ALLOCS`] allocations, over a
//! remainder of tens to hundreds of thousands of events.
//!
//! The bound is a constant, not a per-event rate, because what still
//! allocates after warm-up does not scale with the event count:
//! - the first increment of each counter key not yet seen in warm-up,
//!   such as the death and migration counters;
//! - one share migration per node death.
//!
//! The event queue holds only pending events and the pipeline's
//! `transfers` table only transfers in flight, so neither grows with the
//! run. The fault-free configurations measured 1 to 11 such allocations. A
//! per-event allocation anywhere on the hot path adds one allocation per
//! event and so breaks the bound by three orders of magnitude.
//!
//! The lossy-link fault draw is checked on its own, with no bound: a
//! bit-error hit is decided by the PPP framing's flip-parity rule without
//! building a frame, so a draw allocates nothing.
//!
//! Out of scope:
//! - `JsonlRecorder`, which builds one owned `TraceRecord` per record;
//! - the Rakhmatov–Vrudhula battery. `RakhmatovBattery::advanced` clones
//!   its mode `Vec` on every bisection step of the exhaustion search, so
//!   that model allocates per battery transition;
//! - the determinism rules in `clippy.toml`, which this test does not
//!   replace.
//!
//! This binary is the workspace's one exemption from
//! `#![forbid(unsafe_code)]`: a global allocator can only be written as an
//! `unsafe impl GlobalAlloc`. The exemption is confined to this test
//! binary; `tests/lib.rs` and every library crate keep their `forbid`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dles_battery::packs::itsy_pack_b;
use dles_core::experiment::{policy_config, Experiment};
use dles_core::faults::{FaultPlan, FaultProfile, FaultState, LinkFault};
use dles_core::node::BatterySpec;
use dles_core::pipeline::{build_engine, PipelineConfig};
use dles_core::policy::SchedulingPolicy;
use dles_sim::SimTime;
use dles_units::MilliAmps;

/// Simulated time after which a run counts as warm.
const WARM_UP: SimTime = SimTime::from_secs(600);

/// Allocations allowed in the rest of the run; see the module doc.
const MAX_STEADY_ALLOCS: u64 = 64;

thread_local! {
    /// Allocations made on this thread. Per thread, so the harness's other
    /// test threads cannot pollute a count; `const`-initialised and
    /// without `Drop`, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with` cannot fail for a const-initialised `Cell`, but an
        // allocator must never panic, so a failure is ignored.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// update touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Events handled and allocations made after warm-up, up to the end of
/// the run.
fn steady_state(cfg: PipelineConfig) -> (u64, u64) {
    let horizon = cfg.horizon;
    let mut engine = build_engine(cfg);
    engine.run_until(WARM_UP);
    let (events, before) = (engine.processed(), allocs());
    engine.run_until(horizon);
    (engine.processed() - events, allocs() - before)
}

fn assert_bounded(runs: impl IntoIterator<Item = PipelineConfig>) {
    let mut report = String::new();
    let mut worst = 0;
    for cfg in runs {
        let label = cfg.label.clone();
        let (events, n) = steady_state(cfg);
        assert!(events > 0, "{label}: no events after warm-up");
        report.push_str(&format!(
            "  {label}: {n} allocations over {events} events\n"
        ));
        worst = worst.max(n);
    }
    assert!(
        worst <= MAX_STEADY_ALLOCS,
        "steady state allocated more than {MAX_STEADY_ALLOCS} times:\n{report}"
    );
}

/// EXP-2C on another battery model, as in `repro --ablations`' Ablation 1.
fn exp2c_on(model: &str, battery: BatterySpec) -> PipelineConfig {
    let mut cfg = Experiment::Exp2C.config();
    cfg.label = format!("{} ({model})", cfg.label);
    cfg.battery = battery;
    cfg
}

#[test]
fn paper_experiments_allocate_nothing_per_event() {
    let capacity_mah = itsy_pack_b().kibam.capacity_mah;
    let ideal = exp2c_on("ideal", BatterySpec::Ideal { capacity_mah });
    let peukert = exp2c_on(
        "Peukert",
        BatterySpec::Peukert {
            capacity_mah,
            reference_ma: MilliAmps::new(60.0),
            exponent: 1.2,
        },
    );
    assert_bounded(
        Experiment::ALL
            .map(Experiment::config)
            .into_iter()
            .chain([ideal, peukert]),
    );
}

#[test]
fn adaptive_policies_allocate_nothing_per_event() {
    assert_bounded(
        SchedulingPolicy::ALL
            .into_iter()
            .filter(|p| !p.is_static())
            .map(policy_config),
    );
}

#[test]
fn lossy_link_fault_draws_allocate_nothing() {
    // At BER 1e-4 nearly every 10 KB transfer that is not dropped is hit,
    // so this runs every branch of the bit-error verdict, including the
    // exact wire length of a two-flip hit.
    let profile = FaultProfile {
        bit_error_rate: 1e-4,
        ..FaultProfile::lossy_link()
    };
    let mut faults = FaultState::new(&FaultPlan::new(profile, 42), 4);
    let before = allocs();
    let corrupted = (0..10_000)
        .filter(|&frame| {
            matches!(
                faults.draw_transfer_fault(10_342, frame),
                Some(LinkFault::Corrupted { .. })
            )
        })
        .count();
    assert_eq!(allocs() - before, 0, "fault draws allocated");
    assert!(corrupted > 9_000, "only {corrupted} of 10000 corrupted");
}
