//! Regenerate every table and figure of Liu & Chou (IPPS 2004).
//!
//! ```text
//! repro                 run everything (figures + all experiments)
//! repro --fig1          the ATR block diagram (Fig. 1)
//! repro --fig2          single-node timing-vs-power timeline (Fig. 2)
//! repro --fig3          two-node pipelined timeline (Fig. 3)
//! repro --fig5          the network configuration (Fig. 5)
//! repro --fig6          the ATR performance profile (Fig. 6)
//! repro --fig7          the power profile (Fig. 7)
//! repro --fig8          the partitioning schemes (Fig. 8)
//! repro --fig9          node-rotation timeline (Fig. 9)
//! repro --fig10         the experiment summary (Fig. 10)
//! repro --exp 2C        one experiment in detail (0A 0B 1 1A 2 2A 2B 2C)
//! repro --trace FILE    with --exp: stream structured events as JSONL
//!                       (exit 1 if the file cannot be written)
//! repro --counters      with --exp: print the monotonic event counters
//! repro --policy NAME   scheduling policy: `static` (the paper's fixed
//!                       behaviour, default), `soc-skew` (rotate when the
//!                       SoC spread crosses a threshold) or `adaptive`
//!                       (period feedback from observed skew). Non-static
//!                       policies need the rotation workload: they apply
//!                       to `--exp 2C`, `--montecarlo` (which then runs
//!                       the 2C base instead of 2B) and `--sweep policy`.
//! repro --ablations     the ablation studies (battery models, rotation
//!                       period, serial link, N-node partitions)
//! repro --sweep NAME    deterministic parallel sweep; NAME is `scaling`
//!                       (the N-node study, 1..=4 nodes), `fig8` (partition
//!                       schemes by simulated lifetime) or `policy`
//!                       (scheduling policies vs the fixed-100 baseline on
//!                       the 2C workload). Prints the study table.
//!                       `--threads N` picks the worker count (default:
//!                       one per core) and never changes the output bytes.
//! repro --montecarlo    Monte Carlo robustness study of experiment 2B
//!                       under fault injection. Options:
//!                         --trials N      trials (default 16)
//!                         --faults NAME   none lossy brownout battery harsh
//!                         --seed N        master seed (default 42)
//!                         --threads N     workers (default: one per core;
//!                                         the report never depends on it)
//!                         --horizon-s S   cap simulated time per trial
//!                         --no-recovery   strip §5.4 recovery (ablation;
//!                                         not with a non-static --policy)
//! repro --calibrate     print the calibrated battery-pack parameters
//! repro --json          emit the Fig. 10 rows as JSON on stdout
//! ```
#![forbid(unsafe_code)]

use dles_battery::packs::itsy_pack_b;
use dles_core::experiment::Experiment;
use dles_core::metrics::ExperimentResult;
use dles_core::node::BatterySpec;
use dles_core::partition::best_partition;
use dles_core::pipeline::{run_pipeline, run_pipeline_traced, PipelineConfig, Technique};
use dles_core::policy::SchedulingPolicy;
use dles_core::report;
use dles_core::run_jobs;
use dles_core::sweep::partition_config;
use dles_core::timeline::{capture_timeline, render_timeline};
use dles_core::workload::SystemConfig;
use dles_power::CurrentModel;
use dles_sim::{JsonlRecorder, SimTime};
use std::num::{NonZeroU64, NonZeroUsize};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sys = SystemConfig::paper();
    let model = CurrentModel::itsy();

    // `--exp`, `--trace` and `--counters` combine; everything else is a
    // single standalone command.
    let mut exp_label: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut counters = false;
    let mut sweep_name: Option<String> = None;
    let mut montecarlo = false;
    let mut trials: usize = 16;
    let mut faults_name = "lossy".to_owned();
    let mut master_seed: u64 = 42;
    let mut threads: usize = 0;
    let mut horizon_s: Option<u64> = None;
    let mut no_recovery = false;
    let mut policy = SchedulingPolicy::Static;
    let mut commands: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp_label = Some(args.get(i).cloned().unwrap_or_else(|| "1".to_owned()));
            }
            "--montecarlo" => montecarlo = true,
            "--sweep" => {
                i += 1;
                match args.get(i) {
                    Some(name) => sweep_name = Some(name.clone()),
                    None => {
                        eprintln!("--sweep needs a study name (scaling | fig8 | policy)");
                        std::process::exit(2);
                    }
                }
            }
            "--trials" => {
                i += 1;
                let n: NonZeroUsize =
                    parse_num(args.get(i), "--trials needs a number of at least 1");
                trials = n.get();
            }
            "--faults" => {
                i += 1;
                match args.get(i) {
                    Some(name) => faults_name = name.clone(),
                    None => {
                        eprintln!("--faults needs a profile name");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                i += 1;
                master_seed = parse_num(args.get(i), "--seed needs a number");
            }
            "--threads" => {
                i += 1;
                threads = parse_num(args.get(i), "--threads needs a number");
            }
            "--horizon-s" => {
                i += 1;
                horizon_s = Some(parse_num(args.get(i), "--horizon-s needs a number"));
            }
            "--no-recovery" => no_recovery = true,
            "--policy" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                policy = SchedulingPolicy::by_name(name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown policy {name}; use one of: {}",
                        SchedulingPolicy::ALL.map(|p| p.name()).join(" ")
                    );
                    std::process::exit(2);
                });
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => {
                        eprintln!("--trace needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--counters" => counters = true,
            other => commands.push(other.to_owned()),
        }
        i += 1;
    }

    if let Some(name) = &sweep_name {
        run_sweep_study(name, &sys, threads);
        return;
    }

    if montecarlo {
        run_montecarlo_study(
            trials,
            &faults_name,
            master_seed,
            threads,
            horizon_s,
            no_recovery,
            policy,
        );
        return;
    }

    if let Some(label) = &exp_label {
        run_exp_detail(label, trace_path.as_deref(), counters, policy);
    } else if trace_path.is_some() || counters {
        eprintln!("--trace and --counters need --exp <label>");
        std::process::exit(2);
    }

    if args.is_empty() {
        print_fig1(&sys);
        println!();
        print_timeline_fig(
            Experiment::Exp1,
            None,
            "Fig. 2 — timing of a single node (4 frames)",
        );
        println!();
        print_timeline_fig(
            Experiment::Exp2,
            None,
            "Fig. 3 — timing of two pipelined nodes (6 frames)",
        );
        println!();
        print_fig5();
        println!();
        print!("{}", report::render_fig6(&sys));
        println!();
        print!("{}", report::render_fig7(&sys, &model));
        println!();
        print!("{}", report::render_fig8(&sys));
        println!();
        run_fig10(false);
        return;
    }
    for command in &commands {
        match command.as_str() {
            "--fig1" => print_fig1(&sys),
            "--fig2" => print_timeline_fig(
                Experiment::Exp1,
                None,
                "Fig. 2 — timing of a single node (4 frames)",
            ),
            "--fig3" => print_timeline_fig(
                Experiment::Exp2,
                None,
                "Fig. 3 — timing of two pipelined nodes (6 frames)",
            ),
            "--fig5" => print_fig5(),
            "--fig9" => print_timeline_fig(
                Experiment::Exp2C,
                NonZeroU64::new(2),
                "Fig. 9 — node rotation on two nodes (rotating every 2 frames)",
            ),
            "--fig6" => print!("{}", report::render_fig6(&sys)),
            "--fig7" => print!("{}", report::render_fig7(&sys, &model)),
            "--fig8" => print!("{}", report::render_fig8(&sys)),
            "--fig10" => run_fig10(false),
            "--json" => run_fig10(true),
            "--ablations" => run_ablations(),
            "--calibrate" => {
                println!("run `cargo run -p dles-bench --bin calibrate_packs` for the full fit;");
                println!("current pack parameters:");
                println!("  A: {:?}", dles_battery::packs::itsy_pack_a().kibam);
                println!("  B: {:?}", itsy_pack_b().kibam);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
}

/// One named sweep: print the study table. Output is byte-identical for
/// any `--threads` value — CI diffs `--threads 1` against `2`.
fn run_sweep_study(name: &str, sys: &SystemConfig, threads: usize) {
    use dles_core::sweep::{
        fig8_lifetime_sweep, policy_lifetime_sweep, render_fig8_sweep, render_policy_sweep,
        render_scaling, scaling_study,
    };
    match name {
        "scaling" => {
            let rows = scaling_study(sys, 4, threads);
            print!("{}", render_scaling(&rows));
        }
        "fig8" => {
            let rows = fig8_lifetime_sweep(sys, threads);
            print!("{}", render_fig8_sweep(&rows));
        }
        "policy" => {
            let rows = policy_lifetime_sweep(threads);
            print!("{}", render_policy_sweep(&rows));
        }
        other => {
            eprintln!("unknown sweep {other}; use one of: scaling fig8 policy");
            std::process::exit(2);
        }
    }
}

/// Parse a numeric flag argument, or print `need` and exit 2 (a usage
/// error).
fn parse_num<T: std::str::FromStr>(arg: Option<&String>, need: &str) -> T {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{need}");
        std::process::exit(2);
    })
}

/// The Monte Carlo robustness study: N seeded trials of the experiment 2B
/// configuration (two nodes + §5.4 recovery) under a fault profile. With a
/// non-static `--policy` the base switches to the 2C rotation workload:
/// adaptive scheduling needs the rotation wave, and a run applies either
/// recovery or rotation, never both. So `--no-recovery`, which strips 2B's
/// recovery, cannot combine with a non-static policy.
fn run_montecarlo_study(
    trials: usize,
    faults_name: &str,
    master_seed: u64,
    threads: usize,
    horizon_s: Option<u64>,
    no_recovery: bool,
    policy: SchedulingPolicy,
) {
    use dles_core::faults::FaultProfile;
    use dles_core::montecarlo::{render_montecarlo, run_monte_carlo, MonteCarloConfig};
    let profile = FaultProfile::by_name(faults_name).unwrap_or_else(|| {
        eprintln!(
            "unknown fault profile {faults_name}; use one of: {}",
            FaultProfile::PRESETS.map(|(name, _)| name).join(" ")
        );
        std::process::exit(2);
    });
    if no_recovery && !policy.is_static() {
        eprintln!(
            "--no-recovery strips the 2B base's recovery; --policy {} runs the 2C rotation base, \
             which has none",
            policy.name()
        );
        std::process::exit(2);
    }
    let mut base = if policy.is_static() {
        Experiment::Exp2B.config()
    } else {
        dles_core::policy_config(policy)
    };
    if no_recovery {
        base.technique = None;
        base.label = format!("{} (no recovery)", base.label);
    }
    if let Some(s) = horizon_s {
        base.horizon = SimTime::from_secs(s);
    }
    let report = run_monte_carlo(&MonteCarloConfig {
        base,
        trials,
        master_seed,
        profile,
        threads,
    });
    print!("{}", render_montecarlo(&report));
}

/// Run one experiment in detail, optionally streaming its structured
/// event trace to a JSONL file and printing the monotonic event counters.
fn run_exp_detail(label: &str, trace_path: Option<&str>, counters: bool, policy: SchedulingPolicy) {
    let exp = Experiment::ALL
        .iter()
        .copied()
        .find(|e| e.label().eq_ignore_ascii_case(label))
        .unwrap_or_else(|| {
            let labels = Experiment::ALL.map(Experiment::label);
            eprintln!(
                "unknown experiment {label}; use one of {}",
                labels.join(" ")
            );
            std::process::exit(2);
        });
    let mut cfg = exp.config();
    if !policy.is_static() {
        if !matches!(cfg.technique, Some(Technique::Rotation { .. })) {
            eprintln!(
                "--policy {} needs the rotation workload; use --exp 2C",
                policy.name()
            );
            std::process::exit(2);
        }
        cfg.scheduling = policy;
    }
    let r = match trace_path {
        Some(path) => {
            let recorder = JsonlRecorder::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(2);
            });
            let r = run_pipeline_traced(cfg, Box::new(recorder)).unwrap_or_else(|e| {
                eprintln!("cannot write trace file {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("trace written to {path}");
            r
        }
        None => run_pipeline(cfg),
    };
    print!("{}", report::render_experiment_detail(exp, &r));
    if counters {
        print!("{}", report::render_counters(exp.label(), &r.counters));
    }
}

fn run_fig10(json: bool) {
    // Run all §6 experiments as one batch; the runner returns them in the
    // paper's order regardless of scheduling.
    let jobs: Vec<PipelineConfig> = Experiment::ALL.map(Experiment::config).into();
    let results: Vec<(Experiment, ExperimentResult)> = Experiment::ALL
        .into_iter()
        .zip(run_jobs(&jobs, 0))
        .collect();

    let fig10: Vec<_> = results
        .iter()
        .filter(|(e, _)| Experiment::FIG10.contains(e))
        .cloned()
        .collect();
    if json {
        println!("{}", report::to_json(&fig10));
        return;
    }
    println!("§6.1 — no-I/O experiments (battery pack A; not comparable with the series below)");
    for (e, r) in results
        .iter()
        .filter(|(e, _)| matches!(e, Experiment::Exp0A | Experiment::Exp0B))
    {
        println!(
            "  ({}) {}: T = {:.2} h (paper {:.2} h), F = {:.1}K (paper {:.1}K)",
            e.label(),
            e.description(),
            r.life_hours(),
            e.paper_hours(),
            r.kframes(),
            e.paper_kframes()
        );
    }
    println!();
    print!("{}", report::render_fig10(&fig10));
    println!();
    for (e, r) in &fig10 {
        print!("{}", report::render_experiment_detail(*e, r));
    }
}

fn run_ablations() {
    let sys = SystemConfig::paper();

    // Ablations 1–3 are one batch of runs: 2C under each battery model,
    // 2C at each rotation period, and EXP-2 at each serial data rate.
    let base = Experiment::Exp2C.config();
    let cap = itsy_pack_b().kibam.capacity_mah;
    let batteries = [
        ("KiBaM", base.battery),
        (
            "Rakhmatov-Vrudhula",
            BatterySpec::Rakhmatov(dles_battery::RvParams {
                alpha_mah: cap,
                beta_sq: 2.0,
                modes: 10,
            }),
        ),
        ("ideal", BatterySpec::Ideal { capacity_mah: cap }),
        (
            "Peukert",
            BatterySpec::Peukert {
                capacity_mah: cap,
                reference_ma: dles_units::MilliAmps::new(60.0),
                exponent: 1.2,
            },
        ),
    ];
    let periods = [1, 10, 100, 1000, 5000].map(|p| NonZeroU64::new(p).expect("positive"));
    let rates = [40_000.0, 80_000.0, 115_200.0, 230_400.0];
    let mut jobs: Vec<PipelineConfig> = Vec::new();
    for &(_, battery) in &batteries {
        jobs.push(PipelineConfig {
            battery,
            ..base.clone()
        });
    }
    for &period_frames in &periods {
        jobs.push(PipelineConfig {
            technique: Some(Technique::Rotation { period_frames }),
            ..base.clone()
        });
    }
    for &bps in &rates {
        let mut cfg = Experiment::Exp2.config();
        cfg.sys.serial = cfg.sys.serial.with_effective_bps(bps);
        // Re-derive the minimum feasible levels under the new link speed;
        // with no feasible partition, run EXP-2's own shares and levels.
        jobs.push(
            best_partition(&cfg.sys, 2)
                .and_then(|p| partition_config(&cfg.sys, &p))
                .unwrap_or(cfg),
        );
    }
    let results = run_jobs(&jobs, 0);
    let (by_battery, rest) = results.split_at(batteries.len());
    let (by_period, by_rate) = rest.split_at(periods.len());

    println!("Ablation 1 — battery model (experiment 2C configuration)");
    let lives: Vec<String> = batteries
        .iter()
        .zip(by_battery)
        .map(|((name, _), r)| format!("{name} {:.2} h", r.life_hours()))
        .collect();
    println!("  {}", lives.join(" | "));

    println!("Ablation 2 — rotation period (frames between rotations)");
    for (period_frames, r) in periods.iter().zip(by_period) {
        println!(
            "  every {:>5} frames: T = {:.2} h, {} deadline misses",
            period_frames,
            r.life_hours(),
            r.deadline_misses
        );
    }

    println!("Ablation 3 — serial effective data rate (experiment 2)");
    for (bps, r) in rates.iter().zip(by_rate) {
        println!(
            "  {:>7.0} bps: T = {:.2} h, {} deadline misses / {} frames",
            bps,
            r.life_hours(),
            r.deadline_misses,
            r.frames_completed
        );
    }

    println!("Ablation 4 — N-node best partitions (analysis)");
    for n in 1..=4 {
        match best_partition(&sys, n) {
            Some(p) => {
                let levels: Vec<String> = p
                    .levels
                    .iter()
                    .map(|l| format!("{:.1}", l.unwrap().freq_mhz.mhz()))
                    .collect();
                println!(
                    "  N={n}: levels [{}] MHz, power proxy {:.0}",
                    levels.join(", "),
                    p.power_proxy()
                );
            }
            None => println!("  N={n}: no feasible partition"),
        }
    }
}

/// Fig. 1: the ATR block diagram, annotated with the Fig. 6 profile.
fn print_fig1(sys: &SystemConfig) {
    println!("Fig. 1 — Block diagram of the ATR algorithm");
    print!(
        "  [source {:>5.1} KB] -> ",
        sys.profile.input_bytes as f64 / 1024.0
    );
    for b in dles_atr::Block::ALL {
        let p = sys.profile.block(b);
        print!(
            "[{} {:.2}s] -({:.1} KB)-> ",
            b.name(),
            p.peak_secs,
            p.output_bytes as f64 / 1024.0
        );
    }
    println!("[destination]");
}

/// Fig. 5: the star topology over serial/PPP with host IP forwarding.
fn print_fig5() {
    println!(
        "Fig. 5 — Networking multiple Itsy units with a host computer\n\
         \n\
           host (source/destination, IP forwarding)\n\
             ├── ppp0 ── usb/serial ── serial ── itsy node1\n\
             ├── ppp1 ── usb/serial ── serial ── itsy node2\n\
             └── ppp2 ── usb/serial ── serial ── itsy node3\n\
         \n\
           line rate 115.2 kbps, measured ~80 kbps effective;\n\
           50–100 ms startup per transaction; node-to-node traffic\n\
           transits two serial lines via the host's IP forwarding."
    );
}

/// Render a figure timeline by running the experiment config briefly.
fn print_timeline_fig(exp: Experiment, rotation_period: Option<NonZeroU64>, title: &str) {
    let mut cfg = exp.config();
    let frames = 6;
    if let Some(period_frames) = rotation_period {
        cfg.technique = Some(Technique::Rotation { period_frames });
    }
    let tl = capture_timeline(cfg, frames);
    println!("{title}");
    print!("{}", render_timeline(&tl, SimTime::from_millis(100)));
}

#[cfg(test)]
mod tests {
    /// Every `"--flag" =>` arm of the parser above appears in README.md
    /// as a whole word, so `--fig1` is not satisfied by `--fig10`.
    #[test]
    fn every_parsed_flag_is_documented_in_readme() {
        let src = include_str!("repro.rs");
        let code = &src[..src.find("#[cfg(test)]").expect("test module present")];
        let flags: Vec<&str> = code
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("\"--") && l.contains("\" =>"))
            .filter_map(|l| l.split('"').nth(1))
            .collect();
        assert!(
            flags.contains(&"--exp") && flags.contains(&"--fig10"),
            "{flags:?}"
        );
        let readme = include_str!("../../../../README.md");
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || "-_".contains(c));
        let documented = |flag: &str| {
            readme.match_indices(flag).any(|(i, _)| {
                !word(readme[..i].chars().next_back())
                    && !word(readme[i + flag.len()..].chars().next())
            })
        };
        let missing: Vec<&str> = flags.into_iter().filter(|f| !documented(f)).collect();
        assert!(missing.is_empty(), "flags missing from README: {missing:?}");
    }
}
