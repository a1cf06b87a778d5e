//! A surveillance scenario end to end: the *real* ATR pipeline processes
//! a stream of synthetic camera frames while the *simulated* distributed
//! system accounts for the energy of running exactly that workload on two
//! battery-powered nodes with node rotation.
//!
//! ```text
//! cargo run -p dles-examples --bin surveillance_pipeline --release [n_frames]
//! ```
//!
//! This is the workload the paper's introduction motivates: a camera
//! producing one frame every D = 2.3 s, targets to detect and range, and
//! a battery budget that decides how long the post stays up.
#![forbid(unsafe_code)]

use dles_atr::pipeline::AtrPipeline;
use dles_atr::scene::SceneBuilder;
use dles_core::experiment::Experiment;
use dles_core::run_pipeline;

fn main() {
    let n_frames: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    // --- The functional side: actually process frames. ---
    println!("processing {n_frames} camera frames through the real ATR pipeline...");
    let pipeline = AtrPipeline::standard();
    let mut detections = 0usize;
    let mut classified = 0usize;
    let mut ranged_m = Vec::new();
    for seed in 0..n_frames {
        let scene = SceneBuilder::new(128, 80)
            .seed(1000 + seed)
            .targets(1)
            .noise_sigma(5.0)
            .build();
        let report = pipeline.run(&scene.image);
        let truth = &scene.truth[0];
        if let Some(d) = report.targets.iter().min_by_key(|t| {
            let dx = t.cx as i64 - (truth.x + truth.size / 2) as i64;
            let dy = t.cy as i64 - (truth.y + truth.size / 2) as i64;
            dx * dx + dy * dy
        }) {
            detections += 1;
            if d.class == truth.class {
                classified += 1;
            }
            ranged_m.push((d.distance_m, truth.distance_m));
        }
    }
    println!("  detected {detections}/{n_frames}, correctly classified {classified}/{detections}");
    if !ranged_m.is_empty() {
        let mean_err = ranged_m
            .iter()
            .map(|(est, truth)| (est - truth).abs() / truth)
            .sum::<f64>()
            / ranged_m.len() as f64;
        println!("  mean relative range error {:.0}%", 100.0 * mean_err);
    }

    // --- The energy side: how long would the post stay up? ---
    println!("\nsimulating the battery budget of the two-node rotating deployment...");
    let result = run_pipeline(Experiment::Exp2C.config());
    let frames = result.frames_completed;
    println!(
        "  the two-node post processes {:.1}K frames over {:.1} h before its\n\
         batteries die ({} deadline misses); at one frame per 2.3 s that is\n\
         {:.1} h of continuous surveillance per charge.",
        frames as f64 / 1000.0,
        result.life_hours(),
        result.deadline_misses,
        result.life_hours(),
    );
    let baseline = run_pipeline(Experiment::Exp1.config());
    println!(
        "  a single-node post lasts {:.1} h — the distributed deployment with\n\
         rotation buys {:.0}% more normalized uptime.",
        baseline.life_hours(),
        100.0 * (result.normalized_ratio(&baseline) - 1.0)
    );
}
