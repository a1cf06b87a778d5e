//! Quickstart: simulate the paper's baseline and its best technique.
//!
//! ```text
//! cargo run -p dles-examples --bin quickstart --release
//! ```
//!
//! Runs the single-node baseline (experiment 1) and the node-rotation
//! configuration (experiment 2C) to battery exhaustion and prints the
//! headline comparison: node rotation extends normalized battery life by
//! roughly 45%.
#![forbid(unsafe_code)]

use dles_core::experiment::Experiment;
use dles_core::run_pipeline;

fn main() {
    println!("dles quickstart — Liu & Chou (IPPS 2004) reproduction\n");

    println!("running baseline (one Itsy node at 206.4 MHz, D = 2.3 s)...");
    let baseline = run_pipeline(Experiment::Exp1.config());
    println!(
        "  T(1) = {:.2} h, F(1) = {:.1}K frames",
        baseline.life_hours(),
        baseline.kframes()
    );

    println!("running node rotation (two nodes at 59/103.2 MHz, rotate every 100 frames)...");
    let rotation = run_pipeline(Experiment::Exp2C.config());
    println!(
        "  T(2C) = {:.2} h, F(2C) = {:.1}K frames",
        rotation.life_hours(),
        rotation.kframes()
    );

    let rnorm = 100.0 * rotation.normalized_ratio(&baseline);
    println!(
        "\nnormalized battery-life ratio R_norm(2C) = {:.0}% (paper: 145%)",
        rnorm
    );
    println!(
        "node rotation extended normalized battery life by {:.0}% — the\n\
         paper's headline result (abstract: \"node rotation showed the most\n\
         measurable improvement to battery lifetime at 45%\").",
        rnorm - 100.0
    );
}
