//! Explore the partitioning design space: every contiguous split of the
//! ATR chain over 1–4 nodes, its required clock rates, feasibility, and
//! power ranking — with an adjustable frame deadline.
//!
//! ```text
//! cargo run -p dles-examples --bin partition_explorer --release [D_secs]
//! ```
#![forbid(unsafe_code)]

use dles_atr::blocks::partitions;
use dles_core::partition::{analyze_partition, best_partition};
use dles_core::workload::SystemConfig;
use dles_sim::SimTime;

fn main() {
    let d_secs: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.3);
    let mut sys = SystemConfig::paper();
    sys.frame_delay = SimTime::from_secs_f64(d_secs);

    println!("partition explorer — frame deadline D = {d_secs} s\n");
    for n in 1..=4usize {
        println!("--- {n} node(s) ---");
        for ranges in partitions(n) {
            let a = analyze_partition(&sys, &ranges);
            let scheme: Vec<String> = ranges.iter().map(|r| format!("{r}")).collect();
            print!("{:<78}", scheme.join(" "));
            if a.is_feasible() {
                let levels: Vec<String> = a
                    .levels
                    .iter()
                    .map(|l| format!("{:.1}", l.unwrap().freq_mhz.mhz()))
                    .collect();
                println!(
                    " levels [{}] MHz, Σf·V² = {:.0}",
                    levels.join(", "),
                    a.power_proxy()
                );
            } else {
                let worst = a
                    .required_mhz
                    .iter()
                    .map(|f| f.mhz())
                    .fold(0.0f64, f64::max);
                println!(" INFEASIBLE (needs {worst:.0} MHz)");
            }
        }
        match best_partition(&sys, n) {
            Some(best) => {
                let levels: Vec<String> = best
                    .levels
                    .iter()
                    .map(|l| format!("{:.1}", l.unwrap().freq_mhz.mhz()))
                    .collect();
                println!("  => best: levels [{}] MHz\n", levels.join(", "));
            }
            None => println!("  => no feasible partition at D = {d_secs} s\n"),
        }
    }
    println!(
        "try a tighter deadline (e.g. `partition_explorer 1.8`) to watch\n\
         the I/O-heavy schemes fall off the feasible set, or a looser one\n\
         (e.g. 4.0) to see every node reach the 59 MHz floor."
    );
}
