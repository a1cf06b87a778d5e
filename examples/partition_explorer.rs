//! Explore the partitioning design space: every contiguous split of the
//! ATR chain over 1–4 nodes, its required clock rates, feasibility, and
//! power ranking — with an adjustable frame deadline.
//!
//! ```text
//! cargo run -p dles-examples --bin partition_explorer --release [D_secs]
//! ```
//!
//! `D_secs` defaults to the paper's 2.3 s; anything but a finite positive
//! number is a usage error (exit 2).
#![forbid(unsafe_code)]

use dles_atr::blocks::partitions;
use dles_core::partition::{analyze_partition, best_partition};
use dles_core::workload::SystemConfig;
use dles_sim::SimTime;

/// The frame deadline in seconds: §5.1's 2.3 s when `arg` is absent,
/// else `arg` if it is a finite positive number.
fn parse_deadline(arg: Option<&str>) -> Result<f64, String> {
    let Some(arg) = arg else { return Ok(2.3) };
    arg.parse()
        .ok()
        .filter(|d: &f64| d.is_finite() && *d > 0.0)
        .ok_or_else(|| {
            format!("the frame deadline must be a positive number of seconds, got {arg:?}")
        })
}

fn main() {
    let arg = std::env::args().nth(1);
    let d_secs = parse_deadline(arg.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_defaults_to_the_paper_and_rejects_non_positive_or_garbage() {
        assert_eq!(parse_deadline(None), Ok(2.3));
        assert_eq!(parse_deadline(Some("1.8")), Ok(1.8));
        for bad in ["abc", "", "0", "-0", "-1", "inf", "NaN", "1e999"] {
            assert!(parse_deadline(Some(bad)).is_err(), "{bad}");
        }
    }
}
