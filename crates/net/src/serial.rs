//! Serial-link timing: the paper's measured PPP-over-RS-232 behaviour.
//!
//! §4.3: "The PPP connection on the serial port has a maximum data rate of
//! 115.2 Kbps, though our measured data rate is roughly 80 Kbps. In
//! addition, the startup time for establishing a single communication
//! transaction takes 50–100 ms."
//!
//! A transfer of `B` bytes therefore costs
//! `t = t_startup + 8·B / effective_bps`, with `t_startup` uniform in
//! [50 ms, 100 ms] (deterministic midpoint when no RNG is supplied). This
//! reconstruction reproduces every latency in Fig. 6 (10.1 KB → ~1.1 s,
//! 7.5 KB → ~0.85 s, 0.1 KB → ~0.09 s).

use dles_sim::{SimRng, SimTime};

/// Timing parameters of one serial link.
#[derive(Debug, Clone, Copy)]
pub struct SerialConfig {
    /// Raw UART line rate, bits/s (115 200 on Itsy).
    pub line_bps: f64,
    /// Measured effective payload throughput, bits/s (~80 000).
    pub effective_bps: f64,
    /// Minimum per-transaction startup latency.
    pub startup_min: SimTime,
    /// Maximum per-transaction startup latency.
    pub startup_max: SimTime,
}

impl SerialConfig {
    /// The paper's measured configuration.
    pub fn paper() -> Self {
        SerialConfig {
            line_bps: 115_200.0,
            effective_bps: 80_000.0,
            startup_min: SimTime::from_millis(50),
            startup_max: SimTime::from_millis(100),
        }
    }

    /// A configuration with a different effective data rate (ablations).
    pub fn with_effective_bps(mut self, bps: f64) -> Self {
        assert!(bps > 0.0, "data rate must be positive");
        self.effective_bps = bps;
        self
    }

    /// Midpoint of the startup window — the deterministic default.
    pub(crate) fn startup_nominal(&self) -> SimTime {
        SimTime::from_micros((self.startup_min.as_micros() + self.startup_max.as_micros()) / 2)
    }

    /// Startup latency drawn uniformly from the configured window.
    pub(crate) fn startup_jittered(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_micros(
            rng.uniform_u64(self.startup_min.as_micros(), self.startup_max.as_micros()),
        )
    }

    /// Wire time for `bytes` of payload, excluding startup.
    pub(crate) fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * 8.0 / self.effective_bps)
    }

    /// Total deterministic transfer latency in seconds (nominal startup).
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        (self.startup_nominal() + self.wire_time(bytes)).as_secs_f64()
    }

    /// Total transfer latency with jittered startup.
    pub fn transfer_time(&self, bytes: u64, rng: Option<&mut SimRng>) -> SimTime {
        let startup = match rng {
            Some(r) => self.startup_jittered(r),
            None => self.startup_nominal(),
        };
        startup + self.wire_time(bytes)
    }

    /// Link efficiency: effective over raw line rate (~69% on Itsy, the
    /// PPP/TCP/interrupt overhead the measured 80 kbps reflects).
    pub fn efficiency(&self) -> f64 {
        self.effective_bps / self.line_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig6_latencies() {
        let cfg = SerialConfig::paper();
        // (payload KB, expected seconds) from Fig. 6.
        let cases = [
            (10_342u64, 1.1, 0.05),
            (7_680, 0.85, 0.04),
            (614, 0.16, 0.04),
            (102, 0.1, 0.02),
        ];
        for (bytes, expected, tol) in cases {
            let t = cfg.transfer_secs(bytes);
            assert!(
                (t - expected).abs() <= tol,
                "{bytes} B: got {t:.3} s, paper says {expected} s"
            );
        }
    }

    #[test]
    fn startup_window_respected() {
        let cfg = SerialConfig::paper();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..500 {
            let s = cfg.startup_jittered(&mut rng);
            assert!(s >= SimTime::from_millis(50) && s <= SimTime::from_millis(100));
        }
        assert_eq!(cfg.startup_nominal(), SimTime::from_millis(75));
    }

    #[test]
    fn ack_costs_only_startup() {
        let cfg = SerialConfig::paper();
        // An acknowledgment is a zero-payload transaction. §5.4: "the
        // acknowledgment signal requires a separate transaction, which
        // typically costs 50–100 ms".
        let ack = cfg.transfer_time(0, None);
        assert_eq!(ack, cfg.startup_nominal());
        assert!(ack >= SimTime::from_millis(50) && ack <= SimTime::from_millis(100));
    }

    #[test]
    fn wire_time_is_linear_in_bytes() {
        let cfg = SerialConfig::paper();
        let t1 = cfg.wire_time(1000).as_secs_f64();
        let t2 = cfg.wire_time(2000).as_secs_f64();
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        assert!((t1 - 0.1).abs() < 1e-9); // 8000 bits at 80 kbps
    }

    #[test]
    fn efficiency_matches_measurement() {
        let cfg = SerialConfig::paper();
        assert!((cfg.efficiency() - 80.0 / 115.2).abs() < 1e-9);
    }

    #[test]
    fn ablation_constructors() {
        let fast = SerialConfig::paper().with_effective_bps(1_000_000.0);
        assert!(fast.transfer_secs(10_342) < 0.2);
    }

    #[test]
    fn jittered_transfer_deterministic_per_seed() {
        let cfg = SerialConfig::paper();
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        for bytes in [10u64, 1000, 100_000] {
            assert_eq!(
                cfg.transfer_time(bytes, Some(&mut r1)),
                cfg.transfer_time(bytes, Some(&mut r2))
            );
        }
    }
}
