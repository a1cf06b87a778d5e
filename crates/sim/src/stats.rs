//! Online statistics for simulation outputs: counters and fixed-bin
//! histograms (for latencies).

/// A named family of monotonic counters, kept in first-increment order so
/// reports render deterministically. Lookups are linear — the simulator
/// maintains a few dozen counters at most, far below the point where a map
/// would win.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterSet {
    counters: Vec<(String, u64)>,
}

impl CounterSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter, creating it at zero first if needed.
    fn add(&mut self, name: &str, n: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(k, _)| k == name) {
            *v += n;
        } else {
            self.counters.push((name.to_owned(), n));
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value (0 for a counter never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Counters in first-increment order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold another set into this one (summing shared names).
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, v) in other.iter() {
            self.add(name, v);
        }
    }
}

/// A fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    sum_sq: f64,
}

impl Histogram {
    /// `nbins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((v - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0).sqrt()
    }

    /// Approximate quantile from bin midpoints (`q` in `[0,1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target && self.underflow > 0 {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            seen += b;
            if seen >= target {
                return self.lo + (i as f64 + 0.5) * width;
            }
        }
        self.hi
    }
}

/// Summary statistics of a batch of samples (one Monte Carlo metric):
/// exact mean/std/extrema plus histogram-approximated percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    pub mean: f64,
    pub std_dev: f64,
    pub p05: f64,
    pub p50: f64,
    pub p95: f64,
    pub min: f64,
    pub max: f64,
}

impl DistSummary {
    /// Summarize a non-empty batch. Percentiles come from a 256-bin
    /// [`Histogram`] spanning the observed range, so the summary is a pure
    /// function of the values — independent of how they were produced.
    /// Non-finite values are tolerated deterministically: `f64::min`/`max`
    /// ignore NaN, and an all-NaN batch falls back to a unit range instead
    /// of panicking on inverted histogram bounds.
    pub fn from_values(values: &[f64]) -> DistSummary {
        assert!(!values.is_empty(), "cannot summarize an empty batch");
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Histogram bounds must be finite and ordered; a batch with no
        // finite values (all NaN/±inf) falls back to a unit range so the
        // summary stays deterministic instead of panicking.
        let (lo, top) = if min.is_finite() && max.is_finite() {
            (min, max)
        } else {
            (0.0, 1.0)
        };
        // Histogram bins are half-open; pad the top so `max` lands inside.
        let hi = if top > lo {
            top + (top - lo) * 1e-9
        } else {
            lo + 1.0
        };
        let mut h = Histogram::new(lo, hi, 256);
        for &v in values {
            h.record(v);
        }
        DistSummary {
            mean: h.mean(),
            std_dev: h.std_dev(),
            p05: h.quantile(0.05),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "tests the method itself, on keys of its own"
    )]
    fn counter_set_preserves_insertion_order() {
        let mut cs = CounterSet::new();
        cs.incr("frames");
        cs.add("bytes", 100);
        cs.incr("frames");
        assert_eq!(cs.get("frames"), 2);
        assert_eq!(cs.get("bytes"), 100);
        assert_eq!(cs.get("never"), 0);
        let names: Vec<&str> = cs.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["frames", "bytes"]);
    }

    #[test]
    fn counter_set_merge_sums_shared_names() {
        let mut a = CounterSet::new();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = CounterSet::new();
        b.add("y", 3);
        b.add("z", 5);
        a.merge(&b);
        assert_eq!(a.get("x"), 2);
        assert_eq!(a.get("y"), 4);
        assert_eq!(a.get("z"), 5);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert!((h.std_dev() - (1.25f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.5);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.bins.iter().sum::<u64>(), 1);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q75 = h.quantile(0.75);
        assert!(q25 <= q50 && q50 <= q75);
        assert!((q50 - 50.0).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid histogram bounds")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn dist_summary_moments_and_percentiles() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = DistSummary::from_values(&values);
        assert!((s.mean - 49.5).abs() < 1e-9, "mean {}", s.mean);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 99.0);
        assert!(s.p05 <= s.p50 && s.p50 <= s.p95);
        assert!((s.p50 - 49.5).abs() < 2.0, "p50 {}", s.p50);
    }

    #[test]
    fn dist_summary_tolerates_nan_values() {
        // Before the sort moved to total_cmp an all-NaN batch panicked on
        // inverted histogram bounds; now every field is a deterministic value.
        let s = DistSummary::from_values(&[f64::NAN, f64::NAN]);
        assert!(s.mean.is_nan());
        assert!(s.p50.is_finite());
        // A NaN mixed into a finite batch keeps the finite extrema.
        let s = DistSummary::from_values(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.p50.is_finite());
    }

    #[test]
    fn dist_summary_of_constant_batch() {
        let s = DistSummary::from_values(&[4.2; 8]);
        assert!((s.mean - 4.2).abs() < 1e-12);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
        assert!((s.p50 - 4.2).abs() < 0.1);
    }
}
