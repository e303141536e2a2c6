//! Small numeric helpers shared by every workload: nearest-rank quantiles
//! that carry their sample count, ratios that tolerate a zero base, and the
//! process's peak resident memory.

/// A percentile read off the benchmark's own per-call samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank (0.0 when there are no samples).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly beyond the chosen rank.
    pub beyond: usize,
}

impl Quantile {
    /// Fewer than this many samples beyond a percentile make it a guess
    /// about the tail rather than a measurement of it.
    pub const MIN_BEYOND: usize = 10;

    /// Whether too few samples lie beyond the rank for the figure to be
    /// trusted as that percentile.
    pub fn low_confidence(&self) -> bool {
        self.beyond < Self::MIN_BEYOND
    }

    /// One line for the human-readable report: value, sample count, flag.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "{:.4} {unit} (n={}, {} beyond{})",
            self.value * scale,
            self.samples,
            self.beyond,
            if self.low_confidence() {
                ", LOW CONFIDENCE: fewer than 10 samples beyond"
            } else {
                ""
            }
        )
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`, which are
/// sorted in place.  Rank is `ceil(p/100 * n)`, clamped to `1..=n`.
pub fn quantile(samples: &mut [f64], p: f64) -> Quantile {
    let n = samples.len();
    if n == 0 {
        return Quantile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Quantile {
        value: samples[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Median of `samples` (nearest rank), 0.0 for none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 50.0).value
}

/// `num / base`, defined as 0.0 when the base is zero: a layer metric that
/// belongs to another workload (flushes per edge on a read-only run, say)
/// reads as zero work instead of NaN or infinity.
pub fn per(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0.0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = quantile(&mut xs, 50.0);
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        let p99 = quantile(&mut xs, 99.0);
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert_eq!(quantile(&mut xs, 100.0).value, 100.0);
        assert_eq!(quantile(&mut xs, 0.0).value, 1.0);
    }

    #[test]
    fn percentile_with_few_samples_beyond_is_flagged() {
        let mut xs: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: p99 has 10 beyond it, p99.9 only one.
        assert!(!quantile(&mut xs, 99.0).low_confidence());
        assert!(quantile(&mut xs, 99.9).low_confidence());
        // 50 samples: even p50 has 25 beyond, but p99 has none.
        let mut few: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(!quantile(&mut few, 50.0).low_confidence());
        let p99 = quantile(&mut few, 99.0);
        assert_eq!((p99.samples, p99.beyond), (50, 0));
        assert!(p99.low_confidence());
        assert!(p99.describe(1.0, "ms").contains("LOW CONFIDENCE"));
    }

    #[test]
    fn quantile_of_nothing_is_zero_with_zero_samples() {
        let q = quantile(&mut [], 50.0);
        assert_eq!((q.value, q.samples, q.beyond), (0.0, 0, 0));
        assert!(q.low_confidence());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ratio_with_a_zero_base_is_zero() {
        assert_eq!(per(5.0, 0.0), 0.0);
        assert_eq!(per(0.0, 0.0), 0.0);
        assert_eq!(per(6.0, 3.0), 2.0);
    }
}
