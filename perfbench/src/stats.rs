//! Order statistics and process-level measurements.

/// The `q`-quantile (`0 <= q <= 1`) of `values` by the nearest-rank
/// rule; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (nearest rank); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Decision times in fixed memory: a log-linear histogram of
/// nanoseconds with 128 linear buckets per power of two (bucket width
/// under 0.8 % of the value), exact below 128 ns. A run keeps hundreds
/// of thousands of decisions; a growing list of them would show up in
/// the process's own peak memory, which is an end-to-end metric.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
            n: 0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) & (SUB - 1)) as usize
    }

    /// The `[low, high)` nanosecond range of bucket `i`.
    fn range(i: usize) -> (f64, f64) {
        if (i as u64) < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let shift = (i >> SUB_BITS) as u32 - 1;
        let low = (SUB + (i as u64 & (SUB - 1))) << shift;
        (low as f64, (low + (1u64 << shift)) as f64)
    }

    /// Records one duration in seconds.
    pub fn record(&mut self, seconds: f64) {
        let ns = (seconds * 1e9).round().max(0.0) as u64;
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q`-quantile in seconds (nearest rank, interpolated within
    /// its bucket); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (low, high) = Self::range(i);
                let within = (rank - below) as f64 - 0.5;
                return Some((low + (high - low) * within / c as f64) * 1e-9);
            }
            below += c;
        }
        None
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LatencyHist::default();
        assert_eq!(h.quantile(0.5), None);
        // 1 µs .. 10 ms in 1 µs steps.
        for us in 1..=10_000u32 {
            h.record(f64::from(us) * 1e-6);
        }
        assert_eq!(h.len(), 10_000);
        for (q, exact) in [(0.5, 5e-3), (0.9, 9e-3), (0.99, 9.9e-3), (1.0, 1e-2)] {
            let got = h.quantile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.008,
                "q={q}: {got} vs {exact}"
            );
        }
        // Every bucket maps back to the range that holds its values.
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (low, high) = LatencyHist::range(LatencyHist::index(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns}: [{low}, {high})"
            );
        }
    }
}
