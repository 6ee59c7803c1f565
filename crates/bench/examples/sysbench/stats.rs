//! Order statistics the harness reports: exact nearest-rank
//! percentiles over raw samples, the median-over-windows rule every
//! end-to-end value goes through, and the relative range the
//! `--repeat` self-check gates on.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending-sorted
/// slice: the smallest sample with at least `q` of the samples at or
/// below it. `None` when empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied()
}

/// Median of a handful of per-window (or per-round) values: the mean of
/// the two middle values when the count is even. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Latency samples of one timed phase, kept per window so the reported
/// percentile is the median over windows of each window's own
/// percentile (one stalled window cannot move it).
pub struct WindowedSamples {
    windows: Vec<Vec<u32>>,
}

impl WindowedSamples {
    pub fn new(windows: usize) -> Self {
        WindowedSamples {
            windows: vec![Vec::new(); windows.max(1)],
        }
    }

    /// Record a latency in nanoseconds (saturating at ~4.29 s) into
    /// `window`; indices past the end land in the last window, which is
    /// where a round that straddles the deadline belongs.
    pub fn push(&mut self, window: usize, nanos: u64) {
        let last = self.windows.len() - 1;
        self.windows[window.min(last)].push(u32::try_from(nanos).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: WindowedSamples) {
        for (dst, src) in self.windows.iter_mut().zip(other.windows) {
            dst.extend(src);
        }
    }

    pub fn count(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }

    /// Samples above `limit_ns`, over every window.
    pub fn count_above(&self, limit_ns: u64) -> u64 {
        self.windows
            .iter()
            .flatten()
            .filter(|&&v| u64::from(v) > limit_ns)
            .count() as u64
    }

    /// Sort every window once; the quantile readers below need it.
    pub fn sort(&mut self) {
        for w in &mut self.windows {
            w.sort_unstable();
        }
    }

    /// Median over non-empty windows of the window's own `q`-quantile,
    /// in microseconds. Call [`WindowedSamples::sort`] first.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        median(&self.per_window_us(q))
    }

    /// Each non-empty window's own `q`-quantile, in microseconds.
    pub fn per_window_us(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter_map(|w| percentile_sorted(w, q))
            .map(|ns| f64::from(ns) / 1e3)
            .collect()
    }
}

/// Largest disagreement between repeated sets of one metric, as a
/// share of their median: `(max - min) / |median|`. This is what the
/// `--repeat` self-check holds against the metric's bound. `None` with
/// fewer than two values or a zero median.
pub fn relative_range(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let med = median(values)?;
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (med != 0.0).then(|| (max - min) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), Some(50));
        assert_eq!(percentile_sorted(&s, 0.99), Some(99));
        assert_eq!(percentile_sorted(&s, 0.999), Some(100));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1));
        assert_eq!(percentile_sorted(&s, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7u32], 0.5), Some(7));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let mut w = WindowedSamples::new(5);
        for win in 0..5 {
            for i in 0..100u64 {
                // Window 3 stalls: everything 1000x slower.
                let base = if win == 3 { 1_000_000 } else { 1_000 };
                w.push(win, base * (i + 1));
            }
        }
        // Past-the-end indices land in the last window.
        w.push(9, 50_000);
        w.sort();
        assert_eq!(w.count(), 501);
        // Per-window p50 is 50 us in four windows and 50 ms in one; the
        // median over windows stays at 50 us.
        assert_eq!(w.quantile_us(0.5), Some(50.0));
        assert_eq!(w.count_above(250_000_000), 0);
        assert_eq!(w.count_above(50_000_000), 50);
    }

    #[test]
    fn relative_range_is_max_minus_min_over_median() {
        let s = relative_range(&[10.0, 12.0]).unwrap();
        assert!((s - 2.0 / 11.0).abs() < 1e-12, "{s}");
        assert_eq!(relative_range(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(relative_range(&[1.0]), None);
        assert_eq!(relative_range(&[0.0, 0.0]), None);
    }
}
