//! Algorithm 1: dominating position ranges.
//!
//! For a backward queue position `k` (the task plus `k − 1` tasks behind
//! it pay for its execution time), the per-cycle cost of running at rate
//! `p_i` is the line `f_i(k) = Re·E(p_i) + Rt·T(p_i)·k` (Equation 20).
//! The *dominating position set* `D_p` of a rate `p` is the set of `k`
//! where `p` minimizes `f`, choosing the higher rate on ties. Because the
//! `f_i` are lines with slopes `Rt·T(p_i)` strictly decreasing in `i`,
//! the minimum over rates is the lower envelope, each `D_p` is a
//! contiguous (possibly empty) range, and the envelope is a convex hull
//! computable in Θ(|P|) with a monotone stack — exactly Algorithm 1.
//!
//! Boundary positions are integers. We compute each boundary with a
//! floating ceil and then repair it by direct `f` comparison, so the
//! result is exact with respect to `f64` line evaluation, including the
//! paper's "higher rate wins ties" convention.

use dvfs_model::{CostParams, RateIdx, RateTable};

/// One dominating range: rate `rate` is optimal for all backward
/// positions `k` with `lb <= k < ub` (`ub = None` means unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// The rate index into the originating [`RateTable`].
    pub rate: RateIdx,
    /// Inclusive lower bound of the backward-position range.
    pub lb: u64,
    /// Exclusive upper bound; `None` for the last (unbounded) range.
    pub ub: Option<u64>,
}

impl RangeEntry {
    /// Whether backward position `k` falls in this range.
    #[must_use]
    pub fn contains(&self, k: u64) -> bool {
        k >= self.lb && self.ub.is_none_or(|ub| k < ub)
    }

    /// Inclusive upper bound capped at `n` (the current queue length),
    /// or `None` when the range starts beyond `n`.
    #[must_use]
    pub fn clamped_end(&self, n: u64) -> Option<u64> {
        let hi = match self.ub {
            Some(ub) => (ub - 1).min(n),
            None => n,
        };
        (self.lb <= hi).then_some(hi)
    }
}

/// The full partition of backward positions `1..∞` among the rates of a
/// table (the non-empty `D_p` of Algorithm 1, i.e. the set `P̂`).
///
/// ```
/// use dvfs_core::DominatingRanges;
/// use dvfs_model::{CostParams, RateTable};
///
/// let table = RateTable::i7_950_table2();
/// let dr = DominatingRanges::compute(&table, CostParams::batch_paper());
/// // A task that delays only itself runs slow; one that delays many
/// // runs at the top rate.
/// assert_eq!(dr.rate_for(1), 0);
/// assert_eq!(dr.rate_for(1000), table.max_rate());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DominatingRanges {
    entries: Vec<RangeEntry>,
    /// Cost-line coefficients per entry: `(Re·E(p), Rt·T(p))`.
    coeffs: Vec<(f64, f64)>,
}

impl DominatingRanges {
    /// Run Algorithm 1 for `table` under `params`. Θ(|P|).
    #[must_use]
    pub fn compute(table: &RateTable, params: CostParams) -> Self {
        // Dual points t_i = (x = Rt·T(p_i), y = Re·E(p_i)); ascending
        // rate order gives strictly decreasing x and increasing y.
        let pts: Vec<(f64, f64)> = table
            .points()
            .iter()
            .map(|r| (params.rt * r.time_per_cycle, params.re * r.energy_per_cycle))
            .collect();
        let f = |i: usize, k: u64| pts[i].1 + pts[i].0 * k as f64;

        // Lower-hull monotone stack (Algorithm 1 lines 8–16).
        let cross = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| -> f64 {
            (a.0 - o.0) * (b.1 - o.1) - (b.0 - o.0) * (a.1 - o.1)
        };
        let mut stack: Vec<usize> = Vec::with_capacity(pts.len());
        for i in 0..pts.len() {
            while stack.len() >= 2 {
                let a = stack[stack.len() - 2];
                let b = stack[stack.len() - 1];
                if cross(pts[a], pts[b], pts[i]) >= 0.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(i);
        }

        // Boundary extraction (lines 17–27) with integer repair.
        let mut entries = Vec::with_capacity(stack.len());
        let mut lb: u64 = 1;
        for w in 0..stack.len() {
            let cur = stack[w];
            if w + 1 == stack.len() {
                entries.push(RangeEntry {
                    rate: cur,
                    lb,
                    ub: None,
                });
                break;
            }
            let nxt = stack[w + 1];
            // First integer k where the faster line is no worse:
            // k >= (y_cur − y_nxt)/(x_nxt − x_cur)... solved for
            // f_nxt(k) <= f_cur(k); ceil then repair against exact f64
            // comparisons (ties go to the higher rate, i.e. to nxt).
            let raw = (pts[nxt].1 - pts[cur].1) / (pts[cur].0 - pts[nxt].0);
            let mut k = raw.ceil().max(1.0) as u64;
            while k > 1 && f(nxt, k - 1) <= f(cur, k - 1) {
                k -= 1;
            }
            while f(nxt, k) > f(cur, k) {
                k += 1;
            }
            let nlb = k.max(lb);
            if lb < nlb {
                entries.push(RangeEntry {
                    rate: cur,
                    lb,
                    ub: Some(nlb),
                });
            }
            lb = nlb;
        }
        let coeffs = entries
            .iter()
            .map(|e| {
                let r = table.rate(e.rate);
                (params.re * r.energy_per_cycle, params.rt * r.time_per_cycle)
            })
            .collect();
        DominatingRanges { entries, coeffs }
    }

    /// The non-empty ranges in ascending position (and rate) order.
    #[must_use]
    pub fn entries(&self) -> &[RangeEntry] {
        &self.entries
    }

    /// The cost-line coefficients `(Re·E(p), Rt·T(p))` of range `i`.
    #[must_use]
    pub fn coeffs(&self, i: usize) -> (f64, f64) {
        self.coeffs[i]
    }

    /// Index of the range containing backward position `k` (binary
    /// search; `O(log |P̂|)`).
    ///
    /// # Panics
    /// Panics when `k == 0` (positions are 1-based).
    #[must_use]
    pub fn range_index_for(&self, k: u64) -> usize {
        assert!(k >= 1, "backward positions are 1-based");
        // partition_point: first entry with lb > k, minus one.
        let i = self.entries.partition_point(|e| e.lb <= k);
        debug_assert!(i >= 1);
        i - 1
    }

    /// The optimal rate for backward position `k` (ties already resolved
    /// to the higher rate).
    #[must_use]
    pub fn rate_for(&self, k: u64) -> RateIdx {
        self.entries[self.range_index_for(k)].rate
    }

    /// `C^B(k) = min_p C^B(k, p)`: the per-cycle cost at backward
    /// position `k` under the optimal rate.
    #[must_use]
    pub fn cost_at(&self, k: u64) -> f64 {
        let i = self.range_index_for(k);
        let (e, t) = self.coeffs[i];
        e + t * k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `|P̂|`: number of rates that dominate at least one position.
    fn num_used_rates(dr: &DominatingRanges) -> usize {
        dr.entries().len()
    }

    fn brute_force_rate(table: &RateTable, params: CostParams, k: u64) -> RateIdx {
        let mut best = (f64::INFINITY, 0usize);
        for p in 0..table.len() {
            let r = table.rate(p);
            let c = params.re * r.energy_per_cycle + k as f64 * params.rt * r.time_per_cycle;
            if c <= best.0 {
                best = (c, p); // later (higher) rate wins ties
            }
        }
        best.1
    }

    #[test]
    fn table2_ranges_match_brute_force() {
        let table = RateTable::i7_950_table2();
        let params = CostParams::batch_paper();
        let dr = DominatingRanges::compute(&table, params);
        for k in 1..100_000u64 {
            assert_eq!(
                dr.rate_for(k),
                brute_force_rate(&table, params, k),
                "mismatch at backward position {k}"
            );
        }
    }

    #[test]
    fn ranges_are_contiguous_from_one() {
        let table = RateTable::i7_950_table2();
        let dr = DominatingRanges::compute(&table, CostParams::batch_paper());
        let es = dr.entries();
        assert_eq!(es[0].lb, 1);
        for w in es.windows(2) {
            assert_eq!(w[0].ub, Some(w[1].lb), "ranges must tile the positions");
            assert!(w[0].rate < w[1].rate, "rates ascend with position");
        }
        assert_eq!(es.last().unwrap().ub, None);
    }

    #[test]
    fn position_one_uses_slowest_useful_rate() {
        // With batch params on Table II, a task that delays only itself
        // should run slow; the first range must start at the min rate or
        // at least at the hull's cheapest line at k=1.
        let table = RateTable::i7_950_table2();
        let params = CostParams::batch_paper();
        let dr = DominatingRanges::compute(&table, params);
        assert_eq!(dr.rate_for(1), brute_force_rate(&table, params, 1));
    }

    #[test]
    fn far_positions_use_fastest_rate() {
        let table = RateTable::i7_950_table2();
        let dr = DominatingRanges::compute(&table, CostParams::batch_paper());
        assert_eq!(dr.rate_for(1_000_000_000), table.max_rate());
    }

    #[test]
    fn cost_at_is_increasing_in_backward_position() {
        // Lemma 2 restated: C^B*(k) strictly increases with k.
        let table = RateTable::i7_950_table2();
        let dr = DominatingRanges::compute(&table, CostParams::batch_paper());
        let mut prev = 0.0;
        for k in 1..10_000 {
            let c = dr.cost_at(k);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn energy_heavy_params_never_leave_the_slowest_rate_early() {
        // Huge Re relative to Rt: the slowest rate should dominate a very
        // long prefix of positions.
        let table = RateTable::i7_950_table2();
        let params = CostParams::new(1000.0, 1e-9).unwrap();
        let dr = DominatingRanges::compute(&table, params);
        assert_eq!(dr.rate_for(1), 0);
        assert_eq!(dr.rate_for(1_000_000), 0);
    }

    #[test]
    fn time_heavy_params_use_only_the_fastest_rate() {
        let table = RateTable::i7_950_table2();
        let params = CostParams::new(1e-9, 1000.0).unwrap();
        let dr = DominatingRanges::compute(&table, params);
        assert_eq!(num_used_rates(&dr), 1);
        assert_eq!(dr.entries()[0].rate, table.max_rate());
        assert_eq!(dr.entries()[0].lb, 1);
    }

    #[test]
    fn tie_positions_choose_higher_rate() {
        // Construct two rates whose lines cross exactly at k = 10:
        // f1(k) = 100 + 10k, f2(k) = 150 + 5k → equal at k = 10.
        let table = RateTable::new(vec![
            dvfs_model::RatePoint {
                freq_hz: 0.1,
                energy_per_cycle: 100.0,
                time_per_cycle: 10.0,
            },
            dvfs_model::RatePoint {
                freq_hz: 0.2,
                energy_per_cycle: 150.0,
                time_per_cycle: 5.0,
            },
        ])
        .unwrap();
        let params = CostParams::new(1.0, 1.0).unwrap();
        let dr = DominatingRanges::compute(&table, params);
        assert_eq!(dr.rate_for(9), 0);
        assert_eq!(dr.rate_for(10), 1, "tie at k=10 goes to the higher rate");
        assert_eq!(dr.rate_for(11), 1);
    }

    #[test]
    fn single_rate_table_covers_everything() {
        let table = RateTable::synthetic_quadratic(1, 2.0, 2.0);
        let dr = DominatingRanges::compute(&table, CostParams::batch_paper());
        assert_eq!(num_used_rates(&dr), 1);
        assert_eq!(dr.rate_for(1), 0);
        assert_eq!(dr.rate_for(u64::MAX / 2), 0);
    }

    #[test]
    fn range_entry_helpers() {
        let e = RangeEntry {
            rate: 2,
            lb: 5,
            ub: Some(9),
        };
        assert!(!e.contains(4));
        assert!(e.contains(5));
        assert!(e.contains(8));
        assert!(!e.contains(9));
        assert_eq!(e.clamped_end(100), Some(8));
        assert_eq!(e.clamped_end(6), Some(6));
        assert_eq!(e.clamped_end(4), None);
        let last = RangeEntry {
            rate: 4,
            lb: 20,
            ub: None,
        };
        assert!(last.contains(u64::MAX));
        assert_eq!(last.clamped_end(50), Some(50));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        #[test]
        fn prop_matches_brute_force(
            levels in 2usize..12,
            re in 0.01f64..10.0,
            rt in 0.01f64..10.0,
            ks in prop::collection::vec(1u64..200_000, 1..50),
        ) {
            let table = RateTable::synthetic_quadratic(levels, 0.5, 3.5);
            let params = CostParams::new(re, rt).unwrap();
            let dr = DominatingRanges::compute(&table, params);
            for k in ks {
                prop_assert_eq!(dr.rate_for(k), brute_force_rate(&table, params, k));
            }
        }

        #[test]
        fn prop_ranges_tile_positions(levels in 1usize..32, re in 0.01f64..5.0, rt in 0.01f64..5.0) {
            let table = RateTable::synthetic_quadratic(levels, 0.3, 4.0);
            let params = CostParams::new(re, rt).unwrap();
            let dr = DominatingRanges::compute(&table, params);
            let es = dr.entries();
            prop_assert_eq!(es[0].lb, 1);
            for w in es.windows(2) {
                prop_assert_eq!(w[0].ub, Some(w[1].lb));
            }
            prop_assert_eq!(es[es.len()-1].ub, None);
        }
    }
}
