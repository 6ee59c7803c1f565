//! The dynamic cost ledger of Section IV-A (Algorithms 4–6).
//!
//! A single-core queue of non-interactive tasks is kept sorted in
//! non-decreasing cycle order (Theorem 3). The ledger stores the tasks in
//! a [`CycleTree`] (descending cycles, so tree rank = backward position
//! `k^B`) and, per dominating position range `i` (Algorithm 1), the
//! bookkeeping tuple `(α_i, β_i, a_i, b_i, x_i, d_i)`:
//!
//! * `a_i` — the range's fixed lower backward position;
//! * `b_i` — the occupied inclusive end (`a_i − 1` when empty);
//! * `x_i = ξ(D_i)` — total cycles of tasks currently in the range;
//! * `d_i = Δ(D_i)` — their position-weighted sum, positions local to
//!   the range;
//! * `α_i`/`β_i` — handles of the first/last task in the range.
//!
//! Insertion and deletion maintain all tuples in `O(|P̂| + log N)`: one
//! tree descent plus at most one boundary shift per dominating range,
//! each a `prev`/`next` step of the tree — a scan of at most one leaf
//! plus a sibling hop, constant in N. The descent reports the task's
//! [`Position`](dvfs_ostree::Position) — its rank `k^B` and the `ξ` of
//! everything before it — and Algorithm 5/6's
//! `shift = ξ([k^B+1, b_i])` is `Σ_{j≤i} x_j` minus that prefix, read off
//! the tuples; no operation walks the tree twice. The total cost
//!
//! `C = Σ_i Re·E(p_i)·x_i + Rt·T(p_i)·(d_i + (a_i − 1)·x_i)`   (Eq. 32)
//!
//! is recomputed from the `|P̂|` tuples after each update, so reading it
//! is Θ(1).
//!
//! The marginal cost of an insertion ([`CostLedger::marginal_insert_cost`],
//! what Least Marginal Cost compares across cores) is a *query*: one
//! read-only descent says where the task would land, and the tuples say
//! what that does to each range's `(x_i, γ_i)`, exactly, in integers. It
//! mutates nothing and subtracts no two totals.
//!
//! Note: Algorithm 6 line 20 in the paper reads
//! `d_i ← d_i − (k^B−a_i+1)·∗ptr **+** range_sum(Z, [k^B+1, b_i])`; the
//! `+` is a typo — tasks behind the deleted one shift *down* one
//! position, so their ξ must be subtracted. The tests against a naive
//! recomputation pin this down.

use crate::dominating::DominatingRanges;
use dvfs_model::{CostParams, RateIdx, RateTable};
use dvfs_ostree::{CycleTree, Handle};

#[derive(Debug, Clone)]
struct RangeState {
    /// Fixed inclusive lower backward position (Algorithm 4 line 6).
    a: u64,
    /// Fixed inclusive upper backward position (`u64::MAX` for the last).
    ub: u64,
    /// Current occupied inclusive end; `a - 1` when the range is empty.
    b: u64,
    /// `ξ` of the occupied positions.
    x: u128,
    /// `Δ` of the occupied positions (local positions).
    d: u128,
    /// First task of the range (backward position `a`).
    alpha: Option<Handle>,
    /// Last task of the range (backward position `b`).
    beta: Option<Handle>,
}

impl RangeState {
    fn is_empty(&self) -> bool {
        self.b < self.a
    }
    fn len(&self) -> u64 {
        self.b + 1 - self.a
    }
}

/// Dynamic single-core scheduling ledger with `O(|P̂| + log N)`
/// insert/delete and Θ(1) total cost (Algorithms 4–6).
///
/// ```
/// use dvfs_core::CostLedger;
/// use dvfs_model::{CostParams, RateTable};
///
/// let mut ledger = CostLedger::new(&RateTable::i7_950_table2(), CostParams::batch_paper());
/// let h = ledger.insert(2_000_000_000);
/// ledger.insert(500_000_000);
/// // Total cost is maintained; reading it is Θ(1).
/// assert!(ledger.total_cost() > 0.0);
/// // The next task to dispatch is the smallest (shortest-first order).
/// let next = ledger.peek_next_dispatch().unwrap();
/// assert_eq!(ledger.cycles(next), 500_000_000);
/// ledger.remove(h);
/// assert_eq!(ledger.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CostLedger {
    tree: CycleTree,
    ranges: DominatingRanges,
    st: Vec<RangeState>,
    cost: f64,
}

impl CostLedger {
    /// Algorithm 4: initialize from a rate table and cost parameters.
    #[must_use]
    pub fn new(table: &RateTable, params: CostParams) -> Self {
        let ranges = DominatingRanges::compute(table, params);
        let st = ranges
            .entries()
            .iter()
            .map(|e| RangeState {
                a: e.lb,
                ub: e.ub.map_or(u64::MAX, |u| u - 1),
                b: e.lb - 1,
                x: 0,
                d: 0,
                alpha: None,
                beta: None,
            })
            .collect();
        CostLedger {
            tree: CycleTree::new(),
            ranges,
            st,
            cost: 0.0,
        }
    }

    /// Number of queued tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The maintained total cost `C` (Equation 32). Θ(1).
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.cost
    }

    /// The dominating ranges this ledger schedules against.
    #[must_use]
    pub fn ranges(&self) -> &DominatingRanges {
        &self.ranges
    }

    /// Cycle count of a queued task.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[must_use]
    pub fn cycles(&self, h: Handle) -> u64 {
        self.tree.cycles(h)
    }

    /// Current backward position of a queued task.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[must_use]
    pub fn backward_position(&self, h: Handle) -> u64 {
        self.tree.rank(h) as u64
    }

    /// The rate the task at backward position `k` should run at.
    #[must_use]
    pub fn rate_at(&self, k: u64) -> RateIdx {
        self.ranges.rate_for(k)
    }

    /// The smallest-cycle task (largest backward position): the next task
    /// to dispatch under shortest-first execution.
    #[must_use]
    pub fn peek_next_dispatch(&self) -> Option<Handle> {
        self.st.iter().rev().find_map(|s| s.beta)
    }

    /// The longest queued tasks: backward position 1 (the first range's
    /// `α`) and, after it, every task with the same cycle count, in
    /// queue order.
    pub fn longest_run(&self) -> impl Iterator<Item = Handle> + '_ {
        let head = self.st[0].alpha;
        let longest = head.map(|h| self.tree.cycles(h));
        std::iter::successors(head, |&h| self.tree.next(h))
            .take_while(move |&h| Some(self.tree.cycles(h)) == longest)
    }

    /// `Σ_{j≤i} x_j`: the `ξ` of every task in ranges `0..=i`.
    fn xi_through(&self, i: usize) -> u128 {
        self.st[..=i].iter().map(|s| s.x).sum()
    }

    fn recompute_cost(&mut self) {
        let mut c = 0.0;
        for (i, s) in self.st.iter().enumerate() {
            if s.is_empty() {
                continue;
            }
            let (re_e, rt_t) = self.ranges.coeffs(i);
            let gamma = s.d + (s.a as u128 - 1) * s.x;
            c += re_e * s.x as f64 + rt_t * gamma as f64;
        }
        self.cost = c;
    }

    /// Algorithm 5: insert a task. `O(|P̂| + log N)`.
    pub fn insert(&mut self, cycles: u64) -> Handle {
        let (h, at) = self.tree.insert_with_position(cycles);
        let kb = at.rank() as u64;
        let mut i = self.ranges.range_index_for(kb);
        // The range's tasks behind the new one, each pushed back a place.
        let shift = self.xi_through(i) - at.xi_before;
        {
            let s = &mut self.st[i];
            if kb == s.a {
                s.alpha = Some(h);
            }
            if kb > s.b {
                s.beta = Some(h);
            }
            s.b += 1;
            s.x += cycles as u128;
            s.d += (kb - s.a + 1) as u128 * cycles as u128 + shift;
        }

        // Cascade overflow across subsequent ranges (one element each).
        while self.st[i].b > self.st[i].ub {
            let ptr = self.st[i].beta.expect("overflowing range has a tail");
            let lt = self.tree.cycles(ptr) as u128;
            {
                let s = &mut self.st[i];
                s.d -= s.len() as u128 * lt;
                s.x -= lt;
                s.b -= 1;
            }
            if self.st[i].is_empty() {
                self.st[i].alpha = None;
                self.st[i].beta = None;
            } else {
                self.st[i].beta = self.tree.prev(ptr);
            }
            i += 1;
            let s = &mut self.st[i];
            s.alpha = Some(ptr);
            if s.is_empty() {
                s.beta = Some(ptr);
            }
            s.b += 1;
            s.x += lt;
            s.d += s.x;
        }
        self.recompute_cost();
        h
    }

    /// Algorithm 6: delete a queued task. `O(|P̂| + log N)`.
    ///
    /// # Panics
    /// Panics on a stale handle.
    pub fn remove(&mut self, h: Handle) -> u64 {
        // The neighbours of `h`, read before the tree forgets it.
        let (ahead, behind) = (self.tree.prev(h), self.tree.next(h));
        let (cycles, at) = self.tree.remove_with_position(h);
        let kb = at.rank() as u64;
        // Last non-empty range.
        let mut i = self
            .st
            .iter()
            .rposition(|s| !s.is_empty())
            .expect("remove from a non-empty ledger");
        // Shift the head of every range after kb down into the
        // predecessor range (ranks after kb decrease by one).
        while self.st[i].a > kb {
            let tptr = self.st[i].alpha.expect("non-empty range has a head");
            let lt = self.tree.cycles(tptr) as u128;
            {
                let s = &mut self.st[i];
                s.d -= s.x;
                s.x -= lt;
                s.b -= 1;
            }
            if self.st[i].is_empty() {
                self.st[i].alpha = None;
                self.st[i].beta = None;
            } else {
                self.st[i].alpha = self.tree.next(tptr);
            }
            i -= 1;
            let s = &mut self.st[i];
            if s.is_empty() {
                s.alpha = Some(tptr);
            }
            s.beta = Some(tptr);
            s.b += 1;
            s.x += lt;
            s.d += s.len() as u128 * lt;
        }
        debug_assert_eq!(
            i,
            self.ranges.range_index_for(kb),
            "cascade must stop at the target range"
        );
        // Remove the task from its own range (paper line 20 with the
        // sign typo fixed: trailing tasks shift down, subtract their ξ,
        // which is the range's end less the task and what precedes it).
        let shift = self.xi_through(i) - at.xi_before - cycles as u128;
        let s = &mut self.st[i];
        s.d -= (kb - s.a + 1) as u128 * cycles as u128 + shift;
        s.x -= cycles as u128;
        s.b -= 1;
        if s.is_empty() {
            s.alpha = None;
            s.beta = None;
        } else {
            if s.alpha == Some(h) {
                s.alpha = behind;
            }
            if s.beta == Some(h) {
                s.beta = ahead;
            }
        }
        self.recompute_cost();
        cycles
    }

    /// The marginal cost of inserting a task with `cycles` cycles — what
    /// [`total_cost`](Self::total_cost) would grow by — without inserting
    /// it (Least Marginal Cost asks every core's ledger this and inserts
    /// into one). One read-only descent, `O(|P̂| + log N)`.
    ///
    /// With `r` the backward position the task would take this is
    /// `C^B(r)·L`, plus `Rt·T(p_i)` per cycle for every task pushed back a
    /// place inside its range `i`, plus `C^B(ub_i+1) − C^B(ub_i)` per
    /// cycle for each full range's tail, which crosses into the next
    /// range. It is summed range by range instead, as
    /// `Re·E(p_i)·Δx_i + Rt·T(p_i)·Δγ_i` — the same total — because those
    /// changes are exact integers and none is negative: each goes to
    /// `f64` once and nothing cancels, where the difference of two
    /// totals over `N` tasks kept only the digits they did not share.
    #[must_use]
    pub fn marginal_insert_cost(&self, cycles: u64) -> f64 {
        let mut cost = 0.0;
        self.insert_deltas(cycles, |i, dx, dgamma| {
            let (re_e, rt_t) = self.ranges.coeffs(i);
            cost += re_e * dx as f64 + rt_t * dgamma as f64;
        });
        cost
    }

    /// What inserting a task with `cycles` cycles would do to the range
    /// tuples: calls `each(i, Δx_i, Δγ_i)` for every range the insertion
    /// touches, in ascending order, with `γ_i = d_i + (a_i − 1)·x_i` the
    /// range's absolute position-weighted sum; returns the backward
    /// position the task would take. A range gains what enters it (the
    /// new task at `r`, or the previous range's tail at `a_i`), every
    /// task behind that moves back one place, and a full range's tail
    /// leaves from `ub_i + 1`.
    fn insert_deltas(&self, cycles: u64, mut each: impl FnMut(usize, u128, u128)) -> u64 {
        let at = self.tree.locate(cycles);
        let r = at.rank() as u64;
        let mut i = self.ranges.range_index_for(r);
        let mut entering = cycles as u128;
        let mut position = r as u128;
        let mut displaced = self.xi_through(i) - at.xi_before;
        loop {
            let s = &self.st[i];
            let full = s.b == s.ub;
            let leaving = match s.beta {
                Some(tail) if full => self.tree.cycles(tail) as u128,
                _ => 0,
            };
            each(
                i,
                entering - leaving,
                position * entering + displaced - (s.ub as u128 + 1) * leaving,
            );
            if !full {
                return r;
            }
            i += 1;
            entering = leaving;
            position = self.st[i].a as u128;
            displaced = self.st[i].x;
        }
    }

    /// Recompute the total via per-range tree queries (Equation 32
    /// directly): `O(|P̂| log N)`. Used for verification and as the
    /// ablation baseline against the maintained Θ(1) value.
    #[must_use]
    pub fn recompute_via_queries(&self) -> f64 {
        let n = self.tree.len() as u64;
        let mut c = 0.0;
        for (i, e) in self.ranges.entries().iter().enumerate() {
            let Some(end) = e.clamped_end(n) else {
                continue;
            };
            let (re_e, rt_t) = self.ranges.coeffs(i);
            let xi = self.tree.xi_range(e.lb as usize, end as usize);
            let gamma = self.tree.gamma_range(e.lb as usize, end as usize);
            c += re_e * xi as f64 + rt_t * gamma as f64;
        }
        c
    }

    /// Fully naive total cost: walk all tasks, `Σ C^B(k)·L_k`. `O(N)`.
    #[must_use]
    pub fn naive_cost(&self) -> f64 {
        self.tree
            .iter()
            .enumerate()
            .map(|(idx, (_, cycles))| self.ranges.cost_at(idx as u64 + 1) * cycles as f64)
            .sum()
    }

    /// Verify the per-range bookkeeping against direct tree queries.
    /// Intended for tests.
    ///
    /// # Panics
    /// Panics on the first inconsistent tuple.
    pub fn assert_state(&self) {
        let n = self.tree.len() as u64;
        let mut covered = 0u64;
        for (i, s) in self.st.iter().enumerate() {
            let e = &self.ranges.entries()[i];
            assert_eq!(s.a, e.lb);
            let expect_b = match e.clamped_end(n) {
                Some(end) => end,
                None => s.a - 1,
            };
            assert_eq!(s.b, expect_b, "range {i} occupancy end");
            let xi = self.tree.xi_range(s.a as usize, s.b as usize);
            let delta = self.tree.delta_range(s.a as usize, s.b as usize);
            assert_eq!(s.x, xi, "range {i} xi");
            assert_eq!(s.d, delta, "range {i} delta");
            if s.is_empty() {
                assert!(s.alpha.is_none() && s.beta.is_none(), "range {i} pointers");
            } else {
                let alpha = s.alpha.expect("non-empty range has alpha");
                let beta = s.beta.expect("non-empty range has beta");
                assert_eq!(self.tree.rank(alpha) as u64, s.a, "range {i} alpha rank");
                assert_eq!(self.tree.rank(beta) as u64, s.b, "range {i} beta rank");
                covered += s.len();
            }
        }
        assert_eq!(covered, n, "ranges must cover every queued task");
        let naive = self.naive_cost();
        assert!(
            (self.cost - naive).abs() <= naive.abs() * 1e-9 + 1e-12,
            "maintained cost {} diverged from naive {}",
            self.cost,
            naive
        );
        let via_q = self.recompute_via_queries();
        assert!(
            (self.cost - via_q).abs() <= via_q.abs() * 1e-9 + 1e-12,
            "maintained cost {} diverged from query-based {}",
            self.cost,
            via_q
        );
    }
}

/// The oracle the marginal-cost query is held to: what
/// [`CostLedger::marginal_insert_cost`] used to be.
#[cfg(test)]
impl CostLedger {
    /// Insert, read, remove: `C_after − C_before`, and a bound on that
    /// difference's own rounding error. Each total is a running sum of
    /// `2·|P̂|` rounded products of a rounded integer, so it is off by at
    /// most `(2·|P̂| + 1)` half-ulps of itself, and the subtraction keeps
    /// both errors whole however few digits the two totals differ in.
    pub(crate) fn reference_marginal_insert_cost(&mut self, cycles: u64) -> (f64, f64) {
        let before = self.cost;
        let h = self.insert(cycles);
        let after = self.cost;
        self.remove(h);
        let bound = (2 * self.st.len() + 1) as f64 * f64::EPSILON * after;
        (after - before, bound)
    }

    /// Each range's `(x_i, γ_i)`, with `γ_i = d_i + (a_i − 1)·x_i`.
    fn range_sums(&self) -> Vec<(u128, u128)> {
        self.st
            .iter()
            .map(|s| (s.x, s.d + (s.a as u128 - 1) * s.x))
            .collect()
    }

    /// Hold the query to a real insertion of the same task: the same
    /// backward position, exactly the per-range integer changes it
    /// priced, and a value within the oracle's rounding error. Leaves
    /// the ledger as it found it.
    pub(crate) fn assert_query_matches_insert(&mut self, cycles: u64) {
        let mut priced = vec![(0u128, 0u128); self.st.len()];
        let rank = self.insert_deltas(cycles, |i, dx, dgamma| priced[i] = (dx, dgamma));
        let query = self.marginal_insert_cost(cycles);
        let (reference, bound) = self.reference_marginal_insert_cost(cycles);
        assert!(
            (query - reference).abs() <= bound + query * f64::EPSILON * (priced.len() + 1) as f64,
            "query {query} vs insert/remove {reference} (bound {bound}) for {cycles} cycles"
        );

        let before = self.range_sums();
        let h = self.insert(cycles);
        assert_eq!(rank, self.backward_position(h), "rank for {cycles} cycles");
        let expected: Vec<_> = before
            .iter()
            .zip(&priced)
            .map(|(&(x, gamma), &(dx, dgamma))| (x + dx, gamma + dgamma))
            .collect();
        assert_eq!(self.range_sums(), expected, "deltas for {cycles} cycles");
        self.remove(h);
        assert_eq!(self.range_sums(), before, "remove undoes insert");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn ledger() -> CostLedger {
        CostLedger::new(&RateTable::i7_950_table2(), CostParams::batch_paper())
    }

    #[test]
    fn empty_ledger_costs_zero() {
        let l = ledger();
        assert_eq!(l.total_cost(), 0.0);
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert!(l.peek_next_dispatch().is_none());
        l.assert_state();
    }

    #[test]
    fn single_insert_and_remove() {
        let mut l = ledger();
        let h = l.insert(1_000_000_000);
        assert_eq!(l.len(), 1);
        assert_eq!(l.backward_position(h), 1);
        l.assert_state();
        let expected = l.ranges().cost_at(1) * 1e9;
        assert!((l.total_cost() - expected).abs() < 1e-9);
        assert_eq!(l.remove(h), 1_000_000_000);
        assert!(l.is_empty());
        assert_eq!(l.total_cost(), 0.0);
        l.assert_state();
    }

    #[test]
    fn inserts_spanning_multiple_ranges() {
        let mut l = ledger();
        // Enough tasks to spill into several dominating ranges.
        let mut handles = Vec::new();
        for i in 1..=200u64 {
            handles.push(l.insert(i * 13 + 1));
            if i % 20 == 0 {
                l.assert_state();
            }
        }
        l.assert_state();
        // Remove in mixed order.
        for (i, h) in handles.into_iter().enumerate() {
            l.remove(h);
            if i % 31 == 0 {
                l.assert_state();
            }
        }
        assert!(l.is_empty());
        l.assert_state();
    }

    #[test]
    fn peek_next_dispatch_is_smallest_task() {
        let mut l = ledger();
        l.insert(500);
        let small = l.insert(10);
        l.insert(300);
        let next = l.peek_next_dispatch().unwrap();
        assert_eq!(next, small);
        assert_eq!(l.cycles(next), 10);
        assert_eq!(l.backward_position(next) as usize, l.len());
    }

    #[test]
    fn marginal_cost_is_exact_and_non_destructive() {
        let mut l = ledger();
        for c in [100u64, 5000, 70, 900, 42] {
            l.insert(c);
        }
        let before = l.total_cost();
        let mc = l.marginal_insert_cost(333);
        assert!((l.total_cost() - before).abs() < 1e-9, "ledger restored");
        assert_eq!(l.len(), 5);
        // Cross-check by actually inserting.
        let h = l.insert(333);
        assert!((l.total_cost() - (before + mc)).abs() < before * 1e-9 + 1e-9);
        l.remove(h);
        l.assert_state();
    }

    #[test]
    fn marginal_cost_grows_with_queue_length() {
        // The same task inserted into a longer queue delays more work →
        // at least as expensive.
        let mut short = ledger();
        let mut long = ledger();
        for c in [1000u64, 2000] {
            short.insert(c);
        }
        for c in [1000u64, 2000, 3000, 4000, 5000, 6000] {
            long.insert(c);
        }
        let probe = 1500;
        assert!(long.marginal_insert_cost(probe) > short.marginal_insert_cost(probe));
    }

    #[test]
    fn query_on_an_empty_ledger_prices_position_one() {
        let mut l = ledger();
        let alone = l.ranges().cost_at(1) * 1e3;
        assert!((l.marginal_insert_cost(1_000) - alone).abs() <= alone * 1e-15);
        l.assert_query_matches_insert(1_000);
        assert!(l.is_empty());
    }

    #[test]
    fn query_appending_behind_every_task_displaces_nothing() {
        let mut l = ledger();
        for c in (1..=40u64).map(|i| i * 100) {
            l.insert(c);
        }
        // r = N + 1: only the task's own term.
        let own = l.ranges().cost_at(41);
        assert!((l.marginal_insert_cost(1) - own).abs() <= own * 1e-15);
        l.assert_query_matches_insert(1);
    }

    #[test]
    fn query_at_every_rank_and_boundary_of_table2() {
        // Ranges [1,2) [2,3) [3,5) [5,10) [10,inf). At every fill level
        // 0..=12 probe every rank 1..=N+1: that lands on each range's
        // first and last position, and at N = 1, 2, 4, 9 a full range
        // spills its tail into an empty successor.
        let mut l = ledger();
        for n in 0..=12u64 {
            for r in 1..=n + 1 {
                // Queued cycles are 100·1 ..= 100·n; this lands at rank r.
                l.assert_query_matches_insert(100 * (n + 1 - r) + 50);
            }
            l.insert(100 * (n + 1));
        }
        l.assert_state();
    }

    #[test]
    fn query_on_a_single_rate_table() {
        let table = RateTable::synthetic_quadratic(1, 1.0, 1.0);
        let mut l = CostLedger::new(&table, CostParams::batch_paper());
        for c in [5u64, 500, 50] {
            l.assert_query_matches_insert(c);
            l.insert(c);
        }
        for c in [1u64, 5, 49, 51, 501] {
            l.assert_query_matches_insert(c);
        }
    }

    #[test]
    fn query_lands_behind_an_equal_cycles_run() {
        let mut l = ledger();
        for _ in 0..30 {
            l.insert(777);
        }
        let rank = l.insert_deltas(777, |_, _, _| {});
        assert_eq!(rank, 31, "equal cycles order before the newcomer");
        for c in [776u64, 777, 778] {
            l.assert_query_matches_insert(c);
        }
    }

    #[test]
    fn query_lands_behind_runs_that_span_leaves_and_range_boundaries() {
        // Energy-heavy weights (Re = 1, Rt = 10⁻³) put range boundaries
        // at backward positions 6 760 and 9 750. Two runs of 300 equal cycle counts straddle
        // them among 10⁴ distinct ones, each run wider than a tree leaf.
        let params = CostParams::new(1.0, 1e-3).unwrap();
        let mut l = CostLedger::new(&RateTable::i7_950_table2(), params);
        let bounds: Vec<u64> = l.ranges().entries().iter().map(|e| e.lb).collect();
        assert_eq!(bounds[1..3], [6_760, 9_750]);
        let key = |r: u64| 1_000_000 - 10 * r;
        let runs = [6_610..6_910, 9_600..9_900];
        let mut keys: Vec<u64> = (1..=10_000u64)
            .map(|r| {
                runs.iter()
                    .find(|run| run.contains(&r))
                    .map_or(key(r), |run| key(run.start))
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(300);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        for &c in &keys {
            l.insert(c);
        }
        l.assert_state();
        for run in runs {
            let c = key(run.start);
            for probe in [c - 1, c, c + 1] {
                let behind = keys.iter().filter(|&&k| k >= probe).count() as u64;
                assert_eq!(l.insert_deltas(probe, |_, _, _| {}), behind + 1, "{probe}");
                l.assert_query_matches_insert(probe);
            }
        }
    }

    #[test]
    fn longest_run_is_rank_one_and_its_equals() {
        let mut l = ledger();
        assert_eq!(l.longest_run().count(), 0);
        let small = l.insert(10);
        let a = l.insert(900);
        let b = l.insert(900);
        l.insert(899);
        assert_eq!(l.longest_run().collect::<Vec<_>>(), vec![a, b]);
        l.remove(a);
        l.remove(b);
        assert_eq!(l.longest_run().count(), 1);
        assert_eq!(l.peek_next_dispatch(), Some(small));
    }

    #[test]
    fn duplicate_cycle_counts_are_handled() {
        let mut l = ledger();
        let hs: Vec<_> = (0..50).map(|_| l.insert(777)).collect();
        l.assert_state();
        for h in hs {
            l.remove(h);
        }
        assert!(l.is_empty());
    }

    #[test]
    fn boundary_position_inserts_and_deletes() {
        // Table II ranges under batch params: [1,2) [2,3) [3,5) [5,10)
        // [10,inf). Drive insert/delete sequences that land exactly on
        // every boundary and verify state after each step.
        let mut l = ledger();
        let mut handles = Vec::new();
        // Fill positions 1..=12 (crosses every boundary).
        for i in 0..12u64 {
            handles.push(l.insert(1_000_000 + i)); // ascending → each lands at rank 1
            l.assert_state();
        }
        // Remove exactly the boundary ranks 1, 2, 3, 5, 10 (refreshing
        // handles as ranks shift).
        for target_rank in [1usize, 2, 3, 5] {
            let h = l // find current handle at the rank via peek + walk
                .ranges()
                .entries()
                .iter()
                .find_map(|e| (e.lb as usize <= target_rank).then_some(()))
                .map(|()| {
                    // select by rank through the public API: walk with
                    // backward_position.
                    let mut found = None;
                    for &h in &handles {
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            l.backward_position(h)
                        }))
                        .map(|r| r as usize == target_rank)
                        .unwrap_or(false)
                        {
                            found = Some(h);
                            break;
                        }
                    }
                    found.expect("rank occupied")
                })
                .expect("ranges exist");
            l.remove(h);
            l.assert_state();
        }
    }

    #[test]
    fn alternating_head_tail_churn() {
        // Insert a strictly increasing sequence (always rank 1) and a
        // strictly decreasing one (always last), interleaved; then drain
        // from both ends.
        let mut l = ledger();
        let mut heads = Vec::new();
        let mut tails = Vec::new();
        for i in 1..=30u64 {
            heads.push(l.insert(1_000_000_000 + i));
            tails.push(l.insert(1_000 - i));
            l.assert_state();
        }
        while let Some(h) = heads.pop() {
            l.remove(h);
            l.remove(tails.pop().expect("same length"));
            l.assert_state();
        }
        assert!(l.is_empty());
    }

    #[test]
    fn randomized_incremental_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut l = ledger();
        let mut live: Vec<Handle> = Vec::new();
        for step in 0..2000 {
            if live.is_empty() || rng.gen_bool(0.58) {
                live.push(l.insert(rng.gen_range(1..100_000_000)));
            } else {
                let i = rng.gen_range(0..live.len());
                let h = live.swap_remove(i);
                l.remove(h);
            }
            let naive = l.naive_cost();
            assert!(
                (l.total_cost() - naive).abs() <= naive.abs() * 1e-9 + 1e-12,
                "diverged at step {step}: {} vs {naive}",
                l.total_cost()
            );
            if step % 200 == 0 {
                l.assert_state();
            }
        }
        l.assert_state();
    }

    /// Cycle counts whose per-range sums pass 2⁶⁴: the range tuples
    /// keep them in `u128` for exactly this, and a sum kept in 64 bits
    /// would wrap and disagree with the tree's own sums.
    #[test]
    fn range_sums_past_two_to_the_64_stay_exact() {
        let mut l = ledger();
        let hs: Vec<_> = (0..40u64).map(|i| l.insert(u64::MAX / 4 - i)).collect();
        l.assert_state();
        for h in hs.into_iter().step_by(3) {
            l.remove(h);
            l.assert_state();
        }
    }

    #[test]
    fn single_rate_table_degenerates_gracefully() {
        let table = RateTable::synthetic_quadratic(1, 1.0, 1.0);
        let mut l = CostLedger::new(&table, CostParams::batch_paper());
        let hs: Vec<_> = (1..=20).map(|i| l.insert(i * 11)).collect();
        l.assert_state();
        for h in hs {
            l.remove(h);
        }
        l.assert_state();
    }

    #[test]
    fn two_rate_theorem1_gadget_ledger() {
        let mut l = CostLedger::new(
            &RateTable::theorem1_gadget(),
            CostParams::new(1.0, 1.0).unwrap(),
        );
        for i in 1..=40 {
            l.insert(i);
        }
        l.assert_state();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_ledger_matches_naive(
            ops in prop::collection::vec((0u8..2, 1u64..10_000_000), 1..150),
            levels in 2usize..8,
            re in 0.05f64..2.0,
            rt in 0.05f64..2.0,
        ) {
            let table = RateTable::synthetic_quadratic(levels, 0.5, 3.3);
            let params = CostParams::new(re, rt).unwrap();
            let mut l = CostLedger::new(&table, params);
            let mut live: Vec<Handle> = Vec::new();
            for (op, val) in ops {
                if op == 0 || live.is_empty() {
                    live.push(l.insert(val));
                } else {
                    let h = live.swap_remove(val as usize % live.len());
                    l.remove(h);
                }
                let naive = l.naive_cost();
                prop_assert!((l.total_cost() - naive).abs() <= naive.abs() * 1e-9 + 1e-12);
            }
            l.assert_state();
        }

        #[test]
        fn prop_query_prices_exactly_what_an_insert_does(
            ops in prop::collection::vec((0u8..3, 1u64..10_000_000), 1..120),
            levels in 1usize..=8,
            re in 0.05f64..2.0,
            rt in 0.05f64..2.0,
        ) {
            let table = RateTable::synthetic_quadratic(levels, 0.5, 3.3);
            let mut l = CostLedger::new(&table, CostParams::new(re, rt).unwrap());
            let mut live: Vec<Handle> = Vec::new();
            for (op, val) in ops {
                if op == 2 && !live.is_empty() {
                    let h = live.swap_remove(val as usize % live.len());
                    l.remove(h);
                } else {
                    // Two in three fold onto seven values: long runs of
                    // equal cycles on both sides of every probe.
                    let cycles = if val % 3 == 0 { val } else { 1_000 * (val % 7 + 1) };
                    l.assert_query_matches_insert(cycles);
                    live.push(l.insert(cycles));
                }
            }
            l.assert_state();
        }
    }
}
