//! The cost model of Sections II-C and III-B.
//!
//! The cost of a task is the sum of its energy cost
//! `C_{k,e} = Re * L_k * E(p)` (Equation 3) and its temporal cost
//! `C_{k,t} = Rt * sum_{i<=k} L_i * T(p_i)` (Equation 4). The total cost
//! of a sequence rewrites into the position-dependent form
//! `C = sum_k C(k, p_k) * L_k` with
//! `C(k, p) = Re*E(p) + (n-k+1)*Rt*T(p)` (Equations 12-13), or with the
//! backward index `C^B(k, p) = Re*E(p) + k*Rt*T(p)` (Equation 20).

use crate::error::ModelError;
use crate::rates::{RateIdx, RateTable};

/// The monetary constants of the cost function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// `Re`: amount paid per joule of energy (e.g. cents per joule).
    pub re: f64,
    /// `Rt`: amount paid per second a user waits for task completion.
    pub rt: f64,
}

impl CostParams {
    /// Construct validated cost parameters.
    ///
    /// # Errors
    /// Returns [`ModelError::InvalidCostParams`] unless both are positive
    /// and finite.
    pub fn new(re: f64, rt: f64) -> Result<Self, ModelError> {
        if !(re.is_finite() && rt.is_finite() && re > 0.0 && rt > 0.0) {
            return Err(ModelError::InvalidCostParams);
        }
        Ok(CostParams { re, rt })
    }

    /// The batch-mode setting of Section V-A: `Re = 0.1` cents/J,
    /// `Rt = 0.4` cents/s.
    #[must_use]
    pub fn batch_paper() -> Self {
        CostParams { re: 0.1, rt: 0.4 }
    }

    /// The online-mode setting of Section V-B: `Re = 0.4` cents/J,
    /// `Rt = 0.1` cents/s.
    #[must_use]
    pub fn online_paper() -> Self {
        CostParams { re: 0.4, rt: 0.1 }
    }

    /// The forward position-dependent per-cycle cost `C(k, p)` of
    /// Equation 12: `Re*E(p) + (n-k+1)*Rt*T(p)`, where `k` is the 1-based
    /// position from the front of an `n`-task execution sequence.
    #[must_use]
    pub fn c_forward(&self, table: &RateTable, n: usize, k: usize, p: RateIdx) -> f64 {
        debug_assert!(k >= 1 && k <= n);
        self.c_backward(table, n - k + 1, p)
    }

    /// The backward position-dependent per-cycle cost `C^B(k, p)` of
    /// Equation 20: `Re*E(p) + k*Rt*T(p)`, where `k` is the 1-based
    /// position from the *end* of the execution sequence (`k` tasks,
    /// including this one, pay for this task's execution time).
    #[must_use]
    pub fn c_backward(&self, table: &RateTable, k_backward: usize, p: RateIdx) -> f64 {
        let r = table.rate(p);
        self.re * r.energy_per_cycle + k_backward as f64 * self.rt * r.time_per_cycle
    }

    /// `C^B(k) = min_p C^B(k, p)` with its minimizing rate, scanning all
    /// rates. Ties choose the higher rate, matching the paper's
    /// dominating-position convention. (The Θ(|P|)-preprocessed version
    /// lives in `dvfs-core::dominating`.)
    #[must_use]
    pub fn c_backward_min(&self, table: &RateTable, k_backward: usize) -> (f64, RateIdx) {
        let mut best = (f64::INFINITY, 0);
        for p in 0..table.len() {
            let c = self.c_backward(table, k_backward, p);
            if c <= best.0 {
                best = (c, p);
            }
        }
        best
    }
}

/// Energy, time, and total monetary cost of an executed workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Sum of task turnaround times in seconds (each task's completion
    /// time minus its arrival time; for batch mode, its completion time).
    pub waiting_seconds: f64,
    /// Energy cost `Re * energy_joules`.
    pub energy_cost: f64,
    /// Temporal cost `Rt * waiting_seconds`.
    pub time_cost: f64,
}

impl CostBreakdown {
    /// Build a breakdown from raw energy and waiting totals.
    #[must_use]
    pub fn from_totals(params: CostParams, energy_joules: f64, waiting_seconds: f64) -> Self {
        CostBreakdown {
            energy_joules,
            waiting_seconds,
            energy_cost: params.re * energy_joules,
            time_cost: params.rt * waiting_seconds,
        }
    }

    /// The total cost `C = C_e + C_t`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.energy_cost + self.time_cost
    }

    /// Element-wise accumulation of another breakdown.
    pub fn accumulate(&mut self, other: &CostBreakdown) {
        self.energy_joules += other.energy_joules;
        self.waiting_seconds += other.waiting_seconds;
        self.energy_cost += other.energy_cost;
        self.time_cost += other.time_cost;
    }
}

/// Evaluate the total cost of a single-core batch execution sequence from
/// first principles (Equation 8): tasks run back-to-back in the given
/// order, each at its assigned rate; the temporal cost of task `k` is
/// `Rt` times its completion time.
///
/// `sequence` is `(cycles, rate)` pairs in execution order.
#[must_use]
pub fn sequence_cost(
    params: CostParams,
    table: &RateTable,
    sequence: &[(u64, RateIdx)],
) -> CostBreakdown {
    let mut clock = 0.0;
    let mut energy = 0.0;
    let mut waiting = 0.0;
    for &(cycles, rate) in sequence {
        clock += table.exec_time(rate, cycles);
        energy += table.energy(rate, cycles);
        waiting += clock;
    }
    CostBreakdown::from_totals(params, energy, waiting)
}

/// Evaluate the same total via the positional rewrite (Equation 13):
/// `C = sum_k C(k, p_k) * L_k`. Used to cross-check [`sequence_cost`].
#[must_use]
pub fn positional_cost(params: CostParams, table: &RateTable, sequence: &[(u64, RateIdx)]) -> f64 {
    let n = sequence.len();
    sequence
        .iter()
        .enumerate()
        .map(|(i, &(cycles, rate))| params.c_forward(table, n, i + 1, rate) * cycles as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RateTable {
        RateTable::i7_950_table2()
    }

    #[test]
    fn params_validation() {
        assert!(CostParams::new(0.1, 0.4).is_ok());
        assert_eq!(
            CostParams::new(0.0, 0.4),
            Err(ModelError::InvalidCostParams)
        );
        assert_eq!(
            CostParams::new(0.1, -1.0),
            Err(ModelError::InvalidCostParams)
        );
        assert_eq!(
            CostParams::new(f64::INFINITY, 0.4),
            Err(ModelError::InvalidCostParams)
        );
    }

    #[test]
    fn paper_presets() {
        let b = CostParams::batch_paper();
        assert_eq!((b.re, b.rt), (0.1, 0.4));
        let o = CostParams::online_paper();
        assert_eq!((o.re, o.rt), (0.4, 0.1));
    }

    #[test]
    fn forward_and_backward_positions_agree() {
        let t = table();
        let params = CostParams::batch_paper();
        let n = 10;
        for k in 1..=n {
            for p in 0..t.len() {
                let f = params.c_forward(&t, n, k, p);
                let b = params.c_backward(&t, n - k + 1, p);
                assert!((f - b).abs() < 1e-18);
            }
        }
    }

    #[test]
    fn c_backward_is_decreasing_in_forward_position() {
        // Lemma 2: C*(k) decreases in the forward index k, i.e. the
        // backward-index minimum C^B*(k) increases with k.
        let t = table();
        let params = CostParams::batch_paper();
        let mut prev = 0.0;
        for kb in 1..200 {
            let (c, _) = params.c_backward_min(&t, kb);
            assert!(c > prev, "C^B*({kb}) must strictly increase");
            prev = c;
        }
    }

    #[test]
    fn higher_backward_positions_prefer_faster_rates() {
        let t = table();
        let params = CostParams::batch_paper();
        let mut prev_rate = 0;
        for kb in 1..5000 {
            let (_, p) = params.c_backward_min(&t, kb);
            assert!(
                p >= prev_rate,
                "optimal rate must be non-decreasing in backward position"
            );
            prev_rate = p;
        }
        assert_eq!(prev_rate, t.max_rate(), "far positions use the max rate");
    }

    #[test]
    fn sequence_cost_matches_hand_computation() {
        let t = table();
        let params = CostParams::new(1.0, 1.0).unwrap();
        // Two tasks of 1e9 cycles at 1.6 GHz (T = .625ns, E = 3.375nJ).
        let seq = [(1_000_000_000u64, 0usize), (1_000_000_000u64, 0usize)];
        let c = sequence_cost(params, &t, &seq);
        // Energy: 2 * 3.375 J. Waiting: 0.625 + 1.25 s.
        assert!((c.energy_joules - 6.75).abs() < 1e-9);
        assert!((c.waiting_seconds - 1.875).abs() < 1e-9);
        assert!((c.total() - (6.75 + 1.875)).abs() < 1e-9);
    }

    #[test]
    fn positional_rewrite_equals_first_principles() {
        let t = table();
        let params = CostParams::batch_paper();
        let seq = [
            (123_456_789u64, 0usize),
            (987_654_321, 4),
            (55_555, 2),
            (1, 1),
            (700_000_000, 3),
        ];
        let direct = sequence_cost(params, &t, &seq).total();
        let positional = positional_cost(params, &t, &seq);
        assert!(
            (direct - positional).abs() / direct < 1e-12,
            "Equation 8 and Equation 13 must agree: {direct} vs {positional}"
        );
    }

    #[test]
    fn breakdown_accumulate_sums_fields() {
        let p = CostParams::batch_paper();
        let mut a = CostBreakdown::from_totals(p, 10.0, 20.0);
        let b = CostBreakdown::from_totals(p, 1.0, 2.0);
        a.accumulate(&b);
        assert!((a.energy_joules - 11.0).abs() < 1e-12);
        assert!((a.waiting_seconds - 22.0).abs() < 1e-12);
        assert!((a.total() - (0.1 * 11.0 + 0.4 * 22.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_costs_nothing() {
        let c = sequence_cost(CostParams::batch_paper(), &table(), &[]);
        assert_eq!(c.total(), 0.0);
    }
}
