//! The processing-rate model of Section II-B.
//!
//! `P = {p_1, p_2, ...}` is a non-empty set of discrete processing rates a
//! core can use, with `0 < p_1 < p_2 < ...`. Each rate carries the
//! per-cycle energy `E(p)` (strictly increasing with the rate) and the
//! per-cycle time `T(p)` (strictly decreasing with the rate).

use crate::error::ModelError;

/// Index of a rate within a [`RateTable`] (0 = slowest).
pub type RateIdx = usize;

/// One processing rate `p` with its per-cycle energy and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Processing rate in Hz (cycles per second).
    pub freq_hz: f64,
    /// `E(p)`: energy in joules consumed per executed cycle.
    pub energy_per_cycle: f64,
    /// `T(p)`: time in seconds to execute one cycle (normally `1/freq`).
    pub time_per_cycle: f64,
}

impl RatePoint {
    /// Construct a rate point from a frequency in GHz and a per-cycle
    /// energy in nanojoules, deriving `T(p) = 1/p`.
    #[must_use]
    pub fn from_ghz_nj(freq_ghz: f64, energy_nj: f64) -> Self {
        RatePoint {
            freq_hz: freq_ghz * 1e9,
            energy_per_cycle: energy_nj * 1e-9,
            time_per_cycle: 1.0 / (freq_ghz * 1e9),
        }
    }

    /// Active power in watts when a core runs continuously at this rate:
    /// `P = E(p) / T(p)` (joules per cycle over seconds per cycle).
    #[must_use]
    pub fn active_power_watts(&self) -> f64 {
        self.energy_per_cycle / self.time_per_cycle
    }

    fn validate(&self) -> bool {
        self.freq_hz.is_finite()
            && self.freq_hz > 0.0
            && self.energy_per_cycle.is_finite()
            && self.energy_per_cycle > 0.0
            && self.time_per_cycle.is_finite()
            && self.time_per_cycle > 0.0
    }
}

/// The ordered set `P` of processing rates available on a core.
///
/// Invariants (validated at construction):
/// * non-empty;
/// * frequency strictly increasing;
/// * `E(p)` strictly increasing;
/// * `T(p)` strictly decreasing;
/// * all values finite and positive.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTable {
    points: Vec<RatePoint>,
}

impl RateTable {
    /// Construct a validated rate table from rate points sorted by
    /// ascending frequency.
    ///
    /// # Errors
    /// Returns a [`ModelError`] describing the first violated invariant.
    pub fn new(points: Vec<RatePoint>) -> Result<Self, ModelError> {
        if points.is_empty() {
            return Err(ModelError::EmptyRateTable);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.validate() {
                return Err(ModelError::InvalidRatePoint { index: i });
            }
        }
        for i in 1..points.len() {
            if points[i].freq_hz <= points[i - 1].freq_hz {
                return Err(ModelError::NonMonotonicFrequency { index: i });
            }
            if points[i].energy_per_cycle <= points[i - 1].energy_per_cycle {
                return Err(ModelError::NonMonotonicEnergy { index: i });
            }
            if points[i].time_per_cycle >= points[i - 1].time_per_cycle {
                return Err(ModelError::NonMonotonicTime { index: i });
            }
        }
        Ok(RateTable { points })
    }

    /// The batch-mode parameters of Table II: the Intel i7-950 subset used
    /// throughout Section V-A, frequencies {1.6, 2.0, 2.4, 2.8, 3.0} GHz
    /// with measured per-cycle energies {3.375, 4.22, 5.0, 6.0, 7.1} nJ and
    /// per-cycle times {0.625, 0.5, 0.42, 0.36, 0.33} ns.
    #[must_use]
    pub fn i7_950_table2() -> Self {
        // Table II lists T(p) with rounding (0.42 instead of 1/2.4 etc.);
        // we reproduce the published values exactly.
        let pts = vec![
            RatePoint {
                freq_hz: 1.6e9,
                energy_per_cycle: 3.375e-9,
                time_per_cycle: 0.625e-9,
            },
            RatePoint {
                freq_hz: 2.0e9,
                energy_per_cycle: 4.22e-9,
                time_per_cycle: 0.5e-9,
            },
            RatePoint {
                freq_hz: 2.4e9,
                energy_per_cycle: 5.0e-9,
                time_per_cycle: 0.42e-9,
            },
            RatePoint {
                freq_hz: 2.8e9,
                energy_per_cycle: 6.0e-9,
                time_per_cycle: 0.36e-9,
            },
            RatePoint {
                freq_hz: 3.0e9,
                energy_per_cycle: 7.1e-9,
                time_per_cycle: 0.33e-9,
            },
        ];
        RateTable::new(pts).expect("Table II parameters satisfy the model invariants")
    }

    /// The two-rate configuration used for model verification (Fig. 1):
    /// only 1.6 GHz and 3.0 GHz from Table II.
    #[must_use]
    pub fn i7_950_two_rates() -> Self {
        let t = Self::i7_950_table2();
        RateTable::new(vec![t.points[0], t.points[4]]).expect("subset preserves invariants")
    }

    /// Build a table from measured `(GHz, watts)` pairs, the way the
    /// paper built Table II: "to obtain the values of E(pk), we measure
    /// the power consumption of a core with 100% loading using different
    /// pk, and divide the result by pk". `T(p) = 1/p`.
    ///
    /// # Errors
    /// Returns a [`ModelError`] when the derived table violates the
    /// model invariants (e.g. measured power not growing superlinearly
    /// enough for `E(p)` to increase).
    pub fn from_measurements(pairs: &[(f64, f64)]) -> Result<Self, ModelError> {
        let pts = pairs
            .iter()
            .map(|&(ghz, watts)| {
                let freq_hz = ghz * 1e9;
                RatePoint {
                    freq_hz,
                    energy_per_cycle: watts / freq_hz,
                    time_per_cycle: 1.0 / freq_hz,
                }
            })
            .collect();
        RateTable::new(pts)
    }

    /// An ARM Exynos-4412-like rate table. Section II-B cites this CPU's
    /// range ("0.2, 0.3 to 1.7 GHz"); we expose sixteen 100 MHz steps
    /// from 0.2 to 1.7 GHz with a quadratic per-cycle energy profile
    /// scaled to mobile-class power (≈1.5 W at the top level).
    #[must_use]
    pub fn exynos_4412() -> Self {
        let pts = (0..16)
            .map(|i| {
                let f = 0.2 + 0.1 * i as f64;
                // E(p) = 0.3·f² nJ/cycle → P(top) = 0.3·1.7³ ≈ 1.47 W.
                RatePoint::from_ghz_nj(f, 0.3 * f * f)
            })
            .collect();
        RateTable::new(pts).expect("Exynos profile satisfies the model invariants")
    }

    /// The NP-completeness gadget of Theorem 1: two rates where the fast
    /// one is twice the speed (`T(pl)=2, T(ph)=1`) and four times the
    /// per-cycle energy (`E(pl)=1, E(ph)=4`), matching the classical
    /// "dynamic power proportional to frequency squared" assumption.
    #[must_use]
    pub fn theorem1_gadget() -> Self {
        RateTable::new(vec![
            RatePoint {
                freq_hz: 0.5,
                energy_per_cycle: 1.0,
                time_per_cycle: 2.0,
            },
            RatePoint {
                freq_hz: 1.0,
                energy_per_cycle: 4.0,
                time_per_cycle: 1.0,
            },
        ])
        .expect("gadget satisfies the model invariants")
    }

    /// A synthetic cubic-power rate table: `f` GHz levels with
    /// `E(p) ∝ p^2` per cycle (so active power `∝ p^3`), convenient for
    /// stress tests and sweeps with arbitrary numbers of levels.
    ///
    /// # Panics
    /// Panics when `levels == 0` or `min_ghz >= max_ghz`.
    #[must_use]
    pub fn synthetic_quadratic(levels: usize, min_ghz: f64, max_ghz: f64) -> Self {
        assert!(levels > 0, "need at least one level");
        assert!(min_ghz < max_ghz || levels == 1, "min must be below max");
        let pts = (0..levels)
            .map(|i| {
                let f = if levels == 1 {
                    min_ghz
                } else {
                    min_ghz + (max_ghz - min_ghz) * i as f64 / (levels - 1) as f64
                };
                RatePoint::from_ghz_nj(f, 1.3 * f * f)
            })
            .collect();
        RateTable::new(pts).expect("synthetic table satisfies the model invariants")
    }

    /// Number of rates, `|P|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: `P` is non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rate points, ascending by frequency.
    #[must_use]
    pub fn points(&self) -> &[RatePoint] {
        &self.points
    }

    /// The rate at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn rate(&self, idx: RateIdx) -> RatePoint {
        self.points[idx]
    }

    /// Index of the slowest rate (`p_1`).
    #[must_use]
    pub fn min_rate(&self) -> RateIdx {
        0
    }

    /// Index of the fastest rate (`p_|P|`).
    #[must_use]
    pub fn max_rate(&self) -> RateIdx {
        self.points.len() - 1
    }

    /// Find the index of the rate with the given frequency in Hz, within
    /// 0.5 kHz tolerance. Returns `None` when the frequency is not offered.
    #[must_use]
    pub fn index_of_freq(&self, freq_hz: f64) -> Option<RateIdx> {
        self.points
            .iter()
            .position(|p| (p.freq_hz - freq_hz).abs() < 500.0)
    }

    /// Execution time in seconds for `cycles` cycles at rate `idx`
    /// (Equation 2: `t_k = L_k * T(p)`).
    #[must_use]
    pub fn exec_time(&self, idx: RateIdx, cycles: u64) -> f64 {
        cycles as f64 * self.points[idx].time_per_cycle
    }

    /// Energy in joules for `cycles` cycles at rate `idx`
    /// (Equation 1: `e_k = L_k * E(p)`).
    #[must_use]
    pub fn energy(&self, idx: RateIdx, cycles: u64) -> f64 {
        cycles as f64 * self.points[idx].energy_per_cycle
    }

    /// The frequencies in kHz, as exposed by the Linux cpufreq sysfs file
    /// `scaling_available_frequencies` (descending order, as Linux does).
    #[must_use]
    pub fn available_frequencies_khz(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .points
            .iter()
            .map(|p| (p.freq_hz / 1e3).round() as u64)
            .collect();
        v.reverse();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let t = RateTable::i7_950_table2();
        assert_eq!(t.len(), 5);
        assert!((t.rate(0).freq_hz - 1.6e9).abs() < 1.0);
        assert!((t.rate(4).energy_per_cycle - 7.1e-9).abs() < 1e-15);
        assert!((t.rate(2).time_per_cycle - 0.42e-9).abs() < 1e-15);
    }

    #[test]
    fn empty_table_rejected() {
        assert_eq!(RateTable::new(vec![]), Err(ModelError::EmptyRateTable));
    }

    #[test]
    fn non_monotonic_energy_rejected() {
        let pts = vec![
            RatePoint {
                freq_hz: 1.0e9,
                energy_per_cycle: 2e-9,
                time_per_cycle: 1e-9,
            },
            RatePoint {
                freq_hz: 2.0e9,
                energy_per_cycle: 2e-9, // not strictly increasing
                time_per_cycle: 0.5e-9,
            },
        ];
        assert_eq!(
            RateTable::new(pts),
            Err(ModelError::NonMonotonicEnergy { index: 1 })
        );
    }

    #[test]
    fn non_monotonic_time_rejected() {
        let pts = vec![
            RatePoint {
                freq_hz: 1.0e9,
                energy_per_cycle: 1e-9,
                time_per_cycle: 1e-9,
            },
            RatePoint {
                freq_hz: 2.0e9,
                energy_per_cycle: 2e-9,
                time_per_cycle: 1e-9, // not strictly decreasing
            },
        ];
        assert_eq!(
            RateTable::new(pts),
            Err(ModelError::NonMonotonicTime { index: 1 })
        );
    }

    #[test]
    fn non_monotonic_frequency_rejected() {
        let pts = vec![
            RatePoint {
                freq_hz: 2.0e9,
                energy_per_cycle: 1e-9,
                time_per_cycle: 0.5e-9,
            },
            RatePoint {
                freq_hz: 1.0e9,
                energy_per_cycle: 2e-9,
                time_per_cycle: 0.4e-9,
            },
        ];
        assert_eq!(
            RateTable::new(pts),
            Err(ModelError::NonMonotonicFrequency { index: 1 })
        );
    }

    #[test]
    fn invalid_values_rejected() {
        let pts = vec![RatePoint {
            freq_hz: f64::NAN,
            energy_per_cycle: 1e-9,
            time_per_cycle: 1e-9,
        }];
        assert_eq!(
            RateTable::new(pts),
            Err(ModelError::InvalidRatePoint { index: 0 })
        );
        let pts = vec![RatePoint {
            freq_hz: 1e9,
            energy_per_cycle: -1e-9,
            time_per_cycle: 1e-9,
        }];
        assert_eq!(
            RateTable::new(pts),
            Err(ModelError::InvalidRatePoint { index: 0 })
        );
    }

    #[test]
    fn exec_time_and_energy_follow_equations_1_and_2() {
        let t = RateTable::i7_950_table2();
        // 1.6e9 cycles at 1.6 GHz takes 1.6e9 * 0.625 ns = 1 s.
        assert!((t.exec_time(0, 1_600_000_000) - 1.0).abs() < 1e-9);
        // and consumes 1.6e9 * 3.375 nJ = 5.4 J.
        assert!((t.energy(0, 1_600_000_000) - 5.4).abs() < 1e-9);
    }

    #[test]
    fn active_power_is_energy_over_time() {
        let t = RateTable::i7_950_table2();
        // At 3.0 GHz: 7.1 nJ / 0.33 ns = 21.52 W.
        let w = t.rate(4).active_power_watts();
        assert!((w - 7.1 / 0.33).abs() < 1e-9);
    }

    #[test]
    fn available_frequencies_descending_khz() {
        let t = RateTable::i7_950_table2();
        let khz = t.available_frequencies_khz();
        assert_eq!(khz[0], 3_000_000);
        assert_eq!(khz[4], 1_600_000);
        assert!(khz.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn index_of_freq_finds_exact_levels() {
        let t = RateTable::i7_950_table2();
        assert_eq!(t.index_of_freq(2.4e9), Some(2));
        assert_eq!(t.index_of_freq(2.5e9), None);
    }

    #[test]
    fn synthetic_table_valid_for_many_levels() {
        for levels in [1usize, 2, 7, 64, 512] {
            let t = RateTable::synthetic_quadratic(levels, 0.4, 3.2);
            assert_eq!(t.len(), levels);
        }
    }

    #[test]
    fn from_measurements_follows_paper_procedure() {
        // Power measurements implying E = W/f per cycle.
        let t = RateTable::from_measurements(&[(1.0, 2.0), (2.0, 8.0), (3.0, 21.0)]).unwrap();
        assert_eq!(t.len(), 3);
        assert!((t.rate(0).energy_per_cycle - 2.0e-9).abs() < 1e-18);
        assert!((t.rate(1).energy_per_cycle - 4.0e-9).abs() < 1e-18);
        assert!((t.rate(2).energy_per_cycle - 7.0e-9).abs() < 1e-18);
        assert!((t.rate(2).active_power_watts() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn from_measurements_rejects_sublinear_power() {
        // Power growing only linearly → constant E(p): invalid model.
        assert!(matches!(
            RateTable::from_measurements(&[(1.0, 2.0), (2.0, 4.0)]),
            Err(ModelError::NonMonotonicEnergy { .. })
        ));
        // And an empty measurement set.
        assert!(matches!(
            RateTable::from_measurements(&[]),
            Err(ModelError::EmptyRateTable)
        ));
    }

    #[test]
    fn exynos_preset_matches_cited_range() {
        let t = RateTable::exynos_4412();
        assert_eq!(t.len(), 16);
        assert!((t.rate(0).freq_hz - 0.2e9).abs() < 1.0);
        assert!((t.rate(1).freq_hz - 0.3e9).abs() < 1.0);
        assert!((t.rate(15).freq_hz - 1.7e9).abs() < 1.0);
        // Mobile-class top power.
        let top = t.rate(15).active_power_watts();
        assert!(top > 1.0 && top < 2.0, "top power {top}");
    }

    #[test]
    fn theorem1_gadget_matches_proof_constants() {
        let g = RateTable::theorem1_gadget();
        assert_eq!(g.rate(0).time_per_cycle, 2.0);
        assert_eq!(g.rate(1).time_per_cycle, 1.0);
        assert_eq!(g.rate(0).energy_per_cycle, 1.0);
        assert_eq!(g.rate(1).energy_per_cycle, 4.0);
    }

    #[test]
    fn min_max_rate_indices() {
        let t = RateTable::i7_950_table2();
        assert_eq!(t.min_rate(), 0);
        assert_eq!(t.max_rate(), 4);
        assert!(!t.is_empty());
    }
}
