//! Multi-core platform descriptions.
//!
//! A [`Platform`] is an ordered set of cores, each with its own
//! [`RateTable`] (per-core DVFS) and an idle power draw. Homogeneous
//! platforms share one table; heterogeneous platforms (Section III-C,
//! Theorem 5) may differ per core.

use crate::error::ModelError;
use crate::rates::RateTable;

/// Index of a core within a platform.
pub type CoreId = usize;

/// One CPU core: its available rates and idle power.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// The discrete processing rates the core supports.
    pub rates: RateTable,
    /// Power drawn while idle, in watts. The paper measures idle power
    /// separately and subtracts it; keeping it here lets the simulator
    /// report both raw and idle-subtracted energy.
    pub idle_power_watts: f64,
}

impl CoreSpec {
    /// A core with the given rate table and zero idle power.
    #[must_use]
    pub fn new(rates: RateTable) -> Self {
        CoreSpec {
            rates,
            idle_power_watts: 0.0,
        }
    }

    /// Set the idle power draw.
    #[must_use]
    pub fn with_idle_power(mut self, watts: f64) -> Self {
        self.idle_power_watts = watts;
        self
    }
}

/// A multi-core platform with per-core DVFS.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    cores: Vec<CoreSpec>,
}

impl Platform {
    /// Construct a platform from explicit core specs.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyPlatform`] when `cores` is empty.
    pub fn new(cores: Vec<CoreSpec>) -> Result<Self, ModelError> {
        if cores.is_empty() {
            return Err(ModelError::EmptyPlatform);
        }
        Ok(Platform { cores })
    }

    /// A homogeneous platform of `n` identical cores.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyPlatform`] when `n == 0`.
    pub fn homogeneous(n: usize, core: CoreSpec) -> Result<Self, ModelError> {
        Platform::new(vec![core; n])
    }

    /// The paper's experimental platform: a quad-core Intel i7-950 with
    /// the Table II rates and a measured idle draw per core.
    #[must_use]
    pub fn i7_950_quad() -> Self {
        let core = CoreSpec::new(RateTable::i7_950_table2()).with_idle_power(2.0);
        Platform::homogeneous(4, core).expect("4 > 0")
    }

    /// A big.LITTLE-style heterogeneous platform: `n_big` fast cores with
    /// the Table II rates and `n_little` slow cores with the
    /// Exynos-4412 table the paper cites in Section II-B (0.2–1.7 GHz).
    ///
    /// # Panics
    /// Panics when both counts are zero.
    #[must_use]
    pub fn big_little(n_big: usize, n_little: usize) -> Self {
        let big = CoreSpec::new(RateTable::i7_950_table2()).with_idle_power(2.0);
        let little = CoreSpec::new(RateTable::exynos_4412()).with_idle_power(0.3);
        let mut cores = vec![big; n_big];
        cores.extend(std::iter::repeat_n(little, n_little));
        Platform::new(cores).expect("at least one core required")
    }

    /// Number of cores, `R`.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The spec of core `j`.
    ///
    /// # Errors
    /// Returns [`ModelError::CoreOutOfRange`] for an invalid index.
    pub fn core(&self, j: CoreId) -> Result<&CoreSpec, ModelError> {
        self.cores.get(j).ok_or(ModelError::CoreOutOfRange {
            core: j,
            ncores: self.cores.len(),
        })
    }

    /// All core specs in index order.
    #[must_use]
    pub fn cores(&self) -> &[CoreSpec] {
        &self.cores
    }

    /// Whether all cores share identical rate tables (homogeneous system,
    /// Section III-C / Theorem 4).
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.cores
            .windows(2)
            .all(|w| w[0].rates == w[1].rates && w[0].idle_power_watts == w[1].idle_power_watts)
    }

    /// Total idle power across all cores, in watts.
    #[must_use]
    pub fn total_idle_power(&self) -> f64 {
        self.cores.iter().map(|c| c.idle_power_watts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_i7_is_homogeneous() {
        let p = Platform::i7_950_quad();
        assert_eq!(p.num_cores(), 4);
        assert!(p.is_homogeneous());
        assert!((p.total_idle_power() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn big_little_is_heterogeneous() {
        let p = Platform::big_little(2, 2);
        assert_eq!(p.num_cores(), 4);
        assert!(!p.is_homogeneous());
        assert!(p.core(0).unwrap().rates.len() == 5);
        assert!(p.core(2).unwrap().rates.len() == 16);
    }

    #[test]
    fn empty_platform_rejected() {
        assert_eq!(Platform::new(vec![]), Err(ModelError::EmptyPlatform));
        assert!(Platform::homogeneous(0, CoreSpec::new(RateTable::i7_950_table2())).is_err());
    }

    #[test]
    fn core_out_of_range() {
        let p = Platform::i7_950_quad();
        assert!(p.core(3).is_ok());
        assert_eq!(
            p.core(4).unwrap_err(),
            ModelError::CoreOutOfRange { core: 4, ncores: 4 }
        );
    }

    #[test]
    fn single_core_platform_is_homogeneous() {
        let p = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        assert!(p.is_homogeneous());
    }
}
