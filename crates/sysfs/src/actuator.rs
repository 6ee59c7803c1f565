//! Bridging scheduler rate decisions onto a cpufreq backend.

use crate::{Cpufreq, Result, SysfsError};
use dvfs_model::{RateIdx, RateTable};

/// Applies per-core rate decisions (indices into a [`RateTable`]) to a
/// cpufreq backend using the paper's protocol: switch every core to the
/// `userspace` governor once, then write `scaling_setspeed` per decision.
#[derive(Debug)]
pub struct DvfsActuator<B: Cpufreq> {
    backend: B,
    table: RateTable,
}

impl<B: Cpufreq> DvfsActuator<B> {
    /// Prepare the actuator: put every CPU under `userspace`, as the
    /// paper does before each experiment to keep the Linux governor from
    /// interfering.
    ///
    /// # Errors
    /// Propagates backend failures (permissions, missing files).
    pub fn new(mut backend: B, table: RateTable) -> Result<Self> {
        for cpu in 0..backend.num_cpus() {
            backend.set_governor(cpu, "userspace")?;
        }
        Ok(DvfsActuator { backend, table })
    }

    /// Set core `cpu` to the frequency of `rate`, then read back
    /// `scaling_cur_freq` to verify the change took effect (the paper's
    /// verification step). Returns the verified frequency in kHz.
    ///
    /// # Errors
    /// Backend failures, or [`SysfsError::Readback`] when the
    /// verification readback mismatches.
    pub fn apply(&mut self, cpu: usize, rate: RateIdx) -> Result<u64> {
        let khz = (self.table.rate(rate).freq_hz / 1e3).round() as u64;
        self.backend.set_speed(cpu, khz)?;
        let cur = self.backend.current_frequency(cpu)?;
        if cur != khz {
            return Err(SysfsError::Readback {
                cpu,
                set_khz: khz,
                read_khz: cur,
            });
        }
        Ok(cur)
    }

    /// Apply a full per-core rate vector (e.g. the starting rates of a
    /// WBG plan).
    ///
    /// # Errors
    /// Propagates the first failing core.
    pub fn apply_all(&mut self, rates: &[RateIdx]) -> Result<()> {
        for (cpu, &r) in rates.iter().enumerate() {
            self.apply(cpu, r)?;
        }
        Ok(())
    }

    /// Release the cores back to `ondemand` (the Linux default the paper
    /// restores between runs).
    ///
    /// # Errors
    /// Propagates backend failures.
    pub fn release(&mut self) -> Result<()> {
        for cpu in 0..self.backend.num_cpus() {
            self.backend.set_governor(cpu, "ondemand")?;
        }
        Ok(())
    }

    /// Access the underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulatedSysfs;

    #[test]
    fn actuator_runs_full_protocol() {
        let table = RateTable::i7_950_table2();
        let tree = SimulatedSysfs::new(4, &table);
        let mut act = DvfsActuator::new(tree.clone(), table).unwrap();
        // All cores switched to userspace by construction.
        for cpu in 0..4 {
            assert_eq!(tree.governor(cpu).unwrap(), "userspace");
        }
        assert_eq!(act.apply(1, 4).unwrap(), 3_000_000);
        assert_eq!(tree.current_frequency(1).unwrap(), 3_000_000);
        act.apply_all(&[0, 1, 2, 3]).unwrap();
        assert_eq!(tree.current_frequency(0).unwrap(), 1_600_000);
        assert_eq!(tree.current_frequency(3).unwrap(), 2_800_000);
        act.release().unwrap();
        assert_eq!(tree.governor(2).unwrap(), "ondemand");
    }

    /// A backend whose `scaling_cur_freq` always reads `reads`.
    struct Lying {
        reads: u64,
    }

    impl Cpufreq for Lying {
        fn num_cpus(&self) -> usize {
            2
        }
        fn available_frequencies(&self, _cpu: usize) -> Result<Vec<u64>> {
            Ok(vec![self.reads])
        }
        fn governor(&self, _cpu: usize) -> Result<String> {
            Ok("userspace".into())
        }
        fn set_governor(&mut self, _cpu: usize, _governor: &str) -> Result<()> {
            Ok(())
        }
        fn set_speed(&mut self, _cpu: usize, _khz: u64) -> Result<()> {
            Ok(())
        }
        fn current_frequency(&self, _cpu: usize) -> Result<u64> {
            Ok(self.reads)
        }
    }

    #[test]
    fn apply_verifies_readback() {
        let table = RateTable::i7_950_table2();
        let tree = SimulatedSysfs::new(1, &table);
        let mut act = DvfsActuator::new(tree, table.clone()).unwrap();
        // Normal path verifies fine.
        assert!(act.apply(0, 2).is_ok());
        // A write the backend accepts but does not honour is caught by
        // the readback and named as such.
        let mut act = DvfsActuator::new(Lying { reads: 1_600_000 }, table).unwrap();
        assert_eq!(act.apply(1, 0).unwrap(), 1_600_000);
        let err = act.apply(1, 4).unwrap_err();
        assert_eq!(
            err,
            SysfsError::Readback {
                cpu: 1,
                set_khz: 3_000_000,
                read_khz: 1_600_000
            }
        );
        assert_eq!(
            err.to_string(),
            "cpu1: set 3000000 kHz but scaling_cur_freq reports 1600000"
        );
    }
}
