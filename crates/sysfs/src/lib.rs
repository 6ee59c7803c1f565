//! # dvfs-sysfs
//!
//! The Linux cpufreq sysfs interface the paper drives its experiments
//! through (Section V):
//!
//! > The DVFS mechanism can be disabled by setting the content in
//! > `/sys/devices/system/cpu/cpuX/cpufreq/scaling_governor` to
//! > `userspace` ... we can set the frequency of an individual core by
//! > changing the content in `.../scaling_setspeed`. However, the
//! > frequency choices are limited to those in
//! > `.../scaling_available_frequencies`. After setting the frequency of
//! > core X, we can verify the change from `.../scaling_cur_freq`.
//!
//! Two backends implement the same [`Cpufreq`] trait:
//!
//! * [`SimulatedSysfs`] — an in-memory file tree with the exact paths and
//!   semantics above (governor gating, frequency validation, `cur_freq`
//!   reflection), so schedulers can be exercised against the real
//!   actuation protocol on any machine;
//! * [`RealSysfs`] — the actual `/sys` tree when present (Linux with
//!   cpufreq and, for writes, root).
//!
//! [`actuator::DvfsActuator`] bridges a scheduler's rate decisions to
//! either backend.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actuator;
pub mod powercap;
pub mod real;
pub mod simulated;

pub use actuator::DvfsActuator;
pub use powercap::{counter_delta, PowercapEmulator};
pub use real::RealSysfs;
pub use simulated::SimulatedSysfs;

use std::fmt;

/// Errors from cpufreq operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysfsError {
    /// The path does not exist in the (real or simulated) tree.
    NoSuchFile(String),
    /// Writing `scaling_setspeed` while the governor is not `userspace`.
    NotUserspace {
        /// The CPU whose governor gate rejected the write.
        cpu: usize,
        /// The governor currently in control.
        governor: String,
    },
    /// The requested frequency is not listed in
    /// `scaling_available_frequencies`.
    UnsupportedFrequency {
        /// The CPU index.
        cpu: usize,
        /// The rejected frequency in kHz.
        khz: u64,
    },
    /// The requested governor is not recognized.
    UnsupportedGovernor(String),
    /// A value could not be parsed.
    Parse(String),
    /// `scaling_cur_freq` did not read back the frequency just written
    /// to `scaling_setspeed`.
    Readback {
        /// The CPU index.
        cpu: usize,
        /// The frequency written, in kHz.
        set_khz: u64,
        /// The frequency read back, in kHz.
        read_khz: u64,
    },
    /// Underlying I/O failure (real backend).
    Io(String),
}

impl fmt::Display for SysfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysfsError::NoSuchFile(p) => write!(f, "no such sysfs file: {p}"),
            SysfsError::NotUserspace { cpu, governor } => write!(
                f,
                "cpu{cpu}: scaling_setspeed requires the userspace governor (current: {governor})"
            ),
            SysfsError::UnsupportedFrequency { cpu, khz } => write!(
                f,
                "cpu{cpu}: {khz} kHz is not in scaling_available_frequencies"
            ),
            SysfsError::UnsupportedGovernor(g) => write!(f, "unsupported governor: {g}"),
            SysfsError::Parse(s) => write!(f, "could not parse sysfs value: {s}"),
            SysfsError::Readback {
                cpu,
                set_khz,
                read_khz,
            } => write!(
                f,
                "cpu{cpu}: set {set_khz} kHz but scaling_cur_freq reports {read_khz}"
            ),
            SysfsError::Io(s) => write!(f, "sysfs i/o error: {s}"),
        }
    }
}

impl std::error::Error for SysfsError {}

/// Result alias for sysfs operations.
pub type Result<T> = std::result::Result<T, SysfsError>;

/// The cpufreq operations the paper's methodology uses.
pub trait Cpufreq {
    /// Number of CPUs exposed by the tree.
    fn num_cpus(&self) -> usize;

    /// Contents of `scaling_available_frequencies` (kHz, as listed —
    /// Linux lists them descending).
    fn available_frequencies(&self, cpu: usize) -> Result<Vec<u64>>;

    /// Current `scaling_governor`.
    fn governor(&self, cpu: usize) -> Result<String>;

    /// Write `scaling_governor`.
    fn set_governor(&mut self, cpu: usize, governor: &str) -> Result<()>;

    /// Write `scaling_setspeed` (requires the `userspace` governor and a
    /// listed frequency).
    fn set_speed(&mut self, cpu: usize, khz: u64) -> Result<()>;

    /// Read `scaling_cur_freq` in kHz.
    fn current_frequency(&self, cpu: usize) -> Result<u64>;
}

/// Canonical cpufreq path for a CPU attribute, exactly as in the paper.
#[must_use]
pub fn cpufreq_path(cpu: usize, attr: &str) -> String {
    format!("/sys/devices/system/cpu/cpu{cpu}/cpufreq/{attr}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_match_the_paper() {
        assert_eq!(
            cpufreq_path(3, "scaling_governor"),
            "/sys/devices/system/cpu/cpu3/cpufreq/scaling_governor"
        );
        assert_eq!(
            cpufreq_path(0, "scaling_setspeed"),
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed"
        );
        assert_eq!(
            cpufreq_path(11, "scaling_available_frequencies"),
            "/sys/devices/system/cpu/cpu11/cpufreq/scaling_available_frequencies"
        );
        assert_eq!(
            cpufreq_path(2, "scaling_cur_freq"),
            "/sys/devices/system/cpu/cpu2/cpufreq/scaling_cur_freq"
        );
    }

    #[test]
    fn errors_display() {
        let errs: Vec<SysfsError> = vec![
            SysfsError::NoSuchFile("x".into()),
            SysfsError::NotUserspace {
                cpu: 1,
                governor: "ondemand".into(),
            },
            SysfsError::UnsupportedFrequency { cpu: 0, khz: 1234 },
            SysfsError::UnsupportedGovernor("turbo".into()),
            SysfsError::Parse("?".into()),
            SysfsError::Readback {
                cpu: 0,
                set_khz: 1,
                read_khz: 2,
            },
            SysfsError::Io("eperm".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
