//! The in-memory cpufreq tree.

use crate::{cpufreq_path, Cpufreq, Result, SysfsError};
use dvfs_model::RateTable;
use parking_lot::Mutex;
use std::sync::Arc;

/// Governors the simulated kernel accepts.
const KNOWN_GOVERNORS: &[&str] = &[
    "userspace",
    "ondemand",
    "performance",
    "powersave",
    "conservative",
    "schedutil",
];

#[derive(Debug)]
struct CpuNode {
    available_khz: Vec<u64>, // descending, as Linux lists them
    governor: String,
    cur_khz: u64,
}

/// An in-memory `/sys/devices/system/cpu` tree with the cpufreq
/// semantics the paper's methodology relies on. Thread-safe and
/// cloneable (shared interior state), so a scheduler thread and a
/// monitor thread can use one tree like they would one kernel.
///
/// ```
/// use dvfs_model::RateTable;
/// use dvfs_sysfs::{Cpufreq, SimulatedSysfs};
///
/// let mut tree = SimulatedSysfs::new(4, &RateTable::i7_950_table2());
/// // The paper's protocol: userspace governor, then setspeed.
/// tree.set_governor(2, "userspace").unwrap();
/// tree.set_speed(2, 2_400_000).unwrap();
/// assert_eq!(tree.current_frequency(2).unwrap(), 2_400_000);
/// // Without userspace, writes are rejected like on a real kernel.
/// assert!(tree.set_speed(0, 2_400_000).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedSysfs {
    inner: Arc<Mutex<Vec<CpuNode>>>,
}

impl SimulatedSysfs {
    /// Build a tree with `ncpus` CPUs all offering the frequencies of
    /// `table`. Every CPU starts under `ondemand` at the lowest
    /// frequency, like an idle Linux box.
    #[must_use]
    pub fn new(ncpus: usize, table: &RateTable) -> Self {
        let avail = table.available_frequencies_khz();
        let lowest = *avail.last().expect("rate tables are non-empty");
        let nodes = (0..ncpus)
            .map(|_| CpuNode {
                available_khz: avail.clone(),
                governor: "ondemand".to_string(),
                cur_khz: lowest,
            })
            .collect();
        SimulatedSysfs {
            inner: Arc::new(Mutex::new(nodes)),
        }
    }

    /// Raw file-path read, mimicking `cat` on the sysfs tree. Supports
    /// the four attributes used by the paper.
    ///
    /// # Errors
    /// [`SysfsError::NoSuchFile`] for unknown paths or CPUs.
    pub fn read_path(&self, path: &str) -> Result<String> {
        let (cpu, attr) = parse_path(path)?;
        let nodes = self.inner.lock();
        let node = nodes
            .get(cpu)
            .ok_or_else(|| SysfsError::NoSuchFile(path.to_string()))?;
        match attr.as_str() {
            "scaling_governor" => Ok(node.governor.clone()),
            "scaling_cur_freq" => Ok(node.cur_khz.to_string()),
            "scaling_setspeed" => Ok(if node.governor == "userspace" {
                node.cur_khz.to_string()
            } else {
                "<unsupported>".to_string()
            }),
            "scaling_available_frequencies" => Ok(node
                .available_khz
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ")),
            _ => Err(SysfsError::NoSuchFile(path.to_string())),
        }
    }

    /// Raw file-path write, mimicking `echo value > path`.
    ///
    /// # Errors
    /// Mirrors the kernel: unknown paths, non-`userspace` `setspeed`
    /// writes, unlisted frequencies, unknown governors.
    pub fn write_path(&self, path: &str, value: &str) -> Result<()> {
        let (cpu, attr) = parse_path(path)?;
        match attr.as_str() {
            "scaling_governor" => self.set_governor_inner(cpu, value.trim(), path),
            "scaling_setspeed" => {
                let khz: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| SysfsError::Parse(value.to_string()))?;
                self.set_speed_inner(cpu, khz, || path.to_string())
            }
            _ => Err(SysfsError::NoSuchFile(path.to_string())),
        }
    }

    fn set_governor_inner(&self, cpu: usize, governor: &str, path: &str) -> Result<()> {
        if !KNOWN_GOVERNORS.contains(&governor) {
            return Err(SysfsError::UnsupportedGovernor(governor.to_string()));
        }
        let mut nodes = self.inner.lock();
        let node = nodes
            .get_mut(cpu)
            .ok_or_else(|| SysfsError::NoSuchFile(path.to_string()))?;
        node.governor = governor.to_string();
        // performance/powersave pin the frequency immediately.
        match governor {
            "performance" => node.cur_khz = node.available_khz[0],
            "powersave" => node.cur_khz = *node.available_khz.last().expect("non-empty"),
            _ => {}
        }
        Ok(())
    }

    /// The `scaling_setspeed` write both [`Self::write_path`] and the
    /// typed [`Cpufreq::set_speed`] land on: governor gate, listed
    /// frequency, then `cur_freq`. `path` names the file in the error
    /// for a CPU the tree does not have, and is built only then.
    fn set_speed_inner(&self, cpu: usize, khz: u64, path: impl FnOnce() -> String) -> Result<()> {
        let mut nodes = self.inner.lock();
        let node = nodes
            .get_mut(cpu)
            .ok_or_else(|| SysfsError::NoSuchFile(path()))?;
        if node.governor != "userspace" {
            return Err(SysfsError::NotUserspace {
                cpu,
                governor: node.governor.clone(),
            });
        }
        if !node.available_khz.contains(&khz) {
            return Err(SysfsError::UnsupportedFrequency { cpu, khz });
        }
        node.cur_khz = khz;
        Ok(())
    }
}

fn parse_path(path: &str) -> Result<(usize, String)> {
    let rest = path
        .strip_prefix("/sys/devices/system/cpu/cpu")
        .ok_or_else(|| SysfsError::NoSuchFile(path.to_string()))?;
    let slash = rest
        .find('/')
        .ok_or_else(|| SysfsError::NoSuchFile(path.to_string()))?;
    let cpu: usize = rest[..slash]
        .parse()
        .map_err(|_| SysfsError::NoSuchFile(path.to_string()))?;
    let attr = rest[slash + 1..]
        .strip_prefix("cpufreq/")
        .ok_or_else(|| SysfsError::NoSuchFile(path.to_string()))?;
    Ok((cpu, attr.to_string()))
}

impl Cpufreq for SimulatedSysfs {
    fn num_cpus(&self) -> usize {
        self.inner.lock().len()
    }

    fn available_frequencies(&self, cpu: usize) -> Result<Vec<u64>> {
        let s = self.read_path(&cpufreq_path(cpu, "scaling_available_frequencies"))?;
        s.split_whitespace()
            .map(|t| t.parse().map_err(|_| SysfsError::Parse(t.to_string())))
            .collect()
    }

    fn governor(&self, cpu: usize) -> Result<String> {
        self.read_path(&cpufreq_path(cpu, "scaling_governor"))
    }

    fn set_governor(&mut self, cpu: usize, governor: &str) -> Result<()> {
        self.write_path(&cpufreq_path(cpu, "scaling_governor"), governor)
    }

    /// Typed: the same checks and errors as writing the frequency to
    /// `scaling_setspeed` with [`SimulatedSysfs::write_path`], without
    /// formatting a path or a number.
    fn set_speed(&mut self, cpu: usize, khz: u64) -> Result<()> {
        self.set_speed_inner(cpu, khz, || cpufreq_path(cpu, "scaling_setspeed"))
    }

    /// Typed: what reading `scaling_cur_freq` with
    /// [`SimulatedSysfs::read_path`] would parse to.
    fn current_frequency(&self, cpu: usize) -> Result<u64> {
        self.inner
            .lock()
            .get(cpu)
            .map(|node| node.cur_khz)
            .ok_or_else(|| SysfsError::NoSuchFile(cpufreq_path(cpu, "scaling_cur_freq")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> SimulatedSysfs {
        SimulatedSysfs::new(4, &RateTable::i7_950_table2())
    }

    #[test]
    fn paper_protocol_end_to_end() {
        // The exact sequence from Section V: set governor to userspace,
        // write a listed frequency to scaling_setspeed, verify via
        // scaling_cur_freq.
        let t = tree();
        t.write_path(
            "/sys/devices/system/cpu/cpu2/cpufreq/scaling_governor",
            "userspace",
        )
        .unwrap();
        t.write_path(
            "/sys/devices/system/cpu/cpu2/cpufreq/scaling_setspeed",
            "2400000",
        )
        .unwrap();
        assert_eq!(
            t.read_path("/sys/devices/system/cpu/cpu2/cpufreq/scaling_cur_freq")
                .unwrap(),
            "2400000"
        );
    }

    #[test]
    fn setspeed_rejected_under_ondemand() {
        let t = tree();
        let err = t
            .write_path(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed",
                "2400000",
            )
            .unwrap_err();
        assert_eq!(
            err,
            SysfsError::NotUserspace {
                cpu: 0,
                governor: "ondemand".into()
            }
        );
    }

    #[test]
    fn unlisted_frequency_rejected() {
        let mut t = tree();
        t.set_governor(1, "userspace").unwrap();
        let err = t.set_speed(1, 2_500_000).unwrap_err();
        assert_eq!(
            err,
            SysfsError::UnsupportedFrequency {
                cpu: 1,
                khz: 2_500_000
            }
        );
    }

    #[test]
    fn available_frequencies_listed_descending() {
        let t = tree();
        let khz = t.available_frequencies(0).unwrap();
        assert_eq!(
            khz,
            vec![3_000_000, 2_800_000, 2_400_000, 2_000_000, 1_600_000]
        );
    }

    #[test]
    fn per_core_independence() {
        let mut t = tree();
        t.set_governor(0, "userspace").unwrap();
        t.set_governor(3, "userspace").unwrap();
        t.set_speed(0, 3_000_000).unwrap();
        t.set_speed(3, 1_600_000).unwrap();
        assert_eq!(t.current_frequency(0).unwrap(), 3_000_000);
        assert_eq!(t.current_frequency(3).unwrap(), 1_600_000);
        assert_eq!(t.governor(1).unwrap(), "ondemand");
    }

    #[test]
    fn performance_governor_pins_max() {
        let mut t = tree();
        t.set_governor(0, "performance").unwrap();
        assert_eq!(t.current_frequency(0).unwrap(), 3_000_000);
        t.set_governor(0, "powersave").unwrap();
        assert_eq!(t.current_frequency(0).unwrap(), 1_600_000);
    }

    #[test]
    fn unknown_paths_and_governors_fail() {
        let t = tree();
        assert!(matches!(
            t.read_path("/sys/devices/system/cpu/cpu0/cpufreq/nope"),
            Err(SysfsError::NoSuchFile(_))
        ));
        assert!(matches!(
            t.read_path("/proc/cpuinfo"),
            Err(SysfsError::NoSuchFile(_))
        ));
        assert!(matches!(
            t.read_path("/sys/devices/system/cpu/cpu9/cpufreq/scaling_governor"),
            Err(SysfsError::NoSuchFile(_))
        ));
        assert_eq!(
            t.write_path(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                "warpspeed"
            )
            .unwrap_err(),
            SysfsError::UnsupportedGovernor("warpspeed".into())
        );
    }

    #[test]
    fn clones_share_state_across_threads() {
        let t = tree();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            let mut t2 = t2;
            t2.set_governor(1, "userspace").unwrap();
            t2.set_speed(1, 2_000_000).unwrap();
        });
        h.join().unwrap();
        assert_eq!(t.current_frequency(1).unwrap(), 2_000_000);
    }

    /// Every attribute of every CPU, one past the last included, as
    /// `read_path` renders it.
    fn snapshot(t: &SimulatedSysfs) -> Vec<Result<String>> {
        let attrs = [
            "scaling_governor",
            "scaling_cur_freq",
            "scaling_setspeed",
            "scaling_available_frequencies",
        ];
        (0..=t.num_cpus())
            .flat_map(|cpu| attrs.map(|attr| t.read_path(&cpufreq_path(cpu, attr))))
            .collect()
    }

    #[test]
    fn typed_calls_match_the_path_protocol() {
        let listed = RateTable::i7_950_table2().available_frequencies_khz();
        let unlisted = [0, 1_599_999, 2_500_000, u64::MAX];
        // cpu 4 is one past the tree's last CPU.
        for cpu in 0..=4 {
            for governor in KNOWN_GOVERNORS {
                for &khz in listed.iter().chain(&unlisted) {
                    let (mut typed, by_path) = (tree(), tree());
                    for t in [&typed, &by_path] {
                        for c in 0..4 {
                            t.write_path(&cpufreq_path(c, "scaling_governor"), governor)
                                .unwrap();
                        }
                    }
                    let case = format!("cpu{cpu} {governor} {khz} kHz");
                    assert_eq!(
                        typed.set_speed(cpu, khz),
                        by_path
                            .write_path(&cpufreq_path(cpu, "scaling_setspeed"), &khz.to_string()),
                        "set_speed, {case}"
                    );
                    assert_eq!(
                        typed.current_frequency(cpu),
                        by_path
                            .read_path(&cpufreq_path(cpu, "scaling_cur_freq"))
                            .map(|s| s.parse().unwrap()),
                        "current_frequency, {case}"
                    );
                    assert_eq!(snapshot(&typed), snapshot(&by_path), "tree, {case}");
                }
            }
        }
    }

    #[test]
    fn setspeed_read_shows_placeholder_without_userspace() {
        let t = tree();
        assert_eq!(
            t.read_path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
                .unwrap(),
            "<unsupported>"
        );
    }
}
