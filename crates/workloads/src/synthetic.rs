//! General synthetic online workloads beyond the judge trace.
//!
//! The paper's online mode targets "a broader class of tasks" than any
//! one service; these generators provide the standard arrival shapes
//! used in scheduling evaluations so downstream users can stress the
//! schedulers on their own regimes:
//!
//! * [`PoissonTrace`] — memoryless arrivals at a constant rate with
//!   lognormal service requirements (the M/G/- staple);
//! * [`DiurnalTrace`] — a sinusoidal day/night intensity profile over a
//!   Poisson base, the canonical web-service shape.
//!
//! Both are seeded and deterministic, mix interactive and
//! non-interactive classes by a configurable share, and emit `Task`s
//! ready for `dvfs-sim`.

use dvfs_model::{Task, TaskClass};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn lognormal(rng: &mut ChaCha8Rng, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    median * (sigma * z).exp()
}

fn exponential(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Constant-rate Poisson arrivals with lognormal cycle requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonTrace {
    /// Mean arrivals per second.
    pub rate_per_s: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Median cycles of a non-interactive task.
    pub median_cycles: f64,
    /// Lognormal shape parameter (0 = deterministic sizes).
    pub sigma: f64,
    /// Fraction of arrivals that are interactive, in `[0, 1]`.
    pub interactive_share: f64,
    /// Median cycles of an interactive task.
    pub interactive_median_cycles: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PoissonTrace {
    /// A modest default: 2 arrivals/s for 10 minutes, 1 Gcycle median
    /// jobs, 30% interactive queries of 2 Mcycles.
    #[must_use]
    pub fn default_config(seed: u64) -> Self {
        PoissonTrace {
            rate_per_s: 2.0,
            duration_s: 600.0,
            median_cycles: 1.0e9,
            sigma: 0.8,
            interactive_share: 0.3,
            interactive_median_cycles: 2.0e6,
            seed,
        }
    }

    /// Generate the trace (sorted by arrival, ids sequential).
    ///
    /// # Panics
    /// Panics on non-positive rate/duration or an out-of-range share.
    #[must_use]
    pub fn generate(&self) -> Vec<Task> {
        assert!(self.rate_per_s > 0.0 && self.duration_s > 0.0);
        assert!((0.0..=1.0).contains(&self.interactive_share));
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut tasks = Vec::new();
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += exponential(&mut rng, self.rate_per_s);
            if t >= self.duration_s {
                break;
            }
            let interactive = rng.gen_bool(self.interactive_share);
            let (median, class) = if interactive {
                (self.interactive_median_cycles, TaskClass::Interactive)
            } else {
                (self.median_cycles, TaskClass::NonInteractive)
            };
            let cycles = lognormal(&mut rng, median, self.sigma).max(1.0) as u64;
            tasks.push(Task::online(id, cycles, t, None, class).expect("valid synthetic task"));
            id += 1;
        }
        tasks
    }
}

/// Poisson arrivals whose intensity follows a sinusoidal day profile:
/// `rate(t) = base · (1 + amplitude · sin(2πt/period))`, thinned from a
/// homogeneous process (Lewis–Shedler).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalTrace {
    /// Base (mean) arrivals per second.
    pub base_rate_per_s: f64,
    /// Relative amplitude in `[0, 1)`.
    pub amplitude: f64,
    /// Period of the cycle in seconds (86 400 for a day; shorter for
    /// compressed experiments).
    pub period_s: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Median cycles per task.
    pub median_cycles: f64,
    /// Lognormal shape parameter.
    pub sigma: f64,
    /// Fraction of interactive arrivals.
    pub interactive_share: f64,
    /// Median cycles of an interactive task.
    pub interactive_median_cycles: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DiurnalTrace {
    /// A compressed "day" of 20 minutes with ±70% swing.
    #[must_use]
    pub fn default_config(seed: u64) -> Self {
        DiurnalTrace {
            base_rate_per_s: 3.0,
            amplitude: 0.7,
            period_s: 1200.0,
            duration_s: 1200.0,
            median_cycles: 8.0e8,
            sigma: 0.7,
            interactive_share: 0.4,
            interactive_median_cycles: 2.0e6,
            seed,
        }
    }

    /// Instantaneous arrival rate at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        self.base_rate_per_s
            * (1.0 + self.amplitude * (std::f64::consts::TAU * t / self.period_s).sin())
    }

    /// Generate the trace by thinning.
    ///
    /// # Panics
    /// Panics on invalid parameters (`amplitude >= 1`, non-positive
    /// rates/durations, out-of-range share).
    #[must_use]
    pub fn generate(&self) -> Vec<Task> {
        assert!(self.base_rate_per_s > 0.0 && self.duration_s > 0.0 && self.period_s > 0.0);
        assert!((0.0..1.0).contains(&self.amplitude));
        assert!((0.0..=1.0).contains(&self.interactive_share));
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let lambda_max = self.base_rate_per_s * (1.0 + self.amplitude);
        let mut tasks = Vec::new();
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += exponential(&mut rng, lambda_max);
            if t >= self.duration_s {
                break;
            }
            // Thinning: keep with probability rate(t)/lambda_max.
            if !rng.gen_bool((self.rate_at(t) / lambda_max).clamp(0.0, 1.0)) {
                continue;
            }
            let interactive = rng.gen_bool(self.interactive_share);
            let (median, class) = if interactive {
                (self.interactive_median_cycles, TaskClass::Interactive)
            } else {
                (self.median_cycles, TaskClass::NonInteractive)
            };
            let cycles = lognormal(&mut rng, median, self.sigma).max(1.0) as u64;
            tasks.push(Task::online(id, cycles, t, None, class).expect("valid synthetic task"));
            id += 1;
        }
        tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_count_matches_rate() {
        let cfg = PoissonTrace {
            rate_per_s: 5.0,
            duration_s: 2000.0,
            ..PoissonTrace::default_config(1)
        };
        let trace = cfg.generate();
        let expected = 5.0 * 2000.0;
        let got = trace.len() as f64;
        // Poisson sd = sqrt(n) ≈ 100; allow 5 sd.
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "got {got}, expected ≈ {expected}"
        );
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn poisson_interactive_share_respected() {
        let cfg = PoissonTrace {
            interactive_share: 0.25,
            duration_s: 3000.0,
            ..PoissonTrace::default_config(2)
        };
        let trace = cfg.generate();
        let inter = trace
            .iter()
            .filter(|t| t.class == TaskClass::Interactive)
            .count() as f64;
        let share = inter / trace.len() as f64;
        assert!((share - 0.25).abs() < 0.03, "share {share}");
    }

    #[test]
    fn poisson_deterministic_and_seed_sensitive() {
        let a = PoissonTrace::default_config(7).generate();
        let b = PoissonTrace::default_config(7).generate();
        let c = PoissonTrace::default_config(8).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_peak_has_more_arrivals_than_trough() {
        let cfg = DiurnalTrace::default_config(3);
        let trace = cfg.generate();
        // Peak quarter: sin > 0 maximal around t = period/4; trough
        // around 3·period/4.
        let quarter = cfg.period_s / 4.0;
        let in_window = |center: f64| {
            trace
                .iter()
                .filter(|t| (t.arrival - center).abs() < cfg.period_s / 8.0)
                .count()
        };
        let peak = in_window(quarter);
        let trough = in_window(3.0 * quarter);
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn diurnal_rate_function_is_bounded() {
        let cfg = DiurnalTrace::default_config(4);
        for i in 0..100 {
            let t = cfg.duration_s * i as f64 / 100.0;
            let r = cfg.rate_at(t);
            assert!(r >= cfg.base_rate_per_s * (1.0 - cfg.amplitude) - 1e-12);
            assert!(r <= cfg.base_rate_per_s * (1.0 + cfg.amplitude) + 1e-12);
        }
    }

    #[test]
    fn generated_tasks_schedule_cleanly() {
        use dvfs_model::{CostParams, Platform};
        let trace = PoissonTrace {
            duration_s: 60.0,
            ..PoissonTrace::default_config(5)
        }
        .generate();
        let platform = Platform::i7_950_quad();
        let mut policy = dvfs_core::LeastMarginalCost::new(&platform, CostParams::online_paper());
        let mut sim = dvfs_sim::Simulator::new(dvfs_sim::SimConfig::new(platform));
        sim.add_tasks(&trace);
        let report = sim.run(&mut policy);
        assert_eq!(report.completed(), trace.len());
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_rejects_full_amplitude() {
        let cfg = DiurnalTrace {
            amplitude: 1.0,
            ..DiurnalTrace::default_config(1)
        };
        let _ = cfg.generate();
    }
}
