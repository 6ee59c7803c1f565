//! Online-judge trace synthesis.
//!
//! The paper's online-mode evaluation replays half an hour of the
//! Judgegirl trace from National Taiwan University, captured during a
//! final exam with five problems: **768 non-interactive tasks** (code
//! submissions to be compiled and judged) and **50525 interactive
//! tasks** (problem browsing and score queries demanding immediate
//! acknowledgment). The original trace is not public; this module
//! synthesizes traces matching those published aggregates:
//!
//! * the trace spans `duration_s` seconds;
//! * interactive tasks arrive as a non-homogeneous stream — a baseline
//!   Poisson rate plus bursts after each problem's "hot" period, the way
//!   students hammer the scoreboard during an exam;
//! * non-interactive submissions cluster around the same hot periods,
//!   and their cycle requirements are drawn per problem (different
//!   problems have different judge workloads);
//! * everything is driven by a seeded ChaCha RNG, so a config reproduces
//!   its trace bit-for-bit.

use dvfs_model::{Task, TaskClass};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration for a synthetic judge trace.
///
/// ```
/// use dvfs_workloads::JudgeTraceConfig;
///
/// let trace = JudgeTraceConfig::paper_scaled(42, 100).generate();
/// assert!(!trace.is_empty());
/// // Deterministic: the same seed regenerates the same trace.
/// assert_eq!(trace, JudgeTraceConfig::paper_scaled(42, 100).generate());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JudgeTraceConfig {
    /// Trace length in seconds (paper: 1800 — half an hour).
    pub duration_s: f64,
    /// Number of exam problems (paper: 5).
    pub problems: usize,
    /// Number of non-interactive submissions (paper: 768).
    pub non_interactive: usize,
    /// Number of interactive queries (paper: 50525).
    pub interactive: usize,
    /// Mean cycles of an interactive query (score lookup / problem
    /// fetch; small, served from memory).
    pub interactive_mean_cycles: f64,
    /// Per-problem mean cycles of judging one submission. Length must be
    /// `>= problems`; defaults provide five distinct judge weights.
    pub submission_mean_cycles: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Relative deadline attached to every interactive task (the
    /// "early and firm deadlines" of Section II-A), in seconds after
    /// arrival. `None` leaves interactive deadlines open.
    pub interactive_deadline_s: Option<f64>,
}

impl JudgeTraceConfig {
    /// The paper's trace shape: 30 minutes, 5 problems, 768 submissions,
    /// 50525 interactive queries.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        JudgeTraceConfig {
            duration_s: 1800.0,
            problems: 5,
            non_interactive: 768,
            interactive: 50525,
            // A score query costs on the order of a millisecond of CPU
            // at 1.6 GHz.
            interactive_mean_cycles: 2.0e6,
            // Judging a submission: compile + run testcases; tenths of a
            // second to seconds of CPU, varying by problem.
            submission_mean_cycles: vec![3.0e8, 8.0e8, 1.5e9, 6.0e8, 2.5e9],
            seed,
            interactive_deadline_s: None,
        }
    }

    /// Attach a relative deadline to every interactive task.
    #[must_use]
    pub fn with_interactive_deadline(mut self, seconds: f64) -> Self {
        self.interactive_deadline_s = Some(seconds);
        self
    }

    /// The paper's trace shape with judge workloads sized for a loaded
    /// exam server (~50% utilization of the quad-core at mid frequency,
    /// with transient overload during the per-problem bursts). The
    /// published trace only fixes counts and duration; this weighting
    /// recreates the queueing regime in which the Fig. 3 comparison is
    /// meaningful.
    #[must_use]
    pub fn paper_heavy(seed: u64) -> Self {
        let mut cfg = Self::paper(seed);
        cfg.submission_mean_cycles = vec![3.0e9, 8.0e9, 1.5e10, 6.0e9, 2.5e10];
        cfg
    }

    /// A scaled-down trace with the same shape (for fast tests): sizes
    /// divided by `factor`, duration kept.
    ///
    /// # Panics
    /// Panics when `factor == 0`.
    #[must_use]
    pub fn paper_scaled(seed: u64, factor: usize) -> Self {
        assert!(factor > 0);
        let mut cfg = Self::paper(seed);
        cfg.non_interactive = (cfg.non_interactive / factor).max(1);
        cfg.interactive = (cfg.interactive / factor).max(1);
        cfg
    }

    /// Synthesize the trace: tasks sorted by arrival time, interactive
    /// ids after non-interactive ids.
    ///
    /// # Panics
    /// Panics when `submission_mean_cycles` has fewer entries than
    /// `problems`, or when sizes are zero.
    #[must_use]
    pub fn generate(&self) -> Vec<Task> {
        assert!(self.problems > 0, "need at least one problem");
        assert!(
            self.submission_mean_cycles.len() >= self.problems,
            "need a judge weight per problem"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut tasks = Vec::with_capacity(self.non_interactive + self.interactive);

        // Each problem gets a "hot window" centered progressively through
        // the exam; arrivals mix a uniform background with these bursts.
        let centers: Vec<f64> = (0..self.problems)
            .map(|p| self.duration_s * (p as f64 + 0.7) / self.problems as f64)
            .collect();
        let width = self.duration_s / (self.problems as f64 * 2.5);

        let arrival = |rng: &mut ChaCha8Rng, problem: usize| -> f64 {
            if rng.gen_bool(0.6) {
                // Burst around the problem's hot window (triangular-ish).
                let c = centers[problem];
                let off = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * width;
                (c + off).clamp(0.0, self.duration_s)
            } else {
                rng.gen_range(0.0..self.duration_s)
            }
        };

        let mut id = 0u64;
        for _ in 0..self.non_interactive {
            let problem = rng.gen_range(0..self.problems);
            let t = arrival(&mut rng, problem);
            let mean = self.submission_mean_cycles[problem];
            // Lognormal-ish spread: judge time varies with the code.
            let cycles = (mean * lognormal_factor(&mut rng, 0.5)).max(1.0) as u64;
            tasks.push(
                Task::online(id, cycles, t, None, TaskClass::NonInteractive)
                    .expect("generated tasks are valid"),
            );
            id += 1;
        }
        for _ in 0..self.interactive {
            let problem = rng.gen_range(0..self.problems);
            let t = arrival(&mut rng, problem);
            let cycles =
                (self.interactive_mean_cycles * lognormal_factor(&mut rng, 0.3)).max(1.0) as u64;
            let deadline = self.interactive_deadline_s.map(|d| t + d);
            tasks.push(
                Task::online(id, cycles, t, deadline, TaskClass::Interactive)
                    .expect("generated tasks are valid"),
            );
            id += 1;
        }
        tasks.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .expect("finite arrivals")
                .then(a.id.cmp(&b.id))
        });
        tasks
    }
}

/// Multiplicative lognormal factor with median 1.
fn lognormal_factor(rng: &mut ChaCha8Rng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (sigma * z).exp()
}

/// Aggregate statistics of a trace, for sanity checks and reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of interactive tasks.
    pub interactive: usize,
    /// Number of non-interactive tasks.
    pub non_interactive: usize,
    /// Latest arrival time.
    pub span_s: f64,
    /// Total cycles of interactive tasks.
    pub interactive_cycles: u128,
    /// Total cycles of non-interactive tasks.
    pub non_interactive_cycles: u128,
}

impl TraceStats {
    /// Compute statistics over a task list.
    #[must_use]
    pub fn of(tasks: &[Task]) -> Self {
        let mut s = TraceStats {
            interactive: 0,
            non_interactive: 0,
            span_s: 0.0,
            interactive_cycles: 0,
            non_interactive_cycles: 0,
        };
        for t in tasks {
            s.span_s = s.span_s.max(t.arrival);
            match t.class {
                TaskClass::Interactive => {
                    s.interactive += 1;
                    s.interactive_cycles += u128::from(t.cycles);
                }
                _ => {
                    s.non_interactive += 1;
                    s.non_interactive_cycles += u128::from(t.cycles);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_published_aggregates() {
        let cfg = JudgeTraceConfig::paper(1);
        assert_eq!(cfg.non_interactive, 768);
        assert_eq!(cfg.interactive, 50525);
        assert_eq!(cfg.duration_s, 1800.0);
        assert_eq!(cfg.problems, 5);
    }

    #[test]
    fn generated_trace_has_exact_counts_and_order() {
        let cfg = JudgeTraceConfig::paper_scaled(7, 50);
        let trace = cfg.generate();
        let stats = TraceStats::of(&trace);
        assert_eq!(stats.non_interactive, cfg.non_interactive);
        assert_eq!(stats.interactive, cfg.interactive);
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(stats.span_s <= cfg.duration_s);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = JudgeTraceConfig::paper_scaled(42, 100).generate();
        let b = JudgeTraceConfig::paper_scaled(42, 100).generate();
        assert_eq!(a, b);
        let c = JudgeTraceConfig::paper_scaled(43, 100).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn interactive_tasks_are_much_lighter() {
        let trace = JudgeTraceConfig::paper_scaled(3, 20).generate();
        let stats = TraceStats::of(&trace);
        let mean_i = stats.interactive_cycles as f64 / stats.interactive as f64;
        let mean_n = stats.non_interactive_cycles as f64 / stats.non_interactive as f64;
        assert!(
            mean_n > mean_i * 50.0,
            "submissions must dwarf queries: {mean_n} vs {mean_i}"
        );
    }

    #[test]
    fn ids_are_unique() {
        let trace = JudgeTraceConfig::paper_scaled(9, 100).generate();
        let mut ids: Vec<u64> = trace.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
    }

    #[test]
    fn interactive_deadlines_attach_relative_to_arrival() {
        let cfg = JudgeTraceConfig::paper_scaled(4, 200).with_interactive_deadline(0.5);
        let trace = cfg.generate();
        for t in &trace {
            match t.class {
                TaskClass::Interactive => {
                    let d = t.deadline.expect("interactive tasks carry deadlines");
                    assert!((d - t.arrival - 0.5).abs() < 1e-12);
                }
                _ => assert!(t.deadline.is_none()),
            }
        }
    }

    #[test]
    fn full_paper_trace_generates_quickly() {
        let trace = JudgeTraceConfig::paper(1).generate();
        assert_eq!(trace.len(), 768 + 50525);
    }

    #[test]
    fn arrivals_cluster_near_hot_windows() {
        // With 60% burst probability, density inside the hot windows must
        // exceed the uniform share substantially.
        let cfg = JudgeTraceConfig::paper_scaled(5, 10);
        let trace = cfg.generate();
        let centers: Vec<f64> = (0..cfg.problems)
            .map(|p| cfg.duration_s * (p as f64 + 0.7) / cfg.problems as f64)
            .collect();
        let width = cfg.duration_s / (cfg.problems as f64 * 2.5);
        let in_windows = trace
            .iter()
            .filter(|t| centers.iter().any(|&c| (t.arrival - c).abs() <= width))
            .count();
        // Compare arrival densities (per second) inside vs outside the
        // hot windows; with a 60% burst share the inside density must be
        // a multiple of the outside density.
        let window_seconds = (2.0 * width * cfg.problems as f64).min(cfg.duration_s);
        let outside_seconds = cfg.duration_s - window_seconds;
        let inside_density = in_windows as f64 / window_seconds;
        let outside_density = (trace.len() - in_windows) as f64 / outside_seconds;
        assert!(
            inside_density > outside_density * 2.0,
            "bursts missing: inside {inside_density:.4}/s vs outside {outside_density:.4}/s"
        );
    }
}
