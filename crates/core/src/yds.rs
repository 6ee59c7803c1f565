//! The Yao–Demers–Shenker (YDS) optimal speed-scaling algorithm.
//!
//! The paper's related work (Section VI) anchors on Yao et al.'s
//! "offline optimal algorithm ... for aperiodic real-time applications":
//! given jobs with release times, deadlines, and work, and a *continuous*
//! speed range with convex power `P(s) = s^α`, YDS computes the
//! minimum-energy feasible schedule by repeatedly peeling off the
//! maximum-intensity *critical interval*. We implement it as the
//! continuous-speed energy **lower bound** against which the discrete
//! per-core-DVFS schedulers of this crate are compared (the
//! `yds_compare` experiment binary): the gap between YDS and the
//! discrete exact solver is the price of a finite rate set; the gap
//! between the discrete exact solver and the greedy escalation heuristic
//! is the price of polynomial time.
//!
//! Complexity: the straightforward O(n³) formulation (n ≤ a few
//! thousand comfortably).

/// A YDS job: release time, absolute deadline, and work (cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YdsJob {
    /// Caller-meaningful identifier.
    pub id: u64,
    /// Release time in seconds.
    pub release: f64,
    /// Absolute deadline in seconds (`> release`).
    pub deadline: f64,
    /// Work in cycles.
    pub work: f64,
}

/// One scheduled job: the constant speed (cycles/second) YDS assigns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YdsAssignment {
    /// The job's identifier.
    pub id: u64,
    /// Execution speed in cycles per second.
    pub speed: f64,
}

/// The full YDS result.
#[derive(Debug, Clone, PartialEq)]
pub struct YdsSchedule {
    /// Per-job speed assignments.
    pub assignments: Vec<YdsAssignment>,
    /// The critical intervals in peel order: `(start, end, intensity)`
    /// in original time coordinates of each round's *transformed*
    /// instance (diagnostic; speeds are what matters).
    pub intervals: Vec<(f64, f64, f64)>,
}

impl YdsSchedule {
    /// Total energy under `P(s) = coeff · s^alpha` per second:
    /// each job runs `work / speed` seconds at power `coeff·speed^alpha`.
    #[must_use]
    pub fn energy(&self, jobs: &[YdsJob], coeff: f64, alpha: f64) -> f64 {
        self.assignments
            .iter()
            .map(|a| {
                let job = jobs
                    .iter()
                    .find(|j| j.id == a.id)
                    .expect("assignment references an input job");
                let duration = job.work / a.speed;
                coeff * a.speed.powf(alpha) * duration
            })
            .sum()
    }

    /// Speed assigned to a job id (only the tests ask).
    #[cfg(test)]
    fn speed_of(&self, id: u64) -> Option<f64> {
        self.assignments
            .iter()
            .find(|a| a.id == id)
            .map(|a| a.speed)
    }
}

/// Run YDS.
///
/// # Panics
/// Panics when a job has a non-positive window or non-positive work.
#[must_use]
pub fn yds(jobs: &[YdsJob]) -> YdsSchedule {
    for j in jobs {
        assert!(
            j.deadline > j.release && j.work > 0.0,
            "job {} must have a positive window and work",
            j.id
        );
    }
    let mut remaining: Vec<YdsJob> = jobs.to_vec();
    let mut assignments = Vec::with_capacity(jobs.len());
    let mut intervals = Vec::new();

    while !remaining.is_empty() {
        // Candidate interval endpoints: all releases and deadlines.
        let mut starts: Vec<f64> = remaining.iter().map(|j| j.release).collect();
        starts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        starts.dedup();
        let mut ends: Vec<f64> = remaining.iter().map(|j| j.deadline).collect();
        ends.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ends.dedup();

        // Maximum-intensity interval.
        let mut best: Option<(f64, f64, f64)> = None; // (t1, t2, g)
        for &t1 in &starts {
            for &t2 in &ends {
                if t2 <= t1 {
                    continue;
                }
                let work: f64 = remaining
                    .iter()
                    .filter(|j| j.release >= t1 - 1e-12 && j.deadline <= t2 + 1e-12)
                    .map(|j| j.work)
                    .sum();
                if work <= 0.0 {
                    continue;
                }
                let g = work / (t2 - t1);
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((t1, t2, g));
                }
            }
        }
        let (t1, t2, g) = best.expect("non-empty remaining set has a critical interval");
        intervals.push((t1, t2, g));

        // Peel: jobs inside the critical interval run at speed g.
        let (inside, outside): (Vec<YdsJob>, Vec<YdsJob>) = remaining
            .into_iter()
            .partition(|j| j.release >= t1 - 1e-12 && j.deadline <= t2 + 1e-12);
        for j in &inside {
            assignments.push(YdsAssignment { id: j.id, speed: g });
        }

        // Collapse [t1, t2] out of the timeline for the survivors.
        let collapse = |t: f64| -> f64 {
            if t <= t1 {
                t
            } else if t >= t2 {
                t - (t2 - t1)
            } else {
                t1
            }
        };
        remaining = outside
            .into_iter()
            .map(|mut j| {
                j.release = collapse(j.release);
                j.deadline = collapse(j.deadline);
                j
            })
            .collect();
    }
    YdsSchedule {
        assignments,
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(id: u64, release: f64, deadline: f64, work: f64) -> YdsJob {
        YdsJob {
            id,
            release,
            deadline,
            work,
        }
    }

    /// EDF-simulate the assignments and confirm every deadline is met:
    /// the defining feasibility property of a YDS schedule.
    fn assert_feasible(jobs: &[YdsJob], schedule: &YdsSchedule) {
        // Discrete-event EDF with per-job fixed speeds.
        let mut pending: Vec<(YdsJob, f64)> = jobs
            .iter()
            .map(|j| (*j, schedule.speed_of(j.id).expect("assigned")))
            .collect();
        pending.sort_by(|a, b| a.0.release.partial_cmp(&b.0.release).expect("finite"));
        let mut t = 0.0f64;
        let mut active: Vec<(YdsJob, f64, f64)> = Vec::new(); // (job, speed, remaining)
        let mut idx = 0;
        while idx < pending.len() || !active.is_empty() {
            if active.is_empty() {
                let (j, s) = pending[idx];
                t = t.max(j.release);
                active.push((j, s, j.work));
                idx += 1;
                // Pull in everything else released at the same instant.
                while idx < pending.len() && pending[idx].0.release <= t + 1e-12 {
                    let (j2, s2) = pending[idx];
                    active.push((j2, s2, j2.work));
                    idx += 1;
                }
            }
            // Earliest deadline first.
            active.sort_by(|a, b| a.0.deadline.partial_cmp(&b.0.deadline).expect("finite"));
            let next_release = pending.get(idx).map(|(j, _)| j.release);
            let (j, s, rem) = active[0];
            let finish = t + rem / s;
            match next_release {
                Some(r) if r < finish - 1e-12 => {
                    let done = (r - t) * s;
                    active[0].2 -= done;
                    t = r;
                    while idx < pending.len() && pending[idx].0.release <= t + 1e-12 {
                        let (j2, s2) = pending[idx];
                        active.push((j2, s2, j2.work));
                        idx += 1;
                    }
                }
                _ => {
                    t = finish;
                    assert!(
                        t <= j.deadline + 1e-6,
                        "job {} misses its deadline: {} > {}",
                        j.id,
                        t,
                        j.deadline
                    );
                    active.remove(0);
                }
            }
        }
    }

    #[test]
    fn single_job_runs_at_exact_density() {
        let jobs = [job(1, 0.0, 2.0, 6.0)];
        let s = yds(&jobs);
        assert!((s.speed_of(1).unwrap() - 3.0).abs() < 1e-12);
        assert_feasible(&jobs, &s);
    }

    #[test]
    fn disjoint_jobs_get_independent_speeds() {
        let jobs = [job(1, 0.0, 1.0, 5.0), job(2, 10.0, 12.0, 2.0)];
        let s = yds(&jobs);
        assert!((s.speed_of(1).unwrap() - 5.0).abs() < 1e-12);
        assert!((s.speed_of(2).unwrap() - 1.0).abs() < 1e-12);
        assert_feasible(&jobs, &s);
    }

    #[test]
    fn nested_tight_job_forms_its_own_critical_interval() {
        // Outer job [0, 10] with 10 work; inner job [4, 5] with 5 work.
        // The inner interval has intensity 5; peeling it leaves the
        // outer job 10 work over 9 remaining seconds.
        let jobs = [job(1, 0.0, 10.0, 10.0), job(2, 4.0, 5.0, 5.0)];
        let s = yds(&jobs);
        assert!((s.speed_of(2).unwrap() - 5.0).abs() < 1e-9);
        assert!((s.speed_of(1).unwrap() - 10.0 / 9.0).abs() < 1e-9);
        assert_feasible(&jobs, &s);
    }

    #[test]
    fn identical_windows_share_one_speed() {
        let jobs = [
            job(1, 0.0, 4.0, 3.0),
            job(2, 0.0, 4.0, 5.0),
            job(3, 0.0, 4.0, 4.0),
        ];
        let s = yds(&jobs);
        for id in 1..=3 {
            assert!((s.speed_of(id).unwrap() - 3.0).abs() < 1e-12);
        }
        assert_eq!(s.intervals.len(), 1);
        assert_feasible(&jobs, &s);
    }

    #[test]
    fn energy_beats_constant_speed_alternatives() {
        // YDS minimizes Σ s²·(w/s) = Σ w·s for α=2... more precisely
        // energy = Σ coeff·s^(α−1)·w. Compare against running everything
        // at the single lowest feasible constant speed.
        let jobs = [
            job(1, 0.0, 3.0, 6.0),
            job(2, 1.0, 4.0, 2.0),
            job(3, 5.0, 9.0, 1.0),
        ];
        let s = yds(&jobs);
        assert_feasible(&jobs, &s);
        let yds_energy = s.energy(&jobs, 1.0, 2.0);
        // Cheapest feasible constant speed: search numerically.
        let mut best_const = f64::INFINITY;
        for i in 1..2000 {
            let speed = i as f64 * 0.01;
            let sched = YdsSchedule {
                assignments: jobs
                    .iter()
                    .map(|j| YdsAssignment { id: j.id, speed })
                    .collect(),
                intervals: vec![],
            };
            let feasible = std::panic::catch_unwind(|| assert_feasible(&jobs, &sched)).is_ok();
            if feasible {
                best_const = best_const.min(sched.energy(&jobs, 1.0, 2.0));
            }
        }
        assert!(
            yds_energy <= best_const + 1e-9,
            "YDS {yds_energy} must not exceed best constant-speed {best_const}"
        );
    }

    #[test]
    #[should_panic(expected = "positive window")]
    fn rejects_empty_window() {
        let _ = yds(&[job(1, 2.0, 2.0, 1.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_yds_schedules_are_feasible(
            specs in prop::collection::vec(
                (0.0f64..50.0, 0.1f64..20.0, 0.1f64..30.0),
                1..12,
            ),
        ) {
            let jobs: Vec<YdsJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(r, span, w))| job(i as u64, r, r + span, w))
                .collect();
            let s = yds(&jobs);
            prop_assert_eq!(s.assignments.len(), jobs.len());
            assert_feasible(&jobs, &s);
        }

        #[test]
        fn prop_peeled_intensities_non_increasing(
            specs in prop::collection::vec(
                (0.0f64..50.0, 0.5f64..20.0, 0.1f64..30.0),
                1..10,
            ),
        ) {
            // The defining structure of YDS: critical-interval
            // intensities are non-increasing across rounds.
            let jobs: Vec<YdsJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(r, span, w))| job(i as u64, r, r + span, w))
                .collect();
            let s = yds(&jobs);
            for w in s.intervals.windows(2) {
                prop_assert!(w[0].2 >= w[1].2 - 1e-9,
                    "intensity increased: {} then {}", w[0].2, w[1].2);
            }
        }
    }
}
