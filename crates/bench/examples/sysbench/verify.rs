//! Output verification, run on every benchmark run: the books must
//! balance between the client's tallies and the server's counters, and
//! replayed rounds must equal the `dvfs_sim` reference bit for bit.

use crate::wire::Tally;
use dvfs_core::LeastMarginalCost;
use dvfs_model::{CostParams, Task};
use dvfs_serve::protocol::{value_f64, value_u64, Response};
use dvfs_serve::{service_platform, RoundReport};
use dvfs_sim::{SimConfig, Simulator};
use serde_json::Value;
use std::time::Instant;

/// Server-side counters over the same phase the client tallied.
/// `completed` counts paced completions only; a replay server reports
/// its completions in the drain replies instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCounts {
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub completed: u64,
}

impl ServerCounts {
    /// Read the four counters out of a `stats` response.
    pub fn from_stats(stats: &Response) -> Option<Self> {
        let counters = stats.field("metrics")?.get("counters")?;
        let get = |name: &str| counters.get(name).and_then(value_u64);
        Some(ServerCounts {
            submitted: get("submitted")?,
            admitted: get("admitted")?,
            // `shed` is created on first use; absent means none yet.
            shed: get("shed").unwrap_or(0),
            completed: get("completed").unwrap_or(0),
        })
    }

    pub fn since(self, earlier: ServerCounts) -> ServerCounts {
        ServerCounts {
            submitted: self.submitted - earlier.submitted,
            admitted: self.admitted - earlier.admitted,
            shed: self.shed - earlier.shed,
            completed: self.completed - earlier.completed,
        }
    }
}

/// Every way the books fail to balance, as one line each; empty when
/// they do. `completed` is what the drains (or the server's completion
/// counter) reported for the tasks the client was told were admitted.
pub fn check_books(client: Tally, completed: u64, server: Option<ServerCounts>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("books: {what}: {got} != {want}"));
        }
    };
    expect(
        "replies (ok + shed + errors) vs sent",
        client.ok + client.shed + client.errors,
        client.sent,
    );
    expect("completed vs ok acks", completed, client.ok);
    if let Some(s) = server {
        expect("server submitted vs client sent", s.submitted, client.sent);
        expect("server admitted vs client ok", s.admitted, client.ok);
        expect("server shed vs client shed", s.shed, client.shed);
    }
    problems
}

/// The totals a drained round reports, whichever way they were read
/// (in-process `RoundReport`, wire `drain` reply, one `shard_reports`
/// entry) — and what the simulator reference is reduced to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTotals {
    pub completed: u64,
    pub total_cost: f64,
    pub active_energy_joules: f64,
    pub total_turnaround_s: f64,
    pub makespan_s: f64,
}

impl RoundTotals {
    pub fn of_report(report: &RoundReport, params: CostParams) -> Self {
        RoundTotals {
            completed: report.records.len() as u64,
            total_cost: report.total_cost(params),
            active_energy_joules: report.active_energy_joules,
            total_turnaround_s: report.total_turnaround_s,
            makespan_s: report.makespan_s,
        }
    }

    /// Read the totals out of a wire `drain` reply or one of its
    /// `shard_reports` entries.
    pub fn of_value<'a>(get: impl Fn(&str) -> Option<&'a Value>) -> Option<Self> {
        let f = |name: &str| get(name).and_then(value_f64);
        Some(RoundTotals {
            completed: get("completed").and_then(value_u64)?,
            total_cost: f("total_cost")?,
            active_energy_joules: f("active_energy_joules")?,
            total_turnaround_s: f("total_turnaround_s")?,
            makespan_s: f("makespan_s")?,
        })
    }

    /// Bit-for-bit comparison; one line per differing field.
    pub fn diff(&self, want: &RoundTotals, label: &str) -> Vec<String> {
        let mut problems = Vec::new();
        if self.completed != want.completed {
            problems.push(format!(
                "{label}: completed {} != reference {}",
                self.completed, want.completed
            ));
        }
        for (name, got, want) in [
            ("total_cost", self.total_cost, want.total_cost),
            (
                "active_energy_joules",
                self.active_energy_joules,
                want.active_energy_joules,
            ),
            (
                "total_turnaround_s",
                self.total_turnaround_s,
                want.total_turnaround_s,
            ),
            ("makespan_s", self.makespan_s, want.makespan_s),
        ] {
            if got.to_bits() != want.to_bits() {
                problems.push(format!("{label}: {name} {got:?} != reference {want:?}"));
            }
        }
        problems
    }
}

/// Run `tasks` through `dvfs_sim::Simulator` with the LMC policy on one
/// shard's platform: the reference every replayed round must equal, and
/// (timed) the `sim.*` layer figure. Returns the totals and the wall
/// seconds the run took.
pub fn simulate(tasks: &[Task], cores: usize, params: CostParams) -> (RoundTotals, f64) {
    let platform = service_platform(cores);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    let t0 = Instant::now();
    sim.add_tasks(tasks);
    let report = sim.run(&mut policy);
    let elapsed = t0.elapsed().as_secs_f64();
    let totals = RoundTotals {
        completed: report.completed() as u64,
        total_cost: report.cost(params).total(),
        active_energy_joules: report.active_energy_joules,
        total_turnaround_s: report.total_turnaround(),
        makespan_s: report.makespan,
    };
    (totals, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_checker_accepts_balance_and_rejects_an_off_by_one() {
        let client = Tally {
            sent: 100,
            ok: 97,
            shed: 2,
            errors: 1,
            ..Tally::default()
        };
        let server = ServerCounts {
            submitted: 100,
            admitted: 97,
            shed: 2,
            completed: 97,
        };
        assert!(check_books(client, 97, Some(server)).is_empty());
        // One ack went missing.
        let lost = Tally { ok: 96, ..client };
        assert_eq!(check_books(lost, 96, None).len(), 1);
        // One admitted task never completed.
        assert_eq!(check_books(client, 96, None).len(), 1);
        // The server counted one more admission than the client saw.
        let off = ServerCounts {
            admitted: 98,
            ..server
        };
        let problems = check_books(client, 97, Some(off));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("admitted"));
    }

    #[test]
    fn round_totals_diff_is_bitwise() {
        let a = RoundTotals {
            completed: 2,
            total_cost: 0.1 + 0.2,
            active_energy_joules: 1.0,
            total_turnaround_s: 2.0,
            makespan_s: 3.0,
        };
        assert!(a.diff(&a, "x").is_empty());
        let b = RoundTotals {
            total_cost: 0.3,
            ..a
        };
        assert_eq!(a.diff(&b, "x").len(), 1);
    }
}
