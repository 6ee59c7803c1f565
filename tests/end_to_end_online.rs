//! Cross-crate integration: online-mode pipeline — trace synthesis,
//! serialization, scheduling, and baseline comparison.

use dvfs_suite::baselines::{OlbOnline, OnDemandOnline};
use dvfs_suite::core::LeastMarginalCost;
use dvfs_suite::model::{CostParams, Platform, TaskClass};
use dvfs_suite::serve::{service_platform, Registry, Scheduler, SchedulerConfig};
use dvfs_suite::sim::{GovernorKind, SimConfig, SimReport, Simulator};
use dvfs_suite::trace::export::jsonl_line;
use dvfs_suite::workloads::io::{read_trace, write_trace};
use dvfs_suite::workloads::JudgeTraceConfig;

fn scaled_trace(seed: u64) -> Vec<dvfs_suite::model::Task> {
    let mut cfg = JudgeTraceConfig::paper_heavy(seed);
    cfg.non_interactive = 48;
    cfg.interactive = 1500;
    cfg.generate()
}

fn run_lmc(trace: &[dvfs_suite::model::Task]) -> SimReport {
    let platform = Platform::i7_950_quad();
    let mut policy = LeastMarginalCost::new(&platform, CostParams::online_paper());
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(trace);
    sim.run(&mut policy)
}

#[test]
fn lmc_beats_olb_and_ondemand_on_judge_trace() {
    let trace = scaled_trace(3);
    let params = CostParams::online_paper();
    let platform = Platform::i7_950_quad();

    let lmc = run_lmc(&trace).cost(params);

    let mut policy = OlbOnline::new(4);
    let mut sim = Simulator::new(SimConfig::new(platform.clone()));
    sim.add_tasks(&trace);
    let olb = sim.run(&mut policy).cost(params);

    let mut policy = OnDemandOnline::new(4);
    let mut sim =
        Simulator::new(SimConfig::new(platform).with_governor(GovernorKind::ondemand_paper()));
    sim.add_tasks(&trace);
    let od = sim.run(&mut policy).cost(params);

    assert!(
        lmc.total() < olb.total(),
        "LMC {} OLB {}",
        lmc.total(),
        olb.total()
    );
    assert!(
        lmc.total() < od.total(),
        "LMC {} OD {}",
        lmc.total(),
        od.total()
    );
    assert!(lmc.energy_joules < olb.energy_joules);
}

#[test]
fn every_task_completes_under_every_policy() {
    let trace = scaled_trace(9);
    let platform = Platform::i7_950_quad();
    let n = trace.len();

    assert_eq!(run_lmc(&trace).completed(), n);

    let mut policy = OlbOnline::new(4);
    let mut sim = Simulator::new(SimConfig::new(platform.clone()));
    sim.add_tasks(&trace);
    assert_eq!(sim.run(&mut policy).completed(), n);

    let mut policy = OnDemandOnline::new(4);
    let mut sim =
        Simulator::new(SimConfig::new(platform).with_governor(GovernorKind::ondemand_paper()));
    sim.add_tasks(&trace);
    assert_eq!(sim.run(&mut policy).completed(), n);
}

#[test]
fn interactive_latency_is_protected_under_load() {
    let trace = scaled_trace(5);
    let report = run_lmc(&trace);
    let mean_i = report
        .mean_turnaround(TaskClass::Interactive)
        .expect("interactive tasks completed");
    let mean_n = report
        .mean_turnaround(TaskClass::NonInteractive)
        .expect("submissions completed");
    // Interactive queries preempt and run at max frequency: their mean
    // turnaround must be orders of magnitude below the submissions'.
    assert!(
        mean_i * 100.0 < mean_n,
        "interactive {mean_i} vs submissions {mean_n}"
    );
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let a = run_lmc(&scaled_trace(7));
    let b = run_lmc(&scaled_trace(7));
    assert_eq!(a.active_energy_joules, b.active_energy_joules);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_turnaround(), b.total_turnaround());
}

#[test]
fn trace_survives_serialization_before_scheduling() {
    let trace = scaled_trace(11);
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).expect("serialize");
    let back = read_trace(buf.as_slice()).expect("parse");
    assert_eq!(trace, back);
    let direct = run_lmc(&trace);
    let roundtripped = run_lmc(&back);
    assert_eq!(
        direct.active_energy_joules,
        roundtripped.active_energy_joules
    );
    assert_eq!(direct.makespan, roundtripped.makespan);
}

/// A trace line with its `shard` / `seq` envelope set aside: the
/// service's ring also numbers the `submit` / `admit` lines only it
/// writes.
fn sans_envelope(line: &str) -> String {
    let (time, rest) = line.split_once(",\"shard\":").expect("a trace line");
    let (_, payload) = rest.split_once(",\"ev\":").expect("a trace line");
    format!("{time},\"ev\":{payload}")
}

#[test]
fn simulator_and_served_replay_write_the_same_lifecycle_lines() {
    // The Judgegirl mix squeezed into half a minute: a queue has to
    // grow past 27 under a running task before LMC re-rates it (the
    // first dominating-range boundary at the online prices), and every
    // kind of line — `rate_change` and `preempt` included — must show.
    let mut cfg = JudgeTraceConfig::paper_heavy(3);
    cfg.non_interactive = 256;
    cfg.interactive = 1024;
    cfg.duration_s = 30.0;
    let trace = cfg.generate();
    let params = CostParams::online_paper();

    let platform = service_platform(4);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.record_trace();
    sim.add_tasks(&trace);
    sim.run(&mut policy);
    let simulated: Vec<String> = (sim.take_trace().iter())
        .map(|ev| sans_envelope(&jsonl_line(ev)))
        .collect();

    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: 4,
            params,
            queue_capacity: 2 * trace.len(),
            trace_capacity: 16 * trace.len(),
            ..SchedulerConfig::default()
        },
        std::sync::Arc::new(Registry::new()),
    );
    for t in &trace {
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    scheduler.drain_round();
    assert_eq!(scheduler.trace_dropped(), 0, "ring must not overflow");
    let served: Vec<String> = (scheduler.trace_lines().iter())
        .filter(|l| !l.contains("\"ev\":\"submit\"") && !l.contains("\"ev\":\"admit\""))
        .map(|l| sans_envelope(l))
        .collect();

    for ev in ["enqueue", "dispatch", "preempt", "rate_change", "complete"] {
        let tag = format!("\"ev\":\"{ev}\"");
        assert!(simulated.iter().any(|l| l.contains(&tag)), "no {ev} line");
    }
    assert_eq!(simulated.len(), served.len());
    for (i, (sim_line, served_line)) in simulated.iter().zip(&served).enumerate() {
        assert_eq!(sim_line, served_line, "line {i} differs");
    }
}
