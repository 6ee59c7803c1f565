//! The per-layer budget: each layer's public functions driven in
//! isolation over the workload's own generated inputs, named after the
//! module they live in. Only the traced run pays for this.
//!
//! Every figure is a median over repeated blocks, each block long
//! enough that the two clock reads around it do not show.

use crate::inputs;
use crate::report::Report;
use crate::stats::median;
use crate::verify::simulate;
use crate::wire::Client;
use crate::workloads::{
    paced_reactor_config, scheduler_config, start_server, stop_server, Ctx, Outcome, BATCH, CORES,
    DEEP_TASKS,
};
use dvfs_core::sched::{ExecutorView, Scheduler as Policy};
use dvfs_core::{schedule_wbg, CostLedger, DominatingRanges, LeastMarginalCost};
use dvfs_model::{CoreId, CostParams, Platform, RateIdx, RateTable, Task, TaskClass, TaskId};
use dvfs_net::LineFramer;
use dvfs_ostree::CycleTree;
use dvfs_serve::protocol::{field_u64, parse_request, Response};
use dvfs_serve::{
    service_platform, ActuatorKind, AdmissionPolicy, AdmissionQueue, Histogram, Mode, NetBackend,
    RealTimeExecutor, Registry, Scheduler, SubmitItem, MAX_LINE_BYTES,
};
use dvfs_trace::{ClassTag, EventKind, SharedRing};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Blocks per figure; the reported value is their median.
const BLOCKS: usize = 7;

fn time_ns(work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    t.elapsed().as_secs_f64() * 1e9
}

/// Median over [`BLOCKS`] blocks of nanoseconds per operation. `block`
/// does its own untimed set-up and tear-down around a [`time_ns`] call
/// and returns `(timed nanoseconds, operations timed)`.
fn ns_per_op(mut block: impl FnMut() -> (f64, usize)) -> f64 {
    let per_op: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let (ns, ops) = block();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&per_op).unwrap_or(0.0)
}

/// Nanoseconds per call of `op`, `per_block` calls a block.
fn ns_per_call(per_block: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut next = 0usize;
    ns_per_op(|| {
        let ns = time_ns(|| {
            for _ in 0..per_block {
                op(next);
                next = next.wrapping_add(1);
            }
        });
        (ns, per_block)
    })
}

/// The cheapest possible [`ExecutorView`] — occupancy and rates, no
/// clock, no events — so `on_arrival` against it is the policy's
/// decision alone (as `benches/online.rs` measures it).
struct NullExecutor {
    table: RateTable,
    running: Vec<Option<TaskId>>,
    rates: Vec<RateIdx>,
}

impl NullExecutor {
    fn new(platform: &Platform) -> Self {
        NullExecutor {
            table: platform.cores()[0].rates.clone(),
            running: vec![None; platform.num_cores()],
            rates: vec![0; platform.num_cores()],
        }
    }
}

impl ExecutorView for NullExecutor {
    fn now(&self) -> f64 {
        0.0
    }
    fn num_cores(&self) -> usize {
        self.running.len()
    }
    fn rate_table(&self, _j: CoreId) -> &RateTable {
        &self.table
    }
    fn max_allowed_rate(&self, _j: CoreId) -> RateIdx {
        self.table.max_rate()
    }
    fn current_rate(&self, j: CoreId) -> RateIdx {
        self.rates[j]
    }
    fn running_task(&self, j: CoreId) -> Option<TaskId> {
        self.running[j]
    }
    fn remaining_cycles(&self, _t: TaskId) -> f64 {
        0.0
    }
    fn set_rate(&mut self, j: CoreId, rate: RateIdx) {
        self.rates[j] = rate;
    }
    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>) {
        if let Some(r) = rate {
            self.rates[j] = r;
        }
        self.running[j] = Some(task);
    }
    fn preempt(&mut self, j: CoreId) -> TaskId {
        self.running[j]
            .take()
            .expect("the policy preempts busy cores only")
    }
}

fn task(id: u64, cycles: u64, class: TaskClass) -> Task {
    Task::online(id, cycles, 0.0, None, class).expect("positive cycles")
}

fn framing(report: &mut Report, wire: &[u8]) {
    let lines = wire.iter().filter(|&&b| b == b'\n').count();
    for (name, chunk) in [
        ("net.framing.feed_ns_per_line", 4096),
        ("net.framing.feed_split_ns_per_line", 7),
    ] {
        let ns = ns_per_op(|| {
            let mut framer = LineFramer::new(MAX_LINE_BYTES);
            let mut frames = Vec::new();
            let ns = time_ns(|| {
                for part in wire.chunks(chunk) {
                    framer.feed(part, &mut frames);
                    black_box(&frames);
                    frames.clear();
                }
            });
            (ns, lines)
        });
        report.put(name, ns, "ns");
    }
}

fn protocol(report: &mut Report, items: &[SubmitItem]) {
    let auto: Vec<String> = items
        .iter()
        .map(|it| {
            inputs::submit_line(&SubmitItem {
                id: None,
                arrival: None,
                ..*it
            })
        })
        .collect();
    let full: Vec<String> = items
        .iter()
        .zip(0u64..)
        .map(|(it, i)| {
            inputs::submit_line(&SubmitItem {
                id: Some(it.id.unwrap_or(i)),
                arrival: Some(it.arrival.unwrap_or(i as f64 * 1e-3)),
                ..*it
            })
        })
        .collect();
    for (name, lines) in [
        ("serve.protocol.parse_submit_ns", &auto),
        ("serve.protocol.parse_submit_full_ns", &full),
    ] {
        let ns = ns_per_call(lines.len(), |i| {
            black_box(parse_request(&lines[i % lines.len()]).is_ok());
        });
        report.put(name, ns, "ns");
    }
    let ns = ns_per_call(20_000, |i| {
        let ack = Response::Ok(vec![
            field_u64("id", i as u64),
            field_u64("depth", (i % 97) as u64),
            field_u64("shard", (i % 2) as u64),
        ]);
        black_box(ack.encode());
    });
    report.put("serve.protocol.encode_ack_ns", ns, "ns");
}

/// Items a `submit_many` block pushes before the (untimed) drain that
/// empties the round again.
const SUBMIT_BLOCK: usize = 8192;

fn service(report: &mut Report, items: &[SubmitItem]) {
    let replay = |trace_capacity| {
        Scheduler::new(
            scheduler_config(Mode::Replay, 2, trace_capacity),
            Arc::new(Registry::new()),
        )
    };
    let block: Vec<SubmitItem> = items
        .iter()
        .cycle()
        .take(SUBMIT_BLOCK)
        .map(|it| SubmitItem {
            id: None,
            arrival: None,
            ..*it
        })
        .collect();
    let explicit: Vec<SubmitItem> = block
        .iter()
        .zip(0u64..)
        .map(|(it, i)| SubmitItem { id: Some(i), ..*it })
        .collect();
    let submit_all = |scheduler: &Scheduler, items: &[SubmitItem]| {
        for chunk in items.chunks(BATCH) {
            black_box(scheduler.submit_many(chunk));
        }
    };

    let scheduler = replay(0);
    for (name, items) in [
        ("serve.service.submit_many_ns_per_item", &block),
        ("serve.service.submit_explicit_ns_per_item", &explicit),
    ] {
        let ns = ns_per_op(|| {
            let ns = time_ns(|| submit_all(&scheduler, items));
            scheduler.drain_round();
            (ns, items.len())
        });
        report.put(name, ns, "ns");
    }

    // Two callers at once: the `ids` mutex both go through. Each
    // caller's own elapsed time over its own items, averaged.
    let ns = ns_per_op(|| {
        let gate = Barrier::new(2);
        let halves = block.split_at(block.len() / 2);
        let ns: f64 = std::thread::scope(|scope| {
            [halves.0, halves.1]
                .map(|half| {
                    scope.spawn(|| {
                        gate.wait();
                        let t = Instant::now();
                        submit_all(&scheduler, half);
                        t.elapsed().as_secs_f64() * 1e9 / half.len() as f64
                    })
                })
                .map(|h| h.join().expect("submitter thread panicked"))
                .iter()
                .sum()
        });
        scheduler.drain_round();
        (ns / 2.0, 1)
    });
    report.put("serve.service.submit_many_2thr_ns_per_item", ns, "ns");

    // Read-side documents after the loaded rounds above.
    let us = ns_per_call(20, |_| {
        black_box(scheduler.stats());
    }) / 1e3;
    report.put("serve.service.stats_us", us, "us");
    let us = ns_per_call(20, |_| {
        black_box(scheduler.health());
    }) / 1e3;
    report.put("serve.service.health_us", us, "us");
    drop(scheduler);

    // Trace export: a traced round, then `trace_lines` over its events.
    let traced = replay(1 << 19);
    submit_all(&traced, &block);
    traced.drain_round();
    let t = Instant::now();
    let events = traced.trace_lines().len();
    report.put(
        "trace.export_ns_per_event",
        t.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64,
        "ns",
    );

    // One command broadcast + reply collection on an idle paced service.
    let paced = Scheduler::new(paced_reactor_config(), Arc::new(Registry::new()));
    paced.start_clock();
    let us = ns_per_call(500, |_| paced.tick()) / 1e3;
    report.put("serve.worker.cmd_round_trip_us", us, "us");
}

fn admission_and_metrics(report: &mut Report, items: &[SubmitItem]) {
    let tasks = inputs::as_replay_tasks(items);
    let queue = AdmissionQueue::new(AdmissionPolicy::with_capacity(1 << 20));
    let mut drain_ns = Vec::with_capacity(BLOCKS);
    let submit_ns = ns_per_op(|| {
        let ns = time_ns(|| {
            for t in &tasks {
                black_box(queue.try_submit(t.clone()).is_ok());
            }
        });
        let t = Instant::now();
        let drained = queue.drain().len();
        drain_ns.push(t.elapsed().as_secs_f64() * 1e9 / drained.max(1) as f64);
        (ns, tasks.len())
    });
    report.put("serve.admission.try_submit_ns", submit_ns, "ns");
    report.put(
        "serve.admission.drain_ns_per_task",
        median(&drain_ns).unwrap_or(0.0),
        "ns",
    );

    let registry = Registry::new();
    let ns = ns_per_call(100_000, |_| registry.counter("submitted").inc());
    report.put("serve.metrics.counter_lookup_inc_ns", ns, "ns");
    let hist = Histogram::default();
    let ns = ns_per_call(100_000, |i| hist.record(1e-6 * (1 + i % 1000) as f64));
    report.put("serve.metrics.histogram_record_ns", ns, "ns");
    let samples: Vec<f64> = (1..=BATCH).map(|i| 1e-6 * i as f64).collect();
    let ns = ns_per_call(2_000, |_| hist.record_many(&samples)) / samples.len() as f64;
    report.put("serve.metrics.record_many_ns_per_sample", ns, "ns");

    let ring = SharedRing::new(0, 1 << 16);
    let ns = ns_per_op(|| {
        let ns = time_ns(|| {
            for i in 0..(1u64 << 15) {
                ring.record(
                    0.0,
                    EventKind::Submit {
                        task: i,
                        class: ClassTag::NonInteractive,
                        cycles: 1_000_000,
                    },
                );
            }
        });
        black_box(ring.drain().len());
        (ns, 1 << 15)
    });
    report.put("trace.ring_record_ns", ns, "ns");
}

/// Bare executor: `push_task` every task, `run_to_completion` under
/// LMC. Returns tasks per second.
fn executor_rate(tasks: &[Task], params: CostParams) -> f64 {
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut exec = RealTimeExecutor::with_actuator(platform, ActuatorKind::Simulated);
    let t = Instant::now();
    for task in tasks {
        exec.push_task(task);
    }
    exec.run_to_completion(&mut policy);
    black_box(exec.round_report().makespan_s);
    tasks.len() as f64 / t.elapsed().as_secs_f64()
}

fn engines(report: &mut Report, seed: u64, params: CostParams) {
    let deep = inputs::as_replay_tasks(&inputs::deep_batch(seed, DEEP_TASKS));
    let judge = inputs::judge_trace(seed);
    let exec_deep = executor_rate(&deep, params);
    let exec_judge = executor_rate(&judge, params);
    report.put("serve.executor.run_tasks_per_s_deep", exec_deep, "1/s");
    report.put("serve.executor.run_tasks_per_s_judge", exec_judge, "1/s");
    let sim_rate = |tasks: &[Task]| tasks.len() as f64 / simulate(tasks, CORES, params).1;
    let sim_judge = sim_rate(&judge);
    report.put("sim.run_tasks_per_s_deep", sim_rate(&deep), "1/s");
    report.put("sim.run_tasks_per_s_judge", sim_judge, "1/s");
    report.put("sim.vs_executor_ratio", sim_judge / exec_judge, "ratio");

    let platform = service_platform(CORES);
    let t = Instant::now();
    black_box(schedule_wbg(&deep, &platform, params).num_tasks());
    report.put(
        "core.batch.wbg_tasks_per_s_n1e5",
        deep.len() as f64 / t.elapsed().as_secs_f64(),
        "1/s",
    );

    // What a drained round costs over the bare engine on the same
    // tasks: worker hop, barrier, merge, report.
    let bare_round_s = match report.get("wire.phase_trace_s") {
        Some(trace_s) if trace_s > 0.0 => judge.len() as f64 / exec_judge,
        _ => deep.len() as f64 / exec_deep,
    };
    let round_s = report.get("round_p50_s").unwrap_or(0.0);
    report.put(
        "serve.service.drain_overhead_ratio",
        round_s / bare_round_s,
        "ratio",
    );
}

fn lmc(report: &mut Report, seed: u64, params: CostParams) {
    let platform = service_platform(CORES);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cycles = move || rng.gen_range(1_000_000..=5_000_000u64);

    // Shallow: eight arrivals into a fresh policy (four dispatch, four
    // queue), many fresh policies a block. Building them is untimed.
    let ns = ns_per_op(|| {
        let mut fresh: Vec<_> = (0..500)
            .map(|_| {
                (
                    LeastMarginalCost::new(&platform, params),
                    NullExecutor::new(&platform),
                )
            })
            .collect();
        let arrivals: Vec<Task> = (0..8)
            .map(|i| task(i, cycles(), TaskClass::NonInteractive))
            .collect();
        let ns = time_ns(|| {
            for (policy, exec) in &mut fresh {
                for t in &arrivals {
                    policy.on_arrival(exec, t);
                }
            }
        });
        (ns, fresh.len() * arrivals.len())
    });
    report.put("core.lmc.on_arrival_ns_shallow", ns, "ns");

    // Deep: 10^5 queued, then time further arrivals. Interactive
    // arrivals go to the same loaded policy afterwards.
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut exec = NullExecutor::new(&platform);
    let mut next_id = 0u64;
    let mut arrive = |policy: &mut LeastMarginalCost, exec: &mut NullExecutor, class| {
        policy.on_arrival(exec, &task(next_id, cycles(), class));
        next_id += 1;
    };
    for _ in 0..DEEP_TASKS {
        arrive(&mut policy, &mut exec, TaskClass::NonInteractive);
    }
    let ns = ns_per_call(2_000, |_| {
        arrive(&mut policy, &mut exec, TaskClass::NonInteractive)
    });
    report.put("core.lmc.on_arrival_ns_deep", ns, "ns");
    let ns = ns_per_call(2_000, |_| {
        arrive(&mut policy, &mut exec, TaskClass::Interactive)
    });
    report.put("core.lmc.on_arrival_interactive_ns", ns, "ns");
}

/// Operations per ledger/tree block: enough to time, few enough that
/// the resident size stays at its nominal N.
const TREE_BLOCK: usize = 256;

/// Insert a block of fresh cycle counts into `target`, then remove
/// them again, each half timed as one block; medians over [`BLOCKS`]
/// repetitions as `(insert ns, remove ns)` per operation.
fn churn_ns<T, H>(
    target: &mut T,
    cycles: &mut impl FnMut() -> u64,
    insert: impl Fn(&mut T, u64) -> H,
    remove: impl Fn(&mut T, H),
) -> (f64, f64) {
    let mut remove_ns = Vec::with_capacity(BLOCKS);
    let insert_ns = ns_per_op(|| {
        let fresh: Vec<u64> = (0..TREE_BLOCK).map(|_| cycles()).collect();
        let mut handles = Vec::with_capacity(TREE_BLOCK);
        let ns = time_ns(|| handles.extend(fresh.iter().map(|&c| insert(target, c))));
        let removing = time_ns(|| handles.drain(..).for_each(|h| remove(target, h)));
        remove_ns.push(removing / TREE_BLOCK as f64);
        (ns, TREE_BLOCK)
    });
    (insert_ns, median(&remove_ns).unwrap_or(0.0))
}

fn ledger_and_tree(report: &mut Report, seed: u64, params: CostParams) {
    let table = RateTable::i7_950_table2();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cycles = move || rng.gen_range(1_000_000..=5_000_000_000u64);
    let mut insert_at = [0.0f64; 3];
    for (slot, (label, n)) in [("n1e3", 1_000usize), ("n1e4", 10_000), ("n1e5", 100_000)]
        .into_iter()
        .enumerate()
    {
        let mut ledger = CostLedger::new(&table, params);
        for _ in 0..n {
            ledger.insert(cycles());
        }
        let (insert_ns, remove_ns) =
            churn_ns(&mut ledger, &mut cycles, CostLedger::insert, |l, h| {
                black_box(l.remove(h));
            });
        insert_at[slot] = insert_ns;
        report.put(&format!("core.ledger.insert_ns_{label}"), insert_ns, "ns");
        report.put(&format!("core.ledger.remove_ns_{label}"), remove_ns, "ns");
        if n == 100_000 {
            let ns = ns_per_call(2_000, |_| {
                black_box(ledger.marginal_insert_cost(cycles()));
            });
            report.put("core.ledger.marginal_ns_n1e5", ns, "ns");
            let ns = ns_per_call(1_000_000, |_| {
                black_box(black_box(&ledger).total_cost());
            });
            report.put("core.ledger.total_cost_ns_n1e5", ns, "ns");
        }
    }
    report.put(
        "core.ledger.insert_growth_1e3_1e5",
        insert_at[2] / insert_at[0],
        "ratio",
    );

    let mut tree = CycleTree::with_seed(seed);
    let resident: Vec<_> = (0..100_000).map(|_| tree.insert(cycles())).collect();
    let (insert_ns, remove_ns) = churn_ns(&mut tree, &mut cycles, CycleTree::insert, |t, h| {
        black_box(t.remove(h));
    });
    report.put("ostree.insert_ns_n1e5", insert_ns, "ns");
    report.put("ostree.remove_ns_n1e5", remove_ns, "ns");
    let ns = ns_per_call(20_000, |i| {
        black_box(tree.rank(resident[i.wrapping_mul(7919) % resident.len()]));
    });
    report.put("ostree.rank_ns_n1e5", ns, "ns");
    let ns = ns_per_call(20_000, |i| {
        black_box(tree.prefix_xi(i.wrapping_mul(7919) % tree.len()));
    });
    report.put("ostree.prefix_ns_n1e5", ns, "ns");

    let ns = ns_per_call(2_000, |_| {
        black_box(DominatingRanges::compute(black_box(&table), params));
    });
    report.put("core.dominating.compute_ns", ns, "ns");
    let ranges = DominatingRanges::compute(&table, params);
    let ns = ns_per_call(1_000_000, |i| {
        black_box(ranges.rate_for(1 + (i as u64).wrapping_mul(7919) % 100_000));
    });
    report.put("core.dominating.rate_for_ns", ns, "ns");
}

/// `ping` round trips on an idle reactor server: the wire floor
/// (syscalls, epoll, encode) with no scheduler behind it.
fn ping(report: &mut Report, ctx: &Ctx) -> Result<(), String> {
    let (handle, sock) = start_server(ctx, "ping", NetBackend::Reactor, paced_reactor_config())?;
    let rtts = Client::connect(&sock).and_then(|mut client| {
        (0..2_000)
            .map(|_| {
                let t = Instant::now();
                client
                    .request("ping")
                    .map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<std::io::Result<Vec<f64>>>()
    });
    stop_server(handle);
    let rtts = rtts.map_err(|e| format!("ping: {e}"))?;
    report.put_n(
        "net.reactor.ping_rtt_p50_us",
        median(&rtts).unwrap_or(0.0),
        "us",
        rtts.len() as u64,
    );
    Ok(())
}

/// Measure every isolated layer and add the figures to the outcome's
/// report, then close the budget: what the listed layer costs leave
/// unexplained of the run's own CPU per task.
pub fn measure(ctx: &Ctx, outcome: &mut Outcome) -> Result<(), String> {
    let params = CostParams::online_paper();
    let report = &mut outcome.report;
    framing(report, &outcome.wire_sample);
    protocol(report, &outcome.items_sample);
    service(report, &outcome.items_sample);
    admission_and_metrics(report, &outcome.items_sample);
    engines(report, ctx.seed, params);
    lmc(report, ctx.seed, params);
    ledger_and_tree(report, ctx.seed, params);
    ping(report, ctx)?;

    let explained: f64 = [
        "net.framing.feed_ns_per_line",
        "serve.protocol.parse_submit_ns",
        "serve.service.submit_many_ns_per_item",
        "serve.protocol.encode_ack_ns",
        "core.lmc.on_arrival_ns_shallow",
    ]
    .iter()
    .filter_map(|name| report.get(name))
    .sum();
    let whole = report.get("cpu_us_per_task").unwrap_or(0.0) * 1e3;
    report.put("wire.residual_ns_per_submit", whole - explained, "ns");
    Ok(())
}
