//! Trace-overhead smoke test (CI runs it with `-- --ignored`): replay
//! the LMC arrival path against the null executor twice — tracing
//! disabled vs. a live ring sink — and bound the slowdown. The point is
//! not a tight benchmark (that is sysbench's `core.lmc.*` rows); it is a
//! regression tripwire that recording provenance into the ring stays
//! within the same order of magnitude as not tracing at all, i.e. the
//! record path never grows an allocation or a syscall.

use dvfs_core::sched::{ExecutorView, Scheduler};
use dvfs_core::LeastMarginalCost;
use dvfs_model::{CoreId, CostParams, Platform, RateIdx, RateTable, TaskId};
use dvfs_trace::{SharedRing, TraceSink};
use dvfs_workloads::JudgeTraceConfig;

/// A minimal `ExecutorView` (the same as sysbench's): occupancy state
/// only, so the measurement isolates the policy plus (here) the sink.
struct NullExecutor {
    table: RateTable,
    running: Vec<Option<TaskId>>,
    rates: Vec<RateIdx>,
    max_rate: RateIdx,
    sink: Option<SharedRing>,
}

impl NullExecutor {
    fn new(platform: &Platform, sink: Option<SharedRing>) -> Self {
        let table = platform.cores()[0].rates.clone();
        let max_rate = table.max_rate();
        NullExecutor {
            table,
            running: vec![None; platform.cores().len()],
            rates: vec![0; platform.cores().len()],
            max_rate,
            sink,
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
        self.max_rate
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
        assert!(rate <= self.max_rate, "rate above cap");
        self.rates[j] = rate;
    }
    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>) {
        assert!(self.running[j].is_none(), "dispatch to busy core");
        if let Some(r) = rate {
            self.set_rate(j, r);
        }
        self.running[j] = Some(task);
    }
    fn preempt(&mut self, j: CoreId) -> TaskId {
        self.running[j].take().expect("preempt of idle core")
    }
    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.sink.as_mut().map(|s| s as &mut dyn TraceSink)
    }
}

/// Feed every task to `on_arrival` and return elapsed seconds.
fn replay(platform: &Platform, params: CostParams, sink: Option<SharedRing>) -> f64 {
    let mut cfg = JudgeTraceConfig::paper_heavy(1);
    cfg.non_interactive = (cfg.non_interactive / 8).max(1);
    cfg.interactive = (cfg.interactive / 8).max(1);
    let trace = cfg.generate();
    let mut policy = LeastMarginalCost::new(platform, params);
    let mut exec = NullExecutor::new(platform, sink);
    let started = std::time::Instant::now();
    let view: &mut dyn ExecutorView = &mut exec;
    for task in &trace {
        policy.on_arrival(view, task);
    }
    let dt = started.elapsed().as_secs_f64();
    assert!(
        exec.running.iter().any(|r| r.is_some()),
        "policy dispatched nothing"
    );
    dt
}

#[test]
#[ignore = "timing smoke test; CI invokes it explicitly with --ignored"]
fn ring_sink_overhead_stays_within_an_order_of_magnitude() {
    let platform = Platform::i7_950_quad();
    let params = CostParams::online_paper();

    // Warm-up, then best-of-three each way to shrug off scheduler noise.
    replay(&platform, params, None);
    let base = (0..3)
        .map(|_| replay(&platform, params, None))
        .fold(f64::INFINITY, f64::min);
    let ring = SharedRing::new(0, 1 << 16);
    let traced = (0..3)
        .map(|_| replay(&platform, params, Some(ring.clone())))
        .fold(f64::INFINITY, f64::min);

    let events = ring.drain();
    assert!(
        !events.is_empty(),
        "the traced replay must have recorded provenance events"
    );

    // Generous bound: the ring push is a mutex lock + an enum copy, so
    // even on a noisy CI box an order of magnitude covers it; a missed
    // bound here means the record path started allocating or formatting.
    let budget = base * 10.0 + 0.05;
    assert!(
        traced <= budget,
        "tracing overhead too high: base {base:.6}s, traced {traced:.6}s ({} events)",
        events.len()
    );
}
