//! The books: every submit ends in exactly one terminal state —
//! admitted (then completed), shed, or rejected — written here alone,
//! the total and the shard's share in one call, under the registry
//! names `stats`, `health` and sysbench read. A by-name write past this
//! type still compiles, but counts a state twice, which
//! `Scheduler::books_balanced()` after a drain catches.

use crate::admission::ShedReason;
use crate::metrics::{shard_metric, Counter, Registry};
use crate::protocol::field_u64;
use serde_json::Value;
use std::sync::Arc;

/// Why a submit was refused before any queue saw it; indexes `rejected`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rejected {
    Invalid,
    DuplicateId,
    ShuttingDown,
}

/// The books counters of a scheduler: the totals, then each shard's
/// `[admitted, shed, completed]`.
pub(crate) struct Books {
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    shed_worker_behind: Arc<Counter>,
    rejected: [Arc<Counter>; 3],
    shards: Vec<[Arc<Counter>; 3]>,
}

impl Books {
    /// Resolve every counter of `shards` shards, at zero from the start.
    pub(crate) fn new(metrics: &Registry, shards: usize) -> Books {
        let of_shard =
            |k| ["admitted", "shed", "completed"].map(|n| metrics.counter(&shard_metric(n, k)));
        Books {
            submitted: metrics.counter("submitted"),
            admitted: metrics.counter("admitted"),
            completed: metrics.counter("completed"),
            shed: metrics.counter("shed"),
            shed_worker_behind: metrics.counter("shed_worker_behind"),
            rejected: [
                "rejected_invalid",
                "rejected_duplicate_id",
                "rejected_shutting_down",
            ]
            .map(|name| metrics.counter(name)),
            shards: (0..shards).map(of_shard).collect(),
        }
    }

    /// A submit entered `shard`'s admission queue.
    pub(crate) fn admit(&self, shard: usize) {
        self.submitted.inc();
        self.admitted.inc();
        self.shards[shard][0].inc();
    }

    /// A submit routed to `shard` was shed for `reason`.
    pub(crate) fn shed(&self, shard: usize, reason: ShedReason) {
        self.submitted.inc();
        self.shed.inc();
        if reason == ShedReason::WorkerBehind {
            self.shed_worker_behind.inc();
        }
        self.shards[shard][1].inc();
    }

    /// A submit was rejected before any queue saw it.
    pub(crate) fn reject(&self, why: Rejected) {
        self.submitted.inc();
        self.rejected[why as usize].inc();
    }

    /// `shard`'s engine completed `n` admitted tasks.
    pub(crate) fn complete(&self, shard: usize, n: u64) {
        self.completed.add(n);
        self.shards[shard][2].add(n);
    }

    fn in_flight(&self) -> u64 {
        self.admitted.get().saturating_sub(self.completed.get())
    }

    /// The identity: nothing is in flight, and every submit ended in
    /// exactly one terminal state — completed, shed, or rejected
    /// (invalid, duplicate id, shutting down). Holds after every drain
    /// that no submit races.
    pub(crate) fn balanced(&self) -> bool {
        let rejected: u64 = self.rejected.iter().map(|c| c.get()).sum();
        self.in_flight() == 0
            && self.submitted.get() == self.completed.get() + self.shed.get() + rejected
    }

    /// The `books` object of `stats` and `health`: each counter, what is
    /// in flight, and [`Books::balanced`] as 0 or 1.
    pub(crate) fn to_value(&self) -> Value {
        let [invalid, duplicate_id, shutting_down] = &self.rejected;
        Value::Object(vec![
            field_u64("submitted", self.submitted.get()),
            field_u64("admitted", self.admitted.get()),
            field_u64("completed", self.completed.get()),
            field_u64("shed", self.shed.get()),
            field_u64("shed_worker_behind", self.shed_worker_behind.get()),
            field_u64("rejected_invalid", invalid.get()),
            field_u64("rejected_duplicate_id", duplicate_id.get()),
            field_u64("rejected_shutting_down", shutting_down.get()),
            field_u64("in_flight", self.in_flight()),
            field_u64("balanced", u64::from(self.balanced())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::value_u64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What a sequence of terminal calls should have written, kept by
    /// hand beside the books.
    #[derive(Default)]
    struct Model {
        admitted: Vec<u64>,
        shed: Vec<u64>,
        completed: Vec<u64>,
        behind: u64,
        rejected: [u64; 3],
    }

    impl Model {
        fn sum(v: &[u64]) -> u64 {
            v.iter().sum()
        }

        fn submitted(&self) -> u64 {
            Self::sum(&self.admitted) + Self::sum(&self.shed) + self.rejected.iter().sum::<u64>()
        }
    }

    const GLOBALS: [&str; 3] = ["admitted", "shed", "completed"];

    /// Random terminal calls over 1–4 shards: after every call the
    /// per-shard counters sum to the globals, the globals are the
    /// model's, and `balanced()` holds exactly when every admitted task
    /// has completed.
    #[test]
    fn balanced_exactly_when_every_admitted_task_completed() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = rng.gen_range(1..=4usize);
            let metrics = Registry::new();
            let books = Books::new(&metrics, shards);
            let mut m = Model {
                admitted: vec![0; shards],
                shed: vec![0; shards],
                completed: vec![0; shards],
                ..Model::default()
            };
            assert!(books.balanced(), "fresh books balance");
            for step in 0..400 {
                let k = rng.gen_range(0..shards);
                match rng.gen_range(0..5u32) {
                    0 | 1 => {
                        books.admit(k);
                        m.admitted[k] += 1;
                    }
                    2 => {
                        let (reason, behind) = if rng.gen_bool(0.5) {
                            (ShedReason::WorkerBehind, 1)
                        } else {
                            (ShedReason::QueueFull { depth: 1, cap: 1 }, 0)
                        };
                        books.shed(k, reason);
                        m.shed[k] += 1;
                        m.behind += behind;
                    }
                    3 => {
                        let i = rng.gen_range(0..3usize);
                        let why = [
                            Rejected::Invalid,
                            Rejected::DuplicateId,
                            Rejected::ShuttingDown,
                        ];
                        books.reject(why[i]);
                        m.rejected[i] += 1;
                    }
                    _ => {
                        // Complete some of what the shard has in flight.
                        let open = m.admitted[k] - m.completed[k];
                        let n = rng.gen_range(0..=open);
                        books.complete(k, n);
                        m.completed[k] += n;
                    }
                }
                let counter = |name: &str| metrics.counter(name).get();
                for (name, per_shard) in GLOBALS.iter().zip([&m.admitted, &m.shed, &m.completed]) {
                    let sum: u64 = (0..shards).map(|k| counter(&shard_metric(name, k))).sum();
                    assert_eq!(sum, counter(name), "seed {seed} step {step}: {name}");
                    assert_eq!(counter(name), Model::sum(per_shard), "seed {seed}: {name}");
                }
                assert_eq!(counter("submitted"), m.submitted(), "seed {seed}");
                assert_eq!(counter("shed_worker_behind"), m.behind, "seed {seed}");
                let all_done = Model::sum(&m.admitted) == Model::sum(&m.completed);
                assert_eq!(books.balanced(), all_done, "seed {seed} step {step}");
            }
        }
    }

    /// The `books` object: today's keys, in today's order, each the
    /// counter of its name, then `in_flight` and `balanced`.
    #[test]
    fn the_books_object_keeps_its_keys_and_values() {
        let metrics = Registry::new();
        let books = Books::new(&metrics, 2);
        books.admit(0);
        books.admit(1);
        books.admit(1);
        books.shed(0, ShedReason::WorkerBehind);
        books.shed(1, ShedReason::QueueFull { depth: 4, cap: 4 });
        books.reject(Rejected::Invalid);
        books.reject(Rejected::DuplicateId);
        books.reject(Rejected::DuplicateId);
        books.reject(Rejected::ShuttingDown);
        books.complete(1, 2);
        let Value::Object(fields) = books.to_value() else {
            panic!("books is an object");
        };
        let got: Vec<(&str, u64)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), value_u64(v).expect("an integer")))
            .collect();
        let want = [
            ("submitted", 9),
            ("admitted", 3),
            ("completed", 2),
            ("shed", 2),
            ("shed_worker_behind", 1),
            ("rejected_invalid", 1),
            ("rejected_duplicate_id", 2),
            ("rejected_shutting_down", 1),
            ("in_flight", 1),
            ("balanced", 0),
        ];
        assert_eq!(got, want);
        for (name, value) in &want[..8] {
            assert_eq!(metrics.counter(name).get(), *value, "{name}");
        }
        books.complete(0, 1);
        assert!(books.balanced());
        assert_eq!(
            books.to_value().get("balanced").and_then(value_u64),
            Some(1)
        );
    }
}
