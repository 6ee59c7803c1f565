//! E-A1: the Section IV-A complexity claims.
//!
//! * insertion/deletion in `O(|P̂| + log N)` — measured against queue
//!   length N;
//! * Θ(1) total-cost retrieval — the maintained value against the
//!   `O(|P̂| log N)` query-based recomputation and the `O(N)` naive walk
//!   (the ablation of the paper's data-structure contribution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvfs_core::CostLedger;
use dvfs_model::{CostParams, RateTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn filled_ledger(n: usize) -> CostLedger {
    let mut l = CostLedger::new(&RateTable::i7_950_table2(), CostParams::batch_paper());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..n {
        l.insert(rng.gen_range(1..10_000_000_000));
    }
    l
}

fn bench_insert_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger_insert_delete");
    group.sample_size(20);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut l = filled_ledger(n);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            b.iter(|| {
                let h = l.insert(black_box(rng.gen_range(1..10_000_000_000)));
                black_box(l.total_cost());
                l.remove(h);
            });
        });
    }
    group.finish();
}

fn bench_cost_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_cost_retrieval");
    for n in [1_000usize, 10_000, 100_000] {
        let l = filled_ledger(n);
        group.bench_with_input(BenchmarkId::new("maintained_O1", n), &l, |b, l| {
            b.iter(|| black_box(l.total_cost()));
        });
        group.bench_with_input(BenchmarkId::new("queries_OlogN", n), &l, |b, l| {
            b.iter(|| black_box(l.recompute_via_queries()));
        });
        group.bench_with_input(BenchmarkId::new("naive_ON", n), &l, |b, l| {
            b.iter(|| black_box(l.naive_cost()));
        });
    }
    group.finish();
}

fn bench_marginal_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("lmc_marginal_cost_probe");
    for n in [100usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let l = filled_ledger(n);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            b.iter(|| black_box(l.marginal_insert_cost(rng.gen_range(1..10_000_000_000))));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_delete,
    bench_cost_paths,
    bench_marginal_cost
);
criterion_main!(benches);
