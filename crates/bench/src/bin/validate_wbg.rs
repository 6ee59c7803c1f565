//! Empirical optimality validation of Workload Based Greedy at scale.
//!
//! Theorems 4–5 are verified against exhaustive search for tiny
//! instances in the unit tests; here a randomized hill-climber attacks
//! WBG plans for hundreds of tasks on a heterogeneous platform, across
//! many seeds in parallel. Finding even one improving move would
//! falsify the optimality claim (or our implementation).
//!
//! Usage: `validate_wbg [n_instances] [tasks_per_instance] [moves]`

use dvfs_core::batch::predict_plan_cost;
use dvfs_core::schedule_wbg;
use dvfs_core::validate::{local_search, random_plan};
use dvfs_model::task::batch_workload;
use dvfs_model::{CostParams, Platform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_instances: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let n_tasks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let moves: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let params = CostParams::batch_paper();

    let results: Vec<(u64, usize, f64, f64)> = dvfs_bench::par_map_seeds(n_instances, |seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cycles: Vec<u64> = (0..n_tasks)
            .map(|_| rng.gen_range(1..50_000_000_000))
            .collect();
        let tasks = batch_workload(&cycles);
        let platform = Platform::big_little(2, 2);
        let wbg = schedule_wbg(&tasks, &platform, params);
        let wbg_cost = predict_plan_cost(&wbg, &tasks, &platform, params);
        // Attack from WBG itself.
        let from_wbg = local_search(&wbg, &tasks, &platform, params, moves, seed + 1000);
        // And independently from a random start.
        let start = random_plan(&tasks, &platform, seed + 2000);
        let from_rand = local_search(&start, &tasks, &platform, params, moves, seed + 3000);
        (seed, from_wbg.improvements, wbg_cost, from_rand.cost)
    });

    println!(
        "WBG optimality attack: {n_instances} instances × {n_tasks} tasks × {moves} moves each\n"
    );
    println!(
        "{:>6} {:>18} {:>16} {:>20}",
        "seed", "improving moves", "WBG cost", "random-start best"
    );
    let mut falsified = 0;
    for (seed, improvements, wbg_cost, rand_best) in &results {
        println!(
            "{:>6} {:>18} {:>16.2} {:>19.2} ({:+.2}%)",
            seed,
            improvements,
            wbg_cost,
            rand_best,
            (rand_best / wbg_cost - 1.0) * 100.0
        );
        if *improvements > 0 || *rand_best < wbg_cost * (1.0 - 1e-9) {
            falsified += 1;
        }
    }
    println!(
        "\n{} of {} instances falsified WBG optimality (expected: 0).",
        falsified, n_instances
    );
    std::process::exit(i32::from(falsified > 0));
}
