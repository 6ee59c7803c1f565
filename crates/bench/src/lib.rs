//! # dvfs-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Section V), shared by the `table1`/`table2`/`fig1`/
//! `fig2`/`fig3`/`experiments` binaries and the integration tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod format;

pub use experiments::{run_fig1, run_fig2, run_fig3, CostRow, Fig1Result, Fig2Result, Fig3Result};

/// Run `f(seed)` for every seed in `0..n` on all available cores and
/// return the results in seed order. Seeds are dealt to threads in
/// contiguous chunks (no work stealing — the sweeps this backs are
/// embarrassingly parallel and evenly sized).
pub fn par_map_seeds<R: Send>(n: u64, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let chunk = n.div_ceil(threads as u64).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(chunk as usize)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + chunk)).map(f).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("seed-sweep worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn par_map_seeds_keeps_seed_order() {
        for n in [0, 1, 7, 1000] {
            let want: Vec<u64> = (0..n).map(|s| s * 2).collect();
            assert_eq!(super::par_map_seeds(n, |s| s * 2), want, "n = {n}");
        }
    }
}
