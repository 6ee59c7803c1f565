//! # dvfs-bench
//!
//! The experiment harness: one function per artifact of the paper's
//! evaluation (Section V) and of the sweeps and extensions around it,
//! each writing the text of one `results/` file. The `experiments`
//! binary holds the table that names those files and writes them all.
//! [`smoke`] reads the CI smokes' committed baselines and records their
//! runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod experiments;
pub mod format;
pub mod online;
pub mod paper;
pub mod smoke;

/// What an artifact function returns once its text is written: an error
/// when the experiment's own check fails (only `validate_wbg` has one)
/// or the text could not be formatted.
pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// An artifact: writes the text of one `results/` file into the string.
pub type Artifact = fn(&mut String) -> Outcome;

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
