//! Trial-level parallel Monte-Carlo executor.
//!
//! Dispersion processes are inherently sequential state machines, so the
//! parallelism lever is the *trial* axis: `par_trials` fans `trials`
//! independent runs across threads, rayon-style, with work distributed by an
//! atomic counter so threads self-balance across trials of uneven length.
//! Per-trial seeds derive deterministically from one master seed: results
//! are bit-reproducible regardless of thread count or interleaving.
//!
//! Results are accumulated in per-thread buffers tagged with the trial
//! index and merged once at the end — no per-trial locks anywhere on the
//! hot path.

use crate::rng::{trial_seed, Xoshiro256pp};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default (available parallelism, at
/// least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `trials` independent trials of `f` across `threads` workers and
/// returns the results in trial order.
///
/// `f` receives the trial index and a freshly seeded RNG; the seed of trial
/// `i` is `trial_seed(master_seed, i)` regardless of scheduling, so the
/// output is deterministic in `master_seed`.
pub fn par_trials<T, F>(trials: usize, threads: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256pp) -> T + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    let run_one = |i: usize| {
        let mut rng = Xoshiro256pp::new(trial_seed(master_seed, i as u64));
        f(i, &mut rng)
    };
    if threads == 1 {
        return (0..trials).map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // local (index, result) buffer: threads never contend
                    // past the work counter
                    let mut local = Vec::with_capacity(trials / threads + 1);
                    loop {
                        // ORDERING: Relaxed — the counter only hands out
                        // unique indices; results are ordered by slot index
                        // at the join, not by claim order
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trials {
                            break;
                        }
                        local.push((i, run_one(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    // single-pass merge back into trial order
    let mut out: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    for buf in buffers {
        for (i, v) in buf {
            debug_assert!(out[i].is_none(), "trial {i} produced twice");
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|o| o.expect("trial result missing"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn results_in_trial_order() {
        let out = par_trials(64, 4, 1, |i, _| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let one = par_trials(40, 1, 99, |_, rng| rng.random::<u64>());
        let many = par_trials(40, 8, 99, |_, rng| rng.random::<u64>());
        assert_eq!(one, many);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = par_trials(10, 2, 1, |_, rng| rng.random::<u64>());
        let b = par_trials(10, 2, 2, |_, rng| rng.random::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u64> = par_trials(0, 4, 1, |_, rng| rng.random::<u64>());
        assert!(out.is_empty());
    }

    #[test]
    fn single_trial_single_thread() {
        let out = par_trials(1, 16, 5, |i, _| i);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn trials_see_distinct_seeds() {
        let out = par_trials(100, 4, 7, |_, rng| rng.random::<u64>());
        let mut distinct = out.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), out.len());
    }

    #[test]
    fn uneven_trial_lengths_balance() {
        // trials of wildly different cost still come back complete and
        // ordered (self-balancing dispatch)
        let out = par_trials(33, 4, 3, |i, _| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..33).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = par_trials(8, 4, 1, |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
