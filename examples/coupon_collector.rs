//! The dispersion process as a generalized coupon collector.
//!
//! On the complete graph, Sequential-IDLA *is* the coupon-collector process
//! (Section 1 of the paper): each walk step draws a uniform "coupon"
//! (vertex) and a particle settles when it draws an uncollected one. The
//! dispersion time is the longest waiting time between consecutive coupons.
//!
//! This example checks the correspondence numerically and then shows how
//! the topology changes the answer: the same "collect everything" task on a
//! cycle costs Θ(n² log n) instead of Θ(n).
//!
//! ```text
//! cargo run --release --example coupon_collector
//! ```

use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::{complete, cycle};
use dispersion_sim::parallel::par_trials;
use dispersion_sim::stats::Summary;
use dispersion_sim::Xoshiro256pp;
use rand::RngExt;

/// Longest waiting time of a literal coupon-collector run with `n` coupons
/// and one pre-collected coupon (the settled origin).
fn coupon_collector_longest_wait(n: usize, rng: &mut Xoshiro256pp) -> u64 {
    let mut collected = vec![false; n];
    collected[0] = true;
    let mut remaining = n - 1;
    let mut longest = 0u64;
    let mut current = 0u64;
    while remaining > 0 {
        current += 1;
        let c = rng.random_range(0..n);
        if !collected[c] {
            collected[c] = true;
            remaining -= 1;
            longest = longest.max(current);
            current = 0;
        }
    }
    longest
}

fn main() {
    let n = 512;
    let trials = 300;
    let cfg = ProcessConfig::simple();

    // --- clique dispersion vs literal coupon collector ---
    let g = complete(n);
    let disp = par_trials(trials, 0, 11, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g, 0, &cfg, rng)
            .unwrap()
    });
    let cc = par_trials(trials, 0, 12, |_, rng| {
        coupon_collector_longest_wait(n, rng) as f64
    });
    let d = Summary::from_samples(&disp);
    let c = Summary::from_samples(&cc);
    println!("n = {n}, {trials} trials");
    println!(
        "clique dispersion time  : mean {:8.1} ± {:.1}",
        d.mean,
        1.96 * d.sem
    );
    println!(
        "coupon longest wait     : mean {:8.1} ± {:.1}",
        c.mean,
        1.96 * c.sem
    );
    println!(
        "ratio                   : {:.3}  (should be ≈ 1 up to the clique's",
        d.mean / c.mean
    );
    println!("                          n/(n-1) no-self-jump correction)\n");

    // --- topology matters: the cycle collector ---
    let small = 64; // cycles are Θ(n² log n); keep it tame
    let gc = cycle(small);
    let cyc = par_trials(trials, 0, 13, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&gc, 0, &cfg, rng)
            .unwrap()
    });
    let gk = complete(small);
    let clq = par_trials(trials, 0, 14, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&gk, 0, &cfg, rng)
            .unwrap()
    });
    let sc = Summary::from_samples(&cyc);
    let sk = Summary::from_samples(&clq);
    println!("same task, n = {small}:");
    println!("  on the clique : {:8.1} steps  (Θ(n))", sk.mean);
    println!("  on the cycle  : {:8.1} steps  (Θ(n² log n))", sc.mean);
    println!("  slowdown      : {:.1}×", sc.mean / sk.mean);
}
