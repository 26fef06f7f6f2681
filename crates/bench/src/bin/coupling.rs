//! E10: empirical verification of the coupling results of Section 4 —
//! Theorem 4.1 (`τ_seq ⪯ τ_par`, total steps equidistributed), Theorem 4.2
//! (the `O(log n)` reverse gap), and the Cut & Paste bijection at scale.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin coupling -- [--trials 400]
//! ```

use dispersion_bench::Options;
use dispersion_core::block::validate::{is_parallel_block, is_sequential_block};
use dispersion_core::block::{parallel_to_sequential, sequential_to_parallel};
use dispersion_core::engine::observer::TrajectoryBlock;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::{Graph, Vertex};
use dispersion_sim::dominance::{dominance_violation, ks_p_value};
use dispersion_sim::parallel::par_trials;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env().reject_positional().reject_resume();
    let n = opts.sizes_or(&[128])[0];
    let cfg = ProcessConfig::simple();
    let families = [
        Family::Complete,
        Family::Cycle,
        Family::Hypercube,
        Family::BinaryTree,
    ];
    // per-trial dispersion times and total walk steps of one process
    let times = |g: &Graph, origin: Vertex, p: Process, seed: u64| -> Vec<f64> {
        par_trials(opts.trials, opts.threads, seed, |_, rng| {
            p.try_dispersion_time(g, origin, &cfg, rng).unwrap()
        })
    };
    let total_steps = |g: &Graph, origin: Vertex, p: Process, seed: u64| -> Vec<f64> {
        par_trials(opts.trials, opts.threads, seed, |_, rng| {
            let out = p.run_observed(g, origin, &cfg, &mut (), rng).unwrap();
            out.total_steps as f64
        })
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;

    println!(
        "# Section 4 coupling checks (n ≈ {n}, trials = {})\n",
        opts.trials
    );
    println!("## Theorem 4.1: τ_seq ⪯ τ_par and total steps equidistributed");
    let mut t = TextTable::new([
        "family",
        "E[τ_seq]",
        "E[τ_par]",
        "par/seq",
        "dom.violation",
        "KS p(total)",
    ]);
    for (k, family) in families.iter().enumerate() {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, k as u64));
        let inst = family.instance(n, &mut grng);
        let g = &inst.graph;
        let s0 = opts.seed + 100 * k as u64;
        let seq = times(g, inst.origin, Process::Sequential, s0);
        let par = times(g, inst.origin, Process::Parallel, s0 + 1);
        let ts = total_steps(g, inst.origin, Process::Sequential, s0 + 2);
        let tp = total_steps(g, inst.origin, Process::Parallel, s0 + 3);
        t.push_row([
            inst.label.to_string(),
            fmt_f(mean(&seq)),
            fmt_f(mean(&par)),
            fmt_f(mean(&par) / mean(&seq)),
            fmt_f(dominance_violation(&seq, &par)),
            fmt_f(ks_p_value(&ts, &tp)),
        ]);
    }
    print!("{}", opts.render(&t));
    println!(
        "\n(dominance violation ≈ 0 supports τ_seq ⪯ τ_par; KS p ≫ 0 supports equidistribution)"
    );

    println!("\n## Theorem 4.2: E[τ_par] ≤ O(log n · E[τ_seq]) — ratio vs log n");
    let mut t2 = TextTable::new(["family", "n", "par/seq", "ln n", "ratio/ln n"]);
    for (k, family) in families.iter().enumerate() {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x100 + k as u64));
        let inst = family.instance(n, &mut grng);
        let s0 = opts.seed + 500 * (k as u64 + 1);
        let seq = times(&inst.graph, inst.origin, Process::Sequential, s0);
        let par = times(&inst.graph, inst.origin, Process::Parallel, s0 + 1);
        let ratio = mean(&par) / mean(&seq);
        let nn = inst.graph.n() as f64;
        t2.push_row([
            inst.label.to_string(),
            inst.graph.n().to_string(),
            fmt_f(ratio),
            fmt_f(nn.ln()),
            fmt_f(ratio / nn.ln()),
        ]);
    }
    print!("{}", opts.render(&t2));

    println!("\n## Cut & Paste bijection spot checks (StP/PtS round trips)");
    let mut ok = 0usize;
    let reps = 50usize;
    for r in 0..reps {
        let mut rng = Xoshiro256pp::new(trial_seed(opts.seed, 0x200 + r as u64));
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x300 + r as u64));
        let family = families[r % families.len()];
        let inst = family.instance(64, &mut grng);
        let mut block = |p: Process| {
            let mut traj = TrajectoryBlock::new();
            p.run_observed(&inst.graph, inst.origin, &cfg, &mut traj, &mut rng)
                .unwrap();
            traj.into_block()
        };
        let sb = block(Process::Sequential);
        let pb = block(Process::Parallel);
        let stp = sequential_to_parallel(&sb);
        let pts = parallel_to_sequential(&pb);
        let round1 = parallel_to_sequential(&stp) == sb;
        let round2 = sequential_to_parallel(&pts) == pb;
        let valid = is_parallel_block(&stp) && is_sequential_block(&pts);
        let lengths =
            stp.total_length() == sb.total_length() && pts.total_length() == pb.total_length();
        let lemma46 = stp.max_row_length() >= sb.max_row_length();
        if round1 && round2 && valid && lengths && lemma46 {
            ok += 1;
        }
    }
    println!("{ok}/{reps} realizations passed bijection + Lemma 4.6 checks");
}
