//! Quickstart: run every dispersion-process variant on a small graph and
//! print what the paper's Table 1 predicts for it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dispersion_bounds::constants::{kappa_cc_default, PI2_OVER_6};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::generators::complete;
use dispersion_sim::sink::MemorySink;
use dispersion_sim::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure, Runner, Xoshiro256pp};

fn main() {
    let n = 256;
    let g = complete(n);
    let origin = 0;
    let cfg = ProcessConfig::simple();
    let mut rng = Xoshiro256pp::new(2024);

    println!("Dispersion processes on K_{n} from vertex {origin}\n");

    // --- one realization of each process ---
    let mut run = |p: Process| p.run_observed(&g, origin, &cfg, &mut (), &mut rng).unwrap();
    let seq = run(Process::Sequential);
    println!(
        "Sequential-IDLA : dispersion {:5} steps, total {:6} steps",
        seq.dispersion_time(),
        seq.total_steps
    );
    let par = run(Process::Parallel);
    println!(
        "Parallel-IDLA   : dispersion {:5} rounds, total {:6} steps",
        par.dispersion_time(),
        par.total_steps
    );
    let unif = run(Process::Uniform);
    println!(
        "Uniform-IDLA    : settled after {:5} ticks ({} jumps)",
        unif.settle_tick, unif.total_steps
    );
    let ctu = run(Process::Ctu);
    println!("CTU-IDLA        : settled at real time {:8.1}", ctu.time);

    // --- Monte-Carlo estimates against the paper's Theorem 5.2 ---
    println!("\nMonte-Carlo means over 200 trials (Theorem 5.2 predictions):");
    let cell = |p: Process, seed: u64| {
        CellSpec::new(
            FamilySpec::explicit(Family::Complete, n),
            Measure::Dispersion(p),
        )
        .budget(Budget::Trials(200))
        .master_seed(seed)
    };
    let spec = ExperimentSpec::new(0)
        .cell(cell(Process::Sequential, 7))
        .cell(cell(Process::Parallel, 8));
    let records = Runner::new(1).run(&spec, &[], &mut MemorySink::default());
    let (s, p) = (records[0].mean("time"), records[1].mean("time"));
    println!(
        "  t_seq/n = {:.3}   (paper: κ_cc  = {:.3})",
        s / n as f64,
        kappa_cc_default()
    );
    println!(
        "  t_par/n = {:.3}   (paper: π²/6 = {:.3})",
        p / n as f64,
        PI2_OVER_6
    );
    println!("\nThe parallel scheduler is ≈31% slower on the clique — scheduling matters!");
}
