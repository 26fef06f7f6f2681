//! Workload inputs, generated from the run seed as spec JSON.
//!
//! Every workload reaches the program through the wire form of a spec
//! (`spec_json::spec_from_json`), the surface the job server and any
//! future CLI share. The seed picks master seeds, graph seeds and the
//! order of submissions; the *shape* of the work (families, sizes,
//! budgets) is fixed per workload so that two seeds ask for the same
//! amount of work and their timings are comparable.

use dispersion_sim::rng::{splitmix64, Xoshiro256pp};
use rand::RngExt;

/// A stream of derived seeds: each call is one SplitMix64 step.
pub struct Seeds(u64);

impl Seeds {
    /// Seeds derived from the run seed and a per-purpose tag, so that
    /// adding a purpose never shifts the seeds of another.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s);
        Seeds(s)
    }

    /// The next derived seed.
    pub fn draw(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// A generator for seeded choices (submission order and the like).
    pub fn rng(&mut self) -> Xoshiro256pp {
        Xoshiro256pp::new(splitmix64(&mut self.0))
    }
}

/// Budget of one generated cell.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// A fixed trial count.
    Trials(u64),
    /// The adaptive `ci:` budget: relative half-width, min and max trials.
    Ci(f64, u64, u64),
}

/// One generated cell, rendered to the spec wire form by [`cell_json`].
#[derive(Clone, Debug)]
pub struct Cell {
    /// Family label as the wire form spells it.
    pub family: &'static str,
    /// Requested vertex count.
    pub size: u64,
    /// Whether to ask for the implicit backend.
    pub implicit: bool,
    /// Measure label.
    pub measure: &'static str,
    /// Trial budget.
    pub budget: Budget,
    /// Master seed of the cell's trial streams.
    pub master_seed: u64,
    /// Graph seed (random families only read it).
    pub graph_seed: u64,
    /// Extra wire fields, already formatted (`"step_cap":…`).
    pub extra: String,
}

/// The spec wire form of one cell.
pub fn cell_json(c: &Cell) -> String {
    let degree = if c.family == "expander" {
        ",\"degree\":4"
    } else {
        ""
    };
    let budget = match c.budget {
        Budget::Trials(t) => format!("{{\"trials\":{t}}}"),
        Budget::Ci(rel, lo, hi) => {
            format!("{{\"rel\":{rel},\"min_trials\":{lo},\"max_trials\":{hi}}}")
        }
    };
    let extra = if c.extra.is_empty() {
        String::new()
    } else {
        format!(",{}", c.extra)
    };
    format!(
        "{{\"family\":\"{}\"{degree},\"size\":{},\"backend\":\"{}\",\"graph_seed\":{},\
         \"measure\":\"{}\",\"budget\":{budget},\"master_seed\":{}{extra}}}",
        c.family,
        c.size,
        if c.implicit { "implicit" } else { "explicit" },
        c.graph_seed,
        c.measure,
        c.master_seed,
    )
}

/// A whole spec in wire form. Seeds stay below 2^53 so every reader of
/// the JSON number keeps them exact.
pub fn spec_json(seed: u64, cells: &[Cell]) -> String {
    let cells: Vec<String> = cells.iter().map(cell_json).collect();
    format!(
        "{{\"seed\":{},\"cells\":[{}]}}",
        seed >> 11,
        cells.join(",")
    )
}

fn cell(seeds: &mut Seeds, family: &'static str, size: u64, implicit: bool) -> Cell {
    Cell {
        family,
        size,
        implicit,
        measure: "par",
        budget: Budget::Trials(1),
        master_seed: seeds.draw() >> 11,
        graph_seed: seeds.draw() >> 11,
        extra: String::new(),
    }
}

/// Side of the torus the layer probes fill: n = 200² = 40 000, the
/// lower end of the Open Problem 1 sweep (~3·10⁸ walker steps a fill).
pub const FILL_SIDE: u64 = 200;

/// The Table 1 families at n ≈ 128–1024, with the per-family size that
/// keeps every cell in the same few-millisecond band (the cycle's
/// Θ(n³)-step fill is why it sits at 128). The first cells are torus
/// cells of a few milliseconds rather than the clique, whose explicit
/// CSR build makes the first record's time swing with page faults.
const TABLE1: [(&str, u64, bool); 7] = [
    ("grid2d", 1024, true),
    ("hypercube", 1024, true),
    ("clique", 1024, true),
    ("cycle", 128, true),
    ("grid3d", 1000, false),
    ("btree", 1023, false),
    ("expander", 1024, false),
];

/// `table1_sweep`: every Table 1 family × {seq, par, unif, ctu}. Families
/// with a closed form run implicit under par/unif and explicit CSR under
/// seq/ctu; the seq column uses the adaptive `ci:` budget, the others a
/// fixed one. `scale` divides sizes for the smoke test.
pub fn table1_job(seed: u64, scale: u64) -> String {
    let mut seeds = Seeds::new(seed, 2);
    let mut cells = Vec::new();
    for (family, size, has_implicit) in TABLE1 {
        for measure in ["seq", "par", "unif", "ctu"] {
            let implicit = has_implicit && matches!(measure, "par" | "unif");
            let budget = if measure == "seq" {
                Budget::Ci(0.05, 16, 48)
            } else {
                Budget::Trials(16)
            };
            cells.push(Cell {
                measure,
                budget,
                ..cell(&mut seeds, family, (size / scale).max(16), implicit)
            });
        }
    }
    spec_json(seeds.draw(), &cells)
}

/// The fixed warm-up job every set-up runs once: small enough to cost
/// tens of milliseconds, broad enough to touch explicit and implicit
/// backends and two schedules.
pub fn warmup_job() -> String {
    let mut seeds = Seeds::new(0, 3);
    let cells = [
        Cell {
            measure: "seq",
            budget: Budget::Trials(16),
            ..cell(&mut seeds, "clique", 256, false)
        },
        Cell {
            budget: Budget::Trials(16),
            ..cell(&mut seeds, "grid2d", 1024, true)
        },
        Cell {
            measure: "unif",
            budget: Budget::Trials(16),
            ..cell(&mut seeds, "hypercube", 256, true)
        },
    ];
    spec_json(seeds.draw(), &cells)
}

/// Distinct small-job specs in the serve pool.
pub const POOL: usize = 32;

/// The serve workloads' small jobs: 1–4 cells of clique, cycle or
/// hypercube at n ∈ {64, 128, 256} with 8–64 trials, some on `ci:`
/// budgets. Shapes come from a fixed table (the same work for every
/// seed); the seed supplies master seeds. `shrink` divides sizes and
/// trial counts for the smoke test.
pub fn small_job_pool(seed: u64, shrink: u64) -> Vec<String> {
    let mut seeds = Seeds::new(seed, 4);
    let families = ["clique", "cycle", "hypercube"];
    let sizes = [64u64, 128, 256];
    let measures = ["seq", "par", "unif", "ctu"];
    let trials = [8u64, 16, 32, 64];
    (0..POOL)
        .map(|k| {
            let cells: Vec<Cell> = (0..=k % 4)
                .map(|c| {
                    let family = families[(k + c) % 3];
                    // the cycle's cubic fill time keeps it at n ≤ 128
                    // with few trials; the others take the full range
                    let (size, budget) = if family == "cycle" {
                        (sizes[(k / 3 + c) % 2], Budget::Trials(8))
                    } else if (k + c) % 5 == 0 {
                        (sizes[(k / 3 + c) % 3], Budget::Ci(0.1, 8, 64))
                    } else {
                        (
                            sizes[(k / 3 + c) % 3],
                            Budget::Trials(trials[(k / 4 + c) % 4]),
                        )
                    };
                    let budget = match budget {
                        Budget::Trials(t) => Budget::Trials((t / shrink).max(2)),
                        Budget::Ci(rel, lo, hi) => Budget::Ci(rel, lo, (hi / shrink).max(lo)),
                    };
                    Cell {
                        measure: measures[(k + 2 * c) % 4],
                        budget,
                        ..cell(
                            &mut seeds,
                            family,
                            (size / shrink).max(16),
                            family != "cycle",
                        )
                    }
                })
                .collect();
            spec_json(seeds.draw(), &cells)
        })
        .collect()
}

/// The serve workloads' long background job: one Parallel cell of the
/// implicit torus, holding one worker for a good part of the run.
pub fn long_job(seed: u64, side: u64, trials: u64) -> String {
    let mut seeds = Seeds::new(seed, 5);
    let c = Cell {
        budget: Budget::Trials(trials),
        ..cell(&mut seeds, "grid2d", side * side, true)
    };
    spec_json(seeds.draw(), &[c])
}

/// The order in which `jobs` submissions draw from the pool: every pool
/// entry equally often, shuffled by the seed.
pub fn submission_order(seed: u64, jobs: usize) -> Vec<usize> {
    let mut rng = Seeds::new(seed, 6).rng();
    let mut order: Vec<usize> = (0..jobs).map(|j| j % POOL).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// One Parallel cell on the implicit torus capped at `cap` ticks, with
/// `walker_threads` set through the wire form — the intra-trial scaling
/// probe. The cap turns the trial into an error record after exactly
/// `cap` ticks, so both thread counts do identical work.
pub fn capped_torus(seed: u64, side: u64, cap: u64, walker_threads: u64) -> String {
    let mut seeds = Seeds::new(seed, 7);
    let c = Cell {
        extra: format!("\"step_cap\":{cap},\"walker_threads\":{walker_threads}"),
        ..cell(&mut seeds, "grid2d", side * side, true)
    };
    spec_json(seeds.draw(), &[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_serve::spec_json::spec_from_json;

    #[test]
    fn every_generated_spec_parses() {
        let mut all = vec![
            table1_job(1, 4),
            warmup_job(),
            long_job(1, 10, 8),
            capped_torus(1, 10, 1000, 2),
        ];
        all.extend(small_job_pool(1, 1));
        all.extend(small_job_pool(1, 4));
        for text in all {
            spec_from_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(table1_job(9, 1), table1_job(9, 1));
        assert_ne!(table1_job(9, 1), table1_job(10, 1));
        assert_eq!(submission_order(3, 100), submission_order(3, 100));
    }
}
