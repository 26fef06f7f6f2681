//! Implicit ↔ explicit backend equivalence (the `Topology` redesign's
//! correctness gate).
//!
//! For every implicit family and a sweep of sizes this asserts that the
//! closed-form topology matches the explicit CSR `Graph` built by
//! `generators`/`families` **exactly**: same vertex count, same degrees,
//! same edge counts, same neighbour lists in the same order — and,
//! because the order matches and the walk primitive consumes the RNG
//! identically on both backends, that a fixed-seed walk takes the
//! identical trajectory on either backend.

use dispersion_graphs::families::Family;
use dispersion_graphs::generators::{complete, cycle, hypercube, path, torus2d};
use dispersion_graphs::topology::{Complete, Cycle, Hypercube, Implicit, Path, Torus2d};
use dispersion_graphs::walk::{below, step, Below};
use dispersion_graphs::{Graph, Topology, Vertex, WalkKind};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Exact structural equivalence: n, and every vertex's degree and
/// neighbour list in order (which fixes the edge count, the maximum degree
/// and regularity too).
fn assert_equivalent<T: Topology>(t: &T, g: &Graph, label: &str) {
    assert_eq!(t.n(), g.n(), "{label}: vertex count");
    for v in g.vertices() {
        assert_eq!(t.degree(v), g.degree(v), "{label}: degree of {v}");
        let implicit: Vec<Vertex> = (0..t.degree(v)).map(|i| t.neighbour(v, i)).collect();
        assert_eq!(
            implicit.as_slice(),
            g.neighbours(v),
            "{label}: neighbour list of {v}"
        );
    }
}

/// Fixed-seed walks must visit the same vertices on both backends.
fn assert_same_trajectories<T: Topology>(t: &T, g: &Graph, kind: WalkKind, label: &str) {
    let n = g.n();
    for start in [0usize, n / 3, n - 1] {
        let mut rng_t = StdRng::seed_from_u64(start as u64 + 77);
        let mut rng_g = StdRng::seed_from_u64(start as u64 + 77);
        let mut vt = start as Vertex;
        let mut vg = start as Vertex;
        for s in 0..500 {
            vt = step(t, kind, vt, &mut rng_t);
            vg = step(g, kind, vg, &mut rng_g);
            assert_eq!(vt, vg, "{label}: trajectories diverge at step {s}");
        }
    }
}

#[test]
fn cycle_equivalence_sweep() {
    for n in [1usize, 2, 3, 4, 5, 8, 13, 64, 257] {
        let t = Cycle::new(n);
        let g = cycle(n);
        assert_equivalent(&t, &g, &format!("cycle({n})"));
        if n >= 2 {
            assert_same_trajectories(&t, &g, WalkKind::Simple, &format!("cycle({n})"));
        }
    }
}

#[test]
fn path_equivalence_sweep() {
    for n in [2usize, 3, 4, 7, 33, 100] {
        let t = Path::new(n);
        let g = path(n);
        assert_equivalent(&t, &g, &format!("path({n})"));
        assert_same_trajectories(&t, &g, WalkKind::Simple, &format!("path({n})"));
    }
}

#[test]
fn complete_equivalence_sweep() {
    for n in [2usize, 3, 4, 9, 32, 101] {
        let t = Complete::new(n);
        let g = complete(n);
        assert_equivalent(&t, &g, &format!("complete({n})"));
        assert_same_trajectories(&t, &g, WalkKind::Simple, &format!("complete({n})"));
    }
}

#[test]
fn hypercube_equivalence_sweep() {
    for k in 1usize..=8 {
        let t = Hypercube::new(k);
        let g = hypercube(k);
        assert_equivalent(&t, &g, &format!("hypercube({k})"));
        assert_same_trajectories(&t, &g, WalkKind::Simple, &format!("hypercube({k})"));
    }
}

#[test]
fn torus2d_equivalence_sweep() {
    // sides 2 and 3 are the degenerate/wrap-heavy cases; larger sides
    // cover the interior fast path
    for s in [2usize, 3, 4, 5, 8, 17, 30] {
        let t = Torus2d::new(s);
        let g = torus2d(s);
        assert_equivalent(&t, &g, &format!("torus2d({s})"));
        assert_same_trajectories(&t, &g, WalkKind::Simple, &format!("torus2d({s})"));
    }
}

#[test]
fn lazy_walks_agree_across_backends() {
    // the lazy walk draws its stay/move coin before the neighbour index,
    // identically on both backends
    assert_same_trajectories(&Torus2d::new(6), &torus2d(6), WalkKind::Lazy, "lazy torus");
    assert_same_trajectories(&Cycle::new(19), &cycle(19), WalkKind::Lazy, "lazy cycle");
}

#[test]
fn family_implicit_matches_family_instance() {
    // Family::implicit uses the same size rounding as Family::instance,
    // so sweep drivers can line the two backends up row-for-row
    let mut rng = StdRng::seed_from_u64(5);
    for fam in Family::table1() {
        for n in [60usize, 250, 1000] {
            let Some(imp) = fam.implicit(n) else {
                continue;
            };
            let inst = fam.instance(n, &mut rng);
            let label = format!("{}(~{n})", inst.label);
            match imp {
                Implicit::Path(t) => assert_equivalent(&t, &inst.graph, &label),
                Implicit::Cycle(t) => assert_equivalent(&t, &inst.graph, &label),
                Implicit::Torus2d(t) => assert_equivalent(&t, &inst.graph, &label),
                Implicit::Hypercube(t) => assert_equivalent(&t, &inst.graph, &label),
                Implicit::Complete(t) => assert_equivalent(&t, &inst.graph, &label),
            }
        }
    }
    // families without closed forms opt out
    assert!(Family::BinaryTree.implicit(64).is_none());
    assert!(Family::RandomRegular(4).implicit(64).is_none());
    assert!(Family::Lollipop.implicit(64).is_none());
}

#[test]
fn million_vertex_torus_is_constant_memory() {
    // the point of the redesign: a 1024×1024 torus topology is two words
    // (side + divmod constant) — interrogate far-apart vertices without
    // any adjacency build
    let t = Torus2d::new(1024);
    assert_eq!(t.n(), 1024 * 1024);
    assert!(std::mem::size_of::<Torus2d>() <= 2 * std::mem::size_of::<u64>());
    assert_eq!(t.degree(0), 4);
    // wrap arithmetic at the far corner
    let last = (t.n() - 1) as Vertex;
    let ns: Vec<Vertex> = (0..4).map(|i| t.neighbour(last, i)).collect();
    assert!(ns.contains(&(last - 1)));
    assert!(ns.contains(&(last - 1024)));
    assert!(ns.contains(&(1024 * 1023))); // wrap right → row start
    assert!(ns.contains(&1023)); // wrap down → top row, same column
}

#[test]
fn index_samplers_reproduce_random_range() {
    // every degree the graphs reach, both sides of the constant table's
    // edge at 64, powers of two and their neighbours, and the widest
    // ranges: at 2⁶³ + 7 about half the draws are rejected and at
    // u64::MAX every draw leaves the direct remainder for the vendored
    // rejection loop
    let widths = (1u64..=1100).chain([
        1 << 20,
        (1 << 20) + 1,
        u32::MAX.into(),
        (1 << 63) + 7,
        u64::MAX,
    ]);
    for (seed, w) in widths.enumerate() {
        let fixed = Below::new(w);
        assert_eq!(fixed.width(), w);
        // the vendored StdRng is Xoshiro256++
        let mut want = StdRng::seed_from_u64(seed as u64);
        let mut got = want.clone();
        let mut varying = want.clone();
        for draw in 0..20_000 {
            let x = want.random_range(0..w);
            assert_eq!(fixed.sample(&mut got) as u64, x, "Below({w}), draw {draw}");
            assert_eq!(
                below(w as usize, &mut varying) as u64,
                x,
                "below({w}), draw {draw}"
            );
        }
        // same number of draws consumed: the streams continue in step
        let next = want.next_u64();
        assert_eq!(got.next_u64(), next, "Below({w}) generator state");
        assert_eq!(varying.next_u64(), next, "below({w}) generator state");
    }
}
