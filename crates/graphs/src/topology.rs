//! The [`Topology`] trait: graphs as *neighbour oracles* instead of stored
//! adjacency.
//!
//! Every simulator in this workspace interrogates a graph the same way —
//! "how many neighbours does `v` have, and what is the `i`-th one?" — so
//! that interface is all the engine actually needs. [`Graph`] answers it
//! from its CSR arrays; the implicit families in this module ([`Torus2d`],
//! [`Cycle`], [`Path`], [`Hypercube`], [`Complete`]) answer it with
//! closed-form index arithmetic and **zero allocation**, which removes the
//! cache-missing neighbour-array indirection from the hot loop and lifts
//! the memory ceiling on the Table 1 experiments: a 2000×2000 torus
//! (`n = 4·10⁶`, the sizes where the Open Problem 1 `log n` factors start
//! to separate) needs no adjacency storage at all.
//!
//! Implicit families enumerate neighbours in **exactly the CSR order of
//! the corresponding `generators::*` constructor**, so a fixed-seed walk
//! takes the identical trajectory on either backend — implicit and
//! explicit runs are sample-for-sample interchangeable, not merely
//! equidistributed (pinned by `tests/topology_equiv.rs`).
//!
//! The trait holds exactly what the engine and [`walk::step`] call:
//! `n`, `degree`, `neighbour` and `random_step`. The lazy walk
//! `P̃ = (I + P)/2` is not a topology but a [`WalkKind::Lazy`] coin in
//! [`walk::step`] before `random_step`; [`Graph::lazified`] builds the
//! Theorem 4.3 loop graph `G̃` explicitly for the transition-matrix
//! checks.
//!
//! [`walk::step`]: crate::walk::step
//! [`WalkKind::Lazy`]: crate::WalkKind::Lazy

use crate::graph::{Graph, Vertex};
use crate::walk::{below, below_after, Below};
use rand::Rng;

/// A finite graph presented as a neighbour oracle.
///
/// `neighbour(v, i)` for `i < degree(v)` enumerates the adjacency list of
/// `v`; implementations must present a *stable* order (two calls with the
/// same arguments agree), and the implicit families in this module match
/// the CSR order of their explicit [`Graph`] counterparts exactly.
pub trait Topology {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Degree of `v` (self-loops count once per slot, as in [`Graph`]).
    fn degree(&self, v: Vertex) -> usize;

    /// The `i`-th neighbour of `v`, for `i < degree(v)`.
    ///
    /// # Panics
    ///
    /// May panic (or debug-panic) when `i >= degree(v)`.
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex;

    /// One uniform step of the simple random walk from `v`.
    ///
    /// The default draws `i` uniformly from `0..degree(v)` and returns
    /// `neighbour(v, i)`. Every implementation draws `i` as
    /// `rng.random_range(0..degree)` would — same output, same RNG
    /// consumption — so trajectories stay backend-independent for a fixed
    /// seed; none divides to do it. The default takes the varying-width
    /// [`below`]; the regular implicit families hold a [`Below`] sampler
    /// for their one degree instead.
    ///
    /// A [`Graph`] steps through a fixed-width row table when its degrees
    /// allow one: row `v` starts at `v · W`, and its slot `r` holds
    /// neighbour `r mod deg(v)`, every degree dividing `W`. A regular graph
    /// is its own table (`W = d`, no copy). An irregular graph whose
    /// degrees are all at most 64, and whose degree lcm `L` keeps `n · L`
    /// within four times its arc count, gets a padded table with `W = L`
    /// in front of its CSR rows (a binary tree: `L = 6`). A draw `x` that
    /// `random_range(0..deg)` takes for every degree — all but at most `W`
    /// of the 2⁶⁴ — is then one load, slot `x mod W`, because
    /// `(x mod W) mod deg = x mod deg`; the rest run the exact per-row
    /// sampler on the same `x`. Any other graph (a star or lollipop with a
    /// degree above 64) reads its offsets and takes [`below`].
    ///
    /// Measured on a 2 vCPU Intel Xeon (model 207, rustc 1.95.0) with
    /// `python3 perfbench/run.py --workload table1_sweep --seed 3
    /// --seconds 30 --trace 0`, medians of 10 alternating pairs against
    /// git `b85944c` (`random_range` draws, one engine round trip per
    /// Sequential step): these draws and the register-resident Sequential
    /// excursion raise `table1_sweep` from 1.51·10⁸ to 1.93·10⁸ walk
    /// steps/s (+28%), every record byte-identical. Measured the same way
    /// against git `6128ae2` (offsets and `below` for the binary tree, a
    /// call per CSR step), the row table and the inlined step raise it
    /// from 1.48·10⁸ to 1.86·10⁸ steps/s at seed 7 and from 1.60·10⁸ to
    /// 2.01·10⁸ at seed 13 (+25%, 19 of 20 pairs won); the binary-tree
    /// Sequential cell runs 2.7× faster per step.
    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        let d = self.degree(v);
        debug_assert!(d > 0, "isolated vertex {v}");
        self.neighbour(v, below(d, rng))
    }
}

/// CSR-backed graphs are topologies; this is what keeps every historical
/// `&Graph` call site compiling against the generic engine.
impl Topology for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        self.neighbours(v)[i]
    }

    // Always inlined: the row-table step is a few instructions, and a call
    // per step would pass the walker and the generator state through
    // memory. The paths that need more code stay out of line.
    #[inline(always)]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        match &self.rows {
            Some(b) => {
                let x = rng.next_u64();
                match b.direct(x) {
                    Some(r) => self.arcs[v as usize * b.width() as usize + r],
                    None => self.step_after(v, x, rng),
                }
            }
            None => self.step_offsets(v, rng),
        }
    }
}

/// Implicit cycle `C_n`, matching `generators::cycle(n)` (including the
/// degenerate `n = 1` self-loop and `n = 2` doubled edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cycle {
    n: usize,
}

impl Cycle {
    /// Cycle on `n ≥ 1` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cycle requires at least one vertex");
        Cycle { n }
    }
}

impl Topology for Cycle {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self, _v: Vertex) -> usize {
        if self.n == 1 {
            1
        } else {
            2
        }
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        debug_assert!(i < self.degree(v));
        let n = self.n;
        match n {
            1 => 0,
            2 => 1 - v,
            // CSR order: vertex 0 lists [1, n-1] (its wrap edge is added
            // last), every other vertex lists [v-1, v+1 mod n]. `i` is a
            // fresh random draw in the hot loop, so both selects are
            // written as branch-free arithmetic (cmov), not jumps.
            _ if v == 0 => {
                if i == 0 {
                    1
                } else {
                    (n - 1) as Vertex
                }
            }
            _ => {
                let w = v - 1 + 2 * i as Vertex;
                if w as usize == n {
                    0
                } else {
                    w
                }
            }
        }
    }

    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        // the degree is a power of two, for which `random_range` masks one
        // draw
        let i = rng.next_u64() as usize & (self.degree(v) - 1);
        self.neighbour(v, i)
    }
}

/// Implicit path `P_n`, matching `generators::path(n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Path {
    n: usize,
}

impl Path {
    /// Path on `n ≥ 1` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "path requires at least one vertex");
        Path { n }
    }
}

impl Topology for Path {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        if self.n == 1 {
            0
        } else if v == 0 || v as usize == self.n - 1 {
            1
        } else {
            2
        }
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        debug_assert!(i < self.degree(v));
        if v == 0 {
            1
        } else if i == 0 || v as usize == self.n - 1 {
            // slot 0 is always the left neighbour; the right endpoint has
            // nothing else
            v - 1
        } else {
            v + 1
        }
    }
}

/// Implicit complete graph `K_n`, matching `generators::complete(n)`:
/// the neighbour list of `v` is `0, …, v-1, v+1, …, n-1` in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Complete {
    n: usize,
    below: Below,
}

impl Complete {
    /// Complete graph on `n ≥ 1` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "complete graph requires at least one vertex");
        Complete {
            n,
            // K₁ has no neighbours to draw; its sampler is never used
            below: Below::new(n.saturating_sub(1).max(1) as u64),
        }
    }
}

impl Topology for Complete {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self, _v: Vertex) -> usize {
        self.n - 1
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        debug_assert!(i < self.degree(v));
        // skip-over-self, branch-free: `i` is random in the hot loop
        i as Vertex + (i as Vertex >= v) as Vertex
    }

    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        debug_assert!(self.n > 1, "K₁ has no neighbours");
        self.neighbour(v, self.below.sample(rng))
    }
}

/// In-byte select table: `SELECT_IN_BYTE[(rank << 8) | byte]` is the index
/// of the `rank`-th (0-based, from the LSB) set bit of `byte`. Entries for
/// out-of-range ranks hold 8 and are never hit by valid queries. Built at
/// compile time (2 KiB).
const SELECT_IN_BYTE: [u8; 2048] = {
    let mut t = [8u8; 2048];
    let mut byte = 0usize;
    while byte < 256 {
        let mut rank = 0usize;
        let mut b = 0usize;
        while b < 8 {
            if byte >> b & 1 == 1 {
                t[(rank << 8) | byte] = b as u8;
                rank += 1;
            }
            b += 1;
        }
        byte += 1;
    }
    t
};

/// Index of the `rank`-th (0-based, from the LSB) set bit of `word`.
///
/// Broadword select (Vigna, "Broadword implementation of rank/select
/// queries", WEA 2008): SWAR byte-wise popcounts, a multiply prefix sum to
/// locate the byte, one table lookup inside it — no data-dependent
/// branches, unlike a scan over the word's bits whose per-bit branch on a
/// random vertex id mispredicts half the time.
///
/// Requires `rank < word.count_ones()`; garbage out otherwise.
#[inline]
fn select_in_word(word: u64, rank: u64) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(rank < u64::from(word.count_ones()));
    // byte-wise popcounts
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // inclusive prefix sums, one per byte lane
    let byte_sums = s.wrapping_mul(ONES);
    // lane j's MSB survives iff its prefix sum is ≤ rank; counting the
    // survivors indexes the byte holding the target bit
    let spread = rank.wrapping_mul(ONES);
    let leq = ((spread | MSBS) - byte_sums) & MSBS;
    let place = leq.count_ones() * 8;
    let byte_rank = rank - ((byte_sums << 8) >> place & 0xff);
    place + u32::from(SELECT_IN_BYTE[(byte_rank as usize) << 8 | (word >> place & 0xff) as usize])
}

/// Implicit Boolean hypercube `H_{2^k}`, matching
/// `generators::hypercube(k)`.
///
/// The generator inserts edge `{v, v ^ 2^b}` from the smaller endpoint, so
/// the CSR list of `v` holds the set-bit neighbours first (in *descending*
/// bit order — ascending source id `v − 2^b`) followed by the clear-bit
/// neighbours in ascending bit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hypercube {
    k: usize,
    below: Below,
}

impl Hypercube {
    /// `k`-dimensional hypercube, `n = 2^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k >= 31` (the [`Graph`] generator's id range).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "hypercube dimension must be positive");
        assert!(k < 31, "hypercube dimension too large for u32 ids");
        Hypercube {
            k,
            below: Below::new(k as u64),
        }
    }
}

impl Topology for Hypercube {
    #[inline]
    fn n(&self) -> usize {
        1usize << self.k
    }

    #[inline]
    fn degree(&self, _v: Vertex) -> usize {
        self.k
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        debug_assert!(i < self.k);
        // slot i < ones picks the (i+1)-th set bit from the top, the rest
        // pick clear bits from the bottom — both are select queries counted
        // from the LSB, answered branch-free (the old per-bit scan's
        // branches on a random vertex id mispredict half the time and made
        // the implicit backend ~2.5× slower than CSR at n = 1024)
        let ones = i.wrapping_sub(v.count_ones() as usize);
        let set = (ones as isize) < 0; // i < popcount(v)
        let flip = (set as u64).wrapping_sub(1); // 0 picks set bits, !0 clear
        let word = (u64::from(v) ^ flip) & ((1u64 << self.k) - 1);
        let rank = if set { !ones } else { ones }; // bottom-up rank in `word`
        v ^ (1 << select_in_word(word, rank as u64))
    }

    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        self.neighbour(v, self.below.sample(rng))
    }
}

/// Implicit square 2-d torus of side `s`, matching
/// `generators::grid::torus2d(s)` (sides of length 2 collapse the wrap
/// edge, exactly as the lattice builder does).
///
/// Vertex ids are row-major: `v = row · s + col`. For sides ≥ 3 any
/// vertex decodes its neighbour with one branch-free sequence of about
/// thirty ALU operations, boundary or not. The CSR slot order depends
/// only on whether `v` sits in the first row and in the first column, so
/// a packed 2-bit table maps (those two flags, slot) to a direction, and
/// the four wrap flags, one bit per direction, pick the step across the
/// wrap. Nothing divides: the column flags are Lemire divisibility tests.
/// From side 64 on, interior vertices branch to a shorter decode first.
///
/// Measured on a 2 vCPU Intel Xeon (model 207, rustc 1.95.0) with
/// `cargo run -p dispersion-bench --release --bin engine_throughput --
/// --sizes 1024 --trials 300 --threads 1 grid2d`, medians of 5 runs
/// alternating with git `b85944c` (which sorted the wrap arcs of boundary
/// vertices with branches): at side 32 this decode runs Parallel at 58 M
/// steps/s (from 51 M) and Sequential at 75 M (from 57 M), 0.74× and
/// 0.67× of the cache-resident CSR twin. With the interior branch,
/// `python3 perfbench/run.py --workload table1_sweep --seed 3 --seconds
/// 30 --trace 1` (medians of 3 alternating pairs) times the 200×200
/// Parallel fill probe at 13.5 ns/step (14.6 at `b85944c`) and a
/// dependent chain of neighbour reads at 4.3 ns (3.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus2d {
    side: usize,
    /// `⌈2^64 / side⌉`: the divisibility-by-multiplication constant
    /// (Lemire, "Faster remainder by direct computation", 2019) — exact
    /// for all `side, v < 2^32`.
    magic: u64,
}

/// Walk directions on the torus, in the order of [`TORUS_DIRS`].
const UP: u32 = 0;
const LEFT: u32 = 1;
const DOWN: u32 = 2;
const RIGHT: u32 = 3;

/// Packs `order[case][slot]` two bits per entry at bit `8·case + 2·slot`.
const fn pack_dirs(order: [[u32; 4]; 4]) -> u32 {
    let mut t = 0;
    let mut case = 0;
    while case < 4 {
        let mut slot = 0;
        while slot < 4 {
            t |= order[case][slot] << (8 * case + 2 * slot);
            slot += 1;
        }
        case += 1;
    }
    t
}

/// The direction of each CSR slot for sides ≥ 3, by `case = first row |
/// first column << 1`.
///
/// The lattice builder emits, for each vertex `u` in ascending order and
/// each axis in order, the forward edge (`+1`, or the wrap edge when `u`
/// sits on the far boundary); counting-sort stability makes `v`'s CSR list
/// its arcs sorted by (inserting vertex, axis). `v` inserts its down and
/// right arcs; its up and left neighbours insert theirs, and those sort
/// after `v`'s own arcs exactly when they wrap around, i.e. in the first
/// row and the first column. The last row and column keep the interior
/// order.
const TORUS_DIRS: u32 = pack_dirs([
    [UP, LEFT, DOWN, RIGHT],
    [LEFT, DOWN, RIGHT, UP],
    [UP, DOWN, RIGHT, LEFT],
    [DOWN, RIGHT, LEFT, UP],
]);

/// The smallest torus side at which [`Torus2d::neighbour`] branches to
/// the interior decode. A walker stands on the boundary about `4/side` of
/// the time; below this side that branch mispredicts often enough to cost
/// more than the full decode saves. Interleaved Parallel fills in one
/// process on a 2 vCPU Intel Xeon (model 207, rustc 1.95.0) run the
/// branch-free decode 14% faster than the branch at side 32, at par at
/// side 64 and 7–8% slower at sides 100 and 200; at side 200 the branch
/// also cuts the latency of a dependent chain of neighbour reads from
/// about 9 ns to 3 ns.
const INTERIOR_BRANCH_MIN_SIDE: usize = 64;

/// CSR rows of the side-2 torus, where each axis has one edge.
const SIDE2: [[Vertex; 2]; 4] = [[2, 1], [0, 3], [0, 3], [1, 2]];

impl Torus2d {
    /// Torus of side `s ≥ 2` (`n = s²`).
    ///
    /// # Panics
    ///
    /// Panics if `side < 2` or `side²` overflows the `u32` id range.
    pub fn new(side: usize) -> Self {
        assert!(side >= 2, "torus side must be at least 2");
        assert!(
            side.checked_mul(side)
                .is_some_and(|n| n <= u32::MAX as usize),
            "torus side {side} overflows u32 vertex ids"
        );
        Torus2d {
            side,
            magic: (u64::MAX / side as u64) + 1,
        }
    }

    /// Whether `side` divides `v` — Lemire's divisibility test (`v·M mod
    /// 2^64 < M` with `M = ⌈2^64/side⌉`), exact for `v, side < 2^32`.
    /// One 64-bit multiply where `v % side == 0` would divide.
    #[inline]
    fn divisible(&self, v: u64) -> bool {
        self.magic.wrapping_mul(v) < self.magic
    }
}

impl Topology for Torus2d {
    #[inline]
    fn n(&self) -> usize {
        self.side * self.side
    }

    #[inline]
    fn degree(&self, _v: Vertex) -> usize {
        if self.side == 2 {
            2
        } else {
            4
        }
    }

    #[inline]
    fn neighbour(&self, v: Vertex, i: usize) -> Vertex {
        let s = self.side;
        let v = v as usize;
        if s == 2 {
            return SIDE2[v][i];
        }
        debug_assert!(i < 4);
        // `i` is a fresh random draw, so every select on it is arithmetic:
        // a branch on it would mispredict, as would a branch on the
        // boundary flags of a small torus
        let first_row = (v < s) as u32;
        let first_col = self.divisible(v as u64) as u32;
        let last_row = (v >= s * s - s) as u32;
        let last_col = self.divisible(v as u64 + 1) as u32;
        if s >= INTERIOR_BRANCH_MIN_SIDE && first_row | first_col | last_row | last_col == 0 {
            // interior CSR order: [v − s, v − 1, v + s, v + 1]
            let stride = if i & 1 == 0 { s } else { 1 };
            let w = if i < 2 { v - stride } else { v + stride };
            return w as Vertex;
        }
        let case = first_row | first_col << 1;
        let dir = TORUS_DIRS >> (8 * case + 2 * i as u32) & 3;
        let wraps = first_row << UP | first_col << LEFT | last_row << DOWN | last_col << RIGHT;
        let wrapped = (wraps >> dir & 1) as usize;
        let vertical = (dir & 1 ^ 1) as usize;
        // one row or one column forward, or s − 1 of them back across the
        // wrap: {s, 1} or {n − s, s − 1}
        let stride = 1 + vertical * (s - 1);
        let span = stride * (1 + wrapped * (s - 2));
        // up and left step back, unless they wrap; down and right the
        // reverse
        let back = ((dir >> 1 ^ 1) as usize) ^ wrapped;
        let sign = 0usize.wrapping_sub(back);
        v.wrapping_add((span ^ sign).wrapping_sub(sign)) as Vertex
    }

    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        // the degree is a power of two, for which `random_range` masks one
        // draw
        let i = rng.next_u64() as usize & (self.degree(v) - 1);
        self.neighbour(v, i)
    }
}

/// The implicit families behind one enum, for drivers that pick a backend
/// at run time (`--topology implicit`). The enum is not itself a
/// [`Topology`]: `dispersion_sim::with_resolved_topology!` is the one
/// dispatch, matching on the variant and handing the concrete type to the
/// engine so every hot loop is monomorphised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Implicit {
    /// Implicit path.
    Path(Path),
    /// Implicit cycle.
    Cycle(Cycle),
    /// Implicit 2-d torus.
    Torus2d(Torus2d),
    /// Implicit hypercube.
    Hypercube(Hypercube),
    /// Implicit complete graph.
    Complete(Complete),
}

impl Graph {
    /// The step from `v` whose first draw `x` the row table declined:
    /// the exact per-row sampler, drawing again where it would.
    #[cold]
    #[inline(never)]
    fn step_after<R: Rng + ?Sized>(&self, v: Vertex, x: u64, rng: &mut R) -> Vertex {
        let ns = self.neighbours(v);
        ns[below_after(ns.len(), x, rng)]
    }

    /// The step from `v` of a graph without a row table.
    #[inline(never)]
    fn step_offsets<R: Rng + ?Sized>(&self, v: Vertex, rng: &mut R) -> Vertex {
        let ns = self.neighbours(v);
        debug_assert!(!ns.is_empty(), "isolated vertex {v}");
        ns[below(ns.len(), rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, hypercube, path, torus2d};

    fn assert_matches_graph<T: Topology>(t: &T, g: &Graph) {
        assert_eq!(t.n(), g.n());
        for v in g.vertices() {
            assert_eq!(t.degree(v), Graph::degree(g, v), "degree of {v}");
            let ns: Vec<Vertex> = (0..t.degree(v)).map(|i| t.neighbour(v, i)).collect();
            assert_eq!(ns.as_slice(), g.neighbours(v), "neighbours of {v}");
        }
    }

    #[test]
    fn cycle_matches_generator() {
        for n in [1usize, 2, 3, 4, 7, 32] {
            assert_matches_graph(&Cycle::new(n), &cycle(n));
        }
    }

    #[test]
    fn path_matches_generator() {
        for n in [1usize, 2, 3, 5, 17] {
            assert_matches_graph(&Path::new(n), &path(n));
        }
    }

    #[test]
    fn complete_matches_generator() {
        for n in [1usize, 2, 3, 9, 24] {
            assert_matches_graph(&Complete::new(n), &complete(n));
        }
    }

    #[test]
    fn hypercube_matches_generator() {
        // exhaustive slot-exact equality: every vertex × every neighbour
        // slot of the branch-free select must reproduce the CSR row order
        for k in 1usize..=10 {
            assert_matches_graph(&Hypercube::new(k), &hypercube(k));
        }
    }

    #[test]
    fn select_in_word_matches_naive_scan() {
        // deterministic xorshift sweep over word shapes, plus the edge
        // masks a hypercube vertex id can present
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let words = (0..500).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        });
        for word in words.chain([1u64, u64::MAX, 1 << 63, 0x8000_0001, (1 << 31) - 1]) {
            let mut rank = 0;
            for b in 0..64 {
                if word >> b & 1 == 1 {
                    assert_eq!(select_in_word(word, rank), b, "word {word:#x} rank {rank}");
                    rank += 1;
                }
            }
        }
    }

    #[test]
    fn torus2d_matches_generator() {
        // every boundary class (first/last row × first/last column and the
        // corners) slot for slot, up to sides where the interior dominates
        for s in (2usize..=40).chain([64, 97, 128]) {
            assert_matches_graph(&Torus2d::new(s), &torus2d(s));
        }
    }

    #[test]
    fn graph_is_its_own_topology() {
        let g = torus2d(4);
        assert_matches_graph(&g, &g.clone());
    }

    #[test]
    fn random_step_stays_on_neighbours() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let t = Torus2d::new(5);
        let g = torus2d(5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vertex = 7;
        for _ in 0..200 {
            let w = t.random_step(v, &mut rng);
            assert!(g.has_edge(v, w));
            v = w;
        }
    }

    #[test]
    #[should_panic(expected = "side must be at least 2")]
    fn degenerate_torus_rejected() {
        let _ = Torus2d::new(1);
    }

    #[test]
    fn lemire_divisibility_exact() {
        // the magic-constant test must agree with the hardware remainder
        // on boundary-adjacent values for a spread of sides, including the
        // largest side the u32 id range admits
        for side in [2usize, 3, 5, 7, 1000, 4093, 65535] {
            let t = Torus2d::new(side);
            let n = side * side;
            let mut probes = vec![0usize, 1, side - 1, side, side + 1, n / 2, n - 1, n];
            for r in [0usize, 1, side / 2, side - 1] {
                for c in [0usize, 1, side / 2, side - 1] {
                    probes.push(r * side + c);
                }
            }
            for v in probes {
                assert_eq!(t.divisible(v as u64), v % side == 0, "side {side}, v {v}");
            }
        }
    }
}
