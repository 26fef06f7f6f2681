//! Occupancy map of the growing aggregate.
//!
//! The aggregate of an IDLA process is the set of vertices on which a
//! particle has settled. The hot loop queries and updates it once per walk
//! step, so it is a flat bitmap plus a settled counter — stored as packed
//! 64-bit words (8× denser than `Vec<bool>`, so far more of a big torus
//! fits in cache).

use dispersion_graphs::Vertex;

/// Which vertices are occupied by settled particles.
#[derive(Clone, Debug)]
pub struct Occupancy {
    words: Vec<u64>,
    n: usize,
    count: usize,
}

impl Occupancy {
    /// All-vacant occupancy for `n` vertices.
    pub fn new(n: usize) -> Self {
        Occupancy {
            words: vec![0; n.div_ceil(64)],
            n,
            count: 0,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `v` is occupied.
    #[inline]
    pub fn is_occupied(&self, v: Vertex) -> bool {
        let v = v as usize;
        debug_assert!(v < self.n);
        self.words[v >> 6] >> (v & 63) & 1 == 1
    }

    /// Marks `v` occupied.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already occupied — a settled vertex can never be
    /// settled again; hitting this indicates a scheduler bug.
    #[inline]
    pub fn settle(&mut self, v: Vertex) {
        let vi = v as usize;
        debug_assert!(vi < self.n);
        let word = &mut self.words[vi >> 6];
        assert!(
            *word >> (vi & 63) & 1 == 0,
            "vertex {v} settled twice: scheduler bug"
        );
        *word |= 1 << (vi & 63);
        self.count += 1;
    }

    /// Number of occupied vertices.
    #[inline]
    pub fn settled_count(&self) -> usize {
        self.count
    }

    /// The currently occupied vertices — the aggregate `A(t)` (ascending).
    pub fn aggregate(&self) -> Vec<Vertex> {
        (0..self.n as Vertex)
            .filter(|&v| self.is_occupied(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_vacant() {
        let o = Occupancy::new(4);
        assert_eq!(o.settled_count(), 0);
        assert!(o.aggregate().is_empty());
    }

    #[test]
    fn settle_updates_all_views() {
        let mut o = Occupancy::new(3);
        o.settle(1);
        assert!(o.is_occupied(1));
        assert!(!o.is_occupied(0));
        assert_eq!(o.settled_count(), 1);
        assert_eq!(o.aggregate(), vec![1]);
        o.settle(0);
        o.settle(2);
        assert_eq!(o.settled_count(), 3);
    }

    #[test]
    #[should_panic(expected = "settled twice")]
    fn double_settle_panics() {
        let mut o = Occupancy::new(2);
        o.settle(0);
        o.settle(0);
    }

    #[test]
    fn word_boundaries() {
        // Vertices straddling the u64 word edges behave like any other.
        let mut o = Occupancy::new(200);
        for v in [0u32, 63, 64, 127, 128, 191, 199] {
            assert!(!o.is_occupied(v));
            o.settle(v);
            assert!(o.is_occupied(v));
        }
        assert_eq!(o.settled_count(), 7);
        assert_eq!(o.aggregate(), vec![0, 63, 64, 127, 128, 191, 199]);
        let clone = o.clone();
        assert_eq!(clone.aggregate(), o.aggregate());
        assert_eq!(clone.settled_count(), 7);
    }
}
