//! Validity predicates for blocks: the paper's properties (2), (3) and (4).

use super::repr::Block;
use dispersion_graphs::Graph;

/// Property (2): the final element of each row is unique
/// (`L(i, ρ_i) ≠ L(j, ρ_j)` for `i ≠ j`).
pub fn has_distinct_endpoints(block: &Block) -> bool {
    let mut seen = vec![false; block.label_bound()];
    for i in 0..block.n_rows() {
        let e = block.endpoint(i) as usize;
        if seen[e] {
            return false;
        }
        seen[e] = true;
    }
    true
}

/// Every row is a walk on `g`: consecutive cells joined by an edge.
/// With `allow_stay` (lazy walks), a cell may also repeat its predecessor.
pub fn rows_are_walks(block: &Block, g: &Graph, allow_stay: bool) -> bool {
    block.rows().iter().all(|row| {
        row.windows(2).all(|w| {
            let (u, v) = (w[0], w[1]);
            g.has_edge(u, v) || (allow_stay && u == v)
        })
    })
}

/// Property (3): reading the block in *sequential order*
/// (row by row), the first occurrence of every vertex label ends its row.
/// Such blocks are exactly the realizations of Sequential-IDLA.
pub fn is_sequential_block(block: &Block) -> bool {
    let mut seen = vec![false; block.label_bound()];
    for i in 0..block.n_rows() {
        let rho = block.rho(i);
        for t in 0..=rho {
            let v = block.get(i, t).unwrap() as usize;
            if !seen[v] {
                seen[v] = true;
                if t != rho {
                    return false;
                }
            }
        }
    }
    true
}

/// Property (4): reading the block in *parallel order*
/// (column by column, skipping exhausted rows), the first occurrence of
/// every vertex label ends its row. Such blocks are exactly the realizations
/// of Parallel-IDLA (ties broken by smallest particle index).
pub fn is_parallel_block(block: &Block) -> bool {
    let mut seen = vec![false; block.label_bound()];
    let max_t = block.rows().iter().map(std::vec::Vec::len).max().unwrap();
    for t in 0..max_t {
        for i in 0..block.n_rows() {
            if let Some(v) = block.get(i, t) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    if t != block.rho(i) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Cells of the block in sequential order `<_S`.
pub fn sequential_order(block: &Block) -> Vec<(usize, usize)> {
    let mut cells = Vec::with_capacity(block.total_length() + block.n_rows());
    for i in 0..block.n_rows() {
        for t in 0..=block.rho(i) {
            cells.push((i, t));
        }
    }
    cells
}

/// Cells of the block in parallel order `<_P`.
pub fn parallel_order(block: &Block) -> Vec<(usize, usize)> {
    let mut cells = Vec::with_capacity(block.total_length() + block.n_rows());
    let max_t = block.rows().iter().map(std::vec::Vec::len).max().unwrap();
    for t in 0..max_t {
        for i in 0..block.n_rows() {
            if block.get(i, t).is_some() {
                cells.push((i, t));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::path;

    fn seq_example() -> Block {
        // a valid sequential block on the path 0-1-2-3, origin 0
        Block::from_rows(vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]])
    }

    fn par_example() -> Block {
        // paper's example L is a valid parallel block (0-indexed)
        Block::from_rows(vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 1, 2],
            vec![0, 1, 0, 1, 2, 3],
        ])
    }

    #[test]
    fn endpoints_distinct() {
        assert!(has_distinct_endpoints(&seq_example()));
        assert!(has_distinct_endpoints(&par_example()));
        let bad = Block::from_rows(vec![vec![0], vec![0, 1], vec![0, 1]]);
        assert!(!has_distinct_endpoints(&bad));
    }

    #[test]
    fn sequential_validity() {
        assert!(is_sequential_block(&seq_example()));
        // The paper's example happens to satisfy (3) as well — the classes
        // overlap. A genuinely non-sequential parallel block (cycle C5):
        // particle 3 walks through vertex 4 which, in sequential reading
        // order, has not been revealed yet (row 4 settles it).
        let par_only = Block::from_rows(vec![
            vec![0],
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 0, 4, 3],
            vec![0, 4],
        ]);
        assert!(is_parallel_block(&par_only));
        assert!(!is_sequential_block(&par_only));
        assert!(is_sequential_block(&par_example()));
    }

    #[test]
    fn parallel_validity() {
        assert!(is_parallel_block(&par_example()));
        // seq_example read in parallel order: column 1 reads (1,1)=1 first
        // occurrence of 1 at t=1 = rho(1) ✓; (2,1)=1 seen; (3,1)=1 seen;
        // column 2: (2,2)=2 first occurrence at rho(2) ✓; (3,2)=2 seen;
        // column 3: (3,3)=3 ✓ — so it happens to be parallel-valid too.
        assert!(is_parallel_block(&seq_example()));
    }

    #[test]
    fn non_parallel_detected() {
        // vertex 2 first occurs (parallel order) at (1,1) which is not the
        // end of row 1
        let bad = Block::from_rows(vec![vec![0], vec![0, 2, 1], vec![0, 2]]);
        assert!(!is_parallel_block(&bad));
    }

    #[test]
    fn walk_validation() {
        let g = path(4);
        assert!(rows_are_walks(&seq_example(), &g, false));
        let lazy = Block::from_rows(vec![vec![0], vec![0, 0, 1]]);
        assert!(!rows_are_walks(&lazy, &g, false));
        assert!(rows_are_walks(&lazy, &g, true));
        let teleport = Block::from_rows(vec![vec![0], vec![0, 2]]);
        assert!(!rows_are_walks(&teleport, &g, true));
    }

    #[test]
    fn orders_enumerate_all_cells() {
        let b = par_example();
        let cells = b.total_length() + b.n_rows();
        assert_eq!(sequential_order(&b).len(), cells);
        assert_eq!(parallel_order(&b).len(), cells);
    }

    #[test]
    fn parallel_order_is_column_major() {
        let b = par_example();
        let order = parallel_order(&b);
        // first n cells are column 0
        assert_eq!(&order[..4], &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        // then column 1 for rows that have it
        assert_eq!(&order[4..7], &[(1, 1), (2, 1), (3, 1)]);
    }
}
