//! Graph generators for every family the paper analyses.

pub mod basic;
pub mod composite;
pub mod grid;
pub mod hypercube;
pub mod random;
pub mod tree;

pub use basic::{complete, cycle, path, star};
pub use composite::{clique_with_hair, clique_with_hair_on_pimple, lollipop};
pub use grid::{grid, torus, torus2d, torus3d};
pub use hypercube::hypercube;
pub use random::{gnp, random_regular_connected};
pub use tree::{binary_tree, tree_from_parents, tree_with_path};
