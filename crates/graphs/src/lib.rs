//! # dispersion-graphs
//!
//! Finite-graph substrate for the reproduction of *"The Dispersion Time of
//! Random Walks on Finite Graphs"* (Rivera, Stauffer, Sauerwald, Sylvester;
//! SPAA 2019).
//!
//! Provides:
//!
//! * [`Topology`] — the neighbour-oracle trait every simulator is generic
//!   over (`n`, `degree`, `neighbour`, `random_step`): CSR graphs and
//!   closed-form implicit families behind one interface,
//! * [`Graph`] — compact CSR adjacency storage with `u32` vertex ids,
//! * [`topology`] — zero-allocation implicit families (`Torus2d`, `Cycle`,
//!   `Path`, `Hypercube`, `Complete`) matching the explicit generators
//!   neighbour-for-neighbour,
//! * [`GraphBuilder`] — `O(n + m)` edge-list construction,
//! * [`generators`] — every graph family in the paper's Table 1 plus all
//!   counterexample gadgets (lollipop, clique-with-a-hair, tree-with-path, …),
//! * [`traversal`] — BFS distances, connectivity, diameter bounds,
//!   bipartiteness,
//! * [`families::Family`] — the Table 1 families behind one enum for
//!   experiment sweeps.
//!
//! ```
//! use dispersion_graphs::generators::path;
//! use dispersion_graphs::traversal::diameter_bounds;
//!
//! // the double sweep is exact on trees
//! let g = path(6);
//! assert_eq!(g.n(), 6);
//! assert_eq!(diameter_bounds(&g), Some((5, 5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod families;
pub mod generators;
pub mod graph;
pub mod topology;
pub mod traversal;
pub mod walk;

pub use builder::GraphBuilder;
pub use graph::{Graph, Vertex};
pub use topology::Topology;
pub use walk::WalkKind;
