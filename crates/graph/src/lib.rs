//! Graph substrate for quantum circuit placement.
//!
//! This crate provides every graph-theoretic building block used by the
//! placement heuristics of Maslov, Falconer and Mosca's *Quantum Circuit
//! Placement* (DAC 2007 / TCAD 2008):
//!
//! * [`Graph`] — a simple undirected graph with `f64` edge weights,
//!   the common representation for both *physical environments* (molecules)
//!   and circuit *interaction graphs*;
//! * [`vf2`] — a from-scratch VF2 subgraph **monomorphism** enumerator,
//!   replacing the VFLib C++ library used by the paper's implementation;
//! * [`bisection`] — balanced **connected bisection** and the constructive
//!   separator of the paper's Appendix (Theorem 1), the backbone of the
//!   linear-depth SWAP routing algorithm of §5.2;
//! * [`spanning`] — BFS spanning trees rooted at communication channels;
//! * [`hamiltonian`] — a Hamiltonian-cycle backtracking solver used to
//!   validate the NP-completeness reduction of §4;
//! * [`generate`] — deterministic and random graph generators for tests and
//!   benchmarks;
//! * [`dot`] — Graphviz export for figures.
//!
//! # Example
//!
//! ```
//! use qcp_graph::{Graph, vf2::{Budget, MonomorphismFinder}};
//!
//! // A 3-vertex chain pattern embeds into a 4-cycle in 8 ways.
//! let pattern = Graph::from_edges(3, [(0, 1), (1, 2)])?;
//! let target = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
//! let (maps, _) = MonomorphismFinder::new(&pattern, &target)
//!     .collect_budgeted(&mut Budget::unlimited(), None);
//! assert_eq!(maps.len(), 8);
//! # Ok::<(), qcp_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
// Unit tests may unwrap freely; library code must not (workspace lints).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod bisection;
pub mod canonical;
pub mod dot;
mod error;
pub mod generate;
mod graph;
pub mod hamiltonian;
mod matrix;
mod node;
pub mod spanning;
pub mod traversal;
pub mod vf2;

pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use matrix::SymMatrix;
pub use node::NodeId;

/// Convenience result alias used throughout the crate.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;
