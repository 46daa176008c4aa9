//! # qcp — Quantum Circuit Placement
//!
//! Facade crate re-exporting the whole placement stack. See the
//! workspace `README.md` for an overview, `GUIDE.md` for a task-oriented
//! walkthrough (its snippets run as doc-tests of this crate), and
//! `DESIGN.md` for the mapping between the paper's sections and the
//! crates.

#![forbid(unsafe_code)]

pub use qcp_circuit as circuit;
pub use qcp_env as env;
pub use qcp_graph as graph;
pub use qcp_place as place;
pub use qcp_serve as serve;
pub use qcp_verify as verify;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use qcp_circuit::{Circuit, Gate, Qubit, Time};
    pub use qcp_env::{molecules, topologies, Environment, Threshold};
    pub use qcp_graph::{Graph, NodeId};
    pub use qcp_place::{
        execute, execute_with, BatchPlacer, BatchReport, CostModel, PlaceRequest, Placement,
        PlacementCache, Placer, PlacerConfig, Resolution, SearchBudget, Strategy,
    };
}

// Compile and run every Rust snippet in GUIDE.md as a doc-test, so the
// walkthrough can never drift from the real API.
#[doc = include_str!("../GUIDE.md")]
#[cfg(doctest)]
pub struct GuideDoctests;
