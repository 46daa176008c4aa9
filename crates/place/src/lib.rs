//! Quantum circuit placement — the core contribution of
//! Maslov–Falconer–Mosca, *Quantum Circuit Placement* (DAC 2007 /
//! TCAD 2008).
//!
//! Given an abstract circuit and a physical environment (a molecule whose
//! qubit-to-qubit couplings have very different speeds), find an injective
//! assignment of logical qubits to nuclei minimizing the circuit's runtime
//! (Definition 3). The problem is NP-complete (§4, [`reduction`]), so the
//! crate implements the paper's heuristic pipeline:
//!
//! 1. [`workspace`] — split the circuit into maximal subcircuits whose
//!    interaction graphs embed into the *fast-interaction graph* of the
//!    environment;
//! 2. [`embed`] — enumerate up to `k` monomorphisms per subcircuit
//!    (via the VF2 implementation in `qcp_graph`);
//! 3. [`finetune`] — hill-climb each matching using the true delays;
//! 4. [`router`] — connect consecutive placements with linear-depth
//!    parallel SWAP stages (recursive bisection, "water and air bubbles",
//!    leaf–target override);
//! 5. [`placer`] — drive the stages greedily or with the depth-2 lookahead
//!    of §5.3, and cost everything with the runtime dynamic program of §3
//!    ([`cost`]).
//!
//! Reference strategies live in [`baselines`] (exhaustive search,
//! annealing, whole-circuit placement) and the §4 NP-completeness
//! reduction in [`reduction`]. For many independent requests at once —
//! N circuits × M environments — [`batch`] fans the work out across
//! worker threads with deterministic, worker-count-independent outcomes.
//!
//! The pipeline above is *exact* and all-or-nothing; [`strategy`] makes
//! placement **anytime**: a [`SearchBudget`] (node cap and/or deadline)
//! bounds the exact search, and the [`Hybrid`] strategy falls back to a
//! greedy + simulated-annealing heuristic — non-adjacent interactions
//! routed through the SWAP router — so every request gets a valid
//! placement within its budget.
//!
//! # Example
//!
//! ```
//! use qcp_circuit::library::qec3_encoder;
//! use qcp_env::{molecules, Threshold};
//! use qcp_place::{Placer, PlacerConfig};
//!
//! // Re-place the 3-qubit error-correction encoder on acetyl chloride.
//! let env = molecules::acetyl_chloride();
//! let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
//! let outcome = placer.place(&qec3_encoder())?;
//! assert_eq!(outcome.runtime.to_string(), "0.0136 sec"); // Table 2, row 1
//! # Ok::<(), qcp_place::PlaceError>(())
//! ```

#![forbid(unsafe_code)]
// Unit tests may unwrap freely; library code must not (workspace lints).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod cache;
pub mod cost;
pub mod embed;
mod error;
pub mod fidelity;
pub mod finetune;
mod placement;
pub mod placer;
pub mod reduction;
pub mod request;
pub mod router;
pub mod strategy;
pub mod timeline;
pub mod workspace;

pub use batch::{BatchPlacer, BatchReport, BatchRequest, BatchResult};
pub use cache::{CacheKey, CanonicalCircuit, PlacementCache};
pub use cost::{CostModel, ExecutionModel, PlacedGate, Schedule};
pub use error::{FailureClass, PlaceError};
pub use placement::Placement;
pub use placer::{PlacementOutcome, Placer, PlacerConfig, Stage};
pub use request::{execute, execute_with, CacheDisposition, Certifier, PlaceReport, PlaceRequest};
pub use router::{RouterConfig, SwapSchedule};
pub use strategy::{
    AnnealConfig, ExactVf2, GreedyAnneal, Hybrid, PlacementStrategy, Resolution, SearchBudget,
    Strategy,
};
pub use timeline::{TimedGate, Timeline};

/// Convenience result alias used throughout the crate.
pub type Result<T, E = PlaceError> = std::result::Result<T, E>;
