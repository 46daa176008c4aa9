//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a function returning structured rows plus a
//! formatted table; the `table1` … `table4`, `figure1` … `figure3`,
//! `reduction`, and `ablation` binaries print them, and the `perf`
//! binary ([`perf`]) times the underlying placement runs.
//!
//! See `EXPERIMENTS.md` at the workspace root for paper-vs-measured
//! comparisons.

#![forbid(unsafe_code)]
// Bench-harness support crate: it exists to feed the experiment binaries
// and the perf suites, where aborting on a malformed experiment is the
// right behaviour — so the workspace unwrap/expect denies are relaxed
// crate-wide (the placement library crates keep them).
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod experiments;
pub mod perf;
pub mod table;
