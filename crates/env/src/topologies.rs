//! Device-topology backends: synthesize [`Environment`]s from hardware
//! coupling maps.
//!
//! The paper maps circuits onto one NMR molecule, but its placement
//! formulation only needs a weighted interaction graph, so the same
//! pipeline runs unchanged on grid-, ring-, or heavy-hex-shaped devices
//! (cf. Bhattacharjee & Chattopadhyay's arbitrary-topology placement and
//! the LONGPATH 2D-placement line of work). This module turns the
//! standard coupling maps into environments:
//!
//! * [`line()`][fn@line], [`ring`], [`grid`], [`star`] — the textbook architectures,
//!   built on `qcp_graph::generate`;
//! * [`heavy_hex`] — the IBM-style heavy-hex lattice
//!   (`qcp_graph::generate::heavy_hex`);
//! * [`from_graph`] — any `qcp_graph::Graph` with uniform delays;
//! * [`from_coupling_list`] — an explicit coupling list with per-edge
//!   delays;
//! * [`TopologySpec`] — the CLI-facing `grid:8x8` / `heavy_hex:3` parser.
//!
//! Synthesized environments behave exactly like molecules: `fast_graph`,
//! `full_graph`, thresholds, and the whole placement pipeline work
//! unchanged.
//!
//! # Example
//!
//! ```
//! use qcp_env::topologies::{self, Delays, TopologySpec};
//! use qcp_env::Threshold;
//!
//! let dev = topologies::grid(3, 4, Delays::default());
//! assert_eq!(dev.qubit_count(), 12);
//! // Every nearest-neighbour coupling is fast, nothing else is finite.
//! assert_eq!(dev.fast_graph(Threshold::new(10.5)).edge_count(), 17);
//! assert_eq!(dev.full_graph().edge_count(), 17);
//!
//! // The same device from its CLI spelling.
//! let spec: TopologySpec = "grid:3x4".parse()?;
//! assert_eq!(spec.build(Delays::default()).qubit_count(), 12);
//! # Ok::<(), qcp_env::EnvError>(())
//! ```

use std::fmt;
use std::str::FromStr;

use qcp_graph::{generate, Graph};

use crate::{EnvError, Environment, PhysicalQubit, Result};

/// Gate-delay profile for synthesized topologies, in the paper's delay
/// units (10⁻⁴ s per unit).
///
/// The default matches the paper's synthetic "1 kHz quantum processor"
/// (Table 4): 1 unit per single-qubit 90° rotation and 10 units (0.001 s)
/// per two-qubit 90° coupling.
///
/// ```
/// use qcp_env::topologies::Delays;
///
/// assert_eq!(Delays::default(), Delays::new(1.0, 10.0));
/// assert_eq!(Delays::uniform(25.0).coupling, 25.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delays {
    /// Single-qubit 90°-gate delay on every site.
    pub single: f64,
    /// Two-qubit 90°-gate delay on every coupled pair.
    pub coupling: f64,
}

impl Delays {
    /// A profile with the given single- and two-qubit delays.
    ///
    /// # Panics
    ///
    /// Panics if either delay is NaN, infinite, or negative (static
    /// misuse, mirroring [`crate::EnvironmentBuilder::nucleus`]).
    pub fn new(single: f64, coupling: f64) -> Self {
        assert!(
            single.is_finite() && single >= 0.0 && coupling.is_finite() && coupling >= 0.0,
            "delays must be finite and non-negative, got single={single}, coupling={coupling}"
        );
        Delays { single, coupling }
    }

    /// The default single-qubit delay with a custom coupling delay.
    pub fn uniform(coupling: f64) -> Self {
        Delays::new(1.0, coupling)
    }
}

impl Default for Delays {
    fn default() -> Self {
        Delays {
            single: 1.0,
            coupling: 10.0,
        }
    }
}

/// A line (chain) device of `n` qubits — the paper's linear
/// nearest-neighbour architecture, equivalent to
/// [`crate::molecules::lnn_chain`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize, delays: Delays) -> Environment {
    assert!(n > 0, "a line needs at least one qubit");
    from_graph(format!("line-{n}"), &generate::chain(n), delays)
}

/// A ring device: `n ≥ 3` qubits with nearest-neighbour couplings closed
/// into a cycle.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize, delays: Delays) -> Environment {
    from_graph(format!("ring-{n}"), &generate::ring(n), delays)
}

/// A `rows × cols` 2D-lattice device, row-major site numbering.
///
/// # Panics
///
/// Panics if the grid is empty.
pub fn grid(rows: usize, cols: usize, delays: Delays) -> Environment {
    assert!(rows * cols > 0, "a grid needs at least one site");
    from_graph(
        format!("grid-{rows}x{cols}"),
        &generate::grid(rows, cols),
        delays,
    )
}

/// A star device: one hub qubit coupled to `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize, delays: Delays) -> Environment {
    assert!(n > 0, "a star needs at least one qubit");
    from_graph(format!("star-{n}"), &generate::star(n), delays)
}

/// The IBM-style heavy-hex lattice at distance `d`
/// ([`qcp_graph::generate::heavy_hex`]): `d(5d - 3)/2` qubits, maximum
/// degree 3.
///
/// ```
/// use qcp_env::topologies::{heavy_hex, Delays};
///
/// let dev = heavy_hex(3, Delays::default());
/// assert_eq!(dev.qubit_count(), 18);
/// assert_eq!(dev.full_graph().edge_count(), 18);
/// ```
///
/// # Panics
///
/// Panics if `d` is even or smaller than 3.
pub fn heavy_hex(d: usize, delays: Delays) -> Environment {
    from_graph(format!("heavy-hex-{d}"), &generate::heavy_hex(d), delays)
}

/// Synthesizes an environment from any coupling graph with uniform
/// delays: every node becomes a site named `x<i>`, every edge a coupling
/// of `delays.coupling` units (recorded as a bond, so
/// [`Environment::bond_graph`] recovers the topology).
///
/// Pairs without an edge stay at `+∞` — on hardware backends, qubits
/// that are not wired together cannot interact at any speed.
pub fn from_graph(name: impl Into<String>, graph: &Graph, delays: Delays) -> Environment {
    let mut b = Environment::builder(name);
    let sites: Vec<PhysicalQubit> = (0..graph.node_count())
        .map(|i| b.nucleus(format!("x{i}"), delays.single))
        .collect();
    for (u, v, _) in graph.edges() {
        // `Graph` stores simple edges, so each pair arrives exactly once.
        let _ = b.bond(sites[u.index()], sites[v.index()], delays.coupling);
    }
    #[allow(clippy::expect_used)]
    let env = b.build().expect("invariant: topology graphs are non-empty");
    env
}

/// Synthesizes an environment from an explicit coupling list with
/// per-edge delays: `qubits` sites named `x0..`, one coupling per
/// `(a, b, delay)` entry.
///
/// ```
/// use qcp_env::topologies::from_coupling_list;
///
/// // A 3-qubit triangle with asymmetric couplings.
/// let dev = from_coupling_list("triangle", 3,
///     [(0, 1, 10.0), (1, 2, 25.0), (0, 2, 40.0)], 1.0)?;
/// let q = |i| dev.find_nucleus(&format!("x{i}")).unwrap();
/// assert_eq!(dev.coupling(q(1), q(2)).units(), 25.0);
/// # Ok::<(), qcp_env::EnvError>(())
/// ```
///
/// # Errors
///
/// * [`EnvError::Empty`] if `qubits == 0`;
/// * [`EnvError::UnknownNucleus`] for out-of-range endpoints;
/// * [`EnvError::SelfCoupling`] / [`EnvError::DuplicateCoupling`] /
///   [`EnvError::InvalidDelay`] for malformed entries, as in
///   [`crate::EnvironmentBuilder::coupling`].
pub fn from_coupling_list(
    name: impl Into<String>,
    qubits: usize,
    couplings: impl IntoIterator<Item = (usize, usize, f64)>,
    single_delay: f64,
) -> Result<Environment> {
    let mut b = Environment::builder(name);
    let sites: Vec<PhysicalQubit> = (0..qubits)
        .map(|i| b.nucleus(format!("x{i}"), single_delay))
        .collect();
    let site = |i: usize| {
        sites
            .get(i)
            .copied()
            // Out-of-range endpoints carry the raw index so the builder's
            // range check reports it.
            .unwrap_or(PhysicalQubit::new(i))
    };
    for (a, c, delay) in couplings {
        b.bond(site(a), site(c), delay)?;
    }
    b.build()
}

/// Largest device a parsed [`TopologySpec`] may describe. An
/// [`Environment`] stores a dense `n(n+1)/2` coupling table, so a spec
/// that arrives on the command line or in a network request must not
/// name an arbitrary size; the largest device in the repository's
/// workloads is `grid:8x8`.
const MAX_QUBITS: usize = 4096;

/// A parsed device-topology specifier, the CLI's `--topology` argument.
///
/// Recognized spellings (case-sensitive, sizes in decimal, at most 4096
/// qubits):
///
/// | Spec | Device |
/// |---|---|
/// | `line:16` | [`line()`][fn@line] of 16 qubits |
/// | `ring:12` | [`ring`] of 12 qubits |
/// | `grid:8x8` | 8 × 8 [`grid`] |
/// | `heavy_hex:3` (or `heavy-hex:3`) | [`heavy_hex`] at distance 3 |
/// | `star:5` | [`star`] of 5 qubits |
///
/// ```
/// use qcp_env::topologies::{Delays, TopologySpec};
///
/// let spec: TopologySpec = "heavy_hex:3".parse()?;
/// assert_eq!(spec, TopologySpec::HeavyHex(3));
/// assert_eq!(spec.qubit_count(), 18);
/// assert_eq!(spec.to_string(), "heavy_hex:3");
/// assert!("grid:0x4".parse::<TopologySpec>().is_err());
/// let dev = spec.build(Delays::default());
/// assert_eq!(dev.qubit_count(), 18);
/// # Ok::<(), qcp_env::EnvError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// A chain of `n` qubits (`line:n`).
    Line(usize),
    /// A cycle of `n` qubits (`ring:n`).
    Ring(usize),
    /// A `rows × cols` lattice (`grid:RxC`).
    Grid(usize, usize),
    /// A heavy-hex lattice at distance `d` (`heavy_hex:d`).
    HeavyHex(usize),
    /// A hub with `n - 1` leaves (`star:n`).
    Star(usize),
}

impl TopologySpec {
    /// Number of qubits the built device will have (`usize::MAX` when
    /// the count overflows, which no parsed spec does).
    pub fn qubit_count(&self) -> usize {
        self.checked_qubit_count().unwrap_or(usize::MAX)
    }

    fn checked_qubit_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::Line(n) | TopologySpec::Ring(n) | TopologySpec::Star(n) => Some(n),
            TopologySpec::Grid(r, c) => r.checked_mul(c),
            TopologySpec::HeavyHex(d) => {
                Some(d.checked_mul(d.checked_mul(5)?.checked_sub(3)?)? / 2)
            }
        }
    }

    /// Builds the environment under the given delay profile.
    pub fn build(&self, delays: Delays) -> Environment {
        match *self {
            TopologySpec::Line(n) => line(n, delays),
            TopologySpec::Ring(n) => ring(n, delays),
            TopologySpec::Grid(r, c) => grid(r, c, delays),
            TopologySpec::HeavyHex(d) => heavy_hex(d, delays),
            TopologySpec::Star(n) => star(n, delays),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Line(n) => write!(f, "line:{n}"),
            TopologySpec::Ring(n) => write!(f, "ring:{n}"),
            TopologySpec::Grid(r, c) => write!(f, "grid:{r}x{c}"),
            TopologySpec::HeavyHex(d) => write!(f, "heavy_hex:{d}"),
            TopologySpec::Star(n) => write!(f, "star:{n}"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = EnvError;

    fn from_str(s: &str) -> Result<Self> {
        let bad = |reason: &str| EnvError::BadTopology {
            spec: s.to_string(),
            reason: reason.to_string(),
        };
        let (family, size) = s
            .split_once(':')
            .ok_or_else(|| bad("expected `<family>:<size>`, e.g. `grid:8x8` or `line:16`"))?;
        let parse_n = |text: &str| {
            text.parse::<usize>()
                .map_err(|_| bad("size must be a decimal integer"))
        };
        let spec = match family {
            "line" => TopologySpec::Line(parse_n(size)?),
            "ring" => TopologySpec::Ring(parse_n(size)?),
            "star" => TopologySpec::Star(parse_n(size)?),
            "heavy_hex" | "heavy-hex" => TopologySpec::HeavyHex(parse_n(size)?),
            "grid" => {
                let (r, c) = size
                    .split_once('x')
                    .ok_or_else(|| bad("grid size must be `<rows>x<cols>`, e.g. `grid:8x8`"))?;
                TopologySpec::Grid(parse_n(r)?, parse_n(c)?)
            }
            _ => {
                return Err(bad(
                    "unknown family; expected line, ring, grid, heavy_hex, or star",
                ))
            }
        };
        match spec {
            TopologySpec::Line(0) | TopologySpec::Star(0) => Err(bad("needs at least 1 qubit")),
            TopologySpec::Ring(n) if n < 3 => Err(bad("a ring needs at least 3 qubits")),
            TopologySpec::Grid(r, c) if r == 0 || c == 0 => {
                Err(bad("grid dimensions must be positive"))
            }
            TopologySpec::HeavyHex(d) if d < 3 || d % 2 == 0 => {
                Err(bad("heavy-hex distance must be odd and at least 3"))
            }
            ok => match ok.checked_qubit_count() {
                Some(n) if n <= MAX_QUBITS => Ok(ok),
                _ => Err(bad(&format!("more than {MAX_QUBITS} qubits"))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Threshold;
    use qcp_graph::traversal::is_connected;

    #[test]
    fn line_matches_lnn_chain() {
        let dev = line(6, Delays::uniform(10.0));
        let lnn = crate::molecules::lnn_chain(6, 10.0);
        assert_eq!(dev.qubit_count(), lnn.qubit_count());
        for i in dev.qubits() {
            for j in dev.qubits() {
                if i < j {
                    assert_eq!(dev.weight_units(i, j), lnn.weight_units(i, j));
                }
            }
        }
    }

    #[test]
    fn shapes_and_counts() {
        assert_eq!(ring(8, Delays::default()).full_graph().edge_count(), 8);
        assert_eq!(grid(4, 4, Delays::default()).full_graph().edge_count(), 24);
        assert_eq!(star(7, Delays::default()).full_graph().max_degree(), 6);
        let hh = heavy_hex(5, Delays::default());
        assert_eq!(hh.qubit_count(), 55);
        assert_eq!(hh.full_graph().edge_count(), 60);
        assert!(hh.full_graph().max_degree() <= 3);
    }

    #[test]
    fn delays_are_applied() {
        let dev = ring(5, Delays::new(2.0, 33.0));
        let q = |i| PhysicalQubit::new(i);
        assert_eq!(dev.single_qubit_delay(q(0)).units(), 2.0);
        assert_eq!(dev.coupling(q(0), q(1)).units(), 33.0);
        // Non-adjacent pairs cannot interact.
        assert_eq!(dev.weight_units(q(0), q(2)), f64::INFINITY);
    }

    #[test]
    fn bond_graph_recovers_topology() {
        let dev = grid(3, 3, Delays::default());
        let bonds = dev.bond_graph();
        assert_eq!(bonds.edge_count(), 12);
        assert!(is_connected(&bonds));
        // Connectivity threshold is just above the uniform coupling.
        let t = dev.connectivity_threshold().unwrap();
        assert!(t.is_fast(10.0));
        assert!(!t.is_fast(10.1));
    }

    #[test]
    fn coupling_list_errors_propagate() {
        assert!(matches!(
            from_coupling_list("dup", 3, [(0, 1, 5.0), (1, 0, 6.0)], 1.0).unwrap_err(),
            EnvError::DuplicateCoupling(..)
        ));
        assert!(matches!(
            from_coupling_list("range", 2, [(0, 7, 5.0)], 1.0).unwrap_err(),
            EnvError::UnknownNucleus { .. }
        ));
        assert!(matches!(
            from_coupling_list("self", 2, [(1, 1, 5.0)], 1.0).unwrap_err(),
            EnvError::SelfCoupling(..)
        ));
        assert!(matches!(
            from_coupling_list("nan", 2, [(0, 1, f64::NAN)], 1.0).unwrap_err(),
            EnvError::InvalidDelay { .. }
        ));
        assert!(matches!(
            from_coupling_list("empty", 0, [], 1.0).unwrap_err(),
            EnvError::Empty
        ));
    }

    #[test]
    fn spec_parse_roundtrip() {
        for text in ["line:16", "ring:12", "grid:8x8", "heavy_hex:3", "star:5"] {
            let spec: TopologySpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(
                spec.build(Delays::default()).qubit_count(),
                spec.qubit_count()
            );
        }
        assert_eq!(
            "heavy-hex:5".parse::<TopologySpec>().unwrap(),
            TopologySpec::HeavyHex(5)
        );
    }

    #[test]
    fn spec_rejects_malformed_and_degenerate() {
        for text in [
            "grid",
            "grid:8",
            "grid:0x4",
            "grid:4x",
            "torus:5",
            "line:zero",
            "line:0",
            "ring:2",
            "heavy_hex:4",
            "heavy_hex:1",
            "",
        ] {
            let err = text.parse::<TopologySpec>().unwrap_err();
            assert!(
                matches!(&err, EnvError::BadTopology { spec, .. } if spec == text),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn spec_rejects_devices_over_the_qubit_cap() {
        for text in ["line:4096", "grid:64x64", "heavy_hex:39"] {
            let spec: TopologySpec = text.parse().unwrap();
            assert!(spec.qubit_count() <= MAX_QUBITS, "{text}");
        }
        for text in [
            "line:4097",
            "ring:100000",
            "star:18446744073709551615",
            "grid:64x65",
            // rows × cols overflows a 64-bit usize.
            "grid:4294967296x4294967296",
            "heavy_hex:41",
            // 5d overflows before the product does.
            "heavy_hex:9999999999999999999",
        ] {
            let err = text.parse::<TopologySpec>().unwrap_err();
            assert!(
                err.to_string().contains("more than 4096 qubits"),
                "{text}: {err}"
            );
        }
        assert_eq!(TopologySpec::Grid(usize::MAX, 2).qubit_count(), usize::MAX);
    }

    #[test]
    fn placement_runs_on_synthesized_devices() {
        // The whole point: fast graphs and thresholds work unchanged.
        let dev = heavy_hex(3, Delays::default());
        let fast = dev.fast_graph(Threshold::new(10.5));
        assert_eq!(fast.edge_count(), 18);
        assert!(is_connected(&fast));
    }
}
