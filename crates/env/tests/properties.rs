#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property-based tests for physical environments.

use proptest::prelude::*;

use qcp_env::topologies::{self, Delays, TopologySpec};
use qcp_env::{molecules, text, Threshold};
use qcp_graph::traversal::is_connected;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_graph_monotone_in_threshold(seed in any::<u64>(), n in 3usize..12) {
        let env = molecules::random_molecule(n, seed);
        let mut last_edges = 0usize;
        for t in [10.0, 30.0, 100.0, 300.0, 1000.0, 1e7] {
            let g = env.fast_graph(Threshold::new(t));
            prop_assert!(g.edge_count() >= last_edges, "fast graph must grow with threshold");
            // Every fast edge weight is strictly below the threshold.
            for (_, _, w) in g.edges() {
                prop_assert!(w < t);
            }
            last_edges = g.edge_count();
        }
    }

    #[test]
    fn connectivity_threshold_is_tight(seed in any::<u64>(), n in 2usize..12) {
        let env = molecules::random_molecule(n, seed);
        let t = env.connectivity_threshold().expect("random molecules are connected");
        prop_assert!(is_connected(&env.fast_graph(t)));
        // Strictly below the bottleneck weight the graph disconnects.
        let bottleneck = t.units();
        let just_below = Threshold::new(bottleneck * (1.0 - 1e-9));
        if n > 1 {
            prop_assert!(!is_connected(&env.fast_graph(just_below)));
        }
    }

    #[test]
    fn env_text_roundtrip_random(seed in any::<u64>(), n in 2usize..10) {
        let env = molecules::random_molecule(n, seed);
        let round = text::parse(&text::to_text(&env)).unwrap();
        prop_assert_eq!(round.qubit_count(), env.qubit_count());
        for i in env.qubits() {
            for j in env.qubits() {
                if i < j {
                    prop_assert_eq!(round.weight_units(i, j), env.weight_units(i, j));
                }
            }
        }
    }

    #[test]
    fn remote_fill_never_faster_than_bond_path(seed in any::<u64>(), n in 3usize..10) {
        // Filled couplings grow with bond distance: any filled pair is at
        // least as slow as the slowest bond (they are sums * growth).
        let env = molecules::random_molecule(n, seed);
        let bonds = env.bond_graph();
        let max_bond = bonds.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max);
        let min_bond = bonds.edges().map(|(_, _, w)| w).fold(f64::INFINITY, f64::min);
        for i in env.qubits() {
            for j in env.qubits() {
                if i < j
                    && !bonds.has_edge(
                        qcp_graph::NodeId::new(i.index()),
                        qcp_graph::NodeId::new(j.index()),
                    )
                {
                    let w = env.weight_units(i, j);
                    if w.is_finite() {
                        prop_assert!(w >= 2.0 * min_bond, "remote {w} vs bonds [{min_bond}, {max_bond}]");
                    }
                }
            }
        }
    }

    #[test]
    fn chains_and_grids_have_uniform_fast_graphs(n in 2usize..20) {
        let env = molecules::lnn_chain(n, 10.0);
        let fast = env.fast_graph(Threshold::new(10.5));
        prop_assert_eq!(fast.edge_count(), n - 1);
        prop_assert!(is_connected(&fast));
        prop_assert!(fast.max_degree() <= 2);
    }

    #[test]
    fn synthesized_topologies_are_connected_with_advertised_counts(
        n in 1usize..24,
        rows in 1usize..7,
        cols in 1usize..7,
        hh in 1usize..4,
    ) {
        let delays = Delays::default();
        // (environment, advertised node count, advertised edge count)
        let d = 2 * hh + 1; // odd heavy-hex distance 3, 5, or 7
        let zoo = [
            (topologies::line(n, delays), n, n - 1),
            (topologies::grid(rows, cols, delays), rows * cols,
             rows * (cols - 1) + cols * (rows - 1)),
            (topologies::star(n, delays), n, n - 1),
            (topologies::heavy_hex(d, delays), d * (5 * d - 3) / 2, 3 * d * (d - 1)),
        ];
        for (env, nodes, edges) in zoo {
            let g = env.full_graph();
            prop_assert_eq!(env.qubit_count(), nodes, "nodes of {}", env.name());
            prop_assert_eq!(g.edge_count(), edges, "edges of {}", env.name());
            prop_assert!(is_connected(&g), "{} must be connected", env.name());
            // The bond graph is the coupling map itself.
            prop_assert_eq!(env.bond_graph().edge_count(), edges);
        }
        if n >= 3 {
            let env = topologies::ring(n, delays);
            prop_assert_eq!(env.qubit_count(), n);
            prop_assert_eq!(env.full_graph().edge_count(), n);
            prop_assert!(is_connected(&env.full_graph()));
        }
    }

    #[test]
    fn topology_delays_are_uniform_and_exclusive(
        rows in 1usize..6,
        cols in 1usize..6,
        single in 0.5f64..4.0,
        coupling in 5.0f64..50.0,
    ) {
        let env = topologies::grid(rows, cols, Delays::new(single, coupling));
        let bonds = env.bond_graph();
        for i in env.qubits() {
            prop_assert_eq!(env.single_qubit_delay(i).units(), single);
            for j in env.qubits() {
                if i < j {
                    let w = env.weight_units(i, j);
                    let wired = bonds.has_edge(
                        qcp_graph::NodeId::new(i.index()),
                        qcp_graph::NodeId::new(j.index()),
                    );
                    // Wired pairs carry exactly the uniform coupling
                    // delay; everything else is physically unusable.
                    prop_assert_eq!(w, if wired { coupling } else { f64::INFINITY });
                }
            }
        }
    }

    #[test]
    fn topology_spec_roundtrips_and_builds(kind in 0usize..5, a in 1usize..10, b in 1usize..10) {
        let spec = match kind {
            0 => TopologySpec::Line(a),
            1 => TopologySpec::Ring(a.max(3)),
            2 => TopologySpec::Grid(a, b),
            // Odd distances 3..=13; heavy_hex:15 is over the qubit cap.
            3 => TopologySpec::HeavyHex(2 * (1 + a % 6) + 1),
            _ => TopologySpec::Star(a),
        };
        let reparsed: TopologySpec = spec.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, spec);
        let env = spec.build(Delays::default());
        prop_assert_eq!(env.qubit_count(), spec.qubit_count());
        prop_assert!(is_connected(&env.full_graph()));
    }
}
