//! Graph generators for tests, benchmarks, and synthetic environments.

// Every generator assembles an edge list that is simple and in-range by
// construction, so the `Graph` constructors cannot fail; the `expect`s
// below document those invariants (scoped allow per the workspace
// unwrap/expect policy).
#![allow(clippy::expect_used)]

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, NodeId};

/// A path (chain) graph `0 - 1 - … - (n-1)`.
///
/// This is the paper's *linear nearest neighbour* architecture.
pub fn chain(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("chain edges are valid")
}

/// A cycle graph on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (smaller cycles are not simple graphs).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes, got {n}");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("ring edges are valid")
}

/// A star graph: node 0 joined to nodes `1..n`.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (0, i))).expect("star edges are valid")
}

/// The complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))))
        .expect("complete graph edges are valid")
}

/// An `rows × cols` grid (2D lattice) graph, row-major node numbering.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).expect("grid edges are valid")
}

/// The heavy-hex lattice of IBM-style superconducting devices: `d` rows
/// of `2d - 1` qubits joined into chains, with vertical *connector*
/// qubits between adjacent rows at alternating columns (columns `≡ 0
/// (mod 4)` below even rows, `≡ 2 (mod 4)` below odd rows). Every cycle
/// is a subdivided hexagon and no node exceeds degree 3 — the "heavy"
/// property that motivates the lattice.
///
/// For odd `d ≥ 3` the graph has exactly `d(5d - 3)/2` nodes and
/// `3d(d - 1)` edges. Row qubit `(r, c)` is node `r·(2d - 1) + c`;
/// connectors are numbered after all row qubits in `(row gap, column)`
/// order.
///
/// # Panics
///
/// Panics if `d` is even or smaller than 3.
pub fn heavy_hex(d: usize) -> Graph {
    assert!(
        d >= 3 && d % 2 == 1,
        "heavy-hex distance must be odd and at least 3, got {d}"
    );
    let cols = 2 * d - 1;
    let row_qubits = d * cols;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Horizontal chains.
    for r in 0..d {
        for c in 1..cols {
            edges.push((r * cols + c - 1, r * cols + c));
        }
    }
    // Vertical connectors, alternating column phase per row gap.
    let mut connector = row_qubits;
    for gap in 0..d - 1 {
        let phase = 2 * (gap % 2);
        for c in (phase..cols).step_by(4) {
            edges.push((gap * cols + c, connector));
            edges.push((connector, (gap + 1) * cols + c));
            connector += 1;
        }
    }
    Graph::from_edges(connector, edges).expect("heavy-hex edges are valid")
}

/// A caterpillar tree: a spine chain of `spine` nodes, each carrying `legs`
/// pendant leaves. Models the bond graphs of linear molecules such as
/// trans-crotonic acid.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut edges: Vec<(usize, usize)> = (1..spine).map(|i| (i - 1, i)).collect();
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            edges.push((s, next));
            next += 1;
        }
    }
    Graph::from_edges(n, edges).expect("caterpillar edges are valid")
}

/// A uniformly random labelled tree on `n` nodes (Prüfer-like attachment:
/// each node `i ≥ 1` picks a random earlier parent).
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        g.add_edge(NodeId::new(p), NodeId::new(i), 1.0)
            .expect("tree edge is fresh");
    }
    g
}

/// A random tree whose maximum degree never exceeds `max_degree ≥ 2`.
///
/// Bounded-degree graphs are the paper's model of physically realizable
/// architectures (Appendix, Theorem 1).
///
/// # Panics
///
/// Panics if `max_degree < 2` and `n > 2`.
pub fn bounded_degree_tree(n: usize, max_degree: usize, rng: &mut impl Rng) -> Graph {
    if n > 2 {
        assert!(
            max_degree >= 2,
            "max_degree must be at least 2, got {max_degree}"
        );
    }
    let mut g = Graph::new(n);
    let mut degree = vec![0usize; n];
    let mut open: Vec<usize> = if n > 0 { vec![0] } else { vec![] };
    for i in 1..n {
        let slot = rng.gen_range(0..open.len());
        let p = open[slot];
        g.add_edge(NodeId::new(p), NodeId::new(i), 1.0)
            .expect("tree edge is fresh");
        degree[p] += 1;
        degree[i] += 1;
        if degree[p] >= max_degree {
            open.swap_remove(slot);
        }
        if degree[i] < max_degree {
            open.push(i);
        }
    }
    g
}

/// A connected random graph: a random tree plus `extra_edges` additional
/// uniformly random non-parallel edges (fewer if the graph saturates).
pub fn random_connected(n: usize, extra_edges: usize, rng: &mut impl Rng) -> Graph {
    let mut g = random_tree(n, rng);
    let max_extra = n * (n - 1) / 2 - g.edge_count();
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_edges.min(max_extra) && attempts < 50 * (extra_edges + 1) {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)) {
            g.add_edge(NodeId::new(a), NodeId::new(b), 1.0)
                .expect("checked fresh");
            added += 1;
        }
    }
    g
}

/// An Erdős–Rényi `G(n, p)` random graph (possibly disconnected).
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(NodeId::new(i), NodeId::new(j), 1.0)
                    .expect("fresh edge");
            }
        }
    }
    g
}

/// A uniformly random permutation of `0..n`, returned as the image array
/// (`perm[i]` is where `i` maps). Convenience for router tests and perf cases.
pub fn random_permutation(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let g = chain(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(is_connected(&g));
        assert_eq!(chain(1).edge_count(), 0);
        assert_eq!(chain(0).node_count(), 0);
    }

    #[test]
    fn ring_shape() {
        let g = ring(5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_ring_panics() {
        let _ = ring(2);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(NodeId::new(0)), 5);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(is_connected(&g));
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn heavy_hex_shape() {
        for d in [3usize, 5, 7] {
            let g = heavy_hex(d);
            assert_eq!(g.node_count(), d * (5 * d - 3) / 2, "nodes at d={d}");
            assert_eq!(g.edge_count(), 3 * d * (d - 1), "edges at d={d}");
            assert!(is_connected(&g), "connected at d={d}");
            assert!(g.max_degree() <= 3, "heavy property at d={d}");
        }
    }

    #[test]
    #[should_panic(expected = "odd and at least 3")]
    fn heavy_hex_rejects_even_distance() {
        let _ = heavy_hex(4);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 11); // a tree
        assert!(is_connected(&g));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 33] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn bounded_degree_respected() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 2..=5 {
            let g = bounded_degree_tree(40, k, &mut rng);
            assert!(is_connected(&g));
            assert!(g.max_degree() <= k, "degree {} > {k}", g.max_degree());
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_connected(20, 15, &mut rng);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 19);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(gnp(6, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng).edge_count(), 15);
    }

    #[test]
    fn permutation_is_bijection() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = random_permutation(10, &mut rng);
        let mut seen = [false; 10];
        for &x in &p {
            assert!(!seen[x]);
            seen[x] = true;
        }
    }
}
