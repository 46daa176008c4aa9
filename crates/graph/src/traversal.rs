//! Breadth-first traversal, connectivity, and shortest paths.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Returns the nodes reachable from `start` in BFS order (including
/// `start` itself).
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_order(graph: &Graph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for u in graph.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Hop distances from `start` to every node; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_distances(graph: &Graph, start: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back((start, 0u32));
    while let Some((v, d)) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back((u, d + 1));
            }
        }
    }
    dist
}

/// Returns `true` if the graph is connected (the empty graph and the
/// single-node graph are connected).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() <= 1 {
        return true;
    }
    bfs_order(graph, NodeId::new(0)).len() == graph.node_count()
}

/// Partitions the nodes into connected components, each in BFS order.
/// Components are listed in order of their smallest node.
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for v in graph.nodes() {
        if seen[v.index()] {
            continue;
        }
        let comp = bfs_order(graph, v);
        for &u in &comp {
            seen[u.index()] = true;
        }
        components.push(comp);
    }
    components
}

/// Returns a shortest (fewest hops) path from `a` to `b`, inclusive of both
/// endpoints, or `None` if `b` is unreachable.
///
/// # Panics
///
/// Panics if `a` or `b` is out of range.
pub fn shortest_path(graph: &Graph, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
    if a == b {
        return Some(vec![a]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[a.index()] = true;
    queue.push_back(a);
    while let Some(v) = queue.pop_front() {
        for u in graph.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                prev[u.index()] = Some(v);
                if u == b {
                    let mut path = vec![b];
                    let mut cur = b;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(u);
            }
        }
    }
    None
}

/// Diameter (longest shortest path) of a connected graph, or `None` if the
/// graph is disconnected or empty.
pub fn diameter(graph: &Graph) -> Option<u32> {
    if graph.node_count() == 0 || !is_connected(graph) {
        return None;
    }
    let mut best = 0;
    for v in graph.nodes() {
        for d in bfs_distances(graph, v).into_iter().flatten() {
            best = best.max(d);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bfs_covers_component() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let order = bfs_order(&g, n(0));
        assert_eq!(order, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn distances_on_chain() {
        let g = generate::chain(5);
        let d = bfs_distances(&g, n(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn distances_unreachable() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, n(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
        assert!(is_connected(&generate::ring(7)));
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_partition_nodes() {
        let g = Graph::from_edges(6, [(0, 2), (2, 4), (1, 3)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn shortest_path_on_ring() {
        let g = generate::ring(6);
        let p = shortest_path(&g, n(0), n(3)).unwrap();
        assert_eq!(p.len(), 4); // 3 hops either way
        assert_eq!(p[0], n(0));
        assert_eq!(p[3], n(3));
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_trivial_and_missing() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(shortest_path(&g, n(1), n(1)), Some(vec![n(1)]));
        assert_eq!(shortest_path(&g, n(0), n(2)), None);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generate::chain(5)), Some(4));
        assert_eq!(diameter(&generate::ring(6)), Some(3));
        assert_eq!(diameter(&generate::complete(4)), Some(1));
        assert_eq!(diameter(&Graph::new(2)), None);
    }
}
