#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use qcp_graph::bisection::{balanced_connected_bisection, worst_recursive_ratio};
use qcp_graph::hamiltonian::{find_hamiltonian_cycle, is_hamiltonian_cycle};
use qcp_graph::traversal::{bfs_distances, connected_components, is_connected, shortest_path};
use qcp_graph::vf2::{is_monomorphism, Budget, MonomorphismFinder};
use qcp_graph::{canonical, generate, Graph, NodeId};

/// Every monomorphism up to the finder's limit, through the metered
/// kernel production runs, under an unlimited meter.
fn all_maps(finder: MonomorphismFinder<'_>) -> Vec<Vec<NodeId>> {
    finder.collect_budgeted(&mut Budget::unlimited(), None).0
}

/// Naive adjacency model the CSR + bitset [`Graph`] must agree with.
struct NaiveGraph {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl NaiveGraph {
    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges
            .iter()
            .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    fn weight(&self, a: usize, b: usize) -> Option<f64> {
        self.edges
            .iter()
            .find(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
            .map(|&(_, _, w)| w)
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|&(x, y, _)| {
                if x == v {
                    Some(y)
                } else if y == v {
                    Some(x)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }
}

fn arb_weighted_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=max_n, 0.0f64..1.0, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rand::Rng::gen_bool(&mut rng, p) {
                    edges.push((i, j, rand::Rng::gen_range(&mut rng, 0.0..100.0)));
                }
            }
        }
        (n, edges)
    })
}

/// The pre-refactor VF2 (per-depth candidate collect-and-sort over
/// neighbour iterators, no look-ahead), kept as an oracle for both the
/// solution *set* and the enumeration *order* of the bitset search.
mod oracle {
    use qcp_graph::{Graph, NodeId};

    fn variable_order(pattern: &Graph) -> Vec<NodeId> {
        let pn = pattern.node_count();
        let mut ordered = Vec::with_capacity(pn);
        let mut placed = vec![false; pn];
        let mut anchored = vec![0usize; pn];
        for _ in 0..pn {
            let next = (0..pn)
                .filter(|&i| !placed[i])
                .max_by_key(|&i| {
                    (
                        anchored[i],
                        pattern.degree(NodeId::new(i)),
                        std::cmp::Reverse(i),
                    )
                })
                .expect("an unplaced node exists");
            placed[next] = true;
            ordered.push(NodeId::new(next));
            for u in pattern.neighbors(NodeId::new(next)) {
                anchored[u.index()] += 1;
            }
        }
        ordered
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        pattern: &Graph,
        target: &Graph,
        order: &[NodeId],
        mapping: &mut Vec<u32>,
        used: &mut Vec<bool>,
        depth: usize,
        limit: usize,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if out.len() >= limit {
            return;
        }
        if depth == order.len() {
            out.push(
                mapping
                    .iter()
                    .map(|&t| NodeId::new(t as usize))
                    .collect::<Vec<_>>(),
            );
            return;
        }
        let p = order[depth];
        let pdeg = pattern.degree(p);
        let mapped_neighbor = pattern
            .neighbors(p)
            .filter(|u| mapping[u.index()] != u32::MAX)
            .min_by_key(|u| target.degree(NodeId::new(mapping[u.index()] as usize)));
        let candidates: Vec<NodeId> = match mapped_neighbor {
            Some(u) => {
                let img = NodeId::new(mapping[u.index()] as usize);
                let mut c: Vec<NodeId> =
                    target.neighbors(img).filter(|w| !used[w.index()]).collect();
                c.sort_unstable();
                c
            }
            None => target.nodes().filter(|w| !used[w.index()]).collect(),
        };
        for w in candidates {
            if target.degree(w) < pdeg {
                continue;
            }
            let consistent = pattern.neighbors(p).all(|u| {
                let img = mapping[u.index()];
                img == u32::MAX || target.has_edge(NodeId::new(img as usize), w)
            });
            if !consistent {
                continue;
            }
            mapping[p.index()] = w.index() as u32;
            used[w.index()] = true;
            extend(pattern, target, order, mapping, used, depth + 1, limit, out);
            used[w.index()] = false;
            mapping[p.index()] = u32::MAX;
            if out.len() >= limit {
                return;
            }
        }
    }

    /// Enumerates up to `limit` monomorphisms in pre-refactor order.
    pub fn find_all(pattern: &Graph, target: &Graph, limit: usize) -> Vec<Vec<NodeId>> {
        let pn = pattern.node_count();
        let tn = target.node_count();
        let mut out = Vec::new();
        if pn > tn {
            return out;
        }
        if pn == 0 {
            out.push(Vec::new());
            return out;
        }
        let order = variable_order(pattern);
        let mut mapping = vec![u32::MAX; pn];
        let mut used = vec![false; tn];
        extend(
            pattern,
            target,
            &order,
            &mut mapping,
            &mut used,
            0,
            limit,
            &mut out,
        );
        out
    }
}

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n, 0usize..=12, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_connected(n, extra, &mut rng)
    })
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1usize..=max_n, 0.0f64..1.0, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::gnp(n, p, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn components_partition(g in arb_graph(14)) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        let mut seen = vec![false; g.node_count()];
        for comp in &comps {
            for &v in comp {
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
            // Every component is internally connected.
            let (sub, _) = g.induced(comp).unwrap();
            prop_assert!(is_connected(&sub));
        }
        // No edges between components.
        for (a, b, _) in g.edges() {
            let ca = comps.iter().position(|c| c.contains(&a));
            let cb = comps.iter().position(|c| c.contains(&b));
            prop_assert_eq!(ca, cb);
        }
    }

    #[test]
    fn bfs_distance_triangle_inequality(g in arb_connected_graph(12)) {
        let d0 = bfs_distances(&g, NodeId::new(0));
        for (a, b, _) in g.edges() {
            let da = d0[a.index()].unwrap() as i64;
            let db = d0[b.index()].unwrap() as i64;
            prop_assert!((da - db).abs() <= 1, "edge endpoints differ by more than 1");
        }
    }

    #[test]
    fn shortest_path_is_shortest(g in arb_connected_graph(10)) {
        let d = bfs_distances(&g, NodeId::new(0));
        for v in g.nodes() {
            let p = shortest_path(&g, NodeId::new(0), v).unwrap();
            prop_assert_eq!(p.len() as u32 - 1, d[v.index()].unwrap());
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn bisection_halves_are_connected_and_balanced(g in arb_connected_graph(16)) {
        let b = balanced_connected_bisection(&g).unwrap();
        prop_assert_eq!(b.left.len() + b.right.len(), g.node_count());
        prop_assert!(!b.channel.is_empty());
        for half in [&b.left, &b.right] {
            let (sub, _) = g.induced(half).unwrap();
            prop_assert!(is_connected(&sub));
        }
        // Theorem 1: ratio >= 1/max_degree (up to floor effects for tiny n).
        let k = g.max_degree() as f64;
        let bound = ((g.node_count() as f64 - 1.0) / k).floor().max(1.0);
        prop_assert!(b.left.len() as f64 >= bound - 1e-9,
            "left={} bound={} k={}", b.left.len(), bound, k);
    }

    #[test]
    fn recursive_separability_bounded_degree(seed in any::<u64>(), n in 4usize..24, k in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::bounded_degree_tree(n, k, &mut rng);
        let s = worst_recursive_ratio(&g).unwrap();
        // Theorem 1 guarantees s >= 1/k asymptotically; small graphs can
        // only do integer splits, so allow the floor-induced slack.
        prop_assert!(s > 0.0);
        prop_assert!(s >= 1.0 / (n as f64), "degenerate separability {s}");
    }

    #[test]
    fn vf2_maps_are_valid(seed in any::<u64>(), pn in 2usize..5, tn in 5usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::random_tree(pn, &mut rng);
        let t = generate::random_connected(tn, 4, &mut rng);
        for m in all_maps(MonomorphismFinder::new(&p, &t).limit(50)) {
            prop_assert!(is_monomorphism(&p, &t, &m));
        }
    }

    #[test]
    fn vf2_self_embedding_always_exists(g in arb_connected_graph(10)) {
        prop_assert!(!all_maps(MonomorphismFinder::new(&g, &g).limit(1)).is_empty());
    }

    #[test]
    fn vf2_subchain_embeds_into_chain(n in 2usize..10, m in 10usize..14) {
        let p = generate::chain(n);
        let t = generate::chain(m);
        // Exactly 2 * (m - n + 1) embeddings of a path into a longer path.
        prop_assert_eq!(all_maps(MonomorphismFinder::new(&p, &t)).len(), 2 * (m - n + 1));
    }

    #[test]
    fn hamiltonian_cycles_are_valid(g in arb_connected_graph(9)) {
        if let Some(c) = find_hamiltonian_cycle(&g) {
            prop_assert!(is_hamiltonian_cycle(&g, &c));
        }
    }

    #[test]
    fn ring_plus_chords_stays_hamiltonian(n in 4usize..9, seed in any::<u64>()) {
        // Start from a ring (Hamiltonian by construction) and add chords;
        // the solver must still find a cycle.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generate::ring(n);
        for _ in 0..n {
            let a = rand::Rng::gen_range(&mut rng, 0..n);
            let b = rand::Rng::gen_range(&mut rng, 0..n);
            if a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)) {
                g.add_edge(NodeId::new(a), NodeId::new(b), 1.0).unwrap();
            }
        }
        let c = find_hamiltonian_cycle(&g);
        prop_assert!(c.is_some());
        prop_assert!(is_hamiltonian_cycle(&g, &c.unwrap()));
    }

    #[test]
    fn csr_bitset_agrees_with_naive_model((n, edges) in arb_weighted_edges(20)) {
        let naive = NaiveGraph { n, edges: edges.clone() };
        let g = Graph::from_weighted_edges(n, edges).unwrap();
        prop_assert_eq!(g.node_count(), naive.n);
        prop_assert_eq!(g.edge_count(), naive.edges.len());
        for a in 0..n {
            let nb: Vec<usize> = g.neighbors(NodeId::new(a)).map(NodeId::index).collect();
            prop_assert_eq!(&nb, &naive.neighbors(a), "neighbors of {}", a);
            prop_assert_eq!(g.degree(NodeId::new(a)), nb.len());
            for b in 0..n {
                prop_assert_eq!(
                    g.has_edge(NodeId::new(a), NodeId::new(b)),
                    naive.has_edge(a, b) && a != b,
                    "has_edge({}, {})", a, b
                );
                prop_assert_eq!(g.weight(NodeId::new(a), NodeId::new(b)),
                    if a == b { None } else { naive.weight(a, b) });
            }
        }
        // edges() yields each edge once, lexicographically, with weights.
        let listed: Vec<(usize, usize)> =
            g.edges().map(|(a, b, _)| (a.index(), b.index())).collect();
        let mut expect: Vec<(usize, usize)> = naive
            .edges
            .iter()
            .map(|&(a, b, _)| (a.min(b), a.max(b)))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(listed, expect);
        for (a, b, w) in g.edges() {
            prop_assert_eq!(naive.weight(a.index(), b.index()), Some(w));
        }
    }

    #[test]
    fn incremental_build_matches_bulk((n, edges) in arb_weighted_edges(16)) {
        // add_edge-by-add_edge (in a scrambled order) must produce the
        // same graph as the bulk constructor.
        let bulk = Graph::from_weighted_edges(n, edges.clone()).unwrap();
        let mut shuffled = edges;
        shuffled.reverse();
        let mut inc = Graph::new(n);
        for (a, b, w) in shuffled {
            inc.add_edge(NodeId::new(a), NodeId::new(b), w).unwrap();
        }
        prop_assert_eq!(inc.edge_count(), bulk.edge_count());
        for v in 0..n {
            let a: Vec<NodeId> = inc.neighbors(NodeId::new(v)).collect();
            let b: Vec<NodeId> = bulk.neighbors(NodeId::new(v)).collect();
            prop_assert_eq!(a, b, "row {}", v);
        }
    }

    #[test]
    fn vf2_matches_pre_refactor_oracle_exactly(
        seed in any::<u64>(),
        pn in 1usize..=8,
        tn in 4usize..12,
        pp in 0.2f64..0.9,
        tp in 0.3f64..0.9,
        limit in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::gnp(pn, pp, &mut rng);
        let t = generate::gnp(tn, tp, &mut rng);
        // Both the solution set AND the enumeration order must match the
        // pre-refactor search (Table 3 depends on a stable enumeration order).
        let expect = oracle::find_all(&p, &t, limit);
        let got = all_maps(MonomorphismFinder::new(&p, &t).limit(limit));
        prop_assert_eq!(&got, &expect, "pattern {:?} target {:?}", p, t);
        for m in &got {
            prop_assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn vf2_matches_oracle_on_multiword_targets(
        seed in any::<u64>(),
        pn in 1usize..=6,
        tn in 65usize..96,
        pp in 0.2f64..0.9,
        tp in 0.15f64..0.5,
        limit in 1usize..40,
    ) {
        // Targets above 64 nodes take the general word-parallel kernel
        // (per-depth candidate stack) instead of the single-word fast
        // path; it must match the pre-refactor enumeration bit-for-bit
        // too.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::gnp(pn, pp, &mut rng);
        let t = generate::gnp(tn, tp, &mut rng);
        let expect = oracle::find_all(&p, &t, limit);
        let got = all_maps(MonomorphismFinder::new(&p, &t).limit(limit));
        prop_assert_eq!(&got, &expect, "pattern {:?} target {:?}", p, t);
        for m in &got {
            prop_assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn vf2_count_matches_brute_force(
        seed in any::<u64>(),
        pn in 1usize..=5,
        tn in 4usize..9,
        pp in 0.2f64..0.9,
        tp in 0.3f64..0.9,
    ) {
        fn brute(p: &Graph, t: &Graph, map: &mut Vec<Option<NodeId>>, used: &mut Vec<bool>, i: usize) -> usize {
            if i == p.node_count() {
                return 1;
            }
            let mut total = 0;
            for w in t.nodes() {
                if used[w.index()] {
                    continue;
                }
                let ok = p.neighbors(NodeId::new(i)).all(|u| match map[u.index()] {
                    Some(img) => t.has_edge(img, w),
                    None => true,
                });
                if ok {
                    map[i] = Some(w);
                    used[w.index()] = true;
                    total += brute(p, t, map, used, i + 1);
                    used[w.index()] = false;
                    map[i] = None;
                }
            }
            total
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::gnp(pn, pp, &mut rng);
        let t = generate::gnp(tn, tp, &mut rng);
        let mut map = vec![None; p.node_count()];
        let mut used = vec![false; t.node_count()];
        prop_assert_eq!(
            all_maps(MonomorphismFinder::new(&p, &t)).len(),
            brute(&p, &t, &mut map, &mut used, 0),
            "pattern {:?} target {:?}", p, t
        );
    }

    #[test]
    fn vf2_large_target_kernel_agrees_with_small(
        seed in any::<u64>(),
        pn in 2usize..=6,
    ) {
        // A >64-node target exercises the multi-word kernel; embedding the
        // same pattern into the first 60 nodes' induced subgraph (same
        // edges) exercises the single-word kernel. A pattern that only
        // fits in the low-index region must enumerate identically.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::random_tree(pn, &mut rng);
        let big = generate::chain(80);
        let small = generate::chain(60);
        let from_big: Vec<_> = all_maps(MonomorphismFinder::new(&p, &big).limit(40))
            .into_iter()
            .filter(|m| m.iter().all(|v| v.index() < 60))
            .collect();
        let from_small = all_maps(MonomorphismFinder::new(&p, &small).limit(40));
        // Every small-kernel solution appears in the big-kernel stream
        // (possibly truncated differently by the limit); compare prefixes.
        let common = from_big.len().min(from_small.len());
        prop_assert_eq!(&from_big[..common], &from_small[..common]);
    }

    #[test]
    fn vf2_budgeted_search_is_a_prefix_and_never_panics(
        seed in any::<u64>(),
        pn in 2usize..=5,
        cap in 0u64..400,
    ) {
        use qcp_graph::vf2::Outcome;
        let mut rng = StdRng::seed_from_u64(seed);
        let p = generate::random_tree(pn, &mut rng);
        let t = generate::random_connected(9, 4, &mut rng);
        let all = oracle::find_all(&p, &t, usize::MAX);
        let mut budget = Budget::max_nodes(cap);
        let mut got: Vec<Vec<NodeId>> = Vec::new();
        let run = MonomorphismFinder::new(&p, &t).for_each_budgeted(&mut budget, &mut |m| {
            got.push(m.to_vec());
            std::ops::ControlFlow::Continue(())
        });
        // The budget removes a suffix of the enumeration, never reorders.
        prop_assert_eq!(&got[..], &all[..got.len()]);
        prop_assert!(run.nodes <= cap);
        match run.outcome {
            Outcome::Complete => prop_assert_eq!(got.len(), all.len()),
            Outcome::BudgetExhausted => prop_assert!(budget.is_exhausted()),
        }
    }

    #[test]
    fn induced_preserves_adjacency(g in arb_graph(12), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keep: Vec<NodeId> = g
            .nodes()
            .filter(|_| rand::Rng::gen_bool(&mut rng, 0.6))
            .collect();
        let (sub, back) = g.induced(&keep).unwrap();
        for i in 0..sub.node_count() {
            for j in i + 1..sub.node_count() {
                prop_assert_eq!(
                    sub.has_edge(NodeId::new(i), NodeId::new(j)),
                    g.has_edge(back[i], back[j])
                );
            }
        }
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rand::Rng::gen_range(rng, 0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Relabels a graph through `perm` (`perm[old] = new`).
fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    let edges: Vec<(usize, usize, f64)> = g
        .edges()
        .map(|(a, b, w)| (perm[a.index()], perm[b.index()], w))
        .collect();
    Graph::from_weighted_edges(g.node_count(), edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Orbit ids are a dense partition labelling (one id per node,
    // contiguous from 0), and relabelling permutes the partition without
    // changing its cell-size multiset.
    #[test]
    fn canonical_orbits_are_dense_and_relabeling_stable(g in arb_graph(12), seed in any::<u64>()) {
        let orbits = canonical::orbits(&g);
        prop_assert_eq!(orbits.len(), g.node_count());
        let mut ids = orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids, (0..ids_len(&orbits)).collect::<Vec<usize>>());

        let mut rng = StdRng::seed_from_u64(seed);
        let perm = random_permutation(g.node_count(), &mut rng);
        let relabelled = canonical::orbits(&relabel(&g, &perm));
        prop_assert_eq!(cell_sizes(&orbits), cell_sizes(&relabelled));
    }
}

/// Number of distinct orbit ids.
fn ids_len(orbits: &[usize]) -> usize {
    let mut ids = orbits.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// The sorted multiset of orbit-cell sizes.
fn cell_sizes(orbits: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; ids_len(orbits)];
    for &id in orbits {
        counts[id] += 1;
    }
    counts.sort_unstable();
    counts
}
