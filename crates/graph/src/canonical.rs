//! Graph canonicalization: iterated degree (colour) refinement, orbit
//! partitioning, and a stable [`CanonicalFingerprint`].
//!
//! The placement pipeline of Maslov–Falconer–Mosca treats a circuit as
//! its interaction graph and an environment as its fast-interaction
//! graph; two requests whose graphs are isomorphic are *the same
//! placement problem* (the monomorphism formulation of §5 is blind to
//! vertex labels). This module computes a canonical form so equal
//! problems can be recognised in O(poly n) and their results shared —
//! the canonicalization-keyed result cache of `qcp_place::cache` is the
//! consumer.
//!
//! The algorithm is the classic individualization–refinement scheme:
//!
//! 1. **Refinement** ([`refine`]): iterated Weisfeiler–Leman colour
//!    refinement seeded with degrees. Each round recolours every node by
//!    the sorted multiset of its neighbours' `(colour, weight)` pairs;
//!    colour ids are assigned by *rank* of the signature (not by hash),
//!    so they are isomorphism-invariant and collision-free by
//!    construction. The fixed point partitions nodes into refinement
//!    cells — the orbit partition reported by [`orbits`].
//! 2. **Individualization** ([`canonical_form`]): while some cell has
//!    more than one member, one member of the first such cell is given a
//!    fresh colour and refinement re-runs. At these sizes (device
//!    topologies and circuit interaction graphs, tens of nodes)
//!    refinement separates everything that is not genuinely symmetric,
//!    so tied nodes are automorphic images of each other and any
//!    tie-break yields the same certificate.
//!
//! The certificate — node count, and each canonical node's weighted
//! adjacency written in canonical indices — is hashed into a 128-bit
//! [`CanonicalFingerprint`]. Equal fingerprints on refinement-
//! distinguishable graphs mean isomorphic graphs; callers needing an
//! *exact* guarantee (the placement cache) layer a structure-complete
//! encoding on top and use the canonical order only as the witness.

use std::fmt;

use crate::{Graph, NodeId};

/// A 128-bit FNV-1a fingerprint of a canonical certificate.
///
/// 128 bits instead of the workspace's usual 64: fingerprints key a
/// result *cache*, where a collision would silently serve one circuit
/// another circuit's placement — so the collision budget is set far
/// below any realistic request volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalFingerprint(u128);

impl CanonicalFingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Folds the fingerprint to 64 bits (for mixing into other hashes).
    pub fn fold64(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
    }
}

impl fmt::Display for CanonicalFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming 128-bit FNV-1a hasher used to build fingerprints.
#[derive(Clone, Debug)]
pub struct FingerprintHasher(u128);

impl Default for FingerprintHasher {
    fn default() -> Self {
        // FNV-1a 128-bit offset basis.
        FingerprintHasher(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }
}

impl FingerprintHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes one 64-bit word (byte by byte, FNV-1a).
    pub fn mix(&mut self, word: u64) -> &mut Self {
        // FNV-1a 128-bit prime.
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        for byte in word.to_le_bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Mixes raw bytes (for names and other variable-length payloads).
    pub fn mix_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.mix(bytes.len() as u64);
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        for &byte in bytes {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> CanonicalFingerprint {
        CanonicalFingerprint(self.0)
    }
}

/// Edge weights enter signatures through their bit patterns; collapse
/// `-0.0` onto `0.0` so the two spellings of zero cannot split a cell.
fn weight_bits(w: f64) -> u64 {
    if w == 0.0 { 0.0f64 } else { w }.to_bits()
}

/// One round of colour refinement: recolours every node by
/// `(old colour, sorted neighbour (colour, weight) pairs)` and assigns
/// new dense colour ids by signature *rank*. Returns the new colours and
/// the number of distinct colours.
fn refine_round(graph: &Graph, colors: &[u64]) -> (Vec<u64>, usize) {
    let n = graph.node_count();
    let mut signatures: Vec<(Vec<u64>, usize)> = Vec::with_capacity(n);
    for v in graph.nodes() {
        let mut sig: Vec<u64> = Vec::with_capacity(2 * graph.degree(v) + 1);
        sig.push(colors[v.index()]);
        let mut nbrs: Vec<(u64, u64)> = graph
            .neighbors(v)
            .map(|u| {
                let w = graph.weight(v, u).unwrap_or(f64::INFINITY);
                (colors[u.index()], weight_bits(w))
            })
            .collect();
        nbrs.sort_unstable();
        for (c, w) in nbrs {
            sig.push(c);
            sig.push(w);
        }
        signatures.push((sig, v.index()));
    }
    // Rank-based colour ids: sort the distinct signatures and use each
    // signature's rank as its node's new colour. Ranks are invariant
    // under relabelling because the signatures themselves are.
    let mut sorted: Vec<&(Vec<u64>, usize)> = signatures.iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut new_colors = vec![0u64; n];
    let mut next = 0u64;
    let mut previous: Option<&[u64]> = None;
    for entry in sorted {
        if previous != Some(entry.0.as_slice()) {
            previous = Some(entry.0.as_slice());
            next += 1;
        }
        new_colors[entry.1] = next - 1;
    }
    (new_colors, next as usize)
}

/// Iterated colour refinement from the given seed colours to a fixed
/// point. The seed must itself be isomorphism-invariant (degrees, or a
/// previous refinement plus one individualized node) for the result to
/// be.
pub fn refine_seeded(graph: &Graph, seed: &[u64]) -> Vec<u64> {
    let n = graph.node_count();
    debug_assert_eq!(seed.len(), n);
    let (mut colors, mut classes) = refine_round(graph, seed);
    // A strictly refining sequence of partitions on n nodes has length
    // at most n; the loop is bounded even without the fixed-point test.
    for _ in 0..n {
        let (next, next_classes) = refine_round(graph, &colors);
        if next_classes == classes {
            return next;
        }
        colors = next;
        classes = next_classes;
    }
    colors
}

/// Stable Weisfeiler–Leman colours seeded with degrees: nodes with
/// different colours are in different orbits of the automorphism group
/// (the converse holds for every refinement-distinguishable graph —
/// which includes all the trees, grids, rings and molecule graphs this
/// workspace handles).
pub fn refine(graph: &Graph) -> Vec<u64> {
    let seed: Vec<u64> = graph.nodes().map(|v| graph.degree(v) as u64).collect();
    if seed.is_empty() {
        return seed;
    }
    refine_seeded(graph, &seed)
}

/// The refinement-cell partition as dense orbit ids (one per node, ids
/// contiguous from 0 in colour order).
pub fn orbits(graph: &Graph) -> Vec<usize> {
    refine(graph).iter().map(|&c| c as usize).collect()
}

/// A canonical form: the fingerprint plus the canonical node order that
/// witnesses it.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// Fingerprint of the canonical adjacency certificate.
    pub fingerprint: CanonicalFingerprint,
    /// `order[i]` is the original node occupying canonical position `i`.
    pub order: Vec<NodeId>,
    /// Number of refinement cells (orbits) before individualization.
    pub orbit_count: usize,
    /// Whether the individualization search hit its leaf budget
    /// (`LEAF_BUDGET`) before exhausting every branch. An exhausted
    /// certificate is still deterministic for a *fixed* labelling, but
    /// may differ between relabellings of the same graph — callers
    /// keying caches on the fingerprint must treat it as unusable for
    /// sharing.
    pub exhausted: bool,
}

/// Ceiling on discrete colourings examined per [`canonical_form`] call.
/// Real workloads (interaction graphs and device topologies, tens of
/// nodes, symmetry groups generated by a few reflections/rotations) need
/// well under a hundred leaves; the backstop only matters for
/// adversarially symmetric WL-hard graphs, where the search degrades to
/// a deterministic (but possibly labelling-dependent) certificate.
const LEAF_BUDGET: usize = 512;

/// Min-certificate individualization–refinement search state.
struct CanonicalSearch<'g> {
    graph: &'g Graph,
    /// Best (lexicographically smallest) certificate and its witness.
    best: Option<(Vec<u64>, Vec<NodeId>)>,
    leaves: usize,
    /// Set when a branch was abandoned because the leaf budget ran out.
    exhausted: bool,
}

impl CanonicalSearch<'_> {
    /// Recursively individualizes the first non-singleton cell. Branches
    /// on one member per *twin class* (two cell members whose
    /// neighbourhoods coincide off each other are swapped by an
    /// automorphism, so their branches yield equal certificates) and
    /// keeps the minimum certificate over all explored leaves.
    fn explore(&mut self, colors: Vec<u64>) {
        if self.leaves >= LEAF_BUDGET {
            // Unexplored branch abandoned: the minimum over the leaves
            // seen so far may not be the global minimum, so the
            // certificate is potentially labelling-dependent.
            self.exhausted = true;
            return;
        }
        let n = colors.len();
        if distinct(&colors) == n {
            self.leaves += 1;
            let leaf = self.certificate(&colors);
            if self.best.as_ref().is_none_or(|(b, _)| leaf.0 < *b) {
                self.best = Some(leaf);
            }
            return;
        }
        let mut counts = vec![0usize; n];
        for &c in &colors {
            counts[c as usize] += 1;
        }
        let target = counts.iter().position(|&k| k > 1).unwrap_or(0) as u64;
        let members: Vec<usize> = (0..n).filter(|&v| colors[v] == target).collect();
        let mut skip = vec![false; members.len()];
        for i in 0..members.len() {
            if skip[i] {
                continue;
            }
            for j in (i + 1)..members.len() {
                if !skip[j] && self.twins(members[i], members[j]) {
                    skip[j] = true;
                }
            }
            let mut seed: Vec<u64> = colors.iter().map(|&c| c * 2).collect();
            seed[members[i]] += 1;
            self.explore(refine_seeded(self.graph, &seed));
        }
    }

    /// Whether the transposition of `u` and `v` is an automorphism:
    /// their weighted neighbourhoods agree once each is removed from the
    /// other's. Catches the interchangeable-vertex pathologies (empty,
    /// complete, complete multipartite cells) that would otherwise make
    /// the branch tree factorial.
    fn twins(&self, u: usize, v: usize) -> bool {
        let side = |a: usize, other: usize| -> Vec<(usize, u64)> {
            let mut nbrs: Vec<(usize, u64)> = self
                .graph
                .neighbors(NodeId::new(a))
                .filter(|x| x.index() != other)
                .map(|x| {
                    let w = self
                        .graph
                        .weight(NodeId::new(a), x)
                        .unwrap_or(f64::INFINITY);
                    (x.index(), weight_bits(w))
                })
                .collect();
            nbrs.sort_unstable();
            nbrs
        };
        side(u, v) == side(v, u)
    }

    /// The certificate of a discrete colouring: node count, edge count,
    /// then each canonical node's sorted weighted adjacency written in
    /// canonical indices. Lexicographic comparison of these word
    /// sequences picks the canonical leaf.
    fn certificate(&self, colors: &[u64]) -> (Vec<u64>, Vec<NodeId>) {
        let n = colors.len();
        let mut order: Vec<NodeId> = self.graph.nodes().collect();
        order.sort_unstable_by_key(|v| colors[v.index()]);
        let mut canonical_index = vec![0usize; n];
        for (i, v) in order.iter().enumerate() {
            canonical_index[v.index()] = i;
        }
        let mut words = Vec::with_capacity(2 + n + 4 * self.graph.edge_count());
        words.push(n as u64);
        words.push(self.graph.edge_count() as u64);
        for &v in &order {
            let mut nbrs: Vec<(u64, u64)> = self
                .graph
                .neighbors(v)
                .map(|u| {
                    let w = self.graph.weight(v, u).unwrap_or(f64::INFINITY);
                    (canonical_index[u.index()] as u64, weight_bits(w))
                })
                .collect();
            nbrs.sort_unstable();
            words.push(nbrs.len() as u64);
            for (ci, w) in nbrs {
                words.push(ci);
                words.push(w);
            }
        }
        (words, order)
    }
}

/// Computes the canonical form by min-certificate
/// individualization–refinement: every member of the first non-singleton
/// refinement cell is individualized in turn (one representative per
/// automorphic twin class), the search recurses to a discrete colouring,
/// and the lexicographically smallest certificate over all explored
/// leaves wins. Branching over the whole cell — rather than picking one
/// member — is what makes the certificate relabelling-invariant even on
/// regular graphs whose refinement partition is a single cell.
pub fn canonical_form(graph: &Graph) -> CanonicalForm {
    let colors = refine(graph);
    let orbit_count = distinct(&colors);
    let mut search = CanonicalSearch {
        graph,
        best: None,
        leaves: 0,
        exhausted: false,
    };
    search.explore(colors);
    let (words, order) = search.best.unwrap_or_else(|| (vec![0, 0], Vec::new()));
    let mut hasher = FingerprintHasher::new();
    for word in words {
        hasher.mix(word);
    }
    CanonicalForm {
        fingerprint: hasher.finish(),
        order,
        orbit_count,
        exhausted: search.exhausted,
    }
}

/// The canonical fingerprint alone (see [`canonical_form`]).
pub fn fingerprint(graph: &Graph) -> CanonicalFingerprint {
    canonical_form(graph).fingerprint
}

/// Explicit, verified automorphism generators and the orbit partition
/// they span.
///
/// Unlike [`orbits`], which reports Weisfeiler–Leman refinement cells
/// (an *upper bound* on the true orbits — WL can merge nodes no
/// automorphism relates, e.g. same-degree nodes of two different-length
/// rings), every orbit reported here is witnessed by explicit
/// permutations that were checked edge-by-edge. The partition is
/// therefore always a refinement of the true orbit partition and safe
/// to use for symmetry pruning: two nodes in one orbit really are
/// interchangeable.
#[derive(Clone, Debug)]
pub struct Automorphisms {
    /// Verified generating permutations (`perm[old] = image`). Not
    /// necessarily a minimal generating set.
    pub generators: Vec<Vec<usize>>,
    /// Dense orbit ids, one per node, contiguous from 0 in order of
    /// first appearance by node index.
    pub orbits: Vec<usize>,
    /// Whether the generator search ran to completion. When `false`
    /// (node-budget backstop tripped) the orbit partition may be finer
    /// than the true one — still sound for pruning, just less
    /// aggressive.
    pub complete: bool,
}

/// Ceiling on backtracking steps across one [`automorphisms`] call.
/// Device topologies (grids, rings, heavy-hex, tens of nodes) finish in
/// a few thousand steps; the backstop guards adversarial inputs.
const AUTOMORPHISM_STEP_BUDGET: usize = 200_000;

/// Searches for one automorphism mapping `anchor` to `image`, extending
/// node-by-node in `order` (a BFS order from `anchor` so each new node
/// is anchored by mapped neighbours early). Candidates must share the
/// WL colour and preserve the weighted adjacency relation against
/// *every* already-mapped node — presence, absence, and weight alike —
/// so any completed mapping is an automorphism by construction.
struct AutomorphismSearch<'g> {
    graph: &'g Graph,
    colors: &'g [u64],
    order: Vec<usize>,
    steps: &'g mut usize,
}

enum AutomorphismOutcome {
    Found(Vec<usize>),
    NotFound,
    Exhausted,
}

impl AutomorphismSearch<'_> {
    fn run(&mut self, anchor: usize, image: usize) -> AutomorphismOutcome {
        let n = self.graph.node_count();
        let mut mapping = vec![usize::MAX; n];
        let mut used = vec![false; n];
        mapping[anchor] = image;
        used[image] = true;
        match self.extend(1, &mut mapping, &mut used) {
            Some(true) => AutomorphismOutcome::Found(mapping),
            Some(false) => AutomorphismOutcome::NotFound,
            None => AutomorphismOutcome::Exhausted,
        }
    }

    /// `Some(true)` = completed, `Some(false)` = no extension exists,
    /// `None` = step budget exhausted.
    fn extend(&mut self, depth: usize, mapping: &mut [usize], used: &mut [bool]) -> Option<bool> {
        if depth == self.order.len() {
            return Some(true);
        }
        if *self.steps >= AUTOMORPHISM_STEP_BUDGET {
            return None;
        }
        *self.steps += 1;
        let u = self.order[depth];
        'candidates: for w in 0..mapping.len() {
            if used[w] || self.colors[w] != self.colors[u] {
                continue;
            }
            // The relation to every mapped node must carry over exactly:
            // same edge/non-edge, same weight.
            for &x in &self.order[..depth] {
                let y = mapping[x];
                let uv = NodeId::new(u);
                let xv = NodeId::new(x);
                let have = self.graph.weight(uv, xv).map(weight_bits);
                let want = self
                    .graph
                    .weight(NodeId::new(w), NodeId::new(y))
                    .map(weight_bits);
                if have != want {
                    continue 'candidates;
                }
            }
            mapping[u] = w;
            used[w] = true;
            match self.extend(depth + 1, mapping, used) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            mapping[u] = usize::MAX;
            used[w] = false;
        }
        Some(false)
    }
}

/// Checks a claimed permutation really is a weighted-graph automorphism.
fn is_automorphism(graph: &Graph, perm: &[usize]) -> bool {
    if perm.len() != graph.node_count() {
        return false;
    }
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    graph.edges().all(|(a, b, w)| {
        graph
            .weight(NodeId::new(perm[a.index()]), NodeId::new(perm[b.index()]))
            .map(weight_bits)
            == Some(weight_bits(w))
    })
}

/// A BFS order over all nodes starting from `anchor` (remaining
/// components appended in index order), so the backtracking search maps
/// each node with as many mapped neighbours as possible.
fn anchored_order(graph: &Graph, anchor: usize) -> Vec<usize> {
    let n = graph.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    if n > 0 {
        seen[anchor] = true;
        queue.push_back(anchor);
    }
    for fallback in 0..=n {
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = graph.neighbors(NodeId::new(v)).map(NodeId::index).collect();
            nbrs.sort_unstable();
            for u in nbrs {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        if fallback < n && !seen[fallback] {
            seen[fallback] = true;
            queue.push_back(fallback);
        }
    }
    order
}

/// Computes verified automorphism generators and their orbit partition.
///
/// Within each WL refinement cell, members are matched against the
/// orbit representatives discovered so far: a backtracking search
/// (candidates filtered by WL colour, extension checked against every
/// mapped node, completed mappings re-verified edge-by-edge) either
/// produces an explicit generator — merging the two orbits — or proves
/// no automorphism relates them. Cross-cell pairs need no search: WL
/// colours are automorphism-invariant, so differently-coloured nodes
/// are never in one orbit.
pub fn automorphisms(graph: &Graph) -> Automorphisms {
    let n = graph.node_count();
    let colors = refine(graph);
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut generators = Vec::new();
    let mut complete = true;
    let mut steps = 0usize;

    // Cells in colour order, members in index order: deterministic.
    let mut cells: std::collections::BTreeMap<u64, Vec<usize>> = std::collections::BTreeMap::new();
    for (v, &color) in colors.iter().enumerate() {
        cells.entry(color).or_default().push(v);
    }
    'cells: for members in cells.values() {
        if members.len() < 2 {
            continue;
        }
        // Orbit representatives discovered so far within this cell.
        let mut reps: Vec<usize> = vec![members[0]];
        for &v in &members[1..] {
            if reps
                .iter()
                .any(|&r| find(&mut parent, r) == find(&mut parent, v))
            {
                continue;
            }
            let mut matched = false;
            for &r in &reps {
                let mut search = AutomorphismSearch {
                    graph,
                    colors: &colors,
                    order: anchored_order(graph, r),
                    steps: &mut steps,
                };
                match search.run(r, v) {
                    AutomorphismOutcome::Found(perm) => {
                        if is_automorphism(graph, &perm) {
                            for (u, &img) in perm.iter().enumerate() {
                                let (a, b) = (find(&mut parent, u), find(&mut parent, img));
                                if a != b {
                                    parent[a.max(b)] = a.min(b);
                                }
                            }
                            generators.push(perm);
                            matched = true;
                            break;
                        }
                        // A verification failure would be a search bug;
                        // treat the pair as unrelated rather than merge.
                        debug_assert!(false, "unverified automorphism candidate");
                    }
                    AutomorphismOutcome::NotFound => {}
                    AutomorphismOutcome::Exhausted => {
                        complete = false;
                        break 'cells;
                    }
                }
            }
            if !matched {
                reps.push(v);
            }
        }
    }

    // Dense orbit ids in order of first appearance by node index.
    let mut dense: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut orbit_ids = Vec::with_capacity(n);
    for v in 0..n {
        let root = find(&mut parent, v);
        let next = dense.len();
        orbit_ids.push(*dense.entry(root).or_insert(next));
    }
    Automorphisms {
        generators,
        orbits: orbit_ids,
        complete,
    }
}

fn distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// Relabels a graph through the permutation `perm` (`perm[old] = new`).
    fn relabel(graph: &Graph, perm: &[usize]) -> Graph {
        let edges: Vec<(usize, usize, f64)> = graph
            .edges()
            .map(|(a, b, w)| (perm[a.index()], perm[b.index()], w))
            .collect();
        Graph::from_weighted_edges(graph.node_count(), edges).expect("relabel")
    }

    #[test]
    fn fingerprint_invariant_under_relabeling() {
        for graph in [
            generate::chain(9),
            generate::ring(12),
            generate::grid(3, 4),
            generate::star(7),
        ] {
            let n = graph.node_count();
            let base = fingerprint(&graph);
            // A fixed non-trivial permutation plus a rotation.
            let reversed: Vec<usize> = (0..n).rev().collect();
            let rotated: Vec<usize> = (0..n).map(|i| (i + 3) % n).collect();
            for perm in [reversed, rotated] {
                assert_eq!(fingerprint(&relabel(&graph, &perm)), base);
            }
        }
    }

    #[test]
    fn near_misses_have_distinct_fingerprints() {
        let chain = generate::chain(8);
        let ring = generate::ring(8);
        assert_ne!(fingerprint(&chain), fingerprint(&ring));
        // One added edge changes the certificate.
        let mut plus = chain.clone();
        plus.add_edge(NodeId::new(0), NodeId::new(4), 1.0).unwrap();
        assert_ne!(fingerprint(&chain), fingerprint(&plus));
        // Different weights on the same topology are different problems.
        let light = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let heavy = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        assert_ne!(fingerprint(&light), fingerprint(&heavy));
    }

    #[test]
    fn orbit_partition_matches_symmetry() {
        // A chain of 5 has 3 orbits: ends, their neighbours, the centre.
        let orbit_ids = orbits(&generate::chain(5));
        assert_eq!(
            distinct(&orbit_ids.iter().map(|&o| o as u64).collect::<Vec<_>>()),
            3
        );
        assert_eq!(orbit_ids[0], orbit_ids[4]);
        assert_eq!(orbit_ids[1], orbit_ids[3]);
        // Rings and complete graphs are vertex-transitive: one orbit.
        assert_eq!(orbits(&generate::ring(6)), vec![0; 6]);
        // A star has two orbits: hub and leaves.
        let star = orbits(&generate::star(5));
        assert_eq!(star.iter().filter(|&&o| o != star[0]).count(), 5 - 1);
    }

    #[test]
    fn canonical_order_is_a_permutation() {
        let graph = generate::grid(3, 3);
        let form = canonical_form(&graph);
        let mut seen = [false; 9];
        for v in &form.order {
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
        assert!(form.orbit_count >= 1);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = Graph::new(0);
        let one = Graph::new(1);
        assert_ne!(fingerprint(&empty), fingerprint(&one));
        assert_eq!(canonical_form(&empty).order.len(), 0);
        assert_eq!(canonical_form(&one).order.len(), 1);
    }

    /// Disjoint union of `k` rings of `len` nodes: every node is in one
    /// WL cell, but individualization must fix each ring separately, so
    /// the leaf count grows as a product over rings — the classic way
    /// to blow [`LEAF_BUDGET`].
    fn ring_union(k: usize, len: usize) -> Graph {
        let mut edges = Vec::new();
        for r in 0..k {
            let base = r * len;
            for i in 0..len {
                edges.push((base + i, base + (i + 1) % len, 1.0));
            }
        }
        Graph::from_weighted_edges(k * len, edges).expect("ring union")
    }

    #[test]
    fn ordinary_graphs_do_not_exhaust_the_leaf_budget() {
        for graph in [
            generate::chain(9),
            generate::ring(12),
            generate::grid(4, 4),
            generate::star(7),
        ] {
            assert!(!canonical_form(&graph).exhausted);
        }
    }

    #[test]
    fn ring_union_exhausts_the_leaf_budget() {
        let graph = ring_union(3, 8);
        let form = canonical_form(&graph);
        assert!(
            form.exhausted,
            "3 disjoint rings of 8 should exceed {LEAF_BUDGET} leaves"
        );
        // The order is still a usable (if non-canonical) permutation.
        assert_eq!(form.order.len(), 24);
    }

    #[test]
    fn automorphisms_of_symmetric_graphs() {
        // Rings are vertex-transitive: one orbit, witnessed.
        let ring = generate::ring(6);
        let auto = automorphisms(&ring);
        assert!(auto.complete);
        assert_eq!(auto.orbits, vec![0; 6]);
        assert!(!auto.generators.is_empty());
        for g in &auto.generators {
            assert!(is_automorphism(&ring, g));
        }
        // Chain of 5: ends, inner pair, centre.
        let auto = automorphisms(&generate::chain(5));
        assert!(auto.complete);
        assert_eq!(auto.orbits[0], auto.orbits[4]);
        assert_eq!(auto.orbits[1], auto.orbits[3]);
        let mut ids = auto.orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        // 3x3 grid: corners, edge-midpoints, centre.
        let auto = automorphisms(&generate::grid(3, 3));
        assert!(auto.complete);
        let mut ids = auto.orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn automorphism_orbits_are_finer_than_wl_cells() {
        // ring(5) + ring(7): one WL cell (all degree-2, same weights),
        // but no automorphism maps across components of different size.
        let mut edges = Vec::new();
        for i in 0..5 {
            edges.push((i, (i + 1) % 5, 1.0));
        }
        for i in 0..7 {
            edges.push((5 + i, 5 + (i + 1) % 7, 1.0));
        }
        let graph = Graph::from_weighted_edges(12, edges).unwrap();
        let wl = orbits(&graph);
        assert!(wl.iter().all(|&o| o == wl[0]), "WL merges the two rings");
        let auto = automorphisms(&graph);
        assert!(auto.complete);
        assert_eq!(auto.orbits[0], auto.orbits[4]);
        assert_eq!(auto.orbits[5], auto.orbits[11]);
        assert_ne!(
            auto.orbits[0], auto.orbits[5],
            "true orbits split by component"
        );
        for g in &auto.generators {
            assert!(is_automorphism(&graph, g));
        }
    }

    #[test]
    fn automorphisms_respect_distinct_weights() {
        // Distinct edge weights kill all symmetry: every orbit is a
        // singleton and there are no generators.
        let graph = Graph::from_weighted_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        let auto = automorphisms(&graph);
        assert!(auto.complete);
        assert!(auto.generators.is_empty());
        let mut ids = auto.orbits.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn fingerprint_display_is_hex() {
        let fp = fingerprint(&generate::chain(3));
        assert_eq!(fp.to_string().len(), 32);
        assert_eq!(fp.fold64(), fp.fold64());
    }
}
