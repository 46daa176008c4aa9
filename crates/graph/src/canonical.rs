//! Graph symmetry: iterated degree (colour) refinement, verified
//! automorphisms, and a stable 128-bit [`CanonicalFingerprint`] hasher.
//!
//! 1. **Refinement** ([`refine`]): iterated Weisfeiler–Leman colour
//!    refinement seeded with degrees. Each round recolours every node by
//!    the sorted multiset of its neighbours' `(colour, weight)` pairs;
//!    colour ids are assigned by *rank* of the signature (not by hash),
//!    so they are isomorphism-invariant and collision-free by
//!    construction. The fixed point partitions nodes into refinement
//!    cells — the partition reported by [`orbits`].
//! 2. **Automorphisms** ([`automorphisms`]): explicit generators, each
//!    verified edge by edge, and the orbit partition they span.
//!    Refinement cells only bound the true orbits from above (WL merges
//!    the nodes of two rings of different lengths), so the exact
//!    search's device-symmetry pruning (one VF2 root per orbit) uses
//!    these verified orbits.
//! 3. **Fingerprints** ([`FingerprintHasher`]): a streaming 128-bit
//!    FNV-1a hash. The placement result cache (`qcp_place::cache`)
//!    hashes each circuit's gate stream under a canonical qubit order
//!    that it reads off the gate sequence, so no graph canonical form is
//!    computed here.

use std::fmt;

use crate::{Graph, NodeId};

/// A 128-bit FNV-1a fingerprint, built by [`FingerprintHasher`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn orbit_partition_matches_symmetry() {
        // A chain of 5 has 3 orbits: ends, their neighbours, the centre.
        let orbit_ids = orbits(&generate::chain(5));
        let mut ids = orbit_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(orbit_ids[0], orbit_ids[4]);
        assert_eq!(orbit_ids[1], orbit_ids[3]);
        // Rings and complete graphs are vertex-transitive: one orbit.
        assert_eq!(orbits(&generate::ring(6)), vec![0; 6]);
        // A star has two orbits: hub and leaves.
        let star = orbits(&generate::star(5));
        assert_eq!(star.iter().filter(|&&o| o != star[0]).count(), 5 - 1);
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
    fn automorphisms_of_equal_rings_span_one_orbit() {
        // Three disjoint rings of 8: every node has the same WL colour,
        // and here the colour cell really is one orbit, witnessed by
        // rotations within a ring and maps between rings.
        let mut edges = Vec::new();
        for r in 0..3 {
            for i in 0..8 {
                edges.push((r * 8 + i, r * 8 + (i + 1) % 8, 1.0));
            }
        }
        let graph = Graph::from_weighted_edges(24, edges).unwrap();
        let auto = automorphisms(&graph);
        assert!(auto.complete);
        assert_eq!(auto.orbits, vec![0; 24]);
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
        let fp = FingerprintHasher::new().mix(3).finish();
        assert_eq!(fp.to_string().len(), 32);
        assert_eq!(fp.to_string(), format!("{:032x}", fp.as_u128()));
        assert_eq!(
            fp.fold64(),
            (fp.as_u128() as u64) ^ ((fp.as_u128() >> 64) as u64)
        );
    }
}
