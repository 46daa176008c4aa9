//! Candidate placements for one workspace: monomorphism enumeration plus
//! completion to total placements (§5.1, §5.3).

use qcp_circuit::Qubit;
use qcp_env::PhysicalQubit;
use qcp_graph::traversal::bfs_order;
use qcp_graph::vf2::{self, MonomorphismFinder};
use qcp_graph::{Graph, NodeId};

use crate::{PlaceError, Placement, Result};

/// Knobs for the monomorphism search behind candidate enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOptions<'o> {
    /// Ignored: the search is sequential, and its results never
    /// depended on a worker count. Kept so existing struct literals
    /// still compile; the field is slated for removal.
    pub jobs: usize,
    /// Fast-graph node orbits from verified automorphisms: when set,
    /// only one VF2 root per orbit is explored. The caller is
    /// responsible for only passing orbits when symmetric candidates
    /// are genuinely interchangeable (first stage on a symmetric
    /// device, no prior placement breaking the symmetry).
    pub root_orbits: Option<&'o [usize]>,
}

/// Enumerates up to `k` total placements whose restriction to the
/// workspace's interacting qubits is a monomorphism of `interaction` into
/// `fast` (the paper uses `k = 100`).
///
/// Qubits without two-qubit gates in the workspace are *completed*: they
/// keep their position from `previous` when it is still free, otherwise
/// they move to the nearest free nucleus (BFS over the fast graph), so the
/// permutation between consecutive stages stays as small as possible.
///
/// When the workspace has no two-qubit gates at all, the single candidate
/// is `previous` itself (or an identity-like assignment for the first
/// stage).
///
/// The monomorphism enumeration charges the shared `meter` per visited
/// search node (pass [`vf2::Budget::unlimited`] for no limit) and the call
/// fails with [`PlaceError::BudgetExhausted`] if the meter trips before
/// the enumeration finishes (exactness is all-or-nothing; the anytime
/// strategies catch the error and fall back).
///
/// # Errors
///
/// * [`PlaceError::BudgetExhausted`] if the meter trips;
/// * placement-construction failures, which indicate an internal
///   inconsistency (enumerated monomorphisms are injective by
///   construction).
pub fn candidate_placements_searched(
    interaction: &Graph,
    fast: &Graph,
    previous: Option<&Placement>,
    k: usize,
    meter: &mut vf2::Budget,
    options: &SearchOptions<'_>,
) -> Result<Vec<Placement>> {
    let Some(embeddings) = Embeddings::enumerate(interaction, fast, k, meter, options.root_orbits)
    else {
        return Err(PlaceError::BudgetExhausted {
            nodes: meter.nodes_visited(),
        });
    };
    embeddings.complete(fast, previous)
}

/// A workspace's monomorphisms into the fast graph, enumerated once:
/// [`complete`](Embeddings::complete) turns them into candidate
/// placements against any previous placement, and
/// [`charge`](Embeddings::charge) charges a meter what enumerating them
/// again would, without searching.
#[derive(Debug)]
pub(crate) struct Embeddings {
    /// Width of the workspace (its circuit's qubit count).
    qubits: usize,
    /// The qubits with two-qubit gates in the workspace, ascending: the
    /// pattern's nodes.
    interacting: Vec<usize>,
    /// The maps, `interacting.len()` fast-graph nodes each, back to back.
    maps: Vec<NodeId>,
    /// VF2 nodes the enumeration visited; `None` when the workspace has
    /// no interactions and nothing was searched.
    nodes: Option<u64>,
}

impl Embeddings {
    /// Enumerates up to `k` monomorphisms of `interaction`'s interacting
    /// qubits into `fast` (one VF2 root per orbit when `root_orbits` is
    /// given), charging `meter` per visited search node. `None` when the
    /// meter trips before the enumeration finishes.
    pub(crate) fn enumerate(
        interaction: &Graph,
        fast: &Graph,
        k: usize,
        meter: &mut vf2::Budget,
        root_orbits: Option<&[usize]>,
    ) -> Option<Self> {
        let qubits = interaction.node_count();
        let interacting: Vec<usize> = (0..qubits)
            .filter(|&i| interaction.degree(NodeId::new(i)) > 0)
            .collect();
        if interacting.is_empty() {
            return Some(Embeddings {
                qubits,
                interacting,
                maps: Vec::new(),
                nodes: None,
            });
        }

        // Pattern graph over the interacting qubits only.
        let mut index = vec![usize::MAX; qubits];
        for (i, &q) in interacting.iter().enumerate() {
            index[q] = i;
        }
        let mut pattern = Graph::new(interacting.len());
        for (a, b, _) in interaction.edges() {
            // `Graph` stores simple edges, so each pair arrives exactly once.
            let _ = pattern.add_edge(
                NodeId::new(index[a.index()]),
                NodeId::new(index[b.index()]),
                1.0,
            );
        }
        let (maps, run) = MonomorphismFinder::new(&pattern, fast)
            .limit(k)
            .collect_budgeted(meter, root_orbits);
        (run.outcome == vf2::Outcome::Complete).then(|| Embeddings {
            qubits,
            interacting,
            maps: maps.concat(),
            nodes: Some(run.nodes),
        })
    }

    /// The number of candidate placements: one per map, or the single
    /// placement of a workspace without interactions.
    pub(crate) fn len(&self) -> usize {
        match self.interacting.len() {
            0 => 1,
            width => self.maps.len() / width,
        }
    }

    /// The qubits with two-qubit gates in the workspace, ascending.
    pub(crate) fn interacting(&self) -> &[usize] {
        &self.interacting
    }

    /// Charges `meter` exactly what enumerating again would
    /// ([`vf2::Budget::charge_search`]); a workspace without interactions
    /// charges nothing. Returns `false` once the meter is exhausted.
    pub(crate) fn charge(&self, meter: &mut vf2::Budget) -> bool {
        self.nodes.is_none_or(|nodes| meter.charge_search(nodes))
    }

    /// Completes every map into a total placement, in enumeration order
    /// (see [`candidate_placements_searched`]).
    ///
    /// # Errors
    ///
    /// Placement-construction failures, which indicate an internal
    /// inconsistency.
    pub(crate) fn complete(
        &self,
        fast: &Graph,
        previous: Option<&Placement>,
    ) -> Result<Vec<Placement>> {
        let m = fast.node_count();
        if self.interacting.is_empty() {
            let placement = match previous {
                Some(p) => p.clone(),
                None => Placement::identity(self.qubits, m)?,
            };
            return Ok(vec![placement]);
        }
        let mut scratch = CompletionScratch::new(self.qubits, m);
        let mut out = Vec::with_capacity(self.len());
        for map in self.maps.chunks_exact(self.interacting.len()) {
            out.push(scratch.complete(&self.interacting, map, fast, previous)?);
        }
        Ok(out)
    }
}

/// Reusable buffers for completing partial assignments into placements.
struct CompletionScratch {
    to_phys: Vec<Option<PhysicalQubit>>,
    taken: Vec<bool>,
}

impl CompletionScratch {
    fn new(n: usize, m: usize) -> Self {
        CompletionScratch {
            to_phys: vec![None; n],
            taken: vec![false; m],
        }
    }

    /// Completes a partial assignment (constrained qubits → fast-graph
    /// nodes) into a total placement.
    fn complete(
        &mut self,
        constrained: &[usize],
        map: &[NodeId],
        fast: &Graph,
        previous: Option<&Placement>,
    ) -> Result<Placement> {
        let m = self.taken.len();
        self.to_phys.fill(None);
        self.taken.fill(false);
        for (i, &q) in constrained.iter().enumerate() {
            let v = map[i].index();
            self.to_phys[q] = Some(PhysicalQubit::new(v));
            self.taken[v] = true;
        }
        // Free-nucleus list in BFS order from each qubit's previous home
        // keeps idle values near where they were (small swap stages).
        for (q, slot) in self.to_phys.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let prev_pos = previous.map(|p| p.physical(Qubit::new(q)).index());
            #[allow(clippy::expect_used)]
            let choice = match prev_pos {
                Some(home) if !self.taken[home] => home,
                Some(home) => bfs_order(fast, NodeId::new(home))
                    .into_iter()
                    .map(NodeId::index)
                    .find(|&v| !self.taken[v])
                    .or_else(|| (0..m).find(|&v| !self.taken[v]))
                    .expect("invariant: n <= m leaves a free nucleus"),
                None => (0..m)
                    .find(|&v| !self.taken[v])
                    .expect("invariant: n <= m leaves a free nucleus"),
            };
            *slot = Some(PhysicalQubit::new(choice));
            self.taken[choice] = true;
        }
        #[allow(clippy::expect_used)]
        let to_phys: Vec<PhysicalQubit> = self
            .to_phys
            .iter()
            .map(|v| v.expect("invariant: the loop above assigns every qubit"))
            .collect();
        Placement::new(to_phys, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_graph::generate;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }
    fn p(i: usize) -> PhysicalQubit {
        PhysicalQubit::new(i)
    }

    fn interaction(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().copied()).unwrap()
    }

    /// Candidate enumeration under an unlimited meter.
    fn candidates(
        ig: &Graph,
        fast: &Graph,
        previous: Option<&Placement>,
        k: usize,
    ) -> Vec<Placement> {
        let mut meter = vf2::Budget::unlimited();
        candidate_placements_searched(ig, fast, previous, k, &mut meter, &SearchOptions::default())
            .unwrap()
    }

    #[test]
    fn simple_edge_into_chain() {
        let ig = interaction(2, &[(0, 1)]);
        let fast = generate::chain(3);
        let cands = candidates(&ig, &fast, None, 100);
        // Edge maps onto (0,1),(1,0),(1,2),(2,1); completion fills the rest.
        assert_eq!(cands.len(), 4);
        for c in &cands {
            assert_eq!(c.logical_count(), 2);
            assert_eq!(c.physical_count(), 3);
        }
    }

    #[test]
    fn limit_respected() {
        let ig = interaction(2, &[(0, 1)]);
        let fast = generate::complete(6);
        let cands = candidates(&ig, &fast, None, 7);
        assert_eq!(cands.len(), 7);
    }

    #[test]
    fn unconstrained_qubits_keep_previous_homes() {
        // 4 qubits, only (0,1) interact; q2, q3 idle.
        let ig = interaction(4, &[(0, 1)]);
        let fast = generate::chain(6);
        let prev = Placement::new(vec![p(4), p(5), p(2), p(3)], 6).unwrap();
        let cands = candidates(&ig, &fast, Some(&prev), 100);
        for c in &cands {
            // Idle qubits stay put whenever their nucleus is free.
            let (c2, c3) = (c.physical(q(2)), c.physical(q(3)));
            if c.logical_at(p(2)) == Some(q(2)) {
                assert_eq!(c2, p(2));
            }
            if c.logical_at(p(3)) == Some(q(3)) {
                assert_eq!(c3, p(3));
            }
        }
        // At least one candidate leaves both untouched (edge mapped away
        // from nuclei 2 and 3).
        assert!(cands
            .iter()
            .any(|c| c.physical(q(2)) == p(2) && c.physical(q(3)) == p(3)));
    }

    #[test]
    fn displaced_idle_qubit_moves_nearby() {
        // Idle q1 sits at nucleus 1; the edge (0,2) must take nuclei (1,2)
        // or (2,1) etc. When its home is taken it moves to a BFS-nearest
        // free nucleus.
        let ig = interaction(3, &[(0, 2)]);
        let fast = generate::chain(4);
        let prev = Placement::new(vec![p(0), p(1), p(2)], 4).unwrap();
        let cands = candidates(&ig, &fast, Some(&prev), 100);
        for c in &cands {
            // Everybody placed, injectively (Placement guarantees it) and
            // q1 is at most 2 hops from its old home.
            let moved = c.physical(q(1));
            let dist =
                qcp_graph::traversal::bfs_distances(&fast, NodeId::new(1))[moved.index()].unwrap();
            assert!(dist <= 2, "idle qubit flung {dist} hops away");
        }
    }

    #[test]
    fn no_interactions_returns_previous() {
        let ig = interaction(3, &[]);
        let fast = generate::chain(5);
        let prev = Placement::new(vec![p(4), p(0), p(2)], 5).unwrap();
        let cands = candidates(&ig, &fast, Some(&prev), 100);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].same_assignment(&prev));
    }

    #[test]
    fn infeasible_pattern_gives_no_candidates() {
        let ig = interaction(3, &[(0, 1), (1, 2), (0, 2)]); // triangle
        let fast = generate::chain(5);
        let cands = candidates(&ig, &fast, None, 100);
        assert!(cands.is_empty());
    }

    #[test]
    fn candidates_are_valid_monomorphisms() {
        let ig = interaction(5, &[(0, 1), (1, 2), (1, 4)]);
        let fast = generate::caterpillar(4, 1);
        let cands = candidates(&ig, &fast, None, 50);
        assert!(!cands.is_empty());
        for c in &cands {
            for (a, b, _) in ig.edges() {
                let (va, vb) = (
                    c.physical(q(a.index())).index(),
                    c.physical(q(b.index())).index(),
                );
                assert!(
                    fast.has_edge(NodeId::new(va), NodeId::new(vb)),
                    "interaction ({a},{b}) not on a fast edge"
                );
            }
        }
    }
}
