//! Subgraph monomorphism search (VF2-style).
//!
//! The basic placement stage of §5.1 asks: can the *interaction graph* of a
//! workspace (two-qubit gates read so far) be aligned along the *fastest
//! interactions* of the physical environment? That is a subgraph
//! **monomorphism** question: an injective map `f` from pattern nodes to
//! target nodes such that every pattern edge maps to a target edge (target
//! edges without a pattern preimage are fine — unused couplings are simply
//! refocussed away).
//!
//! The paper's implementation delegated this to the VFLib C++ library
//! (reference 27 of the paper); this module is a from-scratch replacement
//! implementing the VF2
//! candidate-pair scheme with degree-based pruning and a deterministic
//! search order. Enumeration can be capped at `k` results, which the placer
//! uses with `k = 100` exactly as in §5.3.
//!
//! Every search runs under a [`Budget`] (a node cap and/or wall-clock
//! deadline, or [`Budget::unlimited`]): the kernel charges the meter one
//! unit per visited search node and stops early with
//! [`Outcome::BudgetExhausted`] once the meter trips.
//! [`MonomorphismFinder::for_each_budgeted`] streams solutions to a
//! visitor, [`MonomorphismFinder::collect_budgeted`] collects them (one
//! depth-0 candidate per target-node orbit when pruning by symmetry), and
//! [`MonomorphismFinder::exists_budgeted`] settles existence; the placer
//! and the anytime strategies in `qcp_place::strategy` build on these.
//!
//! # Example
//!
//! ```
//! use qcp_graph::{Graph, vf2::{Budget, MonomorphismFinder}};
//!
//! // Triangle into K4: 4 * 3 * 2 = 24 monomorphisms.
//! let tri = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
//! let k4 = Graph::from_edges(4, [(0,1),(0,2),(0,3),(1,2),(1,3),(2,3)])?;
//! let (maps, _) =
//!     MonomorphismFinder::new(&tri, &k4).collect_budgeted(&mut Budget::unlimited(), None);
//! assert_eq!(maps.len(), 24);
//! # Ok::<(), qcp_graph::GraphError>(())
//! ```

use std::ops::ControlFlow;
use std::time::Instant;

use crate::{Graph, NodeId};

/// How often the wall-clock deadline is polled, in visited search nodes.
/// A search node costs well under a microsecond, so a stride of 1024 keeps
/// the overshoot below a millisecond while keeping `Instant::now` calls off
/// the hot path.
///
/// Public because it is the *poll quantum* that service-level latency math
/// builds on: a [`Budget`] deadline can be overshot by at most one stride
/// of kernel nodes (plus whatever single coarse-grained
/// [`Budget::consume`] checkpoint is in flight) before the search stops.
/// The stride counts the meter's running total, so the bound holds however
/// the nodes are spread over root candidates or successive searches. The
/// deadline-fidelity property tests in `qcp_place` pin this bound.
pub const DEADLINE_STRIDE: u64 = 1024;

/// A node/deadline budget for [`MonomorphismFinder::for_each_budgeted`].
///
/// The budget is a *meter*: it accumulates visited search nodes across
/// every search it is threaded through, so one `Budget` can govern a whole
/// placement request (workspace-extraction feasibility checks plus
/// candidate enumeration). Node budgets are deterministic — the search
/// visits the same nodes on every machine — while deadlines trade that
/// determinism for a wall-clock guarantee.
#[derive(Clone, Debug)]
pub struct Budget {
    max_nodes: u64,
    deadline: Option<Instant>,
    nodes: u64,
    exhausted: bool,
}

impl Budget {
    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        Budget::new(None, None)
    }

    /// Caps the total number of visited search nodes (0 exhausts on the
    /// first node).
    pub fn max_nodes(n: u64) -> Self {
        Budget::new(Some(n), None)
    }

    /// Exhausts once the wall clock passes `at`.
    pub fn deadline(at: Instant) -> Self {
        Budget::new(None, Some(at))
    }

    /// A budget from an optional node cap and an optional deadline.
    pub fn new(max_nodes: Option<u64>, deadline: Option<Instant>) -> Self {
        Budget {
            max_nodes: max_nodes.unwrap_or(u64::MAX),
            deadline,
            nodes: 0,
            exhausted: false,
        }
    }

    /// Total search nodes charged to this meter so far.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes
    }

    /// Nodes left before the cap trips (`u64::MAX` when uncapped), so a
    /// caller can check that a bulk charge is affordable before making it.
    pub fn remaining_nodes(&self) -> u64 {
        self.max_nodes.saturating_sub(self.nodes)
    }

    /// Trips the meter without charging further nodes. Drivers that
    /// meter work in schedule-independent bulk (charge first, then
    /// execute) use this to report exhaustion at exactly the charged
    /// count regardless of how the work was interleaved.
    pub fn exhaust(&mut self) {
        self.exhausted = true;
    }

    /// Returns `true` once the budget has tripped; it never untrips.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Charges `n` units and polls the deadline immediately. Meant for
    /// coarse-grained checkpoints outside the search kernel (one unit per
    /// candidate scored, per annealing move, …), where each unit is far
    /// more expensive than a search node. Returns `false` once exhausted.
    pub fn consume(&mut self, n: u64) -> bool {
        if self.exhausted || !self.poll_deadline() {
            return false;
        }
        let next = self.nodes.saturating_add(n);
        if n > 0 && next > self.max_nodes {
            self.exhausted = true;
            return false;
        }
        self.nodes = next;
        true
    }

    /// Charges a search that visits `nodes` search nodes when nothing
    /// stops it, leaving the meter exactly as running that search under
    /// it would: the entry poll every search makes, then the nodes up to
    /// the cap, with the deadline polled at the first
    /// [`DEADLINE_STRIDE`] multiple they pass. A search that does not
    /// fit trips where the kernel does: at the cap, or at that poll
    /// when the clock is past the deadline. Returns `false` once
    /// exhausted, like the kernel's [`Outcome::BudgetExhausted`].
    ///
    /// A caller that enumerated a search once (on a clone of its meter,
    /// say) charges the recorded count here instead of searching again.
    /// `u64::MAX` stands for a search the caller could not finish: it
    /// never fits.
    pub fn charge_search(&mut self, nodes: u64) -> bool {
        if !self.consume(0) {
            return false;
        }
        let room = self.remaining_nodes();
        let end = self.nodes + nodes.min(room);
        let first_poll = (self.nodes / DEADLINE_STRIDE)
            .saturating_add(1)
            .saturating_mul(DEADLINE_STRIDE);
        // The charge takes no time, so every poll the kernel would make
        // reads the same clock: the first one decides.
        if first_poll <= end && !self.poll_deadline() {
            self.nodes = first_poll;
            return false;
        }
        self.nodes = end;
        if nodes > room {
            self.exhausted = true;
            return false;
        }
        true
    }

    /// The kernel-side charge: one search node, with the deadline polled
    /// every [`DEADLINE_STRIDE`] nodes. The kernel calls it only at a
    /// [checkpoint](Budget::checkpoint) and counts the nodes in between
    /// itself.
    fn visit(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if self.nodes >= self.max_nodes {
            self.exhausted = true;
            return false;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(DEADLINE_STRIDE) {
            self.poll_deadline()
        } else {
            true
        }
    }

    /// The node count below which [`visit`](Budget::visit) neither trips
    /// the cap nor polls the deadline: up to it, a visit only adds one.
    /// Zero once exhausted, so every later visit reaches the meter.
    fn checkpoint(&self) -> u64 {
        if self.exhausted {
            return 0;
        }
        let next_poll = (self.nodes / DEADLINE_STRIDE)
            .saturating_add(1)
            .saturating_mul(DEADLINE_STRIDE);
        self.max_nodes.min(next_poll - 1)
    }

    fn poll_deadline(&mut self) -> bool {
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                self.exhausted = true;
                return false;
            }
        }
        true
    }
}

/// How a budgeted search ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The search space was exhausted (or the visitor broke out).
    Complete,
    /// The budget tripped before the search space was covered.
    BudgetExhausted,
}

/// The report of one budgeted search.
#[derive(Clone, Debug)]
pub struct BudgetedRun {
    /// Whether the search completed or was cut by the budget.
    pub outcome: Outcome,
    /// Search nodes visited by this call (the meter itself accumulates
    /// across calls).
    pub nodes: u64,
}

/// A subgraph-monomorphism search between a pattern and a target graph.
///
/// The search is deterministic: pattern nodes are processed in a
/// connectivity-aware static order, target candidates in increasing node
/// index. Construct with [`MonomorphismFinder::new`], optionally cap
/// enumeration with [`limit`](MonomorphismFinder::limit), then run one of
/// the budgeted searches. A caller that wants no limit passes
/// [`Budget::unlimited`].
#[derive(Debug)]
pub struct MonomorphismFinder<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    limit: Option<usize>,
}

impl<'a> MonomorphismFinder<'a> {
    /// Creates a finder for maps from `pattern` into `target`.
    pub fn new(pattern: &'a Graph, target: &'a Graph) -> Self {
        MonomorphismFinder {
            pattern,
            target,
            limit: None,
        }
    }

    /// Caps enumeration at `k` monomorphisms (the paper uses `k = 100`).
    #[must_use]
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Invokes `visit` for every monomorphism until it breaks, the search
    /// space is exhausted, or the budget trips. The slice maps pattern
    /// index `i` to its image; the configured
    /// [`limit`](MonomorphismFinder::limit) is *not* applied here.
    ///
    /// The search charges one unit of `budget` per visited node and stops
    /// early with [`Outcome::BudgetExhausted`] once the meter trips. A
    /// search driven by an already-exhausted (or deadline-expired) meter
    /// visits nothing and reports [`Outcome::BudgetExhausted`]
    /// immediately, even for trivial searches; a *live* meter on a search
    /// that needs zero nodes (empty pattern, pattern wider than the
    /// target) completes truthfully.
    ///
    /// Solutions are visited in the kernel's deterministic order; a
    /// budget only removes a suffix of the enumeration, never reorders
    /// it.
    pub fn for_each_budgeted(
        &self,
        budget: &mut Budget,
        visit: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> BudgetedRun {
        metered(budget, |budget| self.run(budget, None, visit))
    }

    /// Budget-aware existence check: `Some(answer)` when the search
    /// settled the question within budget, `None` when the budget tripped
    /// first (the answer is unknown).
    pub fn exists_budgeted(&self, budget: &mut Budget) -> Option<bool> {
        let mut found = false;
        let run = self.for_each_budgeted(budget, &mut |_| {
            found = true;
            ControlFlow::Break(())
        });
        match (found, run.outcome) {
            (true, _) => Some(true),
            (false, Outcome::Complete) => Some(false),
            (false, Outcome::BudgetExhausted) => None,
        }
    }

    /// Collects monomorphisms up to the configured
    /// [`limit`](MonomorphismFinder::limit), optionally pruned by
    /// target-node orbits. Node accounting, early exits and the
    /// solution order are those of
    /// [`for_each_budgeted`](MonomorphismFinder::for_each_budgeted) with a
    /// visitor that breaks at the configured
    /// [`limit`](MonomorphismFinder::limit).
    ///
    /// `root_orbits` (one orbit id per target node, e.g. from
    /// `canonical::automorphisms`) adds one mask to the depth-0 candidate
    /// set: of the targets that pass the first pattern node's degree cut,
    /// only the lowest-index member of each orbit stays. That is sound
    /// when the caller wants one representative per symmetry class —
    /// existence checks and symmetric-candidate enumeration — not full
    /// enumeration. Callers must only pass orbits witnessed by actual
    /// automorphisms.
    pub fn collect_budgeted(
        &self,
        budget: &mut Budget,
        root_orbits: Option<&[usize]>,
    ) -> (Vec<Vec<NodeId>>, BudgetedRun) {
        let mut out = Vec::new();
        let cap = self.limit;
        let run = metered(budget, |budget| {
            self.run(budget, root_orbits, &mut |m| {
                out.push(m.to_vec());
                match cap {
                    Some(k) if out.len() >= k => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(()),
                }
            })
        });
        (out, run)
    }

    /// The search kernel driver: builds the per-search masks and runs the
    /// recursive extension from depth 0. Returns `true` when the budget
    /// cut the search (as opposed to completion or a visitor break).
    fn run(
        &self,
        budget: &mut Budget,
        root_orbits: Option<&[usize]>,
        visit: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> bool {
        let pn = self.pattern.node_count();
        let tn = self.target.node_count();
        if pn > tn {
            return false;
        }
        if pn == 0 {
            // The empty map is the unique monomorphism.
            let _ = visit(&[]);
            return false;
        }
        let order = self.variable_order();
        let twpr = self.target.words_per_row().max(1);
        // One bit per target node, all set; dead bits beyond the node
        // count stay zero so bit-walks never step outside the graph.
        let mut unused = vec![u64::MAX; twpr];
        for (k, word) in unused.iter_mut().enumerate() {
            let lo = k * 64;
            if lo + 64 > tn {
                *word = if tn > lo { (1u64 << (tn - lo)) - 1 } else { 0 };
            }
        }
        // The degree cut as a bitset: one mask per *distinct* pattern
        // degree holding the target nodes of at least that degree.
        // Folding the cut into the candidate mask removes a branch per
        // candidate from the innermost walk.
        let mut distinct: Vec<usize> = order.iter().map(|&p| self.pattern.degree(p)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut deg_masks = vec![0u64; distinct.len() * twpr];
        for (di, &d) in distinct.iter().enumerate() {
            let row = &mut deg_masks[di * twpr..(di + 1) * twpr];
            for w in 0..tn {
                if self.target.degree(NodeId::new(w)) >= d {
                    row[w / 64] |= 1u64 << (w % 64);
                }
            }
        }
        let mut deg_mask_of: Vec<u32> = order
            .iter()
            .map(|&p| {
                let pdeg = self.pattern.degree(p);
                // `distinct` was built from exactly these degrees, so the
                // lookup cannot miss; falling back to mask 0 (the loosest
                // filter) keeps the search correct even if it did.
                distinct.iter().position(|&d| d == pdeg).unwrap_or(0) as u32
            })
            .collect();
        if let Some(orbits) = root_orbits {
            // Symmetry pruning: one extra mask for depth 0 holding the
            // lowest-index target of each orbit among those that pass the
            // depth-0 degree cut. At depth 0 every target is unused, so
            // the look-ahead cut reduces to that same degree test and the
            // mask is exactly the set of roots worth exploring.
            debug_assert_eq!(orbits.len(), tn);
            let base = deg_mask_of[0] as usize * twpr;
            let mut roots = vec![0u64; twpr];
            let mut seen = std::collections::HashSet::new();
            for w in 0..tn {
                let bit = 1u64 << (w % 64);
                if deg_masks[base + w / 64] & bit != 0
                    && seen.insert(orbits.get(w).copied().unwrap_or(w))
                {
                    roots[w / 64] |= bit;
                }
            }
            deg_mask_of[0] = distinct.len() as u32;
            deg_masks.extend(roots);
        }
        let small = twpr == 1 && self.target.words_per_row() == 1;
        let mut state = State {
            pattern: self.pattern,
            target: self.target,
            order,
            mapping: vec![INVALID; pn],
            unused,
            deg_masks,
            deg_mask_of,
            cand_stack: vec![0; pn * twpr],
            twpr,
            image: vec![NodeId::new(0); pn],
            nodes: budget.nodes,
            checkpoint: budget.checkpoint(),
            budget,
            budget_cut: false,
        };
        if small {
            // Targets of at most 64 nodes (every library molecule and
            // most benchmark topologies) run the register-resident
            // single-word kernel; the unused set travels as an argument.
            let all = state.unused[0];
            let _ = state.extend_small(0, all, visit);
        } else {
            let _ = state.extend(0, visit);
        }
        state.budget.nodes = state.nodes;
        state.budget_cut
    }

    /// Static variable order: repeatedly pick the unordered pattern node
    /// with the most already-ordered neighbours, breaking ties by higher
    /// degree then lower index. Keeps the partial pattern connected where
    /// possible, which makes the adjacency pruning bite early.
    fn variable_order(&self) -> Vec<NodeId> {
        let pn = self.pattern.node_count();
        let mut ordered = Vec::with_capacity(pn);
        let mut placed = vec![false; pn];
        let mut anchored = vec![0usize; pn]; // # ordered neighbours
        let degs: Vec<usize> = (0..pn)
            .map(|i| self.pattern.degree(NodeId::new(i)))
            .collect();
        for _ in 0..pn {
            // First (lowest-index) maximum of (anchored, degree): ties on
            // both keys fall to the lower index, exactly as the original
            // `max_by_key` with `Reverse(i)` did.
            let mut next = usize::MAX;
            for i in 0..pn {
                if placed[i] {
                    continue;
                }
                if next == usize::MAX || (anchored[i], degs[i]) > (anchored[next], degs[next]) {
                    next = i;
                }
            }
            placed[next] = true;
            ordered.push(NodeId::new(next));
            for u in self.pattern.neighbor_slice(NodeId::new(next)) {
                anchored[u.index()] += 1;
            }
        }
        ordered
    }
}

/// Runs one budgeted search: the entry poll honours an exhausted meter
/// (or an expired deadline) before the trivial early exits in the kernel
/// driver, which never touch the meter; `search` returns the kernel's
/// budget-cut flag.
fn metered(budget: &mut Budget, search: impl FnOnce(&mut Budget) -> bool) -> BudgetedRun {
    if !budget.consume(0) {
        return BudgetedRun {
            outcome: Outcome::BudgetExhausted,
            nodes: 0,
        };
    }
    let before = budget.nodes_visited();
    let cut = search(&mut *budget);
    BudgetedRun {
        outcome: if cut {
            Outcome::BudgetExhausted
        } else {
            Outcome::Complete
        },
        nodes: budget.nodes_visited() - before,
    }
}

const INVALID: u32 = u32::MAX;

struct State<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    order: Vec<NodeId>,
    /// `mapping[p]` = target index or `INVALID`.
    mapping: Vec<u32>,
    /// Bit `w` set iff target node `w` is not an image yet (`twpr` words,
    /// dead bits beyond the node count kept zero).
    unused: Vec<u64>,
    /// One mask per distinct pattern degree: the target nodes of at least
    /// that degree (`twpr` words each), plus the depth-0 root mask when
    /// the search is orbit-pruned.
    deg_masks: Vec<u64>,
    /// Per-depth index into `deg_masks`.
    deg_mask_of: Vec<u32>,
    /// Per-depth candidate bitsets, `twpr` words each, carved out of one
    /// allocation: depth `d` owns `cand_stack[d * twpr..(d + 1) * twpr]`.
    cand_stack: Vec<u64>,
    /// Words per target adjacency-matrix row.
    twpr: usize,
    /// Scratch buffer for rendering complete mappings, reused across
    /// solutions so the search allocates nothing per node visited.
    image: Vec<NodeId>,
    /// The meter's running node count, kept here so that the per-node
    /// charge touches no memory behind `budget`; written back to the meter
    /// at every checkpoint and when the search returns.
    nodes: u64,
    /// The meter's [`Budget::checkpoint`] for `nodes`.
    checkpoint: u64,
    /// The meter, charged once per visited search node.
    budget: &'a mut Budget,
    /// Set when the meter aborted the search (distinguishes a budget cut
    /// from a visitor break).
    budget_cut: bool,
}

impl State<'_> {
    /// Charges one search node: a local count up to the checkpoint, and
    /// [`Budget::visit`] on the meter itself at the checkpoint, so the node
    /// a cap trips at and the nodes the deadline is polled at are the
    /// meter's own.
    #[inline]
    fn visit(&mut self) -> bool {
        if self.nodes < self.checkpoint {
            self.nodes += 1;
            return true;
        }
        self.budget.nodes = self.nodes;
        let live = self.budget.visit();
        self.nodes = self.budget.nodes;
        self.checkpoint = self.budget.checkpoint();
        live
    }

    /// Single-word variant of [`extend`](State::extend) for targets of at
    /// most 64 nodes: the unused set and every candidate set live in
    /// registers (`u64` arguments and locals), adjacency rows are single
    /// loads, and the per-depth candidate stack is not touched. Candidate
    /// order and pruning semantics are identical to the general kernel.
    fn extend_small(
        &mut self,
        depth: usize,
        unused: u64,
        visit: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !self.visit() {
            self.budget_cut = true;
            return ControlFlow::Break(());
        }
        if depth == self.order.len() {
            for (slot, &t) in self.image.iter_mut().zip(&self.mapping) {
                *slot = NodeId::new(t as usize);
            }
            return visit(&self.image);
        }
        let p = self.order[depth];
        let mut unmapped_pnbrs = 0usize;
        let mut cand = unused & self.deg_masks[self.deg_mask_of[depth] as usize];
        for u in self.pattern.neighbor_slice(p) {
            let img = self.mapping[u.index()];
            if img == INVALID {
                unmapped_pnbrs += 1;
            } else {
                cand &= self.target.adjacency_word(img as usize);
            }
        }
        let mut word = cand;
        while word != 0 {
            let w = word.trailing_zeros() as usize;
            word &= word - 1;
            let row = self.target.adjacency_word(w);
            if ((row & unused).count_ones() as usize) < unmapped_pnbrs {
                continue;
            }
            self.mapping[p.index()] = w as u32;
            let flow = self.extend_small(depth + 1, unused & !(1u64 << w), visit);
            self.mapping[p.index()] = INVALID;
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Recursive candidate-pair extension, word-parallel.
    ///
    /// The candidate set for pattern node `p` is computed once per depth
    /// as a bitset intersection: the adjacency-matrix rows of every
    /// already-mapped neighbour's image ANDed together (adjacency
    /// consistency), masked by the unused set and by the precomputed
    /// degree mask — then walked lowest bit first, so targets are tried
    /// in increasing node index. One scalar cut runs per surviving
    /// candidate: the VF2 look-ahead comparing `p`'s unmapped pattern
    /// neighbours against `w`'s unused target neighbours (a popcount
    /// over `w`'s row). All cuts only remove branches that cannot
    /// complete, so the order in which *solutions* appear is identical
    /// to the unpruned search.
    fn extend(
        &mut self,
        depth: usize,
        visit: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !self.visit() {
            self.budget_cut = true;
            return ControlFlow::Break(());
        }
        if depth == self.order.len() {
            for (slot, &t) in self.image.iter_mut().zip(&self.mapping) {
                *slot = NodeId::new(t as usize);
            }
            return visit(&self.image);
        }
        let p = self.order[depth];
        let pnbrs = self.pattern.neighbor_slice(p);
        // The look-ahead bound: every still-unmapped pattern neighbour of
        // p must eventually land on a distinct unused target neighbour of
        // p's image. The mapped set is fixed throughout this depth.
        let mut unmapped_pnbrs = 0usize;

        // Candidate bitset:
        // unused ∩ degree-mask ∩ (⋂ rows of mapped neighbour images).
        let twpr = self.twpr;
        let base = depth * twpr;
        let dm = self.deg_mask_of[depth] as usize * twpr;
        for k in 0..twpr {
            self.cand_stack[base + k] = self.unused[k] & self.deg_masks[dm + k];
        }
        for u in pnbrs {
            let img = self.mapping[u.index()];
            if img == INVALID {
                unmapped_pnbrs += 1;
            } else {
                let row = self.target.adjacency_row(img as usize);
                for (slot, &r) in self.cand_stack[base..base + twpr].iter_mut().zip(row) {
                    *slot &= r;
                }
            }
        }

        for k in 0..twpr {
            // Snapshot the word: recursion below never touches this
            // depth's slice, and `unused` is restored after each descent,
            // so the candidate set is loop-invariant (matching the
            // collect-then-iterate semantics of the pre-CSR search).
            let mut word = self.cand_stack[base + k];
            while word != 0 {
                let w = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                // Look-ahead cut: w must keep enough unused neighbours
                // for p's unmapped pattern neighbours.
                if unmapped_pnbrs > 0 {
                    let row = self.target.adjacency_row(w);
                    let mut free = 0usize;
                    for (&r, &u) in row.iter().zip(&self.unused) {
                        free += (r & u).count_ones() as usize;
                        if free >= unmapped_pnbrs {
                            break;
                        }
                    }
                    if free < unmapped_pnbrs {
                        continue;
                    }
                }
                self.mapping[p.index()] = w as u32;
                self.unused[w / 64] &= !(1u64 << (w % 64));
                let flow = self.extend(depth + 1, visit);
                self.unused[w / 64] |= 1u64 << (w % 64);
                self.mapping[p.index()] = INVALID;
                flow?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Checks that `mapping` (pattern index → target node) is a valid
/// monomorphism: injective, in range, and edge-preserving.
pub fn is_monomorphism(pattern: &Graph, target: &Graph, mapping: &[NodeId]) -> bool {
    if mapping.len() != pattern.node_count() {
        return false;
    }
    let mut used = vec![false; target.node_count()];
    for &t in mapping {
        if t.index() >= target.node_count() || used[t.index()] {
            return false;
        }
        used[t.index()] = true;
    }
    pattern
        .edges()
        .all(|(a, b, _)| target.has_edge(mapping[a.index()], mapping[b.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// Every monomorphism up to the finder's limit, under an unlimited
    /// meter.
    fn all(finder: MonomorphismFinder<'_>) -> Vec<Vec<NodeId>> {
        finder.collect_budgeted(&mut Budget::unlimited(), None).0
    }

    #[test]
    fn empty_pattern_has_one_map() {
        let p = Graph::new(0);
        let t = generate::chain(3);
        assert_eq!(all(MonomorphismFinder::new(&p, &t)).len(), 1);
    }

    #[test]
    fn pattern_larger_than_target_has_none() {
        let p = generate::chain(4);
        let t = generate::chain(3);
        assert!(all(MonomorphismFinder::new(&p, &t)).is_empty());
    }

    #[test]
    fn chain3_into_c4() {
        let p = generate::chain(3);
        let t = generate::ring(4);
        let maps = all(MonomorphismFinder::new(&p, &t));
        assert_eq!(maps.len(), 8); // 4 middle choices * 2 orientations
        for m in &maps {
            assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn triangle_into_k4() {
        let p = generate::complete(3);
        let t = generate::complete(4);
        assert_eq!(all(MonomorphismFinder::new(&p, &t)).len(), 24);
    }

    #[test]
    fn triangle_into_tree_fails() {
        let p = generate::complete(3);
        let t = generate::star(6);
        assert!(all(MonomorphismFinder::new(&p, &t)).is_empty());
    }

    #[test]
    fn isolated_pattern_nodes_map_anywhere() {
        // Pattern: edge 0-1 plus isolated node 2; target: chain of 3.
        let p = Graph::from_edges(3, [(0, 1)]).unwrap();
        let t = generate::chain(3);
        let maps = all(MonomorphismFinder::new(&p, &t));
        // Edge 0-1 can map to (0,1),(1,0),(1,2),(2,1); isolated node takes
        // the single remaining vertex.
        assert_eq!(maps.len(), 4);
        for m in &maps {
            assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn limit_caps_enumeration() {
        let p = generate::chain(2);
        let t = generate::complete(6);
        assert_eq!(all(MonomorphismFinder::new(&p, &t)).len(), 30);
        assert_eq!(all(MonomorphismFinder::new(&p, &t).limit(7)).len(), 7);
    }

    #[test]
    fn monomorphism_not_induced() {
        // A path of 3 maps into a triangle even though the triangle has the
        // extra chord — monomorphism, not induced-subgraph isomorphism.
        let p = generate::chain(3);
        let t = generate::complete(3);
        assert_eq!(all(MonomorphismFinder::new(&p, &t)).len(), 6);
    }

    #[test]
    fn self_map_exists() {
        for g in [generate::grid(3, 3), generate::ring(7), generate::star(5)] {
            let ids: Vec<NodeId> = g.nodes().collect();
            assert!(is_monomorphism(&g, &g, &ids));
            assert!(!all(MonomorphismFinder::new(&g, &g).limit(1)).is_empty());
        }
    }

    #[test]
    fn validator_rejects_bad_maps() {
        let p = generate::chain(3);
        let t = generate::chain(3);
        // Non-injective.
        assert!(!is_monomorphism(
            &p,
            &t,
            &[NodeId::new(0), NodeId::new(0), NodeId::new(1)]
        ));
        // Wrong length.
        assert!(!is_monomorphism(&p, &t, &[NodeId::new(0)]));
        // Edge not preserved (0-1 pattern edge onto 0,2 non-edge).
        assert!(!is_monomorphism(
            &p,
            &t,
            &[NodeId::new(0), NodeId::new(2), NodeId::new(1)]
        ));
    }

    /// Brute-force enumeration for cross-checking.
    fn brute_force_count(p: &Graph, t: &Graph) -> usize {
        fn rec(
            p: &Graph,
            t: &Graph,
            map: &mut Vec<Option<NodeId>>,
            used: &mut Vec<bool>,
            i: usize,
        ) -> usize {
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
                    total += rec(p, t, map, used, i + 1);
                    used[w.index()] = false;
                    map[i] = None;
                }
            }
            total
        }
        let mut map = vec![None; p.node_count()];
        let mut used = vec![false; t.node_count()];
        rec(p, t, &mut map, &mut used, 0)
    }

    #[test]
    fn zero_budget_exhausts_without_visiting() {
        let p = generate::chain(3);
        let t = generate::ring(4);
        let mut budget = Budget::max_nodes(0);
        let mut seen = 0usize;
        let run = MonomorphismFinder::new(&p, &t).for_each_budgeted(&mut budget, &mut |_| {
            seen += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert_eq!(seen, 0);
        assert_eq!(run.nodes, 0);
        assert!(budget.is_exhausted());
        // The exhausted meter short-circuits follow-up searches too.
        assert_eq!(
            MonomorphismFinder::new(&p, &t).exists_budgeted(&mut budget),
            None
        );
    }

    #[test]
    fn budgeted_enumeration_is_a_prefix_of_the_unbudgeted_order() {
        let p = generate::chain(3);
        let t = generate::grid(3, 3);
        let every = all(MonomorphismFinder::new(&p, &t));
        assert!(every.len() > 4);
        for cap in [1u64, 3, 7, 20, 1_000_000] {
            let mut budget = Budget::max_nodes(cap);
            let mut got: Vec<Vec<NodeId>> = Vec::new();
            let run = MonomorphismFinder::new(&p, &t).for_each_budgeted(&mut budget, &mut |m| {
                got.push(m.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(got, every[..got.len()], "cap {cap} reordered solutions");
            if run.outcome == Outcome::Complete {
                assert_eq!(got, every);
            }
        }
    }

    #[test]
    fn unlimited_budget_completes_and_counts_nodes() {
        let p = generate::ring(4);
        let t = generate::grid(3, 3);
        let mut budget = Budget::unlimited();
        let mut n = 0usize;
        let run = MonomorphismFinder::new(&p, &t).for_each_budgeted(&mut budget, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(run.outcome, Outcome::Complete);
        assert_eq!(n, all(MonomorphismFinder::new(&p, &t)).len());
        assert!(run.nodes > 0);
        assert_eq!(budget.nodes_visited(), run.nodes);
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn trivial_searches_respect_an_exhausted_meter() {
        let empty = Graph::new(0);
        let t = generate::chain(3);
        // Live zero-node budget: the empty map needs zero nodes, so the
        // search completes truthfully.
        let mut fresh = Budget::max_nodes(0);
        let mut seen = 0usize;
        let run = MonomorphismFinder::new(&empty, &t).for_each_budgeted(&mut fresh, &mut |_| {
            seen += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(run.outcome, Outcome::Complete);
        assert_eq!(seen, 1);
        // Already-exhausted meter: nothing is visited, even for the
        // trivial searches that skip the kernel.
        let mut dead = Budget::max_nodes(1);
        assert!(dead.consume(1));
        assert!(!dead.consume(1));
        for (p, tn) in [(Graph::new(0), 3usize), (generate::chain(4), 3)] {
            let target = generate::chain(tn);
            let mut visits = 0usize;
            let run =
                MonomorphismFinder::new(&p, &target).for_each_budgeted(&mut dead, &mut |_| {
                    visits += 1;
                    ControlFlow::Continue(())
                });
            assert_eq!(run.outcome, Outcome::BudgetExhausted);
            assert_eq!(visits, 0);
        }
    }

    #[test]
    fn exists_budgeted_settles_or_returns_unknown() {
        let tri = generate::complete(3);
        let star = generate::star(6);
        let chain = generate::chain(5);
        let ring = generate::ring(6);
        let mut budget = Budget::unlimited();
        assert_eq!(
            MonomorphismFinder::new(&tri, &star).exists_budgeted(&mut budget),
            Some(false)
        );
        assert_eq!(
            MonomorphismFinder::new(&chain, &ring).exists_budgeted(&mut budget),
            Some(true)
        );
        let mut tiny = Budget::max_nodes(1);
        assert_eq!(
            MonomorphismFinder::new(&tri, &star).exists_budgeted(&mut tiny),
            None
        );
    }

    #[test]
    fn consume_checkpoints_trip_the_meter() {
        let mut budget = Budget::max_nodes(3);
        assert!(budget.consume(1));
        assert!(budget.consume(2));
        assert!(!budget.consume(1), "cap reached");
        assert!(budget.is_exhausted());
        assert!(!budget.consume(0), "exhaustion is sticky");

        let mut past = Budget::deadline(Instant::now());
        assert!(!past.consume(0), "expired deadline trips on first poll");
    }

    #[test]
    fn collect_budgeted_matches_sequential_enumeration() {
        // Unlimited, no pruning: collection must equal what a visitor
        // sees, and its node accounting must equal for_each_budgeted's.
        let cases = [
            (generate::chain(3), generate::grid(3, 3)),
            (generate::ring(4), generate::grid(3, 3)),
            (generate::chain(5), generate::ring(6)),
            (generate::star(4), generate::complete(5)),
        ];
        for (p, t) in &cases {
            let finder = MonomorphismFinder::new(p, t);
            let mut seen = Vec::new();
            let mut seq_budget = Budget::unlimited();
            let seq = finder.for_each_budgeted(&mut seq_budget, &mut |m| {
                seen.push(m.to_vec());
                ControlFlow::Continue(())
            });
            let mut budget = Budget::unlimited();
            let (sols, run) = finder.collect_budgeted(&mut budget, None);
            assert_eq!(sols, seen);
            assert_eq!(run.outcome, Outcome::Complete);
            assert_eq!(run.nodes, seq.nodes);
        }
    }

    /// Asserts that `limit(k)` collection under an optional node cap
    /// matches a sequential visitor that breaks at the k-th solution — same
    /// prefix of the full enumeration, same outcome, same node charge — and
    /// returns what collection produced.
    fn assert_collect_matches_break(
        p: &Graph,
        t: &Graph,
        k: usize,
        cap: Option<u64>,
    ) -> (Vec<Vec<NodeId>>, Outcome) {
        let mut seq_budget = Budget::new(cap, None);
        let mut seen = Vec::new();
        let seq = MonomorphismFinder::new(p, t).for_each_budgeted(&mut seq_budget, &mut |m| {
            seen.push(m.to_vec());
            if seen.len() >= k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let mut budget = Budget::new(cap, None);
        let finder = MonomorphismFinder::new(p, t).limit(k);
        let (sols, run) = finder.collect_budgeted(&mut budget, None);
        assert_eq!(sols, seen, "k {k} cap {cap:?}");
        assert_eq!(sols, all(MonomorphismFinder::new(p, t))[..sols.len()]);
        assert_eq!(run.outcome, seq.outcome, "k {k} cap {cap:?}");
        assert_eq!(run.nodes, seq.nodes, "k {k} cap {cap:?}");
        assert_eq!(budget.nodes_visited(), seq_budget.nodes_visited());
        assert_eq!(budget.is_exhausted(), seq_budget.is_exhausted());
        (sols, run.outcome)
    }

    #[test]
    fn collect_budgeted_matches_for_each_under_node_caps() {
        // Whatever node the cap lands on — before the first solution,
        // between solutions, after the limit — collection trips (or
        // completes) at exactly the node the sequential visitor does.
        let (p, t) = (generate::ring(4), generate::grid(4, 4));
        for cap in [0u64, 1, 3, 17, 100, 1_000, 1_000_000] {
            assert_collect_matches_break(&p, &t, 5, Some(cap));
        }
    }

    #[test]
    fn collect_budgeted_limit_matches_sequential_break() {
        // Capping at k must reproduce the sequential break: same prefix,
        // same node charge at the k-th emission.
        let (p, t) = (generate::chain(3), generate::grid(3, 3));
        let total = all(MonomorphismFinder::new(&p, &t)).len();
        for k in [1usize, 2, 5, 11] {
            let (sols, outcome) = assert_collect_matches_break(&p, &t, k, None);
            assert_eq!(sols.len(), k.min(total));
            assert_eq!(outcome, Outcome::Complete);
        }
    }

    /// Asserts that charging `count` (the search's node count on an
    /// unlimited meter) leaves a clone of `meter` exactly as running the
    /// search on another clone does.
    fn assert_charge_matches_search(finder: &MonomorphismFinder<'_>, meter: &Budget, count: u64) {
        let mut searched = meter.clone();
        let (_, run) = finder.collect_budgeted(&mut searched, None);
        let mut charged = meter.clone();
        let live = charged.charge_search(count);
        let case = format!("count {count} on {meter:?}");
        assert_eq!(live, run.outcome == Outcome::Complete, "{case}");
        assert_eq!(charged.nodes_visited(), searched.nodes_visited(), "{case}");
        assert_eq!(charged.is_exhausted(), searched.is_exhausted(), "{case}");
    }

    #[test]
    fn charge_search_leaves_the_meter_as_the_search_does() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x00c0_ffee);
        // One target per kernel: single-word (≤ 64 nodes) and general.
        let targets = [generate::grid(4, 4), generate::grid(9, 8)];
        for case in 0..48 {
            let target = &targets[case % 2];
            let size = rng.gen_range(2..7);
            let pattern = generate::random_connected(size, rng.gen_range(0..3), &mut rng);
            let finder = MonomorphismFinder::new(&pattern, target).limit(rng.gen_range(1..60));
            let (_, full) = finder.collect_budgeted(&mut Budget::unlimited(), None);
            let count = full.nodes;
            // Prior charges, sometimes just short of a deadline poll.
            let spent = if case % 3 == 0 {
                DEADLINE_STRIDE - rng.gen_range(1..4)
            } else {
                rng.gen_range(0..200)
            };
            let below = spent + rng.gen_range(0..count);
            for cap in [
                None,
                Some(spent + count),     // an exact fit
                Some(spent + count - 1), // one node short
                Some(spent + count + 1),
                Some(below),
                Some(spent),
                Some(spent / 2), // tripped by the prior charges
            ] {
                let far = Instant::now() + std::time::Duration::from_secs(3600);
                for deadline in [None, Some(far)] {
                    let mut meter = Budget::new(cap, deadline);
                    let _ = meter.consume(spent);
                    assert_charge_matches_search(&finder, &meter, count);
                }
            }
        }
        // Already exhausted meters: by a call, and by a passed deadline.
        let (p, t) = (generate::chain(3), generate::grid(3, 3));
        let finder = MonomorphismFinder::new(&p, &t);
        let count = finder
            .collect_budgeted(&mut Budget::unlimited(), None)
            .1
            .nodes;
        let mut tripped = Budget::max_nodes(1_000);
        tripped.exhaust();
        assert_charge_matches_search(&finder, &tripped, count);
        assert_charge_matches_search(&finder, &Budget::deadline(Instant::now()), count);
        // A search that could not finish never fits.
        let mut meter = Budget::max_nodes(500);
        assert!(!meter.charge_search(u64::MAX));
        assert_eq!((meter.nodes_visited(), meter.is_exhausted()), (500, true));
    }

    #[test]
    fn orbit_pruned_roots_cover_every_orbit_witness() {
        use crate::canonical;
        // Chain of 2 into ring of 6: unpruned has 12 solutions (6 edges
        // × 2 orientations); the ring is vertex-transitive so orbit
        // pruning keeps a single root.
        let p = generate::chain(2);
        let t = generate::ring(6);
        let auto = canonical::automorphisms(&t);
        assert!(auto.complete);
        let finder = MonomorphismFinder::new(&p, &t);
        let mut budget = Budget::unlimited();
        let (pruned, run) = finder.collect_budgeted(&mut budget, Some(&auto.orbits));
        assert_eq!(run.outcome, Outcome::Complete);
        // One root (node 0), two orientations from it.
        assert_eq!(pruned.len(), 2);
        // The depth-0 visit, root 0, and its two leaves: pruned roots
        // cost nothing.
        assert_eq!(run.nodes, 4);
        for m in &pruned {
            assert!(is_monomorphism(&p, &t, m));
        }
        // Every unpruned solution is an automorphic image of a pruned
        // one's root: existence is preserved.
        assert!(!pruned.is_empty());
        assert_eq!(all(MonomorphismFinder::new(&p, &t)).len(), 12);
    }

    #[test]
    fn orbit_pruning_with_trivial_orbits_is_a_no_op() {
        use crate::canonical;
        // Distinct weights: every orbit is a singleton, pruning keeps
        // every root and the enumeration is unchanged.
        let p = generate::chain(2);
        let t = Graph::from_weighted_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        let auto = canonical::automorphisms(&t);
        let mut budget = Budget::unlimited();
        let (sols, _) =
            MonomorphismFinder::new(&p, &t).collect_budgeted(&mut budget, Some(&auto.orbits));
        assert_eq!(sols, all(MonomorphismFinder::new(&p, &t)));
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let cases = [
            (generate::chain(3), generate::grid(2, 3)),
            (generate::ring(4), generate::grid(3, 3)),
            (generate::star(4), generate::complete(5)),
            (generate::chain(5), generate::ring(5)),
            (
                Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap(),
                generate::ring(5),
            ),
        ];
        for (p, t) in cases {
            assert_eq!(
                all(MonomorphismFinder::new(&p, &t)).len(),
                brute_force_count(&p, &t),
                "pattern {p:?} target {t:?}"
            );
        }
    }
}
