//! SWAP-permutation routing (§5.2 and §5.3).
//!
//! Between two consecutive subcircuit placements the machine state must be
//! permuted: the value at nucleus `v` has to reach nucleus `π(v)`, moving
//! only along *fast* interactions and only via SWAP gates, with
//! non-intersecting SWAPs allowed in parallel. The paper's algorithm:
//!
//! 1. cut the adjacency graph into two connected, balanced halves `G1`,
//!    `G2` (the crossing edges form the *communication channel*);
//! 2. colour each value white (destination in `G1`) or black (destination
//!    in `G2`); values with no destination — nuclei that host no logical
//!    qubit — are wildcards, coloured to balance the count;
//! 3. funnel black values toward the channel inside `G1` (the "air
//!    bubbles rise / water falls" picture) while white values funnel in
//!    `G2`, exchanging one pair across the channel whenever both ends are
//!    ready — our implementation, like the paper's, does **not** block the
//!    channel, and uses every channel edge in parallel;
//! 4. once the halves are colour-pure, recurse independently (the two
//!    sub-schedules run in parallel).
//!
//! The *leaf–target override* of §5.3 is implemented too: whenever a value
//! can be swapped directly into a leaf nucleus that is its final
//! destination, the swap is done eagerly and the leaf is excluded from the
//! rest of the stage (the paper reports 0–5% depth savings).
//!
//! For bounded-degree graphs the depth is `O(n)` (8n + O(1) for `s = 1/2`,
//! §5.2), which property tests in this crate check empirically.

use std::collections::{HashMap, HashSet};

use qcp_env::PhysicalQubit;
use qcp_graph::bisection::balanced_connected_bisection;
use qcp_graph::traversal::{connected_components, shortest_path};
use qcp_graph::{Graph, NodeId};

use crate::cost::{PlacedGate, Schedule};
use crate::{PlaceError, Result};

/// Router configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Enables the leaf–target override heuristic (§5.3). On by default.
    pub leaf_override: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            leaf_override: true,
        }
    }
}

/// A parallel SWAP schedule: levels of vertex-disjoint swaps along
/// adjacency-graph edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwapSchedule {
    levels: Vec<Vec<(PhysicalQubit, PhysicalQubit)>>,
}

impl SwapSchedule {
    /// The swap levels, outermost first.
    pub fn levels(&self) -> &[Vec<(PhysicalQubit, PhysicalQubit)>] {
        &self.levels
    }

    /// Number of levels (the quantity §5.2 minimizes).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total number of SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no swaps are needed.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Converts to a costed [`Schedule`] (each SWAP weighs three maximal
    /// couplings).
    pub fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new();
        for level in &self.levels {
            s.push_level(level.iter().map(|&(a, b)| PlacedGate::swap(a, b)).collect());
        }
        s
    }

    /// Simulates the schedule: returns `final_pos` where the value
    /// initially at vertex `v` ends at `final_pos[v]`.
    pub fn simulate(&self, n: usize) -> Vec<usize> {
        // token_at[v] = original home of the value now at v.
        let mut token_at: Vec<usize> = (0..n).collect();
        for level in &self.levels {
            for &(a, b) in level {
                token_at.swap(a.index(), b.index());
            }
        }
        let mut pos = vec![0usize; n];
        for (v, &t) in token_at.iter().enumerate() {
            pos[t] = v;
        }
        pos
    }
}

/// Routes the permutation `targets` on `graph`: the value at vertex `v`
/// must reach `targets[v]`; `None` marks a don't-care value. Returns a
/// parallel swap schedule along graph edges.
///
/// A one-shot [`Router`]: callers that route many permutations over the
/// same graph keep one [`Router`] instead, which reuses its bisections
/// and buffers across calls.
///
/// # Errors
///
/// * [`PlaceError::InvalidPlacement`] if `targets` has the wrong length or
///   repeats a destination;
/// * [`PlaceError::RoutingImpossible`] if a value's destination lies in a
///   different connected component.
pub fn route_permutation(
    graph: &Graph,
    targets: &[Option<usize>],
    config: &RouterConfig,
) -> Result<SwapSchedule> {
    Router::new(graph, *config).route(targets)
}

/// The §5.2 router over one routing graph, reusable across permutations.
///
/// A placement request routes hundreds to thousands of permutations over
/// the same graph, but the recursion meets only a few dozen distinct
/// *active sets* (the vertices a `route_rec` level still has to sort). The
/// router fills four things lazily, on the first route that needs them,
/// and keeps them for every later call:
///
/// * the graph's connected components (each in BFS order);
/// * the balanced bisection of every active set met, keyed by the set's
///   `u64` bitset words;
/// * the colour, freeze, level, distance and queue buffers of the
///   exchange phase, indexed by vertex and reset only where a level
///   touched them;
/// * one flat swap buffer. The recursion pushes every swap as
///   `(level, a, b)` in depth-first order; a counting sort by level then
///   lays the schedule out level by level. Within a level, depth-first
///   order (left half before right half, component by component) is the
///   order in which the disjoint sub-schedules run side by side.
///
/// The set alone is an exact key because the bisection of a set is a
/// function of the set's vertex *order* too, and that order is always the
/// same: every active list is its component's BFS order restricted to the
/// set. The top level is the component itself; the halves of a bisection
/// are sorted by position in their parent's list; the recursion only drops
/// frozen leaves from them. Debug builds check this on every memo hit.
///
/// [`Router::new`] allocates nothing, so a caller that never routes pays
/// nothing. Schedules are identical to a fresh [`route_permutation`] call
/// for every input, whatever the router routed before. The placer scores
/// most routes straight from the swap buffer and copies a route out into
/// an owned [`SwapSchedule`] only when it commits one.
#[derive(Debug)]
pub struct Router<'g> {
    graph: &'g Graph,
    config: RouterConfig,
    /// Connected components, each in BFS order; empty until the first
    /// route.
    components: Vec<Vec<usize>>,
    /// Each vertex's component, and its position in that component's BFS
    /// order (empty until the first route).
    comp_of: Vec<usize>,
    rank: Vec<usize>,
    /// The bisection of every active set met so far, keyed by the set's
    /// bitset words.
    splits: HashMap<Box<[u64]>, Split>,
    scratch: Scratch,
    /// The working copy of the route's targets, and the destinations seen
    /// while validating them.
    dest: Vec<Option<usize>>,
    seen: Vec<bool>,
    /// The last route's swaps laid out level by level: level `l` is
    /// `swaps[starts[l]..starts[l + 1]]`. Empty after a failed route.
    swaps: Vec<(PhysicalQubit, PhysicalQubit)>,
    starts: Vec<usize>,
}

/// One memoized bisection of an active set, in graph vertex indices.
#[derive(Debug)]
struct Split {
    /// The smaller half, then the larger, each in active-list order.
    left: Vec<usize>,
    right: Vec<usize>,
    /// The communication channel, `(left end, right end)` per edge.
    channel: Vec<(usize, usize)>,
    /// Bitsets of `left` and of the channel's endpoints.
    left_bits: Box<[u64]>,
    channel_ends: Box<[u64]>,
}

/// Working buffers of the exchange phase, one slot per graph vertex.
///
/// A `route_rec` level writes only the slots of its active set, and
/// resets the ones it reads before reading them, so the buffers are
/// shared down the recursion and across routes.
#[derive(Debug, Default)]
struct Scratch {
    /// The current level's active set as bitset words (the memo key).
    active: Vec<u64>,
    /// Value colour: white = destination in the left half.
    white: Vec<bool>,
    /// Leaves retired by the leaf–target override.
    frozen: Vec<bool>,
    /// Vertices already swapped in the level being built (all `false`
    /// between levels).
    used: Vec<bool>,
    /// Hop distance to the designated channel end within one side
    /// (`u32::MAX` when unreached, restored after every funnel).
    dist: Vec<u32>,
    /// BFS queue; afterwards, the vertices whose distance to restore.
    queue: Vec<usize>,
    /// Wildcard values being coloured, or wrong-coloured values being
    /// funnelled.
    pending: Vec<usize>,
    /// Every swap of the route so far as `(level, a, b)`, in depth-first
    /// order.
    pushed: Vec<(usize, usize, usize)>,
}

/// Tests bit `v` of a bitset.
#[inline]
fn bit(words: &[u64], v: usize) -> bool {
    words[v / 64] >> (v % 64) & 1 != 0
}

/// The bitset of `vertices` over a graph of `n` vertices.
fn bitset(n: usize, vertices: impl IntoIterator<Item = usize>) -> Box<[u64]> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for v in vertices {
        words[v / 64] |= 1 << (v % 64);
    }
    words.into_boxed_slice()
}

impl<'g> Router<'g> {
    /// A router over `graph`. Allocates nothing until the first route.
    pub fn new(graph: &'g Graph, config: RouterConfig) -> Self {
        Router {
            graph,
            config,
            components: Vec::new(),
            comp_of: Vec::new(),
            rank: Vec::new(),
            splits: HashMap::new(),
            scratch: Scratch::default(),
            dest: Vec::new(),
            seen: Vec::new(),
            swaps: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Routes the permutation `targets` exactly as [`route_permutation`]
    /// does.
    ///
    /// # Errors
    ///
    /// The same as [`route_permutation`].
    pub fn route(&mut self, targets: &[Option<usize>]) -> Result<SwapSchedule> {
        self.route_in_place(targets)?;
        Ok(self.schedule())
    }

    /// Routes `targets` into the router's swap buffer, which
    /// [`levels`](Router::levels) then reads; [`route`](Router::route)
    /// without the copy-out. A failed route leaves the buffer empty.
    pub(crate) fn route_in_place(&mut self, targets: &[Option<usize>]) -> Result<()> {
        self.clear();
        let n = self.graph.node_count();
        if targets.len() != n {
            return Err(PlaceError::InvalidPlacement {
                message: format!("targets length {} != graph size {n}", targets.len()),
            });
        }
        self.seen.clear();
        self.seen.resize(n, false);
        for t in targets.iter().flatten() {
            if *t >= n || self.seen[*t] {
                return Err(PlaceError::InvalidPlacement {
                    message: format!("destination {t} repeated or out of range"),
                });
            }
            self.seen[*t] = true;
        }

        // Validate component-wise reachability, then route each component.
        if self.comp_of.len() != n {
            self.components = connected_components(self.graph)
                .into_iter()
                .map(|comp| comp.into_iter().map(NodeId::index).collect())
                .collect();
            self.comp_of = vec![usize::MAX; n];
            self.rank = vec![usize::MAX; n];
            for (ci, comp) in self.components.iter().enumerate() {
                for (i, &v) in comp.iter().enumerate() {
                    self.comp_of[v] = ci;
                    self.rank[v] = i;
                }
            }
            let s = &mut self.scratch;
            s.white = vec![false; n];
            s.frozen = vec![false; n];
            s.used = vec![false; n];
            s.dist = vec![u32::MAX; n];
        }
        for (v, t) in targets.iter().enumerate() {
            if let Some(t) = *t {
                if self.comp_of[v] != self.comp_of[t] {
                    return Err(PlaceError::RoutingImpossible {
                        stuck: PhysicalQubit::new(v),
                    });
                }
            }
        }

        let mut dest = std::mem::take(&mut self.dest);
        dest.clear();
        dest.extend_from_slice(targets);
        let components = std::mem::take(&mut self.components);
        // Components are disjoint: their schedules all start at level 0
        // and run in parallel.
        let routed = components
            .iter()
            .try_for_each(|comp| self.route_rec(comp, &mut dest, 0));
        self.components = components;
        self.dest = dest;
        routed?;

        // Counting sort of the pushed swaps by level. It is stable, so
        // each level keeps depth-first order.
        let pushed = &self.scratch.pushed;
        let depth = pushed.iter().map(|&(l, _, _)| l + 1).max().unwrap_or(0);
        let starts = &mut self.starts;
        starts.resize(depth + 1, 0);
        for &(l, _, _) in pushed {
            starts[l + 1] += 1;
        }
        for l in 0..depth {
            starts[l + 1] += starts[l];
        }
        debug_assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "a route left an empty level"
        );
        // `starts[l]` is now level `l`'s fill cursor. Each cursor ends on
        // its level's end, the next level's start, so one rotation turns
        // the cursors back into starts.
        let unset = (PhysicalQubit::new(0), PhysicalQubit::new(0));
        self.swaps.resize(pushed.len(), unset);
        for &(l, a, b) in pushed {
            self.swaps[starts[l]] = (PhysicalQubit::new(a), PhysicalQubit::new(b));
            starts[l] += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Ok(())
    }

    /// The swap levels of the last route, outermost first (none after a
    /// failed route or a [`clear`](Router::clear)).
    pub(crate) fn levels(&self) -> impl Iterator<Item = &[(PhysicalQubit, PhysicalQubit)]> {
        self.starts.windows(2).map(|w| &self.swaps[w[0]..w[1]])
    }

    /// Copies the last route out into an owned schedule.
    pub(crate) fn schedule(&self) -> SwapSchedule {
        SwapSchedule {
            levels: self.levels().map(<[_]>::to_vec).collect(),
        }
    }

    /// Empties the swap buffer: the state of a route that needs no swaps.
    pub(crate) fn clear(&mut self) {
        self.scratch.pushed.clear();
        self.swaps.clear();
        self.starts.clear();
    }

    /// Routes the values of `active` to their destinations (all inside
    /// `active`): bisect, exchange across the channel until both halves
    /// are colour-pure, then recurse on each half. The swaps go to the
    /// swap buffer, the first of them at level `base`.
    fn route_rec(
        &mut self,
        active: &[usize],
        dest: &mut [Option<usize>],
        base: usize,
    ) -> Result<()> {
        if is_done(active, dest) {
            return Ok(());
        }
        if active.len() < 2 {
            // A lone unsatisfied vertex cannot be fixed.
            return Err(PlaceError::RoutingImpossible {
                stuck: PhysicalQubit::new(active.first().copied().unwrap_or(0)),
            });
        }

        // Bisect the active set, or recall its bisection.
        let n = self.graph.node_count();
        let key = &mut self.scratch.active;
        key.clear();
        key.resize(n.div_ceil(64), 0);
        for &v in active {
            key[v / 64] |= 1 << (v % 64);
        }
        if self.splits.contains_key(&key[..]) {
            debug_assert!(
                active
                    .windows(2)
                    .all(|w| self.comp_of[w[0]] == self.comp_of[w[1]]
                        && self.rank[w[0]] < self.rank[w[1]]),
                "active list is not its component's BFS order restricted to the set"
            );
        } else {
            let split = bisect(self.graph, active)?;
            self.splits.insert(key.clone().into_boxed_slice(), split);
        }
        let split = &self.splits[&self.scratch.active[..]];
        let in_left = |v: usize| bit(&split.left_bits, v);

        // Colour values: White = destination in the left half.
        // Wildcards are assigned to balance, preferring their current side so
        // they move as little as possible.
        let s = &mut self.scratch;
        let mut fixed_white = 0usize;
        s.pending.clear();
        for &v in active {
            s.white[v] = false;
            s.frozen[v] = false;
            match dest[v] {
                Some(d) => {
                    if in_left(d) {
                        s.white[v] = true;
                        fixed_white += 1;
                    }
                }
                None => s.pending.push(v),
            }
        }
        let mut need_white = split.left.len() - fixed_white.min(split.left.len());
        debug_assert!(
            fixed_white <= split.left.len(),
            "more fixed whites than room in the left half"
        );
        // Wildcards already in the left half take white first.
        s.pending.sort_unstable_by_key(|&v| (!in_left(v), v));
        for &v in &s.pending {
            if need_white > 0 {
                s.white[v] = true;
                need_white -= 1;
            }
        }

        // Exchange phase.
        let mut level = base;
        let max_iters = 8 * active.len() + 16; // safety margin over the 8n bound
        for _ in 0..max_iters {
            let misplaced = active
                .iter()
                .any(|&v| !s.frozen[v] && (s.white[v] != in_left(v)));
            if !misplaced {
                break;
            }
            if !s.build_level(self.graph, &self.config, active, split, dest, level) {
                return Err(PlaceError::RoutingImpossible {
                    stuck: PhysicalQubit::new(
                        active
                            .iter()
                            .copied()
                            .find(|&v| s.white[v] != in_left(v))
                            .unwrap_or(active[0]),
                    ),
                });
            }
            level += 1;
        }
        debug_assert!(
            active
                .iter()
                .all(|&v| s.frozen[v] || s.white[v] == in_left(v)),
            "exchange phase exceeded its iteration budget"
        );

        // Recurse on both halves (minus satisfied frozen leaves) in
        // parallel: both start at the level after the exchange.
        let remaining = |side: &[usize]| -> Vec<usize> {
            side.iter().copied().filter(|&v| !s.frozen[v]).collect()
        };
        let (la, lb) = (remaining(&split.left), remaining(&split.right));
        for half in [la, lb] {
            if !half.is_empty() {
                self.route_rec(&half, dest, level)?;
            }
        }
        Ok(())
    }
}

/// Bisects the subgraph induced by `active` (vertex `i` of the induced
/// graph is `active[i]`) and maps the result back to graph indices.
fn bisect(graph: &Graph, active: &[usize]) -> Result<Split> {
    let active_ids: Vec<NodeId> = active.iter().map(|&v| NodeId::new(v)).collect();
    let (sub, back) = graph
        .induced(&active_ids)
        .map_err(|e| PlaceError::InvalidPlacement {
            message: format!("induced subgraph failed: {e}"),
        })?;
    let bisection =
        balanced_connected_bisection(&sub).map_err(|e| PlaceError::InvalidPlacement {
            message: format!("bisection failed: {e}"),
        })?;
    let to_graph =
        |half: &[NodeId]| -> Vec<usize> { half.iter().map(|&v| back[v.index()].index()).collect() };
    let (left, right) = (to_graph(&bisection.left), to_graph(&bisection.right));
    let channel: Vec<(usize, usize)> = bisection
        .channel
        .iter()
        .map(|&(a, b)| (back[a.index()].index(), back[b.index()].index()))
        .collect();
    let n = graph.node_count();
    Ok(Split {
        left_bits: bitset(n, left.iter().copied()),
        channel_ends: bitset(n, channel.iter().flat_map(|&(a, b)| [a, b])),
        left,
        right,
        channel,
    })
}

fn is_done(active: &[usize], dest: &[Option<usize>]) -> bool {
    active.iter().all(|&v| dest[v].is_none_or(|d| d == v))
}

impl Scratch {
    /// Builds one parallel swap level over `active` (whose bitset is in
    /// `self.active`), pushes its swaps at `level`, and applies it to the
    /// colours and `dest`. Returns `false` if the level is empty.
    fn build_level(
        &mut self,
        graph: &Graph,
        config: &RouterConfig,
        active: &[usize],
        split: &Split,
        dest: &mut [Option<usize>],
        level: usize,
    ) -> bool {
        let Scratch {
            active: active_bits,
            white,
            frozen,
            used,
            dist,
            queue,
            pending,
            pushed,
        } = self;
        let is_active = |v: usize| bit(active_bits, v);
        let in_left = |v: usize| bit(&split.left_bits, v);
        let first = pushed.len();
        let do_swap = |u: usize,
                       v: usize,
                       white: &mut [bool],
                       dest: &mut [Option<usize>],
                       used: &mut [bool],
                       pushed: &mut Vec<(usize, usize, usize)>| {
            dest.swap(u, v);
            white.swap(u, v);
            used[u] = true;
            used[v] = true;
            pushed.push((level, u, v));
        };

        // 1. Leaf–target override (§5.3): deliver values straight into leaf
        //    destinations and retire the leaf.
        if config.leaf_override {
            for &v in active {
                if frozen[v] || used[v] {
                    continue;
                }
                let Some(d) = dest[v] else { continue };
                if d == v || used[d] || frozen[d] {
                    continue;
                }
                if !graph.has_edge(NodeId::new(v), NodeId::new(d)) {
                    continue;
                }
                // The destination must be an active leaf, not a channel end
                // (freezing a channel endpoint could block the exchange), and
                // its current value must not itself be finalized there. The
                // working degree counts active, unfrozen neighbours.
                if !is_active(d)
                    || bit(&split.channel_ends, d)
                    || graph
                        .neighbor_slice(NodeId::new(d))
                        .iter()
                        .filter(|u| is_active(u.index()) && !frozen[u.index()])
                        .count()
                        != 1
                {
                    continue;
                }
                if dest[d] == Some(d) {
                    continue;
                }
                do_swap(v, d, white, dest, used, pushed);
                frozen[d] = true;
            }
        }

        // 2. Cross-channel exchanges: black on the left end, white on the
        //    right end. (The channel is never blocked, and all channel edges
        //    work in parallel.)
        for &(a, b) in &split.channel {
            if used[a] || used[b] || frozen[a] || frozen[b] {
                continue;
            }
            if !white[a] && white[b] {
                do_swap(a, b, white, dest, used, pushed);
            }
        }

        // 3. Funnel wrong-coloured values toward the channel on both sides.
        //    Distances are measured to a single *designated* channel edge
        //    (§5.2: "we suppose that the communication channel consists of a
        //    single edge, otherwise, choose a single edge") so both queues
        //    provably meet; the other channel edges still exchange
        //    opportunistically in step 2 above.
        if let Some(&(a, b)) = split.channel.first() {
            for (side_is_left, source) in [(true, a), (false, b)] {
                let in_side = |v: usize| is_active(v) && in_left(v) == side_is_left && !frozen[v];
                if !in_side(source) {
                    continue;
                }
                // Hop distances to the channel end within this side.
                queue.clear();
                queue.push(source);
                dist[source] = 0;
                let mut head = 0;
                while let Some(&v) = queue.get(head) {
                    head += 1;
                    for u in graph.neighbor_slice(NodeId::new(v)) {
                        let u = u.index();
                        if dist[u] == u32::MAX && in_side(u) {
                            dist[u] = dist[v] + 1;
                            queue.push(u);
                        }
                    }
                }
                // Wrong colour on this side: black-on-left or white-on-right.
                pending.clear();
                pending.extend(
                    active
                        .iter()
                        .copied()
                        .filter(|&v| in_side(v) && white[v] != in_left(v) && !used[v]),
                );
                pending.sort_unstable_by_key(|&v| (dist[v], v));
                for &v in pending.iter() {
                    let dv = dist[v];
                    if used[v] || dv == u32::MAX || dv == 0 {
                        // Unreachable, or already at the channel waiting
                        // for the partner.
                        continue;
                    }
                    // Step toward the channel through a right-coloured
                    // neighbour (the lowest-index one).
                    let step = graph
                        .neighbor_slice(NodeId::new(v))
                        .iter()
                        .map(|u| u.index())
                        .find(|&u| {
                            in_side(u) && !used[u] && white[u] == in_left(u) && dist[u] == dv - 1
                        });
                    if let Some(u) = step {
                        do_swap(v, u, white, dest, used, pushed);
                    }
                }
                for &v in queue.iter() {
                    dist[v] = u32::MAX;
                }
            }
        }

        for &(_, a, b) in &pushed[first..] {
            used[a] = false;
            used[b] = false;
        }
        pushed.len() > first
    }
}

/// A simple baseline router for comparison: completes the wildcard values
/// into a full permutation, then satisfies destinations one leaf of a
/// spanning tree at a time, moving each value along a shortest path (one
/// swap per level — no parallelism).
///
/// Guaranteed to terminate with `O(n·diameter)` swaps; the recursive
/// bisection router beats it on both depth and swap count, which the
/// ablation benchmark (`qcp-bench`, `ablation` binary) quantifies.
///
/// # Errors
///
/// Same failure conditions as [`route_permutation`].
pub fn route_sequential(graph: &Graph, targets: &[Option<usize>]) -> Result<SwapSchedule> {
    let n = graph.node_count();
    if targets.len() != n {
        return Err(PlaceError::InvalidPlacement {
            message: format!("targets length {} != graph size {n}", targets.len()),
        });
    }
    let components = connected_components(graph);
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in components.iter().enumerate() {
        for &v in comp {
            comp_of[v.index()] = ci;
        }
    }
    // Complete wildcards into a bijection per component.
    let mut dest: Vec<Option<usize>> = targets.to_vec();
    for comp in &components {
        let members: HashSet<usize> = comp.iter().map(|v| v.index()).collect();
        let mut taken: HashSet<usize> = HashSet::new();
        for &v in comp {
            if let Some(d) = dest[v.index()] {
                if !members.contains(&d) {
                    return Err(PlaceError::RoutingImpossible {
                        stuck: PhysicalQubit::new(v.index()),
                    });
                }
                taken.insert(d);
            }
        }
        let mut free: Vec<usize> = comp
            .iter()
            .map(|v| v.index())
            .filter(|d| !taken.contains(d))
            .collect();
        free.sort_unstable();
        for &v in comp {
            if dest[v.index()].is_none() {
                #[allow(clippy::expect_used)]
                let slot = free
                    .pop()
                    .expect("invariant: free slots match unassigned values per component");
                dest[v.index()] = Some(slot);
            }
        }
    }

    let mut levels: Vec<Vec<(usize, usize)>> = Vec::new();
    // Satisfy one destination at a time, shrinking the graph leaf-first.
    let mut alive: Vec<bool> = vec![true; n];
    let mut remaining: usize = n;
    while remaining > 0 {
        // Pick the largest-index leaf (or any vertex of degree <= 1) of
        // the alive induced subgraph.
        let alive_ids: Vec<NodeId> = (0..n).filter(|&v| alive[v]).map(NodeId::new).collect();
        let (sub, back) = graph
            .induced(&alive_ids)
            .map_err(|e| PlaceError::InvalidPlacement {
                message: format!("induced failed: {e}"),
            })?;
        // Spanning-tree leaf of each component: a vertex whose removal
        // keeps the rest connected. Use a BFS tree leaf.
        let mut leaf: Option<usize> = None;
        let mut visited = vec![false; sub.node_count()];
        for start in sub.nodes() {
            if visited[start.index()] {
                continue;
            }
            let tree = qcp_graph::spanning::RootedTree::bfs(&sub, start).map_err(|e| {
                PlaceError::InvalidPlacement {
                    message: format!("tree failed: {e}"),
                }
            })?;
            for &v in tree.nodes() {
                visited[v.index()] = true;
            }
            #[allow(clippy::expect_used)]
            let l = *tree
                .nodes()
                .last()
                .expect("invariant: BFS trees are non-empty");
            leaf = Some(back[l.index()].index());
            break;
        }
        #[allow(clippy::expect_used)]
        let d = leaf.expect("invariant: the alive set is non-empty until every target is routed");
        // Which value must end at d?
        let holder = (0..n).find(|&v| alive[v] && dest[v] == Some(d));
        if let Some(h) = holder {
            if h != d {
                #[allow(clippy::expect_used)]
                let (sh, sd) = (
                    alive_ids
                        .iter()
                        .position(|&x| x.index() == h)
                        .expect("invariant: holder is alive"),
                    alive_ids
                        .iter()
                        .position(|&x| x.index() == d)
                        .expect("invariant: destination is alive"),
                );
                let path = shortest_path(&sub, NodeId::new(sh), NodeId::new(sd)).ok_or(
                    PlaceError::RoutingImpossible {
                        stuck: PhysicalQubit::new(h),
                    },
                )?;
                for w in path.windows(2) {
                    let (a, b) = (back[w[0].index()].index(), back[w[1].index()].index());
                    dest.swap(a, b);
                    levels.push(vec![(a, b)]);
                }
            }
        }
        alive[d] = false;
        remaining -= 1;
    }
    Ok(SwapSchedule {
        levels: levels
            .into_iter()
            .map(|lv| {
                lv.into_iter()
                    .map(|(a, b)| (PhysicalQubit::new(a), PhysicalQubit::new(b)))
                    .collect()
            })
            .collect(),
    })
}

/// Checks that `schedule` realizes `targets` on `graph`: every swap uses a
/// graph edge, swaps within one level are vertex-disjoint, and every value
/// with a destination arrives.
pub fn verify_schedule(graph: &Graph, targets: &[Option<usize>], schedule: &SwapSchedule) -> bool {
    let n = graph.node_count();
    if targets.len() != n {
        return false;
    }
    for level in schedule.levels() {
        let mut used = HashSet::new();
        for &(a, b) in level {
            if !graph.has_edge(NodeId::new(a.index()), NodeId::new(b.index())) {
                return false;
            }
            if !used.insert(a.index()) || !used.insert(b.index()) {
                return false;
            }
        }
    }
    let pos = schedule.simulate(n);
    targets
        .iter()
        .enumerate()
        .all(|(v, t)| t.is_none_or(|d| pos[v] == d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_graph::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn full_targets(perm: &[usize]) -> Vec<Option<usize>> {
        perm.iter().map(|&d| Some(d)).collect()
    }

    #[test]
    fn identity_needs_no_swaps() {
        let g = generate::chain(5);
        let t: Vec<Option<usize>> = (0..5).map(Some).collect();
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(s.is_empty());
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn adjacent_swap_on_chain() {
        let g = generate::chain(3);
        let t = full_targets(&[1, 0, 2]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn full_reversal_on_chain() {
        // The worst-case permutation (n, 2, 3, …, n−1, 1)-style reversal.
        for n in 2..10 {
            let g = generate::chain(n);
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
            assert!(verify_schedule(&g, &t, &s), "reversal failed on n={n}");
            assert!(
                s.depth() <= 8 * n + 8,
                "depth {} exceeds linear bound for n={n}",
                s.depth()
            );
        }
    }

    #[test]
    fn asymptotic_witness_permutation() {
        // §5.2's witness: (n, 2, 3, …, n−1, 1) — exchange the chain ends.
        let n = 9;
        let g = generate::chain(n);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.swap(0, n - 1);
        let t = full_targets(&perm);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // Moving a value across the whole chain needs at least n-1 swaps.
        assert!(s.swap_count() >= n - 1);
    }

    #[test]
    fn wildcards_are_dont_care() {
        let g = generate::chain(4);
        // Only one value is constrained: end to end.
        let mut t = vec![None; 4];
        t[0] = Some(3);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn routes_on_trees_grids_rings() {
        let graphs = vec![
            generate::star(7),
            generate::grid(3, 3),
            generate::ring(8),
            generate::caterpillar(4, 1),
        ];
        for g in graphs {
            let n = g.node_count();
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
            assert!(verify_schedule(&g, &t, &s), "failed on {g:?}");
        }
    }

    #[test]
    fn leaf_override_toggle_both_correct() {
        let g = generate::caterpillar(5, 2);
        let n = g.node_count();
        let perm: Vec<usize> = (1..n).chain([0]).collect();
        let t = full_targets(&perm);
        for cfg in [
            RouterConfig {
                leaf_override: true,
            },
            RouterConfig {
                leaf_override: false,
            },
        ] {
            let s = route_permutation(&g, &t, &cfg).unwrap();
            assert!(
                verify_schedule(&g, &t, &s),
                "leaf_override={}",
                cfg.leaf_override
            );
        }
    }

    #[test]
    fn cross_component_target_is_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut t = vec![None; 4];
        t[0] = Some(2);
        let err = route_permutation(&g, &t, &RouterConfig::default()).unwrap_err();
        assert!(matches!(err, PlaceError::RoutingImpossible { .. }));
    }

    #[test]
    fn within_component_routing_on_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let t = full_targets(&[1, 0, 3, 2]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // Both component swaps fit in one parallel level.
        assert_eq!(s.depth(), 1);
        assert_eq!(s.swap_count(), 2);
    }

    #[test]
    fn duplicate_target_rejected() {
        let g = generate::chain(3);
        let t = vec![Some(1), Some(1), None];
        assert!(matches!(
            route_permutation(&g, &t, &RouterConfig::default()).unwrap_err(),
            PlaceError::InvalidPlacement { .. }
        ));
    }

    #[test]
    fn sequential_baseline_correct() {
        for (g, n) in [
            (generate::chain(6), 6),
            (generate::grid(2, 4), 8),
            (generate::ring(5), 5),
        ] {
            let perm: Vec<usize> = (0..n).rev().collect();
            let t = full_targets(&perm);
            let s = route_sequential(&g, &t).unwrap();
            assert!(verify_schedule(&g, &t, &s), "sequential failed on {g:?}");
        }
    }

    #[test]
    fn sequential_handles_wildcards() {
        let g = generate::chain(5);
        let mut t = vec![None; 5];
        t[1] = Some(4);
        let s = route_sequential(&g, &t).unwrap();
        assert!(verify_schedule(&g, &t, &s));
    }

    #[test]
    fn bisection_router_parallelism_beats_sequential_depth() {
        let g = generate::chain(10);
        let perm: Vec<usize> = (0..10).rev().collect();
        let t = full_targets(&perm);
        let par = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        let seq = route_sequential(&g, &t).unwrap();
        assert!(
            par.depth() < seq.depth(),
            "parallel depth {} not below sequential {}",
            par.depth(),
            seq.depth()
        );
    }

    #[test]
    fn schedule_to_costed_schedule() {
        let g = generate::chain(3);
        let t = full_targets(&[2, 1, 0]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        let costed = s.to_schedule();
        assert_eq!(costed.gate_count(), s.swap_count());
    }

    /// A seeded permutation of `0..n` with about `share` of the values
    /// turned into wildcards.
    fn partial_targets(n: usize, share: f64, rng: &mut StdRng) -> Vec<Option<usize>> {
        generate::random_permutation(n, rng)
            .into_iter()
            .map(|d| (!rng.gen_bool(share)).then_some(d))
            .collect()
    }

    /// The scoring path reads each route's levels straight from the
    /// router's swap buffer. On one router reused across graphs' worth of
    /// routes, those levels must be the ones `route` copies out, and both
    /// must be a fresh `route_permutation`'s.
    #[test]
    fn buffered_levels_match_route_and_fresh_routes() {
        let mut rng = StdRng::seed_from_u64(21);
        let graphs = [
            generate::chain(9),
            generate::chain(16),
            generate::grid(3, 3),
            generate::grid(4, 5),
            generate::random_tree(13, &mut rng),
            generate::random_tree(24, &mut rng),
            generate::random_connected(16, 8, &mut rng),
            generate::random_connected(30, 15, &mut rng),
        ];
        for g in &graphs {
            let n = g.node_count();
            for leaf_override in [true, false] {
                let config = RouterConfig { leaf_override };
                let mut router = Router::new(g, config);
                for call in 0..30 {
                    let share = [0.0, 0.3, 0.7][call % 3];
                    let t = partial_targets(n, share, &mut rng);
                    router.route_in_place(&t).unwrap();
                    let buffered: Vec<Vec<_>> = router.levels().map(<[_]>::to_vec).collect();
                    let routed = router.route(&t).unwrap();
                    assert_eq!(buffered, routed.levels(), "call {call} on {g:?}");
                    assert_eq!(routed, route_permutation(g, &t, &config).unwrap());
                }
            }
        }
    }

    /// A failed route, or a `clear`, empties the swap buffer, and the
    /// next route is unaffected.
    #[test]
    fn a_failed_route_leaves_no_stale_levels() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let config = RouterConfig::default();
        let good = full_targets(&[2, 1, 0, 5, 4, 3]);
        let mut cross = vec![None; 6];
        cross[0] = Some(3);
        let bad = [
            vec![Some(0); 6], // repeated destination
            vec![None; 5],    // wrong length
            cross,            // destination in another component
        ];
        let mut router = Router::new(&g, config);
        for t in &bad {
            router.route_in_place(&good).unwrap();
            assert!(router.levels().count() > 0);
            assert!(router.route_in_place(t).is_err());
            assert_eq!(router.levels().count(), 0, "stale levels after {t:?}");
            assert!(router.schedule().is_empty());
            assert!(router.route(t).is_err());
            assert_eq!(
                router.route(&good).unwrap(),
                route_permutation(&g, &good, &config).unwrap()
            );
        }
        router.clear();
        assert_eq!(router.levels().count(), 0);
    }

    #[test]
    fn example_4_crotonic_permutation() {
        // Example 4: permute (M C1 H1 C2 C3 H2 C4) -> values move
        // M→C1, C1→C2, H1→C3, C2→C4, C3→H2, H2→H1, C4→M along the bond
        // graph of trans-crotonic acid.
        let env = qcp_env::molecules::trans_crotonic_acid();
        let g = env.bond_graph();
        // Indices: M=0, C1=1, H1=2, C2=3, C3=4, H2=5, C4=6.
        let t = full_targets(&[1, 3, 4, 6, 5, 2, 0]);
        let s = route_permutation(&g, &t, &RouterConfig::default()).unwrap();
        assert!(verify_schedule(&g, &t, &s));
        // The paper separates the halves in 3 steps and finishes the
        // sub-permutations in parallel; allow a small constant factor.
        assert!(s.depth() <= 10, "depth {}", s.depth());
    }
}
