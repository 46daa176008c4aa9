//! Anytime placement strategies: budgeted exact search with a heuristic
//! fallback chain.
//!
//! The paper's placer is built on exact VF2 subgraph embedding, which is
//! all-or-nothing: on large or sparse device topologies it either finds
//! the optimal alignment or blows its time budget without an answer. This
//! module makes placement *anytime* — a request always gets a valid
//! placement within a configured [`SearchBudget`]:
//!
//! * [`ExactVf2`] — the §5 pipeline with budget-aware early termination
//!   threaded all the way into the VF2 kernel. Exactness stays
//!   all-or-nothing: if the budget trips anywhere, the strategy fails
//!   with [`PlaceError::BudgetExhausted`] instead of committing a
//!   half-searched answer.
//! * [`GreedyAnneal`] — a degree/interaction-weight greedy seed mapping
//!   refined by simulated annealing over the [`CostEngine`], with
//!   interactions that land on non-adjacent nuclei routed through the
//!   existing SWAP router. Deterministic (seeded via the vendored `rand`
//!   shim) and never more than a few milliseconds from *an* answer.
//! * [`Hybrid`] — budgeted exact first, greedy+anneal fallback. With an
//!   unlimited budget it is bit-identical to [`ExactVf2`]; with a
//!   deadline it degrades gracefully instead of failing.
//!
//! Strategies are selected per request through
//! [`PlacerConfig::strategy`](crate::PlacerConfig) and every committed
//! [`PlacementOutcome`] records how it was obtained in its
//! [`Resolution`].

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qcp_circuit::{Circuit, Gate, Qubit};
use qcp_env::PhysicalQubit;
use qcp_graph::vf2;
use qcp_graph::{Graph, NodeId};

use crate::cost::{CostEngine, PlacedGate, Schedule};
use crate::placer::{PlacementOutcome, Placer, Stage};
use crate::router::{Router, SwapSchedule};
use crate::{PlaceError, Placement, Result};

/// Which placement strategy drives [`Placer::place`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The budgeted exact pipeline ([`ExactVf2`]); the paper's behaviour.
    #[default]
    Exact,
    /// The greedy + simulated-annealing heuristic ([`GreedyAnneal`]).
    Anneal,
    /// Budgeted exact with heuristic fallback ([`Hybrid`]).
    Hybrid,
}

impl Strategy {
    /// All strategies, in CLI order.
    pub const ALL: [Strategy; 3] = [Strategy::Exact, Strategy::Anneal, Strategy::Hybrid];

    /// The CLI spelling (`exact`, `anneal`, `hybrid`).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Exact => "exact",
            Strategy::Anneal => "anneal",
            Strategy::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Strategy::Exact),
            "anneal" => Ok(Strategy::Anneal),
            "hybrid" => Ok(Strategy::Hybrid),
            other => Err(format!(
                "unknown strategy `{other}` (expected exact, anneal, or hybrid)"
            )),
        }
    }
}

/// A deadline and/or node budget for one placement request.
///
/// The budget meters *search effort*: VF2 kernel nodes, candidates
/// scored, and annealing moves all charge the same meter. Node budgets
/// are fully deterministic (the same request always does the same work);
/// deadlines trade that determinism for a wall-clock guarantee and are
/// what a latency-bound service wants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Cap on charged search nodes (`None` = unlimited).
    pub max_nodes: Option<u64>,
    /// Wall-clock allowance measured from the start of the request
    /// (`None` = no deadline).
    pub deadline: Option<Duration>,
}

impl SearchBudget {
    /// No limits: the strategies behave exactly like the unbudgeted code.
    pub const fn unlimited() -> Self {
        SearchBudget {
            max_nodes: None,
            deadline: None,
        }
    }

    /// A node-count budget (deterministic; `0` exhausts immediately).
    pub const fn nodes(n: u64) -> Self {
        SearchBudget {
            max_nodes: Some(n),
            deadline: None,
        }
    }

    /// A wall-clock budget in milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SearchBudget {
            max_nodes: None,
            deadline: Some(Duration::from_millis(ms)),
        }
    }

    /// Adds/overrides the node cap.
    #[must_use]
    pub const fn with_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Adds/overrides the deadline.
    #[must_use]
    pub const fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Returns `true` when neither limit is set.
    pub const fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none() && self.deadline.is_none()
    }

    /// Starts the request clock: converts the configuration into a live
    /// [`vf2::Budget`] meter.
    pub fn start(&self) -> vf2::Budget {
        vf2::Budget::new(self.max_nodes, self.deadline.map(|d| Instant::now() + d))
    }
}

/// Annealing knobs for [`GreedyAnneal`] (and the [`Hybrid`] fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnealConfig {
    /// Annealing moves attempted (each move re-costs the whole routed
    /// circuit on the [`CostEngine`], so this bounds heuristic latency).
    pub iterations: usize,
    /// RNG seed; the heuristic is deterministic in it.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 400,
            seed: 2007,
        }
    }
}

/// How a committed [`PlacementOutcome`] was obtained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Resolution {
    /// The exact pipeline completed within budget.
    #[default]
    Exact,
    /// The heuristic produced the placement — either directly
    /// ([`Strategy::Anneal`]) or because [`Hybrid`]'s exact attempt
    /// failed structurally (no routable candidates).
    Fallback,
    /// [`Hybrid`] fell back because the exact search exhausted its
    /// [`SearchBudget`].
    BudgetExhausted,
}

impl Resolution {
    /// Short tag used by reports (`exact`, `fallback`,
    /// `budget-exhausted`).
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Exact => "exact",
            Resolution::Fallback => "fallback",
            Resolution::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A placement strategy: given a prepared [`Placer`] (environment, fast
/// and routing graphs, configuration including the [`SearchBudget`]),
/// place a circuit.
pub trait PlacementStrategy {
    /// The CLI name of the strategy.
    fn name(&self) -> &'static str;

    /// Places `circuit` on `placer`'s environment.
    ///
    /// # Errors
    ///
    /// Strategy-specific; see [`ExactVf2`], [`GreedyAnneal`], [`Hybrid`].
    fn place(&self, placer: &Placer<'_>, circuit: &Circuit) -> Result<PlacementOutcome>;
}

/// The budgeted exact strategy: the paper's §5 pipeline, failing with
/// [`PlaceError::BudgetExhausted`] when the [`SearchBudget`] trips.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactVf2;

impl PlacementStrategy for ExactVf2 {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn place(&self, placer: &Placer<'_>, circuit: &Circuit) -> Result<PlacementOutcome> {
        let mut meter = placer.config().budget.start();
        let plan = placer.plan_exact(circuit, &mut meter)?;
        let outcome = placer.run_exact(&plan, &mut meter)?;
        #[cfg(debug_assertions)]
        debug_check_outcome(placer.environment(), circuit, &outcome);
        Ok(outcome)
    }
}

/// The heuristic strategy: greedy interaction-weight seed + simulated
/// annealing over the [`CostEngine`], non-adjacent interactions routed
/// through the SWAP router. Always returns *something* for any circuit
/// the environment can host; the budget only limits how much annealing
/// polish the seed receives.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyAnneal;

impl PlacementStrategy for GreedyAnneal {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn place(&self, placer: &Placer<'_>, circuit: &Circuit) -> Result<PlacementOutcome> {
        let mut meter = placer.config().budget.start();
        let outcome = greedy_anneal(placer, circuit, &mut meter, Resolution::Fallback)?;
        #[cfg(debug_assertions)]
        debug_check_outcome(placer.environment(), circuit, &outcome);
        Ok(outcome)
    }
}

/// The anytime chain: budgeted exact first, greedy+anneal when the exact
/// search exhausts its budget or fails structurally. Fundamental errors
/// (circuit too large, no fast interactions at all) are not retried.
///
/// The exact attempt is planned before it runs: every workspace's
/// monomorphisms are enumerated first, and a clone of the meter makes
/// the stage loop's charges up to the first fine-tuning sweep. When the
/// clone trips, the run would exhaust the budget too. If the routing
/// graph is connected the run is then skipped: its only possible ends
/// are a `BudgetExhausted` fallback or, on a router failure before the
/// trip, a `Fallback` one, and the router has not been seen to fail on a
/// connected graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hybrid;

impl PlacementStrategy for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn place(&self, placer: &Placer<'_>, circuit: &Circuit) -> Result<PlacementOutcome> {
        let mut meter = placer.config().budget.start();
        let exact = match placer.plan_exact(circuit, &mut meter) {
            Ok(plan) if plan.trips() && placer.routing_connected() => {
                // The run would trip, and a trip leaves the meter
                // exhausted: skip to the state it would end in.
                meter.exhaust();
                Err(PlaceError::BudgetExhausted {
                    nodes: meter.nodes_visited(),
                })
            }
            Ok(plan) => placer.run_exact(&plan, &mut meter),
            Err(e) => Err(e),
        };
        let outcome = match exact {
            Ok(outcome) => Ok(outcome),
            Err(PlaceError::BudgetExhausted { .. }) => {
                // Every exhaustion leaves the meter exhausted, and
                // exhaustion is sticky, so the annealer makes no move:
                // the answer is the greedy seed, unpolished.
                greedy_anneal(placer, circuit, &mut meter, Resolution::BudgetExhausted)
            }
            Err(PlaceError::RoutingImpossible { .. }) => {
                // The legitimate structural dead-end: no routable
                // candidate survived scoring. The meter has not tripped,
                // so the budget left buys annealing. Everything else —
                // notably InvalidPlacement, which only arises from
                // internal invariant breaches — must surface, not be
                // papered over by the heuristic.
                greedy_anneal(placer, circuit, &mut meter, Resolution::Fallback)
            }
            Err(e) => Err(e),
        }?;
        #[cfg(debug_assertions)]
        debug_check_outcome(placer.environment(), circuit, &outcome);
        Ok(outcome)
    }
}

/// The strategy object for a [`Strategy`] tag.
pub fn strategy_for(strategy: Strategy) -> &'static dyn PlacementStrategy {
    match strategy {
        Strategy::Exact => &ExactVf2,
        Strategy::Anneal => &GreedyAnneal,
        Strategy::Hybrid => &Hybrid,
    }
}

/// Debug-build invariant sweep over a freshly produced outcome — a
/// lightweight in-crate cousin of the independent `qcp_verify::certify`
/// checker (which depends on this crate and therefore cannot be called
/// from here). Every strategy runs it on success; release builds compile
/// it away entirely. The checks are the structural subset of the
/// certificate: stage widths, injectivity, coupling coverage, swap-stage
/// consistency, and schedule gate accounting — cost recomputation stays
/// exclusive to the external checker.
#[cfg(debug_assertions)]
pub(crate) fn debug_check_outcome(
    env: &qcp_env::Environment,
    circuit: &Circuit,
    outcome: &PlacementOutcome,
) {
    let n = circuit.qubit_count();
    let m = env.qubit_count();
    assert!(
        !outcome.stages.is_empty(),
        "invariant: outcomes carry at least one stage"
    );
    let mut subcircuit_gates = 0usize;
    for (si, stage) in outcome.stages.iter().enumerate() {
        let slots = stage.placement.as_slice();
        assert_eq!(
            slots.len(),
            n,
            "stage {si}: placement width != circuit width"
        );
        assert_eq!(
            stage.placement.physical_count(),
            m,
            "stage {si}: placement codomain != environment size"
        );
        let mut owner = vec![false; m];
        for &v in slots {
            assert!(
                !owner[v.index()],
                "stage {si}: placement maps two qubits to {v:?}"
            );
            owner[v.index()] = true;
        }
        // Interactions must land on physically coupled pairs. Fast-edge
        // coverage is NOT asserted: fine tuning (§5.1) and the annealer
        // may legally trade a gate onto a slow coupled pair when that
        // lowers total runtime.
        for gate in stage.subcircuit.gates() {
            if let Some((a, b)) = gate.coupling() {
                let (pa, pb) = (stage.placement.physical(a), stage.placement.physical(b));
                let w = env.weight_units(pa, pb);
                assert!(
                    w.is_finite(),
                    "stage {si}: two-qubit gate routed to uncoupled pair {pa:?}-{pb:?}"
                );
            }
        }
        if si == 0 {
            assert!(
                stage.swaps.is_empty(),
                "stage 0 must start from the initial placement, not swaps"
            );
        } else {
            let prev = outcome.stages[si - 1].placement.as_slice();
            let pos = stage.swaps.simulate(m);
            for (q, (&src, &dst)) in prev.iter().zip(slots).enumerate() {
                assert_eq!(
                    pos[src.index()],
                    dst.index(),
                    "stage {si}: the swap schedule moves qubit {q} to the wrong nucleus"
                );
            }
        }
        subcircuit_gates += stage.subcircuit.gate_count();
    }
    // The flat schedule replays every subcircuit gate plus one placed
    // gate per routed SWAP.
    let placed: usize = outcome.schedule.levels().iter().map(Vec::len).sum();
    assert_eq!(
        placed,
        subcircuit_gates + outcome.swap_count(),
        "schedule holds {placed} gates but the stages account for \
         {subcircuit_gates} circuit gates + {} swaps",
        outcome.swap_count()
    );
}

/// A circuit gate flattened to indices for the routed cost simulation.
#[derive(Clone, Copy)]
struct FlatGate {
    a: u32,
    /// `u32::MAX` for single-qubit gates.
    b: u32,
    weight: f64,
}

const NONE: u32 = u32::MAX;

/// Shared machinery of the heuristic: the placer's hop distances and BFS
/// parents on the routing graph, plus the routed-cost evaluator the
/// annealer scores with.
struct RoutedCost<'a> {
    m: usize,
    /// `dist[s * m + t]`: routing-graph hops (`u32::MAX` unreachable).
    dist: &'a [u32],
    /// `parent[s * m + t]`: predecessor of `t` on the BFS tree rooted at
    /// `s` (`u32::MAX` for the root / unreachable).
    parent: &'a [u32],
    gates: Vec<FlatGate>,
    base: CostEngine<'a>,
    work: CostEngine<'a>,
    /// Scratch: logical → physical.
    pos: Vec<u32>,
    /// Scratch: physical → logical (`u32::MAX` free).
    occ: Vec<u32>,
    /// Scratch: path reconstruction buffer.
    path: Vec<u32>,
}

impl<'a> RoutedCost<'a> {
    fn new(placer: &'a Placer<'_>, circuit: &Circuit) -> RoutedCost<'a> {
        let m = placer.routing_graph().node_count();
        let (dist, parent) = placer.hop_tables();
        let gates = circuit
            .gates()
            .map(|g| {
                let (a, b) = g.qubits();
                FlatGate {
                    a: a.index() as u32,
                    b: b.map_or(NONE, |q| q.index() as u32),
                    weight: g.time_weight(),
                }
            })
            .collect();
        let model = placer.config().cost_model;
        RoutedCost {
            m,
            dist,
            parent,
            gates,
            base: CostEngine::new(placer.environment(), model),
            work: CostEngine::new(placer.environment(), model),
            pos: vec![0; circuit.qubit_count()],
            occ: vec![NONE; m],
            path: Vec::with_capacity(m),
        }
    }

    #[inline]
    fn dist(&self, s: usize, t: usize) -> u32 {
        self.dist[s * self.m + t]
    }

    /// Fills `self.path` with the interior of the shortest route `s → t`
    /// plus `t` itself, in walk order (`s` excluded). Returns `false`
    /// when `t` is unreachable.
    fn walk_path(&mut self, s: usize, t: usize) -> bool {
        if self.dist(s, t) == u32::MAX {
            return false;
        }
        self.path.clear();
        let mut cur = t as u32;
        while cur as usize != s {
            self.path.push(cur);
            cur = self.parent[s * self.m + cur as usize];
        }
        self.path.reverse();
        true
    }

    /// The annealing objective: the [`CostEngine`] makespan of the whole
    /// circuit under `placement`, with every interaction that lands on
    /// non-adjacent (in the fast graph) nuclei charged a sequential SWAP
    /// chain along the routing graph's shortest path. Infeasible
    /// placements (an interacting pair in different routing components)
    /// cost infinity.
    fn eval(&mut self, placement: &Placement, fast: &Graph) -> f64 {
        self.work.copy_from(&self.base);
        self.occ.fill(NONE);
        for (q, slot) in self.pos.iter_mut().enumerate() {
            let v = placement.physical(Qubit::new(q)).index() as u32;
            *slot = v;
            self.occ[v as usize] = q as u32;
        }
        for gi in 0..self.gates.len() {
            let g = self.gates[gi];
            let pa = self.pos[g.a as usize] as usize;
            if g.b == NONE {
                let _ = self
                    .work
                    .apply_gate(&PlacedGate::one(PhysicalQubit::new(pa), g.weight));
                continue;
            }
            let pb = self.pos[g.b as usize] as usize;
            let mut pa = pa;
            if !fast.has_edge(NodeId::new(pa), NodeId::new(pb)) {
                if !self.walk_path(pa, pb) {
                    return f64::INFINITY;
                }
                // Swap the value of `a` along the path until the pair is
                // fast-adjacent; the last path node is `pb` itself and is
                // never entered.
                for i in 0..self.path.len() - 1 {
                    if fast.has_edge(NodeId::new(pa), NodeId::new(pb)) {
                        break;
                    }
                    let next = self.path[i] as usize;
                    let _ = self.work.apply_gate(&PlacedGate::swap(
                        PhysicalQubit::new(pa),
                        PhysicalQubit::new(next),
                    ));
                    // Exchange occupants (the displaced value, if any,
                    // moves back to `pa`).
                    let moved = self.occ[next];
                    self.occ[next] = g.a;
                    self.occ[pa] = moved;
                    if moved != NONE {
                        self.pos[moved as usize] = pa as u32;
                    }
                    self.pos[g.a as usize] = next as u32;
                    pa = next;
                }
            }
            // Fast edge, or — in bridged molecule environments only — the
            // finite slow coupling the routing bridge represents.
            let _ = self.work.apply_gate(&PlacedGate::two(
                PhysicalQubit::new(pa),
                PhysicalQubit::new(pb),
                g.weight,
            ));
        }
        self.work.makespan().units()
    }
}

/// Greedy seed mapping: qubits in descending interaction-weight order,
/// each placed on the free nucleus minimizing the weighted routing
/// distance to its already-placed partners (highest fast degree for
/// seeds of new components). Deterministic.
fn greedy_seed(
    weights: &[f64],
    n: usize,
    fast: &Graph,
    cost: &RoutedCost<'_>,
) -> Result<Placement> {
    let m = fast.node_count();
    let strength: Vec<f64> = (0..n)
        .map(|q| (0..n).map(|u| weights[q * n + u]).sum())
        .collect();
    let mut placed: Vec<Option<u32>> = vec![None; n];
    let mut taken = vec![false; m];
    // Free node of maximum fast degree (component seeds and idle qubits).
    #[allow(clippy::expect_used)]
    let hub = |taken: &[bool]| -> usize {
        (0..m)
            .filter(|&v| !taken[v])
            .max_by_key(|&v| (fast.degree(NodeId::new(v)), std::cmp::Reverse(v)))
            .expect("invariant: n <= m leaves a free nucleus")
    };
    for _ in 0..n {
        // Next qubit: most interaction weight to already-placed qubits,
        // then overall strength, then lowest index.
        let mut next = usize::MAX;
        let mut next_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for q in 0..n {
            if placed[q].is_some() {
                continue;
            }
            let anchored: f64 = (0..n)
                .filter(|&u| placed[u].is_some())
                .map(|u| weights[q * n + u])
                .sum();
            let key = (anchored, strength[q]);
            if next == usize::MAX || key > next_key {
                next = q;
                next_key = key;
            }
        }
        let anchored: Vec<(usize, f64)> = (0..n)
            .filter_map(|u| placed[u].map(|v| (v as usize, weights[next * n + u])))
            .filter(|&(_, w)| w > 0.0)
            .collect();
        let choice = if anchored.is_empty() {
            hub(&taken)
        } else {
            let mut best = usize::MAX;
            let mut best_score = f64::INFINITY;
            for (v, _) in taken.iter().enumerate().filter(|&(_, &t)| !t) {
                let score: f64 = anchored
                    .iter()
                    .map(|&(pu, w)| {
                        let d = cost.dist(v, pu);
                        if d == u32::MAX {
                            1e18
                        } else {
                            w * f64::from(d)
                        }
                    })
                    .sum();
                if score < best_score {
                    best = v;
                    best_score = score;
                }
            }
            best
        };
        placed[next] = Some(choice as u32);
        taken[choice] = true;
    }
    #[allow(clippy::expect_used)]
    let to_phys: Vec<PhysicalQubit> = placed
        .into_iter()
        .map(
            |v| PhysicalQubit::new(v.expect("invariant: the loop above fills every slot") as usize),
        )
        .collect();
    Placement::new(to_phys, m)
}

/// The heuristic pipeline: greedy seed → budgeted simulated annealing
/// over the routed [`CostEngine`] objective → an executable staged
/// outcome with non-adjacent interactions routed through the SWAP
/// router.
fn greedy_anneal(
    placer: &Placer<'_>,
    circuit: &Circuit,
    meter: &mut vf2::Budget,
    resolution: Resolution,
) -> Result<PlacementOutcome> {
    let env = placer.environment();
    let fast = placer.fast_graph();
    let n = circuit.qubit_count();
    let m = env.qubit_count();
    if n > m {
        return Err(PlaceError::CircuitTooLarge {
            qubits: n,
            nuclei: m,
        });
    }
    if circuit.two_qubit_gate_count() > 0 && fast.edge_count() == 0 {
        return Err(PlaceError::NoFastInteractions);
    }

    // Whole-circuit interaction weights (gate counts per pair).
    let mut weights = vec![0.0f64; n * n];
    for gate in circuit.gates() {
        if let Some((a, b)) = gate.coupling() {
            weights[a.index() * n + b.index()] += 1.0;
            weights[b.index() * n + a.index()] += 1.0;
        }
    }

    let mut cost = RoutedCost::new(placer, circuit);
    let mut current = greedy_seed(&weights, n, fast, &cost)?;
    let mut cur_cost = cost.eval(&current, fast);
    let mut best = current.clone();
    let mut best_cost = cur_cost;

    // Annealing refinement: move-one/swap-two neighbourhood, geometric
    // cooling, deterministic in the configured seed. Budget-aware: each
    // move charges the meter, so an exhausted budget ships the greedy
    // seed unpolished instead of blocking.
    let anneal = placer.config().anneal;
    let mut rng = StdRng::seed_from_u64(anneal.seed);
    let t0 = if cur_cost.is_finite() {
        (cur_cost / 10.0).max(1.0)
    } else {
        1.0
    };
    // A zero-qubit circuit has nothing to move (and `gen_range(0..0)`
    // would panic); the seed is already the answer.
    let iterations = if n == 0 { 0 } else { anneal.iterations };
    for i in 0..iterations {
        if !meter.consume(1) {
            break;
        }
        let temp = t0 * 0.995f64.powi(i as i32);
        let q = Qubit::new(rng.gen_range(0..n));
        let v = PhysicalQubit::new(rng.gen_range(0..m));
        let cand = current.with_move(q, v);
        let cand_cost = cost.eval(&cand, fast);
        let accept = cand_cost <= cur_cost
            || (cand_cost.is_finite()
                && cur_cost.is_finite()
                && rng.gen_bool(
                    ((cur_cost - cand_cost) / temp.max(1e-9))
                        .exp()
                        .clamp(0.0, 1.0),
                ));
        if accept {
            current = cand;
            cur_cost = cand_cost;
            if cur_cost < best_cost {
                best = current.clone();
                best_cost = cur_cost;
            }
        }
    }

    build_routed_outcome(placer, circuit, best, &cost, resolution)
}

/// Turns a (possibly non-monomorphic) whole-circuit placement into an
/// executable staged outcome: gates run in order, and whenever an
/// interaction lands on nuclei without a fast coupling, both values are
/// routed to the nearest fast edge through a [`Router`] — the §5.2
/// parallel SWAP router, one per call — opening a new stage.
fn build_routed_outcome(
    placer: &Placer<'_>,
    circuit: &Circuit,
    initial: Placement,
    cost: &RoutedCost<'_>,
    resolution: Resolution,
) -> Result<PlacementOutcome> {
    let env = placer.environment();
    let fast = placer.fast_graph();
    let routing = placer.routing_graph();
    let n = circuit.qubit_count();
    let m = env.qubit_count();

    let fast_edges: Vec<(usize, usize)> = fast
        .edges()
        .map(|(a, b, _)| (a.index(), b.index()))
        .collect();

    let mut router = Router::new(routing, placer.config().router);
    let mut stages: Vec<Stage> = Vec::new();
    let mut schedule = Schedule::new();
    let mut current = initial;
    let mut pending_swaps = SwapSchedule::default();
    let mut stage_gates: Vec<Gate> = Vec::new();

    let close_stage = |stages: &mut Vec<Stage>,
                       schedule: &mut Schedule,
                       placement: &Placement,
                       swaps: SwapSchedule,
                       gates: &mut Vec<Gate>| {
        #[allow(clippy::expect_used)]
        let sub = Circuit::from_gates(n, gates.drain(..))
            .expect("invariant: stage gates fit the declared width");
        schedule.extend(&swaps.to_schedule());
        schedule.extend(&Schedule::from_placed_circuit(&sub, placement));
        stages.push(Stage {
            placement: placement.clone(),
            swaps,
            subcircuit: sub,
        });
    };

    for gate in circuit.gates() {
        let Some((a, b)) = gate.coupling() else {
            stage_gates.push(gate.clone());
            continue;
        };
        let (pa, pb) = (current.physical(a).index(), current.physical(b).index());
        if fast.has_edge(NodeId::new(pa), NodeId::new(pb)) {
            stage_gates.push(gate.clone());
            continue;
        }
        // Pick the fast edge minimizing the combined routing distance of
        // both endpoints (either orientation; the degenerate orientations
        // that would stack both values on one nucleus are skipped).
        let mut best: Option<(u32, usize, usize)> = None;
        for &(x, y) in &fast_edges {
            for (u, v) in [(x, y), (y, x)] {
                if u == pb || v == pa {
                    continue;
                }
                let (du, dv) = (cost.dist(pa, u), cost.dist(pb, v));
                if du == u32::MAX || dv == u32::MAX {
                    continue;
                }
                let d = du + dv;
                if best.is_none_or(|(bd, bu, bv)| (d, u, v) < (bd, bu, bv)) {
                    best = Some((d, u, v));
                }
            }
        }
        let Some((_, u, v)) = best else {
            return Err(PlaceError::RoutingImpossible {
                stuck: PhysicalQubit::new(pa),
            });
        };
        // Both endpoints are pinned even when already in place — a
        // don't-care value is fair game for the router to shuffle.
        let mut targets: Vec<Option<usize>> = vec![None; m];
        targets[pa] = Some(u);
        targets[pb] = Some(v);
        let swaps = router.route(&targets)?;
        // Commit the stage that ran before this routing event.
        close_stage(
            &mut stages,
            &mut schedule,
            &current,
            std::mem::take(&mut pending_swaps),
            &mut stage_gates,
        );
        // Apply the swap schedule to *every* value (the router may shuffle
        // don't-care values too).
        let final_pos = swaps.simulate(m);
        current = Placement::new(
            (0..n)
                .map(|q| PhysicalQubit::new(final_pos[current.physical(Qubit::new(q)).index()]))
                .collect(),
            m,
        )?;
        pending_swaps = swaps;
        debug_assert!(fast.has_edge(
            NodeId::new(current.physical(a).index()),
            NodeId::new(current.physical(b).index())
        ));
        stage_gates.push(gate.clone());
    }
    close_stage(
        &mut stages,
        &mut schedule,
        &current,
        pending_swaps,
        &mut stage_gates,
    );

    let runtime = schedule.runtime(env, &placer.config().cost_model);
    Ok(PlacementOutcome {
        stages,
        schedule,
        runtime,
        resolution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacerConfig;
    use qcp_circuit::library;
    use qcp_env::topologies::{self, Delays};
    use qcp_env::{molecules, Threshold};

    fn grid_env() -> qcp_env::Environment {
        topologies::grid(4, 4, Delays::default())
    }

    fn config_on(env: &qcp_env::Environment) -> PlacerConfig {
        PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
    }

    #[test]
    fn strategy_parses_and_displays() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert!("vf3".parse::<Strategy>().is_err());
    }

    #[test]
    fn anneal_places_everything_the_exact_pipeline_places() {
        let env = grid_env();
        let config = config_on(&env);
        for circuit in [
            library::qec3_encoder(),
            library::qft(5),
            library::pseudo_cat(7),
        ] {
            let placer = Placer::new(&env, config.clone().strategy(Strategy::Anneal));
            let outcome = placer.place(&circuit).unwrap();
            assert_eq!(outcome.resolution, Resolution::Fallback);
            assert_eq!(
                outcome.schedule.gate_count(),
                circuit.gate_count() + outcome.swap_count()
            );
            assert!(outcome.runtime.units() > 0.0 || circuit.gate_count() == 0);
        }
    }

    #[test]
    fn anneal_swap_stages_are_consistent() {
        let env = grid_env();
        let placer = Placer::new(&env, config_on(&env).strategy(Strategy::Anneal));
        let outcome = placer.place(&library::qft(6)).unwrap();
        for pair in outcome.stages.windows(2) {
            let perm = pair[0].placement.permutation_to(&pair[1].placement);
            let pos = pair[1].swaps.simulate(env.qubit_count());
            for (v, d) in perm.iter().enumerate() {
                if let Some(d) = d {
                    assert_eq!(pos[v], *d, "value at p{v} must reach p{d}");
                }
            }
        }
        // Every committed stage really runs its interactions on fast
        // couplings.
        let fast = placer.fast_graph();
        for stage in &outcome.stages {
            for gate in stage.subcircuit.gates() {
                if let Some((a, b)) = gate.coupling() {
                    assert!(fast.has_edge(
                        NodeId::new(stage.placement.physical(a).index()),
                        NodeId::new(stage.placement.physical(b).index()),
                    ));
                }
            }
        }
    }

    #[test]
    fn anneal_is_deterministic_in_the_seed() {
        let env = grid_env();
        let config = config_on(&env).strategy(Strategy::Anneal);
        let a = Placer::new(&env, config.clone())
            .place(&library::qft(5))
            .unwrap();
        let b = Placer::new(&env, config.clone())
            .place(&library::qft(5))
            .unwrap();
        assert_eq!(a.runtime, b.runtime);
        assert!(a.initial_placement().same_assignment(b.initial_placement()));
        let mut other = config;
        other.anneal.seed = 99;
        // A different seed may (and here does) find a different placement;
        // the outcome must still be valid.
        let c = Placer::new(&env, other).place(&library::qft(5)).unwrap();
        assert!(c.runtime.units() > 0.0);
    }

    #[test]
    fn zero_budget_exact_fails_fast_and_hybrid_still_answers() {
        let env = grid_env();
        let base = config_on(&env).budget(SearchBudget::nodes(0));
        let circuit = library::qft(5);
        let err = Placer::new(&env, base.clone().strategy(Strategy::Exact))
            .place(&circuit)
            .unwrap_err();
        assert!(matches!(err, PlaceError::BudgetExhausted { .. }));

        let outcome = Placer::new(&env, base.strategy(Strategy::Hybrid))
            .place(&circuit)
            .unwrap();
        assert_eq!(outcome.resolution, Resolution::BudgetExhausted);
        assert_eq!(
            outcome.schedule.gate_count(),
            circuit.gate_count() + outcome.swap_count()
        );
    }

    #[test]
    fn hybrid_with_unlimited_budget_matches_exact() {
        let env = molecules::trans_crotonic_acid();
        let t = env.connectivity_threshold().unwrap();
        let circuit = library::phase_estimation();
        let exact = Placer::new(&env, PlacerConfig::with_threshold(t))
            .place(&circuit)
            .unwrap();
        let hybrid = Placer::new(
            &env,
            PlacerConfig::with_threshold(t).strategy(Strategy::Hybrid),
        )
        .place(&circuit)
        .unwrap();
        assert_eq!(exact.resolution, Resolution::Exact);
        assert_eq!(hybrid.resolution, Resolution::Exact);
        assert_eq!(exact.runtime, hybrid.runtime);
        assert_eq!(exact.stages.len(), hybrid.stages.len());
        for (a, b) in exact.stages.iter().zip(&hybrid.stages) {
            assert!(a.placement.same_assignment(&b.placement));
        }
    }

    #[test]
    fn fundamental_errors_are_not_retried() {
        let env = molecules::acetyl_chloride();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        for strategy in [Strategy::Anneal, Strategy::Hybrid] {
            let placer = Placer::new(&env, config.clone().strategy(strategy));
            assert!(matches!(
                placer.place(&library::phase_estimation()).unwrap_err(),
                PlaceError::CircuitTooLarge { .. }
            ));
        }
        let dead = PlacerConfig::with_threshold(Threshold::new(50.0));
        let env = molecules::pentafluoro_iron();
        for strategy in [Strategy::Anneal, Strategy::Hybrid] {
            let placer = Placer::new(&env, dead.clone().strategy(strategy));
            assert_eq!(
                placer.place(&library::phase_estimation()).unwrap_err(),
                PlaceError::NoFastInteractions
            );
        }
    }

    #[test]
    fn anneal_handles_empty_and_single_qubit_circuits() {
        let env = grid_env();
        let placer = Placer::new(&env, config_on(&env).strategy(Strategy::Anneal));
        let empty = placer.place(&Circuit::empty(3)).unwrap();
        assert_eq!(empty.subcircuit_count(), 1);
        assert!(empty.runtime.is_zero());
    }

    #[test]
    fn zero_qubit_circuits_do_not_panic_any_strategy() {
        let env = grid_env();
        for strategy in Strategy::ALL {
            let config = config_on(&env)
                .strategy(strategy)
                .budget(SearchBudget::unlimited());
            let outcome = Placer::new(&env, config).place(&Circuit::empty(0)).unwrap();
            assert!(outcome.runtime.is_zero(), "{strategy}");
        }
        // Hybrid falling back on a width-0 circuit exercises the anneal
        // path with nothing to move.
        let config = config_on(&env)
            .strategy(Strategy::Hybrid)
            .budget(SearchBudget::nodes(0));
        let outcome = Placer::new(&env, config).place(&Circuit::empty(0)).unwrap();
        assert_eq!(outcome.resolution, Resolution::BudgetExhausted);
    }

    #[test]
    fn anneal_on_bridged_molecule_below_connectivity_threshold() {
        // Crotonic at threshold 50: the fast graph is disconnected; the
        // heuristic must still produce a valid staged outcome via the
        // bridge couplings, like §6's "too much swapping" observation.
        let env = molecules::trans_crotonic_acid();
        let config = PlacerConfig::with_threshold(Threshold::new(50.0)).strategy(Strategy::Anneal);
        let circuit = library::qec5_benchmark();
        let outcome = Placer::new(&env, config).place(&circuit).unwrap();
        assert_eq!(
            outcome.schedule.gate_count(),
            circuit.gate_count() + outcome.swap_count()
        );
    }

    #[test]
    fn search_budget_builders() {
        assert!(SearchBudget::unlimited().is_unlimited());
        assert!(!SearchBudget::nodes(5).is_unlimited());
        assert!(!SearchBudget::from_millis(10).is_unlimited());
        let b = SearchBudget::from_millis(10).with_nodes(7);
        assert_eq!(b.max_nodes, Some(7));
        assert!(b.deadline.is_some());
        let mut meter = SearchBudget::nodes(1).start();
        assert!(meter.consume(1));
        assert!(!meter.consume(1));
    }
}
