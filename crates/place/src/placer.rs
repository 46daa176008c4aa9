//! The full placement pipeline (§5.1–§5.3): workspace extraction,
//! monomorphism-based basic placement, fine tuning, SWAP stages, and the
//! depth-2 lookahead of §5.3.

use qcp_circuit::{Circuit, Qubit, Time};
use qcp_env::{Environment, Threshold};
use qcp_graph::traversal::connected_components;
use qcp_graph::{vf2, Graph};

use crate::cost::{CostEngine, CostModel, Schedule};
use crate::embed::Embeddings;
use crate::finetune::fine_tune;
use crate::router::{Router, RouterConfig, SwapSchedule};
use crate::strategy::{strategy_for, AnnealConfig, Resolution, SearchBudget, Strategy};
use crate::workspace::{extract_workspaces_budgeted, ExtractionOptions, Workspace};
use crate::{PlaceError, Placement, Result};

/// Lookahead context for candidate scoring: the next stage's candidate
/// placements, their workspace, and the per-continuation gate floors.
type Lookahead<'a> = (&'a [Placement], &'a Workspace, &'a [Vec<f64>]);

/// Placer configuration. The defaults mirror the paper's implementation:
/// `k = 100` candidate monomorphisms, depth-2 lookahead, fine tuning on,
/// overlapped cost model with the interaction-reuse cap.
#[derive(Clone, Debug)]
pub struct PlacerConfig {
    /// Fast-interaction threshold (§5 preprocessing).
    pub threshold: Threshold,
    /// Maximum monomorphisms considered per workspace (`k`).
    pub max_candidates: usize,
    /// Depth-2 lookahead combining current mapping + swap + next mapping
    /// costs (§5.3). Greedy selection when `false`.
    pub lookahead: bool,
    /// Fine-tuning sweeps per committed placement (0 disables).
    pub fine_tune_rounds: usize,
    /// Runtime cost model.
    pub cost_model: CostModel,
    /// SWAP-router options.
    pub router: RouterConfig,
    /// Workspace-extraction options (§7 extensions: gate commutation and
    /// workspace-size balancing).
    pub extraction: ExtractionOptions,
    /// Placement strategy: budgeted exact, greedy+anneal heuristic, or
    /// the hybrid fallback chain.
    pub strategy: Strategy,
    /// Search budget (node cap and/or deadline) for the strategy.
    pub budget: SearchBudget,
    /// Annealing knobs for the heuristic strategies.
    pub anneal: AnnealConfig,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            threshold: Threshold::unbounded(),
            max_candidates: 100,
            lookahead: true,
            fine_tune_rounds: 2,
            cost_model: CostModel::default(),
            router: RouterConfig::default(),
            extraction: ExtractionOptions::default(),
            strategy: Strategy::default(),
            budget: SearchBudget::unlimited(),
            anneal: AnnealConfig::default(),
        }
    }
}

impl PlacerConfig {
    /// Default configuration at the given threshold.
    pub fn with_threshold(threshold: Threshold) -> Self {
        PlacerConfig {
            threshold,
            ..Default::default()
        }
    }

    /// Sets the candidate cap `k`.
    #[must_use]
    pub fn candidates(mut self, k: usize) -> Self {
        self.max_candidates = k.max(1);
        self
    }

    /// Enables or disables the depth-2 lookahead.
    #[must_use]
    pub fn lookahead(mut self, on: bool) -> Self {
        self.lookahead = on;
        self
    }

    /// Sets the number of fine-tuning sweeps.
    #[must_use]
    pub fn fine_tuning(mut self, rounds: usize) -> Self {
        self.fine_tune_rounds = rounds;
        self
    }

    /// Enables commutation-aware workspace extraction (§7 extension).
    #[must_use]
    pub fn commutation_aware(mut self, on: bool) -> Self {
        self.extraction.commutation_aware = on;
        self
    }

    /// Caps workspace size (trades computation depth against swap depth).
    #[must_use]
    pub fn max_workspace_gates(mut self, cap: usize) -> Self {
        self.extraction.max_gates = Some(cap.max(1));
        self
    }

    /// Selects the placement strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the search budget for the strategy.
    #[must_use]
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// One committed stage of the placed computation: the SWAP circuit that
/// rearranges values (empty for the first stage) followed by a placed
/// subcircuit.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Placement in force during this stage's subcircuit.
    pub placement: Placement,
    /// SWAP levels that produced this placement from the previous stage.
    pub swaps: SwapSchedule,
    /// The subcircuit (same width as the full circuit).
    pub subcircuit: Circuit,
}

/// What the exact pipeline will search, worked out before any scoring:
/// the request's workspaces and their monomorphisms, each enumerated
/// once ([`Placer::plan_exact`]).
#[derive(Debug)]
pub(crate) struct ExactPlan {
    workspaces: Vec<Workspace>,
    /// `embeddings[i]` belongs to `workspaces[i]`. The list ends early
    /// when the walk stopped: at the workspace whose enumeration tripped
    /// the clone, or after the first workspace without embeddings.
    embeddings: Vec<Embeddings>,
    /// Whether the clone tripped before any structural error.
    trips: bool,
}

impl ExactPlan {
    /// Whether the run is bound to exhaust the budget: the clone tripped,
    /// and no workspace without embeddings stopped the walk before that.
    /// The run can still stop earlier on a routing failure.
    pub(crate) fn trips(&self) -> bool {
        self.trips
    }

    /// Workspace `i`'s candidate placements: its enumeration's recorded
    /// node count charged to `meter`, its maps completed against
    /// `previous`. A workspace the plan could not finish enumerating
    /// charges more than any budget left.
    fn candidates(
        &self,
        i: usize,
        fast: &Graph,
        previous: Option<&Placement>,
        meter: &mut vf2::Budget,
    ) -> Result<Vec<Placement>> {
        let Some(embeddings) = self.embeddings.get(i) else {
            debug_assert!(self.trips, "only a tripped walk ends before the run does");
            let _ = meter.charge_search(u64::MAX);
            return Err(budget_error(meter));
        };
        if !embeddings.charge(meter) {
            return Err(budget_error(meter));
        }
        embeddings.complete(fast, previous)
    }
}

/// The result of placing a circuit: `C1 E12 C2 E23 … Ct` with its overall
/// runtime.
#[derive(Clone, Debug)]
pub struct PlacementOutcome {
    /// The committed stages in execution order.
    pub stages: Vec<Stage>,
    /// The fully placed schedule (swap levels + subcircuit levels).
    pub schedule: Schedule,
    /// Total runtime under the configured cost model.
    pub runtime: Time,
    /// How the placement was obtained: exact search, heuristic fallback,
    /// or fallback forced by an exhausted search budget.
    pub resolution: Resolution,
}

impl PlacementOutcome {
    /// Number of subcircuits (the bracketed counts of Table 3 and the
    /// "# of Subcircuits" column of Table 4).
    pub fn subcircuit_count(&self) -> usize {
        self.stages.len()
    }

    /// Total number of SWAP gates inserted.
    pub fn swap_count(&self) -> usize {
        self.stages.iter().map(|s| s.swaps.swap_count()).sum()
    }

    /// The initial placement `P1` (every logical qubit's starting nucleus).
    ///
    /// # Panics
    ///
    /// Panics if the outcome has no stages (placing an empty circuit still
    /// yields one stage).
    #[allow(clippy::expect_used)]
    pub fn initial_placement(&self) -> &Placement {
        &self
            .stages
            .first()
            .expect("invariant: outcomes carry at least one stage")
            .placement
    }

    /// The final placement after the last stage.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has no stages.
    #[allow(clippy::expect_used)]
    pub fn final_placement(&self) -> &Placement {
        &self
            .stages
            .last()
            .expect("invariant: outcomes carry at least one stage")
            .placement
    }
}

/// The quantum circuit placer.
///
/// ```
/// use qcp_circuit::library::qec3_encoder;
/// use qcp_env::{molecules, Threshold};
/// use qcp_place::{Placer, PlacerConfig};
///
/// let env = molecules::acetyl_chloride();
/// let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
/// let outcome = placer.place(&qec3_encoder())?;
/// // The tool finds the experimentalists' optimal mapping: 136 units.
/// assert_eq!(outcome.runtime.units(), 136.0);
/// assert_eq!(outcome.subcircuit_count(), 1);
/// # Ok::<(), qcp_place::PlaceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Placer<'e> {
    env: &'e Environment,
    config: PlacerConfig,
    fast: Graph,
    routing: Graph,
    /// Fast-graph node orbits under verified device automorphisms, kept
    /// only when symmetric first-stage placements are genuinely
    /// cost-equivalent (see [`device_symmetry`]).
    symmetry: Option<Vec<usize>>,
    /// All-pairs hop distances on the routing graph, row-major `m × m`
    /// (`u32::MAX` when unreachable). Feeds the stage lower bound and the
    /// annealer.
    dist: Vec<u32>,
    /// `parent[s * m + t]`: predecessor of `t` on the BFS tree of the
    /// routing graph rooted at `s` (`u32::MAX` for the root and for
    /// unreachable nodes). The annealer walks shortest routes with it.
    parent: Vec<u32>,
    /// Cheapest possible cost of one mid-chain SWAP hop (see
    /// [`Placer::stage_lower_bound`]).
    min_swap_units: f64,
}

impl<'e> Placer<'e> {
    /// Creates a placer for `env` under `config`.
    ///
    /// The routing graph is the fast graph plus, when the fast graph is
    /// disconnected, the cheapest available slow couplings bridging its
    /// components — §6 runs the tool below the connectivity threshold and
    /// observes "too much swapping" rather than failure, so swaps may fall
    /// back to slow interactions while *computational* gates never do.
    pub fn new(env: &'e Environment, config: PlacerConfig) -> Self {
        let fast = env.fast_graph(config.threshold);
        let routing = bridge_components(env, &fast);
        let symmetry = device_symmetry(env, &fast);
        let (dist, parent) = all_pairs_bfs(&routing);
        // A fresh-run SWAP costs `3 · W` capped at the reuse cap; mid-chain
        // hops always start fresh runs (the previous hop rewrote both
        // nuclei's last-pair records), so this is a true per-hop floor.
        let stride = match config.cost_model.reuse_cap {
            None => 3.0,
            Some(cap) => 3.0_f64.min(cap.max(0.0)),
        };
        let min_w = routing
            .edges()
            .map(|(_, _, w)| w)
            .fold(f64::INFINITY, f64::min);
        let min_swap_units = if min_w.is_finite() {
            stride * min_w
        } else {
            0.0
        };
        Placer {
            env,
            config,
            fast,
            routing,
            symmetry,
            dist,
            parent,
            min_swap_units,
        }
    }

    /// The environment this placer targets.
    pub fn environment(&self) -> &'e Environment {
        self.env
    }

    /// The fast-interaction graph in force.
    pub fn fast_graph(&self) -> &Graph {
        &self.fast
    }

    /// The routing graph: the fast graph plus any bridge couplings.
    pub fn routing_graph(&self) -> &Graph {
        &self.routing
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Whether the routing graph is connected: every hop distance from
    /// nucleus 0 is finite.
    pub(crate) fn routing_connected(&self) -> bool {
        let m = self.env.qubit_count();
        self.dist[..m].iter().all(|&d| d != u32::MAX)
    }

    /// The routing graph's all-pairs hop distances and BFS parents, both
    /// row-major `m × m` (see the fields of the same names).
    pub(crate) fn hop_tables(&self) -> (&[u32], &[u32]) {
        (&self.dist, &self.parent)
    }

    /// Places `circuit` with the configured [`Strategy`] and
    /// [`SearchBudget`], producing the staged computation and its runtime.
    ///
    /// # Errors
    ///
    /// * [`PlaceError::CircuitTooLarge`] if the circuit is wider than the
    ///   environment;
    /// * [`PlaceError::NoFastInteractions`] if the threshold disallows all
    ///   interactions but the circuit has two-qubit gates (Table 3's N/A);
    /// * [`PlaceError::RoutingImpossible`] if values cannot be moved
    ///   between stages even via bridge couplings;
    /// * [`PlaceError::BudgetExhausted`] if the budget trips under
    ///   [`Strategy::Exact`] (the anytime strategies catch it instead).
    pub fn place(&self, circuit: &Circuit) -> Result<PlacementOutcome> {
        strategy_for(self.config.strategy).place(self, circuit)
    }

    /// The plan half of the exact pipeline, regardless of the configured
    /// strategy, charging an externally owned budget meter (the hybrid
    /// strategy shares one meter between the exact attempt and the
    /// heuristic fallback). The request's first unit, the width check and
    /// workspace extraction charge `meter`. Then a clone of `meter` walks
    /// the stage loop's charges in order (see [`Placer::walk_charges`]),
    /// enumerating each workspace's monomorphisms once, and the plan keeps
    /// them with their node counts. [`Placer::run_exact`] is the other
    /// half.
    pub(crate) fn plan_exact(
        &self,
        circuit: &Circuit,
        meter: &mut vf2::Budget,
    ) -> Result<ExactPlan> {
        if !meter.consume(1) {
            return Err(budget_error(meter));
        }
        let n = circuit.qubit_count();
        let m = self.env.qubit_count();
        if n > m {
            return Err(PlaceError::CircuitTooLarge {
                qubits: n,
                nuclei: m,
            });
        }
        let workspaces =
            extract_workspaces_budgeted(circuit, &self.fast, self.config.extraction, meter)?;
        let mut shadow = meter.clone();
        let mut embeddings = Vec::with_capacity(workspaces.len());
        let trips = self.walk_charges(&workspaces, &mut embeddings, &mut shadow);
        Ok(ExactPlan {
            workspaces,
            embeddings,
            trips,
        })
    }

    /// Makes the stage loop's charges on `shadow`, in
    /// [`Placer::run_exact`]'s order, and returns whether `shadow` tripped.
    /// Stage `i` charges workspace `i`'s enumeration, then workspace
    /// `i + 1`'s when lookahead is on, then the up-front scoring charge
    /// `c_i · (1 + c_{i+1})`, then — with fine tuning on and qubits to
    /// move — `1 + |movable| · (m − 1)`: the initial score and the first
    /// sweep, which probes every other nucleus for every movable qubit.
    /// The first charge of a workspace runs VF2 and records its maps in
    /// `embeddings`; the second replays the count.
    ///
    /// The run makes every one of these charges at the same point and
    /// adds only later sweeps, so when `shadow` trips the run trips at or
    /// before the same point, unless it stops earlier on a structural
    /// error. The walk stops at the first trip, or at a workspace without
    /// embeddings, where the run fails with
    /// [`PlaceError::InvalidPlacement`].
    fn walk_charges(
        &self,
        workspaces: &[Workspace],
        embeddings: &mut Vec<Embeddings>,
        shadow: &mut vf2::Budget,
    ) -> bool {
        let m = self.env.qubit_count() as u64;
        for (i, ws) in workspaces.iter().enumerate() {
            let Some(count) = self.charge_enumeration(ws, i, embeddings, shadow) else {
                return true;
            };
            if count == 0 {
                return false;
            }
            let next = match workspaces.get(i + 1) {
                Some(next) if self.config.lookahead => {
                    match self.charge_enumeration(next, i + 1, embeddings, shadow) {
                        Some(c) => c,
                        None => return true,
                    }
                }
                _ => 0,
            };
            if !shadow.consume((count as u64).saturating_mul(1 + next as u64)) {
                return true;
            }
            let movable = embeddings[i].interacting().len() as u64;
            if self.config.fine_tune_rounds > 0
                && movable > 0
                && !shadow.consume(1 + movable * (m - 1))
            {
                return true;
            }
        }
        false
    }

    /// Charges workspace `i`'s enumeration to `shadow` and returns its
    /// candidate count, or `None` once `shadow` trips. The first charge
    /// enumerates and appends to `embeddings`; later ones replay.
    fn charge_enumeration(
        &self,
        ws: &Workspace,
        i: usize,
        embeddings: &mut Vec<Embeddings>,
        shadow: &mut vf2::Budget,
    ) -> Option<usize> {
        if let Some(known) = embeddings.get(i) {
            return known.charge(shadow).then(|| known.len());
        }
        debug_assert_eq!(embeddings.len(), i, "workspaces are charged in order");
        // Orbit pruning applies to the first stage only: with no previous
        // placement, candidates related by a device automorphism are
        // cost-equivalent, so one VF2 root per orbit suffices. Later
        // stages (and the lookahead set, whose members are scored
        // relative to a *fixed* current candidate) have the symmetry
        // broken by the incumbent placement.
        let orbits = if i == 0 {
            self.symmetry.as_deref()
        } else {
            None
        };
        let found = Embeddings::enumerate(
            &ws.interaction,
            &self.fast,
            self.config.max_candidates,
            shadow,
            orbits,
        )?;
        let count = found.len();
        embeddings.push(found);
        Some(count)
    }

    /// The run half of the exact pipeline: the stage loop over the plan's
    /// workspaces. Each stage charges its enumerations' recorded counts
    /// to `meter` and completes the recorded maps against the previous
    /// placement; scoring, fine tuning and the commit follow.
    pub(crate) fn run_exact(
        &self,
        plan: &ExactPlan,
        meter: &mut vf2::Budget,
    ) -> Result<PlacementOutcome> {
        let workspaces = &plan.workspaces;
        let mut engine = CostEngine::new(self.env, self.config.cost_model);
        // Fork arena: a scratch engine reset per scoring call instead of
        // cloning a fresh CostEngine (times/partner/run buffers) for every
        // fine-tuning probe and commit (candidate selection keeps its own
        // forks).
        let mut fork = CostEngine::new(self.env, self.config.cost_model);
        // One router per request: every permutation scored below routes
        // over the same graph and reuses its bisections and buffers.
        let mut router = Router::new(&self.routing, self.config.router);
        let mut schedule = Schedule::new();
        let mut stages: Vec<Stage> = Vec::new();
        let mut previous: Option<Placement> = None;

        for (wi, ws) in workspaces.iter().enumerate() {
            let candidates = plan.candidates(wi, &self.fast, previous.as_ref(), meter)?;
            if candidates.is_empty() {
                // Workspace extraction guarantees embeddability.
                return Err(PlaceError::InvalidPlacement {
                    message: "workspace unexpectedly has no embedding".into(),
                });
            }

            // Lookahead: raw candidates for the next workspace.
            let lookahead_set = if self.config.lookahead && wi + 1 < workspaces.len() {
                Some(plan.candidates(wi + 1, &self.fast, previous.as_ref(), meter)?)
            } else {
                None
            };

            // Charge the scoring phase up front — one unit per candidate
            // plus one per lookahead continuation, exactly what the
            // un-pruned sweep below would cost — so budget exhaustion is
            // deterministic regardless of how the bound-and-prune
            // evaluation actually unfolds.
            let la_len = lookahead_set.as_ref().map_or(0, Vec::len) as u64;
            let per_candidate = 1 + la_len;
            let full_charge = per_candidate.saturating_mul(candidates.len() as u64);
            if meter.remaining_nodes() < full_charge {
                let affordable = (meter.remaining_nodes() / per_candidate) * per_candidate;
                let _ = meter.consume(affordable);
                meter.exhaust();
                return Err(budget_error(meter));
            }
            if !meter.consume(full_charge) {
                return Err(budget_error(meter));
            }

            let lookahead = lookahead_set
                .as_deref()
                .map(|cands| (cands, &workspaces[wi + 1]));
            let best_idx = self.select_candidate(
                &engine,
                previous.as_ref(),
                &candidates,
                ws,
                lookahead,
                meter,
                &mut router,
            )?;
            let mut chosen = candidates[best_idx].clone();

            // Fine tuning (§5.1) on the active qubits of this workspace.
            if self.config.fine_tune_rounds > 0 {
                let movable: Vec<Qubit> = ws
                    .interaction
                    .nodes()
                    .filter(|v| ws.interaction.degree(*v) > 0)
                    .map(|v| Qubit::new(v.index()))
                    .collect();
                if !movable.is_empty() {
                    let pairs: Vec<(Qubit, Qubit)> = ws
                        .interaction
                        .edges()
                        .map(|(a, b, _)| (Qubit::new(a.index()), Qubit::new(b.index())))
                        .collect();
                    let result = fine_tune(
                        chosen,
                        &movable,
                        |pl| {
                            // An exhausted budget turns remaining probes
                            // into instant infinities, so the sweep drains
                            // quickly; the post-check below converts the
                            // exhaustion into the strict exact failure.
                            if !meter.consume(1) {
                                return f64::INFINITY;
                            }
                            // A workspace pair on an uncoupled nucleus
                            // pair makes the makespan ∞ whatever the swaps
                            // (`CostEngine::apply_gate`), and fine tuning
                            // accepts only finite improvements: skip the
                            // route.
                            let uncoupled = pairs.iter().any(|&(a, b)| {
                                !self
                                    .env
                                    .weight_units(pl.physical(a), pl.physical(b))
                                    .is_finite()
                            });
                            if uncoupled {
                                return f64::INFINITY;
                            }
                            self.score_into(
                                &engine,
                                previous.as_ref(),
                                pl,
                                ws,
                                &mut fork,
                                &mut router,
                            )
                            .unwrap_or(f64::INFINITY)
                        },
                        self.config.fine_tune_rounds,
                    );
                    chosen = result.placement;
                    if meter.is_exhausted() {
                        return Err(budget_error(meter));
                    }
                }
            }

            // Commit: swap stage + placed subcircuit. The one route that
            // is kept: copy it out of the router.
            self.score_into(
                &engine,
                previous.as_ref(),
                &chosen,
                ws,
                &mut fork,
                &mut router,
            )?;
            let swaps = router.schedule();
            std::mem::swap(&mut engine, &mut fork);
            let swap_schedule = swaps.to_schedule();
            schedule.extend(&swap_schedule);
            let placed = Schedule::from_placed_circuit(&ws.circuit, &chosen);
            schedule.extend(&placed);
            stages.push(Stage {
                placement: chosen.clone(),
                swaps,
                subcircuit: ws.circuit.clone(),
            });
            previous = Some(chosen);
        }

        let runtime = schedule.runtime(self.env, &self.config.cost_model);
        Ok(PlacementOutcome {
            stages,
            schedule,
            runtime,
            resolution: Resolution::Exact,
        })
    }

    /// Scores one candidate continuation: swap from `previous` to `cand`,
    /// then run `ws` under `cand`, evaluated on `fork` (reset to `base`'s
    /// state first, reusing its buffers). Returns the resulting makespan;
    /// `fork` is left holding the post-candidate state for lookahead
    /// continuations or commitment. The swaps come from `router`, the
    /// request's router over the routing graph, and stay in its swap
    /// buffer (empty when no swap is needed) until its next route.
    fn score_into(
        &self,
        base: &CostEngine<'e>,
        previous: Option<&Placement>,
        cand: &Placement,
        ws: &Workspace,
        fork: &mut CostEngine<'e>,
        router: &mut Router<'_>,
    ) -> Result<f64> {
        match previous {
            Some(prev) if !prev.same_assignment(cand) => {
                router.route_in_place(&prev.permutation_to(cand))?;
            }
            _ => router.clear(),
        }
        fork.copy_from(base);
        fork.apply_swap_levels(router.levels());
        fork.apply_placed_circuit(&ws.circuit, cand);
        Ok(fork.makespan().units())
    }

    /// Picks the stage winner: the candidate minimizing the (lookahead)
    /// metric, ties broken by enumeration index — exactly the candidate
    /// the plain left-to-right sweep would pick, but found via a
    /// best-first branch-and-bound. The bound-and-prune rules only ever
    /// skip candidates that provably cannot win (strict inequality
    /// against an incumbent metric that is itself exact), so the winner
    /// does not depend on the pruning order.
    ///
    /// The budget for this sweep was charged up front by the caller; the
    /// meter is only polled here for its wall-clock deadline.
    #[allow(clippy::too_many_arguments)]
    fn select_candidate(
        &self,
        engine: &CostEngine<'e>,
        previous: Option<&Placement>,
        candidates: &[Placement],
        ws: &Workspace,
        lookahead: Option<(&[Placement], &Workspace)>,
        meter: &mut vf2::Budget,
        router: &mut Router<'_>,
    ) -> Result<usize> {
        // Per-continuation gate floors: what the next workspace's gates
        // must cost under each next candidate, regardless of the current
        // one. Computed once per stage.
        let floors =
            lookahead.map(|(next_cands, next_ws)| self.continuation_floors(next_cands, next_ws));
        let la = lookahead
            .zip(floors.as_ref())
            .map(|((nc, nw), fl)| (nc, nw, fl.as_slice()));

        // Phase 1: every candidate's own makespan, without lookahead, and
        // — with lookahead — a per-candidate bound on its metric. Both
        // are sound bounds for phase 2: applying the next stage's swaps
        // and gates on top never shortens a schedule, so a candidate's
        // lookahead metric never undercuts its own cost, and the
        // continuation bound is admissible by construction. Unroutable
        // candidates drop out here.
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(candidates.len());
        {
            let mut fork = CostEngine::new(self.env, self.config.cost_model);
            let mut bounds: Vec<(f64, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(ci, cand)| (self.stage_lower_bound(engine.times(), previous, cand), ci))
                .collect();
            bounds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut best_cost = f64::INFINITY;
            for &(lb, ci) in &bounds {
                if !meter.consume(0) {
                    return Err(budget_error(meter));
                }
                // Without lookahead the winner is simply the cheapest
                // cost, so a bound above the best cost seen settles the
                // candidate. With lookahead a high-cost candidate can
                // still win (the winner minimizes the *continuation*
                // makespan), so every candidate gets its phase-1 score
                // and pruning waits for phase 2's exact incumbent.
                if la.is_none() && lb.total_cmp(&best_cost).is_gt() {
                    break; // sorted by bound: nothing later can be cheaper
                }
                let Ok(cost) =
                    self.score_into(engine, previous, &candidates[ci], ws, &mut fork, router)
                else {
                    continue;
                };
                best_cost = best_cost.min(cost);
                let bound = match la {
                    None => cost,
                    Some((next_cands, _, floors)) => {
                        // The metric is the min over continuations (or the
                        // cost itself when none is routable), so the min
                        // over continuation bounds — combined with the
                        // cost — bounds it from below either way.
                        let mut pre = f64::INFINITY;
                        for (ni, nc) in next_cands.iter().enumerate() {
                            pre = pre.min(self.continuation_lower_bound(
                                fork.times(),
                                &candidates[ci],
                                nc,
                                &floors[ni],
                            ));
                            if pre.total_cmp(&cost).is_le() {
                                break; // bound already saturated at cost
                            }
                        }
                        if pre.is_finite() {
                            cost.max(pre)
                        } else {
                            cost
                        }
                    }
                };
                order.push((bound, ci));
            }
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let stuck_err = || PlaceError::RoutingImpossible {
            stuck: qcp_env::PhysicalQubit::new(0),
        };
        if la.is_none() {
            // No lookahead: the metric IS the cost; phase 1 decided.
            return order.first().map(|&(_, ci)| ci).ok_or_else(stuck_err);
        }

        // Phase 2: lookahead metrics, smallest phase-1 bound first. Once
        // bounds exceed the incumbent metric the rest of the (sorted)
        // order can be dropped wholesale.
        let mut best: Option<(f64, usize)> = None;
        let mut fork = CostEngine::new(self.env, self.config.cost_model);
        let mut fork2 = CostEngine::new(self.env, self.config.cost_model);
        for &(bound, ci) in &order {
            if !meter.consume(0) {
                return Err(budget_error(meter));
            }
            if best
                .as_ref()
                .is_some_and(|&(bm, _)| bound.total_cmp(&bm).is_gt())
            {
                break; // sorted by bound: nothing later can win
            }
            let Some(metric) = self.candidate_metric(
                engine,
                previous,
                &candidates[ci],
                ws,
                la,
                best.map(|(bm, _)| bm),
                &mut fork,
                &mut fork2,
                router,
            ) else {
                continue;
            };
            if best.is_none_or(|(bm, bi)| metric.total_cmp(&bm).then(ci.cmp(&bi)).is_lt()) {
                best = Some((metric, ci));
            }
        }
        best.map(|(_, ci)| ci).ok_or_else(stuck_err)
    }

    /// Scores one candidate: its own makespan or, with lookahead, the
    /// best continuation makespan (§5.3's `C_{i,j}`, the min over next-
    /// stage candidates). Returns `None` for unroutable candidates.
    ///
    /// The inner sweep's skips are value-preserving below `cutoff` (a
    /// continuation with `lb ≥` the incumbent min cannot lower the min),
    /// so any returned metric `≤ cutoff` — in particular the eventual
    /// winner's — is exact. Continuations bounded strictly above
    /// `cutoff` are abandoned early: that can only inflate the metric of
    /// a candidate already proven to lose, never deflate one.
    #[allow(clippy::too_many_arguments)]
    fn candidate_metric(
        &self,
        engine: &CostEngine<'e>,
        previous: Option<&Placement>,
        cand: &Placement,
        ws: &Workspace,
        lookahead: Option<Lookahead<'_>>,
        cutoff: Option<f64>,
        fork: &mut CostEngine<'e>,
        fork2: &mut CostEngine<'e>,
        router: &mut Router<'_>,
    ) -> Option<f64> {
        let cost = self
            .score_into(engine, previous, cand, ws, fork, router)
            .ok()?;
        let Some((next_cands, next_ws, floors)) = lookahead else {
            return Some(cost);
        };
        // `fork` holds the post-candidate state; bound the continuations
        // against it and sweep best-first so the break fires early.
        let mut inner: Vec<(f64, usize)> = next_cands
            .iter()
            .enumerate()
            .map(|(ni, nc)| {
                (
                    self.continuation_lower_bound(fork.times(), cand, nc, &floors[ni]),
                    ni,
                )
            })
            .collect();
        inner.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut best_next = f64::INFINITY;
        for &(lb, ni) in &inner {
            if lb.total_cmp(&best_next).is_ge()
                || cutoff.is_some_and(|bm| lb.total_cmp(&bm).is_gt())
            {
                break; // sorted: the min cannot improve below the bound
            }
            if let Ok(c2) =
                self.score_into(fork, Some(cand), &next_cands[ni], next_ws, fork2, router)
            {
                best_next = best_next.min(c2);
            }
        }
        Some(if best_next.is_finite() {
            best_next
        } else {
            cost
        })
    }

    /// An admissible lower bound on [`Placer::score_into`]'s makespan for
    /// `cand`: the busiest nucleus so far, and each moved value's release
    /// time plus the cheapest conceivable cost of its remaining swap
    /// hops. The first hop is discounted entirely — under the reuse cap a
    /// swap on a freshly-coupled pair can cost zero — but every later hop
    /// starts a fresh run (the previous hop rewrote both nuclei's
    /// last-pair records) and pays at least one full stride.
    fn stage_lower_bound(
        &self,
        times: &[f64],
        previous: Option<&Placement>,
        cand: &Placement,
    ) -> f64 {
        let mut lb = times.iter().copied().fold(0.0, f64::max);
        let Some(prev) = previous else {
            return lb;
        };
        let m = self.env.qubit_count();
        for q in 0..cand.logical_count() {
            let src = prev.physical(Qubit::new(q)).index();
            let dst = cand.physical(Qubit::new(q)).index();
            if src == dst {
                continue;
            }
            let hops = self.dist[src * m + dst];
            if hops == u32::MAX {
                return f64::INFINITY;
            }
            let chain = times[src] + f64::from(hops.saturating_sub(1)) * self.min_swap_units;
            lb = lb.max(chain);
        }
        lb
    }

    /// Per-qubit admissible floors on the next workspace's gate cost
    /// under each next-stage candidate, independent of the current
    /// candidate. A qubit's nucleus serializes its gates, each coupling
    /// pair's cheapest conceivable total is its summed weight capped by
    /// the reuse rule, and at most one pair per qubit can continue a
    /// run carried across the stage boundary (a nucleus has a single
    /// last partner) — that one pair's gates may be free, so the
    /// largest pair total is forgiven. Costed single-qubit pulses
    /// always pay full.
    fn continuation_floors(&self, next_cands: &[Placement], next_ws: &Workspace) -> Vec<Vec<f64>> {
        let n = next_ws.circuit.qubit_count();
        let mut pair_gate: std::collections::HashMap<(usize, usize), f64> =
            std::collections::HashMap::new();
        let mut single = vec![0.0f64; n];
        for level in next_ws.circuit.levels() {
            for g in level.gates() {
                let (a, b) = g.qubits();
                match b {
                    Some(b) => {
                        let key = (a.index().min(b.index()), a.index().max(b.index()));
                        *pair_gate.entry(key).or_insert(0.0) += g.time_weight();
                    }
                    None => single[a.index()] += g.time_weight(),
                }
            }
        }
        let pairs: Vec<((usize, usize), f64)> =
            pair_gate.into_iter().filter(|&(_, g)| g > 0.0).collect();
        let cap = self.config.cost_model.reuse_cap;
        let capped = |g: f64| cap.map_or(g, |c| g.min(c));
        next_cands
            .iter()
            .map(|to| {
                let mut sum = vec![0.0f64; n];
                let mut forgiven = vec![0.0f64; n];
                for &((a, b), g) in &pairs {
                    let w = self
                        .env
                        .weight_units(to.physical(Qubit::new(a)), to.physical(Qubit::new(b)));
                    let c = capped(g) * w;
                    sum[a] += c;
                    sum[b] += c;
                    forgiven[a] = forgiven[a].max(c);
                    forgiven[b] = forgiven[b].max(c);
                }
                (0..n)
                    .map(|q| {
                        let v = to.physical(Qubit::new(q));
                        sum[q] - forgiven[q] + single[q] * self.env.weight_units(v, v)
                    })
                    .collect()
            })
            .collect()
    }

    /// An admissible lower bound on one continuation's makespan: each
    /// qubit's release time, plus its remaining swap-chain floor (as in
    /// [`Placer::stage_lower_bound`]), plus its gate floor for the next
    /// workspace — the gates run on the qubit's destination nucleus
    /// strictly after its swap chain delivers it there.
    fn continuation_lower_bound(
        &self,
        times: &[f64],
        from: &Placement,
        to: &Placement,
        floor: &[f64],
    ) -> f64 {
        let m = self.env.qubit_count();
        let mut lb = times.iter().copied().fold(0.0, f64::max);
        for (q, &gate_floor) in floor[..to.logical_count()].iter().enumerate() {
            let src = from.physical(Qubit::new(q)).index();
            let dst = to.physical(Qubit::new(q)).index();
            let chain = if src == dst {
                times[src]
            } else {
                let hops = self.dist[src * m + dst];
                if hops == u32::MAX {
                    return f64::INFINITY;
                }
                times[src] + f64::from(hops.saturating_sub(1)) * self.min_swap_units
            };
            lb = lb.max(chain + gate_floor);
        }
        lb
    }
}

/// Fast-graph node orbits under verified device automorphisms, or `None`
/// whenever orbit pruning would be unsound or useless. Symmetric
/// first-stage placements are cost-equivalent only when every nucleus has
/// the same single-qubit delay (automorphisms preserve coupling weights,
/// not the diagonal) and the fast graph is connected (otherwise routing
/// adds bridge couplings whose selection tie-breaks on nucleus labels,
/// which an automorphism need not preserve). All-singleton orbit
/// partitions are dropped — pruning would be a no-op.
fn device_symmetry(env: &Environment, fast: &Graph) -> Option<Vec<usize>> {
    let m = fast.node_count();
    if m == 0 || connected_components(fast).len() > 1 {
        return None;
    }
    let delay = |q: usize| {
        env.weight_units(
            qcp_env::PhysicalQubit::new(q),
            qcp_env::PhysicalQubit::new(q),
        )
    };
    let d0 = delay(0);
    if (1..m).any(|q| delay(q).total_cmp(&d0).is_ne()) {
        return None;
    }
    let orbits = qcp_graph::canonical::automorphisms(fast).orbits;
    let mut sizes = vec![0usize; m];
    for &o in &orbits {
        sizes[o] += 1;
    }
    sizes.iter().any(|&c| c > 1).then_some(orbits)
}

/// All-pairs BFS over `graph`: hop distances and BFS-tree parents, both
/// row-major `m × m` with `u32::MAX` for unreachable entries (and for the
/// root's parent). Neighbours are visited in index order, so both
/// tables are deterministic.
fn all_pairs_bfs(graph: &Graph) -> (Vec<u32>, Vec<u32>) {
    let m = graph.node_count();
    let mut dist = vec![u32::MAX; m * m];
    let mut parent = vec![u32::MAX; m * m];
    let mut queue = Vec::with_capacity(m);
    for s in 0..m {
        let (d, p) = (
            &mut dist[s * m..(s + 1) * m],
            &mut parent[s * m..(s + 1) * m],
        );
        d[s] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for u in graph.neighbor_slice(qcp_graph::NodeId::new(v)) {
                let u = u.index();
                if d[u] == u32::MAX {
                    d[u] = d[v] + 1;
                    p[u] = v as u32;
                    queue.push(u);
                }
            }
        }
    }
    (dist, parent)
}

/// The strict exact failure once a budget meter has tripped.
fn budget_error(meter: &vf2::Budget) -> PlaceError {
    PlaceError::BudgetExhausted {
        nodes: meter.nodes_visited(),
    }
}

/// Adds the cheapest slow couplings needed to connect the components of
/// the fast graph (a minimum-bottleneck spanning forest over the component
/// quotient). Swaps across these *bridges* pay the true slow-coupling
/// delay.
fn bridge_components(env: &Environment, fast: &Graph) -> Graph {
    let comps = connected_components(fast);
    if comps.len() <= 1 {
        return fast.clone();
    }
    let n = fast.node_count();
    let mut comp_of = vec![0usize; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            comp_of[v.index()] = ci;
        }
    }
    // All inter-component couplings, cheapest first.
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if comp_of[i] != comp_of[j] {
                let w = env.weight_units(
                    qcp_env::PhysicalQubit::new(i),
                    qcp_env::PhysicalQubit::new(j),
                );
                if w.is_finite() {
                    edges.push((w, i, j));
                }
            }
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut routing = fast.clone();
    let mut parent: Vec<usize> = (0..comps.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (w, i, j) in edges {
        let (ri, rj) = (find(&mut parent, comp_of[i]), find(&mut parent, comp_of[j]));
        if ri != rj {
            parent[ri] = rj;
            // The union-find guard means this edge joins two components,
            // so it cannot already be present.
            let _ = routing.add_edge(qcp_graph::NodeId::new(i), qcp_graph::NodeId::new(j), w);
        }
    }
    routing
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library;
    use qcp_env::molecules;

    #[test]
    fn qec3_on_acetyl_chloride_finds_optimum() {
        // Table 2 row 1: the tool creates one workspace and matches the
        // experimentalists' mapping (runtime 136 units = .0136 sec).
        let env = molecules::acetyl_chloride();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(100.0)));
        let outcome = placer.place(&library::qec3_encoder()).unwrap();
        assert_eq!(outcome.subcircuit_count(), 1);
        assert_eq!(outcome.runtime.units(), 136.0);
        assert_eq!(outcome.swap_count(), 0);
    }

    #[test]
    fn qec5_on_crotonic_single_workspace() {
        // Table 2 row 2: one workspace on trans-crotonic acid.
        let env = molecules::trans_crotonic_acid();
        let t = env.connectivity_threshold().unwrap();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(t));
        let outcome = placer.place(&library::qec5_benchmark()).unwrap();
        assert_eq!(outcome.subcircuit_count(), 1);
        assert_eq!(outcome.swap_count(), 0);
        assert!(outcome.runtime.units() > 0.0);
    }

    #[test]
    fn cat10_on_histidine_single_workspace() {
        // Table 2 row 3: the 10-qubit cat chain embeds whole in histidine.
        let env = molecules::histidine();
        let t = env.connectivity_threshold().unwrap();
        let placer = Placer::new(
            &env,
            PlacerConfig::with_threshold(t)
                .candidates(50)
                .lookahead(false),
        );
        let outcome = placer.place(&library::pseudo_cat(10)).unwrap();
        assert_eq!(outcome.subcircuit_count(), 1);
    }

    #[test]
    fn too_wide_circuit_rejected() {
        let env = molecules::acetyl_chloride();
        let placer = Placer::new(&env, PlacerConfig::default());
        assert!(matches!(
            placer.place(&library::phase_estimation()).unwrap_err(),
            PlaceError::CircuitTooLarge { .. }
        ));
    }

    #[test]
    fn pentafluoro_na_below_200() {
        // Table 3's N/A cells.
        let env = molecules::pentafluoro_iron();
        for t in [50.0, 100.0] {
            let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(t)));
            assert_eq!(
                placer.place(&library::phase_estimation()).unwrap_err(),
                PlaceError::NoFastInteractions,
                "threshold {t}"
            );
        }
        let placer = Placer::new(&env, PlacerConfig::with_threshold(Threshold::new(200.0)));
        assert!(placer.place(&library::phase_estimation()).is_ok());
    }

    #[test]
    fn staged_circuit_recovers_hidden_stages() {
        // Table 4: #subcircuits == #hidden stages on an LNN chain.
        let staged = library::random::staged(8, 7);
        let env = molecules::lnn_chain_1khz(8);
        let placer = Placer::new(
            &env,
            PlacerConfig::with_threshold(Threshold::new(11.0))
                .candidates(8)
                .lookahead(false)
                .fine_tuning(0),
        );
        let outcome = placer.place(&staged.circuit).unwrap();
        assert_eq!(outcome.subcircuit_count(), staged.stage_count());
        assert!(outcome.swap_count() > 0, "stages require swapping");
    }

    #[test]
    fn multi_stage_schedule_is_consistent() {
        // phaseest on crotonic: several workspaces; placed schedule must
        // contain all circuit gates plus the swaps.
        let env = molecules::trans_crotonic_acid();
        let t = env.connectivity_threshold().unwrap();
        let placer = Placer::new(
            &env,
            PlacerConfig::with_threshold(t)
                .candidates(30)
                .lookahead(true),
        );
        let circuit = library::phase_estimation();
        let outcome = placer.place(&circuit).unwrap();
        assert!(outcome.subcircuit_count() > 1);
        assert_eq!(
            outcome.schedule.gate_count(),
            circuit.gate_count() + outcome.swap_count()
        );
        // Swap schedules really transform placements into one another.
        for pair in outcome.stages.windows(2) {
            let perm = pair[0].placement.permutation_to(&pair[1].placement);
            let pos = pair[1].swaps.simulate(env.qubit_count());
            for (v, d) in perm.iter().enumerate() {
                if let Some(d) = d {
                    assert_eq!(pos[v], *d, "value at p{v} must reach p{d}");
                }
            }
        }
    }

    #[test]
    fn empty_circuit_places_trivially() {
        let env = molecules::acetyl_chloride();
        let placer = Placer::new(&env, PlacerConfig::default());
        let outcome = placer.place(&Circuit::empty(2)).unwrap();
        assert_eq!(outcome.subcircuit_count(), 1);
        assert!(outcome.runtime.is_zero());
    }

    #[test]
    fn bridged_routing_below_connectivity_threshold() {
        // Crotonic at threshold 50: fast graph disconnected, but placement
        // still succeeds (swaps fall back to slow bridges), as in §6.
        let env = molecules::trans_crotonic_acid();
        let placer = Placer::new(
            &env,
            PlacerConfig::with_threshold(Threshold::new(50.0)).candidates(30),
        );
        let outcome = placer.place(&library::phase_estimation()).unwrap();
        assert!(outcome.subcircuit_count() >= 2);
    }

    #[test]
    fn hop_tables_hold_bfs_distances_and_shortest_path_parents() {
        // Crotonic at threshold 50 routes over bridge couplings; the
        // grid's routing graph is its fast graph.
        let crotonic = molecules::trans_crotonic_acid();
        let grid = qcp_env::topologies::grid(3, 4, qcp_env::topologies::Delays::default());
        for (env, t) in [
            (&crotonic, Threshold::new(50.0)),
            (&grid, grid.connectivity_threshold().unwrap()),
        ] {
            let placer = Placer::new(env, PlacerConfig::with_threshold(t));
            let routing = placer.routing_graph();
            let m = routing.node_count();
            let (dist, parent) = placer.hop_tables();
            for s in 0..m {
                let row = qcp_graph::traversal::bfs_distances(routing, qcp_graph::NodeId::new(s));
                for (t, d) in row.into_iter().enumerate() {
                    let (hops, up) = (dist[s * m + t], parent[s * m + t]);
                    assert_eq!(hops, d.unwrap_or(u32::MAX), "{s}->{t}");
                    if t == s || hops == u32::MAX {
                        assert_eq!(up, u32::MAX, "{s}->{t}");
                    } else {
                        // The parent is one routing edge closer to the root.
                        let up = up as usize;
                        assert!(
                            routing.has_edge(qcp_graph::NodeId::new(up), qcp_graph::NodeId::new(t))
                        );
                        assert_eq!(dist[s * m + up] + 1, hops, "{s}->{t}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_tripping_plan_means_the_exact_run_trips() {
        // `Hybrid` skips the exact run when its plan trips and the routing
        // graph is connected; this is the soundness half of that rule.
        // Crotonic acid at threshold 50 routes over slow bridges.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qasm");
        let mut circuits: Vec<(String, Circuit)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
            .map(|p| {
                let text = std::fs::read_to_string(&p).unwrap();
                let name = p.file_stem().unwrap().to_string_lossy().into_owned();
                (name, qcp_circuit::qasm::parse(&text).unwrap().circuit)
            })
            .collect();
        circuits.push(("qft6".into(), library::qft(6)));
        circuits.push(("phaseest".into(), library::phase_estimation()));
        let delays = qcp_env::topologies::Delays::default();
        let crotonic = molecules::trans_crotonic_acid();
        let grid = qcp_env::topologies::grid(4, 4, delays);
        let ring = qcp_env::topologies::ring(16, delays);
        let heavy_hex = qcp_env::topologies::heavy_hex(3, delays);
        let envs = [
            (&grid, grid.connectivity_threshold().unwrap()),
            (&ring, ring.connectivity_threshold().unwrap()),
            (&heavy_hex, heavy_hex.connectivity_threshold().unwrap()),
            (&crotonic, Threshold::new(50.0)),
        ];
        let (mut planned, mut tripped) = (0, 0);
        for (name, circuit) in &circuits {
            for &(env, threshold) in &envs {
                assert!(
                    Placer::new(env, PlacerConfig::with_threshold(threshold)).routing_connected()
                );
                for nodes in [64, 300, 2_000, 20_000] {
                    for (lookahead, rounds) in [(true, 2), (true, 0), (false, 2), (false, 0)] {
                        let config = PlacerConfig::with_threshold(threshold)
                            .lookahead(lookahead)
                            .fine_tuning(rounds)
                            .budget(SearchBudget::nodes(nodes));
                        let placer = Placer::new(env, config);
                        let mut meter = placer.config().budget.start();
                        let Ok(plan) = placer.plan_exact(circuit, &mut meter) else {
                            continue;
                        };
                        planned += 1;
                        if !plan.trips() {
                            continue;
                        }
                        tripped += 1;
                        match placer.place(circuit) {
                            Err(PlaceError::BudgetExhausted { .. }) => {}
                            other => panic!(
                                "{name}@{} nodes({nodes}) lookahead={lookahead} \
                                 rounds={rounds}: the plan trips but exact gave {other:?}",
                                env.name(),
                            ),
                        }
                    }
                }
            }
        }
        assert!(
            tripped > 0 && tripped < planned,
            "{tripped} of {planned} plans trip"
        );
    }

    #[test]
    fn lookahead_never_worse_than_greedy_here() {
        let env = molecules::trans_crotonic_acid();
        let t = Threshold::new(200.0);
        let greedy = Placer::new(
            &env,
            PlacerConfig::with_threshold(t)
                .lookahead(false)
                .candidates(30),
        )
        .place(&library::qft(6))
        .unwrap();
        let smart = Placer::new(
            &env,
            PlacerConfig::with_threshold(t)
                .lookahead(true)
                .candidates(30),
        )
        .place(&library::qft(6))
        .unwrap();
        assert!(
            smart.runtime.units() <= greedy.runtime.units() * 1.25,
            "lookahead {} vs greedy {}",
            smart.runtime.units(),
            greedy.runtime.units()
        );
    }
}
