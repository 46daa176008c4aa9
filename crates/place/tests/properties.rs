#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property-based tests for the placement core.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qcp_circuit::{Circuit, Gate, Qubit};
use qcp_env::topologies::{self, Delays};
use qcp_env::{molecules, Environment, PhysicalQubit};
use qcp_graph::vf2::Budget;
use qcp_graph::{generate, NodeId};
use qcp_place::baselines::{exhaustive_placement, random_placement};
use qcp_place::batch::BatchPlacer;
use qcp_place::cost::{placed_runtime, CostEngine, CostModel, ExecutionModel, PlacedGate};
use qcp_place::embed::{candidate_placements_searched, SearchOptions};
use qcp_place::router::{route_permutation, route_sequential, verify_schedule, RouterConfig};
use qcp_place::workspace::{extract_workspaces_budgeted, ExtractionOptions};
use qcp_place::{
    execute_with, CacheDisposition, CanonicalCircuit, PlaceError, PlaceRequest, Placement,
    PlacementCache, Placer, PlacerConfig, Resolution, SearchBudget, Strategy,
};

/// Each qubit's gate sequence over `gates`, in order. Two gate orders with
/// equal sequences are the same computation; levelling may still order
/// gates on disjoint qubits differently.
fn per_qubit<'a>(n: usize, gates: impl IntoIterator<Item = &'a Gate>) -> Vec<Vec<&'a Gate>> {
    let mut seq = vec![Vec::new(); n];
    for g in gates {
        let (a, b) = g.qubits();
        for q in std::iter::once(a).chain(b) {
            seq[q.index()].push(g);
        }
    }
    seq
}

/// A random circuit in the NMR basis on `n` qubits.
fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Circuit::builder(n);
    for _ in 0..gates {
        match rng.gen_range(0..4) {
            0 => {
                b.gate(Gate::ry(Qubit::new(rng.gen_range(0..n)), 90.0));
            }
            1 => {
                b.gate(Gate::rz(Qubit::new(rng.gen_range(0..n)), 90.0));
            }
            _ => {
                let a = rng.gen_range(0..n);
                let mut c = rng.gen_range(0..n);
                while c == a {
                    c = rng.gen_range(0..n);
                }
                b.gate(Gate::zz(Qubit::new(a), Qubit::new(c), 90.0));
            }
        }
    }
    b.build()
}

/// Disjoint rings of `zz` couplings with the given lengths, the gates in
/// an order shuffled by `seed`. Every qubit has degree 2, so
/// Weisfeiler–Leman refinement cannot tell any two qubits apart.
fn ring_union(lengths: &[usize], seed: u64) -> Circuit {
    let mut edges = Vec::new();
    let mut base = 0;
    for &len in lengths {
        edges.extend((0..len).map(|i| (base + i, base + (i + 1) % len)));
        base += len;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let mut b = Circuit::builder(base);
    for (a, c) in edges {
        b.gate(Gate::zz(Qubit::new(a), Qubit::new(c), 90.0));
    }
    b.build()
}

/// The input of the circuit-canonicalization properties: a random
/// NMR-basis circuit (`shape` 0), three equal rings (`shape` 1), or
/// rings of mixed lengths (`shape` 2).
fn canonical_input(shape: usize, n: usize, gates: usize, seed: u64) -> Circuit {
    match shape {
        0 => random_circuit(n, gates, seed),
        1 => ring_union(&[n + 1; 3], seed),
        _ => ring_union(&[3, n + 1, n + 1, n + 2], seed),
    }
}

fn random_env(n: usize, seed: u64) -> Environment {
    molecules::random_molecule(n, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn router_realizes_random_permutations(
        seed in any::<u64>(),
        n in 3usize..14,
        extra in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_connected(n, extra, &mut rng);
        let perm = generate::random_permutation(n, &mut rng);
        let targets: Vec<Option<usize>> = perm.iter().map(|&d| Some(d)).collect();
        for cfg in [RouterConfig { leaf_override: true }, RouterConfig { leaf_override: false }] {
            let s = route_permutation(&g, &targets, &cfg).unwrap();
            prop_assert!(verify_schedule(&g, &targets, &s));
        }
        let s = route_sequential(&g, &targets).unwrap();
        prop_assert!(verify_schedule(&g, &targets, &s));
    }

    #[test]
    fn router_depth_linear_on_bounded_degree(seed in any::<u64>(), n in 4usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::bounded_degree_tree(n, 3, &mut rng);
        let perm = generate::random_permutation(n, &mut rng);
        let targets: Vec<Option<usize>> = perm.iter().map(|&d| Some(d)).collect();
        let s = route_permutation(&g, &targets, &RouterConfig::default()).unwrap();
        prop_assert!(verify_schedule(&g, &targets, &s));
        // §5.2's 8n + const bound (generous constant for tiny n).
        prop_assert!(s.depth() <= 8 * n + 16, "depth {} on n={n}", s.depth());
    }

    #[test]
    fn router_partial_targets(seed in any::<u64>(), n in 3usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::random_connected(n, 3, &mut rng);
        let perm = generate::random_permutation(n, &mut rng);
        // Constrain a random subset only.
        let targets: Vec<Option<usize>> = perm
            .iter()
            .map(|&d| if rng.gen_bool(0.5) { Some(d) } else { None })
            .collect();
        // Destinations must be distinct: perm is a bijection, so any
        // subset is injective.
        let s = route_permutation(&g, &targets, &RouterConfig::default()).unwrap();
        prop_assert!(verify_schedule(&g, &targets, &s));
    }

    #[test]
    fn runtime_invariant_under_nucleus_relabeling(seed in any::<u64>()) {
        // Relabeling the environment's nuclei and composing the placement
        // with the same relabeling leaves the runtime unchanged.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..6);
        let m = rng.gen_range(n..8);
        let circuit = random_circuit(n, 20, seed ^ 1);
        let env = random_env(m, seed ^ 2);
        let placement = random_placement(n, &env, seed ^ 3).unwrap();
        let model = CostModel::overlapped();
        let base = placed_runtime(&circuit, &env, &placement, &model);

        // Random relabeling sigma of nuclei.
        let sigma = generate::random_permutation(m, &mut rng);
        let mut b = Environment::builder("relabeled");
        for i in 0..m {
            // Nucleus sigma[i] of the new env corresponds to old nucleus i:
            // build by inverse lookup.
            let old = sigma.iter().position(|&s| s == i).unwrap();
            b.nucleus(
                format!("n{i}"),
                env.single_qubit_delay(PhysicalQubit::new(old)).units(),
            );
        }
        for i in 0..m {
            for j in i + 1..m {
                let (oi, oj) = (
                    sigma.iter().position(|&s| s == i).unwrap(),
                    sigma.iter().position(|&s| s == j).unwrap(),
                );
                let w = env
                    .coupling(PhysicalQubit::new(oi), PhysicalQubit::new(oj))
                    .units();
                if w.is_finite() {
                    b.coupling(PhysicalQubit::new(i), PhysicalQubit::new(j), w).unwrap();
                }
            }
        }
        let env2 = b.build().unwrap();
        let mapped = Placement::new(
            (0..n)
                .map(|q| PhysicalQubit::new(sigma[placement.physical(Qubit::new(q)).index()]))
                .collect(),
            m,
        )
        .unwrap();
        let relabeled = placed_runtime(&circuit, &env2, &mapped, &model);
        prop_assert!((base.units() - relabeled.units()).abs() < 1e-6);
    }

    #[test]
    fn single_stage_heuristic_never_beats_exhaustive(seed in any::<u64>()) {
        // The exhaustive baseline places the circuit *as a whole*; the
        // staged heuristic may legitimately beat it by inserting SWAPs
        // (the paper's central finding). Only swap-free single-stage
        // outcomes are bounded below by the exhaustive optimum.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..4usize);
        let m = rng.gen_range(n..6usize);
        let circuit = random_circuit(n, 12, seed ^ 5);
        let env = random_env(m, seed ^ 6);
        let model = CostModel::overlapped();
        let (_, best) = exhaustive_placement(&circuit, &env, &model, 1e6).unwrap();
        let t = env.connectivity_threshold().unwrap();
        let placer = Placer::new(&env, PlacerConfig::with_threshold(t).candidates(64));
        if let Ok(outcome) = placer.place(&circuit) {
            if outcome.subcircuit_count() == 1 {
                prop_assert!(
                    outcome.runtime.units() + 1e-9 >= best.units(),
                    "swap-free heuristic {} beat exhaustive {}",
                    outcome.runtime.units(),
                    best.units()
                );
            }
        }
    }

    #[test]
    fn placement_moves_preserve_injectivity(seed in any::<u64>(), n in 2usize..6, m in 6usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let env = random_env(m, seed);
        let mut placement = random_placement(n, &env, seed).unwrap();
        for _ in 0..40 {
            let q = Qubit::new(rng.gen_range(0..n));
            let v = PhysicalQubit::new(rng.gen_range(0..m));
            placement = placement.with_move(q, v);
            // Injectivity: every logical qubit's nucleus is distinct.
            let mut seen = vec![false; m];
            for i in 0..n {
                let vv = placement.physical(Qubit::new(i)).index();
                prop_assert!(!seen[vv]);
                seen[vv] = true;
                // Inverse is consistent.
                prop_assert_eq!(
                    placement.logical_at(PhysicalQubit::new(vv)),
                    Some(Qubit::new(i))
                );
            }
        }
    }

    #[test]
    fn placed_schedule_contains_all_gates(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..6usize);
        let circuit = random_circuit(n, 25, seed ^ 9);
        let env = random_env(n + 2, seed ^ 10);
        let t = env.connectivity_threshold().unwrap();
        let placer = Placer::new(
            &env,
            PlacerConfig::with_threshold(t).candidates(32).lookahead(false),
        );
        if let Ok(outcome) = placer.place(&circuit) {
            prop_assert_eq!(
                outcome.schedule.gate_count(),
                circuit.gate_count() + outcome.swap_count()
            );
            // Consecutive placements are connected by their swap stages.
            for pair in outcome.stages.windows(2) {
                let perm = pair[0].placement.permutation_to(&pair[1].placement);
                let pos = pair[1].swaps.simulate(env.qubit_count());
                for (v, d) in perm.iter().enumerate() {
                    if let Some(d) = d {
                        prop_assert_eq!(pos[v], *d);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_outcomes_independent_of_worker_count(seed in any::<u64>()) {
        // The determinism contract: --jobs 1 and --jobs 8 (and anything
        // in between) must produce bit-identical outcomes, in the same
        // order, on the same request list.
        let mut rng = StdRng::seed_from_u64(seed);
        let circuits: Vec<Circuit> = (0..4)
            .map(|i| {
                let n = rng.gen_range(2..6usize);
                random_circuit(n, rng.gen_range(5..25), seed ^ i)
            })
            .collect();
        let envs = vec![
            random_env(6, seed ^ 11),
            topologies::grid(2, 3, Delays::default()),
            topologies::line(6, Delays::default()),
        ];
        let config = PlacerConfig::default().candidates(16);
        let serial = BatchPlacer::cross_auto(&circuits, &envs, &config).jobs(1).run();
        let parallel = BatchPlacer::cross_auto(&circuits, &envs, &config).jobs(8).run();
        prop_assert_eq!(serial.results.len(), 12);
        prop_assert_eq!(serial.outcome_fingerprint(), parallel.outcome_fingerprint());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(&a.label, &b.label);
            match (&a.outcome, &b.outcome) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.runtime.units(), y.runtime.units());
                    prop_assert_eq!(x.subcircuit_count(), y.subcircuit_count());
                    prop_assert_eq!(x.swap_count(), y.swap_count());
                    for (sx, sy) in x.stages.iter().zip(&y.stages) {
                        prop_assert!(sx.placement.same_assignment(&sy.placement));
                    }
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                (x, y) => prop_assert!(false, "ok/err mismatch: {x:?} vs {y:?}"),
            }
        }
        // Aggregates agree too (wall time aside).
        prop_assert_eq!(serial.total_swaps(), parallel.total_swaps());
        prop_assert_eq!(
            serial.total_runtime().units(),
            parallel.total_runtime().units()
        );
    }

    #[test]
    fn zero_budget_exact_never_panics_and_always_exhausts(seed in any::<u64>()) {
        // The anytime contract's strict half: a 0-budget ExactVf2 never
        // panics and always reports BudgetExhausted, whatever the
        // circuit/environment pair looks like.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..7usize);
        let circuit = random_circuit(n, rng.gen_range(1..30), seed ^ 31);
        let env = random_env(n + rng.gen_range(0..3usize), seed ^ 32);
        let t = env.connectivity_threshold().unwrap();
        let config = PlacerConfig::with_threshold(t)
            .strategy(Strategy::Exact)
            .budget(SearchBudget::nodes(0));
        let err = Placer::new(&env, config).place(&circuit).unwrap_err();
        prop_assert!(matches!(err, PlaceError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn zero_budget_hybrid_still_places(seed in any::<u64>()) {
        // ... and the anytime half: hybrid under the same empty budget
        // must still return a valid placement via the heuristic chain.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..7usize);
        let circuit = random_circuit(n, rng.gen_range(1..30), seed ^ 41);
        let env = random_env(n + rng.gen_range(0..3usize), seed ^ 42);
        let t = env.connectivity_threshold().unwrap();
        let config = PlacerConfig::with_threshold(t)
            .strategy(Strategy::Hybrid)
            .budget(SearchBudget::nodes(0));
        let outcome = Placer::new(&env, config).place(&circuit).unwrap();
        prop_assert_eq!(outcome.resolution, Resolution::BudgetExhausted);
        prop_assert_eq!(
            outcome.schedule.gate_count(),
            circuit.gate_count() + outcome.swap_count()
        );
        // Every stage's interactions sit on fast couplings.
        let fast = env.fast_graph(t);
        for stage in &outcome.stages {
            for g in stage.subcircuit.gates() {
                if let Some((a, b)) = g.coupling() {
                    prop_assert!(fast.has_edge(
                        NodeId::new(stage.placement.physical(a).index()),
                        NodeId::new(stage.placement.physical(b).index()),
                    ));
                }
            }
        }
    }

    #[test]
    fn workspace_interactions_always_embed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..7usize);
        let circuit = random_circuit(n, 30, seed ^ 21);
        let env = random_env(n + 1, seed ^ 22);
        let t = env.connectivity_threshold().unwrap();
        let fast = env.fast_graph(t);
        let mut meter = Budget::unlimited();
        let ws = extract_workspaces_budgeted(&circuit, &fast, ExtractionOptions::default(), &mut meter)
            .unwrap();
        // Run one after another, the workspaces are the circuit.
        prop_assert_eq!(
            per_qubit(n, ws.iter().flat_map(|w| w.circuit.gates())),
            per_qubit(n, circuit.gates())
        );
        for w in &ws {
            // Each workspace's interaction pattern embeds.
            let cands = candidate_placements_searched(
                &w.interaction,
                &fast,
                None,
                1,
                &mut meter,
                &SearchOptions::default(),
            )
            .unwrap();
            prop_assert!(!cands.is_empty(), "workspace does not embed");
            // And the interaction graph matches the subcircuit's couplings.
            for g in w.circuit.gates() {
                if let Some((a, b)) = g.coupling() {
                    prop_assert!(w
                        .interaction
                        .has_edge(NodeId::new(a.index()), NodeId::new(b.index())));
                }
            }
        }
    }
}

/// The hybrid-equivalence half of the anytime contract: with an
/// unlimited budget, `Hybrid` must be bit-identical to `ExactVf2` on the
/// whole topology zoo (the exact attempt never exhausts, so the fallback
/// never runs).
#[test]
fn hybrid_with_unlimited_budget_is_bit_identical_to_exact_on_the_zoo() {
    let circuits = [
        qcp_circuit::library::qec3_encoder(),
        qcp_circuit::library::qft(4),
        qcp_circuit::library::pseudo_cat(5),
        qcp_circuit::library::qec5_benchmark(),
    ];
    let envs = [
        topologies::line(6, Delays::default()),
        topologies::ring(6, Delays::default()),
        topologies::grid(2, 3, Delays::default()),
        topologies::heavy_hex(3, Delays::default()),
        topologies::star(6, Delays::default()),
        molecules::trans_crotonic_acid(),
    ];
    let exact = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default().candidates(30))
        .jobs(1)
        .run();
    let hybrid = BatchPlacer::cross_auto(
        &circuits,
        &envs,
        &PlacerConfig::default()
            .candidates(30)
            .strategy(Strategy::Hybrid),
    )
    .jobs(1)
    .run();
    assert_eq!(exact.results.len(), hybrid.results.len());
    assert_eq!(exact.outcome_fingerprint(), hybrid.outcome_fingerprint());
    for (a, b) in exact.results.iter().zip(&hybrid.results) {
        match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.resolution, Resolution::Exact, "{}", a.label);
                assert_eq!(y.resolution, Resolution::Exact, "{}", b.label);
                assert_eq!(x.runtime.units(), y.runtime.units());
                assert_eq!(x.stages.len(), y.stages.len());
                for (sx, sy) in x.stages.iter().zip(&y.stages) {
                    assert!(sx.placement.same_assignment(&sy.placement));
                }
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("ok/err mismatch on {}: {x:?} vs {y:?}", a.label),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Cache-keying soundness on whole circuits (not just interaction
    // graphs): relabelling the qubits of a random NMR-basis circuit or a
    // WL-hard ring union by any permutation never changes its exact
    // canonical fingerprint, and the canonical witness order is always a
    // permutation of the qubits.
    #[test]
    fn canonical_circuit_fingerprint_is_relabeling_invariant(
        seed in any::<u64>(),
        shape in 0usize..3,
        n in 2usize..8,
        gates in 1usize..24,
    ) {
        let circuit = canonical_input(shape, n, gates, seed);
        let n = circuit.qubit_count();
        let base = CanonicalCircuit::of(&circuit);
        prop_assert_eq!(base.order.len(), n);
        let mut sorted: Vec<usize> = base.order.iter().map(|q| q.index()).collect();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<usize>>());

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        for _ in 0..3 {
            let perm = generate::random_permutation(n, &mut rng);
            let relabelled = circuit.map_qubits(n, |q| Qubit::new(perm[q.index()]));
            let other = CanonicalCircuit::of(&relabelled);
            prop_assert_eq!(other.fingerprint, base.fingerprint);
        }
    }

    // Discrimination: appending one extra interaction (a near-miss, not a
    // relabelling) must move the circuit fingerprint.
    #[test]
    fn canonical_circuit_fingerprint_separates_appended_gates(
        seed in any::<u64>(),
        shape in 0usize..3,
        n in 2usize..8,
        gates in 1usize..16,
    ) {
        let circuit = canonical_input(shape, n, gates, seed);
        let n = circuit.qubit_count();
        let base = CanonicalCircuit::of(&circuit).fingerprint;
        let mut b = Circuit::builder(n);
        for gate in circuit.gates() {
            b.gate(gate.clone());
        }
        b.gate(Gate::zz(Qubit::new(0), Qubit::new(n - 1), 45.0));
        let extended = b.build();
        prop_assert_ne!(CanonicalCircuit::of(&extended).fingerprint, base);
    }

    // The unified executor agrees with itself across relabellings: an
    // isomorphic repeat is a remapped cache hit whose outcome matches the
    // cold placement gate-for-gate after the witness remap.
    #[test]
    fn cache_hits_reproduce_cold_outcomes_under_relabeling(
        seed in any::<u64>(),
        n in 3usize..6,
        gates in 2usize..12,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let env = random_env(n + 2, seed ^ 1);
        let Some(threshold) = env.connectivity_threshold() else {
            return Ok(());
        };
        let config = PlacerConfig::with_threshold(threshold);
        let cache = PlacementCache::new(4);

        let cold = execute_with(
            &PlaceRequest::new(&circuit, &env).config(config.clone()),
            Some(&cache),
            None,
        );
        let Ok(cold) = cold else {
            return Ok(()); // some random circuits are legitimately unplaceable
        };
        prop_assert_eq!(cold.cache, CacheDisposition::Miss);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let perm = generate::random_permutation(n, &mut rng);
        let relabelled = circuit.map_qubits(n, |q| Qubit::new(perm[q.index()]));
        let warm = execute_with(
            &PlaceRequest::new(&relabelled, &env).config(config),
            Some(&cache),
            None,
        );
        let warm = warm.expect("isomorphic repeat of a placeable circuit places");
        prop_assert!(matches!(warm.cache, CacheDisposition::Hit { .. }), "{:?}", warm.cache);
        prop_assert_eq!(warm.outcome.runtime, cold.outcome.runtime);
        prop_assert_eq!(warm.outcome.stages.len(), cold.outcome.stages.len());
        prop_assert_eq!(warm.outcome.swap_count(), cold.outcome.swap_count());
    }
}

/// A reference cost engine that keeps the §6 reuse cap's state keyed by
/// nucleus *pair*: each nucleus's last coupling pair, and the accumulated
/// `T` of the live run on each pair in a `HashMap`. [`CostEngine`] keeps
/// the same rule in per-nucleus slots; this oracle states it the direct
/// way, so a divergence between the two shows up bit for bit.
#[derive(Clone)]
struct PairKeyedEngine<'a> {
    env: &'a Environment,
    model: CostModel,
    times: Vec<f64>,
    last_pair: Vec<Option<(usize, usize)>>,
    runs: std::collections::HashMap<(usize, usize), f64>,
}

impl<'a> PairKeyedEngine<'a> {
    fn new(env: &'a Environment, model: CostModel) -> Self {
        PairKeyedEngine {
            env,
            model,
            times: vec![0.0; env.qubit_count()],
            last_pair: vec![None; env.qubit_count()],
            runs: std::collections::HashMap::new(),
        }
    }

    fn apply_gate(&mut self, gate: &PlacedGate) -> (f64, f64) {
        let i = gate.a.index();
        let Some(b) = gate.b else {
            let start = self.times[i];
            self.times[i] = start + self.env.weight_units(gate.a, gate.a) * gate.weight;
            if gate.weight > 0.0 {
                self.last_pair[i] = None;
            }
            return (start, self.times[i]);
        };
        let j = b.index();
        let key = (i.min(j), i.max(j));
        let effective = match self.model.reuse_cap {
            None => gate.weight,
            Some(cap) => {
                let continuing = self.last_pair[i] == Some(key) && self.last_pair[j] == Some(key);
                let prev = if continuing { self.runs[&key] } else { 0.0 };
                let total = prev + gate.weight;
                self.runs.insert(key, total);
                total.min(cap) - prev.min(cap)
            }
        };
        let start = self.times[i].max(self.times[j]);
        let delay = self.env.weight_units(gate.a, b);
        let finish = if delay.is_finite() {
            start + delay * effective
        } else {
            f64::INFINITY
        };
        self.times[i] = finish;
        self.times[j] = finish;
        self.last_pair[i] = Some(key);
        self.last_pair[j] = Some(key);
        (start, finish)
    }

    fn level_barrier(&mut self) {
        if self.model.execution == ExecutionModel::Leveled {
            let barrier = self.times.iter().copied().fold(0.0, f64::max);
            self.times.fill(barrier);
        }
    }

    fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }
}

/// Five nuclei with distinct delays; (0, 3), (0, 4), (1, 4) and (2, 4)
/// are uncoupled.
fn oracle_env() -> Environment {
    let mut b = Environment::builder("oracle-5");
    let v: Vec<PhysicalQubit> = [1.0, 2.0, 0.5, 1.5, 3.0]
        .iter()
        .enumerate()
        .map(|(i, &d)| b.nucleus(format!("n{i}"), d))
        .collect();
    for (x, y, w) in [
        (0, 1, 10.0),
        (1, 2, 7.5),
        (2, 3, 33.0),
        (3, 4, 12.0),
        (0, 2, 50.0),
        (1, 3, 4.25),
    ] {
        b.bond(v[x], v[y], w).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `CostEngine` against the pair-keyed oracle on random gate streams
    /// over two engines: runs on repeated and recently used pairs,
    /// zero-weight couplings, couplings on uncoupled pairs, free and
    /// costed single-qubit pulses, SWAP levels, level barriers, and
    /// `copy_from` forks of one engine into the other (dirty) one taken
    /// mid-stream. Every `apply_gate` instant, every nucleus time and
    /// every makespan must match bit for bit, with and without the reuse
    /// cap, under both execution models.
    #[test]
    fn cost_engine_matches_the_pair_keyed_reuse_rule(
        seed in any::<u64>(),
        capped in any::<bool>(),
        leveled in any::<bool>(),
    ) {
        let env = oracle_env();
        let m = env.qubit_count();
        let model = CostModel {
            execution: if leveled { ExecutionModel::Leveled } else { ExecutionModel::Overlapped },
            reuse_cap: capped.then_some(3.0),
        };
        let p = PhysicalQubit::new;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engines = [CostEngine::new(&env, model), CostEngine::new(&env, model)];
        let mut oracles = [PairKeyedEngine::new(&env, model), PairKeyedEngine::new(&env, model)];
        let mut recent: Vec<(usize, usize)> = vec![(0, 1)];
        for step in 0..240 {
            let k = rng.gen_range(0..2);
            match rng.gen_range(0..12) {
                0 => {
                    let [e0, e1] = &mut engines;
                    if k == 0 { e1.copy_from(e0) } else { e0.copy_from(e1) }
                    oracles[1 - k] = oracles[k].clone();
                }
                1 => {
                    let (a, b) = recent[recent.len() - 1];
                    engines[k].apply_swap_levels([&[(p(a), p(b))][..]]);
                    oracles[k].level_barrier();
                    oracles[k].apply_gate(&PlacedGate::swap(p(a), p(b)));
                }
                2 => {
                    engines[k].apply_level(&[]);
                    oracles[k].level_barrier();
                }
                3 | 4 => {
                    let weight = [0.0, 0.0, 1.0, 2.0][rng.gen_range(0..4)];
                    let gate = PlacedGate::one(p(rng.gen_range(0..m)), weight);
                    let got = engines[k].apply_gate(&gate);
                    let want = oracles[k].apply_gate(&gate);
                    prop_assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "step {} {:?}", step, gate
                    );
                }
                _ => {
                    // Most couplings reuse one of the last three pairs, so
                    // runs continue, interleave and break.
                    let (a, b) = if rng.gen_bool(0.7) {
                        recent[recent.len().saturating_sub(3) + rng.gen_range(0..recent.len().min(3))]
                    } else {
                        let a = rng.gen_range(0..m);
                        (a, (a + rng.gen_range(1..m)) % m)
                    };
                    let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                    recent.push((a, b));
                    let weight = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0][rng.gen_range(0..6)];
                    let gate = PlacedGate::two(p(a), p(b), weight);
                    let got = engines[k].apply_gate(&gate);
                    let want = oracles[k].apply_gate(&gate);
                    prop_assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "step {} {:?}", step, gate
                    );
                }
            }
            for (engine, oracle) in engines.iter().zip(&oracles) {
                let times: Vec<u64> = engine.times().iter().map(|t| t.to_bits()).collect();
                let want: Vec<u64> = oracle.times.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(times, want, "step {}", step);
                prop_assert_eq!(
                    engine.makespan().units().to_bits(),
                    oracle.makespan().to_bits(),
                    "step {}", step
                );
            }
        }
    }
}
