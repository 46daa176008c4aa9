#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Corpus-wide certification properties.
//!
//! Two directions, per the verification layer's contract:
//!
//! * **Soundness of the pipeline**: every outcome any strategy produces,
//!   for every committed QASM corpus circuit on every reference topology,
//!   must certify from first principles.
//! * **Sensitivity of the checker**: minimally mutated outcomes — a
//!   qubit-pair exchange in one stage, a perturbed reported cost, a
//!   duplicated schedule gate — must all be rejected.

use proptest::prelude::*;
use qcp_circuit::{qasm, Circuit, Time};
use qcp_env::topologies::{Delays, TopologySpec};
use qcp_env::Environment;
use qcp_place::cost::PlacedGate;
use qcp_place::{PlacementOutcome, Placer, PlacerConfig, Strategy};
use qcp_verify::{certify, VerifyOptions};
use rand::SeedableRng;

/// The reference topology zoo, parsed exactly as the CLI parses
/// `--topology` arguments.
const TOPOLOGIES: [&str; 3] = ["line:16", "grid:4x4", "heavy_hex:3"];

fn corpus() -> Vec<(String, Circuit)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/qasm");
    let mut stems: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    stems.sort();
    stems
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let circuit = qasm::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
                .circuit;
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            (stem, circuit)
        })
        .collect()
}

fn build_env(spec: &str) -> Environment {
    let parsed: TopologySpec = spec.parse().unwrap();
    parsed.build(Delays::default())
}

fn config_for(env: &Environment, strategy: Strategy) -> PlacerConfig {
    let threshold = env.connectivity_threshold().unwrap();
    PlacerConfig::with_threshold(threshold)
        .candidates(30)
        .strategy(strategy)
}

/// A placed corpus case ready for mutation: the outcome plus everything
/// the checker needs to judge it.
fn place_case(
    circuit: &Circuit,
    spec: &str,
    strategy: Strategy,
) -> (Environment, PlacerConfig, PlacementOutcome) {
    let env = build_env(spec);
    let config = config_for(&env, strategy);
    let outcome = Placer::new(&env, config.clone())
        .place(circuit)
        .unwrap_or_else(|e| panic!("{spec}/{} must place: {e}", strategy.name()));
    (env, config, outcome)
}

#[test]
fn every_strategy_output_certifies_across_corpus_and_zoo() {
    for (stem, circuit) in corpus() {
        for spec in TOPOLOGIES {
            for strategy in Strategy::ALL {
                let (env, config, outcome) = place_case(&circuit, spec, strategy);
                let options = VerifyOptions::from_config(&config);
                let cert = certify(&circuit, &env, &options, &outcome).unwrap_or_else(|v| {
                    panic!(
                        "{stem}@{spec} ({}) fails certification: {v:?}",
                        strategy.name()
                    )
                });
                assert_eq!(cert.gates, circuit.gate_count());
                assert!(cert.stages >= 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qubit_swap_mutation_is_rejected(seed in any::<u64>()) {
        // Exchanging two qubits' nuclei in one stage breaks edge
        // coverage, routing consistency, or the recomputed cost — the
        // checker must notice through at least one lens.
        let cases = corpus();
        let two_qubit: Vec<&(String, Circuit)> = cases
            .iter()
            .filter(|(_, c)| c.qubit_count() >= 2 && c.two_qubit_gate_count() > 0)
            .collect();
        let (stem, circuit) = two_qubit[(seed as usize) % two_qubit.len()];
        let spec = TOPOLOGIES[(seed as usize / 7) % TOPOLOGIES.len()];
        let (env, config, mut outcome) = place_case(circuit, spec, Strategy::Hybrid);
        let si = (seed as usize / 31) % outcome.stages.len();
        let n = circuit.qubit_count();
        let qa = qcp_circuit::Qubit::new((seed as usize / 3) % n);
        let qb = qcp_circuit::Qubit::new(((seed as usize / 3) + 1) % n);
        let vb = outcome.stages[si].placement.physical(qb);
        outcome.stages[si].placement = outcome.stages[si].placement.with_move(qa, vb);
        let options = VerifyOptions::from_config(&config);
        let violations = certify(circuit, &env, &options, &outcome)
            .err()
            .unwrap_or_else(|| panic!("{stem}@{spec} stage {si}: swapped q{} and q{} must not certify",
                qa.index(), qb.index()));
        prop_assert!(!violations.is_empty());
    }

    #[test]
    fn cost_perturbation_is_rejected(seed in any::<u64>(), bump in 1.0f64..50.0) {
        let cases = corpus();
        let (stem, circuit) = &cases[(seed as usize) % cases.len()];
        let spec = TOPOLOGIES[(seed as usize / 7) % TOPOLOGIES.len()];
        let (env, config, mut outcome) = place_case(circuit, spec, Strategy::Hybrid);
        outcome.runtime = Time::from_units(outcome.runtime.units() + bump);
        let options = VerifyOptions::from_config(&config);
        let violations = certify(circuit, &env, &options, &outcome)
            .err()
            .unwrap_or_else(|| panic!("{stem}@{spec}: perturbed runtime must not certify"));
        prop_assert!(violations.iter().any(|v| v.code() == "cost-mismatch"));
    }

    #[test]
    fn duplicated_schedule_gate_is_rejected(seed in any::<u64>()) {
        // Appending a copy of a schedule gate desynchronizes the flat
        // schedule from the stages (and the recomputed cost).
        let cases = corpus();
        let with_gates: Vec<&(String, Circuit)> = cases
            .iter()
            .filter(|(_, c)| c.gate_count() > 0)
            .collect();
        let (stem, circuit) = with_gates[(seed as usize) % with_gates.len()];
        let spec = TOPOLOGIES[(seed as usize / 7) % TOPOLOGIES.len()];
        let (env, config, mut outcome) = place_case(circuit, spec, Strategy::Hybrid);
        let dup: PlacedGate = outcome.schedule.levels()[0][0];
        outcome.schedule.push_level(vec![dup]);
        let options = VerifyOptions::from_config(&config);
        let violations = certify(circuit, &env, &options, &outcome)
            .err()
            .unwrap_or_else(|| panic!("{stem}@{spec}: duplicated schedule gate must not certify"));
        prop_assert!(!violations.is_empty());
    }
}

/// Places `circuit` on `spec` cold through a fresh cache, then executes
/// its relabelling through `perm` against that cache with the certifier
/// passed: the repeat must be a cache hit whose remapped outcome
/// certifies against the relabelled circuit.
fn remapped_hit_certifies(name: &str, circuit: &Circuit, spec: &str, perm: &[usize]) {
    use qcp_place::{execute_with, CacheDisposition, PlaceRequest, PlacementCache};
    use qcp_verify::PlacementCertifier;

    let env = build_env(spec);
    let config = config_for(&env, Strategy::Exact);
    let cache = PlacementCache::new(4);
    let cold = execute_with(
        &PlaceRequest::new(circuit, &env).config(config.clone()),
        Some(&cache),
        Some(&PlacementCertifier),
    )
    .unwrap_or_else(|e| panic!("{name}@{spec} cold: {e}"));
    assert_eq!(cold.cache, CacheDisposition::Miss, "{name}@{spec}");
    assert!(cold.certificate.is_some(), "{name}@{spec}");

    // The executor certifies the remapped outcome before returning it.
    let n = circuit.qubit_count();
    let relabelled = circuit.map_qubits(n, |q| qcp_circuit::Qubit::new(perm[q.index()]));
    let warm = execute_with(
        &PlaceRequest::new(&relabelled, &env).config(config),
        Some(&cache),
        Some(&PlacementCertifier),
    )
    .unwrap_or_else(|e| panic!("{name}@{spec} warm: {e}"));
    assert!(
        matches!(warm.cache, CacheDisposition::Hit { .. }),
        "{name}@{spec}: {:?}",
        warm.cache
    );
    let summary = warm.certificate.expect("warm certificate");
    assert!(summary.starts_with("certified:"), "{summary}");
    assert_eq!(warm.outcome.runtime, cold.outcome.runtime, "{name}@{spec}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Cache hits are as trustworthy as cold placements: a relabelled
    // corpus circuit served from the cache via a witness remap must
    // certify from first principles against the *relabelled* circuit.
    #[test]
    fn remapped_cache_hits_certify_across_corpus(seed in any::<u64>()) {
        let cases = corpus();
        let (stem, circuit) = &cases[(seed as usize) % cases.len()];
        let spec = TOPOLOGIES[(seed as usize / 7) % TOPOLOGIES.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let perm = qcp_graph::generate::random_permutation(circuit.qubit_count(), &mut rng);
        remapped_hit_certifies(stem, circuit, spec, &perm);
    }
}

/// Disjoint rings of `zz` couplings with the given lengths: every qubit
/// has degree 2, so Weisfeiler–Leman refinement cannot tell any two
/// qubits apart.
fn ring_union(lengths: &[usize]) -> Circuit {
    let mut b = Circuit::builder(lengths.iter().sum());
    let mut base = 0;
    for &len in lengths {
        for i in 0..len {
            b.gate(qcp_circuit::Gate::zz(
                qcp_circuit::Qubit::new(base + i),
                qcp_circuit::Qubit::new(base + (i + 1) % len),
                90.0,
            ));
        }
        base += len;
    }
    b.build()
}

#[test]
fn remapped_ring_union_hits_certify() {
    for lengths in [[4, 4, 4], [3, 4, 5]] {
        let circuit = ring_union(&lengths);
        let n = circuit.qubit_count();
        let name = format!("rings{lengths:?}");
        let reversed: Vec<usize> = (0..n).rev().collect();
        let rotated: Vec<usize> = (0..n).map(|i| (i + 5) % n).collect();
        for spec in TOPOLOGIES {
            for perm in [&reversed, &rotated] {
                remapped_hit_certifies(&name, &circuit, spec, perm);
            }
        }
    }
}
