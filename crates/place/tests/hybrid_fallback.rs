#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Hybrid under a node cap answers one of two ways, and nothing else:
//!
//! * when the exact pipeline fits the cap, with exactly its answer;
//! * when it does not, with the greedy seed, unpolished. Exhaustion is
//!   sticky, so the annealer that the fallback calls makes no move: the
//!   answer is `GreedyAnneal`'s under a zero-node budget, resolved
//!   `BudgetExhausted`.
//!
//! `Hybrid` skips the exact attempt when its plan shows the attempt
//! would exhaust the cap, so this is the property that keeps the skip
//! honest. It is swept over the QASM corpus × grid/ring/heavy-hex
//! (connected routing graphs), caps from 64 to 40,000 nodes, lookahead
//! on and off, and 0 or 2 fine-tuning rounds.

use proptest::prelude::*;

use qcp_circuit::{qasm, Circuit};
use qcp_env::topologies::{self, Delays};
use qcp_env::Environment;
use qcp_place::{
    PlaceError, PlacementOutcome, Placer, PlacerConfig, Resolution, SearchBudget, Strategy,
};

const CORPUS: [&str; 10] = [
    "adder4",
    "bell",
    "ghz8",
    "hwe4",
    "ising6",
    "qec3",
    "qft4",
    "random_cnot12",
    "teleport3",
    "ugates4",
];

fn load(stem: &str) -> Circuit {
    let path = format!(
        "{}/../../tests/qasm/{stem}.qasm",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    qasm::parse(&text).expect("corpus parses").circuit
}

fn environments() -> [Environment; 3] {
    [
        topologies::grid(4, 4, Delays::default()),
        topologies::ring(16, Delays::default()),
        topologies::heavy_hex(3, Delays::default()),
    ]
}

/// The full outcome text: runtime bits, resolution, and every stage's
/// placement, swap levels and gate count.
fn fingerprint(outcome: &PlacementOutcome) -> String {
    let mut s = format!(
        "runtime={:016x} resolution={:?} stages={}",
        outcome.runtime.units().to_bits(),
        outcome.resolution,
        outcome.stages.len(),
    );
    for stage in &outcome.stages {
        let placed: Vec<usize> = stage
            .placement
            .as_slice()
            .iter()
            .map(|p| p.index())
            .collect();
        s.push_str(&format!(
            " | placement={placed:?} swaps={:?} gates={}",
            stage.swaps.levels(),
            stage.subcircuit.gate_count(),
        ));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hybrid_answers_as_exact_or_as_the_unpolished_seed(
        file in 0usize..CORPUS.len(),
        env_index in 0usize..3,
        // Log-uniform over 64..40,000, so tight and loose caps both come up.
        scale in 0.0f64..1.0,
        lookahead in any::<bool>(),
        rounds in prop_oneof![Just(0usize), Just(2usize)],
    ) {
        let nodes = (64.0 * (40_000.0f64 / 64.0).powf(scale)) as u64;
        let stem = CORPUS[file];
        let circuit = load(stem);
        let env = &environments()[env_index];
        let config = |strategy: Strategy, nodes: u64| {
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
                .lookahead(lookahead)
                .fine_tuning(rounds)
                .strategy(strategy)
                .budget(SearchBudget::nodes(nodes))
        };
        let place = |strategy: Strategy, nodes: u64| {
            Placer::new(env, config(strategy, nodes)).place(&circuit)
        };
        let case = format!(
            "{stem}@{} nodes({nodes}) lookahead={lookahead} rounds={rounds}",
            env.name()
        );
        let hybrid = place(Strategy::Hybrid, nodes).expect("hybrid always answers");
        match place(Strategy::Exact, nodes) {
            Ok(exact) => {
                prop_assert_eq!(fingerprint(&hybrid), fingerprint(&exact), "{}", case);
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, PlaceError::BudgetExhausted { .. }),
                    "{}: exact failed with {:?}",
                    case,
                    e
                );
                let mut seed = place(Strategy::Anneal, 0).expect("the annealer always answers");
                seed.resolution = Resolution::BudgetExhausted;
                prop_assert_eq!(fingerprint(&hybrid), fingerprint(&seed), "{}", case);
            }
        }
    }
}
