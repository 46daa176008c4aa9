#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Search-accounting golden: exact search over the QASM corpus ×
//! grid/ring/heavy-hex, with and without a tight node budget, must keep
//! its committed fingerprints — same candidates winning, same swap
//! schedules, and the same metered node at which the budget trips.
//!
//! The fingerprint is a hash of the full outcome text (runtime bits,
//! every stage placement, every swap level) or of the error's `Debug`
//! form, which carries the exhaustion node count. A refactor of the VF2
//! kernel or of the placer's budget metering that moves a single charged
//! node shows up here.
//!
//! To regenerate after an intentional change:
//!
//! ```console
//! $ QCP_GOLDEN_PRINT=1 cargo test -p qcp_place --test search_accounting -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below (review the diff — a
//! changed node count you did not expect is a regression, not a refresh).
//!
//! Between the golden's two fixed caps, a property test sweeps random
//! caps over the same corpus × devices and checks that exhaustion is a
//! threshold in the cap.

use proptest::prelude::*;

use qcp_circuit::{qasm, Circuit};
use qcp_env::topologies::{self, Delays};
use qcp_env::Environment;
use qcp_place::{PlaceError, PlacementOutcome, Placer, PlacerConfig, SearchBudget, Strategy};

/// The node caps swept per case: the large cap lets every small circuit
/// run to completion while bounding the adversarial corpus entries; the
/// tight cap forces mid-search exhaustion on everything.
const BUDGETS: [u64; 2] = [20_000, 2_000];

/// `(file stem, [[fingerprint per budget]; grid:4x4, ring:16, heavy_hex:3])`.
const GOLDEN: [(&str, [[u64; 2]; 3]); 10] = [
    (
        "adder4",
        [
            [0x71bc472657750b3e, 0xdbeee7a7b25eb959],
            [0x6ab148d75802b47c, 0xd4c8dee0b17fe303],
            [0xfd863ce1b09ea05c, 0xa084b9da4b8990a9],
        ],
    ),
    (
        "bell",
        [
            [0xd1de451c333c03ff, 0xd1de451c333c03ff],
            [0xd1de451c333c03ff, 0xd1de451c333c03ff],
            [0xd1de451c333c03ff, 0xd1de451c333c03ff],
        ],
    ),
    (
        "ghz8",
        [
            [0xefc3798c92441b3f, 0xefc3798c92441b3f],
            [0x1c561690861e5d44, 0x1c561690861e5d44],
            [0xb9828a6e3fc07fb3, 0xb9828a6e3fc07fb3],
        ],
    ),
    (
        "hwe4",
        [
            [0xf5702ecdb5230e00, 0xf5702ecdb5230e00],
            [0x413ee96580dd1d7a, 0x413ee96580dd1d7a],
            [0xd67019b661aa8739, 0xd67019b661aa8739],
        ],
    ),
    (
        "ising6",
        [
            [0xd29c7e18cafa2677, 0xd29c7e18cafa2677],
            [0x7d87c443edf82010, 0x7d87c443edf82010],
            [0x047494c2d040ebea, 0x99751c08fc5f74fb],
        ],
    ),
    (
        "qec3",
        [
            [0x73893a7d9c52a992, 0x73893a7d9c52a992],
            [0x49d93b62fbb80437, 0x49d93b62fbb80437],
            [0x49d93b62fbb80437, 0x49d93b62fbb80437],
        ],
    ),
    (
        "qft4",
        [
            [0x690e62fb4a9b2de2, 0x24183a86cb193b34],
            [0x728f2f62ccb40ff4, 0x728f2f62ccb40ff4],
            [0xcb907818fa293c44, 0x356a9086d4e828aa],
        ],
    ),
    (
        "random_cnot12",
        [
            [0xe3e8b3145cb10740, 0x99751c08fc5f74fb],
            [0x9114cfeca829f8b5, 0x9b02cebf80a077af],
            [0xdabfd7112b4e0103, 0x7b010b8d44ad687a],
        ],
    ),
    (
        "teleport3",
        [
            [0xcd32c051f7d0765a, 0xcd32c051f7d0765a],
            [0xa9ba2a846fc29cf6, 0xa9ba2a846fc29cf6],
            [0xa9ba2a846fc29cf6, 0xa9ba2a846fc29cf6],
        ],
    ),
    (
        "ugates4",
        [
            [0xad76b54525e83f13, 0x9b02cebf80a077af],
            [0x967623a6c3aa8eed, 0x9b02cebf80a077af],
            [0xbe0bac72fac5bd2f, 0x99751c08fc5f74fb],
        ],
    ),
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

fn place(circuit: &Circuit, env: &Environment, nodes: u64) -> Result<PlacementOutcome, PlaceError> {
    let config = PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
        .strategy(Strategy::Exact)
        .budget(SearchBudget::nodes(nodes));
    Placer::new(env, config).place(circuit)
}

/// A complete textual fingerprint of an outcome (or error): a different
/// candidate winning, a different exhaustion point or a different swap
/// schedule all change it.
fn fingerprint(result: &Result<PlacementOutcome, PlaceError>) -> String {
    match result {
        Ok(o) => {
            let mut s = format!(
                "ok runtime={:016x} resolution={:?} stages={}",
                o.runtime.units().to_bits(),
                o.resolution,
                o.stages.len(),
            );
            for stage in &o.stages {
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
        // The Debug form pins the exhaustion node count: the search must
        // not merely fail the same way, it must fail at the same node.
        Err(e) => format!("err {e:?}"),
    }
}

/// 64-bit FNV-1a: a fixed, platform-independent hash for the table.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn exact_search_accounting_matches_the_golden() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qasm");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("qasm corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let print = std::env::var_os("QCP_GOLDEN_PRINT").is_some();
    if !print {
        let in_table: Vec<&str> = GOLDEN.iter().map(|(stem, _)| *stem).collect();
        assert_eq!(on_disk, in_table, "tests/qasm and GOLDEN disagree");
    }

    let envs = environments();
    let mut failures = Vec::new();
    for stem in &on_disk {
        let expected = GOLDEN
            .iter()
            .find(|(s, _)| s == stem)
            .map_or([[0; 2]; 3], |(_, f)| *f);
        let circuit = load(stem);
        let mut got = [[0u64; 2]; 3];
        for (ei, env) in envs.iter().enumerate() {
            for (bi, &nodes) in BUDGETS.iter().enumerate() {
                let text = fingerprint(&place(&circuit, env, nodes));
                got[ei][bi] = fnv1a(&text);
                if !print && got[ei][bi] != expected[ei][bi] {
                    failures.push(format!(
                        "{stem}@{} nodes({nodes}): expected {:#018x}, got {:#018x} from {text}",
                        env.name(),
                        expected[ei][bi],
                        got[ei][bi],
                    ));
                }
            }
        }
        if print {
            println!(
                "    (\"{stem}\", [[{:#018x}, {:#018x}], [{:#018x}, {:#018x}], [{:#018x}, {:#018x}]]),",
                got[0][0], got[0][1], got[1][0], got[1][1], got[2][0], got[2][1]
            );
        }
    }
    assert!(
        failures.is_empty(),
        "search accounting drifted (QCP_GOLDEN_PRINT=1 regenerates):\n{}",
        failures.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Budget exhaustion is a threshold in the node cap. A run that fits
    /// its cap never reads it, so a larger cap reproduces it exactly; a
    /// run that trips does so at or below its cap, and a larger cap trips
    /// no earlier (or not at all).
    #[test]
    fn budget_exhaustion_is_monotone_in_the_node_cap(
        file in 0usize..GOLDEN.len(),
        env_index in 0usize..3,
        nodes in 64u64..4_096,
    ) {
        let (stem, _) = GOLDEN[file];
        let circuit = load(stem);
        let env = &environments()[env_index];
        let case = format!("{stem}@{} nodes({nodes})", env.name());
        let tight = place(&circuit, env, nodes);
        let tight_fp = fingerprint(&tight);
        let loose = place(&circuit, env, 4 * nodes);
        let rerun = place(&circuit, env, nodes);
        prop_assert_eq!(&fingerprint(&rerun), &tight_fp, "{} rerun diverged", case);
        match (&tight, &loose) {
            (Err(PlaceError::BudgetExhausted { nodes: at }), later) => {
                prop_assert!(*at <= nodes, "{} tripped at {}", case, at);
                if let Err(PlaceError::BudgetExhausted { nodes: later }) = later {
                    prop_assert!(later >= at, "{}: 4x the cap tripped at {} < {}", case, later, at);
                }
            }
            _ => prop_assert_eq!(&fingerprint(&loose), &tight_fp, "{}: 4x the cap moved it", case),
        }
    }
}
