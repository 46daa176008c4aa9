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
//!
//! A second table, `EXTRACTION_GOLDEN`, pins §5.1 workspace extraction
//! itself over the corpus × line/grid/heavy-hex, in the paper's mode and
//! the §7 commutation-aware mode, with and without a gate cap: a hash of
//! the split (every workspace's gates and interaction edges) and, in the
//! paper's mode, the VF2 nodes the embeddability checks charge. The same
//! `QCP_GOLDEN_PRINT` run prints it.

use proptest::prelude::*;

use qcp_circuit::{qasm, Circuit};
use qcp_env::topologies::{self, Delays};
use qcp_env::Environment;
use qcp_graph::vf2::Budget;
use qcp_place::workspace::{extract_workspaces_budgeted, ExtractionOptions};
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

/// The gate caps swept by the extraction table: the paper's greedy-maximal
/// workspaces, and workspaces closed after three gates.
const MAX_GATES: [Option<usize>; 2] = [None, Some(3)];

/// `(file stem, device, max_gates, paper split, paper VF2 nodes, §7 split)`
/// under an unlimited meter. The §7 mode's node count is not pinned: it
/// may only fall.
type ExtractionPin = (&'static str, &'static str, Option<usize>, u64, u64, u64);

#[rustfmt::skip]
const EXTRACTION_GOLDEN: [ExtractionPin; 60] = [
    ("adder4", "line-16", None, 0x36b9392e04e3ca3f, 235, 0x0692046b19705ec3),
    ("adder4", "line-16", Some(3), 0xc5f5931cb8a8b156, 105, 0xc5f5931cb8a8b156),
    ("adder4", "grid-4x4", None, 0xdf6deb11f2eecfd0, 342, 0xec68a1f727079326),
    ("adder4", "grid-4x4", Some(3), 0xc5f5931cb8a8b156, 105, 0xc5f5931cb8a8b156),
    ("adder4", "heavy-hex-3", None, 0x4fc23d754f0fb6ca, 280, 0x0bf08f7ea7f3883a),
    ("adder4", "heavy-hex-3", Some(3), 0xc5f5931cb8a8b156, 105, 0xc5f5931cb8a8b156),
    ("bell", "line-16", None, 0x1da24e211f6efa14, 3, 0x1da24e211f6efa14),
    ("bell", "line-16", Some(3), 0x9c9b50e14d6f88a2, 3, 0x9c9b50e14d6f88a2),
    ("bell", "grid-4x4", None, 0x1da24e211f6efa14, 3, 0x1da24e211f6efa14),
    ("bell", "grid-4x4", Some(3), 0x9c9b50e14d6f88a2, 3, 0x9c9b50e14d6f88a2),
    ("bell", "heavy-hex-3", None, 0x1da24e211f6efa14, 3, 0x1da24e211f6efa14),
    ("bell", "heavy-hex-3", Some(3), 0x9c9b50e14d6f88a2, 3, 0x9c9b50e14d6f88a2),
    ("ghz8", "line-16", None, 0x745f7dd439fea1a4, 42, 0x745f7dd439fea1a4),
    ("ghz8", "line-16", Some(3), 0x548b7c2fc6ae8742, 21, 0x548b7c2fc6ae8742),
    ("ghz8", "grid-4x4", None, 0x745f7dd439fea1a4, 42, 0x745f7dd439fea1a4),
    ("ghz8", "grid-4x4", Some(3), 0x548b7c2fc6ae8742, 21, 0x548b7c2fc6ae8742),
    ("ghz8", "heavy-hex-3", None, 0x745f7dd439fea1a4, 42, 0x745f7dd439fea1a4),
    ("ghz8", "heavy-hex-3", Some(3), 0x548b7c2fc6ae8742, 21, 0x548b7c2fc6ae8742),
    ("hwe4", "line-16", None, 0xf97818c45df516be, 80, 0x431ed6dd3bbce1aa),
    ("hwe4", "line-16", Some(3), 0x8744cf487a9601a9, 12, 0x8744cf487a9601a9),
    ("hwe4", "grid-4x4", None, 0x0bbc8406c658c77d, 18, 0x0bbc8406c658c77d),
    ("hwe4", "grid-4x4", Some(3), 0x8744cf487a9601a9, 12, 0x8744cf487a9601a9),
    ("hwe4", "heavy-hex-3", None, 0xf97818c45df516be, 100, 0x431ed6dd3bbce1aa),
    ("hwe4", "heavy-hex-3", Some(3), 0x8744cf487a9601a9, 12, 0x8744cf487a9601a9),
    ("ising6", "line-16", None, 0x370686fe61c4bef7, 139, 0x872f91777a976ad3),
    ("ising6", "line-16", Some(3), 0x78a0c8898ff34e64, 25, 0x78a0c8898ff34e64),
    ("ising6", "grid-4x4", None, 0x84e7439715f34900, 46, 0x84e7439715f34900),
    ("ising6", "grid-4x4", Some(3), 0x78a0c8898ff34e64, 25, 0x78a0c8898ff34e64),
    ("ising6", "heavy-hex-3", None, 0x370686fe61c4bef7, 193, 0x872f91777a976ad3),
    ("ising6", "heavy-hex-3", Some(3), 0x78a0c8898ff34e64, 25, 0x78a0c8898ff34e64),
    ("qec3", "line-16", None, 0xfac4fa3c6317daf4, 51, 0x7c5275841480b2d8),
    ("qec3", "line-16", Some(3), 0x5f33aaaa5bd91ec0, 30, 0x5f33aaaa5bd91ec0),
    ("qec3", "grid-4x4", None, 0xfac4fa3c6317daf4, 75, 0x7c5275841480b2d8),
    ("qec3", "grid-4x4", Some(3), 0x5f33aaaa5bd91ec0, 30, 0x5f33aaaa5bd91ec0),
    ("qec3", "heavy-hex-3", None, 0xfac4fa3c6317daf4, 59, 0x7c5275841480b2d8),
    ("qec3", "heavy-hex-3", Some(3), 0x5f33aaaa5bd91ec0, 30, 0x5f33aaaa5bd91ec0),
    ("qft4", "line-16", None, 0x8cf75105142fcbc4, 34, 0xb5d92c24ee806979),
    ("qft4", "line-16", Some(3), 0x406591dfd6f6d70f, 26, 0x406591dfd6f6d70f),
    ("qft4", "grid-4x4", None, 0xe1943c1fb49b17b8, 149, 0x7c1d6a469d66306c),
    ("qft4", "grid-4x4", Some(3), 0x406591dfd6f6d70f, 26, 0x406591dfd6f6d70f),
    ("qft4", "heavy-hex-3", None, 0xe1943c1fb49b17b8, 89, 0x7c1d6a469d66306c),
    ("qft4", "heavy-hex-3", Some(3), 0x406591dfd6f6d70f, 26, 0x406591dfd6f6d70f),
    ("random_cnot12", "line-16", None, 0x7603e50fb5fe376c, 231, 0xb1922f0d15a25364),
    ("random_cnot12", "line-16", Some(3), 0x5cd3b9eea09981df, 96, 0x5cd3b9eea09981df),
    ("random_cnot12", "grid-4x4", None, 0x1b3455238165d8bc, 8976, 0x6246ff5f162d5df1),
    ("random_cnot12", "grid-4x4", Some(3), 0x5cd3b9eea09981df, 96, 0x5cd3b9eea09981df),
    ("random_cnot12", "heavy-hex-3", None, 0x1b3455238165d8bc, 287, 0x7cff2be8ea5fb728),
    ("random_cnot12", "heavy-hex-3", Some(3), 0x5cd3b9eea09981df, 96, 0x5cd3b9eea09981df),
    ("teleport3", "line-16", None, 0xf57a1894c5372740, 7, 0xf57a1894c5372740),
    ("teleport3", "line-16", Some(3), 0x21ac6aa8ffb4d983, 6, 0x21ac6aa8ffb4d983),
    ("teleport3", "grid-4x4", None, 0xf57a1894c5372740, 7, 0xf57a1894c5372740),
    ("teleport3", "grid-4x4", Some(3), 0x21ac6aa8ffb4d983, 6, 0x21ac6aa8ffb4d983),
    ("teleport3", "heavy-hex-3", None, 0xf57a1894c5372740, 7, 0xf57a1894c5372740),
    ("teleport3", "heavy-hex-3", Some(3), 0x21ac6aa8ffb4d983, 6, 0x21ac6aa8ffb4d983),
    ("ugates4", "line-16", None, 0x0a12b96facf28a20, 111, 0x256eeae3c3dad754),
    ("ugates4", "line-16", Some(3), 0x4def01eff70105bb, 60, 0x4def01eff70105bb),
    ("ugates4", "grid-4x4", None, 0x0732e59fbca4e56a, 205, 0x88b0cba14046296e),
    ("ugates4", "grid-4x4", Some(3), 0x4def01eff70105bb, 60, 0x4def01eff70105bb),
    ("ugates4", "heavy-hex-3", None, 0x0a12b96facf28a20, 147, 0x256eeae3c3dad754),
    ("ugates4", "heavy-hex-3", Some(3), 0x4def01eff70105bb, 60, 0x4def01eff70105bb),
];

fn extraction_environments() -> [Environment; 3] {
    [
        topologies::line(16, Delays::default()),
        topologies::grid(4, 4, Delays::default()),
        topologies::heavy_hex(3, Delays::default()),
    ]
}

/// Extracts under an unlimited meter; returns the split's fingerprint
/// text and the VF2 nodes charged.
fn split(
    circuit: &Circuit,
    env: &Environment,
    commutation_aware: bool,
    max_gates: Option<usize>,
) -> (String, u64) {
    let fast = env.fast_graph(env.connectivity_threshold().expect("connected"));
    let mut meter = Budget::unlimited();
    let options = ExtractionOptions {
        commutation_aware,
        max_gates,
    };
    let text = match extract_workspaces_budgeted(circuit, &fast, options, &mut meter) {
        Ok(workspaces) => workspaces
            .iter()
            .map(|w| {
                let gates: Vec<String> = w.circuit.gates().map(ToString::to_string).collect();
                let edges: Vec<(usize, usize)> = w
                    .interaction
                    .edges()
                    .map(|(a, b, _)| (a.index(), b.index()))
                    .collect();
                format!("{} | {edges:?}\n", gates.join("; "))
            })
            .collect(),
        Err(e) => format!("err {e:?}"),
    };
    (text, meter.nodes_visited())
}

#[test]
fn workspace_extraction_matches_the_golden() {
    let print = std::env::var_os("QCP_GOLDEN_PRINT").is_some();
    let envs = extraction_environments();
    let mut cases = Vec::new();
    for (stem, _) in &GOLDEN {
        for env in &envs {
            for max_gates in MAX_GATES {
                cases.push((*stem, env, max_gates));
            }
        }
    }
    if !print {
        let in_table: Vec<(&str, &str, Option<usize>)> = EXTRACTION_GOLDEN
            .iter()
            .map(|&(stem, device, max_gates, ..)| (stem, device, max_gates))
            .collect();
        let swept: Vec<(&str, &str, Option<usize>)> = cases
            .iter()
            .map(|&(stem, env, max_gates)| (stem, env.name(), max_gates))
            .collect();
        assert_eq!(
            swept, in_table,
            "extraction cases and EXTRACTION_GOLDEN disagree"
        );
    }

    let mut failures = Vec::new();
    for (i, &(stem, env, max_gates)) in cases.iter().enumerate() {
        let circuit = load(stem);
        let (paper, nodes) = split(&circuit, env, false, max_gates);
        let (commuted, _) = split(&circuit, env, true, max_gates);
        let got = (fnv1a(&paper), nodes, fnv1a(&commuted));
        if print {
            println!(
                "    ({stem:?}, {:?}, {max_gates:?}, {:#018x}, {}, {:#018x}),",
                env.name(),
                got.0,
                got.1,
                got.2
            );
            continue;
        }
        let (.., paper_hash, paper_nodes, commuted_hash) = EXTRACTION_GOLDEN[i];
        if got != (paper_hash, paper_nodes, commuted_hash) {
            failures.push(format!(
                "{stem}@{} max_gates({max_gates:?}): expected ({paper_hash:#018x}, {paper_nodes}, \
                 {commuted_hash:#018x}), got ({:#018x}, {}, {:#018x})\npaper:\n{paper}§7:\n{commuted}",
                env.name(),
                got.0,
                got.1,
                got.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "workspace extraction drifted (QCP_GOLDEN_PRINT=1 regenerates):\n{}",
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
