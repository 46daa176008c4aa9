#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Router-schedule golden: the §5.2 SWAP router's output over a fixed
//! family of graphs × seeded permutations × wildcard densities × the
//! leaf–target override must keep its committed fingerprints.
//!
//! Each graph's fingerprint is a hash of every schedule's levels (or the
//! error's `Debug` form) in call order, so a changed bisection, a
//! different funnel step or a reordered swap within a level shows up
//! here, on the graph that moved.
//!
//! To regenerate after an intentional change:
//!
//! ```console
//! $ QCP_GOLDEN_PRINT=1 cargo test -p qcp_place --test router_accounting -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below (review the diff — a
//! schedule you did not mean to change is a regression, not a refresh).
//!
//! A property test checks the other half of the router's contract: one
//! [`Router`] reused across many routes (its bisection memo and buffers
//! carried from call to call) answers every call exactly as a fresh
//! [`route_permutation`] does.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qcp_env::molecules;
use qcp_graph::{generate, Graph};
use qcp_place::router::{route_permutation, Router, RouterConfig};
use qcp_place::PlaceError;

/// Permutations routed per graph (and per router configuration).
const PERMUTATIONS: usize = 40;

/// Wildcard densities, cycled over a graph's permutations.
const DENSITIES: [f64; 3] = [0.0, 0.3, 0.7];

/// `(graph name, failed calls, fingerprint of its schedules)`; every
/// graph is routed `2 * PERMUTATIONS` times.
const GOLDEN: [(&str, usize, u64); 40] = [
    ("chain2", 0, 0xb55fbdda2e81bacd),
    ("chain3", 0, 0x4825b709d2575555),
    ("chain5", 0, 0xa82e8b4fc829fd8d),
    ("chain8", 0, 0x25ff822ccd3ac5c5),
    ("chain13", 0, 0x3fa85b3be97bf127),
    ("chain32", 0, 0x8486f0555d21a75c),
    ("ring3", 0, 0xdfaff3fdd1f22a35),
    ("ring4", 0, 0x9b8c54e30cd2bc9d),
    ("ring7", 0, 0xb656e3ac118cc04d),
    ("ring12", 0, 0x26e8dfe72695c0d1),
    ("ring20", 0, 0x990ba4190f70e837),
    ("star2", 0, 0x61f6c8ebf6796cad),
    ("star5", 0, 0xbbbf4572b0fbe3ce),
    ("star9", 0, 0x0cea5c30108148c9),
    ("grid2x2", 0, 0xe006473294e4c4e1),
    ("grid3x3", 0, 0x3c3ae702c1f14f5d),
    ("grid4x4", 0, 0xf2147b0afaf52a01),
    ("grid5x5", 0, 0x69e393afcb2cd9b5),
    ("grid6x6", 0, 0x6d02980b8fd7d397),
    ("grid7x7", 0, 0x5e6605194e90cd5f),
    ("grid8x8", 0, 0xd841520516dac312),
    ("grid2x5", 0, 0x73762b05f7d6d2d1),
    ("grid3x7", 0, 0x1b28dfb8d4d4622f),
    ("heavy_hex3", 0, 0xc491d1e361413e3c),
    ("heavy_hex5", 0, 0x017158d3311131ec),
    ("caterpillar5x2", 0, 0x47be793a99acffee),
    ("tree6-s1", 0, 0x309366ebcd88d14d),
    ("tree11-s2", 0, 0x05ab6c1e57772098),
    ("tree17-s3", 0, 0xbecb4fce4482d89a),
    ("tree30-s4", 0, 0xbac55f1be5501b3a),
    ("connected5+2-s5", 0, 0x2951ccbf64a95465),
    ("connected10+5-s6", 0, 0xc4420892d6606362),
    ("connected18+9-s7", 0, 0x038435d2b0932933),
    ("connected40+20-s8", 0, 0x4cf498e928431a26),
    ("acetyl-chloride-bonds", 0, 0x6c670b90f2d54959),
    ("boc-glycine-fluoride-bonds", 0, 0xbeca249750e083d5),
    ("pentafluoro-iron-bonds", 0, 0x36c451b6b11eaf79),
    ("trans-crotonic-acid-bonds", 0, 0xac6ea8f4ab4036a2),
    ("histidine-bonds", 0, 0x897a2445aa763c00),
    ("disconnected10", 78, 0x71bb1f3d14cf7f35),
];

/// The graph family: chains, rings and stars at several sizes, grids,
/// heavy-hex lattices, a caterpillar, seeded random trees and connected
/// graphs, the library molecules' bond graphs, and one disconnected graph
/// (with an isolated vertex) whose cross-component targets must fail.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for n in [2, 3, 5, 8, 13, 32] {
        out.push((format!("chain{n}"), generate::chain(n)));
    }
    for n in [3, 4, 7, 12, 20] {
        out.push((format!("ring{n}"), generate::ring(n)));
    }
    for n in [2, 5, 9] {
        out.push((format!("star{n}"), generate::star(n)));
    }
    for s in 2..=8 {
        out.push((format!("grid{s}x{s}"), generate::grid(s, s)));
    }
    for (r, c) in [(2, 5), (3, 7)] {
        out.push((format!("grid{r}x{c}"), generate::grid(r, c)));
    }
    for d in [3, 5] {
        out.push((format!("heavy_hex{d}"), generate::heavy_hex(d)));
    }
    out.push(("caterpillar5x2".into(), generate::caterpillar(5, 2)));
    for (seed, n) in [(1u64, 6), (2, 11), (3, 17), (4, 30)] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push((
            format!("tree{n}-s{seed}"),
            generate::random_tree(n, &mut rng),
        ));
    }
    for (seed, n, extra) in [(5u64, 5, 2), (6, 10, 5), (7, 18, 9), (8, 40, 20)] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push((
            format!("connected{n}+{extra}-s{seed}"),
            generate::random_connected(n, extra, &mut rng),
        ));
    }
    for name in molecules::NAMES {
        let env = molecules::named(name).expect("library molecule");
        out.push((format!("{name}-bonds"), env.bond_graph()));
    }
    out.push((
        "disconnected10".into(),
        Graph::from_edges(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)]).unwrap(),
    ));
    out
}

/// The seeded target vectors for graph number `gi`: random permutations
/// with a cycled share of their values turned into wildcards.
fn targets(gi: usize, n: usize) -> Vec<Vec<Option<usize>>> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + gi as u64);
    (0..PERMUTATIONS)
        .map(|i| {
            let density = DENSITIES[i % DENSITIES.len()];
            generate::random_permutation(n, &mut rng)
                .into_iter()
                .map(|d| (!rng.gen_bool(density)).then_some(d))
                .collect()
        })
        .collect()
}

/// The full text of one routing result: every level of the schedule, or
/// the error's `Debug` form (which names the stuck vertex).
fn render(result: &Result<qcp_place::SwapSchedule, PlaceError>) -> String {
    match result {
        Ok(s) => format!("ok {:?}", s.levels()),
        Err(e) => format!("err {e:?}"),
    }
}

/// 64-bit FNV-1a: a fixed, platform-independent hash for the table.
fn fnv1a(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn router_schedules_match_the_golden() {
    let print = std::env::var_os("QCP_GOLDEN_PRINT").is_some();
    let family = graphs();
    if !print {
        let names: Vec<&str> = family.iter().map(|(name, _)| name.as_str()).collect();
        let in_table: Vec<&str> = GOLDEN.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(names, in_table, "graph family and GOLDEN disagree");
    }
    let mut failures = Vec::new();
    for (gi, (name, graph)) in family.iter().enumerate() {
        let (mut errors, mut h) = (0usize, FNV_OFFSET);
        for t in targets(gi, graph.node_count()) {
            for leaf_override in [true, false] {
                let result = route_permutation(graph, &t, &RouterConfig { leaf_override });
                errors += usize::from(result.is_err());
                h = fnv1a(h, &render(&result));
                h = fnv1a(h, "\n");
            }
        }
        if print {
            println!("    (\"{name}\", {errors}, {h:#018x}),");
        } else if (errors, h) != (GOLDEN[gi].1, GOLDEN[gi].2) {
            failures.push(format!(
                "{name}: expected {} errors and {:#018x}, got {errors} and {h:#018x}",
                GOLDEN[gi].1, GOLDEN[gi].2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "router schedules drifted (QCP_GOLDEN_PRINT=1 regenerates):\n{}",
        failures.join("\n")
    );
}

/// A random target vector over `n` vertices: a permutation with a random
/// share of wildcards, now and then malformed (a repeated destination or
/// the wrong length) so the validation errors interleave with routes.
fn random_targets(n: usize, rng: &mut StdRng) -> Vec<Option<usize>> {
    let density = rng.gen_range(0.0..1.0);
    let mut t: Vec<Option<usize>> = generate::random_permutation(n, rng)
        .into_iter()
        .map(|d| (!rng.gen_bool(density)).then_some(d))
        .collect();
    match rng.gen_range(0..16) {
        0 if n >= 2 => {
            t[0] = Some(0);
            t[1] = Some(0);
        }
        1 => t.push(None),
        _ => {}
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A router reused across 1–30 routes on one graph (a random tree, a
    /// random connected graph, a sparse and often disconnected G(n, p),
    /// or a grid) returns, call by call, what a fresh
    /// `route_permutation` returns: the same schedule or the same error.
    #[test]
    fn a_reused_router_matches_fresh_routes(
        seed in any::<u64>(),
        n in 1usize..40,
        shape in 0usize..4,
        calls in 1usize..31,
        leaf_override in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match shape {
            0 => generate::random_tree(n, &mut rng),
            1 => generate::random_connected(n, n / 2, &mut rng),
            2 => generate::gnp(n, 2.5 / n as f64, &mut rng),
            _ => generate::grid(n.div_ceil(6), 6.min(n)),
        };
        let config = RouterConfig { leaf_override };
        let mut router = Router::new(&graph, config);
        for call in 0..calls {
            let targets = random_targets(graph.node_count(), &mut rng);
            let fresh = route_permutation(&graph, &targets, &config);
            prop_assert_eq!(
                render(&router.route(&targets)),
                render(&fresh),
                "call {} of {} on {:?}",
                call,
                calls,
                graph
            );
        }
    }
}
