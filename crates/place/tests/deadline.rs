#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Deadline-fidelity tests: the service-level latency math in
//! DESIGN.md/GUIDE.md rests on one kernel invariant — a wall-clock
//! deadline `D` threaded into the search can be overshot by at most the
//! VF2 poll quantum ([`qcp_graph::vf2::DEADLINE_STRIDE`] search nodes,
//! i.e. well under a millisecond of work) plus coarse-checkpoint noise.
//! These tests pin that bound at three layers: the raw VF2 meter, whole
//! placements of library circuits, and every circuit in the QASM corpus.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use qcp_circuit::qasm;
use qcp_env::topologies::{Delays, TopologySpec};
use qcp_graph::generate;
use qcp_graph::vf2::{Budget, MonomorphismFinder, Outcome, DEADLINE_STRIDE};
use qcp_place::{PlaceError, Placer, PlacerConfig, SearchBudget, Strategy};

/// Generous scheduler-noise allowance on top of the deadline. The kernel
/// overshoot itself is bounded by one poll stride (~sub-millisecond); the
/// slack absorbs coarse checkpoints between searches and CI jitter.
/// aqft12@grid:16x16 runs for seconds of exact search unbudgeted (about
/// 3.8 s in a release build on a 2-core host), so the bound stays
/// meaningful with room to spare.
const SLACK: Duration = Duration::from_millis(750);

fn grid_8x8() -> qcp_env::Environment {
    "grid:8x8"
        .parse::<TopologySpec>()
        .expect("spec")
        .build(Delays::uniform(10.0))
}

#[test]
fn the_poll_quantum_is_the_documented_constant() {
    // GUIDE.md §9 and DESIGN.md state the 1024-node quantum explicitly;
    // changing the stride is a conscious SLO change, not a tweak.
    assert_eq!(DEADLINE_STRIDE, 1024);
}

#[test]
fn an_expired_deadline_never_starts_the_search() {
    let pattern = generate::chain(6);
    let target = generate::grid(8, 8);
    let finder = MonomorphismFinder::new(&pattern, &target);
    let mut budget = Budget::new(None, Some(Instant::now() - Duration::from_millis(1)));
    let run = finder.for_each_budgeted(&mut budget, &mut |_| ControlFlow::Continue(()));
    assert_eq!(budget.nodes_visited(), 0, "expired meter must not search");
    assert_eq!(run.nodes, 0);
    assert!(budget.is_exhausted());
}

#[test]
fn kernel_overshoot_is_bounded_by_one_poll_stride() {
    // A deadline that expires mid-flight: after the search stops, the
    // nodes visited past the last in-time poll can be at most one stride.
    // With a deadline this tight the first poll (at node 1024) is already
    // late, so the total must land exactly on the stride boundary — the
    // strongest version of the overshoot bound.
    let pattern = generate::chain(6);
    let target = generate::grid(8, 8);
    let finder = MonomorphismFinder::new(&pattern, &target);
    for micros in [50, 200, 800] {
        let mut budget = Budget::new(None, Some(Instant::now() + Duration::from_micros(micros)));
        std::thread::sleep(Duration::from_micros(micros.saturating_mul(2)));
        let run = finder.for_each_budgeted(&mut budget, &mut |_| ControlFlow::Continue(()));
        assert!(
            run.nodes <= DEADLINE_STRIDE,
            "deadline overshot by {} nodes (> one stride of {DEADLINE_STRIDE})",
            run.nodes
        );
    }
}

#[test]
fn collection_polls_the_deadline_on_the_meter_not_per_root() {
    // chain(6) into a 64×64 grid: about 410 nodes under each of the 4096
    // roots, 1.68M in all. A poll counted per root subtree never reaches
    // a stride here, so such a search runs to completion however tight
    // its deadline. Counted on the meter, it fires every stride.
    let pattern = generate::chain(6);
    let target = generate::grid(64, 64);
    let finder = MonomorphismFinder::new(&pattern, &target);
    let mut unlimited = Budget::unlimited();
    let full = finder.for_each_budgeted(&mut unlimited, &mut |_| ControlFlow::Continue(()));
    assert_eq!(full.outcome, Outcome::Complete);

    let mut budget = Budget::new(None, Some(Instant::now() + Duration::from_millis(1)));
    let (_, run) = finder.collect_budgeted(&mut budget, None);
    assert_eq!(run.outcome, Outcome::BudgetExhausted);
    assert!(
        run.nodes < full.nodes,
        "a 1 ms deadline let the search visit {} of {} nodes",
        run.nodes,
        full.nodes
    );
    assert!(
        run.nodes.is_multiple_of(DEADLINE_STRIDE),
        "the deadline trips on a poll, every {DEADLINE_STRIDE} metered nodes (got {})",
        run.nodes
    );
}

#[test]
fn exact_placement_respects_wall_clock_deadlines() {
    let env = "grid:16x16"
        .parse::<TopologySpec>()
        .expect("spec")
        .build(Delays::uniform(10.0));
    let circuit = qcp_circuit::library::named("aqft12").expect("library circuit");
    for deadline_ms in [5_u64, 25, 60] {
        let deadline = Duration::from_millis(deadline_ms);
        let config = PlacerConfig::with_threshold(env.connectivity_threshold().expect("threshold"))
            .strategy(Strategy::Exact)
            .budget(SearchBudget::unlimited().with_deadline(deadline));
        let placer = Placer::new(&env, config);
        let t0 = Instant::now();
        let result = placer.place(&circuit);
        let elapsed = t0.elapsed();
        assert!(
            elapsed <= deadline + SLACK,
            "deadline {deadline_ms} ms overshot: took {elapsed:?}"
        );
        // aqft12@grid:16x16 cannot finish exact search in tens of
        // milliseconds; the budget error is the expected shape.
        assert!(
            matches!(result, Err(PlaceError::BudgetExhausted { .. })),
            "expected budget exhaustion at {deadline_ms} ms, got {result:?}"
        );
    }
}

#[test]
fn hybrid_placement_answers_within_the_deadline_on_the_qasm_corpus() {
    let env = grid_8x8();
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qasm");
    let mut paths: Vec<_> = std::fs::read_dir(corpus)
        .expect("qasm corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "empty corpus at {corpus}");

    let deadline = Duration::from_millis(100);
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let parsed = qasm::parse(&text).expect("corpus parses");
        let config = PlacerConfig::with_threshold(env.connectivity_threshold().expect("threshold"))
            .strategy(Strategy::Hybrid)
            .budget(SearchBudget::unlimited().with_deadline(deadline));
        let placer = Placer::new(&env, config);
        let t0 = Instant::now();
        let outcome = placer.place(&parsed.circuit);
        let elapsed = t0.elapsed();
        assert!(
            elapsed <= deadline + SLACK,
            "{}: deadline overshot, took {elapsed:?}",
            path.display()
        );
        // Hybrid must *answer* under deadline pressure (degraded is
        // fine); only failing would break the service's 200-under-load
        // guarantee.
        let outcome = outcome
            .unwrap_or_else(|e| panic!("{}: hybrid failed under deadline: {e}", path.display()));
        let _ = outcome.resolution;
    }
}
