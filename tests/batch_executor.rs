#![allow(clippy::unwrap_used, clippy::expect_used)]
//! The one-executor contract for batch dedup: a deduped, multi-worker
//! `BatchPlacer::run` answers every request exactly as `execute_with`
//! does when the same requests go through it one by one, in request
//! order, over one shared `PlacementCache`.

use qcp::circuit::qasm;
use qcp::place::batch::{BatchPlacer, BatchRequest};
use qcp::prelude::*;
use qcp_env::topologies::{Delays, TopologySpec};

#[test]
fn deduped_batch_matches_execute_with_over_one_cache() {
    let env = "grid:4x4"
        .parse::<TopologySpec>()
        .unwrap()
        .build(Delays::default());
    let config = PlacerConfig::with_threshold(env.connectivity_threshold().unwrap())
        .candidates(30)
        .strategy(Strategy::Hybrid);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/qasm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    paths.sort();
    let mut requests = Vec::new();
    for path in &paths {
        let circuit = qasm::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .circuit;
        let n = circuit.qubit_count();
        // Identity, reversed, and rotated by one.
        let relabellings: [&dyn Fn(usize) -> usize; 3] = [&|q| q, &|q| n - 1 - q, &|q| (q + 1) % n];
        for (k, relabel) in relabellings.iter().enumerate() {
            let relabelled = circuit.map_qubits(n, |q| Qubit::new(relabel(q.index())));
            let label = format!("{}#{k}", path.display());
            requests.push(BatchRequest::new(
                label,
                relabelled,
                env.clone(),
                config.clone(),
            ));
        }
    }

    let report = BatchPlacer::new(requests.clone()).jobs(2).run();

    let cache = PlacementCache::new(requests.len());
    for (request, result) in requests.iter().zip(&report.results) {
        let place_request = PlaceRequest::new(&request.circuit, &request.environment)
            .config(request.config.clone());
        let expected = execute_with(&place_request, Some(&cache), None).map(|r| r.outcome);
        // Debug output is complete and prints floats exactly, so equal
        // renderings mean equal outcomes.
        assert_eq!(
            format!("{:?}", result.outcome),
            format!("{expected:?}"),
            "{}",
            request.label
        );
    }
    assert_eq!(report.failed(), 0);
    assert_eq!(report.deduped as u64, cache.hits());
    assert_eq!(report.deduped, 2 * paths.len());
}
