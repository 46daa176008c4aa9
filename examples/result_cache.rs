#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Canonicalization-keyed result cache: place the QASM corpus cold, then
//! replay it with relabelled qubits and show every repeat served from the
//! cache by witness remap — same runtimes, microseconds instead of
//! milliseconds.
//!
//! Run with: `cargo run --release --example result_cache`

use std::time::Instant;

use qcp::prelude::*;
use qcp::verify::PlacementCertifier;

fn main() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/qasm");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    paths.sort();

    let env = topologies::grid(4, 4, topologies::Delays::default());
    let config = PlacerConfig::with_threshold(env.connectivity_threshold().unwrap())
        .candidates(30)
        .strategy(Strategy::Hybrid);
    let cache = PlacementCache::new(64);

    println!("cold vs warm on grid:4x4 (warm request is a qubit-relabelled repeat):");
    println!(
        "{:<18} {:>7} {:>12} {:>12} {:>9}  outcome",
        "circuit", "qubits", "cold", "warm", "speedup"
    );
    for path in paths {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let circuit = qcp::circuit::qasm::parse(&text).unwrap().circuit;
        let n = circuit.qubit_count();
        if n > env.qubit_count() {
            continue;
        }

        let t0 = Instant::now();
        let request = PlaceRequest::new(&circuit, &env).config(config.clone());
        let Ok(cold) = execute_with(&request, Some(&cache), None) else {
            println!("{stem:<18} {n:>7} {:>12} (does not place)", "-");
            continue;
        };
        let cold_t = t0.elapsed();

        // The repeat arrives with its qubits relabelled — an isomorphic,
        // not identical, circuit. The certifier is passed: the remapped
        // hit is re-certified against the relabelled circuit before
        // returning.
        let relabelled = circuit.map_qubits(n, |q| Qubit::new(n - 1 - q.index()));
        let t1 = Instant::now();
        let warm_request = PlaceRequest::new(&relabelled, &env).config(config.clone());
        let warm = execute_with(&warm_request, Some(&cache), Some(&PlacementCertifier))
            .expect("warm repeat places");
        let warm_t = t1.elapsed();

        assert_eq!(warm.outcome.runtime, cold.outcome.runtime);
        assert!(warm.certificate.is_some());
        println!(
            "{stem:<18} {n:>7} {:>9.2} ms {:>9.2} ms {:>8.0}x  {} ({})",
            cold_t.as_secs_f64() * 1e3,
            warm_t.as_secs_f64() * 1e3,
            cold_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-9),
            cold.outcome.runtime,
            warm.cache.wire(),
        );
    }
    println!(
        "\ncache: {} entries, {} hit(s), {} miss(es), {} remapped hit(s)",
        cache.len(),
        cache.hits(),
        cache.misses(),
        cache.remapped()
    );
    assert_eq!(
        cache.hits(),
        cache.remapped(),
        "every repeat was relabelled"
    );
}
