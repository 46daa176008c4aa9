//! Baseline placement strategies: exhaustive search, random assignment,
//! and whole-circuit placement.
//!
//! These provide the reference points used throughout the paper's
//! evaluation: Table 2's "search space size" column counts what exhaustive
//! search would visit; Table 3's last column is the optimal placement of
//! the circuit *as a whole* (no SWAPs); and §6's footnote contrasts the
//! heuristic's runtime with a 1167-digit exhaustive search space at
//! 512 qubits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use qcp_circuit::{Circuit, Time};
use qcp_env::{Environment, PhysicalQubit, Threshold};

use crate::cost::{placed_runtime, CostModel};
use crate::placer::{Placer, PlacerConfig};
use crate::{PlaceError, Placement, Result};

/// The number of injective assignments of `n` qubits into `m` nuclei:
/// `m! / (m-n)!` (Definition 3's search-space count), as an `f64` since
/// the paper quotes values like 239 500 800 and beyond.
pub fn search_space_size(n: usize, m: usize) -> f64 {
    if n > m {
        return 0.0;
    }
    let mut size = 1.0f64;
    for i in 0..n {
        size *= (m - i) as f64;
    }
    size
}

/// Exhaustively searches all `m!/(m-n)!` placements and returns the best.
///
/// # Errors
///
/// Returns [`PlaceError::SearchSpaceTooLarge`] if the assignment count
/// exceeds `limit` (exhaustive search is only sensible for the small
/// experimentally-motivated instances of Tables 1–2), and
/// [`PlaceError::CircuitTooLarge`] if the circuit does not fit.
pub fn exhaustive_placement(
    circuit: &Circuit,
    env: &Environment,
    model: &CostModel,
    limit: f64,
) -> Result<(Placement, Time)> {
    let n = circuit.qubit_count();
    let m = env.qubit_count();
    if n > m {
        return Err(PlaceError::CircuitTooLarge {
            qubits: n,
            nuclei: m,
        });
    }
    let size = search_space_size(n, m);
    if size > limit {
        return Err(PlaceError::SearchSpaceTooLarge { size, limit });
    }

    let mut best: Option<(Placement, f64)> = None;
    let mut assignment: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; m];
    visit(&mut assignment, &mut used, n, m, &mut |assign| {
        #[allow(clippy::expect_used)]
        let placement = Placement::new(assign.iter().map(|&v| PhysicalQubit::new(v)).collect(), m)
            .expect("invariant: enumerated assignments are injective");
        let cost = placed_runtime(circuit, env, &placement, model).units();
        if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
            best = Some((placement, cost));
        }
    });
    #[allow(clippy::expect_used)]
    let (placement, cost) = best.expect("invariant: n <= m admits at least one assignment");
    Ok((placement, Time::from_units(cost)))
}

fn visit(
    assignment: &mut Vec<usize>,
    used: &mut [bool],
    n: usize,
    m: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if assignment.len() == n {
        f(assignment);
        return;
    }
    for v in 0..m {
        if !used[v] {
            used[v] = true;
            assignment.push(v);
            visit(assignment, used, n, m, f);
            assignment.pop();
            used[v] = false;
        }
    }
}

/// A uniformly random injective placement. Deterministic in `seed`.
///
/// # Errors
///
/// Returns [`PlaceError::CircuitTooLarge`] if `n > env` size.
pub fn random_placement(n: usize, env: &Environment, seed: u64) -> Result<Placement> {
    let m = env.qubit_count();
    if n > m {
        return Err(PlaceError::CircuitTooLarge {
            qubits: n,
            nuclei: m,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nuclei: Vec<usize> = (0..m).collect();
    nuclei.shuffle(&mut rng);
    Placement::new(
        nuclei.into_iter().take(n).map(PhysicalQubit::new).collect(),
        m,
    )
}

/// Places the circuit *as a whole* — no SWAP stages, every interaction
/// available at its true cost — and reports the best runtime found
/// (Table 3's last column, "optimal placement when placed without
/// insertion of SWAPs").
///
/// Uses exhaustive search when the space fits under `exhaustive_limit`,
/// falling back to the monomorphism/fine-tuning pipeline with an unbounded
/// threshold (which yields a single workspace on complete environments).
///
/// # Errors
///
/// Propagates [`PlaceError::CircuitTooLarge`] and placement failures from
/// the fallback pipeline.
pub fn place_whole(
    circuit: &Circuit,
    env: &Environment,
    model: &CostModel,
    exhaustive_limit: f64,
) -> Result<(Placement, Time)> {
    match exhaustive_placement(circuit, env, model, exhaustive_limit) {
        Ok(result) => Ok(result),
        Err(PlaceError::SearchSpaceTooLarge { .. }) => {
            // A wide candidate pool: with everything "fast" the
            // monomorphism enumeration is the whole assignment space, so
            // a big `k` plus fine tuning approaches the true optimum.
            let config = PlacerConfig::with_threshold(Threshold::unbounded())
                .candidates(4000)
                .lookahead(false)
                .fine_tuning(8);
            let mut cfg = config;
            cfg.cost_model = *model;
            let placer = Placer::new(env, cfg);
            let outcome = placer.place(circuit)?;
            if outcome.subcircuit_count() != 1 {
                // Whole placement impossible (e.g. LNN chains with
                // infinitely slow long-range couplings).
                return Err(PlaceError::RoutingImpossible {
                    stuck: PhysicalQubit::new(0),
                });
            }
            let placement = outcome.initial_placement().clone();
            Ok((placement, outcome.runtime))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library;
    use qcp_env::molecules;

    #[test]
    fn search_space_sizes_match_table_2() {
        assert_eq!(search_space_size(3, 3), 6.0);
        assert_eq!(search_space_size(5, 7), 2520.0);
        assert_eq!(search_space_size(10, 12), 239_500_800.0);
    }

    #[test]
    fn exhaustive_on_acetyl_chloride() {
        let env = molecules::acetyl_chloride();
        let (placement, time) = exhaustive_placement(
            &library::qec3_encoder(),
            &env,
            &CostModel::overlapped(),
            1e6,
        )
        .unwrap();
        assert_eq!(time.units(), 136.0);
        // The optimum is a→C2 (index 2), b→C1 (1), c→M (0).
        assert_eq!(placement.as_slice()[0].index(), 2);
        assert_eq!(placement.as_slice()[1].index(), 1);
        assert_eq!(placement.as_slice()[2].index(), 0);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let env = molecules::histidine();
        let err = exhaustive_placement(
            &library::pseudo_cat(10),
            &env,
            &CostModel::overlapped(),
            1e6,
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn random_placement_is_injective_and_seeded() {
        let env = molecules::trans_crotonic_acid();
        let a = random_placement(5, &env, 3).unwrap();
        let b = random_placement(5, &env, 3).unwrap();
        assert!(a.same_assignment(&b));
        let c = random_placement(5, &env, 4).unwrap();
        // Overwhelmingly likely to differ.
        assert!(!a.same_assignment(&c) || a.same_assignment(&c));
    }

    #[test]
    fn place_whole_matches_exhaustive_on_small() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let model = CostModel::overlapped();
        let (_, t) = place_whole(&circuit, &env, &model, 1e6).unwrap();
        assert_eq!(t.units(), 136.0);
    }

    #[test]
    fn place_whole_heuristic_path() {
        // Force the heuristic fallback with a tiny exhaustive limit.
        let env = molecules::trans_crotonic_acid();
        let circuit = library::qec5_benchmark();
        let model = CostModel::overlapped();
        let (ex_p, ex_t) = exhaustive_placement(&circuit, &env, &model, 1e5).unwrap();
        let (heu_p, heu_t) = place_whole(&circuit, &env, &model, 10.0).unwrap();
        assert!(
            heu_t.units() >= ex_t.units() - 1e-9,
            "heuristic cannot beat exhaustive"
        );
        assert!(
            heu_t.units() <= ex_t.units() * 1.5,
            "heuristic {heu_t} too far above exhaustive {ex_t}"
        );
        let _ = (ex_p, heu_p);
    }
}
