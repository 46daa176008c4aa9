//! The NP-completeness reduction of §4: Hamiltonian cycle ⇔ zero-runtime
//! placement.
//!
//! Given a graph `H` on `m` vertices, build a physical environment on the
//! same vertex set whose couplings cost 0 where `H` has an edge and 1
//! where it does not (single-qubit gates are free), and a circuit of `m`
//! two-qubit gates `G(q_i, q_{(i mod m)+1})` with `T(G) = 1` closing a
//! cycle through all qubits. Gate `i` shares a qubit with gate `i+1`, so
//! the runtime is the *sum* of the gate costs, and a placement of runtime
//! zero exists **iff** the circuit's qubit cycle lands entirely on
//! zero-weight couplings — i.e. iff `H` has a Hamiltonian cycle.

use qcp_circuit::{Circuit, Gate, Qubit};
use qcp_env::Environment;
use qcp_graph::{Graph, NodeId};

/// Builds the §4 reduction instance for `H`.
///
/// Returns the environment (weight 0 on `H`-edges, 1 elsewhere, free
/// single-qubit gates) and the cycle circuit.
///
/// # Panics
///
/// Panics if `H` has fewer than 3 vertices (no cycle exists; the paper's
/// reduction presumes `m >= 3`).
pub fn reduction_instance(h: &Graph) -> (Environment, Circuit) {
    let m = h.node_count();
    assert!(m >= 3, "the reduction needs at least 3 vertices, got {m}");
    let mut b = Environment::builder("reduction");
    let nuclei: Vec<_> = (0..m).map(|i| b.nucleus(format!("v{i}"), 0.0)).collect();
    for i in 0..m {
        for j in i + 1..m {
            let w = if h.has_edge(NodeId::new(i), NodeId::new(j)) {
                0.0
            } else {
                1.0
            };
            // The i < j sweep visits each pair once; cannot fail.
            let _ = b.coupling(nuclei[i], nuclei[j], w);
        }
    }
    #[allow(clippy::expect_used)]
    let env = b.build().expect("invariant: the gadget has m >= 1 nuclei");

    let mut builder = Circuit::builder(m);
    for i in 0..m {
        builder.gate(Gate::custom2(
            Qubit::new(i),
            Qubit::new((i + 1) % m),
            1.0,
            "G",
        ));
    }
    (env, builder.build())
}

/// Decides Hamiltonicity of `H` by searching for a zero-runtime placement
/// of the reduction instance — a branch-and-bound walk over injective
/// assignments that prunes as soon as the partial runtime exceeds zero.
///
/// Exponential in the worst case (the problem is NP-complete); fine for
/// the instance sizes used in tests, examples and experiments.
pub fn hamiltonian_via_placement(h: &Graph) -> bool {
    let m = h.node_count();
    if m < 3 {
        return false;
    }
    // The circuit couples q_i with q_{i+1 mod m}; a zero-cost placement
    // maps that cycle onto zero-weight (= H) edges. Fix q_0 -> v_0 by
    // cycle symmetry? No: H need not be vertex-transitive, so q_0 ranges
    // over all vertices — but any rotation of a valid cycle is valid, so
    // fixing q_0 -> v_0 is safe.
    let mut assigned = vec![usize::MAX; m];
    let mut used = vec![false; m];
    assigned[0] = 0;
    used[0] = true;
    extend(h, &mut assigned, &mut used, 1)
}

fn extend(h: &Graph, assigned: &mut [usize], used: &mut [bool], i: usize) -> bool {
    let m = h.node_count();
    if i == m {
        // Close the cycle: gate (q_{m-1}, q_0) must be free too.
        return h.has_edge(NodeId::new(assigned[m - 1]), NodeId::new(assigned[0]));
    }
    for v in 0..m {
        if used[v] {
            continue;
        }
        // Gate (q_{i-1}, q_i) must land on a zero-weight coupling, i.e. an
        // edge of H — otherwise the partial runtime is already positive.
        if !h.has_edge(NodeId::new(assigned[i - 1]), NodeId::new(v)) {
            continue;
        }
        assigned[i] = v;
        used[v] = true;
        if extend(h, assigned, used, i + 1) {
            return true;
        }
        used[v] = false;
        assigned[i] = usize::MAX;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::exhaustive_placement;
    use crate::cost::CostModel;
    use qcp_graph::generate;
    use qcp_graph::hamiltonian::has_hamiltonian_cycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn instance_shape() {
        let h = generate::ring(5);
        let (env, circuit) = reduction_instance(&h);
        assert_eq!(env.qubit_count(), 5);
        assert_eq!(circuit.qubit_count(), 5);
        assert_eq!(circuit.gate_count(), 5);
        assert!(circuit
            .gates()
            .all(|g| g.is_two_qubit() && g.time_weight() == 1.0));
        // H-edges are free, non-edges cost 1.
        let p = qcp_env::PhysicalQubit::new;
        assert_eq!(env.coupling(p(0), p(1)).units(), 0.0);
        assert_eq!(env.coupling(p(0), p(2)).units(), 1.0);
    }

    #[test]
    fn ring_reduces_to_zero_cost() {
        let h = generate::ring(6);
        let (env, circuit) = reduction_instance(&h);
        let (_, t) = exhaustive_placement(
            &circuit,
            &env,
            &CostModel::overlapped().without_reuse_cap(),
            1e6,
        )
        .unwrap();
        assert!(
            t.is_zero(),
            "ring is Hamiltonian, zero-cost placement must exist"
        );
        assert!(hamiltonian_via_placement(&h));
    }

    #[test]
    fn chain_like_graph_has_positive_cost() {
        // A star is not Hamiltonian: best placement has positive runtime.
        let h = generate::star(5);
        let (env, circuit) = reduction_instance(&h);
        let (_, t) = exhaustive_placement(
            &circuit,
            &env,
            &CostModel::overlapped().without_reuse_cap(),
            1e6,
        )
        .unwrap();
        assert!(t.units() > 0.0);
        assert!(!hamiltonian_via_placement(&h));
    }

    #[test]
    fn petersen_is_caught() {
        let h = qcp_graph::hamiltonian::petersen();
        assert!(!hamiltonian_via_placement(&h));
    }

    #[test]
    fn agrees_with_direct_solver_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in 3..8 {
            for _ in 0..12 {
                let h = generate::gnp(n, 0.45, &mut rng);
                assert_eq!(
                    hamiltonian_via_placement(&h),
                    has_hamiltonian_cycle(&h),
                    "disagreement on {h:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_graphs_rejected() {
        let _ = reduction_instance(&Graph::new(2));
    }
}
