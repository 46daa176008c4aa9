//! Workspace (subcircuit) extraction — the "basic placement" stage of §5.1.
//!
//! The algorithm reads gates off the circuit into a workspace *as long as
//! the two-qubit gates seen so far can be aligned along the fastest
//! interactions* of the physical environment, i.e. while the workspace's
//! interaction graph still has a monomorphism into the fast graph. The
//! first gate that breaks embeddability closes the workspace and opens the
//! next one. Single-qubit gates never break embeddability.
//!
//! One loop serves both the paper's split and the §7 gate-commutation
//! extension: a gate that does not fit is *deferred*, and
//! [`ExtractionOptions::commutation_aware`] only decides what a deferral
//! does — close the workspace (the paper), or keep scanning for later
//! gates that commute with every deferred one (§7).

use qcp_circuit::{Circuit, Gate};
use qcp_graph::vf2::{self, MonomorphismFinder};
use qcp_graph::{Graph, NodeId};

use crate::{PlaceError, Result};

/// Options controlling workspace extraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractionOptions {
    /// Hoist later gates that *commute* with every gate blocked so far
    /// into the current workspace — the gate-commutation transformation
    /// the paper suggests as further research (§7). Off by default
    /// (matching the paper's evaluated pipeline).
    pub commutation_aware: bool,
    /// Close a workspace after this many gates even if more would embed —
    /// a knob for the computation-depth vs swap-depth balance the paper's
    /// conclusions call for ("right now, our method is greedy in that the
    /// computational stage is formed to be as large as possible").
    /// `None` keeps the paper's greedy-maximal behaviour.
    pub max_gates: Option<usize>,
}

/// A maximal embeddable subcircuit plus its interaction graph.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// The subcircuit (same logical width as the parent circuit).
    pub circuit: Circuit,
    /// Interaction graph over all parent qubits; edges only for pairs
    /// coupled inside this workspace.
    pub interaction: Graph,
}

/// Splits `circuit` into maximal subcircuits whose interaction graphs
/// embed (as subgraph monomorphisms) into `fast`. Every embeddability
/// check charges the shared `meter` (pass [`vf2::Budget::unlimited`] for
/// no limit), and extraction aborts with [`PlaceError::BudgetExhausted`]
/// once it trips. Default [`ExtractionOptions`] give the paper's
/// greedy-maximal scheme.
///
/// Each round walks the gates left over from the previous one. A gate
/// joins the round's workspace while its coupling keeps the workspace's
/// edge set embeddable (and the gate cap allows); otherwise it is
/// *deferred*, and deferred gates seed the next workspace in their
/// original order. In the paper's mode the first deferral closes the
/// workspace. With `commutation_aware` set, later gates that commute with
/// every deferred gate may still be hoisted in. The transformation is
/// sound: a gate only ever jumps over gates it commutes with.
///
/// # Errors
///
/// * [`PlaceError::NoFastInteractions`] if some two-qubit gate cannot be
///   aligned even alone — i.e. the fast graph has no edges at all (the
///   paper's N/A case);
/// * [`PlaceError::BudgetExhausted`] if the meter trips.
pub fn extract_workspaces_budgeted(
    circuit: &Circuit,
    fast: &Graph,
    options: ExtractionOptions,
    meter: &mut vf2::Budget,
) -> Result<Vec<Workspace>> {
    let n = circuit.qubit_count();
    // A cap of zero still admits one gate per workspace.
    let cap = options.max_gates.map_or(usize::MAX, |cap| cap.max(1));
    let mut remaining: Vec<&Gate> = circuit.gates().collect();
    let mut out = Vec::new();
    loop {
        let mut joined: Vec<&Gate> = Vec::new();
        let mut deferred: Vec<&Gate> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut interaction = Graph::new(n);
        for (pos, &gate) in remaining.iter().enumerate() {
            if joined.len() < cap
                && deferred.iter().all(|d| gate.commutes_with(d))
                && fits(gate, &mut edges, &mut interaction, fast, meter)?
            {
                joined.push(gate);
                continue;
            }
            deferred.push(gate);
            if !options.commutation_aware || joined.len() >= cap {
                // The workspace is closed; the rest of the round seeds the
                // next one unscanned.
                deferred.extend_from_slice(&remaining[pos + 1..]);
                break;
            }
        }
        #[allow(clippy::expect_used)]
        let circuit = Circuit::from_gates(n, joined.into_iter().cloned())
            .expect("invariant: subcircuit gates fit the parent width");
        out.push(Workspace {
            circuit,
            interaction,
        });
        if deferred.is_empty() {
            return Ok(out);
        }
        remaining = deferred;
    }
}

/// Does `gate` fit the workspace whose couplings so far are `edges` (in
/// the order they joined) and `interaction`? A new coupling fits when the
/// grown edge set still embeds into `fast`, and is then recorded in both.
fn fits(
    gate: &Gate,
    edges: &mut Vec<(usize, usize)>,
    interaction: &mut Graph,
    fast: &Graph,
    meter: &mut vf2::Budget,
) -> Result<bool> {
    let Some((qa, qb)) = gate.coupling() else {
        return Ok(true);
    };
    let (a, b) = (qa.index().min(qb.index()), qa.index().max(qb.index()));
    if interaction.has_edge(NodeId::new(a), NodeId::new(b)) {
        return Ok(true); // same interaction, still embeddable
    }
    edges.push((a, b));
    if embeds(edges, interaction.node_count(), fast, meter)? {
        let _ = interaction.add_edge(NodeId::new(a), NodeId::new(b), 1.0);
        return Ok(true);
    }
    edges.pop();
    if edges.is_empty() {
        // The gate cannot even start a fresh workspace: the threshold
        // kills the computation.
        return Err(PlaceError::NoFastInteractions);
    }
    Ok(false)
}

/// Does the interaction pattern embed into the fast graph? Charges the
/// budget meter; an exhausted meter makes the answer unknowable and the
/// extraction fails with [`PlaceError::BudgetExhausted`].
fn embeds(
    edges: &[(usize, usize)],
    n_qubits: usize,
    fast: &Graph,
    meter: &mut vf2::Budget,
) -> Result<bool> {
    if edges.is_empty() {
        return Ok(true);
    }
    // Relabel the touched qubits densely.
    let mut index = vec![usize::MAX; n_qubits];
    let mut count = 0usize;
    for &(a, b) in edges {
        for v in [a, b] {
            if index[v] == usize::MAX {
                index[v] = count;
                count += 1;
            }
        }
    }
    if count > fast.node_count() {
        return Ok(false);
    }
    let mut pattern = Graph::new(count);
    for &(a, b) in edges {
        // Each interaction pair appears once in the deduplicated list.
        let _ = pattern.add_edge(NodeId::new(index[a]), NodeId::new(index[b]), 1.0);
    }
    MonomorphismFinder::new(&pattern, fast)
        .exists_budgeted(meter)
        .ok_or(PlaceError::BudgetExhausted {
            nodes: meter.nodes_visited(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library;
    use qcp_circuit::Qubit;
    use qcp_env::{molecules, Threshold};
    use qcp_graph::generate;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// Extraction under an unlimited meter.
    fn extract(c: &Circuit, fast: &Graph, options: ExtractionOptions) -> Result<Vec<Workspace>> {
        extract_workspaces_budgeted(c, fast, options, &mut vf2::Budget::unlimited())
    }

    /// Each qubit's gate sequence over `gates`, in order. Two gate orders
    /// with equal sequences are the same computation; levelling may still
    /// order gates on disjoint qubits differently.
    fn per_qubit<'a>(n: usize, gates: impl IntoIterator<Item = &'a Gate>) -> Vec<Vec<&'a Gate>> {
        let mut seq = vec![Vec::new(); n];
        for g in gates {
            let (a, b) = g.qubits();
            for q in std::iter::once(a).chain(b) {
                seq[q.index()].push(g);
            }
        }
        seq
    }

    #[test]
    fn chain_circuit_single_workspace_on_chain() {
        let c = library::pseudo_cat(5);
        let fast = generate::chain(5);
        let ws = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].circuit.gate_count(), c.gate_count());
    }

    #[test]
    fn triangle_on_chain_splits() {
        // zz(0,1), zz(1,2), zz(0,2): the third edge closes a triangle,
        // which no chain hosts.
        let c = Circuit::from_gates(
            3,
            [
                Gate::zz(q(0), q(1), 90.0),
                Gate::zz(q(1), q(2), 90.0),
                Gate::zz(q(0), q(2), 90.0),
            ],
        )
        .unwrap();
        let fast = generate::chain(3);
        let ws = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].circuit.gate_count(), 2);
        assert_eq!(ws[1].circuit.gate_count(), 1);
        assert_eq!(ws[0].interaction.edge_count(), 2);
        assert_eq!(ws[1].interaction.edge_count(), 1);
    }

    #[test]
    fn repeat_interactions_do_not_split() {
        let c = Circuit::from_gates(
            2,
            (0..10)
                .map(|_| Gate::zz(q(0), q(1), 90.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let fast = generate::chain(2);
        let ws = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn single_qubit_gates_never_split() {
        let c = Circuit::from_gates(
            3,
            [
                Gate::zz(q(0), q(1), 90.0),
                Gate::ry(q(2), 90.0),
                Gate::ry(q(0), 90.0),
                Gate::zz(q(1), q(2), 90.0),
            ],
        )
        .unwrap();
        let fast = generate::chain(3);
        assert_eq!(
            extract(&c, &fast, ExtractionOptions::default())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn no_fast_interactions_is_an_error() {
        // Pentafluoro at threshold 100: no interaction is fast.
        let env = molecules::pentafluoro_iron();
        let fast = env.fast_graph(Threshold::new(100.0));
        let c = library::phase_estimation();
        assert_eq!(
            extract(&c, &fast, ExtractionOptions::default()).unwrap_err(),
            PlaceError::NoFastInteractions
        );
    }

    #[test]
    fn single_qubit_only_circuit_is_one_workspace() {
        let c = Circuit::from_gates(2, [Gate::ry(q(0), 90.0), Gate::ry(q(1), 90.0)]).unwrap();
        let env = molecules::pentafluoro_iron();
        let fast = env.fast_graph(Threshold::new(50.0)); // empty graph
        let ws = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].interaction.edge_count(), 0);
    }

    #[test]
    fn qft6_on_crotonic_bonds_splits_into_multiple() {
        // §6: qft6 "contains a 2-qubit gate for every pair of qubits" and
        // cannot be placed whole along trans-crotonic bonds.
        let env = molecules::trans_crotonic_acid();
        let fast = env.fast_graph(Threshold::new(200.0));
        let c = library::qft(6);
        let ws = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert!(
            ws.len() > 1,
            "expected multiple workspaces, got {}",
            ws.len()
        );
        // Run one after another, the workspaces are the circuit.
        let n = c.qubit_count();
        assert_eq!(
            per_qubit(n, ws.iter().flat_map(|w| w.circuit.gates())),
            per_qubit(n, c.gates())
        );
    }

    #[test]
    fn commutation_hoists_diagonal_gates() {
        // zz(0,1), zz(1,2) embed on a chain; zz(0,2) closes a triangle and
        // breaks; the following zz(1,2) and the disjoint ry(q3)
        // commute with zz(0,2) and can be hoisted into workspace 1.
        let c = Circuit::from_gates(
            4,
            [
                Gate::zz(q(0), q(1), 90.0),
                Gate::zz(q(1), q(2), 90.0),
                Gate::zz(q(0), q(2), 90.0),
                Gate::zz(q(1), q(2), -90.0),
                Gate::ry(q(3), 90.0),
            ],
        )
        .unwrap();
        let fast = generate::chain(4);
        let plain = extract(&c, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(plain.len(), 2);
        // Greedy stops at the triangle edge: zz(0,1), the levelized-early
        // ry(q3), and zz(1,2) are in; the trailing zz(1,2) is stranded in
        // workspace 2 behind the blocker.
        assert_eq!(plain[0].circuit.gate_count(), 3);
        assert_eq!(plain[1].circuit.gate_count(), 2);
        let smart = extract(
            &c,
            &fast,
            ExtractionOptions {
                commutation_aware: true,
                max_gates: None,
            },
        )
        .unwrap();
        assert_eq!(smart.len(), 2);
        assert_eq!(smart[0].circuit.gate_count(), 4, "two gates hoisted");
        assert_eq!(smart[1].circuit.gate_count(), 1);
    }

    #[test]
    fn commutation_respects_non_commuting_order() {
        // ry(q0) does NOT commute with the deferred zz(0,2): it must stay
        // behind it in workspace 2.
        let c = Circuit::from_gates(
            3,
            [
                Gate::zz(q(0), q(1), 90.0),
                Gate::zz(q(1), q(2), 90.0),
                Gate::zz(q(0), q(2), 90.0),
                Gate::ry(q(0), 90.0),
            ],
        )
        .unwrap();
        let fast = generate::chain(3);
        let smart = extract(
            &c,
            &fast,
            ExtractionOptions {
                commutation_aware: true,
                max_gates: None,
            },
        )
        .unwrap();
        assert_eq!(smart.len(), 2);
        assert_eq!(smart[0].circuit.gate_count(), 2);
        let ws2: Vec<String> = smart[1].circuit.gates().map(ToString::to_string).collect();
        assert_eq!(ws2, vec!["ZZ(90) q0 q2", "Ry(90) q0"]);
    }

    #[test]
    fn max_gates_caps_workspaces() {
        let c = library::pseudo_cat(5); // 1 workspace normally
        let fast = generate::chain(5);
        let capped = extract(
            &c,
            &fast,
            ExtractionOptions {
                commutation_aware: false,
                max_gates: Some(10),
            },
        )
        .unwrap();
        assert!(capped.len() >= 2, "cap must split the single workspace");
        for w in &capped {
            assert!(w.circuit.gate_count() <= 10);
        }
        let n = c.qubit_count();
        assert_eq!(
            per_qubit(n, capped.iter().flat_map(|w| w.circuit.gates())),
            per_qubit(n, c.gates())
        );
    }

    #[test]
    fn commutation_preserves_per_qubit_gate_order_globally() {
        // Safety property: concatenating the extracted workspaces must
        // keep each qubit's own gate sequence when gates do not commute.
        let env = molecules::trans_crotonic_acid();
        let fast = env.fast_graph(Threshold::new(200.0));
        let c = library::qft(6);
        let smart = extract(
            &c,
            &fast,
            ExtractionOptions {
                commutation_aware: true,
                max_gates: None,
            },
        )
        .unwrap();
        let total: usize = smart.iter().map(|w| w.circuit.gate_count()).sum();
        assert_eq!(total, c.gate_count(), "no gate lost or duplicated");
    }

    #[test]
    fn hidden_stages_recovered_on_lnn() {
        // Table 4's key claim: #subcircuits == #hidden stages.
        let staged = library::random::staged(8, 42);
        let env = molecules::lnn_chain_1khz(8);
        let fast = env.fast_graph(Threshold::new(11.0));
        let ws = extract(&staged.circuit, &fast, ExtractionOptions::default()).unwrap();
        assert_eq!(ws.len(), staged.stage_count());
    }
}
