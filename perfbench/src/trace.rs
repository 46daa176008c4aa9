//! Spans and the in-process layer replay.
//!
//! The traced run records client-side spans around each request the
//! workload sends, then replays the workload's distinct requests
//! in-process with one span per public library call. Spans stay in
//! memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use qcp_circuit::Circuit;
use qcp_env::{Environment, PhysicalQubit};
use qcp_graph::traversal::connected_components;
use qcp_graph::{vf2, Graph};
use qcp_place::cost::CostEngine;
use qcp_place::embed::{candidate_placements_searched, SearchOptions};
use qcp_place::router::route_permutation;
use qcp_place::strategy::{ExactVf2, GreedyAnneal, PlacementStrategy};
use qcp_place::workspace::extract_workspaces_budgeted;
use qcp_place::{PlaceError, PlacementOutcome, Placer, PlacerConfig, Resolution, SearchBudget};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span store plus exact work counters and derived per-request
/// values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    pub values: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, request);
        (out, id)
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = 0.0;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += (b - a).as_secs_f64() * 1e3;
                reach = b;
            }
        }
        span.ms() - covered
    }

    /// Writes every span as `request name parent start_us end_us`,
    /// relative to the earliest span.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let Some(origin) = self.spans.iter().map(|s| s.start).min() else {
            return std::fs::write(path, "");
        };
        let mut out = String::from("request\tname\tparent\tstart_us\tend_us\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.1}\t{:.1}",
                s.request,
                s.name,
                s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                (s.start - origin).as_secs_f64() * 1e6,
                (s.end - origin).as_secs_f64() * 1e6,
            );
        }
        std::fs::write(path, out)
    }
}

/// Fast-graph node orbits when first-stage placements related by a
/// device automorphism cost the same, mirroring the placer's own rule
/// (uniform single-qubit delays, connected fast graph, a non-trivial
/// orbit), so the replayed enumeration does the placer's work.
fn device_symmetry(env: &Environment, fast: &Graph) -> Option<Vec<usize>> {
    let m = fast.node_count();
    if m == 0 || connected_components(fast).len() > 1 {
        return None;
    }
    let delay = |q: usize| env.weight_units(PhysicalQubit::new(q), PhysicalQubit::new(q));
    let d0 = delay(0);
    if (1..m).any(|q| delay(q).total_cmp(&d0).is_ne()) {
        return None;
    }
    let orbits = qcp_graph::canonical::automorphisms(fast).orbits;
    let mut sizes = vec![0usize; m];
    for &o in &orbits {
        sizes[o] += 1;
    }
    sizes.iter().any(|&c| c > 1).then_some(orbits)
}

/// Replays one fresh placement layer by layer under a root span:
/// `Placer::new`, `Placer::place`, and then either the exact pipeline's
/// layers (workspace extraction, per-stage candidate enumeration from each
/// committed placement, routing and cost scoring of every next-stage
/// candidate) or, for fallback answers, the exact attempt and the anneal
/// that follows it, timed separately.
pub fn replay_placement(
    trace: &mut Trace,
    request: u64,
    parent: Option<usize>,
    circuit: &Circuit,
    env: &Environment,
    config: &PlacerConfig,
) -> Result<PlacementOutcome, String> {
    let (placer, _) = trace.time("placer.new", parent, request, || {
        Placer::new(env, config.clone())
    });
    let (placed, place_id) = trace.time("placer.place", parent, request, || placer.place(circuit));
    let outcome = placed.map_err(|e| format!("replayed placement failed: {e}"))?;
    trace.count("placer.stages", outcome.stages.len() as u64);
    let place_ms = trace.spans[place_id].ms();
    if outcome.resolution == Resolution::Exact {
        let (extract_ms, enumerate_ms) = replay_exact_layers(
            trace, request, parent, &placer, circuit, env, config, &outcome,
        )?;
        trace.value("embed.enumerate_ms", enumerate_ms);
        trace.value("placer.scoring_ms", place_ms - extract_ms - enumerate_ms);
    } else {
        let (attempt, _) = trace.time("strategy.exact_attempt", parent, request, || {
            ExactVf2.place(&placer, circuit)
        });
        if !matches!(
            attempt,
            Err(PlaceError::BudgetExhausted { .. } | PlaceError::RoutingImpossible { .. })
        ) {
            return Err("a fallback answer's exact attempt did not fail".into());
        }
        // Once the exact attempt has spent the node budget, the hybrid
        // chain anneals under an exhausted meter: the same work as the
        // annealer under a zero-node budget.
        let spent = PlacerConfig {
            budget: SearchBudget::nodes(0),
            ..config.clone()
        };
        let annealer = Placer::new(env, spent);
        let (annealed, _) = trace.time("strategy.anneal", parent, request, || {
            GreedyAnneal.place(&annealer, circuit)
        });
        let annealed = annealed.map_err(|e| format!("replayed anneal failed: {e}"))?;
        if outcome.resolution == Resolution::BudgetExhausted
            && annealed.runtime.units() != outcome.runtime.units()
        {
            return Err("the replayed anneal does not reproduce the fallback answer".into());
        }
    }
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn replay_exact_layers(
    trace: &mut Trace,
    request: u64,
    parent: Option<usize>,
    placer: &Placer<'_>,
    circuit: &Circuit,
    env: &Environment,
    config: &PlacerConfig,
    outcome: &PlacementOutcome,
) -> Result<(f64, f64), String> {
    let fast = placer.fast_graph();
    let mut meter = vf2::Budget::unlimited();
    let (workspaces, extract_id) = trace.time("workspace.extract", parent, request, || {
        extract_workspaces_budgeted(circuit, fast, config.extraction, &mut meter)
    });
    trace.count("workspace.vf2_nodes", meter.nodes_visited());
    let extract_ms = trace.spans[extract_id].ms();
    let workspaces = workspaces.map_err(|e| format!("replayed extraction failed: {e}"))?;
    if workspaces.len() != outcome.stages.len() {
        return Err("replayed workspaces do not match the committed stages".into());
    }
    let symmetry = device_symmetry(env, fast);
    let mut engine = CostEngine::new(env, config.cost_model);
    let mut fork = CostEngine::new(env, config.cost_model);
    let mut enumerate_ms = 0.0;
    for (i, ws) in workspaces.iter().enumerate() {
        let previous = i.checked_sub(1).map(|p| &outcome.stages[p].placement);
        let mut enumerate = |trace: &mut Trace, interaction: &Graph, orbits: Option<&[usize]>| {
            let mut meter = vf2::Budget::unlimited();
            let options = SearchOptions {
                jobs: 1,
                root_orbits: orbits,
            };
            let (found, id) = trace.time("embed.enumerate", parent, request, || {
                candidate_placements_searched(
                    interaction,
                    fast,
                    previous,
                    config.max_candidates,
                    &mut meter,
                    &options,
                )
            });
            enumerate_ms += trace.spans[id].ms();
            trace.count("embed.vf2_nodes", meter.nodes_visited());
            let found = found.map_err(|e| format!("replayed enumeration failed: {e}"))?;
            trace.count("embed.candidates", found.len() as u64);
            Ok::<_, String>(found)
        };
        let orbits = if previous.is_none() {
            symmetry.as_deref()
        } else {
            None
        };
        let candidates = enumerate(trace, &ws.interaction, orbits)?;
        if config.lookahead {
            if let Some(next) = workspaces.get(i + 1) {
                enumerate(trace, &next.interaction, None)?;
            }
        }
        if let Some(prev) = previous {
            for cand in &candidates {
                if prev.same_assignment(cand) {
                    continue;
                }
                let perm = prev.permutation_to(cand);
                let (routed, _) = trace.time("router.route", parent, request, || {
                    route_permutation(placer.routing_graph(), &perm, &config.router)
                });
                trace.count("router.calls", 1);
                if let Ok(swaps) = routed {
                    trace.time("cost.score", parent, request, || {
                        fork.copy_from(&engine);
                        fork.apply_swap_levels(swaps.levels());
                        fork.apply_placed_circuit(&ws.circuit, cand);
                        std::hint::black_box(fork.makespan())
                    });
                }
            }
        }
        let stage = &outcome.stages[i];
        engine.apply_swap_levels(stage.swaps.levels());
        engine.apply_placed_circuit(&stage.subcircuit, &stage.placement);
    }
    Ok((extract_ms, enumerate_ms))
}

/// Times `qcp_verify::certify` on one outcome under the replay's root span.
pub fn replay_certify(
    trace: &mut Trace,
    request: u64,
    parent: Option<usize>,
    circuit: &Circuit,
    env: &Environment,
    config: &PlacerConfig,
    outcome: &PlacementOutcome,
) -> Result<(), String> {
    trace
        .time("verify.certify", parent, request, || {
            crate::expect::certified(circuit, env, config, outcome)
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("root", at(0), at(10), None, 1);
        t.record("a", at(1), at(4), Some(root), 1);
        t.record("b", at(3), at(6), Some(root), 1);
        t.record("c", at(8), at(12), Some(root), 1);
        // Children cover 1..6 and 8..10: 7 ms of the root's 10.
        assert!((t.self_ms(root) - 3.0).abs() < 1e-9);
    }
}
