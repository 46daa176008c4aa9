//! Circuit runtime calculation (§3).
//!
//! The paper defines the runtime of a placed circuit by a dynamic program
//! over per-qubit busy times: a two-qubit gate on nuclei `(a, b)` starts
//! when both are free and occupies them for `W(a, b) · T(G)`; a
//! single-qubit gate occupies its nucleus for `W(a, a) · T(G)`. The
//! overall runtime is the finish time of the busiest nucleus. This is the
//! *overlapped* model ("gates from the next level can start being executed
//! before execution of the current level has completed"); the paper also
//! supports strictly sequential levels, available here as
//! [`ExecutionModel::Leveled`].
//!
//! §6 adds one refinement used throughout the experiments: "it is not
//! necessary to use an existing interaction more than three times to
//! realize any two-qubit unitary" (Zhang–Vala–Sastry–Whaley), so a run of
//! consecutive couplings on the same pair is charged at most `3 · W`
//! ([`CostModel::reuse_cap`]).

use qcp_circuit::{Circuit, Gate, Time};
use qcp_env::{Environment, PhysicalQubit};

use crate::Placement;

/// How levels are sequenced when computing runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ExecutionModel {
    /// The paper's default: gates start as soon as their qubits are free,
    /// regardless of level boundaries.
    #[default]
    Overlapped,
    /// Levels execute strictly one after another (a global barrier between
    /// levels).
    Leveled,
}

/// Cost-model configuration for runtime evaluation.
#[derive(Clone, Copy, PartialEq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostModel {
    /// Level sequencing.
    pub execution: ExecutionModel,
    /// Cap on the accumulated `T` of consecutive couplings on one pair
    /// (`Some(3.0)` per §6; `None` disables the optimization).
    pub reuse_cap: Option<f64>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            execution: ExecutionModel::Overlapped,
            reuse_cap: Some(3.0),
        }
    }
}

impl CostModel {
    /// The paper's model: overlapped execution, reuse cap 3.
    pub fn overlapped() -> Self {
        CostModel::default()
    }

    /// Strictly sequential levels, reuse cap 3.
    pub fn leveled() -> Self {
        CostModel {
            execution: ExecutionModel::Leveled,
            reuse_cap: Some(3.0),
        }
    }

    /// Disables the interaction-reuse cap (keeps the execution model).
    #[must_use]
    pub fn without_reuse_cap(mut self) -> Self {
        self.reuse_cap = None;
        self
    }
}

/// A gate bound to physical qubits, ready for costing.
#[derive(Clone, Copy, PartialEq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacedGate {
    /// First (or only) nucleus.
    pub a: PhysicalQubit,
    /// Second nucleus for two-qubit gates.
    pub b: Option<PhysicalQubit>,
    /// Time weight `T(G)` in 90°-pulse units.
    pub weight: f64,
}

impl PlacedGate {
    /// A single-qubit gate of weight `weight` on nucleus `a`.
    pub fn one(a: PhysicalQubit, weight: f64) -> Self {
        PlacedGate { a, b: None, weight }
    }

    /// A two-qubit gate of weight `weight` on nuclei `a`, `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two(a: PhysicalQubit, b: PhysicalQubit, weight: f64) -> Self {
        assert!(a != b, "two-qubit gate needs distinct nuclei");
        PlacedGate {
            a,
            b: Some(b),
            weight,
        }
    }

    /// A SWAP (weight 3 — three maximal couplings) on nuclei `a`, `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: PhysicalQubit, b: PhysicalQubit) -> Self {
        PlacedGate::two(a, b, 3.0)
    }
}

/// A fully placed executable: levels of [`PlacedGate`]s over the nuclei of
/// one environment.
#[derive(Clone, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schedule {
    levels: Vec<Vec<PlacedGate>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Binds a circuit to nuclei through a placement, level by level.
    ///
    /// # Panics
    ///
    /// Panics if the placement is narrower than the circuit.
    pub fn from_placed_circuit(circuit: &Circuit, placement: &Placement) -> Self {
        assert_placement_covers(circuit, placement);
        let mut s = Schedule::new();
        for level in circuit.levels() {
            let placed: Vec<PlacedGate> = level
                .gates()
                .iter()
                .map(|g| bind_gate(g, placement))
                .collect();
            s.levels.push(placed);
        }
        s
    }

    /// Appends one level of gates.
    pub fn push_level(&mut self, level: Vec<PlacedGate>) {
        self.levels.push(level);
    }

    /// Appends all levels of another schedule.
    pub fn extend(&mut self, other: &Schedule) {
        self.levels.extend(other.levels.iter().cloned());
    }

    /// The levels.
    pub fn levels(&self) -> &[Vec<PlacedGate>] {
        &self.levels
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Computes the runtime on `env` under `model`, starting from idle
    /// nuclei.
    pub fn runtime(&self, env: &Environment, model: &CostModel) -> Time {
        let mut engine = CostEngine::new(env, *model);
        engine.apply_schedule(self);
        engine.makespan()
    }
}

/// Incremental runtime evaluator — the paper's `Time[1..n]` array with the
/// reuse-cap bookkeeping. Forkable, so the placer can score candidate
/// continuations cheaply.
///
/// The reuse cap needs to know, per coupling gate on `(i, j)`, whether it
/// continues a run of consecutive couplings on that pair. Two slots per
/// nucleus answer it: `partner[i]`, the last coupling partner of `i`, and
/// `run[i]`, the accumulated `T` of the run `i` last joined. A gate on
/// `(i, j)` continues a run iff `partner[i] == j && partner[j] == i`: then
/// the last coupling gate on `i` and the last on `j` are one and the same
/// `(i, j)` gate, which wrote both `run` slots, so `run[i]` is that run's
/// total.
#[derive(Clone, Debug)]
pub struct CostEngine<'a> {
    env: &'a Environment,
    model: CostModel,
    times: Vec<f64>,
    /// Last coupling partner of each nucleus (`u32::MAX` for none, or
    /// after a costed single-qubit pulse broke the run).
    partner: Vec<u32>,
    /// Accumulated `T` of the run each nucleus last joined.
    run: Vec<f64>,
}

/// The `partner` slot of a nucleus with no live coupling run.
const NO_PARTNER: u32 = u32::MAX;

impl<'a> CostEngine<'a> {
    /// A fresh engine over idle nuclei.
    pub fn new(env: &'a Environment, model: CostModel) -> Self {
        let m = env.qubit_count();
        CostEngine {
            env,
            model,
            times: vec![0.0; m],
            partner: vec![NO_PARTNER; m],
            run: vec![0.0; m],
        }
    }

    /// Busy-until time of each nucleus, in delay units.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Rewinds this engine to the exact state of `other`, reusing this
    /// engine's allocations.
    ///
    /// This is the cheap half of the fork-arena pattern: the placer keeps
    /// one (or two, with lookahead) scratch engines alive and resets them
    /// per candidate instead of cloning a fresh `CostEngine` — the state is
    /// three vectors of one slot per nucleus, copied into buffers reused
    /// across thousands of scoring calls.
    ///
    /// # Panics
    ///
    /// Panics if the engines target different environments.
    pub fn copy_from(&mut self, other: &CostEngine<'a>) {
        assert!(
            std::ptr::eq(self.env, other.env),
            "fork arena engines must share an environment"
        );
        self.model = other.model;
        self.times.clone_from(&other.times);
        self.partner.clone_from(&other.partner);
        self.run.clone_from(&other.run);
    }

    /// Applies a circuit bound to nuclei through `placement`, level by
    /// level, without materializing an intermediate [`Schedule`].
    ///
    /// # Panics
    ///
    /// Panics if the placement is narrower than the circuit.
    pub fn apply_placed_circuit(&mut self, circuit: &Circuit, placement: &Placement) {
        assert_placement_covers(circuit, placement);
        for level in circuit.levels() {
            self.level_barrier();
            for g in level.gates() {
                let _ = self.apply_gate(&bind_gate(g, placement));
            }
        }
    }

    /// Applies levels of SWAP gates (weight 3 each) without materializing
    /// an intermediate [`Schedule`]. Takes any sequence of level slices: a
    /// [`SwapSchedule`](crate::router::SwapSchedule)'s `levels()`, or a
    /// router's swap buffer read level by level.
    pub fn apply_swap_levels<L>(&mut self, levels: impl IntoIterator<Item = L>)
    where
        L: AsRef<[(PhysicalQubit, PhysicalQubit)]>,
    {
        for level in levels {
            self.level_barrier();
            for &(a, b) in level.as_ref() {
                let _ = self.apply_gate(&PlacedGate::swap(a, b));
            }
        }
    }

    /// The finish time of the busiest nucleus.
    pub fn makespan(&self) -> Time {
        Time::from_units(self.times.iter().copied().fold(0.0, f64::max))
    }

    /// Applies one gate (overlapped semantics; level barriers are the
    /// caller's job and [`apply_schedule`](CostEngine::apply_schedule)
    /// handles them). Returns the gate's `(start, finish)` instants in
    /// delay units, which [`Timeline`](crate::timeline::Timeline) records.
    pub fn apply_gate(&mut self, gate: &PlacedGate) -> (f64, f64) {
        match gate.b {
            None => {
                let i = gate.a.index();
                let start = self.times[i];
                self.times[i] = start + self.env.weight_units(gate.a, gate.a) * gate.weight;
                // A foreign single-qubit pulse interrupts any coupling run
                // only if it costs time (free Rz gates commute with the
                // drift Hamiltonian bookkeeping).
                if gate.weight > 0.0 {
                    self.partner[i] = NO_PARTNER;
                }
                (start, self.times[i])
            }
            Some(b) => {
                let (i, j) = (gate.a.index(), b.index());
                let effective = match self.model.reuse_cap {
                    None => gate.weight,
                    Some(cap) => {
                        let continuing = self.partner[i] == j as u32 && self.partner[j] == i as u32;
                        let prev = if continuing { self.run[i] } else { 0.0 };
                        let total = prev + gate.weight;
                        self.run[i] = total;
                        self.run[j] = total;
                        total.min(cap) - prev.min(cap)
                    }
                };
                let start = self.times[i].max(self.times[j]);
                let delay = self.env.weight_units(gate.a, b);
                // An uncoupled pair can never host a coupling gate — not
                // even a reuse-capped continuation whose `effective` is
                // 0: `∞ × 0` is NaN, which `f64::max` silently drops
                // from the makespan, making impossible placements look
                // free to the hill-climbing refiners.
                let finish = if delay.is_finite() {
                    start + delay * effective
                } else {
                    f64::INFINITY
                };
                self.times[i] = finish;
                self.times[j] = finish;
                self.partner[i] = j as u32;
                self.partner[j] = i as u32;
                (start, finish)
            }
        }
    }

    /// Synchronizes all nuclei to the current makespan — the inter-level
    /// barrier of [`ExecutionModel::Leveled`].
    pub fn barrier(&mut self) {
        let barrier = self.times.iter().copied().fold(0.0, f64::max);
        for t in &mut self.times {
            *t = barrier;
        }
    }

    /// The start-of-level barrier: a no-op under
    /// [`ExecutionModel::Overlapped`], a global [`barrier`](Self::barrier)
    /// under [`ExecutionModel::Leveled`]. Every level-applying path
    /// (schedules, placed circuits, swap levels) goes through this one
    /// rule.
    #[inline]
    fn level_barrier(&mut self) {
        if self.model.execution == ExecutionModel::Leveled {
            self.barrier();
        }
    }

    /// Applies a whole level, inserting the global barrier first when the
    /// model is [`ExecutionModel::Leveled`].
    pub fn apply_level(&mut self, level: &[PlacedGate]) {
        self.level_barrier();
        for g in level {
            let _ = self.apply_gate(g);
        }
    }

    /// Applies every level of a schedule.
    pub fn apply_schedule(&mut self, schedule: &Schedule) {
        for level in schedule.levels() {
            self.apply_level(level);
        }
    }
}

/// Binds one circuit gate to nuclei through `placement`.
fn bind_gate(g: &Gate, placement: &Placement) -> PlacedGate {
    let (a, b) = g.qubits();
    PlacedGate {
        a: placement.physical(a),
        b: b.map(|q| placement.physical(q)),
        weight: g.time_weight(),
    }
}

/// Panics unless `placement` is at least as wide as `circuit`.
fn assert_placement_covers(circuit: &Circuit, placement: &Placement) {
    assert!(
        placement.logical_count() >= circuit.qubit_count(),
        "placement covers {} qubits but the circuit needs {}",
        placement.logical_count(),
        circuit.qubit_count()
    );
}

/// Convenience: the runtime of `circuit` on `env` under `placement`.
pub fn placed_runtime(
    circuit: &Circuit,
    env: &Environment,
    placement: &Placement,
    model: &CostModel,
) -> Time {
    Schedule::from_placed_circuit(circuit, placement).runtime(env, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library::qec3_encoder;
    use qcp_env::molecules::acetyl_chloride;

    fn p(i: usize) -> PhysicalQubit {
        PhysicalQubit::new(i)
    }

    /// Table 1: mapping a→M, b→C2, c→C1 costs 770 units; the optimum
    /// a→C2, b→C1, c→M costs 136. Nucleus order in the library molecule is
    /// M=0, C1=1, C2=2.
    #[test]
    fn table_1_exact_runtimes() {
        let env = acetyl_chloride();
        let circuit = qec3_encoder();
        let model = CostModel::overlapped();
        let bad = Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        assert_eq!(placed_runtime(&circuit, &env, &bad, &model).units(), 770.0);
        let best = Placement::new(vec![p(2), p(1), p(0)], 3).unwrap();
        assert_eq!(placed_runtime(&circuit, &env, &best, &model).units(), 136.0);
    }

    /// The intermediate columns of Table 1 for the 770-unit mapping.
    #[test]
    fn table_1_trace() {
        let env = acetyl_chloride();
        let circuit = qec3_encoder();
        let placement = Placement::new(vec![p(0), p(2), p(1)], 3).unwrap();
        let mut engine = CostEngine::new(&env, CostModel::overlapped());
        let mut snapshots = Vec::new();
        for level in Schedule::from_placed_circuit(&circuit, &placement).levels() {
            engine.apply_level(level);
            if level.iter().any(|g| g.weight > 0.0) {
                // Columns of Table 1 are the costed gates only.
                snapshots.push(engine.times().to_vec());
            }
        }
        // time[] rows are (a→M=p0, b→C2=p2, c→C1=p1) in Table 1 order a,b,c.
        let abc = |s: &Vec<f64>| (s[0], s[2], s[1]);
        assert_eq!(abc(&snapshots[0]), (8.0, 0.0, 0.0)); // Ya90
        assert_eq!(abc(&snapshots[1]), (680.0, 680.0, 0.0)); // ZZab90
        assert_eq!(abc(&snapshots[2]), (680.0, 680.0, 8.0)); // Yc90
        assert_eq!(abc(&snapshots[3]), (680.0, 769.0, 769.0)); // ZZbc90
        assert_eq!(abc(&snapshots[4]), (680.0, 770.0, 769.0)); // Yb90
    }

    #[test]
    fn overlap_beats_leveled() {
        // Two independent couplings on disjoint pairs in different levels:
        // overlapped model lets them run in parallel only if levelization
        // put them together; leveled inserts barriers.
        let env = qcp_env::molecules::lnn_chain(4, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 1.0)]);
        s.push_level(vec![PlacedGate::two(p(2), p(3), 1.0)]);
        let over = s.runtime(&env, &CostModel::overlapped());
        let lev = s.runtime(&env, &CostModel::leveled());
        assert_eq!(over.units(), 10.0, "disjoint pairs overlap");
        assert_eq!(lev.units(), 20.0, "levels serialize");
    }

    #[test]
    fn uncoupled_pair_is_infinite_even_past_the_reuse_cap() {
        // Regression: once the reuse cap zeroed `effective`, a coupling
        // gate on an uncoupled pair cost `∞ × 0 = NaN`, which the
        // makespan's `f64::max` fold silently dropped — impossible
        // placements then looked *free* to fine tuning and annealing.
        let env = qcp_env::molecules::lnn_chain(3, 10.0); // 0–1, 1–2 only
        let mut s = Schedule::new();
        for _ in 0..5 {
            s.push_level(vec![PlacedGate::two(p(0), p(2), 1.0)]);
        }
        let capped = s.runtime(&env, &CostModel::overlapped()).units();
        assert!(capped.is_infinite(), "got {capped}");
        let uncapped = s
            .runtime(&env, &CostModel::overlapped().without_reuse_cap())
            .units();
        assert!(uncapped.is_infinite(), "got {uncapped}");
    }

    #[test]
    fn reuse_cap_limits_same_pair_runs() {
        let env = qcp_env::molecules::lnn_chain(2, 10.0);
        let mut s = Schedule::new();
        for _ in 0..5 {
            s.push_level(vec![PlacedGate::two(p(0), p(1), 1.0)]);
        }
        // Capped: 5 consecutive ZZ(90) on one pair = min(5,3)*10 = 30.
        assert_eq!(s.runtime(&env, &CostModel::overlapped()).units(), 30.0);
        // Uncapped: 50.
        assert_eq!(
            s.runtime(&env, &CostModel::overlapped().without_reuse_cap())
                .units(),
            50.0
        );
    }

    #[test]
    fn reuse_run_broken_by_other_partner() {
        let env = qcp_env::molecules::lnn_chain(3, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 3.0)]);
        s.push_level(vec![PlacedGate::two(p(1), p(2), 3.0)]);
        s.push_level(vec![PlacedGate::two(p(0), p(1), 3.0)]);
        // Each run is fresh: 3 * 10 * 3 = 90.
        assert_eq!(s.runtime(&env, &CostModel::overlapped()).units(), 90.0);
    }

    #[test]
    fn reuse_run_survives_free_rz() {
        let env = qcp_env::molecules::lnn_chain(2, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 2.0)]);
        s.push_level(vec![PlacedGate::one(p(0), 0.0)]); // free Rz
        s.push_level(vec![PlacedGate::two(p(0), p(1), 2.0)]);
        // Still one run: min(4, 3) * 10 = 30.
        assert_eq!(s.runtime(&env, &CostModel::overlapped()).units(), 30.0);
    }

    #[test]
    fn costed_pulse_breaks_reuse_run() {
        let env = qcp_env::molecules::lnn_chain(2, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::two(p(0), p(1), 2.0)]);
        s.push_level(vec![PlacedGate::one(p(0), 1.0)]); // real pulse
        s.push_level(vec![PlacedGate::two(p(0), p(1), 2.0)]);
        // Two runs of 2 each + the pulse: 20 + 1*1 + 20 = 41.
        assert_eq!(s.runtime(&env, &CostModel::overlapped()).units(), 41.0);
    }

    #[test]
    fn swap_costs_three_couplings() {
        let env = qcp_env::molecules::lnn_chain(2, 10.0);
        let mut s = Schedule::new();
        s.push_level(vec![PlacedGate::swap(p(0), p(1))]);
        assert_eq!(s.runtime(&env, &CostModel::overlapped()).units(), 30.0);
    }

    #[test]
    fn empty_schedule_is_free() {
        let env = acetyl_chloride();
        assert!(Schedule::new()
            .runtime(&env, &CostModel::default())
            .is_zero());
    }

    #[test]
    fn engine_fork_scores_candidates_independently() {
        let env = qcp_env::molecules::lnn_chain(3, 10.0);
        let mut engine = CostEngine::new(&env, CostModel::overlapped());
        engine.apply_gate(&PlacedGate::two(p(0), p(1), 1.0));
        let fork = engine.clone();
        engine.apply_gate(&PlacedGate::two(p(1), p(2), 1.0));
        assert_eq!(engine.makespan().units(), 20.0);
        assert_eq!(fork.makespan().units(), 10.0);
    }
}
