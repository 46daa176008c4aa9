//! Canonicalization-keyed placement result cache.
//!
//! The paper's graph-monomorphism formulation (§5) is blind to qubit
//! labels: two circuits that differ only by a relabelling of their
//! qubits induce isomorphic interaction graphs, and a placement of one
//! is — after renaming — a placement of the other. Under serve or batch
//! traffic the same handful of interaction patterns (Bell/GHZ/QFT
//! variants) arrive over and over, so this module recognises repeats in
//! polynomial time and reuses their results:
//!
//! 1. [`CanonicalCircuit::of`] computes an **exact** canonical form of a
//!    circuit: a label-independent [`CanonicalFingerprint`] plus the
//!    canonical qubit order that witnesses it. The form is read off the
//!    gate sequence itself (see *Exactness*), with no interaction-graph
//!    canonicalization, so it is collision-free for relabelled circuits
//!    and a fingerprint match plus witness remap can never hand one
//!    circuit a placement that is invalid for it.
//! 2. [`PlacementCache`] is a bounded, concurrency-safe map from
//!    [`CacheKey`] (canonical circuit × environment × full placer
//!    configuration, all value-derived) to a stored
//!    [`PlacementOutcome`] plus its inserting circuit's canonical
//!    order.
//! 3. On a hit, [`remap_outcome`] rewrites the stored outcome onto the
//!    requesting circuit's qubit labels through the two canonical
//!    orders. Physical-space data (SWAP schedules, the placed
//!    [`Schedule`](crate::Schedule), the runtime) is shared verbatim;
//!    only logical-space data (each stage's [`Placement`] and
//!    subcircuit) is renamed. The remapped outcome re-certifies under
//!    `qcp_verify` because renaming logical qubits consistently across
//!    circuit and placement leaves every physical event unchanged.
//!
//! # Exactness
//!
//! Each qubit is described by its **role list**: the ordered sequence,
//! over the circuit's flat gate sequence, of `(gate position, role, gate
//! kind)` entries in which it participates (role: single-qubit operand,
//! first/second operand of an ordered two-qubit gate, or operand of a
//! symmetric gate). Relabelling a circuit permutes qubits but preserves
//! gate order, so role lists are relabelling-invariant. Qubits are sorted
//! by `(role list, original index)`; the original-index tie-break is
//! harmless because two qubits with *identical* role lists necessarily
//! share every gate they touch, which forces all those gates to be
//! symmetric two-qubit gates on exactly that pair — their transposition
//! is then an automorphism of the circuit encoding (which writes
//! symmetric gates with sorted operands), so either order yields the same
//! fingerprint. Idle qubits (empty role lists) are likewise
//! interchangeable. The fingerprint hashes the full gate sequence in
//! canonical labels, so distinct canonical circuits collide only by a
//! 128-bit hash collision.
//!
//! Gate positions make the order canonical even where the interaction
//! graph is maximally symmetric (disjoint unions of equal rings defeat
//! Weisfeiler–Leman refinement and blow up individualization search):
//! canonicalization is two passes over the gate list and one sort, with
//! no search whose budget an adversarial circuit could exhaust, so every
//! circuit is cacheable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use qcp_circuit::{Circuit, Gate, Qubit};
use qcp_env::Environment;
use qcp_graph::canonical::{CanonicalFingerprint, FingerprintHasher};

use crate::placement::Placement;
use crate::placer::{PlacementOutcome, PlacerConfig, Stage};
use crate::strategy::Strategy;

/// A placement-problem cache key: 128-bit hash over the canonical
/// circuit, the environment's delay/coupling tables, and every
/// outcome-affecting [`PlacerConfig`] field. Derived *only* from values
/// (never from names or file paths), so equal keys mean equal problems
/// by construction and there is nothing to invalidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The raw 128-bit key.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Collapses `-0.0` onto `0.0` before taking bit patterns, so the two
/// spellings of zero hash identically.
fn f64_bits(x: f64) -> u64 {
    if x == 0.0 { 0.0f64 } else { x }.to_bits()
}

/// The exact canonical form of a circuit (see the module docs).
#[derive(Clone, Debug)]
pub struct CanonicalCircuit {
    /// Label-independent fingerprint of the whole circuit.
    pub fingerprint: CanonicalFingerprint,
    /// `order[i]` is the original qubit occupying canonical position `i`.
    pub order: Vec<Qubit>,
    /// Always `false`: the role-list canonical form has no search that
    /// could run out, so every form is a sound sharing key. Kept so
    /// existing readers still compile; the field is slated for removal.
    pub exhausted: bool,
}

/// A qubit's participation in one gate: `(flat gate position, role,
/// parameter hash)`. Roles: 0 = single-qubit operand, 1/2 = first or
/// second operand of an ordered two-qubit gate, 3 = operand of a
/// physically symmetric gate (`Zz`, `Swap`).
type RoleEntry = (u64, u8, u64);

/// Hashes a gate's kind and parameters — everything except its qubits.
fn gate_kind(gate: &Gate) -> u64 {
    let mut h = FingerprintHasher::new();
    match gate {
        Gate::Rx { angle, .. } => h.mix(1).mix(f64_bits(*angle)),
        Gate::Ry { angle, .. } => h.mix(2).mix(f64_bits(*angle)),
        Gate::Rz { angle, .. } => h.mix(3).mix(f64_bits(*angle)),
        Gate::Zz { angle, .. } => h.mix(4).mix(f64_bits(*angle)),
        Gate::Swap { .. } => h.mix(5),
        Gate::Custom1 { weight, name, .. } => {
            h.mix(6).mix(f64_bits(*weight)).mix_bytes(name.as_bytes())
        }
        Gate::Custom2 { weight, name, .. } => {
            h.mix(7).mix(f64_bits(*weight)).mix_bytes(name.as_bytes())
        }
    };
    h.finish().fold64()
}

/// Is the gate invariant under swapping its two operands? `Zz` commutes
/// by symmetry of the Ising coupling and `Swap` by definition;
/// `Custom2` is opaque and must be treated as ordered.
fn is_symmetric(gate: &Gate) -> bool {
    matches!(gate, Gate::Zz { .. } | Gate::Swap { .. })
}

impl CanonicalCircuit {
    /// Canonicalizes `circuit`. Cost is two passes over the gate list
    /// plus one sort of the qubits by role list.
    pub fn of(circuit: &Circuit) -> CanonicalCircuit {
        let n = circuit.qubit_count();

        // Role lists: relabelling-invariant per-qubit gate traces.
        let mut roles: Vec<Vec<RoleEntry>> = vec![Vec::new(); n];
        for (pos, gate) in circuit.gates().enumerate() {
            let kind = gate_kind(gate);
            let p = pos as u64;
            match gate.qubits() {
                (a, None) => roles[a.index()].push((p, 0, kind)),
                (a, Some(b)) if is_symmetric(gate) => {
                    roles[a.index()].push((p, 3, kind));
                    roles[b.index()].push((p, 3, kind));
                }
                (a, Some(b)) => {
                    roles[a.index()].push((p, 1, kind));
                    roles[b.index()].push((p, 2, kind));
                }
            }
        }

        // Canonical order: role list, then index (the index tie-break
        // is automorphism-safe; see the module docs).
        let mut order: Vec<Qubit> = (0..n).map(Qubit::new).collect();
        order.sort_by(|&a, &b| (&roles[a.index()], a).cmp(&(&roles[b.index()], b)));
        let mut canonical_index = vec![0u64; n];
        for (i, q) in order.iter().enumerate() {
            canonical_index[q.index()] = i as u64;
        }

        // Fingerprint: the full gate sequence (with level boundaries) in
        // canonical labels.
        let mut h = FingerprintHasher::new();
        h.mix(n as u64).mix(circuit.gate_count() as u64);
        for level in circuit.levels() {
            h.mix(leve_u64_marker());
            for gate in level.gates() {
                h.mix(gate_kind(gate));
                match gate.qubits() {
                    (a, None) => {
                        h.mix(canonical_index[a.index()]);
                    }
                    (a, Some(b)) => {
                        let (ca, cb) = (canonical_index[a.index()], canonical_index[b.index()]);
                        // Symmetric gates are written with sorted
                        // operands so an operand swap (or the
                        // transposition of a tied pair) cannot change
                        // the encoding.
                        if is_symmetric(gate) {
                            h.mix(ca.min(cb)).mix(ca.max(cb));
                        } else {
                            h.mix(ca).mix(cb);
                        }
                    }
                }
            }
        }
        CanonicalCircuit {
            fingerprint: h.finish(),
            order,
            exhausted: false,
        }
    }
}

/// Level-boundary marker mixed between levels of the fingerprint.
fn leve_u64_marker() -> u64 {
    0x4c45_5645_4c21_0000
}

/// Hashes everything about an environment that placement can observe:
/// qubit count, per-nucleus single-qubit delays, and the full coupling
/// table in weight units (`∞` for uncoupled pairs hashes as `∞`).
pub fn env_fingerprint(env: &Environment) -> u64 {
    let n = env.qubit_count();
    let mut h = FingerprintHasher::new();
    h.mix(n as u64);
    for v in 0..n {
        h.mix(f64_bits(
            env.single_qubit_delay(qcp_env::PhysicalQubit::new(v))
                .units(),
        ));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            h.mix(f64_bits(env.weight_units(
                qcp_env::PhysicalQubit::new(a),
                qcp_env::PhysicalQubit::new(b),
            )));
        }
    }
    h.finish().fold64()
}

/// Hashes every [`PlacerConfig`] field that can change an outcome.
pub fn config_fingerprint(config: &PlacerConfig) -> u64 {
    let mut h = FingerprintHasher::new();
    h.mix(f64_bits(config.threshold.units()))
        .mix(config.max_candidates as u64)
        .mix(u64::from(config.lookahead))
        .mix(config.fine_tune_rounds as u64);
    h.mix(match config.cost_model.execution {
        crate::cost::ExecutionModel::Overlapped => 1,
        crate::cost::ExecutionModel::Leveled => 2,
    });
    match config.cost_model.reuse_cap {
        Some(cap) => h.mix(1).mix(f64_bits(cap)),
        None => h.mix(0),
    };
    h.mix(u64::from(config.router.leaf_override))
        .mix(u64::from(config.extraction.commutation_aware));
    match config.extraction.max_gates {
        Some(m) => h.mix(1).mix(m as u64),
        None => h.mix(0),
    };
    h.mix(match config.strategy {
        Strategy::Exact => 1,
        Strategy::Anneal => 2,
        Strategy::Hybrid => 3,
    });
    match config.budget.max_nodes {
        Some(nodes) => h.mix(1).mix(nodes),
        None => h.mix(0),
    };
    match config.budget.deadline {
        Some(d) => h.mix(1).mix(d.as_nanos() as u64),
        None => h.mix(0),
    };
    h.mix(config.anneal.iterations as u64)
        .mix(config.anneal.seed);
    h.finish().fold64()
}

/// Combines the three value-derived fingerprints into one key. Every
/// layer (CLI, batch, serve) obtains keys through
/// [`PlaceRequest::cache_key`](crate::request::PlaceRequest::cache_key),
/// which calls this — there is exactly one keying function.
pub fn cache_key(
    canonical: &CanonicalCircuit,
    env: &Environment,
    config: &PlacerConfig,
) -> CacheKey {
    let mut h = FingerprintHasher::new();
    h.mix(canonical.fingerprint.fold64())
        .mix(env_fingerprint(env))
        .mix(config_fingerprint(config));
    CacheKey(h.finish().as_u128())
}

/// Rewrites `outcome` (placed for a circuit with canonical order
/// `stored_order`) onto the labels of a requesting circuit with
/// canonical order `request_order`.
///
/// Physical-space data is cloned verbatim; each stage's placement and
/// subcircuit are renamed through `map[stored qubit] = request qubit`
/// (qubits at the same canonical position correspond). Returns `None`
/// if the orders are inconsistent (different widths — impossible for
/// equal fingerprints — or a placement that fails validation), which
/// callers treat as a cache miss.
pub fn remap_outcome(
    outcome: &PlacementOutcome,
    stored_order: &[Qubit],
    request_order: &[Qubit],
) -> Option<PlacementOutcome> {
    if stored_order.len() != request_order.len() {
        return None;
    }
    let width = stored_order.len();
    if stored_order == request_order {
        return Some(outcome.clone());
    }
    let mut map: Vec<Qubit> = vec![Qubit::new(0); width];
    for (stored, requested) in stored_order.iter().zip(request_order) {
        if stored.index() >= width || requested.index() >= width {
            return None;
        }
        map[stored.index()] = *requested;
    }
    let mut stages = Vec::with_capacity(outcome.stages.len());
    for stage in &outcome.stages {
        let old = &stage.placement;
        let mut assignment = vec![qcp_env::PhysicalQubit::new(0); old.logical_count()];
        for logical in 0..old.logical_count() {
            let stored = Qubit::new(logical);
            assignment[map[logical].index()] = old.physical(stored);
        }
        let placement = Placement::new(assignment, old.physical_count()).ok()?;
        let subcircuit = stage.subcircuit.map_qubits(width, |q| map[q.index()]);
        stages.push(Stage {
            placement,
            swaps: stage.swaps.clone(),
            subcircuit,
        });
    }
    Some(PlacementOutcome {
        stages,
        schedule: outcome.schedule.clone(),
        runtime: outcome.runtime,
        resolution: outcome.resolution,
    })
}

/// One stored result: the outcome, the inserting circuit's canonical
/// order (the isomorphism witness), and an LRU tick.
struct CacheEntry {
    outcome: PlacementOutcome,
    order: Vec<Qubit>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<u128, CacheEntry>,
    tick: u64,
}

/// A bounded, concurrency-safe placement result cache.
///
/// Eviction is least-recently-used via a tick counter; the eviction
/// scan is `O(len)` but `len` is bounded by the configured capacity
/// (hundreds at most), so it is noise next to a placement. Capacity 0
/// disables the cache entirely: every lookup misses and inserts are
/// dropped. Counters are atomics so readers (stats endpoints) never
/// contend with the map lock.
pub struct PlacementCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    remapped: AtomicU64,
}

impl std::fmt::Debug for PlacementCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlacementCache {
    /// A cache holding at most `capacity` outcomes (0 disables caching).
    pub fn new(capacity: usize) -> PlacementCache {
        PlacementCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            remapped: AtomicU64::new(0),
        }
    }

    /// Configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (includes remapped hits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits that required a witness remap (the requester's labels
    /// differed from the inserting circuit's).
    pub fn remapped(&self) -> u64 {
        self.remapped.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding the lock cannot corrupt the map (all
        // mutations are single assignments); recover instead of
        // propagating poison.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` and, on a hit, rewrites the stored outcome onto
    /// the labels witnessed by `request_order`. The boolean reports
    /// whether a (non-identity) remap happened.
    pub fn lookup(
        &self,
        key: CacheKey,
        request_order: &[Qubit],
    ) -> Option<(PlacementOutcome, bool)> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let result = match inner.map.get_mut(&key.as_u128()) {
            Some(entry) => {
                entry.last_used = tick;
                remap_outcome(&entry.outcome, &entry.order, request_order)
                    .map(|outcome| (outcome, entry.order != request_order))
            }
            None => None,
        };
        drop(inner);
        match result {
            Some((outcome, was_remapped)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if was_remapped {
                    self.remapped.fetch_add(1, Ordering::Relaxed);
                }
                Some((outcome, was_remapped))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an outcome under `key` with its witness order, evicting
    /// the least-recently-used entry if at capacity. No-op when the
    /// cache is disabled.
    pub fn insert(&self, key: CacheKey, order: Vec<Qubit>, outcome: PlacementOutcome) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key.as_u128()) {
            if let Some(&oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key.as_u128(),
            CacheEntry {
                outcome,
                order,
                last_used: tick,
            },
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qcp_circuit::library;
    use qcp_env::{molecules, Threshold};

    fn permuted(circuit: &Circuit, perm: &[usize]) -> Circuit {
        circuit.map_qubits(circuit.qubit_count(), |q| Qubit::new(perm[q.index()]))
    }

    #[test]
    fn relabelled_circuits_share_fingerprints() {
        for circuit in [
            library::qft(4),
            library::qec3_encoder(),
            library::pseudo_cat(5),
        ] {
            let n = circuit.qubit_count();
            let base = CanonicalCircuit::of(&circuit);
            let reversed: Vec<usize> = (0..n).rev().collect();
            let rotated: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
            for perm in [reversed, rotated] {
                let relabelled = CanonicalCircuit::of(&permuted(&circuit, &perm));
                assert_eq!(relabelled.fingerprint, base.fingerprint);
            }
        }
    }

    #[test]
    fn different_circuits_have_distinct_fingerprints() {
        let qft = CanonicalCircuit::of(&library::qft(4));
        let cat = CanonicalCircuit::of(&library::pseudo_cat(4));
        assert_ne!(qft.fingerprint, cat.fingerprint);
        // Same interaction graph, different angles → different problem.
        let mut a = Circuit::builder(2);
        a.gate(Gate::zz(Qubit::new(0), Qubit::new(1), 90.0));
        let mut b = Circuit::builder(2);
        b.gate(Gate::zz(Qubit::new(0), Qubit::new(1), 45.0));
        let (ca, cb) = (
            CanonicalCircuit::of(&a.build()),
            CanonicalCircuit::of(&b.build()),
        );
        assert_ne!(ca.fingerprint, cb.fingerprint);
    }

    /// Disjoint rings of `zz` couplings with the given lengths: every
    /// qubit has degree 2, so Weisfeiler–Leman refinement cannot tell any
    /// two qubits apart and only the gate order does.
    pub(crate) fn ring_union(lengths: &[usize]) -> Circuit {
        let mut b = Circuit::builder(lengths.iter().sum());
        let mut base = 0;
        for &len in lengths {
            for i in 0..len {
                b.gate(Gate::zz(
                    Qubit::new(base + i),
                    Qubit::new(base + (i + 1) % len),
                    90.0,
                ));
            }
            base += len;
        }
        b.build()
    }

    #[test]
    fn wl_equivalent_ring_unions_are_told_apart() {
        // All three circuits have 8 qubits, 8 gates and every qubit of
        // degree 2, so colour refinement cannot separate their
        // interaction graphs; the gate-sequence form must.
        let forms: Vec<CanonicalCircuit> = [&[8][..], &[4, 4], &[3, 5]]
            .iter()
            .map(|lengths| CanonicalCircuit::of(&ring_union(lengths)))
            .collect();
        for i in 0..forms.len() {
            for j in (i + 1)..forms.len() {
                assert_ne!(forms[i].fingerprint, forms[j].fingerprint, "{i} vs {j}");
            }
        }
        // A relabelling still collides with its original, and the
        // composed witness is the relabelling itself.
        let circuit = ring_union(&[4, 4]);
        let perm = [5, 2, 7, 0, 3, 6, 1, 4];
        let relabelled = CanonicalCircuit::of(&permuted(&circuit, &perm));
        assert_eq!(relabelled.fingerprint, forms[1].fingerprint);
        for (stored, requested) in forms[1].order.iter().zip(&relabelled.order) {
            assert_eq!(perm[stored.index()], requested.index());
        }
    }

    #[test]
    fn cache_round_trips_identity_and_remap() {
        let env = molecules::acetyl_chloride();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        let circuit = library::qec3_encoder();
        let canon = CanonicalCircuit::of(&circuit);
        let key = cache_key(&canon, &env, &config);

        let placer = crate::Placer::new(&env, config.clone());
        let outcome = placer.place(&circuit).expect("place");

        let cache = PlacementCache::new(8);
        assert!(cache.lookup(key, &canon.order).is_none());
        cache.insert(key, canon.order.clone(), outcome.clone());

        // Identity hit: same circuit back, no remap.
        let (hit, remapped) = cache.lookup(key, &canon.order).expect("hit");
        assert!(!remapped);
        assert_eq!(hit.runtime, outcome.runtime);
        assert_eq!(hit.stages[0].placement, outcome.stages[0].placement);

        // Relabelled hit: same key, remapped witness.
        let perm: Vec<usize> = (0..circuit.qubit_count()).rev().collect();
        let relabelled = permuted(&circuit, &perm);
        let canon_b = CanonicalCircuit::of(&relabelled);
        assert_eq!(cache_key(&canon_b, &env, &config), key);
        let (hit_b, remapped_b) = cache.lookup(key, &canon_b.order).expect("hit");
        assert!(remapped_b);
        assert_eq!(hit_b.runtime, outcome.runtime);
        // The remapped placement must place the *relabelled* circuit's
        // qubits on the same nuclei the original's images used.
        for (stored, requested) in canon.order.iter().zip(&canon_b.order) {
            assert_eq!(
                hit_b.stages[0].placement.physical(*requested),
                outcome.stages[0].placement.physical(*stored),
            );
        }
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.remapped(), 1);
    }

    #[test]
    fn lru_eviction_is_bounded() {
        let env = molecules::acetyl_chloride();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        let placer = crate::Placer::new(&env, config.clone());
        let cache = PlacementCache::new(2);
        let circuits = [
            library::qec3_encoder(),
            library::pseudo_cat(3),
            library::qft(3),
        ];
        let mut keys = Vec::new();
        for circuit in &circuits {
            let canon = CanonicalCircuit::of(circuit);
            let key = cache_key(&canon, &env, &config);
            let outcome = placer.place(circuit).expect("place");
            cache.insert(key, canon.order.clone(), outcome);
            keys.push((key, canon.order));
        }
        assert_eq!(cache.len(), 2);
        // The first insert is the least recently used → evicted.
        assert!(cache.lookup(keys[0].0, &keys[0].1).is_none());
        assert!(cache.lookup(keys[2].0, &keys[2].1).is_some());
    }

    #[test]
    fn capacity_zero_disables() {
        let cache = PlacementCache::new(0);
        let env = molecules::acetyl_chloride();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        let circuit = library::qec3_encoder();
        let canon = CanonicalCircuit::of(&circuit);
        let key = cache_key(&canon, &env, &config);
        let outcome = crate::Placer::new(&env, config)
            .place(&circuit)
            .expect("place");
        cache.insert(key, canon.order.clone(), outcome);
        assert!(cache.lookup(key, &canon.order).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn config_changes_change_the_key() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let canon = CanonicalCircuit::of(&circuit);
        let base = PlacerConfig::with_threshold(Threshold::new(100.0));
        let key = cache_key(&canon, &env, &base);
        let mut other = base.clone();
        other.strategy = Strategy::Hybrid;
        assert_ne!(cache_key(&canon, &env, &other), key);
        let mut budgeted = base.clone();
        budgeted.budget = crate::SearchBudget::nodes(1_000);
        assert_ne!(cache_key(&canon, &env, &budgeted), key);
        // A different environment changes the key too.
        let other_env = molecules::trans_crotonic_acid();
        assert_ne!(cache_key(&canon, &other_env, &base), key);
    }
}
