//! Parallel batch placement: N circuits × M environments through a pool
//! of worker threads.
//!
//! A single [`crate::Placer`] call is fast but single-threaded; serving
//! heavy traffic means running many independent placement requests at
//! once. [`BatchPlacer`] fans a request list out across
//! `std::thread::scope` workers (work-stealing over an atomic cursor, one
//! placer and cost-engine arena per in-flight request, the dedup cache
//! the only shared state) and collects per-request [`BatchResult`]s plus
//! an aggregate [`BatchReport`].
//!
//! Every request runs through the same executor as the CLI and the
//! `qcp serve` daemon ([`execute_with`]). With dedup on, a batch-scoped
//! [`PlacementCache`] lets the first request of each
//! [`PlaceRequest::cache_key`] answer its repeats (see
//! [`BatchPlacer::dedup`]).
//!
//! Results are **deterministic**: the placement pipeline has no data
//! races to hide (each request is independent and the placer itself is
//! deterministic), repeats are answered in request order after every
//! first request has been placed, and the report lists results in
//! request order, so the outcomes are bit-identical whatever the worker
//! count — only the wall clock changes.
//! [`BatchReport::outcome_fingerprint`] condenses that guarantee into one
//! comparable hash.
//!
//! Jobs are **panic-isolated**: every placement runs under
//! `catch_unwind` on its worker, so one poisoned request (a placement
//! bug, a tripped debug assertion) surfaces as a per-job
//! [`PlaceError::Internal`] result while the other jobs — and the worker
//! thread itself — carry on. This is the same failure domain the
//! `qcp serve` daemon builds on.
//!
//! # Example
//!
//! ```
//! use qcp_circuit::library;
//! use qcp_env::{molecules, topologies, Threshold};
//! use qcp_place::batch::BatchPlacer;
//! use qcp_place::PlacerConfig;
//!
//! let circuits = [library::qec3_encoder(), library::qft(4)];
//! let envs = [
//!     molecules::trans_crotonic_acid(),
//!     topologies::grid(2, 3, topologies::Delays::default()),
//! ];
//! let report = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default())
//!     .jobs(2)
//!     .run();
//! assert_eq!(report.results.len(), 4);
//! assert_eq!(report.failed(), 0);
//! // Same requests, one worker: identical outcomes.
//! let serial = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default())
//!     .jobs(1)
//!     .run();
//! assert_eq!(report.outcome_fingerprint(), serial.outcome_fingerprint());
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qcp_circuit::{Circuit, Time};
use qcp_env::Environment;

use crate::cache::PlacementCache;
use crate::request::{execute_with, PlaceRequest};
use crate::strategy::Resolution;
use crate::{PlaceError, PlacementOutcome, PlacerConfig};

/// One placement request: a circuit to run on an environment under a
/// placer configuration.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// Display label carried into the result (e.g. `qft6@grid-8x8`).
    pub label: String,
    /// The circuit to place.
    pub circuit: Circuit,
    /// The target environment (molecule or synthesized device backend).
    pub environment: Environment,
    /// Placer configuration, including the fast-interaction threshold.
    pub config: PlacerConfig,
}

impl BatchRequest {
    /// Creates a request with an explicit label.
    pub fn new(
        label: impl Into<String>,
        circuit: Circuit,
        environment: Environment,
        config: PlacerConfig,
    ) -> Self {
        BatchRequest {
            label: label.into(),
            circuit,
            environment,
            config,
        }
    }
}

/// The outcome of one [`BatchRequest`], in request order within
/// [`BatchReport::results`].
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Index of the request this result answers.
    pub index: usize,
    /// Label copied from the request.
    pub label: String,
    /// The placement outcome, or the error the pipeline reported.
    pub outcome: Result<PlacementOutcome, PlaceError>,
    /// Wall-clock time this single request took on its worker.
    pub elapsed: Duration,
}

impl BatchResult {
    /// How the placement was obtained (`None` for failed requests) —
    /// exact, heuristic fallback, or budget-exhausted fallback.
    pub fn resolution(&self) -> Option<Resolution> {
        self.outcome.as_ref().ok().map(|o| o.resolution)
    }
}

/// A parallel batch-placement driver.
///
/// Build one with [`BatchPlacer::new`] (explicit requests) or
/// [`BatchPlacer::cross`] / [`BatchPlacer::cross_auto`] (the N × M
/// product of circuits and environments), choose a worker count with
/// [`jobs`](BatchPlacer::jobs), and call [`run`](BatchPlacer::run).
#[derive(Clone, Debug)]
pub struct BatchPlacer {
    requests: Vec<BatchRequest>,
    jobs: usize,
    dedup: bool,
}

impl BatchPlacer {
    /// A driver over an explicit request list.
    pub fn new(requests: Vec<BatchRequest>) -> Self {
        BatchPlacer {
            requests,
            jobs: 0,
            dedup: true,
        }
    }

    /// The N × M cross product: every circuit on every environment, all
    /// under `config` (circuit-major request order, labels
    /// `c<i>@<env name>`).
    pub fn cross(
        circuits: &[Circuit],
        environments: &[Environment],
        config: &PlacerConfig,
    ) -> Self {
        Self::cross_with(circuits, environments, |_| config.clone())
    }

    /// Like [`cross`](BatchPlacer::cross), but each environment gets its
    /// own connectivity threshold ([`Environment::connectivity_threshold`],
    /// the paper's automatic choice) in place of `base.threshold`;
    /// disconnected environments keep `base.threshold`.
    pub fn cross_auto(
        circuits: &[Circuit],
        environments: &[Environment],
        base: &PlacerConfig,
    ) -> Self {
        Self::cross_with(circuits, environments, |env| {
            let mut config = base.clone();
            if let Some(t) = env.connectivity_threshold() {
                config.threshold = t;
            }
            config
        })
    }

    /// Like [`cross`](BatchPlacer::cross), but with caller-supplied
    /// circuit names: labels become `<name>@<env name>`. This is the
    /// ingestion path for external circuit files (e.g. an OpenQASM corpus
    /// directory), where the file stem makes the batch report readable.
    pub fn cross_named(
        circuits: &[(String, Circuit)],
        environments: &[Environment],
        config: &PlacerConfig,
    ) -> Self {
        Self::cross_named_with(circuits, environments, |_| config.clone())
    }

    /// [`cross_named`](BatchPlacer::cross_named) with the per-environment
    /// automatic threshold of [`cross_auto`](BatchPlacer::cross_auto).
    pub fn cross_named_auto(
        circuits: &[(String, Circuit)],
        environments: &[Environment],
        base: &PlacerConfig,
    ) -> Self {
        Self::cross_named_with(circuits, environments, |env| {
            let mut config = base.clone();
            if let Some(t) = env.connectivity_threshold() {
                config.threshold = t;
            }
            config
        })
    }

    fn cross_with(
        circuits: &[Circuit],
        environments: &[Environment],
        config_for: impl FnMut(&Environment) -> PlacerConfig,
    ) -> Self {
        // Synthetic `c<i>` labels; circuits are only cloned per request.
        let named = circuits
            .iter()
            .enumerate()
            .map(|(ci, c)| (format!("c{ci}"), c));
        Self::cross_pairs_with(named, environments, config_for)
    }

    fn cross_named_with(
        circuits: &[(String, Circuit)],
        environments: &[Environment],
        config_for: impl FnMut(&Environment) -> PlacerConfig,
    ) -> Self {
        let named = circuits.iter().map(|(name, c)| (name.clone(), c));
        Self::cross_pairs_with(named, environments, config_for)
    }

    fn cross_pairs_with<'a>(
        circuits: impl IntoIterator<Item = (String, &'a Circuit)>,
        environments: &[Environment],
        mut config_for: impl FnMut(&Environment) -> PlacerConfig,
    ) -> Self {
        let configs: Vec<PlacerConfig> = environments.iter().map(&mut config_for).collect();
        let requests = circuits
            .into_iter()
            .flat_map(|(name, circuit)| {
                environments.iter().zip(&configs).map(move |(env, config)| {
                    BatchRequest::new(
                        format!("{name}@{}", env.name()),
                        circuit.clone(),
                        env.clone(),
                        config.clone(),
                    )
                })
            })
            .collect();
        BatchPlacer::new(requests)
    }

    /// Sets the worker count. `0` (the default) uses
    /// [`std::thread::available_parallelism`]; any value is additionally
    /// capped at the request count.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables or disables cross-batch deduplication (on by default).
    ///
    /// With dedup on, requests sharing a [`PlaceRequest::cache_key`]
    /// (the same circuit up to a qubit relabelling × same environment ×
    /// same configuration) are placed once. The first request of each
    /// key is placed and stored in a batch-scoped [`PlacementCache`];
    /// every later one (a *repeat*) is answered from that cache, in
    /// request order, with the first request's placement rewritten onto
    /// its own qubit labels by the canonical witness remap. A repeat of
    /// a failed first request gets the same error.
    ///
    /// An exact repeat therefore gets exactly the answer it would get on
    /// its own. A relabelled repeat gets the first request's placement on
    /// its own labels, which can differ from, and be worse or better
    /// than, placing it fresh: the order in which the search visits
    /// candidates depends on the qubit labels. Every circuit has an exact
    /// canonical form, so every relabelled repeat is found, including
    /// repeats of symmetric circuits such as disjoint rings.
    /// [`BatchReport::deduped`] counts the repeats.
    #[must_use]
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// The requests this driver will run, in result order.
    pub fn requests(&self) -> &[BatchRequest] {
        &self.requests
    }

    /// Places every request and aggregates the results.
    ///
    /// The first request of each dedup key is handed out to the workers
    /// over an atomic cursor (work stealing keeps the workers busy even
    /// when request costs are skewed); each is placed exactly once. The
    /// repeats are then answered in request order from the batch cache,
    /// and the report lists results in request order regardless of which
    /// worker finished what when.
    pub fn run(&self) -> BatchReport {
        let started = Instant::now();
        let requests: Vec<PlaceRequest<'_>> = self
            .requests
            .iter()
            .map(|r| PlaceRequest::new(&r.circuit, &r.environment).config(r.config.clone()))
            .collect();
        let n = requests.len();

        // `first_of[i]` is the first request sharing request i's cache
        // key (i itself for a first request, and for every request when
        // dedup is off).
        let mut first_of: Vec<usize> = (0..n).collect();
        if self.dedup {
            let mut first_with_key = HashMap::new();
            for (i, request) in requests.iter().enumerate() {
                first_of[i] = *first_with_key.entry(request.cache_key()).or_insert(i);
            }
        }
        let firsts: Vec<usize> = (0..n).filter(|&i| first_of[i] == i).collect();
        let cache = self.dedup.then(|| PlacementCache::new(firsts.len()));
        let place = |i: usize| place_one(i, &self.requests[i].label, &requests[i], cache.as_ref());

        let jobs = match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            j => j,
        }
        .clamp(1, firsts.len().max(1));
        let mut slots: Vec<Option<BatchResult>> = vec![None; n];
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(&i) = firsts.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            mine.push(place(i));
                        }
                        mine
                    })
                })
                .collect();
            for worker in workers {
                #[allow(clippy::expect_used)]
                for result in worker.join().expect("batch worker panicked") {
                    let index = result.index;
                    slots[index] = Some(result);
                }
            }
        });

        // Repeats, in request order: the first request's stored outcome
        // is a cache hit remapped onto the repeat's labels. Errors are
        // not cached, so a repeat of a failed first request shares its
        // error instead of being placed again.
        for i in 0..n {
            let first = first_of[i];
            if first == i {
                continue;
            }
            let result = match slots[first].as_ref().map(|r| &r.outcome) {
                Some(Err(e)) => BatchResult {
                    index: i,
                    label: self.requests[i].label.clone(),
                    outcome: Err(e.clone()),
                    elapsed: Duration::ZERO,
                },
                _ => place(i),
            };
            slots[i] = Some(result);
        }
        let results: Vec<BatchResult> = slots.into_iter().flatten().collect();
        debug_assert!(results.iter().enumerate().all(|(i, r)| r.index == i));

        BatchReport {
            results,
            wall_time: started.elapsed(),
            jobs,
            deduped: n - firsts.len(),
        }
    }
}

/// Test seam for the panic-isolation contract: a request whose label
/// matches the poisoned label panics inside the worker. Only compiled in
/// test builds; production placements never consult it.
#[cfg(test)]
static CHAOS_POISONED_LABEL: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

fn place_one(
    index: usize,
    label: &str,
    request: &PlaceRequest<'_>,
    cache: Option<&PlacementCache>,
) -> BatchResult {
    let t0 = Instant::now();
    // Panic isolation: a poisoned request (a placement bug, a tripped
    // debug assertion, an adversarial circuit that finds a hole) must
    // cost exactly one result, not the whole batch. The unwind is caught
    // at the job boundary and surfaced as `PlaceError::Internal`; the
    // only state shared across this boundary is the batch cache, whose
    // lock recovers from poisoning and whose entries are written whole.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        {
            let poisoned = CHAOS_POISONED_LABEL
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if poisoned.as_deref() == Some(label) {
                panic!("chaos: poisoned batch request `{label}`");
            }
        }
        // The unified executor — the same entry point the CLI and the
        // serve daemon use; in-flight placements share only the cache
        // (each executes its own placer and cost arenas).
        let outcome = execute_with(request, cache, None).map(|report| report.outcome);
        // Debug builds re-check every successful outcome, placed or
        // remapped, before it leaves the job, so a broken invariant
        // fails this *request* loudly and close to its origin instead of
        // surfacing in aggregated reports (the unwind is converted to a
        // per-job Internal error).
        #[cfg(debug_assertions)]
        if let Ok(o) = &outcome {
            crate::strategy::debug_check_outcome(request.environment(), request.circuit(), o);
        }
        outcome
    }))
    .unwrap_or_else(|payload| Err(PlaceError::from_panic(payload.as_ref())));
    BatchResult {
        index,
        label: label.to_string(),
        outcome,
        elapsed: t0.elapsed(),
    }
}

/// Aggregate view of a batch run; per-request detail stays available in
/// [`results`](BatchReport::results).
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-request results, in request order (independent of worker
    /// count and scheduling).
    pub results: Vec<BatchResult>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Number of workers actually used.
    pub jobs: usize,
    /// Repeats answered from the first request of their dedup key
    /// instead of being placed (0 when dedup is off).
    pub deduped: usize,
}

impl BatchReport {
    /// Number of requests that produced a placement.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Number of requests that failed (their errors stay in
    /// [`results`](BatchReport::results)).
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }

    /// Number of successful requests that resolved a particular way —
    /// the per-request strategy outcome (exact vs fallback vs
    /// budget-exhausted) instead of a collapsed success/failure count.
    pub fn resolved(&self, resolution: Resolution) -> usize {
        self.results
            .iter()
            .filter(|r| r.resolution() == Some(resolution))
            .count()
    }

    /// Sum of the placed circuits' physical runtimes.
    pub fn total_runtime(&self) -> Time {
        Time::from_units(
            self.results
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok())
                .map(|o| o.runtime.units())
                .sum(),
        )
    }

    /// Total SWAP gates inserted across all successful placements.
    pub fn total_swaps(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(PlacementOutcome::swap_count)
            .sum()
    }

    /// Sum of per-request placement times (the single-threaded work the
    /// batch represents; compare against [`wall_time`](BatchReport::wall_time)
    /// for the realized parallel speedup).
    pub fn cpu_time(&self) -> Duration {
        self.results.iter().map(|r| r.elapsed).sum()
    }

    /// Median per-request placement time (zero for an empty batch).
    pub fn median_elapsed(&self) -> Duration {
        let mut times: Vec<Duration> = self.results.iter().map(|r| r.elapsed).collect();
        if times.is_empty() {
            return Duration::ZERO;
        }
        times.sort_unstable();
        times[times.len() / 2]
    }

    /// Requests completed per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.results.len() as f64 / self.wall_time.as_secs_f64().max(1e-12)
    }

    /// An order-sensitive FNV-1a hash over every outcome: each result's
    /// success flag, strategy resolution, runtime bits, subcircuit count,
    /// swap count, and initial placement. Two runs of the same requests
    /// must produce equal fingerprints whatever their worker counts — the
    /// determinism contract the property tests pin down. An exact and a
    /// fallback placement that happen to coincide still fingerprint
    /// differently: how an answer was obtained is part of the outcome.
    pub fn outcome_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for r in &self.results {
            match &r.outcome {
                Ok(outcome) => {
                    mix(1);
                    mix(match outcome.resolution {
                        Resolution::Exact => 10,
                        Resolution::Fallback => 11,
                        Resolution::BudgetExhausted => 12,
                    });
                    mix(outcome.runtime.units().to_bits());
                    mix(outcome.subcircuit_count() as u64);
                    mix(outcome.swap_count() as u64);
                    for stage in &outcome.stages {
                        for v in stage.placement.as_slice() {
                            mix(v.index() as u64);
                        }
                    }
                }
                Err(e) => {
                    mix(2);
                    for byte in e.to_string().bytes() {
                        mix(u64::from(byte));
                    }
                }
            }
        }
        h
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} request(s) on {} worker(s) in {:.3} s ({:.1} req/s, cpu {:.3} s)",
            self.results.len(),
            self.jobs,
            self.wall_time.as_secs_f64(),
            self.throughput(),
            self.cpu_time().as_secs_f64(),
        )?;
        writeln!(
            f,
            "  {} ok, {} failed | total physical runtime {} | {} swap(s) | median request {:.1} ms",
            self.succeeded(),
            self.failed(),
            self.total_runtime(),
            self.total_swaps(),
            self.median_elapsed().as_secs_f64() * 1e3,
        )?;
        writeln!(
            f,
            "  resolutions: {} exact, {} fallback, {} budget-exhausted",
            self.resolved(Resolution::Exact),
            self.resolved(Resolution::Fallback),
            self.resolved(Resolution::BudgetExhausted),
        )?;
        if self.deduped > 0 {
            writeln!(
                f,
                "  deduped: {} of {} request(s) served by witness remap",
                self.deduped,
                self.results.len(),
            )?;
        }
        for r in &self.results {
            match &r.outcome {
                Ok(o) => writeln!(
                    f,
                    "  [{:>3}] {}: runtime {}, {} stage(s), {} swap(s) [{}]",
                    r.index,
                    r.label,
                    o.runtime,
                    o.subcircuit_count(),
                    o.swap_count(),
                    o.resolution,
                )?,
                Err(e) => writeln!(f, "  [{:>3}] {}: FAILED: {e}", r.index, r.label)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SearchBudget, Strategy};
    use qcp_circuit::library;
    use qcp_env::{molecules, topologies, Threshold};

    fn zoo() -> (Vec<Circuit>, Vec<Environment>) {
        let circuits = vec![
            library::qec3_encoder(),
            library::qft(4),
            library::pseudo_cat(5),
        ];
        let envs = vec![
            molecules::trans_crotonic_acid(),
            topologies::grid(2, 3, topologies::Delays::default()),
            topologies::heavy_hex(3, topologies::Delays::default()),
        ];
        (circuits, envs)
    }

    /// `circuit` with its qubit labels reversed.
    fn reversed(circuit: &Circuit) -> Circuit {
        let n = circuit.qubit_count();
        circuit.map_qubits(n, |q| qcp_circuit::Qubit::new(n - 1 - q.index()))
    }

    /// One request per `(label, circuit)`, all on `env` under `config`.
    fn requests_on<L: Into<String>>(
        circuits: impl IntoIterator<Item = (L, Circuit)>,
        env: &Environment,
        config: &PlacerConfig,
    ) -> Vec<BatchRequest> {
        circuits
            .into_iter()
            .map(|(label, c)| BatchRequest::new(label, c, env.clone(), config.clone()))
            .collect()
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<BatchRequest>();
        assert_traits::<BatchPlacer>();
        assert_traits::<BatchReport>();
    }

    #[test]
    fn cross_builds_row_major_requests() {
        let (circuits, envs) = zoo();
        let batch = BatchPlacer::cross(&circuits, &envs, &PlacerConfig::default());
        assert_eq!(batch.requests().len(), 9);
        assert_eq!(batch.requests()[0].label, "c0@trans-crotonic acid");
        assert_eq!(batch.requests()[1].label, "c0@grid-2x3");
        assert_eq!(batch.requests()[3].label, "c1@trans-crotonic acid");
    }

    #[test]
    fn cross_named_uses_caller_labels() {
        let (circuits, envs) = zoo();
        let named: Vec<(String, Circuit)> = ["qec3", "qft4", "cat5"]
            .iter()
            .zip(circuits)
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        let batch = BatchPlacer::cross_named(&named, &envs, &PlacerConfig::default());
        assert_eq!(batch.requests().len(), 9);
        assert_eq!(batch.requests()[0].label, "qec3@trans-crotonic acid");
        assert_eq!(batch.requests()[4].label, "qft4@grid-2x3");
        // Same requests through cross_named_auto: identical outcomes to
        // the anonymous cross_auto (labels differ, fingerprints match
        // because labels are not part of the outcome).
        let a = BatchPlacer::cross_named_auto(&named, &envs, &PlacerConfig::default()).run();
        let b = {
            let circuits: Vec<Circuit> = named.iter().map(|(_, c)| c.clone()).collect();
            BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default()).run()
        };
        assert_eq!(a.outcome_fingerprint(), b.outcome_fingerprint());
    }

    #[test]
    fn outcomes_identical_across_worker_counts() {
        let (circuits, envs) = zoo();
        let reports: Vec<BatchReport> = [1usize, 2, 8]
            .into_iter()
            .map(|j| {
                BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default())
                    .jobs(j)
                    .run()
            })
            .collect();
        assert_eq!(reports[0].failed(), 0);
        let fp = reports[0].outcome_fingerprint();
        for r in &reports[1..] {
            assert_eq!(r.outcome_fingerprint(), fp);
            assert_eq!(r.results.len(), reports[0].results.len());
            for (a, b) in reports[0].results.iter().zip(&r.results) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.label, b.label);
            }
        }
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        // qft(6) cannot fit acetyl chloride's 3 nuclei.
        let circuits = vec![library::qec3_encoder(), library::qft(6)];
        let envs = vec![molecules::acetyl_chloride()];
        let report = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default())
            .jobs(4)
            .run();
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 1);
        assert!(matches!(
            report.results[1].outcome,
            Err(PlaceError::CircuitTooLarge { .. })
        ));
        let text = report.to_string();
        assert!(text.contains("1 ok, 1 failed"), "{text}");
        assert!(text.contains("FAILED"), "{text}");
    }

    #[test]
    fn resolutions_surface_in_report_and_fingerprint() {
        let circuits = vec![library::qec3_encoder()];
        let envs = vec![topologies::grid(2, 3, topologies::Delays::default())];

        let exact = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default()).run();
        assert_eq!(exact.resolved(Resolution::Exact), 1);
        assert_eq!(exact.results[0].resolution(), Some(Resolution::Exact));

        let anneal_cfg = PlacerConfig::default().strategy(Strategy::Anneal);
        let anneal = BatchPlacer::cross_auto(&circuits, &envs, &anneal_cfg).run();
        assert_eq!(anneal.resolved(Resolution::Fallback), 1);
        // The resolution is part of the fingerprint: the same requests
        // answered a different way are a different outcome.
        assert_ne!(exact.outcome_fingerprint(), anneal.outcome_fingerprint());

        let hybrid0 = PlacerConfig::default()
            .strategy(Strategy::Hybrid)
            .budget(SearchBudget::nodes(0));
        let report = BatchPlacer::cross_auto(&circuits, &envs, &hybrid0).run();
        assert_eq!(report.failed(), 0);
        assert_eq!(report.resolved(Resolution::BudgetExhausted), 1);
        let text = report.to_string();
        assert!(text.contains("1 budget-exhausted"), "{text}");
        assert!(text.contains("[budget-exhausted]"), "{text}");
    }

    /// Runs `batch` with the request labelled `label` poisoned. The
    /// seam is one global, so a lock serializes the tests that use it.
    fn run_poisoned(batch: BatchPlacer, label: &str) -> BatchReport {
        static SEAM: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = SEAM
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let poison = |label: Option<&str>| {
            *CHAOS_POISONED_LABEL
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = label.map(str::to_string);
        };
        poison(Some(label));
        let report = batch.run();
        poison(None);
        report
    }

    #[test]
    fn one_poisoned_request_of_32_still_yields_31_results() {
        // 32 copies of a fast request; poison exactly one by label. The
        // poisoned job must come back as a per-request Internal error with
        // the panic payload preserved — and the other 31 as ordinary
        // successes, whatever the worker count.
        let circuit = library::qec3_encoder();
        let env = topologies::grid(2, 3, topologies::Delays::default());
        let config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("grid connects"));
        let requests: Vec<BatchRequest> = (0..32)
            .map(|i| {
                BatchRequest::new(
                    format!("poison-test-{i}"),
                    circuit.clone(),
                    env.clone(),
                    config.clone(),
                )
            })
            .collect();
        // Dedup off: the point is that every request runs (and exactly
        // one panics); with dedup on the 32 identical requests would
        // collapse to one placement and the seam would never fire.
        let report = run_poisoned(
            BatchPlacer::new(requests).jobs(4).dedup(false),
            "poison-test-17",
        );

        assert_eq!(report.results.len(), 32);
        assert_eq!(report.succeeded(), 31);
        assert_eq!(report.failed(), 1);
        let failed = &report.results[17];
        assert_eq!(failed.label, "poison-test-17");
        match &failed.outcome {
            Err(PlaceError::Internal { message }) => {
                assert!(message.contains("poisoned batch request"), "{message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The report renders the failure without aborting.
        let text = report.to_string();
        assert!(text.contains("31 ok, 1 failed"), "{text}");
        assert!(
            text.contains("FAILED: internal placement failure"),
            "{text}"
        );
    }

    #[test]
    fn dedup_collapses_identical_requests_with_identical_outcomes() {
        // 32 copies of one request (zoo32-style repetition): dedup places
        // one representative and serves 31 followers by identity remap —
        // and the outcomes are fingerprint-identical to the dedup-off run.
        let circuit = library::qec3_encoder();
        let env = topologies::grid(2, 3, topologies::Delays::default());
        let config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("grid connects"));
        let requests: Vec<BatchRequest> = (0..32)
            .map(|i| {
                BatchRequest::new(
                    format!("rep-{i}"),
                    circuit.clone(),
                    env.clone(),
                    config.clone(),
                )
            })
            .collect();
        let deduped = BatchPlacer::new(requests.clone()).jobs(4).run();
        assert_eq!(deduped.deduped, 31);
        assert_eq!(deduped.succeeded(), 32);
        let plain = BatchPlacer::new(requests).jobs(4).dedup(false).run();
        assert_eq!(plain.deduped, 0);
        assert_eq!(plain.outcome_fingerprint(), deduped.outcome_fingerprint());
        let text = deduped.to_string();
        assert!(text.contains("deduped: 31 of 32 request(s)"), "{text}");
        assert!(!plain.to_string().contains("deduped:"));
    }

    #[test]
    fn dedup_remaps_isomorphic_relabelled_requests() {
        let circuit = library::qec3_encoder();
        let n = circuit.qubit_count();
        let relabelled = circuit.map_qubits(n, |q| qcp_circuit::Qubit::new(n - 1 - q.index()));
        let env = molecules::acetyl_chloride();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        let requests = vec![
            BatchRequest::new("orig", circuit, env.clone(), config.clone()),
            BatchRequest::new("relabelled", relabelled.clone(), env, config),
        ];
        let report = BatchPlacer::new(requests).run();
        assert_eq!(report.deduped, 1);
        assert_eq!(report.succeeded(), 2);
        let a = report.results[0].outcome.as_ref().expect("orig ok");
        let b = report.results[1].outcome.as_ref().expect("relabelled ok");
        // Same physical answer, each on its own circuit's labels.
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(
            b.stages[0].subcircuit.interaction_graph().edge_count(),
            relabelled.interaction_graph().edge_count()
        );
    }

    #[test]
    fn poisoned_first_request_hands_its_error_to_its_repeats() {
        // Under dedup, the first qec3 request panics inside its job; its
        // exact and relabelled repeats share that Internal error, and
        // every other request (including qft4's repeat) places.
        let env = topologies::grid(2, 3, topologies::Delays::default());
        let config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("grid connects"));
        let (qec3, qft4) = (library::qec3_encoder(), library::qft(4));
        let requests = [
            ("qft4", qft4.clone()),
            ("qec3-first", qec3.clone()),
            ("qec3-repeat", qec3.clone()),
            ("qft4-repeat", qft4),
            ("qec3-reversed", reversed(&qec3)),
        ];
        let batch = BatchPlacer::new(requests_on(requests, &env, &config)).jobs(2);
        let report = run_poisoned(batch, "qec3-first");

        assert_eq!(report.deduped, 3);
        let first = report.results[1].outcome.as_ref().err();
        match first {
            Some(PlaceError::Internal { message }) => {
                assert!(message.contains("poisoned batch request"), "{message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        for repeat in [2, 4] {
            assert_eq!(report.results[repeat].outcome.as_ref().err(), first);
        }
        for placed in [0, 3] {
            assert!(report.results[placed].outcome.is_ok());
        }
    }

    #[test]
    fn repeats_of_a_failed_first_request_share_its_error() {
        // qft(6) cannot fit acetyl chloride's 3 nuclei; its reversal is a
        // repeat and gets the same error without being placed.
        let qft6 = library::qft(6);
        let requests = requests_on(
            [("qft6", qft6.clone()), ("qft6-reversed", reversed(&qft6))],
            &molecules::acetyl_chloride(),
            &PlacerConfig::with_threshold(Threshold::new(100.0)),
        );
        let report = BatchPlacer::new(requests).run();
        assert_eq!(report.deduped, 1);
        for r in &report.results {
            let too_large = PlaceError::CircuitTooLarge {
                qubits: 6,
                nuclei: 3,
            };
            assert_eq!(r.outcome.as_ref().err(), Some(&too_large));
        }

        // An exact search capped at 500 nodes exhausts on qft(5) and on
        // its reversal. Under dedup the reversal's error text, node count
        // included, is the first request's.
        let grid = topologies::grid(3, 3, topologies::Delays::default());
        let exact =
            PlacerConfig::with_threshold(grid.connectivity_threshold().expect("grid connects"))
                .strategy(Strategy::Exact)
                .budget(SearchBudget::nodes(500));
        let qft5 = library::qft(5);
        let requests = requests_on(
            [("qft5", qft5.clone()), ("qft5-reversed", reversed(&qft5))],
            &grid,
            &exact,
        );
        let errors = |dedup: bool| -> Vec<String> {
            let report = BatchPlacer::new(requests.clone()).dedup(dedup).run();
            let exhausted = |r: &BatchResult| r.outcome.as_ref().expect_err("exhausts").to_string();
            report.results.iter().map(exhausted).collect()
        };
        let (shared, fresh) = (errors(true), errors(false));
        assert!(shared[0].contains("exhausted its budget"), "{}", shared[0]);
        assert_eq!(shared[1], shared[0]);
        // Placed fresh, the reversal trips at another node count, so the
        // equality above is the shared error, not a coincidence.
        assert_eq!(fresh[0], shared[0]);
        assert_ne!(fresh[1], shared[0]);
    }

    #[test]
    fn reported_jobs_count_workers_actually_spawned_after_dedup() {
        // 8 identical requests collapse to one representative under
        // dedup, so only one worker can ever have work: the report must
        // say 1, not echo the requested 8 (which would overstate
        // parallelism in logs and scaling_check pairing).
        let circuit = library::qec3_encoder();
        let env = topologies::grid(2, 3, topologies::Delays::default());
        let config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("grid connects"));
        let requests: Vec<BatchRequest> = (0..8)
            .map(|i| {
                BatchRequest::new(
                    format!("rep-{i}"),
                    circuit.clone(),
                    env.clone(),
                    config.clone(),
                )
            })
            .collect();
        let deduped = BatchPlacer::new(requests.clone()).jobs(8).run();
        assert_eq!(deduped.deduped, 7);
        assert_eq!(deduped.jobs, 1, "jobs must count spawned workers");
        // Dedup off: all 8 groups exist, the full worker ask is honored.
        let plain = BatchPlacer::new(requests.clone())
            .jobs(8)
            .dedup(false)
            .run();
        assert_eq!(plain.jobs, 8);
        // A worker ask smaller than the group count passes through.
        let three = BatchPlacer::new(requests).jobs(3).dedup(false).run();
        assert_eq!(three.jobs, 3);
    }

    #[test]
    fn relabelled_ring_unions_are_deduped() {
        // Three disjoint rings of 8: every qubit has the same
        // Weisfeiler–Leman colour, yet a relabelling is still recognised
        // as a repeat and answered by witness remap.
        let circuit = crate::cache::tests::ring_union(&[8, 8, 8]);
        let relabelled = circuit.map_qubits(24, |q| qcp_circuit::Qubit::new(23 - q.index()));
        let env = topologies::grid(5, 5, topologies::Delays::default());
        let mut config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("grid connects"));
        config.strategy = Strategy::Anneal;
        config.anneal.iterations = 50;
        let requests = vec![
            BatchRequest::new("orig", circuit, env.clone(), config.clone()),
            BatchRequest::new("relabelled", relabelled, env, config),
        ];
        let report = BatchPlacer::new(requests).run();
        assert_eq!(report.deduped, 1);
        assert_eq!(report.succeeded(), 2);
        let runtime = |i: usize| report.results[i].outcome.as_ref().expect("placed").runtime;
        assert_eq!(runtime(0), runtime(1));
    }

    #[test]
    fn distinct_requests_are_not_deduped() {
        let (circuits, envs) = zoo();
        let report = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default()).run();
        assert_eq!(report.deduped, 0);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchPlacer::new(Vec::new()).jobs(4).run();
        assert_eq!(report.results.len(), 0);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.median_elapsed(), Duration::ZERO);
        assert!(report.total_runtime().is_zero());
    }

    #[test]
    fn jobs_zero_is_auto_and_capped() {
        let circuits = vec![library::qec3_encoder()];
        let envs = vec![molecules::acetyl_chloride()];
        let mut batch = BatchPlacer::cross(
            &circuits,
            &envs,
            &PlacerConfig::with_threshold(Threshold::new(100.0)),
        );
        batch = batch.jobs(64);
        let report = batch.run();
        // One request: worker count is capped at 1 however many were asked.
        assert_eq!(report.jobs, 1);
        assert_eq!(report.succeeded(), 1);
    }

    #[test]
    fn aggregates_add_up() {
        let (circuits, envs) = zoo();
        let report = BatchPlacer::cross_auto(&circuits, &envs, &PlacerConfig::default())
            .jobs(2)
            .run();
        let manual_runtime: f64 = report
            .results
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().runtime.units())
            .sum();
        assert_eq!(report.total_runtime().units(), manual_runtime);
        assert!(report.cpu_time() >= report.median_elapsed());
        assert!(report.throughput() > 0.0);
    }
}
