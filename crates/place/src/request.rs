//! The unified placement entry point: [`PlaceRequest`] + [`execute`].
//!
//! Historically the CLI `place` command, [`BatchPlacer`], and the
//! `qcp serve` daemon each hand-rolled the same call sequence
//! (configure → place → optionally verify), which made it impossible to
//! guarantee they agreed on behaviour — in particular on *cache
//! keying*. This module replaces the three ad-hoc paths with one
//! value object and one executor:
//!
//! * [`PlaceRequest`] bundles everything a placement needs — circuit,
//!   environment, full [`PlacerConfig`], verification flag, and cache
//!   policy — behind a builder-style API.
//! * [`PlaceRequest::cache_key`] derives the result-cache key from the
//!   request's fields and nothing else, so CLI, batch, and serve can
//!   never disagree on keying: batch dedup groups requests by this key,
//!   and the executor looks them up under it. The canonical form behind
//!   the key is computed once per request and kept with it.
//! * [`execute`] / [`execute_with`] run the request: consult an
//!   optional [`PlacementCache`], place on a miss, optionally certify
//!   through an attached [`Certifier`], and report the cache
//!   disposition alongside the outcome.
//!
//! The certifier is a trait rather than a direct `qcp_verify` call
//! because `qcp_verify` depends on this crate; delivery surfaces that
//! want verification (the CLI `--verify` flag, batch `--verify`) attach
//! `qcp_verify`'s adapter, everything else passes `None`.
//!
//! [`BatchPlacer`]: crate::batch::BatchPlacer

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use qcp_circuit::Circuit;
use qcp_env::Environment;

use crate::cache::{cache_key, CacheKey, CanonicalCircuit, PlacementCache};
use crate::error::PlaceError;
use crate::placer::{PlacementOutcome, Placer, PlacerConfig};
use crate::strategy::{SearchBudget, Strategy};

/// Whether a request may consult (and populate) the placement cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Look up the cache before placing and store the result after.
    #[default]
    Use,
    /// Skip the cache entirely (the result is neither read nor stored).
    Bypass,
}

/// What the cache did for one executed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the cache. `remapped` is true when the stored outcome
    /// was rewritten onto different qubit labels (an isomorphic, not
    /// identical, repeat).
    Hit {
        /// Whether a non-identity witness remap was applied.
        remapped: bool,
    },
    /// The cache was consulted but had no entry; the result was placed
    /// fresh (and stored).
    Miss,
    /// The cache was not consulted: no cache was attached, the attached
    /// cache has capacity 0, or the request's policy is
    /// [`CachePolicy::Bypass`].
    Bypass,
}

impl CacheDisposition {
    /// The stable wire token (`hit`, `miss`, `bypass`) used in serve's
    /// JSON responses and documented in GUIDE.md §8.
    pub fn wire(self) -> &'static str {
        match self {
            CacheDisposition::Hit { .. } => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }
}

/// Independent certification hook. Implemented by `qcp_verify`'s
/// adapter (`qcp_verify::PlacementCertifier`); the indirection exists
/// because `qcp_verify` depends on `qcp_place` and so cannot be called
/// from here directly.
pub trait Certifier {
    /// Certifies `outcome` against the request it answers. `Ok` carries
    /// a human-readable certificate summary; `Err` carries rendered
    /// violation lines.
    fn certify(
        &self,
        request: &PlaceRequest<'_>,
        outcome: &PlacementOutcome,
    ) -> Result<String, Vec<String>>;
}

/// One placement request: everything that determines the outcome, and
/// nothing else. Construct with [`PlaceRequest::new`] and refine with
/// the builder methods.
#[derive(Clone, Debug)]
pub struct PlaceRequest<'a> {
    circuit: &'a Circuit,
    environment: &'a Environment,
    config: PlacerConfig,
    verify: bool,
    cache_policy: CachePolicy,
    /// The circuit's canonical form, computed on first use.
    canonical: OnceLock<CanonicalCircuit>,
}

impl<'a> PlaceRequest<'a> {
    /// A request with the default [`PlacerConfig`], no verification, and
    /// [`CachePolicy::Use`].
    pub fn new(circuit: &'a Circuit, environment: &'a Environment) -> PlaceRequest<'a> {
        PlaceRequest {
            circuit,
            environment,
            config: PlacerConfig::default(),
            verify: false,
            cache_policy: CachePolicy::default(),
            canonical: OnceLock::new(),
        }
    }

    /// Replaces the whole placer configuration.
    pub fn config(mut self, config: PlacerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the placement strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the search budget.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Requests independent certification of the outcome (including
    /// cache hits, whose remapped outcomes are re-certified). Executing
    /// a verifying request requires a [`Certifier`] — see
    /// [`execute_with`].
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the cache policy.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// The circuit to place.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The target environment.
    pub fn environment(&self) -> &'a Environment {
        self.environment
    }

    /// The full placer configuration.
    pub fn placer_config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Whether certification was requested.
    pub fn wants_verify(&self) -> bool {
        self.verify
    }

    /// The cache policy.
    pub fn policy(&self) -> CachePolicy {
        self.cache_policy
    }

    /// The circuit's exact canonical form (fingerprint + witness order),
    /// computed on the first call and reused by every later one.
    pub fn canonical(&self) -> &CanonicalCircuit {
        self.canonical
            .get_or_init(|| CanonicalCircuit::of(self.circuit))
    }

    /// The result-cache key for this request, derived **only** from the
    /// request's own fields (canonical circuit × environment tables ×
    /// placer configuration). Every layer — CLI, batch, serve — keys the
    /// cache through this method, so they cannot disagree.
    pub fn cache_key(&self) -> CacheKey {
        cache_key(self.canonical(), self.environment, &self.config)
    }
}

/// The result of executing a [`PlaceRequest`].
#[derive(Clone, Debug)]
pub struct PlaceReport {
    /// The placement outcome, already on the requesting circuit's qubit
    /// labels (cache hits are witness-remapped before being returned).
    pub outcome: PlacementOutcome,
    /// What the cache did for this request.
    pub cache: CacheDisposition,
    /// Wall-clock time spent inside the executor.
    pub elapsed: Duration,
    /// Certificate summary when the request asked for verification.
    pub certificate: Option<String>,
}

/// Executes a request with no cache and no certifier: the common path
/// for one-shot library use. Fails with [`PlaceError::Internal`] if the
/// request asks for verification (attach a certifier via
/// [`execute_with`]).
pub fn execute(request: &PlaceRequest<'_>) -> Result<PlaceReport, PlaceError> {
    execute_with(request, None, None)
}

/// Executes a request against an optional shared [`PlacementCache`] and
/// an optional [`Certifier`].
///
/// With a cache attached and [`CachePolicy::Use`]: the request's
/// canonical form is computed once, the cache consulted, and on a hit
/// the stored outcome is witness-remapped onto the request's labels. On
/// a miss the placement runs and the (unremapped) outcome is stored
/// with its witness. Verification, when requested, runs on whatever
/// outcome is about to be returned — fresh or remapped — so a cache can
/// never weaken the certificate.
pub fn execute_with(
    request: &PlaceRequest<'_>,
    cache: Option<&PlacementCache>,
    certifier: Option<&dyn Certifier>,
) -> Result<PlaceReport, PlaceError> {
    let start = Instant::now();
    if request.verify && certifier.is_none() {
        return Err(PlaceError::Internal {
            message: "request asks for verification but no certifier is attached".to_string(),
        });
    }
    let cache = match (request.cache_policy, cache) {
        (CachePolicy::Use, Some(cache)) if cache.capacity() > 0 => {
            Some((cache, request.cache_key()))
        }
        _ => None,
    };

    if let Some((cache, key)) = cache {
        if let Some((outcome, remapped)) = cache.lookup(key, &request.canonical().order) {
            let certificate = certify_if_asked(request, &outcome, certifier)?;
            return Ok(PlaceReport {
                outcome,
                cache: CacheDisposition::Hit { remapped },
                elapsed: start.elapsed(),
                certificate,
            });
        }
    }

    let placer = Placer::new(request.environment, request.config.clone());
    let outcome = placer.place(request.circuit)?;
    let certificate = certify_if_asked(request, &outcome, certifier)?;
    let disposition = if let Some((cache, key)) = cache {
        cache.insert(key, request.canonical().order.clone(), outcome.clone());
        CacheDisposition::Miss
    } else {
        CacheDisposition::Bypass
    };
    Ok(PlaceReport {
        outcome,
        cache: disposition,
        elapsed: start.elapsed(),
        certificate,
    })
}

fn certify_if_asked(
    request: &PlaceRequest<'_>,
    outcome: &PlacementOutcome,
    certifier: Option<&dyn Certifier>,
) -> Result<Option<String>, PlaceError> {
    match (request.verify, certifier) {
        (true, Some(certifier)) => match certifier.certify(request, outcome) {
            Ok(summary) => Ok(Some(summary)),
            Err(violations) => Err(PlaceError::VerificationFailed { violations }),
        },
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::{library, Qubit};
    use qcp_env::{molecules, Threshold};

    fn qec_request<'a>(circuit: &'a Circuit, env: &'a Environment) -> PlaceRequest<'a> {
        PlaceRequest::new(circuit, env).config(PlacerConfig::with_threshold(Threshold::new(100.0)))
    }

    #[test]
    fn execute_without_cache_bypasses() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let report = execute(&qec_request(&circuit, &env)).expect("place");
        assert_eq!(report.cache, CacheDisposition::Bypass);
        assert_eq!(report.cache.wire(), "bypass");
        assert!(report.certificate.is_none());
        assert_eq!(report.outcome.runtime.to_string(), "0.0136 sec");
    }

    #[test]
    fn miss_then_hit_then_remapped_hit() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let cache = PlacementCache::new(16);

        let first = execute_with(&qec_request(&circuit, &env), Some(&cache), None).expect("place");
        assert_eq!(first.cache, CacheDisposition::Miss);

        let second = execute_with(&qec_request(&circuit, &env), Some(&cache), None).expect("place");
        assert_eq!(second.cache, CacheDisposition::Hit { remapped: false });
        assert_eq!(second.outcome.runtime, first.outcome.runtime);

        let n = circuit.qubit_count();
        let relabelled = circuit.map_qubits(n, |q| Qubit::new(n - 1 - q.index()));
        let third =
            execute_with(&qec_request(&relabelled, &env), Some(&cache), None).expect("place");
        assert_eq!(third.cache, CacheDisposition::Hit { remapped: true });
        assert_eq!(third.outcome.runtime, first.outcome.runtime);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.remapped(), 1);
    }

    #[test]
    fn bypass_policy_skips_an_attached_cache() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let cache = PlacementCache::new(16);
        let request = qec_request(&circuit, &env).cache_policy(CachePolicy::Bypass);
        let report = execute_with(&request, Some(&cache), None).expect("place");
        assert_eq!(report.cache, CacheDisposition::Bypass);
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_key_is_stable_and_field_derived() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let request = qec_request(&circuit, &env);
        assert_eq!(request.cache_key(), request.cache_key());
        // Changing any request field changes the key.
        let other = qec_request(&circuit, &env).strategy(Strategy::Hybrid);
        assert_ne!(other.cache_key(), request.cache_key());
        let budgeted = qec_request(&circuit, &env).budget(SearchBudget::nodes(500));
        assert_ne!(budgeted.cache_key(), request.cache_key());
        // Relabelling does NOT change the key (that is the point).
        let n = circuit.qubit_count();
        let relabelled = circuit.map_qubits(n, |q| Qubit::new(n - 1 - q.index()));
        assert_eq!(
            qec_request(&relabelled, &env).cache_key(),
            request.cache_key()
        );
    }

    #[test]
    fn canonical_form_is_computed_once_per_request() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let request = qec_request(&circuit, &env);
        let first: *const CanonicalCircuit = request.canonical();
        // Keying and execution both reuse the form computed by the
        // first call.
        request.cache_key();
        execute_with(&request, Some(&PlacementCache::new(4)), None).expect("place");
        assert!(std::ptr::eq(first, request.canonical()));
    }

    #[test]
    fn relabelled_ring_union_is_a_remapped_hit() {
        use qcp_env::topologies::{self, Delays};
        let circuit = crate::cache::tests::ring_union(&[8, 8, 8]);
        let n = circuit.qubit_count();
        let relabelled = circuit.map_qubits(n, |q| Qubit::new(n - 1 - q.index()));
        let env = topologies::grid(5, 5, Delays::default());
        let mut config =
            PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"));
        config.strategy = Strategy::Anneal;
        config.anneal.iterations = 50;

        let cache = PlacementCache::new(16);
        let request = PlaceRequest::new(&circuit, &env).config(config.clone());
        let cold = execute_with(&request, Some(&cache), None).expect("place");
        assert_eq!(cold.cache, CacheDisposition::Miss);
        let repeat = PlaceRequest::new(&relabelled, &env).config(config);
        assert_eq!(repeat.cache_key(), request.cache_key());
        let warm = execute_with(&repeat, Some(&cache), None).expect("place");
        assert_eq!(warm.cache, CacheDisposition::Hit { remapped: true });
        assert_eq!(warm.outcome.runtime, cold.outcome.runtime);
        // The remap renames logical qubits only: relabelled qubit n-1-q
        // sits where the cold placement put original qubit q.
        let (cold_first, warm_first) = (
            cold.outcome.initial_placement(),
            warm.outcome.initial_placement(),
        );
        for q in 0..n {
            assert_eq!(
                warm_first.physical(Qubit::new(n - 1 - q)),
                cold_first.physical(Qubit::new(q))
            );
        }
        assert_eq!((cache.hits(), cache.misses(), cache.remapped()), (1, 1, 1));
    }

    #[test]
    fn verify_without_certifier_is_an_error() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let request = qec_request(&circuit, &env).verify(true);
        let err = execute(&request).expect_err("must fail");
        assert!(matches!(err, PlaceError::Internal { .. }));
    }

    struct RejectAll;
    impl Certifier for RejectAll {
        fn certify(
            &self,
            _request: &PlaceRequest<'_>,
            _outcome: &PlacementOutcome,
        ) -> Result<String, Vec<String>> {
            Err(vec!["synthetic violation".to_string()])
        }
    }

    #[test]
    fn certifier_rejection_maps_to_verification_failed() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let request = qec_request(&circuit, &env).verify(true);
        let err = execute_with(&request, None, Some(&RejectAll)).expect_err("must fail");
        match err {
            PlaceError::VerificationFailed { violations } => {
                assert_eq!(violations, vec!["synthetic violation".to_string()]);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(
            crate::FailureClass::Verification.wire_code(),
            "verify-reject"
        );
        assert_eq!(crate::FailureClass::Verification.exit_code(), 4);
    }
}
