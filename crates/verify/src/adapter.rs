//! Adapter plugging this crate's [`certify`] into the
//! [`qcp_place::Certifier`] hook of the unified request executor.
//!
//! `qcp_place::request::execute_with` certifies exactly when a certifier
//! is passed, so a verifying surface (the CLI's `place --verify`)
//! re-checks every outcome — including cache hits after their witness
//! remap — without `qcp_place` depending on this crate (the dependency
//! runs the other way).

use qcp_place::request::{Certifier, PlaceRequest};
use qcp_place::PlacementOutcome;

use crate::certify::{certify, VerifyOptions};

/// The standard certifier: derives [`VerifyOptions`] from the request's
/// own placer configuration and runs the full first-principles
/// [`certify`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlacementCertifier;

impl Certifier for PlacementCertifier {
    fn certify(
        &self,
        request: &PlaceRequest<'_>,
        outcome: &PlacementOutcome,
    ) -> Result<String, Vec<String>> {
        let options = VerifyOptions::from_config(request.placer_config());
        match certify(request.circuit(), request.environment(), &options, outcome) {
            Ok(cert) => Ok(format!(
                "certified: {} stage(s), {} gate(s), {} swap(s); runtime recomputed {}",
                cert.stages, cert.gates, cert.swaps, cert.recomputed_runtime
            )),
            Err(violations) => Err(violations
                .iter()
                .map(|v| format!("[{}] {v}", v.code()))
                .collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library;
    use qcp_env::{molecules, Threshold};
    use qcp_place::{execute_with, PlacementCache, PlacerConfig};

    #[test]
    fn certifier_accepts_fresh_and_remapped_cache_hits() {
        let env = molecules::acetyl_chloride();
        let circuit = library::qec3_encoder();
        let config = PlacerConfig::with_threshold(Threshold::new(100.0));
        let cache = PlacementCache::new(8);
        let request = PlaceRequest::new(&circuit, &env).config(config.clone());
        let cold = execute_with(&request, Some(&cache), Some(&PlacementCertifier))
            .expect("cold place certifies");
        let summary = cold.certificate.expect("certificate present");
        assert!(summary.starts_with("certified:"));

        // A relabelled repeat must be served from cache *and* certify
        // against the relabelled circuit after the witness remap.
        let n = circuit.qubit_count();
        let relabelled = circuit.map_qubits(n, |q| qcp_circuit::Qubit::new(n - 1 - q.index()));
        let warm_request = PlaceRequest::new(&relabelled, &env).config(config);
        let warm = execute_with(&warm_request, Some(&cache), Some(&PlacementCertifier))
            .expect("warm remapped hit certifies");
        assert_eq!(
            warm.cache,
            qcp_place::CacheDisposition::Hit { remapped: true }
        );
        assert!(warm
            .certificate
            .expect("certificate")
            .starts_with("certified:"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.remapped(), 1);
    }
}
