//! The correctness reference: every answer a `qcp` surface prints must
//! equal the outcome the library produces in-process for the same
//! request, and that outcome must itself pass `qcp_verify::certify`.

use qcp_circuit::{Circuit, Qubit};
use qcp_env::topologies::{Delays, TopologySpec};
use qcp_env::{molecules, Environment, Threshold};
use qcp_place::{execute, PlaceRequest, PlacementOutcome, PlacerConfig, SearchBudget, Strategy};
use qcp_verify::{certify, VerifyOptions};

/// The node budget every workload places under: node budgets make
/// answers, resolutions and work counts repeat exactly.
pub const BUDGET_NODES: u64 = 20_000;

/// The CLI prints at most this many stage lines.
const STAGES_SHOWN: usize = 16;

/// Resolves an environment the way `qcp` does: a molecule name, else a
/// topology spec with the default coupling delay of 10 units.
pub fn environment(spec: &str) -> Result<Environment, String> {
    if let Some(env) = molecules::named(spec) {
        return Ok(env);
    }
    let parsed: TopologySpec = spec.parse().map_err(|e| format!("{spec}: {e}"))?;
    Ok(parsed.build(Delays::uniform(10.0)))
}

fn auto_threshold(env: &Environment) -> Result<Threshold, String> {
    env.connectivity_threshold()
        .ok_or_else(|| format!("{} is disconnected", env.name()))
}

/// `qcp place … --strategy hybrid --budget-nodes N`, with `--threshold`
/// when given and the automatic threshold otherwise.
pub fn cli_config(env: &Environment, threshold: Option<f64>) -> Result<PlacerConfig, String> {
    let threshold = match threshold {
        Some(units) => Threshold::new(units),
        None => auto_threshold(env)?,
    };
    Ok(PlacerConfig::with_threshold(threshold)
        .strategy(Strategy::Hybrid)
        .budget(SearchBudget::nodes(BUDGET_NODES)))
}

/// `qcp batch … --strategy hybrid --budget-nodes N` (per-environment
/// automatic threshold, as `cross_named_auto` sets it).
pub fn batch_config(env: &Environment) -> PlacerConfig {
    let mut config = PlacerConfig::default()
        .strategy(Strategy::Hybrid)
        .budget(SearchBudget::nodes(BUDGET_NODES));
    if let Some(t) = env.connectivity_threshold() {
        config.threshold = t;
    }
    config
}

/// The daemon's default deadline, which `/place` folds into every key.
pub const SERVE_DEADLINE_MS: u64 = 2_000;

/// `POST /place?env=…&budget_nodes=N` on an idle daemon: hybrid strategy,
/// the default deadline undegraded, automatic threshold.
pub fn serve_config(env: &Environment) -> Result<PlacerConfig, String> {
    Ok(PlacerConfig::with_threshold(auto_threshold(env)?)
        .strategy(Strategy::Hybrid)
        .budget(
            SearchBudget::unlimited()
                .with_deadline(std::time::Duration::from_millis(SERVE_DEADLINE_MS))
                .with_nodes(BUDGET_NODES),
        ))
}

/// A fresh in-process placement of the request.
pub fn place(
    circuit: &Circuit,
    env: &Environment,
    config: &PlacerConfig,
) -> Result<PlacementOutcome, String> {
    let request = PlaceRequest::new(circuit, env).config(config.clone());
    execute(&request)
        .map(|report| report.outcome)
        .map_err(|e| format!("in-process placement failed: {e}"))
}

/// Certifies an expected outcome from first principles.
pub fn certified(
    circuit: &Circuit,
    env: &Environment,
    config: &PlacerConfig,
    outcome: &PlacementOutcome,
) -> Result<(), String> {
    certify(circuit, env, &VerifyOptions::from_config(config), outcome)
        .map(|_| ())
        .map_err(|violations| {
            format!(
                "expected outcome fails certification: {}",
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        })
}

/// The fields of one answer as a surface reports them. Surfaces report
/// different subsets; optional fields are compared only when the answer
/// carries them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    pub resolution: String,
    /// The runtime as `Time` displays it (`0.1448 sec`).
    pub runtime: String,
    pub runtime_units: Option<f64>,
    pub stages: usize,
    pub swaps: usize,
    /// The CLI's per-stage `q0→name, …` maps.
    pub stage_maps: Option<Vec<String>>,
    pub initial: Option<Vec<usize>>,
    pub last: Option<Vec<usize>>,
    /// The daemon's cache disposition (`hit`, `miss`, `bypass`).
    pub cache: Option<String>,
}

impl Answer {
    /// Everything any surface could report about `outcome` on `env`.
    pub fn of(outcome: &PlacementOutcome, env: &Environment) -> Answer {
        let names = env.nucleus_names();
        let width = outcome
            .stages
            .first()
            .map_or(0, |s| s.placement.logical_count());
        let maps = outcome
            .stages
            .iter()
            .take(STAGES_SHOWN)
            .map(|stage| {
                (0..width)
                    .map(|q| {
                        let v = stage.placement.physical(Qubit::new(q));
                        format!("q{q}→{}", names[v.index()])
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect();
        let indices = |p: &qcp_place::Placement| p.as_slice().iter().map(|v| v.index()).collect();
        Answer {
            resolution: outcome.resolution.name().to_string(),
            runtime: outcome.runtime.to_string(),
            runtime_units: Some(outcome.runtime.units()),
            stages: outcome.subcircuit_count(),
            swaps: outcome.swap_count(),
            stage_maps: Some(maps),
            initial: outcome.stages.first().map(|s| indices(&s.placement)),
            last: outcome.stages.last().map(|s| indices(&s.placement)),
            cache: None,
        }
    }

    /// Runtime in time units, from the exact field when present and from
    /// the four-decimal seconds display otherwise.
    pub fn units(&self) -> f64 {
        self.runtime_units.unwrap_or_else(|| {
            self.runtime
                .trim_end_matches(" sec")
                .parse::<f64>()
                .map_or(0.0, |s| s * 1e4)
        })
    }
}

/// Describes how `actual` differs from `expected`, or `None` when every
/// field `actual` reports matches.
pub fn mismatch(expected: &Answer, actual: &Answer) -> Option<String> {
    let mut diffs = Vec::new();
    let mut check = |what: &str, same: bool, e: String, a: String| {
        if !same {
            diffs.push(format!("{what}: expected {e}, got {a}"));
        }
    };
    check(
        "resolution",
        expected.resolution == actual.resolution,
        expected.resolution.clone(),
        actual.resolution.clone(),
    );
    check(
        "runtime",
        expected.runtime == actual.runtime,
        expected.runtime.clone(),
        actual.runtime.clone(),
    );
    check(
        "stages",
        expected.stages == actual.stages,
        expected.stages.to_string(),
        actual.stages.to_string(),
    );
    check(
        "swaps",
        expected.swaps == actual.swaps,
        expected.swaps.to_string(),
        actual.swaps.to_string(),
    );
    if let Some(units) = actual.runtime_units {
        check(
            "runtime_units",
            expected.runtime_units == Some(units),
            format!("{:?}", expected.runtime_units),
            units.to_string(),
        );
    }
    if actual.stage_maps.is_some() {
        check(
            "stage maps",
            expected.stage_maps == actual.stage_maps,
            format!("{:?}", expected.stage_maps),
            format!("{:?}", actual.stage_maps),
        );
    }
    if actual.initial.is_some() {
        check(
            "initial placement",
            expected.initial == actual.initial,
            format!("{:?}", expected.initial),
            format!("{:?}", actual.initial),
        );
    }
    if actual.last.is_some() {
        check(
            "final placement",
            expected.last == actual.last,
            format!("{:?}", expected.last),
            format!("{:?}", actual.last),
        );
    }
    if actual.cache.is_some() {
        check(
            "cache",
            expected.cache == actual.cache,
            format!("{:?}", expected.cache),
            format!("{:?}", actual.cache),
        );
    }
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

/// Parses `qcp place` output into the answer it reports plus the
/// executor time it prints (`resolved … in X ms`).
pub fn parse_place(stdout: &str) -> Result<(Answer, f64), String> {
    let mut answer = Answer::default();
    let mut executor_ms = None;
    let mut maps = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("strategy ") {
            let after = rest.split(" resolved ").nth(1).ok_or("no resolution")?;
            let (resolution, ms) = after.split_once(" in ").ok_or("no executor time")?;
            answer.resolution = resolution.to_string();
            executor_ms = ms.trim_end_matches(" ms").parse::<f64>().ok();
        } else if let Some(rest) = line.strip_prefix("runtime ") {
            let (runtime, counts) = rest.split_once("  |  ").ok_or("bad runtime line")?;
            answer.runtime = runtime.to_string();
            let (subs, swaps) = counts.split_once(", ").ok_or("bad counts")?;
            answer.stages = leading_number(subs)?;
            answer.swaps = leading_number(swaps)?;
        } else if line.starts_with("stage ") {
            let open = line.find('[').ok_or("bad stage line")?;
            maps.push(line[open + 1..].trim_end_matches(']').to_string());
        }
    }
    let executor_ms = executor_ms.ok_or("no `strategy … resolved` line")?;
    if answer.runtime.is_empty() {
        return Err("no runtime line".into());
    }
    answer.stage_maps = Some(maps);
    Ok((answer, executor_ms))
}

fn leading_number(text: &str) -> Result<usize, String> {
    text.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no count in `{text}`"))
}

/// One `qcp batch` invocation's report.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub jobs: usize,
    pub deduped: usize,
    /// `(label, answer or failure text)` in request order.
    pub results: Vec<(String, Result<Answer, String>)>,
}

/// Parses the `BatchReport` display that `qcp batch` prints.
pub fn parse_batch(stdout: &str) -> Result<BatchOutput, String> {
    let mut out = BatchOutput::default();
    let mut lines = stdout.lines();
    let header = lines.next().ok_or("empty batch output")?;
    // batch: N request(s) on J worker(s) in W s (R req/s, cpu C s)
    let words: Vec<&str> = header.split_whitespace().collect();
    let num = |i: usize| -> Result<f64, String> {
        words
            .get(i)
            .map(|w| w.trim_start_matches('(').trim_end_matches(')'))
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("bad batch header `{header}`"))
    };
    out.jobs = num(4)? as usize;
    out.wall_s = num(7)?;
    out.cpu_s = num(12)?;
    for line in lines {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("deduped: ") {
            out.deduped = leading_number(rest)?;
        } else if let Some(rest) = t.strip_prefix('[') {
            let (_, rest) = rest.split_once("] ").ok_or("bad result line")?;
            if let Some((label, err)) = rest.split_once(": FAILED: ") {
                out.results.push((label.to_string(), Err(err.to_string())));
                continue;
            }
            let (label, rest) = rest.split_once(": runtime ").ok_or("bad result line")?;
            let parts: Vec<&str> = rest.splitn(3, ", ").collect();
            let [runtime, stages, tail] = parts.as_slice() else {
                return Err(format!("bad result line `{line}`"));
            };
            let (swaps, resolution) = tail.split_once(" [").ok_or("no resolution")?;
            out.results.push((
                label.to_string(),
                Ok(Answer {
                    resolution: resolution.trim_end_matches(']').to_string(),
                    runtime: (*runtime).to_string(),
                    stages: leading_number(stages)?,
                    swaps: leading_number(swaps)?,
                    ..Answer::default()
                }),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_circuit::library;

    fn qec3_anchor() -> (Answer, Environment) {
        let env = environment("acetyl-chloride").expect("molecule");
        let config = cli_config(&env, Some(100.0)).expect("config");
        let circuit = library::named("qec3").expect("library circuit");
        let outcome = place(&circuit, &env, &config).expect("place");
        certified(&circuit, &env, &config, &outcome).expect("certifies");
        (Answer::of(&outcome, &env), env)
    }

    #[test]
    fn paper_anchor_and_cli_round_trip() {
        let (expected, _) = qec3_anchor();
        assert_eq!(expected.runtime, "0.0136 sec");
        let maps = expected.stage_maps.clone().expect("maps");
        let stdout = format!(
            "placed `3q/9g` (3 qubits, 9 gates) on `acetyl-chloride` (4 nuclei) at threshold 100\n\
             strategy hybrid resolved exact in 1.5 ms\n\
             runtime 0.0136 sec  |  1 subcircuit(s), 0 swap(s)\n\
             stage 1: 9 gates, 0 swap levels in, [{}]\n",
            maps[0]
        );
        let (actual, executor_ms) = parse_place(&stdout).expect("parse");
        assert_eq!(executor_ms, 1.5);
        assert_eq!(mismatch(&expected, &actual), None);
    }

    #[test]
    fn the_check_rejects_a_planted_wrong_runtime() {
        let (expected, _) = qec3_anchor();
        let mut planted = expected.clone();
        planted.runtime = "0.0137 sec".into();
        assert!(mismatch(&expected, &planted).is_some_and(|m| m.contains("runtime")));
        let mut planted = expected.clone();
        planted.runtime_units = Some(137.0);
        assert!(mismatch(&expected, &planted).is_some());
        let mut planted = expected;
        planted.cache = Some("miss".into());
        assert!(mismatch(
            &Answer {
                cache: Some("hit".into()),
                ..planted.clone()
            },
            &planted
        )
        .is_some());
    }

    #[test]
    fn batch_report_parses() {
        let stdout = "batch: 3 request(s) on 2 worker(s) in 1.220 s (98.3 req/s, cpu 2.376 s)\n\
             \x20 3 ok, 0 failed | total physical runtime 2.8200 sec | 1164 swap(s) | median request 0.0 ms\n\
             \x20 resolutions: 2 exact, 0 fallback, 1 budget-exhausted\n\
             \x20 deduped: 1 of 3 request(s) served by witness remap\n\
             \x20 [  0] adder4_r0@line-16: runtime 0.0526 sec, 7 stage(s), 8 swap(s) [exact]\n\
             \x20 [  1] bell@grid-4x4: runtime 0.0020 sec, 1 stage(s), 0 swap(s) [budget-exhausted]\n\
             \x20 [  2] x@y: FAILED: boom\n";
        let out = parse_batch(stdout).expect("parse");
        assert_eq!((out.jobs, out.deduped), (2, 1));
        assert_eq!((out.wall_s, out.cpu_s), (1.220, 2.376));
        assert_eq!(out.results.len(), 3);
        let first = out.results[0].1.as_ref().expect("ok");
        assert_eq!((first.stages, first.swaps), (7, 8));
        assert_eq!(first.runtime, "0.0526 sec");
        assert_eq!(
            out.results[1].1.as_ref().expect("ok").resolution,
            "budget-exhausted"
        );
        assert!(out.results[2].1.is_err());
    }
}
