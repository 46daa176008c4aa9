//! `cli-search`: a closed loop of `qcp place` processes, one at a time.
//!
//! Search layers do almost all the work here; no cache, serve or batch
//! code runs.

use std::time::Instant;

use qcp_circuit::{library, qasm, Circuit};

use crate::expect::{self, Answer, BUDGET_NODES};
use crate::gen::Rng;
use crate::proc::{self, Spawner};
use crate::trace::{self, Trace};
use crate::{par_map, stats, Ctx, Phase, SETUP_REPS};

struct Request {
    /// Library circuit name, or a `tests/qasm` stem when `qasm` is set.
    circuit: &'static str,
    qasm: bool,
    env: &'static str,
    threshold: Option<f64>,
    /// A hand-written runtime from the paper the answer must also match.
    anchor: Option<&'static str>,
}

const fn lib(circuit: &'static str, env: &'static str) -> Request {
    Request {
        circuit,
        qasm: false,
        env,
        threshold: None,
        anchor: None,
    }
}

/// Multi-stage placements: paper Table 3 molecules, heavy-hex and line
/// devices, and three grid requests that exhaust the node budget and fall
/// back to anneal. The first two carry the paper's anchors.
const REQUESTS: [Request; 15] = [
    Request {
        threshold: Some(100.0),
        anchor: Some("0.0136 sec"),
        ..lib("qec3", "acetyl-chloride")
    },
    Request {
        anchor: Some("0.1448 sec"),
        ..lib("qft6", "trans-crotonic-acid")
    },
    lib("phaseest", "trans-crotonic-acid"),
    lib("qft6", "histidine"),
    lib("aqft9", "histidine"),
    lib("aqft12", "histidine"),
    lib("steane-x1", "histidine"),
    lib("qft6", "heavy_hex:3"),
    lib("aqft9", "heavy_hex:3"),
    lib("phaseest", "heavy_hex:3"),
    Request {
        qasm: true,
        ..lib("qft4", "line:16")
    },
    Request {
        qasm: true,
        ..lib("adder4", "line:16")
    },
    lib("qft6", "grid:8x8"),
    lib("phaseest", "grid:8x8"),
    lib("adder3", "grid:4x4"),
];

impl Request {
    fn args(&self, ctx: &Ctx) -> Vec<String> {
        let mut args = vec!["place".to_string()];
        if self.qasm {
            let path = ctx.work.join(format!("{}.qasm", self.circuit));
            args.extend(["--qasm".into(), path.display().to_string()]);
        } else {
            args.extend(["--circuit".into(), self.circuit.into()]);
        }
        args.extend(["--env".into(), self.env.into()]);
        if let Some(t) = self.threshold {
            args.extend(["--threshold".into(), t.to_string()]);
        }
        args.extend([
            "--strategy".into(),
            "hybrid".into(),
            "--budget-nodes".into(),
            BUDGET_NODES.to_string(),
        ]);
        args
    }

    fn circuit(&self, ctx: &Ctx) -> Result<Circuit, String> {
        if self.qasm {
            let text = ctx.corpus_file(self.circuit)?;
            qasm::parse(&text)
                .map(|p| p.circuit)
                .map_err(|e| format!("{}: {e}", self.circuit))
        } else {
            library::named(self.circuit).ok_or_else(|| format!("no circuit {}", self.circuit))
        }
    }

    fn label(&self) -> String {
        format!("{}@{}", self.circuit, self.env)
    }
}

/// The in-process reference answer for each request.
fn expected(ctx: &Ctx) -> Vec<Result<Answer, String>> {
    par_map(&REQUESTS, |r| {
        let circuit = r.circuit(ctx)?;
        let env = expect::environment(r.env)?;
        let config = expect::cli_config(&env, r.threshold)?;
        let outcome = expect::place(&circuit, &env, &config)?;
        expect::certified(&circuit, &env, &config, &outcome)?;
        Ok(Answer::of(&outcome, &env))
    })
}

pub fn run(ctx: &Ctx, spawner: &mut Spawner, traced: bool) -> Result<Phase, String> {
    let mut phase = Phase {
        round_size: REQUESTS.len(),
        ..Phase::default()
    };
    let args: Vec<Vec<String>> = REQUESTS.iter().map(|r| r.args(ctx)).collect();
    let mut rng = Rng::new(ctx.seed, 1);
    let mut runs: Vec<(usize, proc::Finished, bool)> = Vec::new();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        for r in REQUESTS.iter().filter(|r| r.qasm) {
            let text = ctx.corpus_file(r.circuit)?;
            std::fs::write(ctx.work.join(format!("{}.qasm", r.circuit)), text)
                .map_err(|e| e.to_string())?;
        }
        for (i, a) in args.iter().enumerate() {
            runs.push((
                i,
                spawner.run(&ctx.qcp, a).map_err(|e| e.to_string())?,
                false,
            ));
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    phase.setup_s = stats::median(&setups);

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let mut order: Vec<usize> = (0..REQUESTS.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let finished = spawner.run(&ctx.qcp, &args[i]).map_err(|e| e.to_string())?;
            runs.push((i, finished, true));
        }
    }
    phase.timed_s = start.elapsed().as_secs_f64();

    let expected = expected(ctx);
    let mut quality: Vec<Option<f64>> = vec![None; REQUESTS.len()];
    let mut outside = Vec::new();
    for (n, (i, finished, is_timed)) in runs.iter().enumerate() {
        let request = &REQUESTS[*i];
        if *is_timed {
            phase.attempted += 1;
            phase.latencies_ms.push(finished.wall().as_secs_f64() * 1e3);
            phase.cpu += finished.usage.cpu;
            phase.peak_rss_kb = phase.peak_rss_kb.max(finished.usage.peak_rss_kb);
        }
        if !finished.usage.status.success() {
            if *is_timed {
                phase.failed += 1;
            }
            phase.problems.push(format!(
                "{}: qcp place exited with {}",
                request.label(),
                finished.usage.status
            ));
            continue;
        }
        let (answer, executor_ms) = match expect::parse_place(&finished.stdout) {
            Ok(parsed) => parsed,
            Err(e) => {
                phase.problems.push(format!("{}: {e}", request.label()));
                continue;
            }
        };
        match &expected[*i] {
            Ok(want) => {
                if let Some(diff) = expect::mismatch(want, &answer) {
                    phase.problems.push(format!("{}: {diff}", request.label()));
                }
            }
            Err(e) => phase.problems.push(format!("{}: {e}", request.label())),
        }
        if let Some(anchor) = request.anchor {
            if answer.runtime != anchor {
                phase.problems.push(format!(
                    "{}: paper anchor {anchor}, got {}",
                    request.label(),
                    answer.runtime
                ));
            }
        }
        if *is_timed {
            phase.answered += 1;
            phase.exact += usize::from(answer.resolution == "exact");
            quality[*i].get_or_insert(answer.units());
            if traced {
                let span = phase.trace.record(
                    "cli.process",
                    finished.started,
                    finished.ended,
                    None,
                    n as u64,
                );
                outside.push(phase.trace.spans[span].ms() - executor_ms);
            }
        }
    }
    phase.quality = quality.into_iter().flatten().collect();
    if traced {
        phase
            .layers
            .insert("cli.outside_executor_ms", stats::median(&outside));
    }
    Ok(phase)
}

/// Replays each distinct request in-process, layer by layer.
pub fn replay(ctx: &Ctx) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, r) in REQUESTS.iter().enumerate() {
        let request = i as u64;
        let start = Instant::now();
        let root = trace.record("request", start, start, None, request);
        let circuit = if r.qasm {
            let text = ctx.corpus_file(r.circuit)?;
            let (parsed, _) = trace.time("qasm.parse", Some(root), request, || qasm::parse(&text));
            parsed.map_err(|e| e.to_string())?.circuit
        } else {
            r.circuit(ctx)?
        };
        let env = expect::environment(r.env)?;
        let config = expect::cli_config(&env, r.threshold)?;
        let outcome =
            trace::replay_placement(&mut trace, request, Some(root), &circuit, &env, &config)?;
        trace::replay_certify(
            &mut trace,
            request,
            Some(root),
            &circuit,
            &env,
            &config,
            &outcome,
        )?;
        trace.spans[root].end = Instant::now();
    }
    Ok(trace)
}
