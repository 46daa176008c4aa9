//! `batch-dedup`: a closed loop of `qcp batch` invocations over the QASM
//! corpus, each file written under four seeded relabellings.
//!
//! Only here do the batch fan-out, batch's own dedup (canonicalize each
//! request, place representatives, remap followers) and its load balance
//! over two workers run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use qcp_circuit::{qasm, Circuit};
use qcp_env::Environment;
use qcp_place::cache::{cache_key, remap_outcome};
use qcp_place::{CanonicalCircuit, PlacementOutcome, PlacerConfig};

use crate::expect::{self, Answer, BUDGET_NODES};
use crate::gen::{self, Relabelling, Rng};
use crate::proc::{self, Spawner};
use crate::trace::{self, Trace};
use crate::{par_map, stats, Ctx, Phase, SETUP_REPS};

/// The CI batch smoke's device set.
const ENVS: [&str; 3] = ["line:16", "grid:4x4", "heavy_hex:3"];
/// Copies of each corpus file per invocation.
const COPIES: usize = 4;
const JOBS: usize = 2;

/// One generated input file.
struct Input {
    stem: String,
    text: String,
}

/// The corpus stems in file-name order.
fn corpus_stems(ctx: &Ctx) -> Result<Vec<String>, String> {
    let dir = ctx.root.join("tests/qasm");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .filter_map(|p| Some(p.file_stem()?.to_string_lossy().into_owned()))
        .collect();
    stems.sort();
    Ok(stems)
}

/// Every corpus file as committed (`_r0`) and under seeded relabellings
/// (`_r1`, …), in the order `qcp batch` reads them back (sorted by path).
/// `_r0` sorts first and so is the representative `qcp batch` places: the
/// placed circuits, and with them quality and `exact_share`, do not
/// depend on the seed.
fn inputs(ctx: &Ctx) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(ctx.seed, 2);
    let mut out = Vec::new();
    for stem in corpus_stems(ctx)? {
        let source = gen::strip_comments(&ctx.corpus_file(&stem)?);
        for k in 0..COPIES {
            let text = if k == 0 {
                source.clone()
            } else {
                Relabelling::random(&source, &mut rng).apply(&source)?
            };
            out.push(Input {
                stem: format!("{stem}_r{k}"),
                text,
            });
        }
    }
    out.sort_by(|a, b| a.stem.cmp(&b.stem));
    Ok(out)
}

fn input_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("batch-in")
}

fn write_inputs(ctx: &Ctx, inputs: &[Input]) -> Result<(), String> {
    let dir = input_dir(ctx);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for input in inputs {
        std::fs::write(dir.join(format!("{}.qasm", input.stem)), &input.text)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn args(ctx: &Ctx) -> Vec<String> {
    [
        "batch",
        "--qasm-dir",
        &input_dir(ctx).display().to_string(),
        "--envs",
        &ENVS.join(","),
        "--jobs",
        &JOBS.to_string(),
        "--strategy",
        "hybrid",
        "--budget-nodes",
        &BUDGET_NODES.to_string(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

/// One batch request, in `qcp batch`'s circuit-major order.
struct Request {
    label: String,
    circuit: Circuit,
    env: Environment,
    config: PlacerConfig,
    canonical: CanonicalCircuit,
}

fn requests(inputs: &[Input]) -> Result<Vec<Request>, String> {
    let envs: Vec<Environment> = ENVS
        .iter()
        .map(|s| expect::environment(s))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for input in inputs {
        let circuit = qasm::parse(&input.text)
            .map_err(|e| format!("{}: {e}", input.stem))?
            .circuit;
        for env in &envs {
            out.push(Request {
                label: format!("{}@{}", input.stem, env.name()),
                canonical: CanonicalCircuit::of(&circuit),
                circuit: circuit.clone(),
                env: env.clone(),
                config: expect::batch_config(env),
            });
        }
    }
    Ok(out)
}

/// For each request, the index of the earlier request whose placement it
/// shares (same cache key, sound canonical form), or `None` when it is
/// placed itself.
fn representatives(requests: &[Request]) -> Vec<Option<usize>> {
    let mut first: HashMap<u128, usize> = HashMap::new();
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if r.canonical.exhausted {
                return None;
            }
            let key = cache_key(&r.canonical, &r.env, &r.config).as_u128();
            match first.get(&key) {
                Some(&rep) => Some(rep),
                None => {
                    first.insert(key, i);
                    None
                }
            }
        })
        .collect()
}

/// The reference answers: representatives placed fresh, followers given
/// the representative's outcome remapped through the two canonical
/// orders; every outcome certified.
fn expected(requests: &[Request], follows: &[Option<usize>]) -> Vec<Result<Answer, String>> {
    let placed: Vec<Option<Result<PlacementOutcome, String>>> = par_map(
        &requests.iter().zip(follows).collect::<Vec<_>>(),
        |(r, f)| {
            f.is_none()
                .then(|| expect::place(&r.circuit, &r.env, &r.config))
        },
    );
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let outcome = match follows[i] {
                None => placed[i].clone().ok_or("representative not placed")??,
                Some(rep) => {
                    let stored = placed[rep].clone().ok_or("representative not placed")??;
                    remap_outcome(&stored, &requests[rep].canonical.order, &r.canonical.order)
                        .ok_or("witness remap failed")?
                }
            };
            expect::certified(&r.circuit, &r.env, &r.config, &outcome)?;
            Ok(Answer::of(&outcome, &r.env))
        })
        .collect()
}

pub fn run(ctx: &Ctx, spawner: &mut Spawner, traced: bool) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let argv = args(ctx);
    let mut runs: Vec<(proc::Finished, bool)> = Vec::new();
    let mut inputs_once = None;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = inputs(ctx)?;
        write_inputs(ctx, &inputs)?;
        runs.push((
            spawner.run(&ctx.qcp, &argv).map_err(|e| e.to_string())?,
            false,
        ));
        setups.push(start.elapsed().as_secs_f64());
        inputs_once = Some(inputs);
    }
    phase.setup_s = stats::median(&setups);

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        runs.push((
            spawner.run(&ctx.qcp, &argv).map_err(|e| e.to_string())?,
            true,
        ));
    }
    phase.timed_s = start.elapsed().as_secs_f64();

    let inputs = inputs_once.ok_or("no set-up ran")?;
    let requests = requests(&inputs)?;
    let follows = representatives(&requests);
    let deduped = follows.iter().filter(|f| f.is_some()).count();
    let expected = expected(&requests, &follows);
    let mut quality: Vec<Option<f64>> = vec![None; requests.len()];
    let (mut efficiency, mut dedup_share) = (Vec::new(), Vec::new());
    for (n, (finished, is_timed)) in runs.iter().enumerate() {
        let output = expect::parse_batch(&finished.stdout);
        if *is_timed {
            phase.attempted += requests.len();
            phase.cpu += finished.usage.cpu;
            phase.peak_rss_kb = phase.peak_rss_kb.max(finished.usage.peak_rss_kb);
            // All of an invocation's answers arrive together when it exits.
            phase.latencies_ms.push(finished.wall().as_secs_f64() * 1e3);
        }
        let output = match output {
            Ok(output)
                if finished.usage.status.success() && output.results.len() == requests.len() =>
            {
                output
            }
            other => {
                if *is_timed {
                    phase.failed += requests.len();
                }
                phase.problems.push(format!(
                    "qcp batch exited with {} ({})",
                    finished.usage.status,
                    other.map_or_else(|e| e, |o| format!("{} results", o.results.len()))
                ));
                continue;
            }
        };
        if output.deduped != deduped {
            phase.problems.push(format!(
                "batch deduped {} requests, reference dedup gives {deduped}",
                output.deduped
            ));
        }
        for (i, (label, result)) in output.results.iter().enumerate() {
            let request = &requests[i];
            if *label != request.label {
                phase.problems.push(format!(
                    "result {i} is `{label}`, expected `{}`",
                    request.label
                ));
                continue;
            }
            let answer = match result {
                Ok(answer) => answer,
                Err(e) => {
                    if *is_timed {
                        phase.failed += 1;
                    }
                    phase.problems.push(format!("{label}: failed: {e}"));
                    continue;
                }
            };
            match &expected[i] {
                Ok(want) => {
                    if let Some(diff) = expect::mismatch(want, answer) {
                        phase.problems.push(format!("{label}: {diff}"));
                    }
                }
                Err(e) => phase.problems.push(format!("{label}: {e}")),
            }
            if *is_timed {
                phase.answered += 1;
                phase.exact += usize::from(answer.resolution == "exact");
                quality[i].get_or_insert(answer.units());
            }
        }
        if *is_timed && traced {
            phase.trace.record(
                "batch.invocation",
                finished.started,
                finished.ended,
                None,
                n as u64,
            );
            efficiency.push(output.cpu_s / (output.wall_s * output.jobs as f64).max(1e-9));
            dedup_share.push(output.deduped as f64 / requests.len() as f64);
        }
    }
    phase.quality = quality.into_iter().flatten().collect();
    if traced {
        phase
            .layers
            .insert("batch.parallel_efficiency", stats::median(&efficiency));
        phase
            .layers
            .insert("batch.deduped_share", stats::median(&dedup_share));
    }
    Ok(phase)
}

/// Replays one invocation in-process: parse each file, canonicalize each
/// request, place representatives layer by layer, remap followers.
pub fn replay(ctx: &Ctx, traced: &Phase) -> Result<Trace, String> {
    let mut trace = Trace::default();
    let inputs = inputs(ctx)?;
    for (i, input) in inputs.iter().enumerate() {
        let (parsed, _) = trace.time("qasm.parse", None, i as u64, || qasm::parse(&input.text));
        parsed.map_err(|e| e.to_string())?;
    }
    let requests = requests(&inputs)?;
    for (i, r) in requests.iter().enumerate() {
        trace.time("cache.canonicalize", None, i as u64, || {
            CanonicalCircuit::of(&r.circuit)
        });
    }
    let follows = representatives(&requests);
    let mut outcomes: Vec<Option<PlacementOutcome>> = vec![None; requests.len()];
    let mut slowest_ms = 0.0f64;
    for (i, r) in requests.iter().enumerate() {
        let request = i as u64;
        let start = Instant::now();
        let root = trace.record("request", start, start, None, request);
        let outcome = match follows[i] {
            None => {
                let outcome = trace::replay_placement(
                    &mut trace,
                    request,
                    Some(root),
                    &r.circuit,
                    &r.env,
                    &r.config,
                )?;
                let place = trace
                    .spans
                    .iter()
                    .rev()
                    .find(|s| s.name == "placer.place" && s.request == request)
                    .map_or(0.0, trace::Span::ms);
                slowest_ms = slowest_ms.max(place);
                outcome
            }
            Some(rep) => {
                let stored = outcomes[rep].as_ref().ok_or("representative missing")?;
                let rep_order = &requests[rep].canonical.order;
                trace
                    .time("cache.remap", Some(root), request, || {
                        remap_outcome(stored, rep_order, &r.canonical.order)
                    })
                    .0
                    .ok_or("witness remap failed")?
            }
        };
        trace::replay_certify(
            &mut trace,
            request,
            Some(root),
            &r.circuit,
            &r.env,
            &r.config,
            &outcome,
        )?;
        trace.spans[root].end = Instant::now();
        outcomes[i] = Some(outcome);
    }
    let wall = stats::median(&traced.trace.durations_ms("batch.invocation"));
    trace.value(
        "batch.imbalance",
        if wall > 0.0 { slowest_ms / wall } else { 0.0 },
    );
    Ok(trace)
}
