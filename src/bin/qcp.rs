//! `qcp` — command-line quantum circuit placement.
//!
//! ```console
//! $ qcp molecules                         # list built-in environments
//! $ qcp circuits                          # list built-in circuits
//! $ qcp place --circuit qft6 --env trans-crotonic-acid --threshold 200
//! $ qcp place --circuit qft6 --topology grid:8x8
//! $ qcp place --circuit qft6 --topology grid:8x8 --strategy hybrid --budget-ms 50
//! $ qcp place --circuit my.qc --env my.mol --auto --gantt
//! $ qcp batch --circuits qec3,qec5,qft6 \
//!       --envs trans-crotonic-acid,grid:4x4,heavy_hex:3 --jobs 4
//! ```
//!
//! ```console
//! $ qcp place --qasm tests/qasm/qft4.qasm --topology grid:4x4 --strategy hybrid
//! $ qcp batch --qasm-dir tests/qasm --envs line:16,grid:4x4,heavy_hex:3 --jobs 4
//! $ qcp serve --addr 127.0.0.1:7878 --workers 4
//! ```
//!
//! Circuits are looked up in the built-in library first, then read as
//! files: OpenQASM 2.0 for `--qasm` and `*.qasm` paths
//! (`qcp_circuit::qasm`, warnings for dropped classical constructs go to
//! stderr), the text format of `qcp_circuit::text` otherwise.
//! Environments resolve as molecule names, then device-topology specs
//! (`qcp_env::topologies::TopologySpec`, e.g. `grid:8x8`), then files in
//! the `qcp_env::text` format.
//!
//! Exit codes follow a fixed taxonomy (GUIDE.md §9): 0 success, 2
//! parse/input error, 3 search budget exhausted, 4 verification reject
//! (including `lint --deny`), 5 internal error (a contained panic or
//! broken invariant).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use qcp::place::batch::BatchPlacer;
use qcp::place::fidelity::ExposureReport;
use qcp::place::request::Certifier;
use qcp::place::timeline::Timeline;
use qcp::place::PlaceError;
use qcp::prelude::*;
use qcp::serve::{ServeConfig, Server};
use qcp::verify::{lint_circuit, lint_qasm, LintReport, PlacementCertifier};
use qcp_circuit::library;
use qcp_env::molecules;
use qcp_env::topologies::{Delays, TopologySpec};

/// A CLI failure carrying its taxonomy exit code (GUIDE.md §9).
struct CliError {
    exit: u8,
    message: String,
}

impl CliError {
    /// Exit 2: the input (arguments, circuit, environment) is at fault.
    fn input(message: impl Into<String>) -> Self {
        CliError {
            exit: 2,
            message: message.into(),
        }
    }

    /// Exit 4: a placement or circuit failed verification/lint policy.
    fn verify(message: impl Into<String>) -> Self {
        CliError {
            exit: 4,
            message: message.into(),
        }
    }

    /// Maps a placement-pipeline error through its failure class
    /// (input → 2, budget → 3, internal → 5).
    fn from_place(e: &qcp::place::PlaceError) -> Self {
        CliError {
            exit: e.class().exit_code(),
            message: e.to_string(),
        }
    }
}

// Untyped string errors from helpers and argument parsing are input
// errors: the user can fix them.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::input(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::input(message)
    }
}

fn main() -> ExitCode {
    // The same panic containment the daemon gives its workers: a bug
    // anywhere below answers with the documented exit 5 instead of an
    // abort-style 101. The `QCP_CHAOS` seam lets the exit-code test suite
    // drive this path deliberately.
    match std::panic::catch_unwind(run) {
        Ok(code) => code,
        Err(_) => {
            eprintln!("error: internal panic (exit 5); this is a bug");
            ExitCode::from(5)
        }
    }
}

fn run() -> ExitCode {
    if std::env::var_os("QCP_CHAOS").is_some_and(|v| v == "panic") {
        panic!("chaos: injected CLI panic");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("molecules") => {
            for name in molecules::NAMES {
                let env = molecules::named(name).expect("registry name");
                println!("{name}: {} nuclei", env.qubit_count());
            }
            ExitCode::SUCCESS
        }
        Some("circuits") => {
            for name in library::NAMES {
                let c = library::named(name).expect("registry name");
                println!(
                    "{name}: {} qubits, {} gates ({} two-qubit)",
                    c.qubit_count(),
                    c.gate_count(),
                    c.two_qubit_gate_count()
                );
            }
            ExitCode::SUCCESS
        }
        Some("place") => finish(run_place(&args[1..])),
        Some("batch") => finish(run_batch(&args[1..])),
        Some("lint") => finish(run_lint(&args[1..])),
        Some("serve") => finish(run_serve(&args[1..])),
        _ => {
            eprintln!(
                "usage: qcp <molecules|circuits|place|batch|lint|serve> [options]\n\
                 place options:\n\
                 \x20 --circuit <name|file>   circuit (library name, *.qasm, or text file)\n\
                 \x20 --qasm <file>           circuit as an OpenQASM 2.0 file\n\
                 \x20 --env <name|spec|file>  environment (molecule, topology spec, or file)\n\
                 \x20 --topology <spec>       device backend (line:16, ring:12, grid:8x8,\n\
                 \x20                         heavy_hex:3, star:5); alternative to --env\n\
                 \x20 --coupling <units>      coupling delay for --topology (default 10)\n\
                 \x20 --threshold <units>     fast-interaction threshold\n\
                 \x20 --auto                  use the connectivity threshold (default)\n\
                 \x20 --k <n>                 candidate monomorphisms (default 100)\n\
                 \x20 --no-lookahead          greedy stage selection\n\
                 \x20 --fine-tune <rounds>    hill-climbing sweeps (default 2)\n\
                 \x20 --commutation           commutation-aware extraction\n\
                 \x20 --strategy <s>          exact | anneal | hybrid (default exact)\n\
                 \x20 --budget-ms <ms>        wall-clock search budget per request\n\
                 \x20 --budget-nodes <n>      deterministic search-node budget\n\
                 \x20 --gantt                 print the timed pulse chart\n\
                 \x20 --exposure              print idle/coupling exposure\n\
                 \x20 --verify                independently certify the outcome\n\
                 batch options:\n\
                 \x20 --circuits <a,b,...>    comma-separated circuits (names or files)\n\
                 \x20 --qasm-dir <dir>        ingest every *.qasm file in a directory\n\
                 \x20 --envs <a,b,...>        comma-separated environments/topologies\n\
                 \x20 --jobs <k>              worker threads (default: all cores)\n\
                 \x20 --threshold <units>     fixed threshold (default: per-env auto)\n\
                 \x20 --coupling <units>      coupling delay for topology specs\n\
                 \x20 --k/--no-lookahead/--fine-tune/--commutation as for place\n\
                 \x20 --strategy/--budget-ms/--budget-nodes as for place\n\
                 \x20 --verify                certify every successful outcome\n\
                 \x20 --no-dedup              disable cross-batch placement dedup\n\
                 lint options:\n\
                 \x20 qcp lint <input>... [--qasm-dir <dir>] [--deny]\n\
                 \x20 inputs are *.qasm files (span-aware), library names, or\n\
                 \x20 text-format circuit files; --deny fails on any finding (exit 4)\n\
                 serve options:\n\
                 \x20 --addr <host:port>      bind address (default 127.0.0.1:7878)\n\
                 \x20 --workers <n>           worker threads (default: one per core)\n\
                 \x20 --queue-depth <n>       bounded accept queue; overflow gets 429\n\
                 \x20 --budget-ms <ms>        default placement deadline (default 2000)\n\
                 \x20 --max-budget-ms <ms>    ceiling on requested deadlines\n\
                 \x20 --min-budget-ms <ms>    deadline floor; sub-floor budgets get 429\n\
                 \x20 --max-body-kb <kb>      request body cap (413 beyond it)\n\
                 \x20 --cache-entries <n>     result-cache capacity (default 256; 0 disables)\n\
                 \x20 --chaos                 honor x-qcp-chaos fault-injection headers\n\
                 \x20 --no-admin              disable POST /admin/drain\n\
                 exit codes: 0 ok, 2 parse/input, 3 budget exhausted,\n\
                 \x20          4 verify reject, 5 internal"
            );
            ExitCode::from(2)
        }
    }
}

fn finish(result: Result<(), CliError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

fn run_place(args: &[String]) -> Result<(), CliError> {
    let mut circuit_arg = None;
    let mut qasm_arg = None;
    let mut env_arg = None;
    let mut topology_arg = None;
    let mut coupling = 10.0f64;
    let mut threshold = None;
    let mut k = 100usize;
    let mut lookahead = true;
    let mut fine_tune = 2usize;
    let mut commutation = false;
    let mut strategy = Strategy::Exact;
    let mut budget = SearchBudget::unlimited();
    let mut gantt = false;
    let mut exposure = false;
    let mut verify = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--circuit" => circuit_arg = Some(value("--circuit")?),
            "--qasm" => qasm_arg = Some(value("--qasm")?),
            "--env" => env_arg = Some(value("--env")?),
            "--topology" => topology_arg = Some(value("--topology")?),
            "--coupling" => coupling = parse_coupling(&value("--coupling")?)?,
            "--threshold" => {
                threshold = Some(
                    value("--threshold")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad threshold: {e}"))?,
                );
            }
            "--auto" => threshold = None,
            "--k" => k = value("--k")?.parse().map_err(|e| format!("bad k: {e}"))?,
            "--no-lookahead" => lookahead = false,
            "--fine-tune" => {
                fine_tune = value("--fine-tune")?
                    .parse()
                    .map_err(|e| format!("bad rounds: {e}"))?;
            }
            "--commutation" => commutation = true,
            "--strategy" => strategy = value("--strategy")?.parse()?,
            "--budget-ms" => {
                budget = budget.with_deadline(parse_budget_ms(&value("--budget-ms")?)?);
            }
            "--budget-nodes" => {
                budget = budget.with_nodes(
                    value("--budget-nodes")?
                        .parse()
                        .map_err(|e| format!("bad node budget: {e}"))?,
                );
            }
            "--gantt" => gantt = true,
            "--exposure" => exposure = true,
            "--verify" => verify = true,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }

    let circuit = match (circuit_arg, qasm_arg) {
        (Some(_), Some(_)) => return Err("--circuit and --qasm are mutually exclusive".into()),
        (None, None) => return Err("--circuit or --qasm is required".into()),
        (Some(name), None) => load_circuit(&name)?,
        (None, Some(path)) => load_qasm_file(&path)?,
    };
    let env = match (env_arg, topology_arg) {
        (Some(_), Some(_)) => return Err("--env and --topology are mutually exclusive".into()),
        (None, None) => return Err("--env or --topology is required".into()),
        (Some(name), None) => load_env(&name, coupling)?,
        (None, Some(spec)) => build_topology(&spec, coupling)?,
    };
    let threshold = match threshold {
        Some(units) if units < 0.0 || units.is_nan() => {
            return Err(format!("--threshold must be non-negative, got {units}").into())
        }
        Some(units) => Threshold::new(units),
        None => env
            .connectivity_threshold()
            .ok_or("environment is disconnected; pass --threshold explicitly")?,
    };

    let config = PlacerConfig::with_threshold(threshold)
        .candidates(k)
        .lookahead(lookahead)
        .fine_tuning(fine_tune)
        .commutation_aware(commutation)
        .strategy(strategy)
        .budget(budget);
    // The one-shot CLI runs through the same unified request executor as
    // batch and the serve daemon (qcp_place::request), so keying,
    // verification, and error taxonomy can never drift between surfaces.
    let request = PlaceRequest::new(&circuit, &env)
        .config(config)
        .verify(verify);
    let report = match execute_with(&request, None, Some(&PlacementCertifier)) {
        Ok(report) => report,
        Err(PlaceError::VerificationFailed { violations }) => {
            for line in &violations {
                eprintln!("verify: {line}");
            }
            return Err(CliError::verify(format!(
                "placement failed verification with {} violation(s)",
                violations.len()
            )));
        }
        Err(e) => return Err(CliError::from_place(&e)),
    };
    let outcome = &report.outcome;
    let elapsed = report.elapsed;

    if let Some(summary) = &report.certificate {
        println!("{summary}");
    }

    println!(
        "placed `{}` ({} qubits, {} gates) on `{}` ({} nuclei) at threshold {}",
        circuit_arg_display(&circuit),
        circuit.qubit_count(),
        circuit.gate_count(),
        env.name(),
        env.qubit_count(),
        threshold
    );
    println!(
        "strategy {strategy} resolved {} in {:.1} ms",
        outcome.resolution,
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "runtime {}  |  {} subcircuit(s), {} swap(s)",
        outcome.runtime,
        outcome.subcircuit_count(),
        outcome.swap_count()
    );
    let names = env.nucleus_names();
    const MAX_STAGES_SHOWN: usize = 16;
    for (si, stage) in outcome.stages.iter().take(MAX_STAGES_SHOWN).enumerate() {
        let map: Vec<String> = (0..circuit.qubit_count())
            .map(|qi| {
                let v = stage.placement.physical(Qubit::new(qi));
                format!("q{qi}→{}", names[v.index()])
            })
            .collect();
        println!(
            "stage {}: {} gates, {} swap levels in, [{}]",
            si + 1,
            stage.subcircuit.gate_count(),
            stage.swaps.depth(),
            map.join(", ")
        );
    }
    if outcome.stages.len() > MAX_STAGES_SHOWN {
        println!(
            "… and {} more stage(s)",
            outcome.stages.len() - MAX_STAGES_SHOWN
        );
    }
    if gantt || exposure {
        let tl = Timeline::compute(&outcome.schedule, &env, &CostModel::overlapped());
        if gantt {
            println!("\n{}", tl.gantt(&names, 72));
        }
        if exposure {
            let report = ExposureReport::from_timeline(&tl, &env);
            println!("\nworst drift-coupling exposures (need refocusing):");
            for (a, b, t) in report.worst_couplings(5) {
                println!("  {} -- {}: {}", names[a.index()], names[b.index()], t);
            }
        }
    }
    Ok(())
}

/// `qcp batch`: place every circuit on every environment in parallel.
fn run_batch(args: &[String]) -> Result<(), CliError> {
    let mut circuits_arg = None;
    let mut qasm_dir_arg = None;
    let mut envs_arg = None;
    let mut jobs = 0usize;
    let mut coupling = 10.0f64;
    let mut threshold = None;
    let mut k = 100usize;
    let mut lookahead = true;
    let mut fine_tune = 2usize;
    let mut commutation = false;
    let mut strategy = Strategy::Exact;
    let mut budget = SearchBudget::unlimited();
    let mut verify = false;
    let mut dedup = true;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--circuits" => circuits_arg = Some(value("--circuits")?),
            "--qasm-dir" => qasm_dir_arg = Some(value("--qasm-dir")?),
            "--envs" => envs_arg = Some(value("--envs")?),
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad job count: {e}"))?;
            }
            "--coupling" => coupling = parse_coupling(&value("--coupling")?)?,
            "--threshold" => {
                let units: f64 = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                if units < 0.0 || units.is_nan() {
                    return Err(format!("--threshold must be non-negative, got {units}").into());
                }
                threshold = Some(Threshold::new(units));
            }
            "--auto" => threshold = None,
            "--k" => k = value("--k")?.parse().map_err(|e| format!("bad k: {e}"))?,
            "--no-lookahead" => lookahead = false,
            "--fine-tune" => {
                fine_tune = value("--fine-tune")?
                    .parse()
                    .map_err(|e| format!("bad rounds: {e}"))?;
            }
            "--commutation" => commutation = true,
            "--strategy" => strategy = value("--strategy")?.parse()?,
            "--budget-ms" => {
                budget = budget.with_deadline(parse_budget_ms(&value("--budget-ms")?)?);
            }
            "--budget-nodes" => {
                budget = budget.with_nodes(
                    value("--budget-nodes")?
                        .parse()
                        .map_err(|e| format!("bad node budget: {e}"))?,
                );
            }
            "--verify" => verify = true,
            "--no-dedup" => dedup = false,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }

    let mut circuits: Vec<(String, Circuit)> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    if let Some(arg) = &circuits_arg {
        for name in split_list(arg) {
            let circuit = load_circuit(&name)?;
            circuits.push((name, circuit));
        }
    }
    if let Some(dir) = &qasm_dir_arg {
        let load = load_qasm_dir(dir)?;
        circuits.extend(load.circuits);
        skipped = load.skipped;
    }
    if circuits_arg.is_none() && qasm_dir_arg.is_none() {
        return Err("--circuits or --qasm-dir is required".into());
    }
    let envs: Vec<Environment> = split_list(&envs_arg.ok_or("--envs is required")?)
        .iter()
        .map(|name| load_env(name, coupling))
        .collect::<Result<_, _>>()?;
    if circuits.is_empty() || envs.is_empty() {
        return Err("the circuit list and --envs must both be non-empty".into());
    }

    let base = PlacerConfig::default()
        .candidates(k)
        .lookahead(lookahead)
        .fine_tuning(fine_tune)
        .commutation_aware(commutation)
        .strategy(strategy)
        .budget(budget);
    let batch = match threshold {
        Some(t) => {
            let config = PlacerConfig {
                threshold: t,
                ..base
            };
            BatchPlacer::cross_named(&circuits, &envs, &config)
        }
        None => BatchPlacer::cross_named_auto(&circuits, &envs, &base),
    };
    let batch = batch.jobs(jobs).dedup(dedup);
    let report = batch.run();
    print!("{report}");
    if verify {
        let mut certified = 0usize;
        let mut bad = 0usize;
        for result in &report.results {
            let request = &batch.requests()[result.index];
            let Ok(outcome) = &result.outcome else {
                continue;
            };
            let place_request = PlaceRequest::new(&request.circuit, &request.environment)
                .config(request.config.clone());
            match PlacementCertifier.certify(&place_request, outcome) {
                Ok(_) => certified += 1,
                Err(violations) => {
                    bad += 1;
                    for line in &violations {
                        eprintln!("verify: {}: {line}", result.label);
                    }
                }
            }
        }
        if bad > 0 {
            return Err(CliError::verify(format!(
                "{bad} placement(s) failed verification"
            )));
        }
        println!("verified: {certified} placement(s) certified");
    }
    if !skipped.is_empty() {
        return Err(CliError::input(format!(
            "skipped {} malformed QASM file(s); the rest of the batch ran to completion",
            skipped.len()
        )));
    }
    Ok(())
}

/// `qcp lint`: static circuit analysis — structural warnings plus
/// width/depth/interaction statistics, with source spans for QASM inputs.
fn run_lint(args: &[String]) -> Result<(), CliError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut deny = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--qasm-dir" => {
                let dir = it.next().ok_or("--qasm-dir needs a value")?;
                let entries =
                    std::fs::read_dir(dir).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
                let mut paths: Vec<std::path::PathBuf> = entries
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
                    .collect();
                paths.sort();
                if paths.is_empty() {
                    return Err(format!("`{dir}` contains no .qasm files").into());
                }
                inputs.extend(paths.into_iter().map(|p| p.display().to_string()));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`").into()),
            input => inputs.push(input.to_string()),
        }
    }
    if inputs.is_empty() {
        return Err("qcp lint needs at least one input (file, library name, or --qasm-dir)".into());
    }

    let mut total_findings = 0usize;
    // Combined fingerprint: FNV-1a over the per-file report fingerprints in
    // input order, so CI can pin the whole corpus with one value.
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |fp: u64| {
        for byte in fp.to_le_bytes() {
            combined ^= u64::from(byte);
            combined = combined.wrapping_mul(0x0100_0000_01b3);
        }
    };

    for input in &inputs {
        let report = lint_input(input)?;
        let s = &report.stats;
        println!(
            "{input}: {} qubits, {} gates ({} two-qubit), depth {}, \
             {} interaction pair(s), max degree {}, {} component(s)",
            s.qubits,
            s.gates,
            s.two_qubit_gates,
            s.depth,
            s.interaction_pairs,
            s.max_degree,
            s.components
        );
        for finding in &report.findings {
            println!("{input}:{finding}");
        }
        total_findings += report.findings.len();
        fold(report.fingerprint());
    }

    println!(
        "lint: {total_findings} finding(s) in {} file(s) [fingerprint {combined:#018x}]",
        inputs.len()
    );
    if deny && total_findings > 0 {
        return Err(CliError::verify(format!(
            "--deny: {total_findings} finding(s)"
        )));
    }
    Ok(())
}

/// `qcp serve`: run the fault-tolerant placement daemon until drained
/// (`POST /admin/drain`, or EOF / `drain` on an interactive stdin).
fn run_serve(args: &[String]) -> Result<(), CliError> {
    use std::io::IsTerminal;

    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
            }
            "--queue-depth" => {
                let depth: usize = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad queue depth: {e}"))?;
                config = config.queue_depth(depth);
            }
            "--budget-ms" => {
                config.default_budget_ms = value("--budget-ms")?
                    .parse()
                    .map_err(|e| format!("bad budget: {e}"))?;
            }
            "--max-budget-ms" => {
                config.max_budget_ms = value("--max-budget-ms")?
                    .parse()
                    .map_err(|e| format!("bad budget ceiling: {e}"))?;
            }
            "--min-budget-ms" => {
                let ms: u64 = value("--min-budget-ms")?
                    .parse()
                    .map_err(|e| format!("bad budget floor: {e}"))?;
                config = config.min_budget_ms(ms);
            }
            "--max-body-kb" => {
                let kb: usize = value("--max-body-kb")?
                    .parse()
                    .map_err(|e| format!("bad body cap: {e}"))?;
                config.max_body_bytes = kb.saturating_mul(1024);
            }
            "--cache-entries" => {
                let entries: usize = value("--cache-entries")?
                    .parse()
                    .map_err(|e| format!("bad cache capacity: {e}"))?;
                config = config.cache_entries(entries);
            }
            "--chaos" => config.chaos = true,
            "--no-admin" => config.admin = false,
            other => return Err(CliError::input(format!("unknown option `{other}`"))),
        }
    }

    let server = Server::start(config)
        .map_err(|e| CliError::input(format!("cannot start the server: {e}")))?;
    println!(
        "qcp serve: listening on http://{} ({} worker(s))",
        server.local_addr(),
        server.worker_count()
    );
    println!(
        "qcp serve: POST /place?circuit=<name>&env=<spec>[&strategy=…&budget_ms=…], \
         GET /healthz, POST /admin/drain to stop"
    );

    // Interactive runs can also drain from the keyboard; a daemonized
    // process (stdin is /dev/null or a pipe) must NOT watch stdin, or it
    // would drain instantly on EOF.
    if std::io::stdin().is_terminal() {
        let handle = server.drain_handle();
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::stdin().read_line(&mut line) {
                    Ok(0) | Err(_) => {
                        handle.drain();
                        break;
                    }
                    Ok(_) if matches!(line.trim(), "drain" | "quit" | "exit") => {
                        handle.drain();
                        break;
                    }
                    Ok(_) => {}
                }
            }
        });
    }

    let counters: Vec<String> = server
        .join()
        .counters()
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("qcp serve: drained; {}", counters.join(" "));
    Ok(())
}

/// Lints one input: `*.qasm` files keep their source spans and barrier
/// structure; everything else resolves like `--circuit` does.
fn lint_input(input: &str) -> Result<LintReport, String> {
    if input.ends_with(".qasm") {
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
        let parsed =
            qcp::circuit::qasm::parse(&text).map_err(|e| format!("parsing `{input}`: {e}"))?;
        for w in &parsed.warnings {
            eprintln!("warning: {input}:{w}");
        }
        return Ok(lint_qasm(&parsed));
    }
    let circuit = load_circuit(input)?;
    Ok(lint_circuit(&circuit))
}

fn split_list(arg: &str) -> Vec<String> {
    arg.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

fn parse_budget_ms(text: &str) -> Result<std::time::Duration, String> {
    let ms: u64 = text.parse().map_err(|e| format!("bad budget: {e}"))?;
    Ok(std::time::Duration::from_millis(ms))
}

fn parse_coupling(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(units) if units.is_finite() && units >= 0.0 => Ok(units),
        Ok(units) => Err(format!(
            "--coupling must be finite and non-negative, got {units}"
        )),
        Err(e) => Err(format!("bad coupling: {e}")),
    }
}

fn build_topology(spec: &str, coupling: f64) -> Result<Environment, String> {
    let parsed: TopologySpec = spec.parse().map_err(|e| format!("{e}"))?;
    Ok(parsed.build(Delays::uniform(coupling)))
}

fn circuit_arg_display(c: &Circuit) -> String {
    format!("{}q/{}g", c.qubit_count(), c.gate_count())
}

fn load_circuit(arg: &str) -> Result<Circuit, String> {
    if let Some(c) = library::named(arg) {
        return Ok(c);
    }
    if arg.ends_with(".qasm") {
        return load_qasm_file(arg);
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| format!("`{arg}` is not a library circuit and cannot be read: {e}"))?;
    qcp::circuit::text::parse(&text).map_err(|e| format!("parsing `{arg}`: {e}"))
}

/// Reads and parses one OpenQASM 2.0 file; dropped-construct warnings go
/// to stderr, prefixed with the file and source position.
fn load_qasm_file(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // Diagnostics carry the source position in the standard
    // `path:line:col` shape so editors and CI log scrapers can jump to it.
    let parsed = qcp::circuit::qasm::parse(&text).map_err(|e| match e.span() {
        Some(span) => format!("{path}:{}:{}: {e}", span.line, span.col),
        None => format!("parsing `{path}`: {e}"),
    })?;
    for w in &parsed.warnings {
        eprintln!("warning: {path}:{w}");
    }
    Ok(parsed.circuit)
}

/// The result of scanning a QASM directory: the circuits that parsed,
/// plus a `path:line:col: message` diagnostic per malformed file.
struct QasmDirLoad {
    circuits: Vec<(String, Circuit)>,
    skipped: Vec<String>,
}

/// Ingests every `*.qasm` file in `dir` (sorted by file name); the file
/// stem becomes the circuit's batch label. A malformed file is skipped —
/// with a per-file diagnostic on stderr carrying the source position —
/// instead of sinking the whole batch; only a directory with *no*
/// parseable file at all is an error.
fn load_qasm_dir(dir: &str) -> Result<QasmDirLoad, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("`{dir}` contains no .qasm files"));
    }
    let total = paths.len();
    let mut load = QasmDirLoad {
        circuits: Vec::new(),
        skipped: Vec::new(),
    };
    for p in paths {
        let path = p.display().to_string();
        let stem = p
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        match load_qasm_file(&path) {
            Ok(circuit) => load.circuits.push((stem, circuit)),
            Err(message) => {
                eprintln!("warning: skipping malformed `{path}`: {message}");
                load.skipped.push(message);
            }
        }
    }
    if load.circuits.is_empty() {
        return Err(format!(
            "all {total} .qasm file(s) in `{dir}` are malformed; first: {}",
            load.skipped.first().map_or("", String::as_str)
        ));
    }
    Ok(load)
}

/// Resolves an environment argument: a molecule name, then a topology
/// spec (`grid:8x8`), then a file in the `qcp_env::text` format.
fn load_env(arg: &str, coupling: f64) -> Result<Environment, String> {
    if let Some(env) = molecules::named(arg) {
        return Ok(env);
    }
    let topology_err = match arg.parse::<TopologySpec>() {
        Ok(spec) => return Ok(spec.build(Delays::uniform(coupling))),
        Err(e) => e,
    };
    // Not a valid spec: fall back to reading a file (paths may legally
    // contain `:`), but keep the more specific error for spec-shaped args
    // that name no file.
    match std::fs::read_to_string(arg) {
        Ok(text) => qcp::env::text::parse(&text).map_err(|e| format!("parsing `{arg}`: {e}")),
        Err(_) if arg.contains(':') => Err(topology_err.to_string()),
        Err(e) => Err(format!(
            "`{arg}` is not a library molecule or topology spec and cannot be read: {e}"
        )),
    }
}
