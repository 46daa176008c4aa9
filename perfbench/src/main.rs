//! `perfbench`: end-to-end benchmark of `qcp place`, the `qcp serve`
//! socket and `qcp batch`, with an in-process per-layer trace.
//!
//! ```console
//! $ perfbench --qcp <path to qcp> --workload cli-search --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it through `perfbench/run.py`, which builds `qcp` and this harness
//! from source first. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs once untraced and once with client-side spans, its
//! distinct requests are replayed in-process with one span per library
//! call, and the metrics are the per-layer split plus the tracing
//! overhead. See `perfbench/README.md` for every workload and metric.

mod batch;
mod cli;
mod expect;
mod gen;
mod proc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use proc::Spawner;
use trace::Trace;

/// Worker threads for in-process reference computations; the benchmark
/// is sized for a 2-core host.
const THREADS: usize = 2;

/// Generated inputs and each run's files, under the repository root.
const WORK_DIR: &str = ".bench_build/perfbench-work";

/// Set-up repetitions per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Run-wide settings.
pub struct Ctx {
    pub qcp: String,
    /// Repository root (the corpus lives in `tests/qasm`).
    pub root: PathBuf,
    /// Scratch directory for generated inputs and the span file.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn corpus_file(&self, stem: &str) -> Result<String, String> {
        let path = self.root.join("tests/qasm").join(format!("{stem}.qasm"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one untraced or traced pass over a workload measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Median set-up wall time.
    pub setup_s: f64,
    /// Timed-phase wall time.
    pub timed_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Per-request latencies in the timed phase.
    pub latencies_ms: Vec<f64>,
    /// For a workload that runs its distinct requests in whole rounds
    /// (cli-search), the number per round; `latencies_ms` then holds whole
    /// rounds in order. 0 otherwise.
    pub round_size: usize,
    /// CPU time of the `qcp` processes during the timed phase.
    pub cpu: Duration,
    pub peak_rss_kb: u64,
    /// Achieved runtime (time units) of each distinct request.
    pub quality: Vec<f64>,
    pub exact: usize,
    pub answered: usize,
    /// Correctness failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Client-side per-layer metrics (traced phases only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Client-side spans (traced phases only).
    pub trace: Trace,
}

impl Phase {
    /// Writes the timed-phase latencies, one per line in completion order,
    /// for inspecting a run's noise after the fact.
    fn write_latencies(&self, path: &std::path::Path) -> Result<(), String> {
        let text: String = self.latencies_ms.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The median request latency. For a workload run in whole rounds it
    /// is the median over rounds of each round's mean latency. A round is
    /// one sample of the whole mix; single requests of a mix of unlike
    /// requests (3 ms to 300 ms on cli-search) leave sparse gaps near the
    /// pooled median, and a few slow samples move it across one.
    fn latency_p50_ms(&self) -> f64 {
        if self.round_size == 0 {
            return stats::median(&self.latencies_ms);
        }
        let rounds: Vec<f64> = self
            .latencies_ms
            .chunks(self.round_size)
            .map(stats::mean)
            .collect();
        stats::median(&rounds)
    }

    fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        if self.latencies_ms.is_empty() {
            return Err("no request was timed".into());
        }
        Ok(vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new(
                "throughput_rps",
                self.answered as f64 / self.timed_s.max(1e-9),
                "1/s",
            ),
            Metric::new("latency_p50_ms", self.latency_p50_ms(), "ms"),
            Metric::new(
                "cpu_ms_per_request",
                self.cpu.as_secs_f64() * 1e3 / self.attempted.max(1) as f64,
                "ms",
            ),
            Metric::new("peak_rss_mb", self.peak_rss_kb as f64 / 1024.0, "MB"),
            Metric::new(
                "quality_runtime_geomean",
                stats::geomean(&self.quality),
                "units",
            ),
            Metric::new(
                "exact_share",
                self.exact as f64 / self.answered.max(1) as f64,
                "ratio",
            ),
        ])
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Maps `f` over `items` on [`THREADS`] scoped workers, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

/// The per-layer metrics every traced run reports; a workload that
/// bypasses a layer reports 0 for it.
const LAYERS: [(&str, &str); 31] = [
    ("cli.outside_executor_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.executor_ms", "ms"),
    ("serve.outside_executor_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.remapped_share", "ratio"),
    ("serve.degraded_deadline_share", "ratio"),
    ("serve.queued_max", "count"),
    ("serve.generator_late_ms", "ms"),
    ("qasm.parse_us", "us"),
    ("cache.canonicalize_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.remap_us", "us"),
    ("placer.new_ms", "ms"),
    ("placer.place_ms", "ms"),
    ("placer.scoring_ms", "ms"),
    ("placer.stages", "count"),
    ("workspace.extract_ms", "ms"),
    ("workspace.vf2_nodes", "count"),
    ("embed.enumerate_ms", "ms"),
    ("embed.vf2_nodes", "count"),
    ("embed.candidates", "count"),
    ("router.route_us", "us"),
    ("router.calls", "count"),
    ("cost.score_us", "us"),
    ("strategy.exact_attempt_ms", "ms"),
    ("strategy.anneal_ms", "ms"),
    ("batch.deduped_share", "ratio"),
    ("batch.parallel_efficiency", "ratio"),
    ("batch.imbalance", "ratio"),
    ("verify.certify_ms", "ms"),
];

/// Per-layer metrics from the replay trace plus the traced phase's
/// client-side layers.
fn per_layer(replay: &Trace, client: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    let span_mean = |name: &str, scale: f64| stats::mean(&replay.durations_ms(name)) * scale;
    let value_mean = |name: &str| replay.values.get(name).map_or(0.0, |v| stats::mean(v));
    let count = |name: &str| replay.counts.get(name).copied().unwrap_or(0) as f64;
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "qasm.parse_us" => span_mean("qasm.parse", 1e3),
                "cache.canonicalize_us" => span_mean("cache.canonicalize", 1e3),
                "cache.lookup_us" => span_mean("cache.lookup", 1e3),
                "cache.remap_us" => span_mean("cache.remap", 1e3),
                "placer.new_ms" => span_mean("placer.new", 1.0),
                "placer.place_ms" => span_mean("placer.place", 1.0),
                "placer.scoring_ms" | "embed.enumerate_ms" => value_mean(name),
                "strategy.anneal_ms" => span_mean("strategy.anneal", 1.0),
                "workspace.extract_ms" => span_mean("workspace.extract", 1.0),
                "router.route_us" => span_mean("router.route", 1e3),
                "cost.score_us" => span_mean("cost.score", 1e3),
                "strategy.exact_attempt_ms" => span_mean("strategy.exact_attempt", 1.0),
                "verify.certify_ms" => span_mean("verify.certify", 1.0),
                "placer.stages"
                | "workspace.vf2_nodes"
                | "embed.vf2_nodes"
                | "embed.candidates"
                | "router.calls" => count(name),
                _ => client
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| value_mean(name)),
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CliSearch,
    ServeMix,
    BatchDedup,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cli-search" => Ok(Workload::CliSearch),
            "serve-mix" => Ok(Workload::ServeMix),
            "batch-dedup" => Ok(Workload::BatchDedup),
            other => Err(format!(
                "unknown workload `{other}` (cli-search, serve-mix, batch-dedup)"
            )),
        }
    }

    fn slug(self) -> &'static str {
        match self {
            Workload::CliSearch => "cli-search",
            Workload::ServeMix => "serve-mix",
            Workload::BatchDedup => "batch-dedup",
        }
    }

    fn run(self, ctx: &Ctx, spawner: &mut Spawner, traced: bool) -> Result<Phase, String> {
        match self {
            Workload::CliSearch => cli::run(ctx, spawner, traced),
            Workload::ServeMix => serve::run(ctx, traced),
            Workload::BatchDedup => batch::run(ctx, spawner, traced),
        }
    }

    fn replay(self, ctx: &Ctx, traced: &Phase) -> Result<Trace, String> {
        match self {
            Workload::CliSearch => cli::replay(ctx),
            Workload::ServeMix => serve::replay(ctx, traced),
            Workload::BatchDedup => batch::replay(ctx, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    qcp: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut qcp = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            "--qcp" => qcp = Some(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        qcp: qcp.ok_or("--qcp is required")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("tests/qasm").is_dir() {
        return Err("run from the repository root (tests/qasm not found)".into());
    }
    let work = root
        .join(WORK_DIR)
        .join(format!("{}-{}", args.workload.slug(), args.seed));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        qcp: args.qcp,
        root,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };

    let mut spawner = Spawner::start(ctx.work.join("qcp-stdout.txt"))
        .map_err(|e| format!("starting the spawn helper: {e}"))?;
    let untraced = args.workload.run(&ctx, &mut spawner, false)?;
    untraced.write_latencies(&ctx.work.join("latencies.txt"))?;
    let mut problems = untraced.problems.clone();
    let (attempted, failed, metrics) = if args.trace {
        let traced = args.workload.run(&ctx, &mut spawner, true)?;
        problems.extend(traced.problems.iter().cloned());
        let replay = args.workload.replay(&ctx, &traced)?;
        let mut spans = traced.trace.spans.clone();
        spans.extend(replay.spans.iter().cloned());
        let all = Trace {
            spans,
            ..Trace::default()
        };
        all.write_tsv(&ctx.work.join("spans.tsv"))
            .map_err(|e| format!("writing spans: {e}"))?;
        let mut metrics = per_layer(&replay, &traced.layers);
        let base = untraced.end_to_end()?;
        for (t, u) in traced.end_to_end()?.iter().zip(&base) {
            metrics.push(Metric::new(
                &format!("overhead.{}", t.name),
                t.value - u.value,
                t.unit,
            ));
        }
        (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            metrics,
        )
    } else {
        (untraced.attempted, untraced.failed, untraced.end_to_end()?)
    };

    for p in problems.iter().take(20) {
        eprintln!("perfbench: incorrect: {p}");
    }
    if problems.len() > 20 {
        eprintln!("perfbench: … {} more", problems.len() - 20);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_p50_of_whole_rounds_is_the_median_round_mean() {
        let rounds = [
            [10.0, 40.0, 100.0],
            [10.0, 45.0, 100.0],
            [70.0, 50.0, 100.0],
            [70.0, 55.0, 100.0],
            [10.0, 60.0, 100.0],
        ];
        let mut phase = Phase {
            latencies_ms: rounds.concat(),
            ..Phase::default()
        };
        assert_eq!(phase.latency_p50_ms(), 60.0);
        phase.round_size = 3;
        assert!((phase.latency_p50_ms() - 170.0 / 3.0).abs() < 1e-9);
    }
}
