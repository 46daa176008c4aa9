//! `perf` — runs the hot-path suites and writes `BENCH_PLACE.json`, or
//! gates a fresh run against the committed baseline.
//!
//! ```console
//! $ cargo run --release -p qcp_bench --bin perf             # full run
//! $ cargo run --release -p qcp_bench --bin perf -- --quick  # CI smoke
//! $ cargo run --release -p qcp_bench --bin perf -- \
//!       --baseline BENCH_PLACE.json --out BENCH_PLACE.json  # with speedups
//! $ cargo run --release -p qcp_bench --bin perf -- \
//!       compare BENCH_PLACE.json bench-place-ci.json \
//!       --max-slowdown 1.25                     # CI regression gate
//! ```
//!
//! `compare` exits non-zero when any shared case slowed down by more
//! than the configured factor; cases present in only one file (quick and
//! full runs size some suites differently) and cases under the
//! `--min-ns` noise floor are skipped.
//!
//! `--help` prints the usage. An unknown flag, a missing value or a bad
//! number prints it and exits 2 before any suite runs or file is written.

use qcp_bench::perf;

const USAGE: &str = "\
usage: perf [--quick] [--baseline <file>] [--out <file>]
       perf compare <baseline.json> <current.json> [--max-slowdown 1.25] [--min-ns 1000] \
[--max-scaling-ratio 1.10]

Without --out, the run writes BENCH_PLACE.json in the working directory.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
        return;
    }
    let mut quick = false;
    let mut out_path = "BENCH_PLACE.json".to_string();
    let mut baseline_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = flag_value(&mut it, arg),
            "--baseline" => baseline_path = Some(flag_value(&mut it, arg)),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let baseline = match baseline_path {
        Some(path) => read_medians(&path),
        None => Default::default(),
    };

    let cases = perf::run_suites(quick);
    for c in &cases {
        let speedup = baseline
            .get(c.name)
            .map(|&b| {
                format!(
                    "  ({:.2}x vs baseline)",
                    b as f64 / c.median_ns.max(1) as f64
                )
            })
            .unwrap_or_default();
        println!(
            "{}: median {} ns ({} samples x {} iters){speedup}",
            c.name, c.median_ns, c.samples, c.iters
        );
    }
    let json = perf::to_json(&cases, quick, &baseline);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perf: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

/// `perf compare <baseline.json> <current.json> [--max-slowdown f]
/// [--min-ns n] [--max-scaling-ratio f]`: the CI perf-regression gate.
fn run_compare(args: &[String]) {
    let mut max_slowdown = 1.25;
    let mut min_ns = 1_000;
    // Batch scaling honesty: on a multi-core host the jobs4 runs must
    // actually beat (or at least match) jobs1; on a single-core host the
    // ratios are reported but not asserted — 4 workers there time thread
    // overhead by construction.
    let mut max_ratio = 1.10;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-slowdown" => max_slowdown = number(arg, &flag_value(&mut it, arg)),
            "--min-ns" => min_ns = number(arg, &flag_value(&mut it, arg)),
            "--max-scaling-ratio" => max_ratio = number(arg, &flag_value(&mut it, arg)),
            flag if flag.starts_with('-') => usage_error(&format!("unknown argument `{flag}`")),
            path => positional.push(path),
        }
    }
    let [baseline_path, current_path] = positional[..] else {
        usage_error("compare needs exactly two files");
    };
    // Gate on per-case minima (falling back to medians for old files):
    // load only ever inflates a sample, so minima are stable across
    // shared CI runners where medians flake.
    let baseline = read_metric(baseline_path, perf::parse_gate_metric);
    let current = read_metric(current_path, perf::parse_gate_metric);
    let cmp = perf::compare(&baseline, &current, max_slowdown, min_ns);
    print!("{}", cmp.render());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scaling = perf::scaling_check(&current, cores, max_ratio);
    print!("{}", scaling.render());
    let regressions = cmp.regressions().len();
    let not_scaling = scaling.violations().len();
    if regressions > 0 || not_scaling > 0 {
        eprintln!(
            "perf compare: FAILED ({regressions} regression(s), {not_scaling} scaling violation(s))"
        );
        std::process::exit(1);
    }
    println!("perf compare: ok");
}

/// Prints `message` and the usage, then exits 2 (bad invocation).
fn usage_error(message: &str) -> ! {
    eprintln!("perf: {message}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, or a usage error when it is missing.
fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
    it.next()
        .cloned()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// `value` parsed as `flag`'s number, or a usage error.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got `{value}`")))
}

fn read_medians(path: &str) -> std::collections::BTreeMap<String, u64> {
    read_metric(path, perf::parse_medians)
}

fn read_metric(
    path: &str,
    parse: impl Fn(&str) -> std::collections::BTreeMap<String, u64>,
) -> std::collections::BTreeMap<String, u64> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) => {
            eprintln!("perf: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}
