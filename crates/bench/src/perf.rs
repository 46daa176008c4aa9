//! Machine-readable performance baseline (`perf` binary).
//!
//! Times the hot-path suites (subgraph monomorphism, SWAP routing,
//! whole-circuit placement on the paper's Table 2 and 3 workloads, with
//! Table 2's exhaustive optimum as the small-instance ground truth), the
//! Table 4 chain workloads end-to-end, the 32-request topology-zoo batch
//! at 1 and 4 workers, and the OpenQASM ingestion path (parse+lower, and
//! a full `--qasm`-style parse-and-place round), and renders the medians
//! as JSON (`BENCH_PLACE.json` at the workspace root). This is the
//! workspace's one micro-benchmark harness: re-running the binary with
//! `--baseline` pointing at the committed file gives per-case speedup
//! factors, so the repo keeps a perf trajectory.
//!
//! Measurement: calibrate an iteration count against a per-sample time
//! budget, take a handful of samples, report the median nanoseconds per
//! iteration. `--quick` is the CI smoke mode: smaller budgets, fewer
//! samples, the 256-qubit chain replaced by its 64-qubit sibling, and
//! the 32-request batch zoo shrunk to 8 requests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use qcp_circuit::library;
use qcp_env::topologies::{self, Delays};
use qcp_env::{molecules, Threshold};
use qcp_graph::vf2::MonomorphismFinder;
use qcp_graph::{generate, Graph};
use qcp_place::baselines::exhaustive_placement;
use qcp_place::cost::CostModel;
use qcp_place::router::{route_permutation, RouterConfig};
use qcp_place::{
    execute, execute_with, BatchPlacer, CanonicalCircuit, PlaceRequest, PlacementCache, Placer,
    PlacerConfig, Resolution, SearchBudget, Strategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One timed case.
#[derive(Clone, Debug)]
pub struct PerfCase {
    /// Suite the case belongs to (`mono`, `router`, `place`, `e2e`,
    /// `batch`, `strategy`, `ingest`, `cache`).
    pub suite: &'static str,
    /// Unique case name, prefixed by its suite.
    pub name: &'static str,
    /// Median nanoseconds per iteration.
    pub median_ns: u64,
    /// Minimum nanoseconds per iteration across the samples. External
    /// load only ever *adds* time, so the minimum is the noise-robust
    /// estimator the CI regression gate compares.
    pub min_ns: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

fn measure(quick: bool, mut f: impl FnMut()) -> (u64, u64, usize, u64) {
    // Calibration run doubles as warm-up.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(1));
    let budget = if quick {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(40)
    };
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 20_000) as u64;
    // Several samples everywhere: the regression gate compares the
    // per-case *minimum*, which needs a handful of attempts to touch the
    // noise floor on a shared runner (a lone sample cannot estimate it).
    let samples = match (quick, once >= Duration::from_millis(200)) {
        (true, true) => 3,
        (true, false) => 5,
        (false, true) => 3,
        (false, false) => 9,
    };
    let mut medians: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        medians.push((start.elapsed().as_nanos() / u128::from(iters)) as u64);
    }
    medians.sort_unstable();
    let mut min = medians[0];
    if iters == 1 {
        // The calibration run is a full single iteration too — a free
        // extra sample for the heavy cases, where every sample counts
        // toward a stable minimum.
        min = min.min(once.as_nanos() as u64);
    }
    (medians[medians.len() / 2], min, samples, iters)
}

/// Runs every suite and returns the timed cases in a stable order.
pub fn run_suites(quick: bool) -> Vec<PerfCase> {
    let mut out = Vec::new();
    let mut case = |suite: &'static str, name: &'static str, f: &mut dyn FnMut()| {
        let (median_ns, min_ns, samples, iters) = measure(quick, f);
        out.push(PerfCase {
            suite,
            name,
            median_ns,
            min_ns,
            samples,
            iters,
        });
    };

    // --- monomorphism suite (the paper's stated bottleneck, §5.3) ---
    let grid66 = generate::grid(6, 6);
    let grid55 = generate::grid(5, 5);
    let chain8 = generate::chain(8);
    let ring8 = generate::ring(8);
    let chain12 = generate::chain(12);
    let ring24 = generate::ring(24);
    let chain128 = generate::chain(128);
    let chain256 = generate::chain(256);
    let mut rng = StdRng::seed_from_u64(3);
    let tree6 = generate::random_tree(6, &mut rng);
    let histidine = molecules::histidine().bond_graph();
    let cat10 = generate::chain(10);
    let crotonic = molecules::trans_crotonic_acid().bond_graph();
    let qec5 = library::qec5_benchmark().interaction_graph();

    let mono: [(&'static str, &Graph, &Graph, Option<usize>); 7] = [
        ("mono/chain8-into-grid6x6", &chain8, &grid66, Some(100)),
        ("mono/ring8-into-grid6x6", &ring8, &grid66, Some(100)),
        ("mono/chain12-into-ring24", &chain12, &ring24, Some(100)),
        ("mono/tree6-into-grid5x5", &tree6, &grid55, Some(100)),
        ("mono/chain128-into-chain256", &chain128, &chain256, None),
        ("mono/cat10-into-histidine", &cat10, &histidine, Some(100)),
        ("mono/qec5-into-crotonic", &qec5, &crotonic, Some(100)),
    ];
    for (name, pattern, target, limit) in mono {
        case("mono", name, &mut || match limit {
            Some(k) => {
                black_box(MonomorphismFinder::new(pattern, target).limit(k).find_all());
            }
            None => {
                black_box(MonomorphismFinder::new(pattern, target).exists());
            }
        });
    }

    // --- router suite ---
    let router_graphs: [(&'static str, Graph); 4] = [
        ("router/chain32", generate::chain(32)),
        ("router/grid6x6", generate::grid(6, 6)),
        ("router/crotonic-bonds", crotonic.clone()),
        ("router/histidine-bonds", histidine.clone()),
    ];
    for (name, graph) in &router_graphs {
        let mut rng = StdRng::seed_from_u64(7);
        let perm = generate::random_permutation(graph.node_count(), &mut rng);
        let targets: Vec<Option<usize>> = perm.into_iter().map(Some).collect();
        case("router", name, &mut || {
            black_box(
                route_permutation(graph, &targets, &RouterConfig::default())
                    .expect("connected graphs route"),
            );
        });
    }

    // --- placement suite (full pipeline on the paper's workloads) ---
    struct PlaceCase {
        name: &'static str,
        env: qcp_env::Environment,
        circuit: qcp_circuit::Circuit,
        config: PlacerConfig,
    }
    let connected = |env: &qcp_env::Environment| {
        PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
    };
    let place_cases = [
        PlaceCase {
            name: "place/qec3-acetyl",
            env: molecules::acetyl_chloride(),
            circuit: library::qec3_encoder(),
            config: PlacerConfig::with_threshold(Threshold::new(100.0)),
        },
        PlaceCase {
            name: "place/qec5-crotonic",
            env: molecules::trans_crotonic_acid(),
            circuit: library::qec5_benchmark(),
            config: connected(&molecules::trans_crotonic_acid()),
        },
        PlaceCase {
            name: "place/phaseest-crotonic-t200",
            env: molecules::trans_crotonic_acid(),
            circuit: library::phase_estimation(),
            config: PlacerConfig::with_threshold(Threshold::new(200.0)),
        },
        PlaceCase {
            name: "place/qft6-histidine-t500",
            env: molecules::histidine(),
            circuit: library::qft(6),
            config: PlacerConfig::with_threshold(Threshold::new(500.0)),
        },
        // Table 2 row 3: the cat state on histidine's 12 nuclei.
        PlaceCase {
            name: "place/cat10-histidine",
            env: molecules::histidine(),
            circuit: library::pseudo_cat(10),
            config: connected(&molecules::histidine())
                .candidates(50)
                .lookahead(false),
        },
    ];
    for pc in &place_cases {
        let placer = Placer::new(&pc.env, pc.config.clone());
        case("place", pc.name, &mut || {
            black_box(placer.place(&pc.circuit).expect("workloads place"));
        });
    }
    // Table 2's exhaustive optimum for qec3 on acetyl chloride (all 3!
    // assignments), the ground truth the heuristic is checked against.
    {
        let acetyl = molecules::acetyl_chloride();
        let qec3 = library::qec3_encoder();
        case("place", "place/exhaustive-qec3-acetyl", &mut || {
            black_box(
                exhaustive_placement(&qec3, &acetyl, &CostModel::overlapped(), 1e4)
                    .expect("3! assignments fit the limit"),
            );
        });
    }

    // --- Table 4 end-to-end (staged chains; includes environment build) ---
    case("e2e", "e2e/chain64-staged", &mut || {
        black_box(crate::experiments::table4_row(64, 2007));
    });
    if !quick {
        case("e2e", "e2e/chain256-staged", &mut || {
            black_box(crate::experiments::table4_row(256, 2007));
        });
    }

    // --- batch throughput (topology zoo: 8 circuits × 4 backends = 32
    // requests across grid / heavy-hex / molecule environments; quick
    // mode shrinks to a cheap 4 × 2 = 8-request zoo, mirroring the
    // chain256 → chain64 substitution above) ---
    let mut zoo_circuits: Vec<qcp_circuit::Circuit> = vec![
        library::qec3_encoder(),
        library::qec5_benchmark(),
        library::phase_estimation(),
        library::qft(4),
    ];
    let mut zoo_envs = vec![
        topologies::grid(4, 4, Delays::default()),
        topologies::heavy_hex(3, Delays::default()),
    ];
    if !quick {
        zoo_circuits.extend([
            library::qft(5),
            library::qft(6),
            library::pseudo_cat(7),
            library::grover_iteration(5),
        ]);
        zoo_envs.extend([molecules::trans_crotonic_acid(), molecules::histidine()]);
    }
    let zoo_size = zoo_circuits.len() * zoo_envs.len();
    let zoo_config = PlacerConfig::default().candidates(30);
    let zoo = |jobs: usize| {
        BatchPlacer::cross_auto(&zoo_circuits, &zoo_envs, &zoo_config)
            .jobs(jobs)
            .run()
    };
    // Determinism gate before timing: worker count must not change a
    // single outcome bit.
    {
        let serial = zoo(1);
        let parallel = zoo(4);
        assert_eq!(serial.results.len(), zoo_size);
        assert_eq!(serial.failed(), 0, "zoo workloads must all place");
        assert_eq!(
            serial.outcome_fingerprint(),
            parallel.outcome_fingerprint(),
            "batch outcomes must be identical across job counts"
        );
    }
    let (name1, name4) = if quick {
        ("batch/zoo8-jobs1", "batch/zoo8-jobs4")
    } else {
        ("batch/zoo32-jobs1", "batch/zoo32-jobs4")
    };
    case("batch", name1, &mut || {
        black_box(zoo(1));
    });
    case("batch", name4, &mut || {
        black_box(zoo(4));
    });

    // --- anytime strategies (identical cases in quick and full mode, so
    // the CI regression gate covers them; see `compare`) ---
    let hh3 = topologies::heavy_hex(3, Delays::default());
    let grid88 = topologies::grid(8, 8, Delays::default());
    let qft6 = library::qft(6);
    let qec5 = library::qec5_benchmark();
    let strat_config = |env: &qcp_env::Environment, strategy: Strategy, budget: SearchBudget| {
        PlacerConfig::with_threshold(env.connectivity_threshold().expect("connected"))
            .strategy(strategy)
            .budget(budget)
    };
    // The node-budgeted hybrid must really exercise the fallback chain —
    // pin the resolution before timing it.
    let hybrid_budget = SearchBudget::nodes(2_000);
    {
        let placer = Placer::new(&hh3, strat_config(&hh3, Strategy::Hybrid, hybrid_budget));
        let outcome = placer.place(&qft6).expect("hybrid always places");
        assert_eq!(
            outcome.resolution,
            Resolution::BudgetExhausted,
            "hybrid case must fall back, or it times the exact path twice"
        );
    }
    struct StrategyCase {
        name: &'static str,
        env: qcp_env::Environment,
        circuit: qcp_circuit::Circuit,
        strategy: Strategy,
        budget: SearchBudget,
    }
    let strategy_cases = [
        StrategyCase {
            name: "strategy/exact-qft6-heavyhex3",
            env: hh3.clone(),
            circuit: qft6.clone(),
            strategy: Strategy::Exact,
            budget: SearchBudget::unlimited(),
        },
        StrategyCase {
            name: "strategy/anneal-qft6-heavyhex3",
            env: hh3.clone(),
            circuit: qft6.clone(),
            strategy: Strategy::Anneal,
            budget: SearchBudget::unlimited(),
        },
        StrategyCase {
            name: "strategy/hybrid2k-qft6-heavyhex3",
            env: hh3,
            circuit: qft6.clone(),
            strategy: Strategy::Hybrid,
            budget: hybrid_budget,
        },
        StrategyCase {
            name: "strategy/exact-qec5-grid8x8",
            env: grid88.clone(),
            circuit: qec5.clone(),
            strategy: Strategy::Exact,
            budget: SearchBudget::unlimited(),
        },
        StrategyCase {
            name: "strategy/anneal-qec5-grid8x8",
            env: grid88.clone(),
            circuit: qec5,
            strategy: Strategy::Anneal,
            budget: SearchBudget::unlimited(),
        },
        // The headline symmetry-pruned exact workload: the regression
        // anchor for the orbit-pruned search itself.
        StrategyCase {
            name: "strategy/exact-qft6-grid8x8",
            env: grid88,
            circuit: qft6,
            strategy: Strategy::Exact,
            budget: SearchBudget::unlimited(),
        },
    ];
    for sc in &strategy_cases {
        let placer = Placer::new(&sc.env, strat_config(&sc.env, sc.strategy, sc.budget));
        case("strategy", sc.name, &mut || {
            black_box(placer.place(&sc.circuit).expect("strategy workloads place"));
        });
    }

    // --- OpenQASM ingestion (identical cases in quick and full mode so
    // the regression gate covers the frontend): parse+lower of the
    // largest committed corpus file, and the whole `--qasm` place path —
    // source text in, placement out ---
    const RANDOM_CNOT12: &str = include_str!("../../../tests/qasm/random_cnot12.qasm");
    const QFT4: &str = include_str!("../../../tests/qasm/qft4.qasm");
    case("ingest", "ingest/parse-random_cnot12", &mut || {
        black_box(qcp_circuit::qasm::parse(RANDOM_CNOT12).expect("corpus parses"));
    });
    {
        let grid44 = topologies::grid(4, 4, Delays::default());
        let config =
            PlacerConfig::with_threshold(grid44.connectivity_threshold().expect("connected"))
                .candidates(30)
                .strategy(Strategy::Hybrid);
        let placer = Placer::new(&grid44, config);
        case("ingest", "ingest/place-qasm-qft4-grid4x4", &mut || {
            let circuit = qcp_circuit::qasm::parse(QFT4)
                .expect("corpus parses")
                .circuit;
            black_box(placer.place(&circuit).expect("corpus places"));
        });
    }

    // --- canonicalization-keyed result cache (identical cases in quick
    // and full mode): the canonicalization pass on the densest corpus
    // circuit, then the same placement problem cold (cache bypassed
    // every iteration) vs warm (every iteration after the first is a
    // hit) — the committed numbers back EXPERIMENTS.md's cold/warm
    // table, and the warm case is the one serve answers from ---
    {
        let cnot12 = qcp_circuit::qasm::parse(RANDOM_CNOT12)
            .expect("corpus parses")
            .circuit;
        case("cache", "cache/canonicalize-random_cnot12", &mut || {
            black_box(CanonicalCircuit::of(&cnot12));
        });

        let grid44 = topologies::grid(4, 4, Delays::default());
        let config =
            PlacerConfig::with_threshold(grid44.connectivity_threshold().expect("connected"))
                .candidates(30)
                .strategy(Strategy::Hybrid);
        let qft4 = qcp_circuit::qasm::parse(QFT4)
            .expect("corpus parses")
            .circuit;
        {
            let config = config.clone();
            case("cache", "cache/place-qft4-grid4x4-cold", &mut || {
                let request = PlaceRequest::new(&qft4, &grid44).config(config.clone());
                black_box(execute(&request).expect("corpus places"));
            });
        }
        {
            let cache = PlacementCache::new(64);
            case("cache", "cache/place-qft4-grid4x4-warm", &mut || {
                let request = PlaceRequest::new(&qft4, &grid44).config(config.clone());
                let report = execute_with(&request, Some(&cache), None).expect("corpus places");
                black_box(report);
            });
        }
    }

    out
}

/// One row of a baseline-vs-current comparison (the CI regression gate).
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Case name (shared between the two files).
    pub name: String,
    /// Gate metric (min ns/iter, or median for old files) in the
    /// baseline file.
    pub baseline_ns: u64,
    /// Gate metric in the current file.
    pub current_ns: u64,
    /// `current / baseline` (> 1 means slower than the baseline).
    pub ratio: f64,
}

/// The result of comparing a current perf run against a committed
/// baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Rows for every case present in both files and above the noise
    /// floor, in baseline order.
    pub rows: Vec<CompareRow>,
    /// Cases skipped (missing on either side, or below the floor).
    pub skipped: usize,
    /// Slowdown factor above which a case counts as a regression.
    pub max_slowdown: f64,
}

impl Comparison {
    /// The regressed rows (ratio above the configured slowdown).
    pub fn regressions(&self) -> Vec<&CompareRow> {
        self.rows
            .iter()
            .filter(|r| r.ratio > self.max_slowdown)
            .collect()
    }

    /// `true` when no compared case regressed.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Human-readable table plus verdict line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            let verdict = if r.ratio > self.max_slowdown {
                "REGRESSED"
            } else {
                "ok"
            };
            let _ = writeln!(
                s,
                "{:<36} {:>12} -> {:>12} ns  ({:>5.2}x)  {}",
                r.name, r.baseline_ns, r.current_ns, r.ratio, verdict
            );
        }
        let _ = writeln!(
            s,
            "{} case(s) compared, {} skipped, {} regression(s) at >{:.0}% slowdown",
            self.rows.len(),
            self.skipped,
            self.regressions().len(),
            (self.max_slowdown - 1.0) * 100.0
        );
        s
    }
}

/// Compares the current run against a baseline (both as
/// [`parse_gate_metric`] maps): a case regresses when
/// `current > baseline * max_slowdown`. Cases present in only one file
/// are skipped (quick and full runs legitimately carry different
/// workload sizes for some suites), as are cases whose baseline value
/// is below `min_baseline_ns` — sub-microsecond timings are timer noise
/// on shared CI runners.
pub fn compare(
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    max_slowdown: f64,
    min_baseline_ns: u64,
) -> Comparison {
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            skipped += 1;
            continue;
        };
        if base < min_baseline_ns {
            skipped += 1;
            continue;
        }
        rows.push(CompareRow {
            name: name.clone(),
            baseline_ns: base,
            current_ns: cur,
            ratio: cur as f64 / base as f64,
        });
    }
    skipped += current
        .keys()
        .filter(|n| !baseline.contains_key(*n))
        .count();
    Comparison {
        rows,
        skipped,
        max_slowdown,
    }
}

/// One batch scaling pair: the same workload timed at 1 and 4 workers.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Shared case prefix (the name minus its `-jobsN` suffix).
    pub name: String,
    /// Nanoseconds per iteration at 1 worker.
    pub jobs1_ns: u64,
    /// Nanoseconds per iteration at 4 workers.
    pub jobs4_ns: u64,
    /// `jobs4 / jobs1` — below 1.0 means the workers actually help.
    pub ratio: f64,
}

/// Result of the batch scaling honesty gate (see [`scaling_check`]).
#[derive(Clone, Debug)]
pub struct ScalingCheck {
    /// Every `-jobs1`/`-jobs4` pair found in the run.
    pub rows: Vec<ScalingRow>,
    /// The core count the verdict was made under.
    pub cores: usize,
    /// Largest acceptable `jobs4 / jobs1` ratio when the gate is armed.
    pub max_ratio: f64,
    /// `false` on a single-core host: the ratios are still reported,
    /// but thread overhead is the *expected* outcome there, so nothing
    /// is asserted.
    pub enforced: bool,
}

impl ScalingCheck {
    /// The rows that violate the ratio bound (always empty when the
    /// gate is not enforced).
    pub fn violations(&self) -> Vec<&ScalingRow> {
        if !self.enforced {
            return Vec::new();
        }
        self.rows
            .iter()
            .filter(|r| r.ratio > self.max_ratio)
            .collect()
    }

    /// `true` when the gate holds (vacuously on single-core hosts).
    pub fn passed(&self) -> bool {
        self.violations().is_empty()
    }

    /// Human-readable ratio table plus verdict line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            let verdict = if self.enforced && r.ratio > self.max_ratio {
                "NOT SCALING"
            } else {
                "ok"
            };
            let _ = writeln!(
                s,
                "{:<36} jobs1 {:>12} ns, jobs4 {:>12} ns  ({:>5.2}x)  {}",
                r.name, r.jobs1_ns, r.jobs4_ns, r.ratio, verdict
            );
        }
        if self.enforced {
            let _ = writeln!(
                s,
                "scaling gate: {} pair(s) at <= {:.2}x on {} cores, {} violation(s)",
                self.rows.len(),
                self.max_ratio,
                self.cores,
                self.violations().len()
            );
        } else {
            let _ = writeln!(
                s,
                "scaling gate: skipped ({} pair(s) reported; single-core host times \
                 thread overhead, not scaling)",
                self.rows.len()
            );
        }
        s
    }
}

/// The batch scaling honesty gate: pairs every `<case>-jobs1` metric
/// with its `<case>-jobs4` sibling and, when the host actually has
/// cores to scale onto (`cores > 1`), requires
/// `jobs4 <= jobs1 * max_ratio`. On a single-core host the pairs are
/// reported but nothing is asserted — there, 4 workers measure thread
/// overhead by construction, and gating on it would institutionalize a
/// misleading baseline (the ROADMAP's perf-honesty problem).
pub fn scaling_check(
    current: &BTreeMap<String, u64>,
    cores: usize,
    max_ratio: f64,
) -> ScalingCheck {
    let mut rows = Vec::new();
    for (name, &ns1) in current {
        let Some(prefix) = name.strip_suffix("-jobs1") else {
            continue;
        };
        let Some(&ns4) = current.get(&format!("{prefix}-jobs4")) else {
            continue;
        };
        rows.push(ScalingRow {
            name: prefix.to_string(),
            jobs1_ns: ns1,
            jobs4_ns: ns4,
            ratio: ns4 as f64 / ns1.max(1) as f64,
        });
    }
    ScalingCheck {
        rows,
        cores,
        max_ratio,
        enforced: cores > 1,
    }
}

/// Renders the cases as JSON, one case object per line. When `baseline`
/// has a median for a case (keyed by name), the object also carries
/// `baseline_ns` and `speedup` (baseline / current).
pub fn to_json(cases: &[PerfCase], quick: bool, baseline: &BTreeMap<String, u64>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    s.push_str("  \"tool\": \"qcp_bench perf\",\n");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    s.push_str("  \"unit\": \"ns/iter (median)\",\n");
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"suite\": \"{}\", \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"samples\": {}, \"iters\": {}",
            c.suite, c.name, c.median_ns, c.min_ns, c.samples, c.iters
        );
        if let Some(&base) = baseline.get(c.name) {
            let speedup = base as f64 / c.median_ns.max(1) as f64;
            let _ = write!(s, ", \"baseline_ns\": {base}, \"speedup\": {speedup:.2}");
        }
        s.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `name → median_ns` from a previously written JSON file.
///
/// The parser is deliberately minimal: it understands exactly the
/// line-per-case layout [`to_json`] produces (each line carrying a
/// `"name"` and a `"median_ns"` field), which keeps the workspace free of
/// a JSON dependency.
pub fn parse_medians(json: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let Some(median) = field_u64(line, "median_ns") else {
            continue;
        };
        out.insert(name.to_string(), median);
    }
    out
}

/// Extracts `name → min_ns` (falling back to `median_ns` for files
/// written before the minimum was recorded). This is the map the CI
/// regression gate compares: external load only ever inflates a sample,
/// so minima are far more stable across runs and machines than medians.
pub fn parse_gate_metric(json: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let Some(value) = field_u64(line, "min_ns").or_else(|| field_u64(line, "median_ns")) else {
            continue;
        };
        out.insert(name.to_string(), value);
    }
    out
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cases() -> Vec<PerfCase> {
        vec![
            PerfCase {
                suite: "mono",
                name: "mono/a",
                median_ns: 120,
                min_ns: 100,
                samples: 7,
                iters: 100,
            },
            PerfCase {
                suite: "router",
                name: "router/b",
                median_ns: 3400,
                min_ns: 3000,
                samples: 3,
                iters: 10,
            },
        ]
    }

    #[test]
    fn json_roundtrips_medians_and_minima() {
        let json = to_json(&sample_cases(), false, &BTreeMap::new());
        let medians = parse_medians(&json);
        assert_eq!(medians.get("mono/a"), Some(&120));
        assert_eq!(medians.get("router/b"), Some(&3400));
        let gate = parse_gate_metric(&json);
        assert_eq!(gate.get("mono/a"), Some(&100));
        assert_eq!(gate.get("router/b"), Some(&3000));
        // Files written before min_ns existed fall back to the median.
        let legacy = "{\"name\": \"mono/a\", \"median_ns\": 777}";
        assert_eq!(parse_gate_metric(legacy).get("mono/a"), Some(&777));
    }

    #[test]
    fn baseline_adds_speedup() {
        let mut base = BTreeMap::new();
        base.insert("mono/a".to_string(), 240u64);
        let json = to_json(&sample_cases(), true, &base);
        assert!(json.contains("\"baseline_ns\": 240"));
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.contains("\"mode\": \"quick\""));
        // router/b has no baseline entry, so no speedup field on its line.
        let router_line = json.lines().find(|l| l.contains("router/b")).unwrap();
        assert!(!router_line.contains("speedup"));
    }

    #[test]
    fn scaling_gate_skipped_on_single_core() {
        let mut cur = BTreeMap::new();
        cur.insert("batch/zoo32-jobs1".to_string(), 1_000_000u64);
        cur.insert("batch/zoo32-jobs4".to_string(), 2_200_000u64); // overhead
        let check = scaling_check(&cur, 1, 1.10);
        assert_eq!(check.rows.len(), 1);
        assert!((check.rows[0].ratio - 2.2).abs() < 1e-9);
        assert!(!check.enforced);
        assert!(check.passed(), "single core must not gate on overhead");
        assert!(check.render().contains("skipped"));
    }

    #[test]
    fn scaling_gate_armed_on_multi_core() {
        let mut cur = BTreeMap::new();
        cur.insert("batch/zoo32-jobs1".to_string(), 1_000_000u64);
        cur.insert("batch/zoo32-jobs4".to_string(), 2_200_000u64); // violation
        cur.insert("batch/zoo8-jobs1".to_string(), 400_000u64);
        cur.insert("batch/zoo8-jobs4".to_string(), 150_000u64); // scales
        cur.insert("place/qft6-grid".to_string(), 3_000_000u64); // unpaired
        let check = scaling_check(&cur, 4, 1.10);
        assert_eq!(check.rows.len(), 2);
        assert!(check.enforced);
        assert!(!check.passed());
        let bad: Vec<&str> = check.violations().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(bad, ["batch/zoo32"]);
        assert!(check.render().contains("NOT SCALING"));
    }

    #[test]
    fn scaling_gate_ignores_orphan_jobs1() {
        let mut cur = BTreeMap::new();
        cur.insert("batch/zoo8-jobs1".to_string(), 400_000u64);
        let check = scaling_check(&cur, 8, 1.10);
        assert!(check.rows.is_empty());
        assert!(check.passed());
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let mut base = BTreeMap::new();
        base.insert("mono/a".to_string(), 1_000_000u64);
        base.insert("place/b".to_string(), 2_000_000u64);
        base.insert("tiny/noise".to_string(), 50u64); // below the floor
        base.insert("gone/c".to_string(), 1_000u64); // not in current
        let mut cur = BTreeMap::new();
        cur.insert("mono/a".to_string(), 1_200_000u64); // 1.20x: ok
        cur.insert("place/b".to_string(), 2_600_000u64); // 1.30x: regression
        cur.insert("tiny/noise".to_string(), 5_000u64); // skipped (floor)
        cur.insert("new/d".to_string(), 77u64); // not in baseline

        let cmp = compare(&base, &cur, 1.25, 1_000);
        assert_eq!(cmp.rows.len(), 2);
        assert_eq!(cmp.skipped, 3);
        assert!(!cmp.passed());
        let regressed: Vec<&str> = cmp.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, ["place/b"]);
        let text = cmp.render();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("1 regression(s)"), "{text}");

        let lenient = compare(&base, &cur, 1.5, 1_000);
        assert!(lenient.passed());
    }

    #[test]
    fn measure_reports_sane_medians() {
        // `black_box` every loop index so release codegen cannot
        // const-fold the whole workload to zero time (a 0 ns median
        // would fail the sanity assertions below).
        let (ns, min_ns, samples, iters) = measure(true, || {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        });
        assert!(ns > 0);
        assert!(min_ns > 0 && min_ns <= ns);
        assert!(samples >= 1 && iters >= 1);
    }
}
