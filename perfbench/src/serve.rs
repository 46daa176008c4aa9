//! `serve-mix`: one `qcp serve --workers 2` daemon driven as an open loop
//! at a fixed rate, one new connection per request.
//!
//! 90% of requests go to primed catalog entries in Zipf proportions, each
//! sent under a fresh qubit relabelling, so most hits need a
//! witness remap; the rest are parameter-sweep points, each a real miss
//! plus an insert. Transport, QASM parsing, canonicalization and cache
//! reads and writes do the work; the heavy search never runs timed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qcp_circuit::qasm;
use qcp_place::cache::{cache_key, remap_outcome};
use qcp_place::{CanonicalCircuit, PlacementCache, PlacementOutcome};

use crate::expect::{self, Answer, BUDGET_NODES, SERVE_DEADLINE_MS};
use crate::gen::{self, Relabelling, Rng};
use crate::proc::{self, Guarded};
use crate::trace::{self, Trace};
use crate::{par_map, stats, Ctx, Phase, SETUP_REPS};

/// `(tests/qasm stem, device)` in popularity order: the README quick
/// start, the GUIDE §8 serve example, then the CI batch smoke's pairs.
/// `random_cnot12` is left out: some of its relabellings exhaust the
/// canonicalization budget and would be placed fresh in the timed phase.
const CATALOG: [(&str, &str); 20] = [
    ("qft4", "grid:4x4"),
    ("qec3", "grid:2x3"),
    ("adder4", "grid:4x4"),
    ("bell", "grid:4x4"),
    ("ghz8", "grid:4x4"),
    ("hwe4", "grid:4x4"),
    ("ising6", "grid:4x4"),
    ("qec3", "grid:4x4"),
    ("teleport3", "grid:4x4"),
    ("ugates4", "grid:4x4"),
    ("adder4", "heavy_hex:3"),
    ("bell", "heavy_hex:3"),
    ("ghz8", "heavy_hex:3"),
    ("hwe4", "heavy_hex:3"),
    ("ising6", "heavy_hex:3"),
    ("qec3", "heavy_hex:3"),
    ("qft4", "heavy_hex:3"),
    ("teleport3", "heavy_hex:3"),
    ("ugates4", "heavy_hex:3"),
    ("adder4", "line:16"),
];

/// Offered load: well below the roughly 300 hits/s one closed-loop
/// client reaches on a 2-core host, so a stalled reply rarely makes the
/// single generator thread late for the next slot.
const RATE_PER_S: f64 = 100.0;
const SWEEP_SHARE: f64 = 0.10;
/// Catalog plus sweep keys stay below the daemon's 256-entry cache, so
/// LRU eviction (whose order depends on thread interleaving) never
/// decides a miss.
const MAX_SWEEPS: usize = 230;
const SWEEP_SOURCES: [&str; 2] = ["hwe4", "ising6"];
const SWEEP_ENV: &str = "grid:4x4";
/// Every this many slots, `/healthz` is sampled half a gap later.
const HEALTHZ_EVERY: usize = 40;
/// A generator this late has fallen behind its schedule. Single replies
/// stalled by the host for up to about 260 ms were seen on a 2-core VM;
/// the generator catches up from those within a few dozen slots.
const LATE_LIMIT_MS: f64 = 1000.0;
const WORKERS: usize = 2;

/// One request body the workload sends.
#[derive(Clone, Debug)]
struct Request {
    /// Catalog index, or `None` for a sweep point.
    catalog: Option<usize>,
    /// Whether this is the catalog entry's priming request.
    prime: bool,
    text: String,
    env: &'static str,
}

fn primes(ctx: &Ctx) -> Result<Vec<Request>, String> {
    CATALOG
        .iter()
        .enumerate()
        .map(|(i, &(stem, env))| {
            Ok(Request {
                catalog: Some(i),
                prime: true,
                text: gen::strip_comments(&ctx.corpus_file(stem)?),
                env,
            })
        })
        .collect()
}

fn relabelled(primes: &[Request], i: usize, rng: &mut Rng) -> Result<Request, String> {
    let source = &primes[i].text;
    Ok(Request {
        catalog: Some(i),
        prime: false,
        text: Relabelling::random(source, rng).apply(source)?,
        env: primes[i].env,
    })
}

/// The timed phase's requests, one per slot, a pure function of the seed.
/// The mix is fixed (sweep count and Zipf counts per catalog entry); the
/// seed shuffles the slots and draws every relabelling and angle.
fn schedule(ctx: &Ctx, primes: &[Request]) -> Result<Vec<Request>, String> {
    let sweeps: Vec<String> = SWEEP_SOURCES
        .iter()
        .map(|s| Ok(gen::strip_comments(&ctx.corpus_file(s)?)))
        .collect::<Result<_, String>>()?;
    let mut rng = Rng::new(ctx.seed, 3);
    let slots = (RATE_PER_S * ctx.seconds).round().max(1.0) as usize;
    let swept = ((slots as f64 * SWEEP_SHARE).round() as usize).min(MAX_SWEEPS);
    let mut kinds: Vec<Option<usize>> = vec![None; swept];
    for (i, count) in gen::zipf_counts(slots - swept, CATALOG.len())
        .into_iter()
        .enumerate()
    {
        kinds.extend(std::iter::repeat_n(Some(i), count));
    }
    rng.shuffle(&mut kinds);
    let mut out = Vec::with_capacity(slots);
    let mut sweep = 0;
    for kind in kinds {
        match kind {
            Some(i) => out.push(relabelled(primes, i, &mut rng)?),
            None => {
                let source = &sweeps[sweep % sweeps.len()];
                sweep += 1;
                out.push(Request {
                    catalog: None,
                    prime: false,
                    text: gen::sweep_point(source, &mut rng)?,
                    env: SWEEP_ENV,
                });
            }
        }
    }
    Ok(out)
}

/// One HTTP exchange with its client-side timestamps.
#[derive(Clone, Debug)]
struct Reply {
    status: u16,
    body: String,
    connect_start: Instant,
    connected: Instant,
    written: Instant,
    first_byte: Instant,
    last_byte: Instant,
}

fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Reply> {
    let connect_start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    let written = Instant::now();
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    }
    let last_byte = Instant::now();
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("no HTTP status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok(Reply {
        status,
        body,
        connect_start,
        connected,
        written,
        first_byte: first_byte.unwrap_or(last_byte),
        last_byte,
    })
}

fn post_place(addr: SocketAddr, request: &Request) -> std::io::Result<Reply> {
    let head = format!(
        "POST /place?env={}&budget_nodes={BUDGET_NODES} HTTP/1.1\r\nhost: {addr}\r\n\
         content-length: {}\r\n\r\n",
        request.env,
        request.text.len()
    );
    exchange(addr, format!("{head}{}", request.text).as_bytes())
}

fn call(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<Reply> {
    exchange(
        addr,
        format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n").as_bytes(),
    )
}

/// The raw text of a top-level (or uniquely named) JSON field.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = if let Some(text) = rest.strip_prefix('"') {
        text.find('"')? + 2
    } else if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

fn field_str(body: &str, key: &str) -> Option<String> {
    field(body, key).map(|v| v.trim_matches('"').to_string())
}

fn field_f64(body: &str, key: &str) -> Option<f64> {
    field(body, key)?.parse().ok()
}

fn field_list(body: &str, key: &str) -> Option<Vec<usize>> {
    let raw = field(body, key)?
        .trim_start_matches('[')
        .trim_end_matches(']');
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

fn parse_answer(body: &str) -> Result<Answer, String> {
    let missing = |k: &str| format!("response lacks `{k}`: {body}");
    Ok(Answer {
        resolution: field_str(body, "resolution").ok_or_else(|| missing("resolution"))?,
        runtime: field_str(body, "runtime").ok_or_else(|| missing("runtime"))?,
        runtime_units: Some(
            field_f64(body, "runtime_units").ok_or_else(|| missing("runtime_units"))?,
        ),
        stages: field_f64(body, "stages").ok_or_else(|| missing("stages"))? as usize,
        swaps: field_f64(body, "swaps").ok_or_else(|| missing("swaps"))? as usize,
        stage_maps: None,
        initial: Some(
            field_list(body, "initial_placement").ok_or_else(|| missing("initial_placement"))?,
        ),
        last: Some(field_list(body, "final_placement").ok_or_else(|| missing("final_placement"))?),
        cache: Some(field_str(body, "cache").ok_or_else(|| missing("cache"))?),
    })
}

/// A running daemon; killed and reaped if dropped undrained.
struct Daemon {
    guard: Guarded,
    addr: SocketAddr,
}

fn start_daemon(ctx: &Ctx, tag: usize) -> Result<Daemon, String> {
    let log_path = ctx.work.join(format!("serve-{tag}.log"));
    let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
    let child = std::process::Command::new(&ctx.qcp)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(log)
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning qcp serve: {e}"))?;
    let guard = Guarded::new(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        if let Some(rest) = log.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or("");
            break addr
                .parse::<SocketAddr>()
                .map_err(|e| format!("daemon address: {e}"))?;
        }
        if Instant::now() > deadline {
            return Err("qcp serve did not report its address".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    loop {
        if call(addr, "GET", "/healthz").is_ok_and(|r| r.status == 200) {
            return Ok(Daemon { guard, addr });
        }
        if Instant::now() > deadline {
            return Err("qcp serve never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drains the daemon and checks that it exits cleanly.
fn drain(daemon: Daemon) -> Result<(), String> {
    call(daemon.addr, "POST", "/admin/drain").map_err(|e| format!("drain: {e}"))?;
    let status = daemon
        .guard
        .finish()
        .map_err(|e| format!("reaping qcp serve: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("qcp serve exited with {status}"))
    }
}

/// Cache counters and queue depth from `/healthz`.
#[derive(Clone, Copy, Debug, Default)]
struct Health {
    hits: u64,
    misses: u64,
    remapped: u64,
    shed: u64,
}

fn health(addr: SocketAddr) -> Result<Health, String> {
    let reply = call(addr, "GET", "/healthz").map_err(|e| format!("healthz: {e}"))?;
    let n = |k: &str| {
        field_f64(&reply.body, k)
            .map(|v| v as u64)
            .ok_or(format!("healthz lacks {k}"))
    };
    Ok(Health {
        hits: n("cache_hits")?,
        misses: n("cache_misses")?,
        remapped: n("cache_remapped")?,
        shed: n("shed")?,
    })
}

/// One sent request and what came back.
struct Sent {
    request: Request,
    timed: bool,
    scheduled: Instant,
    reply: Result<Reply, String>,
    /// `queued` from a `/healthz` sampled after this request.
    queued: Option<Result<u64, String>>,
}

/// Spawns a daemon, primes the catalog and sends one relabelled warm-up
/// request per entry.
fn set_up(
    ctx: &Ctx,
    tag: usize,
    primes: &[Request],
    rng: &mut Rng,
    sent: &mut Vec<Sent>,
) -> Result<Daemon, String> {
    let daemon = start_daemon(ctx, tag)?;
    let mut requests: Vec<Request> = primes.to_vec();
    for i in 0..primes.len() {
        requests.push(relabelled(primes, i, rng)?);
    }
    for request in requests {
        let scheduled = Instant::now();
        let reply = post_place(daemon.addr, &request).map_err(|e| e.to_string());
        sent.push(Sent {
            request,
            timed: false,
            scheduled,
            reply,
            queued: None,
        });
    }
    Ok(daemon)
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The open loop: slot `i` is due at `t0 + i / rate`. One generator
/// thread sends every slot, so at most one connection is in flight: two
/// connections queued at once would shrink the daemon's deadline, which
/// is part of the cache key, and turn hits into misses.
fn open_loop(addr: SocketAddr, slots: Vec<Request>) -> Vec<Sent> {
    let gap = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let t0 = Instant::now() + Duration::from_millis(20);
    slots
        .into_iter()
        .enumerate()
        .map(|(slot, request)| {
            let due = t0 + gap.mul_f64(slot as f64);
            sleep_until(due);
            let reply = post_place(addr, &request).map_err(|e| e.to_string());
            let queued = (slot % HEALTHZ_EVERY == 0).then(|| {
                sleep_until(due + gap / 2);
                call(addr, "GET", "/healthz")
                    .map_err(|e| e.to_string())
                    .and_then(|r| {
                        field_f64(&r.body, "queued")
                            .map(|q| q as u64)
                            .ok_or_else(|| "healthz lacks queued".to_string())
                    })
            });
            Sent {
                request,
                timed: true,
                scheduled: due,
                reply,
                queued,
            }
        })
        .collect()
}

/// The reference for one request: its expected answer (cache
/// disposition included) and whether a hit needs a non-identity remap.
fn expected(
    request: &Request,
    prime_outcomes: &[Result<(PlacementOutcome, CanonicalCircuit), String>],
) -> Result<(Answer, bool), String> {
    let circuit = qasm::parse(&request.text)
        .map_err(|e| e.to_string())?
        .circuit;
    let env = expect::environment(request.env)?;
    let config = expect::serve_config(&env)?;
    let canonical = CanonicalCircuit::of(&circuit);
    let (outcome, cache, remapped) = match request.catalog {
        Some(i) if !request.prime && !canonical.exhausted => {
            let (stored, stored_canon) = prime_outcomes[i].as_ref().map_err(Clone::clone)?;
            let outcome = remap_outcome(stored, &stored_canon.order, &canonical.order)
                .ok_or("witness remap failed")?;
            (outcome, "hit", stored_canon.order != canonical.order)
        }
        _ => {
            let cache = if canonical.exhausted {
                "bypass"
            } else {
                "miss"
            };
            (expect::place(&circuit, &env, &config)?, cache, false)
        }
    };
    expect::certified(&circuit, &env, &config, &outcome)?;
    let mut answer = Answer::of(&outcome, &env);
    answer.cache = Some(cache.to_string());
    Ok((answer, remapped))
}

fn prime_outcomes(primes: &[Request]) -> Vec<Result<(PlacementOutcome, CanonicalCircuit), String>> {
    par_map(primes, |p| {
        let circuit = qasm::parse(&p.text).map_err(|e| e.to_string())?.circuit;
        let env = expect::environment(p.env)?;
        let config = expect::serve_config(&env)?;
        Ok((
            expect::place(&circuit, &env, &config)?,
            CanonicalCircuit::of(&circuit),
        ))
    })
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let primes = primes(ctx)?;
    let slots = schedule(ctx, &primes)?;
    let mut warm_rng = Rng::new(ctx.seed, 4);
    let mut sent = Vec::new();

    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            drain(previous)?;
        }
        let start = Instant::now();
        daemon = Some(set_up(ctx, rep, &primes, &mut warm_rng, &mut sent)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    phase.setup_s = stats::median(&setups);
    let daemon = daemon.ok_or("no set-up ran")?;

    let before = health(daemon.addr)?;
    let cpu = |daemon: &Daemon| {
        proc::cpu_time(daemon.guard.pid()).map_err(|e| format!("daemon CPU time: {e}"))
    };
    let cpu_before = cpu(&daemon)?;
    let start = Instant::now();
    let timed = open_loop(daemon.addr, slots);
    let end = timed
        .iter()
        .filter_map(|s| s.reply.as_ref().ok().map(|r| r.last_byte))
        .max()
        .unwrap_or_else(Instant::now);
    let cpu_after = cpu(&daemon)?;
    let after = health(daemon.addr)?;
    // Read before the drain: once reaped, `wait4` would report at least
    // this harness's resident set (see `proc::Spawner`).
    phase.peak_rss_kb =
        proc::peak_rss(daemon.guard.pid()).map_err(|e| format!("daemon peak RSS: {e}"))?;
    drain(daemon)?;
    phase.timed_s = (end - start).as_secs_f64();
    phase.cpu = cpu_after.saturating_sub(cpu_before);
    sent.extend(timed);

    let prime_outcomes = prime_outcomes(&primes);
    let expectations = par_map(&sent, |s| expected(&s.request, &prime_outcomes));

    let (mut want_hits, mut want_misses, mut want_remapped) = (0u64, 0u64, 0u64);
    let (mut degraded, mut queued_max, mut late_max) = (0usize, 0u64, 0.0f64);
    let mut seen_catalog = vec![false; CATALOG.len()];
    let (mut connect, mut executor, mut outside, mut span_late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (n, (s, want)) in sent.iter().zip(&expectations).enumerate() {
        let what = match s.request.catalog {
            Some(i) => format!("{}@{}", CATALOG[i].0, CATALOG[i].1),
            None => format!("sweep@{SWEEP_ENV}"),
        };
        if s.timed {
            phase.attempted += 1;
            if let Ok((answer, remapped)) = want {
                match answer.cache.as_deref() {
                    Some("hit") => want_hits += 1,
                    Some("miss") => want_misses += 1,
                    _ => {}
                }
                want_remapped += u64::from(*remapped);
            }
            if let Some(q) = &s.queued {
                match q {
                    Ok(q) => queued_max = queued_max.max(*q),
                    Err(e) => phase.problems.push(format!("healthz sample: {e}")),
                }
            }
        }
        let reply = match &s.reply {
            Ok(reply) if reply.status == 200 => reply,
            Ok(reply) => {
                phase.failed += usize::from(s.timed);
                phase
                    .problems
                    .push(format!("{what}: HTTP {}: {}", reply.status, reply.body));
                continue;
            }
            Err(e) => {
                phase.failed += usize::from(s.timed);
                phase.problems.push(format!("{what}: {e}"));
                continue;
            }
        };
        let answer = match parse_answer(&reply.body) {
            Ok(a) => a,
            Err(e) => {
                phase.problems.push(e);
                continue;
            }
        };
        match want {
            Ok((want, _)) => {
                if let Some(diff) = expect::mismatch(want, &answer) {
                    phase.problems.push(format!("{what}: {diff}"));
                }
            }
            Err(e) => phase.problems.push(format!("{what}: {e}")),
        }
        if field_f64(&reply.body, "deadline_ms") != Some(SERVE_DEADLINE_MS as f64) {
            degraded += usize::from(s.timed);
        }
        if !s.timed {
            continue;
        }
        let latency_ms = (reply.last_byte - s.scheduled).as_secs_f64() * 1e3;
        phase.latencies_ms.push(latency_ms);
        late_max = late_max.max((reply.connect_start - s.scheduled).as_secs_f64() * 1e3);
        phase.answered += 1;
        phase.exact += usize::from(answer.resolution == "exact");
        match s.request.catalog {
            Some(i) if !seen_catalog[i] => {
                seen_catalog[i] = true;
                phase.quality.push(answer.units());
            }
            Some(_) => {}
            None => phase.quality.push(answer.units()),
        }
        if traced {
            let t = &mut phase.trace;
            let root = t.record(
                "serve.request",
                s.scheduled,
                reply.last_byte,
                None,
                n as u64,
            );
            let c = t.record(
                "serve.connect",
                reply.connect_start,
                reply.connected,
                Some(root),
                n as u64,
            );
            t.record(
                "serve.write",
                reply.connected,
                reply.written,
                Some(root),
                n as u64,
            );
            t.record(
                "serve.wait",
                reply.written,
                reply.first_byte,
                Some(root),
                n as u64,
            );
            t.record(
                "serve.read",
                reply.first_byte,
                reply.last_byte,
                Some(root),
                n as u64,
            );
            let elapsed = field_f64(&reply.body, "elapsed_ms").unwrap_or(0.0);
            connect.push(t.spans[c].ms());
            executor.push(elapsed);
            outside.push(latency_ms - elapsed);
            span_late.push(t.self_ms(root));
        }
    }

    // Open-loop honesty: the run measured the program, not a queue.
    let got_hits = after.hits - before.hits;
    if got_hits != want_hits
        || after.misses - before.misses != want_misses
        || after.remapped - before.remapped != want_remapped
    {
        phase.problems.push(format!(
            "cache counters moved hits {got_hits} misses {} remapped {}; the reference expects {want_hits}, {want_misses}, {want_remapped}",
            after.misses - before.misses,
            after.remapped - before.remapped
        ));
    }
    if after.shed > before.shed {
        phase.problems.push(format!(
            "{} requests shed with 429",
            after.shed - before.shed
        ));
    }
    if degraded > 0 {
        phase
            .problems
            .push(format!("{degraded} replies carried a shrunk deadline_ms"));
    }
    if queued_max > 0 {
        phase
            .problems
            .push(format!("/healthz saw {queued_max} queued connections"));
    }
    if late_max > LATE_LIMIT_MS {
        phase
            .problems
            .push(format!("the generator ran {late_max:.1} ms late"));
    }
    if traced {
        let timed = phase.attempted.max(1) as f64;
        let layers = &mut phase.layers;
        layers.insert("serve.connect_ms", stats::median(&connect));
        layers.insert("serve.executor_ms", stats::median(&executor));
        layers.insert("serve.outside_executor_ms", stats::median(&outside));
        layers.insert("serve.hit_share", got_hits as f64 / timed);
        layers.insert(
            "serve.remapped_share",
            (after.remapped - before.remapped) as f64 / got_hits.max(1) as f64,
        );
        layers.insert("serve.degraded_deadline_share", degraded as f64 / timed);
        layers.insert("serve.queued_max", queued_max as f64);
        // The root span's self time is the wait before the connect began.
        layers.insert("serve.generator_late_ms", stats::mean(&span_late));
    }
    Ok(phase)
}

/// Replays the timed phase's requests in-process along the daemon's
/// path: parse, canonicalize, look up (remapping hits) in a cache primed
/// like the daemon's, and place misses layer by layer.
pub fn replay(ctx: &Ctx, _traced: &Phase) -> Result<Trace, String> {
    let mut trace = Trace::default();
    let primes = primes(ctx)?;
    let cache = PlacementCache::new(256);
    for (p, primed) in primes.iter().zip(prime_outcomes(&primes)) {
        let (outcome, canonical) = primed?;
        let env = expect::environment(p.env)?;
        let config = expect::serve_config(&env)?;
        if !canonical.exhausted {
            cache.insert(
                cache_key(&canonical, &env, &config),
                canonical.order,
                outcome,
            );
        }
    }
    for (i, request) in schedule(ctx, &primes)?.iter().enumerate() {
        let id = i as u64;
        let start = Instant::now();
        let root = trace.record("request", start, start, None, id);
        let (parsed, _) = trace.time("qasm.parse", Some(root), id, || qasm::parse(&request.text));
        let circuit = parsed.map_err(|e| e.to_string())?.circuit;
        let env = expect::environment(request.env)?;
        let config = expect::serve_config(&env)?;
        let (canonical, _) = trace.time("cache.canonicalize", Some(root), id, || {
            CanonicalCircuit::of(&circuit)
        });
        let key = cache_key(&canonical, &env, &config);
        let hit = if canonical.exhausted {
            None
        } else {
            trace
                .time("cache.lookup", Some(root), id, || {
                    cache.lookup(key, &canonical.order)
                })
                .0
        };
        let outcome = match hit {
            Some((outcome, _)) => outcome,
            None => {
                let outcome =
                    trace::replay_placement(&mut trace, id, Some(root), &circuit, &env, &config)?;
                if !canonical.exhausted {
                    cache.insert(key, canonical.order.clone(), outcome.clone());
                }
                outcome
            }
        };
        trace::replay_certify(
            &mut trace,
            id,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            qcp: String::new(),
            root: std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
            work: std::env::temp_dir(),
            seed,
            seconds: 20.0,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_sweep_keys_distinct() {
        let c = ctx(11);
        let primes = primes(&c).expect("catalog");
        let a = schedule(&c, &primes).expect("schedule");
        let b = schedule(&c, &primes).expect("schedule");
        assert_eq!(
            a.iter().map(|r| &r.text).collect::<Vec<_>>(),
            b.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
        let other = schedule(&ctx(12), &primes).expect("schedule");
        assert_ne!(a[0].text, other[0].text);
        let mut keys = HashSet::new();
        let mut sweeps = 0;
        for r in a.iter().filter(|r| r.catalog.is_none()) {
            sweeps += 1;
            let circuit = qasm::parse(&r.text).expect("sweep parses").circuit;
            let env = expect::environment(r.env).expect("env");
            let config = expect::serve_config(&env).expect("config");
            let key = cache_key(&CanonicalCircuit::of(&circuit), &env, &config);
            assert!(keys.insert(key.as_u128()), "repeated sweep key");
        }
        assert!(sweeps > 0 && sweeps <= MAX_SWEEPS);
        assert!(sweeps + CATALOG.len() < 256);
    }

    #[test]
    fn catalog_relabellings_hit_their_primed_key() {
        let c = ctx(5);
        let primes = primes(&c).expect("catalog");
        let mut rng = Rng::new(5, 9);
        for (i, p) in primes.iter().enumerate() {
            let env = expect::environment(p.env).expect("env");
            let config = expect::serve_config(&env).expect("config");
            let base = CanonicalCircuit::of(&qasm::parse(&p.text).expect("parse").circuit);
            assert!(!base.exhausted, "{}", p.text);
            for _ in 0..20 {
                let r = relabelled(&primes, i, &mut rng).expect("relabel");
                let canon = CanonicalCircuit::of(&qasm::parse(&r.text).expect("parse").circuit);
                assert!(!canon.exhausted, "{:?}", CATALOG[i]);
                assert_eq!(
                    cache_key(&canon, &env, &config),
                    cache_key(&base, &env, &config),
                    "{:?}",
                    CATALOG[i]
                );
            }
        }
    }

    #[test]
    fn json_fields() {
        let body = r#"{"ok":true,"resolution":"exact","cache":"hit","deadline_ms":2000,"elapsed_ms":0.17,"circuit":{"qubits":4},"runtime_units":135.5,"runtime":"0.0136 sec","stages":3,"swaps":4,"initial_placement":[1,0,2],"final_placement":[]}"#;
        assert_eq!(field_str(body, "cache").as_deref(), Some("hit"));
        assert_eq!(field_f64(body, "elapsed_ms"), Some(0.17));
        assert_eq!(field_list(body, "initial_placement"), Some(vec![1, 0, 2]));
        assert_eq!(field_list(body, "final_placement"), Some(vec![]));
        assert_eq!(field_f64(body, "qubits"), Some(4.0));
        let answer = parse_answer(body).expect("answer");
        assert_eq!((answer.stages, answer.swaps), (3, 4));
    }
}
