//! The daemon: acceptor, bounded queue, panic-isolated worker pool,
//! deadline/degrade/shed/drain state machine.
//!
//! The failure-domain layout (see DESIGN.md, *service & failure
//! domains*):
//!
//! ```text
//!            ┌────────────┐   bounded    ┌──────────────────────────┐
//!  accept ──▶│  acceptor  │──  queue  ──▶│ worker × N               │
//!            │ (1 thread) │  (VecDeque)  │  catch_unwind per job    │
//!            └────────────┘              │  SearchBudget deadline   │
//!              │429 when full            └──────────────────────────┘
//!              │503 when draining
//! ```
//!
//! Shared state is poison-free by construction: the queue mutex only ever
//! guards `push`/`pop` of owned sockets (no placement code runs under
//! it), every counter is an atomic, and all placement state is job-local
//! — so a panicking job cannot leave anything behind for a sibling to
//! trip over.
//!
//! No thread polls. The acceptor sleeps in a blocking `accept` and the
//! workers in `Condvar::wait`; a drain wakes the workers with
//! `notify_all` and the acceptor with one loopback connection.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use qcp_circuit::Circuit;
use qcp_env::topologies::{Delays, TopologySpec};
use qcp_env::{molecules, Environment, Threshold};
use qcp_place::{
    execute_with, PlaceRequest, PlacementCache, PlacerConfig, Resolution, SearchBudget, Strategy,
};

use crate::http::{self, Limits, Request, RequestError};
use crate::json::{array_usize, Obj};
use crate::wire::{error_body, ErrorKind};

/// Request-head cap in bytes (`431` beyond it).
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Socket write timeout for responses.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Server configuration; start with [`ServeConfig::default`] and chain
/// the builders.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7878` by default; port `0` for tests).
    pub addr: String,
    /// Worker threads (`0` = one per available core, capped at 8).
    pub workers: usize,
    /// Bounded accept-queue depth; overflow is answered `429`.
    pub queue_depth: usize,
    /// Request-body cap in bytes (`413` beyond it, before the body is
    /// read).
    pub max_body_bytes: usize,
    /// Absolute deadline for receiving a request head or body — the
    /// slowloris bound.
    pub read_timeout: Duration,
    /// Placement deadline applied when the request names none, in ms.
    pub default_budget_ms: u64,
    /// Hard ceiling on any requested placement deadline, in ms.
    pub max_budget_ms: u64,
    /// Floor on the *effective* (queue-degraded) placement deadline, in
    /// ms. The search kernel only polls its deadline once per
    /// 1024-node stride, so a deadline shorter than a stride's wall
    /// clock burns a worker slot to visit zero nodes and answer `504`.
    /// The occupancy shrink never goes below this floor; a request
    /// whose own budget ceiling is below it is shed with `429` instead
    /// of admitted. The default (25 ms) covers a stride with a wide
    /// margin.
    pub min_budget_ms: u64,
    /// Honor `x-qcp-chaos` fault-injection headers (tests only).
    pub chaos: bool,
    /// Expose `POST /admin/drain`.
    pub admin: bool,
    /// Capacity of the canonicalization-keyed placement result cache
    /// (entries; `0` disables caching and every request reports
    /// `"cache":"bypass"`).
    pub cache_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 0,
            queue_depth: 64,
            max_body_bytes: 256 * 1024,
            read_timeout: Duration::from_secs(2),
            default_budget_ms: 2_000,
            max_budget_ms: 30_000,
            min_budget_ms: 25,
            chaos: false,
            admin: true,
            cache_entries: 256,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker count (`0` = auto).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the bounded queue depth.
    #[must_use]
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }

    /// Sets the body-size cap in bytes.
    #[must_use]
    pub fn max_body_bytes(mut self, n: usize) -> Self {
        self.max_body_bytes = n;
        self
    }

    /// Sets the slow-client read deadline.
    #[must_use]
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.read_timeout = d;
        self
    }

    /// Sets the default placement deadline in milliseconds.
    #[must_use]
    pub fn default_budget_ms(mut self, ms: u64) -> Self {
        self.default_budget_ms = ms;
        self
    }

    /// Sets the ceiling on requested placement deadlines in milliseconds.
    #[must_use]
    pub fn max_budget_ms(mut self, ms: u64) -> Self {
        self.max_budget_ms = ms;
        self
    }

    /// Sets the floor on effective placement deadlines in milliseconds
    /// (see [`ServeConfig::min_budget_ms`]). Clamped to at least 1.
    #[must_use]
    pub fn min_budget_ms(mut self, ms: u64) -> Self {
        self.min_budget_ms = ms.max(1);
        self
    }

    /// Enables the `x-qcp-chaos` fault-injection headers.
    #[must_use]
    pub fn chaos(mut self, on: bool) -> Self {
        self.chaos = on;
        self
    }

    /// Enables or disables the `/admin/drain` endpoint.
    #[must_use]
    pub fn admin(mut self, on: bool) -> Self {
        self.admin = on;
        self
    }

    /// Sets the placement result-cache capacity (`0` disables it).
    #[must_use]
    pub fn cache_entries(mut self, n: usize) -> Self {
        self.cache_entries = n;
        self
    }

    fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map_or(2, usize::from)
                .clamp(1, 8),
            n => n,
        }
    }

    fn limits(&self) -> Limits {
        Limits {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: self.max_body_bytes,
            header_deadline: self.read_timeout,
            body_deadline: self.read_timeout,
        }
    }
}

/// Monotonic service counters (all atomics — poison-free by design).
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    served_ok: AtomicU64,
    client_errors: AtomicU64,
    shed: AtomicU64,
    oversize: AtomicU64,
    slow_clients: AtomicU64,
    panics: AtomicU64,
    budget_exhausted: AtomicU64,
    resolved_exact: AtomicU64,
    resolved_fallback: AtomicU64,
    resolved_degraded: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (including ones later shed or failed).
    /// Connections accepted after the drain flag is set are answered
    /// `503` and not counted, drain's own wake-up connection among them.
    pub accepted: u64,
    /// Requests answered `200`.
    pub served_ok: u64,
    /// Requests answered with a 4xx taxonomy kind.
    pub client_errors: u64,
    /// Connections answered `429` because the queue was full.
    pub shed: u64,
    /// Requests rejected `413`/`431` for size.
    pub oversize: u64,
    /// Requests rejected `408` for tripping a read deadline.
    pub slow_clients: u64,
    /// Placement jobs whose panic was contained (each answered `500`).
    pub panics: u64,
    /// Exact-strategy requests that ran out of budget (`504`).
    pub budget_exhausted: u64,
    /// Successful placements resolved exactly.
    pub resolved_exact: u64,
    /// Successful placements resolved by the heuristic fallback.
    pub resolved_fallback: u64,
    /// Successful placements that degraded after budget exhaustion.
    pub resolved_degraded: u64,
    /// `/place` requests served from the placement result cache.
    pub cache_hits: u64,
    /// `/place` requests that consulted the cache and placed fresh.
    pub cache_misses: u64,
    /// Cache hits that needed a witness remap onto the requester's
    /// qubit labels (an isomorphic, not identical, repeat).
    pub cache_remapped: u64,
}

impl StatsSnapshot {
    /// Every counter as a `(name, value)` pair, in field order. `/healthz`
    /// and the `qcp serve` drain line both render from this list.
    pub fn counters(&self) -> [(&'static str, u64); 14] {
        [
            ("accepted", self.accepted),
            ("served_ok", self.served_ok),
            ("client_errors", self.client_errors),
            ("shed", self.shed),
            ("oversize", self.oversize),
            ("slow_clients", self.slow_clients),
            ("panics", self.panics),
            ("budget_exhausted", self.budget_exhausted),
            ("resolved_exact", self.resolved_exact),
            ("resolved_fallback", self.resolved_fallback),
            ("resolved_degraded", self.resolved_degraded),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_remapped", self.cache_remapped),
        ]
    }
}

struct Shared {
    config: ServeConfig,
    /// The listener's bound address.
    local_addr: SocketAddr,
    /// Worker threads spawned at start.
    workers: usize,
    draining: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    active: AtomicUsize,
    stats: Stats,
    /// The process-wide result cache; `None` when started with
    /// `cache_entries == 0`.
    cache: Option<PlacementCache>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            served_ok: self.stats.served_ok.load(Ordering::Relaxed),
            client_errors: self.stats.client_errors.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            oversize: self.stats.oversize.load(Ordering::Relaxed),
            slow_clients: self.stats.slow_clients.load(Ordering::Relaxed),
            panics: self.stats.panics.load(Ordering::Relaxed),
            budget_exhausted: self.stats.budget_exhausted.load(Ordering::Relaxed),
            resolved_exact: self.stats.resolved_exact.load(Ordering::Relaxed),
            resolved_fallback: self.stats.resolved_fallback.load(Ordering::Relaxed),
            resolved_degraded: self.stats.resolved_degraded.load(Ordering::Relaxed),
            cache_hits: self.cache.as_ref().map_or(0, PlacementCache::hits),
            cache_misses: self.cache.as_ref().map_or(0, PlacementCache::misses),
            cache_remapped: self.cache.as_ref().map_or(0, PlacementCache::remapped),
        }
    }
    /// Locks the queue, recovering from poison (cannot actually happen —
    /// no placement code runs under the lock — but the recovery keeps the
    /// no-unwrap contract honest).
    fn queue(&self) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Sets the drain flag and wakes every sleeping thread. The flag
    /// flips under the queue lock, which a worker holds from its flag
    /// check until `wait` releases it, so no worker can miss the
    /// `notify_all`. The first call also wakes the acceptor out of its
    /// blocking `accept` with one loopback connection.
    fn drain(&self) {
        let already = {
            let _queue = self.queue();
            self.draining.swap(true, Ordering::SeqCst)
        };
        self.available.notify_all();
        if !already {
            let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_secs(1));
        }
    }
}

/// The address drain's wake-up connection dials: the listener's own, with
/// an unspecified IP (`0.0.0.0`, `[::]`) replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A running daemon; dropping it without [`Server::drain`] +
/// [`Server::join`] detaches the threads.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.shared.local_addr)
            .field("draining", &self.shared.is_draining())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts the daemon: one acceptor thread plus the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.resolved_workers();
        let cache = (config.cache_entries > 0).then(|| PlacementCache::new(config.cache_entries));
        let shared = Arc::new(Shared {
            config,
            local_addr,
            workers,
            draining: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
            stats: Stats::default(),
            cache,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("qcp-acceptor".into())
                    .spawn(move || acceptor_loop(&shared, &listener))?,
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qcp-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests a graceful drain: stop accepting, finish queued and
    /// in-flight jobs. Idempotent.
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// A cloneable handle that can request the drain from another thread
    /// (the CLI's stdin watcher uses this while [`Server::join`] blocks).
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared))
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Number of resolved worker threads (excludes the acceptor).
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Blocks until the daemon exits (drain requested — by
    /// [`Server::drain`] or `POST /admin/drain` — and all jobs flushed),
    /// then returns the final counters.
    pub fn join(self) -> StatsSnapshot {
        for t in self.threads {
            // A worker that panicked outside its catch_unwind backstop is
            // a bug, but join must still report the counters instead of
            // propagating the unwind into the caller.
            let _ = t.join();
        }
        self.shared.snapshot()
    }
}

/// A detached, cloneable drain trigger (see [`Server::drain_handle`]).
#[derive(Clone)]
pub struct DrainHandle(Arc<Shared>);

impl DrainHandle {
    /// Requests the graceful drain. Idempotent.
    pub fn drain(&self) {
        self.0.drain();
    }
}

impl std::fmt::Debug for DrainHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainHandle")
            .field("draining", &self.0.is_draining())
            .finish()
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener) {
    while !shared.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_draining() {
                    quick_reject(stream, ErrorKind::Draining, "server is draining");
                    break;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let mut queue = shared.queue();
                if queue.len() >= shared.config.queue_depth {
                    drop(queue);
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    quick_reject(stream, ErrorKind::Overload, "queue full; retry later");
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            // EMFILE and the like persist until a descriptor frees up;
            // back off instead of spinning on them.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn quick_reject(mut stream: TcpStream, kind: ErrorKind, message: &str) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    if http::write_response(
        &mut stream,
        kind.status(),
        kind.reason(),
        &error_body(kind, message),
    )
    .is_err()
    {
        return;
    }
    // The rejected request was never read; closing now would make the
    // kernel RST the connection and can destroy the response before the
    // client sees it. Half-close, then drain the client's bytes (bounded)
    // so the final close is clean.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0_u8; 4096];
    let deadline = Instant::now() + Duration::from_millis(500);
    while Instant::now() < deadline {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(1..) => {}
            Ok(0) | Err(_) => break,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.is_draining() {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(stream) = job else {
            return; // drained
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        // Backstop isolation: the placement job has its own catch_unwind
        // (so the client still gets a structured 500); this one contains
        // anything unexpected in the transport layer itself. Either way
        // the worker thread survives.
        let contained = catch_unwind(AssertUnwindSafe(|| serve_connection(shared, stream)));
        if contained.is_err() {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = match http::read_request(&mut stream, &shared.config.limits()) {
        Ok(r) => r,
        Err(RequestError::Disconnected) => return,
        Err(e) => {
            let (kind, message) = match e {
                RequestError::SlowClient => {
                    shared.stats.slow_clients.fetch_add(1, Ordering::Relaxed);
                    (ErrorKind::SlowClient, "read deadline exceeded".to_string())
                }
                RequestError::HeadersTooLarge => {
                    shared.stats.oversize.fetch_add(1, Ordering::Relaxed);
                    (ErrorKind::HeadersTooLarge, "request head too large".into())
                }
                RequestError::BodyTooLarge { declared, limit } => {
                    shared.stats.oversize.fetch_add(1, Ordering::Relaxed);
                    (
                        ErrorKind::Oversize,
                        format!("body of {declared} byte(s) exceeds the {limit}-byte cap"),
                    )
                }
                RequestError::Malformed(m) => (ErrorKind::Parse, m),
                RequestError::Disconnected => return,
            };
            if !matches!(
                kind,
                ErrorKind::SlowClient | ErrorKind::Oversize | ErrorKind::HeadersTooLarge
            ) {
                shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            respond_error(&mut stream, kind, &message);
            return;
        }
    };
    route(shared, &request, &mut stream);
}

fn respond_error(stream: &mut TcpStream, kind: ErrorKind, message: &str) {
    let _ = http::write_response(
        stream,
        kind.status(),
        kind.reason(),
        &error_body(kind, message),
    );
}

fn respond_ok(stream: &mut TcpStream, body: &str) {
    let _ = http::write_response(stream, 200, "OK", body);
}

fn route(shared: &Shared, request: &Request, stream: &mut TcpStream) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond_ok(stream, &healthz_body(shared)),
        ("POST", "/admin/drain") if shared.config.admin => {
            shared.drain();
            let mut o = Obj::new();
            o.bool("ok", true).bool("draining", true);
            respond_ok(stream, &o.finish());
        }
        ("POST", "/place") => place_endpoint(shared, request, stream),
        (_, "/healthz" | "/place") | ("POST", "/admin/drain") => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                ErrorKind::Method,
                &format!(
                    "`{}` is not supported on `{}`",
                    request.method, request.path
                ),
            );
        }
        (_, path) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                ErrorKind::NotFound,
                &format!("no such endpoint `{path}` (try /place, /healthz)"),
            );
        }
    }
}

fn healthz_body(shared: &Shared) -> String {
    let mut stats = Obj::new();
    for (name, value) in shared.snapshot().counters() {
        stats.u64(name, value);
    }
    let mut o = Obj::new();
    o.bool("ok", true)
        .bool("draining", shared.is_draining())
        .u64("workers", shared.workers as u64)
        .u64("queue_depth", shared.config.queue_depth as u64)
        .u64("queued", shared.queue().len() as u64)
        .u64("active", shared.active.load(Ordering::SeqCst) as u64)
        .raw("stats", &stats.finish());
    o.finish()
}

/// Parsed and validated `/place` parameters.
struct PlaceParams {
    circuit: Option<String>,
    env: Option<String>,
    coupling: f64,
    threshold: Option<f64>,
    strategy: Strategy,
    budget_ms: Option<u64>,
    budget_nodes: Option<u64>,
    /// `cache=on` (the default) or `cache=off`.
    use_cache: bool,
}

fn parse_params(request: &Request) -> Result<PlaceParams, String> {
    let mut p = PlaceParams {
        circuit: None,
        env: None,
        coupling: 10.0,
        threshold: None,
        strategy: Strategy::Hybrid,
        budget_ms: None,
        budget_nodes: None,
        use_cache: true,
    };
    for (key, value) in request.query_params() {
        match key.as_str() {
            "circuit" => p.circuit = Some(value),
            "env" | "topology" => p.env = Some(value),
            "coupling" => {
                let c: f64 = value
                    .parse()
                    .map_err(|_| format!("bad coupling `{value}`"))?;
                if !c.is_finite() || c < 0.0 {
                    return Err(format!("coupling must be finite and non-negative, got {c}"));
                }
                p.coupling = c;
            }
            "threshold" => {
                let t: f64 = value
                    .parse()
                    .map_err(|_| format!("bad threshold `{value}`"))?;
                if t.is_nan() || t < 0.0 {
                    return Err(format!("threshold must be non-negative, got {t}"));
                }
                p.threshold = Some(t);
            }
            "strategy" => p.strategy = value.parse()?,
            "budget_ms" => {
                p.budget_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad budget_ms `{value}`"))?,
                );
            }
            "budget_nodes" => {
                p.budget_nodes = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad budget_nodes `{value}`"))?,
                );
            }
            "cache" => {
                p.use_cache = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!("bad cache `{other}` (expected on or off)"));
                    }
                };
            }
            other => {
                return Err(format!(
                    "unknown parameter `{other}` (expected circuit, env, coupling, threshold, \
                     strategy, budget_ms, budget_nodes, cache)"
                ))
            }
        }
    }
    Ok(p)
}

/// Resolves the environment from a molecule name or topology spec.
/// Deliberately **no** filesystem fallback: network input must never name
/// server-side paths.
fn resolve_env(spec: &str, coupling: f64) -> Result<Environment, String> {
    if let Some(env) = molecules::named(spec) {
        return Ok(env);
    }
    match spec.parse::<TopologySpec>() {
        Ok(parsed) => Ok(parsed.build(Delays::uniform(coupling))),
        Err(e) => Err(format!(
            "`{spec}` is neither a library molecule nor a topology spec: {e}"
        )),
    }
}

/// Resolves the circuit from a library name or the request body
/// (OpenQASM 2.0 if it declares itself after any blank or `//` comment
/// lines, the text format otherwise).
fn resolve_circuit(
    params: &PlaceParams,
    body: &[u8],
) -> Result<(Circuit, usize), (ErrorKind, String)> {
    if let Some(name) = &params.circuit {
        if !body.is_empty() {
            return Err((
                ErrorKind::Input,
                "pass either ?circuit=<library name> or a body, not both".into(),
            ));
        }
        return qcp_circuit::library::named(name)
            .map(|c| (c, 0))
            .ok_or_else(|| (ErrorKind::Input, format!("no library circuit `{name}`")));
    }
    if body.is_empty() {
        return Err((
            ErrorKind::Input,
            "missing circuit: pass ?circuit=<library name> or a QASM/text body".into(),
        ));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| (ErrorKind::Parse, "body is not valid UTF-8".to_string()))?;
    let is_qasm = text
        .lines()
        .map(str::trim)
        .find(|line| !line.is_empty() && !line.starts_with("//"))
        .is_some_and(|line| line.starts_with("OPENQASM"));
    if is_qasm {
        let parsed =
            qcp_circuit::qasm::parse(text).map_err(|e| (ErrorKind::Parse, e.to_string()))?;
        Ok((parsed.circuit, parsed.warnings.len()))
    } else {
        let circuit =
            qcp_circuit::text::parse(text).map_err(|e| (ErrorKind::Parse, e.to_string()))?;
        Ok((circuit, 0))
    }
}

/// The queue-degraded placement deadline: `base_ms` scaled down by up to
/// half at full occupancy, but never below `floor_ms` (nor above
/// `base_ms` — callers shed sub-floor bases before getting here, so the
/// clamp range is always non-empty).
fn effective_deadline_ms(base_ms: u64, floor_ms: u64, occupancy: f64) -> u64 {
    let shrunk = ((base_ms as f64) * (1.0 - 0.5 * occupancy.clamp(0.0, 1.0))).round() as u64;
    shrunk.clamp(floor_ms.min(base_ms), base_ms.max(floor_ms))
}

fn place_endpoint(shared: &Shared, request: &Request, stream: &mut TcpStream) {
    let t0 = Instant::now();
    let params = match parse_params(request) {
        Ok(p) => p,
        Err(message) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, ErrorKind::Parse, &message);
            return;
        }
    };
    let Some(env_spec) = params.env.as_deref() else {
        shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        respond_error(stream, ErrorKind::Input, "missing required parameter `env`");
        return;
    };
    let env = match resolve_env(env_spec, params.coupling) {
        Ok(env) => env,
        Err(message) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, ErrorKind::Parse, &message);
            return;
        }
    };
    let (circuit, warnings) = match resolve_circuit(&params, &request.body) {
        Ok(pair) => pair,
        Err((kind, message)) => {
            shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, kind, &message);
            return;
        }
    };
    let threshold = match params.threshold {
        Some(units) => Threshold::new(units),
        None => match env.connectivity_threshold() {
            Some(t) => t,
            None => {
                shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                respond_error(
                    stream,
                    ErrorKind::Input,
                    "environment is disconnected; pass an explicit threshold",
                );
                return;
            }
        },
    };

    // Deadline policy: requested (or default) budget, capped by the
    // server ceiling, then *degraded under load* — the deeper the queue
    // at dispatch time, the less wall clock this request may burn, down
    // to half the base deadline at full occupancy. Overload thus shows up
    // as faster, heuristic answers (resolution: fallback/degraded) well
    // before the queue overflows into 429s.
    //
    // The shrink is clamped to `min_budget_ms`: the search kernel polls
    // its deadline once per 1024-node stride, so a deadline below one
    // stride's wall clock would burn this worker slot to visit zero
    // nodes and answer 504. When even the floor cannot be granted —
    // the request's own budget ceiling is below it — shed with 429 up
    // front instead of admitting a job that cannot do useful work.
    let base_ms = params
        .budget_ms
        .unwrap_or(shared.config.default_budget_ms)
        .min(shared.config.max_budget_ms);
    let floor_ms = shared.config.min_budget_ms.max(1);
    if base_ms < floor_ms {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        respond_error(
            stream,
            ErrorKind::Overload,
            &format!(
                "budget_ms {base_ms} is below the server's {floor_ms} ms deadline floor; \
                 request at least {floor_ms} ms (or a node budget)"
            ),
        );
        return;
    }
    let occupancy = shared.queue().len() as f64 / shared.config.queue_depth.max(1) as f64;
    let effective_ms = effective_deadline_ms(base_ms, floor_ms, occupancy);
    let mut budget = SearchBudget::unlimited().with_deadline(Duration::from_millis(effective_ms));
    if let Some(nodes) = params.budget_nodes {
        budget = budget.with_nodes(nodes);
    }

    let chaos = if shared.config.chaos {
        request.header("x-qcp-chaos").map(str::to_string)
    } else {
        None
    };
    if let Some(directive) = chaos.as_deref() {
        if let Some(ms) = directive.strip_prefix("sleep:") {
            let ms: u64 = ms.parse().unwrap_or(0).min(5_000);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    // The unified request: the *degraded* deadline goes into the config
    // before the cache key is derived, so keying stays a pure function
    // of the request's fields (an idle server always produces the same
    // key; under load the shrunken deadline keys separately — honest,
    // since a tighter budget can change the answer).
    let config = PlacerConfig::with_threshold(threshold)
        .strategy(params.strategy)
        .budget(budget);
    let place_request = PlaceRequest::new(&circuit, &env).config(config);
    let cache = shared.cache.as_ref().filter(|_| params.use_cache);
    // The poisoned-job boundary: any panic below — chaos-injected or a
    // genuine placement bug — is contained here, answered as a structured
    // 500, and the worker keeps serving.
    let placed = catch_unwind(AssertUnwindSafe(|| {
        if chaos.as_deref() == Some("panic") {
            panic!("chaos: injected worker panic");
        }
        execute_with(&place_request, cache, None)
    }));
    let elapsed = t0.elapsed();

    let report = match placed {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            let kind = ErrorKind::from_place_error(&e);
            match kind {
                ErrorKind::BudgetExhausted => {
                    shared
                        .stats
                        .budget_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::Internal => {
                    shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    shared.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            respond_error(stream, kind, &e.to_string());
            return;
        }
        Err(payload) => {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            let e = qcp_place::PlaceError::from_panic(payload.as_ref());
            respond_error(stream, ErrorKind::Internal, &e.to_string());
            return;
        }
    };

    let outcome = &report.outcome;
    match outcome.resolution {
        Resolution::Exact => shared.stats.resolved_exact.fetch_add(1, Ordering::Relaxed),
        Resolution::Fallback => shared
            .stats
            .resolved_fallback
            .fetch_add(1, Ordering::Relaxed),
        Resolution::BudgetExhausted => shared
            .stats
            .resolved_degraded
            .fetch_add(1, Ordering::Relaxed),
    };
    shared.stats.served_ok.fetch_add(1, Ordering::Relaxed);

    let mut circuit_obj = Obj::new();
    circuit_obj
        .u64("qubits", circuit.qubit_count() as u64)
        .u64("gates", circuit.gate_count() as u64)
        .u64("two_qubit_gates", circuit.two_qubit_gate_count() as u64)
        .u64("warnings", warnings as u64);
    let initial = array_usize(
        outcome
            .initial_placement()
            .as_slice()
            .iter()
            .map(|v| v.index()),
    );
    let final_ = array_usize(
        outcome
            .final_placement()
            .as_slice()
            .iter()
            .map(|v| v.index()),
    );
    let mut o = Obj::new();
    o.bool("ok", true)
        .str("environment", env.name())
        .str("strategy", params.strategy.name())
        .str("resolution", outcome.resolution.name())
        .str("cache", report.cache.wire())
        .u64("deadline_ms", effective_ms)
        .f64("elapsed_ms", elapsed.as_secs_f64() * 1e3)
        .raw("circuit", &circuit_obj.finish())
        .f64("runtime_units", outcome.runtime.units())
        .str("runtime", &outcome.runtime.to_string())
        .u64("stages", outcome.subcircuit_count() as u64)
        .u64("swaps", outcome.swap_count() as u64)
        .raw("initial_placement", &initial)
        .raw("final_placement", &final_);
    respond_ok(stream, &o.finish());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos;

    fn test_server() -> Server {
        Server::start(
            ServeConfig::default()
                .addr("127.0.0.1:0")
                .workers(2)
                .queue_depth(4)
                .default_budget_ms(500),
        )
        .expect("bind 127.0.0.1:0")
    }

    #[test]
    fn place_healthz_drain_roundtrip() {
        let server = test_server();
        let addr = server.local_addr();

        let ok = chaos::post(addr, "/place?circuit=qec3&env=grid:2x3", &[], "").unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(ok.body.contains("\"resolution\":\"exact\""), "{}", ok.body);
        assert!(ok.body.contains("\"deadline_ms\""), "{}", ok.body);

        let health = chaos::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"served_ok\":1"), "{}", health.body);

        let drained = chaos::post(addr, "/admin/drain", &[], "").unwrap();
        assert_eq!(drained.status, 200);
        let stats = server.join();
        assert_eq!(stats.served_ok, 1);
    }

    #[test]
    fn healthz_body_layout_is_pinned() {
        // Clients parse these bytes: perfbench reads the cache and shed
        // counters and `queued`, and CI greps `"cache_hits":1`.
        let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(1))
            .expect("bind 127.0.0.1:0");
        let health = chaos::get(server.local_addr(), "/healthz").unwrap();
        assert_eq!(
            health.body,
            "{\"ok\":true,\"draining\":false,\"workers\":1,\"queue_depth\":64,\"queued\":0,\
             \"active\":1,\"stats\":{\"accepted\":1,\"served_ok\":0,\"client_errors\":0,\
             \"shed\":0,\"oversize\":0,\"slow_clients\":0,\"panics\":0,\"budget_exhausted\":0,\
             \"resolved_exact\":0,\"resolved_fallback\":0,\"resolved_degraded\":0,\
             \"cache_hits\":0,\"cache_misses\":0,\"cache_remapped\":0}}"
        );
        server.drain();
        server.join();
    }

    #[test]
    fn unknown_endpoint_and_method_are_typed() {
        let server = test_server();
        let addr = server.local_addr();
        let missing = chaos::get(addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);
        assert!(missing.body.contains("\"kind\":\"not-found\""));
        let wrong = chaos::get(addr, "/place").unwrap();
        assert_eq!(wrong.status, 405);
        server.drain();
        server.join();
    }

    #[test]
    fn bad_params_are_parse_errors() {
        let server = test_server();
        let addr = server.local_addr();
        for (query, needle) in [
            ("/place?circuit=qec3", "missing required parameter `env`"),
            ("/place?env=grid:2x3", "missing circuit"),
            ("/place?circuit=nope&env=grid:2x3", "no library circuit"),
            (
                "/place?circuit=qec3&env=gridd:9",
                "neither a library molecule",
            ),
            (
                "/place?circuit=qec3&env=grid:2x3&frobnicate=1",
                "unknown parameter",
            ),
            (
                "/place?circuit=qec3&env=grid:2x3&strategy=vf3",
                "unknown strategy",
            ),
            ("/place?circuit=qec3&env=grid:2x3&cache=maybe", "bad cache"),
        ] {
            let reply = chaos::post(addr, query, &[], "").unwrap();
            assert_eq!(reply.status, 400, "{query}: {}", reply.body);
            assert!(reply.body.contains(needle), "{query}: {}", reply.body);
        }
        // Env resolution never touches the filesystem.
        let reply = chaos::post(addr, "/place?circuit=qec3&env=/etc/passwd", &[], "").unwrap();
        assert_eq!(reply.status, 400);
        server.drain();
        server.join();
    }

    #[test]
    fn repeated_identical_posts_are_counted_cache_hits() {
        let server = test_server();
        let addr = server.local_addr();
        let query = "/place?circuit=qec3&env=grid:2x3";

        let cold = chaos::post(addr, query, &[], "").unwrap();
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert!(cold.body.contains("\"cache\":\"miss\""), "{}", cold.body);

        let warm = chaos::post(addr, query, &[], "").unwrap();
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert!(warm.body.contains("\"cache\":\"hit\""), "{}", warm.body);

        // The hit must return the same answer the cold request computed.
        let pick = |body: &str| {
            let start = body.find("\"runtime\"").unwrap();
            body[start..start + 40].to_string()
        };
        assert_eq!(pick(&cold.body), pick(&warm.body));

        let health = chaos::get(addr, "/healthz").unwrap();
        assert!(health.body.contains("\"cache_hits\":1"), "{}", health.body);
        assert!(
            health.body.contains("\"cache_misses\":1"),
            "{}",
            health.body
        );

        server.drain();
        let stats = server.join();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn cache_off_bypasses_and_cache_zero_capacity_disables() {
        let server = test_server();
        let addr = server.local_addr();
        let query = "/place?circuit=qec3&env=grid:2x3&cache=off";
        for _ in 0..2 {
            let reply = chaos::post(addr, query, &[], "").unwrap();
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(
                reply.body.contains("\"cache\":\"bypass\""),
                "{}",
                reply.body
            );
        }
        server.drain();
        assert_eq!(server.join().cache_hits, 0);

        // A server started with --cache-entries 0 never caches at all.
        let server = Server::start(
            ServeConfig::default()
                .addr("127.0.0.1:0")
                .workers(1)
                .cache_entries(0),
        )
        .expect("bind");
        let addr = server.local_addr();
        for _ in 0..2 {
            let reply = chaos::post(addr, "/place?circuit=qec3&env=grid:2x3", &[], "").unwrap();
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(
                reply.body.contains("\"cache\":\"bypass\""),
                "{}",
                reply.body
            );
        }
        server.drain();
        let stats = server.join();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
    }

    #[test]
    fn deadline_shrink_never_goes_below_the_floor() {
        // Idle: full deadline.
        assert_eq!(effective_deadline_ms(2_000, 25, 0.0), 2_000);
        // Half occupancy: 25% off.
        assert_eq!(effective_deadline_ms(2_000, 25, 0.5), 1_500);
        // Full occupancy: half, still far above the floor.
        assert_eq!(effective_deadline_ms(2_000, 25, 1.0), 1_000);
        // A small budget that full occupancy would shrink below the
        // floor is clamped *to* the floor instead of below it.
        assert_eq!(effective_deadline_ms(40, 25, 1.0), 25);
        assert_eq!(effective_deadline_ms(30, 25, 0.9), 25);
        // The clamp never *raises* the deadline above the base budget.
        assert_eq!(effective_deadline_ms(40, 25, 0.0), 40);
        // Occupancy beyond [0,1] is clamped, not amplified.
        assert_eq!(effective_deadline_ms(100, 25, 7.0), 50);
        assert_eq!(effective_deadline_ms(100, 25, -1.0), 100);
    }

    #[test]
    fn sub_floor_budgets_are_shed_with_429() {
        let server = Server::start(
            ServeConfig::default()
                .addr("127.0.0.1:0")
                .workers(1)
                .min_budget_ms(50),
        )
        .expect("bind");
        let addr = server.local_addr();

        // Below the floor: shed before the job is admitted.
        let reply = chaos::post(
            addr,
            "/place?circuit=qec3&env=grid:2x3&budget_ms=10",
            &[],
            "",
        )
        .unwrap();
        assert_eq!(reply.status, 429, "{}", reply.body);
        assert!(
            reply.body.contains("\"kind\":\"overload\""),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("deadline floor"), "{}", reply.body);

        // At the floor: admitted, and at zero occupancy the full budget
        // survives the degrade policy.
        let reply = chaos::post(
            addr,
            "/place?circuit=qec3&env=grid:2x3&budget_ms=50",
            &[],
            "",
        )
        .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(reply.body.contains("\"deadline_ms\":50"), "{}", reply.body);

        server.drain();
        let stats = server.join();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served_ok, 1);
    }

    #[test]
    fn config_builders_resolve() {
        let c = ServeConfig::default()
            .workers(3)
            .queue_depth(0)
            .max_body_bytes(10)
            .max_budget_ms(5)
            .chaos(true)
            .admin(false);
        assert_eq!(c.resolved_workers(), 3);
        assert_eq!(c.queue_depth, 1);
        assert!(c.chaos);
        assert!(!c.admin);
        assert!(ServeConfig::default().resolved_workers() >= 1);
    }
}
