#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Fault-injection suite for the serve daemon.
//!
//! One long-lived server per test absorbs a battery of faults — worker
//! panics, malformed and truncated QASM, oversized payloads, slowloris
//! half-requests, deadline-exhausting circuits, queue overflow — and must
//! answer every one with the documented taxonomy kind, then serve a
//! correct placement on the very next request. The process never dies:
//! the final drain/join returning at all is the liveness proof.

use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use qcp_serve::{chaos, ServeConfig, Server, StatsSnapshot};

fn chaos_server(config: ServeConfig) -> Server {
    Server::start(config.addr("127.0.0.1:0").chaos(true)).expect("bind 127.0.0.1:0")
}

/// A known-good request the recovery probes reuse between faults.
const GOOD: &str = "/place?circuit=qec3&env=grid:2x3&strategy=hybrid&budget_ms=500";

fn assert_recovered(server: &Server) {
    let reply = chaos::post(server.local_addr(), GOOD, &[], "").expect("recovery probe");
    assert_eq!(reply.status, 200, "recovery probe failed: {}", reply.body);
    assert!(reply.body.contains("\"resolution\""), "{}", reply.body);
}

#[test]
fn panicking_job_costs_one_500_and_nothing_else() {
    let server = chaos_server(ServeConfig::default().workers(2));
    let addr = server.local_addr();

    for round in 0..3 {
        let reply = chaos::post(addr, GOOD, &[("x-qcp-chaos", "panic")], "").expect("post");
        assert_eq!(reply.status, 500, "round {round}: {}", reply.body);
        assert!(
            reply.body.contains("\"kind\":\"internal\""),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"exit_code\":5"), "{}", reply.body);
        assert!(
            reply.body.contains("injected worker panic"),
            "{}",
            reply.body
        );
        // The worker that just unwound must serve the next request.
        assert_recovered(&server);
    }

    server.drain();
    let stats = server.join();
    assert_eq!(stats.panics, 3);
    assert_eq!(stats.served_ok, 3);
}

#[test]
fn chaos_headers_are_inert_without_opt_in() {
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(1)).expect("bind");
    let reply =
        chaos::post(server.local_addr(), GOOD, &[("x-qcp-chaos", "panic")], "").expect("post");
    assert_eq!(reply.status, 200, "{}", reply.body);
    server.drain();
    assert_eq!(server.join().panics, 0);
}

#[test]
fn malformed_and_truncated_qasm_are_parse_errors_with_positions() {
    let server = chaos_server(ServeConfig::default().workers(2));
    let addr = server.local_addr();

    // Malformed QASM: bogus statement on line 3.
    let bad_qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    let reply = chaos::post(addr, "/place?env=grid:2x3", &[], bad_qasm).expect("post");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("\"kind\":\"parse\""), "{}", reply.body);
    assert!(reply.body.contains("\"exit_code\":2"), "{}", reply.body);
    assert!(
        reply.body.contains("3:"),
        "no line position: {}",
        reply.body
    );
    assert_recovered(&server);

    // QASM cut off mid-statement (complete HTTP request, broken payload).
    let cut = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],";
    let reply = chaos::post(addr, "/place?env=grid:2x3", &[], cut).expect("post");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("\"kind\":\"parse\""), "{}", reply.body);
    assert_recovered(&server);

    // Non-UTF-8 body.
    let raw = "POST /place?env=grid:2x3 HTTP/1.1\r\nhost: qcp\r\ncontent-length: 4\r\n\r\n";
    let mut bytes = raw.as_bytes().to_vec();
    bytes.extend_from_slice(&[0xff, 0xfe, 0x00, 0x80]);
    let reply = chaos::send_raw(addr, &bytes, Duration::from_secs(30)).expect("send");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("UTF-8"), "{}", reply.body);
    assert_recovered(&server);

    server.drain();
    server.join();
}

#[test]
fn corpus_files_posted_verbatim_place() {
    // Every committed corpus file opens with `//` comment lines before
    // its `OPENQASM 2.0;` header; the body must still be read as QASM.
    let server = chaos_server(ServeConfig::default().workers(2));
    let addr = server.local_addr();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/qasm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("qasm corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "expected the 10-file corpus at {dir}");
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        assert!(
            text.starts_with("//"),
            "{} lost its header comment",
            path.display()
        );
        let reply = chaos::post(
            addr,
            "/place?env=grid:4x4&strategy=hybrid&budget_nodes=20000",
            &[],
            &text,
        )
        .expect("post");
        assert_eq!(reply.status, 200, "{}: {}", path.display(), reply.body);
        assert!(reply.body.contains("\"resolution\""), "{}", reply.body);
    }

    server.drain();
    let stats = server.join();
    assert_eq!(stats.served_ok, paths.len() as u64);
}

#[test]
fn oversized_topology_specs_are_rejected_and_the_daemon_keeps_serving() {
    // A device spec is parsed before anything is built for it: the dense
    // coupling table of `line:100000` alone would need 40 GB, and setting
    // up `line:4096` (coupling table, automorphisms, all-pairs hop
    // distances, cache key) took seconds outside the request's budget.
    let server = chaos_server(ServeConfig::default().workers(1));
    let addr = server.local_addr();
    for env in [
        "line:100000",
        "grid:4294967296x4294967296",
        "line:4096",
        "line:513",
    ] {
        let start = Instant::now();
        let reply = chaos::post(
            addr,
            &format!("/place?circuit=qec3&env={env}&budget_ms=50"),
            &[],
            "",
        )
        .expect("post");
        let elapsed = start.elapsed();
        assert_eq!(reply.status, 400, "{env}: {}", reply.body);
        assert!(
            reply.body.contains("more than 512 qubits"),
            "{env}: {}",
            reply.body
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "{env}: answered after {elapsed:?}"
        );
        assert_recovered(&server);
    }
    // `line:512`, at the cap, still places.
    let reply = chaos::post(
        addr,
        "/place?circuit=qec3&env=line:512&budget_ms=50",
        &[],
        "",
    )
    .expect("post");
    assert_eq!(reply.status, 200, "line:512: {}", reply.body);

    server.drain();
    let stats = server.join();
    assert_eq!(stats.client_errors, 4);
    assert_eq!(stats.served_ok, 5);
}

/// OpenQASM for `rings` disjoint rings of `len` `cz` gates: every qubit
/// has the same Weisfeiler–Leman colour in the interaction graph.
fn ring_union_qasm(rings: usize, len: usize) -> String {
    let mut text = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{}];\n",
        rings * len
    );
    for r in 0..rings {
        for i in 0..len {
            text += &format!("cz q[{}],q[{}];\n", r * len + i, r * len + (i + 1) % len);
        }
    }
    text
}

#[test]
fn symmetric_circuit_too_wide_for_the_device_is_answered_within_its_budget() {
    // 16 rings of 32 on 512 qubits (a 9 KB body) cannot fit a 6-qubit
    // device. The answer must come from the width check, not after a
    // canonicalization that runs longer than the request's budget.
    let server = chaos_server(ServeConfig::default().workers(1));
    let body = ring_union_qasm(16, 32);
    let start = Instant::now();
    let reply = chaos::post(
        server.local_addr(),
        "/place?env=grid:2x3&budget_ms=50",
        &[],
        &body,
    )
    .expect("post");
    let elapsed = start.elapsed();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("needs 512 qubits"), "{}", reply.body);
    assert!(
        elapsed < Duration::from_secs(1),
        "answered after {elapsed:?}"
    );
    assert_recovered(&server);

    server.drain();
    server.join();
}

#[test]
fn oversized_payloads_are_rejected_before_the_body_is_read() {
    let server = chaos_server(ServeConfig::default().workers(1).max_body_bytes(1024));
    let addr = server.local_addr();

    // Declared oversize: the daemon must answer 413 from the declaration
    // alone — we never send the body, so anything else would hang.
    let head = "POST /place?env=grid:2x3 HTTP/1.1\r\nhost: qcp\r\ncontent-length: 1048576\r\n\r\n";
    let reply = chaos::send_raw(addr, head.as_bytes(), Duration::from_secs(30)).expect("send");
    assert_eq!(reply.status, 413, "{}", reply.body);
    assert!(
        reply.body.contains("\"kind\":\"oversize\""),
        "{}",
        reply.body
    );
    assert_recovered(&server);

    server.drain();
    let stats = server.join();
    assert_eq!(stats.oversize, 1);
}

#[test]
fn slowloris_half_requests_cost_one_read_window_at_most() {
    let server = chaos_server(
        ServeConfig::default()
            .workers(2)
            .read_timeout(Duration::from_millis(300)),
    );
    let addr = server.local_addr();

    let t0 = Instant::now();
    let reply = chaos::slowloris(addr, Duration::from_secs(30)).expect("slowloris reply");
    let held = t0.elapsed();
    assert_eq!(reply.status, 408, "{}", reply.body);
    assert!(
        reply.body.contains("\"kind\":\"slow-client\""),
        "{}",
        reply.body
    );
    // The absolute deadline bounds how long the worker was held hostage.
    assert!(held < Duration::from_secs(5), "held {held:?}");
    assert_recovered(&server);

    // With two workers, a slowloris in flight must not block honest
    // traffic on the other worker.
    let handle = std::thread::spawn(move || chaos::slowloris(addr, Duration::from_secs(30)));
    std::thread::sleep(Duration::from_millis(30));
    assert_recovered(&server);
    let reply = handle.join().expect("thread").expect("reply");
    assert_eq!(reply.status, 408);

    // A truncated upload (body shorter than content-length, then FIN)
    // must resolve as a 400, not a hang.
    let reply = chaos::truncated_post(addr, "/place?env=grid:2x3").expect("truncated");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_recovered(&server);

    server.drain();
    let stats = server.join();
    assert_eq!(stats.slow_clients, 2);
}

#[test]
fn deadline_exhaustion_degrades_hybrid_and_faults_exact() {
    let server = chaos_server(ServeConfig::default().workers(2));
    let addr = server.local_addr();

    // aqft12 on grid:16x16 takes seconds of exact search unbudgeted (about
    // 3.8 s in a release build on a 2-core host). A hybrid request with a
    // tight deadline must still answer 200 — just with a degraded
    // resolution label — and within bounded wall clock.
    let t0 = Instant::now();
    let reply = chaos::post(
        addr,
        "/place?circuit=aqft12&env=grid:16x16&strategy=hybrid&budget_ms=300",
        &[],
        "",
    )
    .expect("post");
    let elapsed = t0.elapsed();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("\"resolution\":\"fallback\"")
            || reply.body.contains("\"resolution\":\"budget-exhausted\""),
        "expected a degraded resolution: {}",
        reply.body
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    // The same circuit with strategy=exact has no fallback: the budget
    // trips and the taxonomy says so (504 / exit 3).
    let reply = chaos::post(
        addr,
        "/place?circuit=aqft12&env=grid:16x16&strategy=exact&budget_ms=100",
        &[],
        "",
    )
    .expect("post");
    assert_eq!(reply.status, 504, "{}", reply.body);
    assert!(
        reply.body.contains("\"kind\":\"budget-exhausted\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("\"exit_code\":3"), "{}", reply.body);
    assert_recovered(&server);

    server.drain();
    let stats = server.join();
    assert!(stats.budget_exhausted >= 1);
}

#[test]
fn sub_stride_deadlines_are_shed_not_burned() {
    // A budget below the server's deadline floor cannot execute even one
    // deadline-poll stride (the kernel polls every 1024 nodes): admitting
    // it would burn a worker slot to answer 504 having visited zero
    // nodes. It must be shed with 429 up front — and the worker it never
    // occupied must serve the next honest request.
    let server = chaos_server(ServeConfig::default().workers(1).min_budget_ms(25));
    let addr = server.local_addr();

    let reply = chaos::post(
        addr,
        "/place?circuit=qft6&env=grid:8x8&strategy=exact&budget_ms=1",
        &[],
        "",
    )
    .expect("post");
    assert_eq!(reply.status, 429, "{}", reply.body);
    assert!(
        reply.body.contains("\"kind\":\"overload\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("deadline floor"), "{}", reply.body);
    assert_recovered(&server);

    server.drain();
    let stats = server.join();
    assert_eq!(
        stats.budget_exhausted, 0,
        "a sub-floor request burned a worker slot: {stats:?}"
    );
    assert!(stats.shed >= 1, "{stats:?}");
    assert_eq!(stats.served_ok, 1);
}

#[test]
fn queue_overflow_sheds_with_429_and_recovers() {
    let server = chaos_server(ServeConfig::default().workers(1).queue_depth(1));
    let addr = server.local_addr();

    // Occupy the single worker with a slow job, then pile on: queue depth
    // one means the pile must overflow into explicit 429s.
    let slow =
        std::thread::spawn(move || chaos::post(addr, GOOD, &[("x-qcp-chaos", "sleep:800")], ""));
    std::thread::sleep(Duration::from_millis(100));

    // The pile-on must be concurrent — a sequential client would wait
    // for each reply and never overflow the queue.
    let pile: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || chaos::post(addr, GOOD, &[], "")))
        .collect();
    let mut sheds = 0;
    for handle in pile {
        let reply = handle.join().expect("thread").expect("pile-on");
        match reply.status {
            429 => {
                assert!(
                    reply.body.contains("\"kind\":\"overload\""),
                    "{}",
                    reply.body
                );
                sheds += 1;
            }
            200 => {}
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert!(sheds >= 1, "no request was shed under overload");

    let slow_reply = slow.join().expect("thread").expect("slow reply");
    assert_eq!(slow_reply.status, 200, "{}", slow_reply.body);

    // Once the pile drains, service is healthy again.
    assert_recovered(&server);
    server.drain();
    let stats = server.join();
    assert!(stats.shed >= 1);
    assert_eq!(stats.panics, 0);
}

#[test]
fn graceful_drain_finishes_queued_work_then_exits() {
    let server = chaos_server(ServeConfig::default().workers(1));
    let addr = server.local_addr();

    // Park a slow job, then queue a second one behind it, so the drain
    // request observably overlaps both in-flight and queued work.
    let slow =
        std::thread::spawn(move || chaos::post(addr, GOOD, &[("x-qcp-chaos", "sleep:400")], ""));
    std::thread::sleep(Duration::from_millis(100));
    let queued = std::thread::spawn(move || chaos::post(addr, GOOD, &[], ""));
    std::thread::sleep(Duration::from_millis(50));

    let reply = chaos::post(addr, "/admin/drain", &[], "").expect("drain");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.body.contains("\"draining\":true"), "{}", reply.body);

    // Both the in-flight and the queued job still complete correctly.
    let slow_reply = slow.join().expect("thread").expect("slow reply");
    assert_eq!(slow_reply.status, 200, "{}", slow_reply.body);
    let queued_reply = queued.join().expect("thread").expect("queued reply");
    assert_eq!(queued_reply.status, 200, "{}", queued_reply.body);

    // join() returning is the drain guarantee; the counters confirm no
    // job was dropped on the floor.
    let stats = server.join();
    assert!(stats.served_ok >= 2, "{stats:?}");
    assert_eq!(stats.panics, 0);
}

/// Runs [`Server::join`] on a thread of its own and returns once that
/// thread has started. Waiting on the receiver with a timeout turns a
/// drain that never wakes the daemon into a test failure instead of a
/// hang.
fn spawn_join(server: Server) -> Receiver<StatsSnapshot> {
    let (started_tx, started_rx) = mpsc::channel();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = started_tx.send(());
        let _ = tx.send(server.join());
    });
    started_rx.recv().expect("join thread started");
    rx
}

/// The final counters, if `join` returns by `deadline`.
fn joined_by(rx: &Receiver<StatsSnapshot>, deadline: Instant) -> StatsSnapshot {
    let limit = deadline.saturating_duration_since(Instant::now());
    rx.recv_timeout(limit)
        .expect("join did not return within the drain deadline")
}

const DRAIN_LIMIT: Duration = Duration::from_secs(1);

#[test]
fn idle_drain_wakes_the_blocked_acceptor_and_workers() {
    // `Server::drain` on a server that never saw a connection.
    let server = chaos_server(ServeConfig::default().workers(2));
    let deadline = Instant::now() + DRAIN_LIMIT;
    server.drain();
    let stats = joined_by(&spawn_join(server), deadline);
    // Drain's own wake-up connection is not counted.
    assert_eq!(stats.accepted, 0, "{stats:?}");

    // `DrainHandle::drain` from another thread while `join` blocks (the
    // CLI's stdin watcher).
    let server = chaos_server(ServeConfig::default().workers(2));
    let handle = server.drain_handle();
    let rx = spawn_join(server);
    let deadline = Instant::now() + DRAIN_LIMIT;
    handle.drain();
    let stats = joined_by(&rx, deadline);
    assert_eq!(stats.accepted, 0, "{stats:?}");

    // `POST /admin/drain`: the worker that answers it wakes the acceptor.
    let server = chaos_server(ServeConfig::default().workers(2));
    let addr = server.local_addr();
    let rx = spawn_join(server);
    let deadline = Instant::now() + DRAIN_LIMIT;
    let reply = chaos::post(addr, "/admin/drain", &[], "").expect("drain");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let stats = joined_by(&rx, deadline);
    assert_eq!(stats.accepted, 1, "{stats:?}");
}

#[test]
fn drain_wakes_a_listener_bound_to_the_unspecified_address() {
    let server =
        Server::start(ServeConfig::default().addr("0.0.0.0:0").workers(1)).expect("bind 0.0.0.0:0");
    let loopback = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
    let reply = chaos::post(loopback, GOOD, &[], "").expect("place through loopback");
    assert_eq!(reply.status, 200, "{}", reply.body);

    let deadline = Instant::now() + DRAIN_LIMIT;
    server.drain();
    let stats = joined_by(&spawn_join(server), deadline);
    assert_eq!(stats.accepted, 1, "{stats:?}");
    assert_eq!(stats.served_ok, 1, "{stats:?}");

    // The old port refuses, or answers 503; it never hangs.
    let probe = b"GET /healthz HTTP/1.1\r\nhost: qcp\r\n\r\n";
    match chaos::send_raw(loopback, probe, Duration::from_secs(2)) {
        Ok(reply) => assert_eq!(reply.status, 503, "{}", reply.body),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
            ),
            "probe after join: {e}"
        ),
    }
}

#[test]
fn full_gauntlet_one_process_survives_every_fault_class() {
    // Every fault class against a single server instance, interleaved
    // with recovery probes: the closest thing to the acceptance criterion
    // "the daemon serves a correct subsequent request after every fault
    // and never exits".
    let server = chaos_server(
        ServeConfig::default()
            .workers(2)
            .max_body_bytes(4096)
            .read_timeout(Duration::from_millis(400)),
    );
    let addr = server.local_addr();

    // 1. Garbage request line.
    let reply = chaos::send_raw(addr, b"NOT HTTP\r\n\r\n", Duration::from_secs(30)).expect("raw");
    assert_eq!(reply.status, 400);
    assert_recovered(&server);

    // 2. Worker panic.
    let reply = chaos::post(addr, GOOD, &[("x-qcp-chaos", "panic")], "").expect("post");
    assert_eq!(reply.status, 500);
    assert_recovered(&server);

    // 3. Malformed QASM.
    let reply =
        chaos::post(addr, "/place?env=grid:2x3", &[], "OPENQASM 2.0;\nnope;\n").expect("post");
    assert_eq!(reply.status, 400);
    assert_recovered(&server);

    // 4. Oversized declaration.
    let head = "POST /place?env=grid:2x3 HTTP/1.1\r\nhost: qcp\r\ncontent-length: 999999\r\n\r\n";
    let reply = chaos::send_raw(addr, head.as_bytes(), Duration::from_secs(30)).expect("raw");
    assert_eq!(reply.status, 413);
    assert_recovered(&server);

    // 5. Slowloris.
    let reply = chaos::slowloris(addr, Duration::from_secs(30)).expect("slowloris");
    assert_eq!(reply.status, 408);
    assert_recovered(&server);

    // 6. Deadline-exhausting circuit, degraded not dead.
    let reply = chaos::post(
        addr,
        "/place?circuit=aqft12&env=grid:16x16&strategy=hybrid&budget_ms=250",
        &[],
        "",
    )
    .expect("post");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_recovered(&server);

    // 7. Sub-floor deadline, shed before admission (default floor 25 ms).
    let reply = chaos::post(
        addr,
        "/place?circuit=qec3&env=grid:2x3&budget_ms=1",
        &[],
        "",
    )
    .expect("post");
    assert_eq!(reply.status, 429, "{}", reply.body);
    assert_recovered(&server);

    let health = chaos::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\":true"), "{}", health.body);
    assert!(health.body.contains("\"panics\":1"), "{}", health.body);

    server.drain();
    let stats = server.join();
    assert_eq!(stats.panics, 1);
    assert!(stats.served_ok >= 7, "{stats:?}");
}
