#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Integration tests pinning the CLI exit-code taxonomy (GUIDE.md §9):
//! 0 success, 2 parse/input, 3 budget exhausted, 4 verify reject,
//! 5 internal. Scripts and CI pipelines branch on these numbers, so a
//! change here is a breaking interface change.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qcp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qcp"))
        .args(args)
        .output()
        .expect("run qcp")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code (not a signal)")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory seeded with the given `(name, contents)` files;
/// removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn with_files(tag: &str, files: &[(&str, &str)]) -> Self {
        let dir = std::env::temp_dir().join(format!("qcp-exit-codes-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        for (name, contents) in files {
            std::fs::write(dir.join(name), contents).expect("write scratch file");
        }
        ScratchDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const GOOD_QASM: &str = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
const BAD_QASM: &str = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
const IDLE_QASM: &str = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\n";

#[test]
fn success_is_exit_zero() {
    let out = qcp(&["circuits"]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let out = qcp(&[
        "place",
        "--circuit",
        "qec3",
        "--topology",
        "grid:2x3",
        "--strategy",
        "hybrid",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
}

#[test]
fn input_errors_are_exit_two() {
    // Usage error (no subcommand).
    assert_eq!(exit_code(&qcp(&[])), 2);
    // Unknown option.
    assert_eq!(exit_code(&qcp(&["place", "--frobnicate"])), 2);
    // Unknown circuit.
    let out = qcp(&["place", "--circuit", "nope", "--topology", "grid:2x2"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    // Malformed QASM file, with a path:line:col diagnostic.
    let dir = ScratchDir::with_files("badqasm", &[("bad.qasm", BAD_QASM)]);
    let path = format!("{}/bad.qasm", dir.path());
    let out = qcp(&["place", "--qasm", &path, "--topology", "grid:2x2"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains(&format!("{path}:3:1")),
        "no path:line:col diagnostic: {}",
        stderr(&out)
    );
}

#[test]
fn oversized_topologies_are_exit_two() {
    // A device too large to build is rejected when its spec is parsed,
    // before anything is allocated for its coupling table.
    for args in [
        ["place", "--circuit", "qec3", "--topology", "line:100000"],
        ["place", "--circuit", "qec3", "--env", "line:100000"],
        [
            "batch",
            "--circuits",
            "qec3",
            "--envs",
            "grid:100000x100000",
        ],
    ] {
        let out = qcp(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("more than 4096 qubits"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn budget_exhaustion_is_exit_three() {
    let out = qcp(&[
        "place",
        "--circuit",
        "qft6",
        "--topology",
        "grid:8x8",
        "--strategy",
        "exact",
        "--budget-ms",
        "1",
    ]);
    assert_eq!(exit_code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("budget"), "{}", stderr(&out));
}

#[test]
fn verify_rejection_is_exit_four() {
    let dir = ScratchDir::with_files("lintdeny", &[("idle.qasm", IDLE_QASM)]);
    let path = format!("{}/idle.qasm", dir.path());
    // The idle third qubit is a deterministic lint finding; --deny turns
    // findings into a policy rejection.
    let out = qcp(&["lint", &path, "--deny"]);
    assert_eq!(exit_code(&out), 4, "{}", stderr(&out));
    // Without --deny the same input is merely reported.
    let out = qcp(&["lint", &path]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
}

#[test]
fn contained_panics_are_exit_five() {
    let out = Command::new(env!("CARGO_BIN_EXE_qcp"))
        .args(["circuits"])
        .env("QCP_CHAOS", "panic")
        .output()
        .expect("run qcp");
    assert_eq!(exit_code(&out), 5, "{}", stderr(&out));
    assert!(stderr(&out).contains("exit 5"), "{}", stderr(&out));
}

#[test]
fn batch_skips_malformed_qasm_and_exits_two() {
    let dir = ScratchDir::with_files(
        "batchskip",
        &[
            ("a_good.qasm", GOOD_QASM),
            ("b_bad.qasm", BAD_QASM),
            ("c_good.qasm", GOOD_QASM),
        ],
    );
    let out = qcp(&[
        "batch",
        "--qasm-dir",
        dir.path(),
        "--envs",
        "grid:2x2",
        "--strategy",
        "hybrid",
        "--budget-ms",
        "500",
    ]);
    // The malformed file is skipped (distinct exit 2), but the rest of
    // the batch ran: both good circuits appear in the report on stdout.
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("a_good@"), "{stdout}");
    assert!(stdout.contains("c_good@"), "{stdout}");
    assert!(stdout.contains("2 ok, 0 failed"), "{stdout}");
    assert!(!stdout.contains("b_bad@"), "{stdout}");
    let err = stderr(&out);
    assert!(err.contains("b_bad.qasm:3:1"), "no line:col: {err}");
    assert!(err.contains("skipping malformed"), "{err}");
    assert!(err.contains("skipped 1 malformed QASM file(s)"), "{err}");

    // A directory where *everything* is malformed is a hard error, still
    // exit 2.
    let dir = ScratchDir::with_files("allbad", &[("bad.qasm", BAD_QASM)]);
    let out = qcp(&["batch", "--qasm-dir", dir.path(), "--envs", "grid:2x2"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("all 1 .qasm file(s)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_rejects_bad_flags_with_exit_two() {
    let out = qcp(&["serve", "--workers", "two"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let out = qcp(&["serve", "--frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    let out = qcp(&["serve", "--addr", "definitely:not:an:addr"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
}

#[test]
fn serve_drains_with_exit_zero_and_prints_every_counter() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_qcp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qcp serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /admin/drain HTTP/1.1\r\nhost: qcp\r\ncontent-length: 0\r\n\r\n")
        .expect("send drain");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("drain reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read log");
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(0), "{rest}");
    // The drain line renders the same counter table as `/healthz`, in
    // the same order and under the same names.
    assert!(
        rest.contains(
            "qcp serve: drained; accepted=1 served_ok=0 client_errors=0 shed=0 oversize=0 \
             slow_clients=0 panics=0 budget_exhausted=0 resolved_exact=0 resolved_fallback=0 \
             resolved_degraded=0 cache_hits=0 cache_misses=0 cache_remapped=0\n"
        ),
        "{rest}"
    );
}
