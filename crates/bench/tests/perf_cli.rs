#![allow(clippy::unwrap_used, clippy::expect_used)]
//! `perf`'s argument handling: help and bad invocations exit before any
//! suite runs, and never write `BENCH_PLACE.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcp-perf-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn perf_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run perf")
}

#[test]
fn help_and_bad_flags_exit_without_running_or_writing() {
    for (name, args, code) in [
        ("help", &["--help"][..], 0),
        ("short-help", &["-h"][..], 0),
        ("compare-help", &["compare", "--help"][..], 0),
        ("bogus", &["--bogus"][..], 2),
        ("quick-bogus", &["--quick", "--bogus"][..], 2),
        ("out-missing", &["--out"][..], 2),
        (
            "compare-bogus",
            &["compare", "a.json", "b.json", "--bogus"][..],
            2,
        ),
        (
            "compare-nan",
            &["compare", "a.json", "b.json", "--max-slowdown", "x"][..],
            2,
        ),
        ("compare-one-file", &["compare", "a.json"][..], 2),
    ] {
        let dir = fresh_dir(name);
        let out = perf_in(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let usage = if code == 0 { &stdout } else { &stderr };
        assert!(usage.contains("usage: perf"), "{args:?}: {usage}");
        assert!(
            !dir.join("BENCH_PLACE.json").exists(),
            "{args:?} wrote BENCH_PLACE.json"
        );
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
