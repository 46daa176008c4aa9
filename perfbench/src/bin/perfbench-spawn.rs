//! `perfbench-spawn`: the helper that starts and reaps every one-shot
//! `qcp` process for the benchmark harness.
//!
//! Linux reports a child's peak RSS as at least the resident set of the
//! process it was spawned from. This program links nothing but `std`, so
//! its own resident set stays below any `qcp` process and the peak RSS
//! `wait4` reports for its children is theirs.
//!
//! Each line on standard input is `program<TAB>stdout path<TAB>args…`;
//! for each, one line goes to standard output: the raw wait status, CPU
//! time in µs (user plus system), peak RSS in kB and wall time in ns from
//! just before the spawn to just after the reap.

use std::io::{BufRead, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
}

/// Reaps child `pid` with `wait4`: its wait status, CPU µs and peak RSS kB.
fn reap(pid: u32) -> std::io::Result<(i32, i64, i64)> {
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut raw = RawRusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` names a child of this process that has not been
        // reaped yet (std never waits on a `Child` unless asked to, and
        // each child is reaped once, here); `status` and `raw` are valid,
        // exclusively borrowed out-pointers of the layout the kernel
        // writes on 64-bit Linux.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let micros = |t: &Timeval| t.sec * 1_000_000 + t.usec;
    Ok((
        status,
        micros(&raw.utime) + micros(&raw.stime),
        raw.maxrss_kb,
    ))
}

fn serve_requests() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let mut fields = line.split('\t');
        let (Some(program), Some(path)) = (fields.next(), fields.next()) else {
            return Err(std::io::Error::other(format!("bad request `{line}`")));
        };
        let started = Instant::now();
        let child = Command::new(program)
            .args(fields)
            .stdin(Stdio::null())
            .stdout(std::fs::File::create(path)?)
            .stderr(Stdio::null())
            .spawn()?;
        let (status, cpu_us, peak_rss_kb) = reap(child.id())?;
        let wall = started.elapsed();
        writeln!(out, "{status} {cpu_us} {peak_rss_kb} {}", wall.as_nanos())?;
        out.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match serve_requests() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-spawn: {e}");
            ExitCode::from(1)
        }
    }
}
