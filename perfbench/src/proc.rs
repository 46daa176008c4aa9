//! Child processes with their resource usage: the `perfbench-spawn`
//! helper for one-shot `qcp` processes, `/proc` for the long-lived daemon.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// What a reaped child cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub status: ExitStatus,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set; never below the helper's own (about 3 MB,
    /// mostly shared libraries), which every `qcp` process exceeds.
    pub peak_rss_kb: u64,
}

/// One finished `qcp` process.
#[derive(Debug)]
pub struct Finished {
    pub stdout: String,
    pub usage: Usage,
    pub started: Instant,
    pub ended: Instant,
}

impl Finished {
    pub fn wall(&self) -> Duration {
        self.ended - self.started
    }
}

/// The `perfbench-spawn` helper process, which starts and reaps every
/// one-shot `qcp` process.
///
/// Linux reports a child's peak RSS as at least the resident set of the
/// process it was spawned from, so children of this harness, which links
/// the whole library and grows as a run stores its answers, would report
/// the harness's memory. The helper is a small program of its own, so its
/// children report their own peak.
pub struct Spawner {
    /// Held for its `Drop`, which stops and reaps the helper.
    _helper: Guarded,
    to: ChildStdin,
    from: BufReader<ChildStdout>,
    /// Where the helper writes each child's standard output.
    out: PathBuf,
}

impl Spawner {
    /// Starts the helper, which is built next to this executable.
    pub fn start(out: PathBuf) -> std::io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?.with_file_name("perfbench-spawn"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child
            .stdin
            .take()
            .ok_or_else(|| std::io::Error::other("no helper stdin"))?;
        let from = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("no helper stdout"))?;
        Ok(Spawner {
            _helper: Guarded::new(child),
            to,
            from: BufReader::new(from),
            out,
        })
    }

    /// Runs `program args…` to completion in the helper: stdout captured,
    /// stderr discarded. The clock runs from just before the spawn to just
    /// after the reap.
    ///
    /// # Errors
    ///
    /// A helper or spawn failure.
    pub fn run(&mut self, program: &str, args: &[String]) -> std::io::Result<Finished> {
        let mut line = format!("{program}\t{}", self.out.display());
        for arg in args {
            line.push('\t');
            line.push_str(arg);
        }
        writeln!(self.to, "{line}")?;
        self.to.flush()?;
        let mut reply = String::new();
        self.from.read_line(&mut reply)?;
        let ended = Instant::now();
        let fields: Vec<i64> = reply
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| std::io::Error::other(format!("helper reply `{reply}`: {e}")))?;
        let [status, cpu_us, peak_rss_kb, wall_ns] = fields[..] else {
            return Err(std::io::Error::other(format!("helper reply `{reply}`")));
        };
        let as_u64 = |v: i64| u64::try_from(v).unwrap_or(0);
        let status = i32::try_from(status).map_err(std::io::Error::other)?;
        Ok(Finished {
            stdout: std::fs::read_to_string(&self.out)?,
            usage: Usage {
                status: ExitStatus::from_raw(status),
                cpu: Duration::from_micros(as_u64(cpu_us)),
                peak_rss_kb: as_u64(peak_rss_kb),
            },
            started: ended - Duration::from_nanos(as_u64(wall_ns)),
            ended,
        })
    }
}

/// Peak resident set (`VmHWM`) of a running process, in kB.
pub fn peak_rss(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM for process {pid}")))
}

/// A long-lived child that is killed and reaped if it is dropped before
/// [`Guarded::finish`].
pub struct Guarded {
    child: Option<Child>,
}

impl Guarded {
    pub fn new(child: Child) -> Guarded {
        Guarded { child: Some(child) }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits for the child to exit on its own.
    pub fn finish(mut self) -> std::io::Result<ExitStatus> {
        match self.child.take() {
            Some(mut child) => child.wait(),
            None => Err(std::io::Error::other("child already reaped")),
        }
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// CPU time consumed so far by every thread of a running process, from
/// the per-thread scheduler statistics (nanosecond resolution).
pub fn cpu_time(pid: u32) -> std::io::Result<Duration> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let stat = std::fs::read_to_string(task?.path().join("schedstat"))?;
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad schedstat `{stat}`")))?;
    }
    Ok(Duration::from_nanos(total))
}
