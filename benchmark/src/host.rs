//! Everything the benchmark reads from the host: the wall clock, `/proc`
//! and child processes. The repository lints the wall clock out of every
//! simulation crate (`clippy.toml`, `cargo xtask lint`); a benchmark has
//! to read it, so the reads are confined to this one module and the rest
//! of the benchmark only ever sees plain numbers.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant; // xtask: allow(wall-clock-instant)

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new(); // xtask: allow(wall-clock-instant)
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 // xtask: allow(wall-clock-instant)
}

/// CPU time and page faults of this process, from `/proc/self/stat`.
#[derive(Clone, Copy, Default)]
pub struct ProcStat {
    /// User-mode clock ticks (100 Hz).
    pub utime: u64,
    /// Kernel-mode clock ticks (100 Hz).
    pub stime: u64,
    /// Minor page faults.
    pub minflt: u64,
}

/// Read [`ProcStat`]; all zero where `/proc` is missing.
pub fn proc_stat() -> ProcStat {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return ProcStat::default();
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|s| s.parse().unwrap_or(0))
        .collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let field = |n: usize| f.get(n - 3).copied().unwrap_or(0);
    ProcStat {
        utime: field(14),
        stime: field(15),
        minflt: field(10),
    }
}

fn status_kib(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// Peak resident set size of this process so far, KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V` of the toolchain on the path, or `unknown`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository: `unknown` there).
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

/// Run this executable again with `args`, wait for it, and return its
/// standard output. A fresh address space per repetition is what makes
/// page-fault cost and peak RSS repeatable.
pub fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} exited with {}", args, out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// One host-time span: a name, its interval and the span that caused it.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. The benchmark's phase times *are* these
/// spans, so traced and untraced runs time a phase the same way; only a
/// traced run writes them out.
#[derive(Default)]
pub struct Spans {
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Spans {
    /// Open a span under the innermost open one.
    pub fn enter(&self, name: impl Into<String>) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.stack.borrow().last().copied();
        self.stack.borrow_mut().push(id);
        spans.push(Span {
            name: name.into(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        id
    }

    /// Close span `id` (the innermost open one) and return its duration.
    pub fn exit(&self, id: usize) -> u64 {
        let end = now_ns();
        let open = self.stack.borrow_mut().pop();
        assert_eq!(open, Some(id), "spans close innermost first");
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        end - spans[id].start_ns
    }

    /// Time `f` as a span and return its result with the duration.
    pub fn time<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let r = f();
        (r, self.exit(id))
    }

    /// Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
    /// one complete event per span, `args` carrying the parent's name and
    /// the self time (duration minus the children's).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("", |p| spans[p].name.as_str());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":\"{parent}\",\
                 \"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                dur.saturating_sub(child_ns[i]) as f64 / 1e3,
            );
        }
        out.push_str("\n]\n");
        out
    }
}
