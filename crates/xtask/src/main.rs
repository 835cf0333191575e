#![forbid(unsafe_code)]

//! `cargo xtask` — repo automation, chiefly the **determinism lint**.
//!
//! The whole value of the simulator rests on runs being a pure function
//! of the seed: the executor is single-threaded over virtual time, the
//! RNG is seeded, and every container the simulation iterates has a
//! deterministic order. One stray wall-clock read, OS-entropy draw,
//! spawned thread, or hash-order iteration silently breaks replayability
//! — and usually only shows up later as an unreproducible CI failure.
//!
//! `cargo xtask lint` scans every simulation-relevant source file for
//! nondeterminism escapes and fails the build if one appears. It is a
//! deliberately dumb, dependency-free line scanner: the point is a fast
//! gate that cannot itself rot, not a type-aware analysis — the
//! `clippy.toml` `disallowed-methods` / `disallowed-types` lists (driven
//! through `[workspace.lints]`) provide the type-aware second layer.
//!
//! A finding can be suppressed for one line with a trailing
//! `// xtask: allow(<rule-id>)` comment — grep-able, reviewable, loud.
//!
//! `cargo xtask lint --self-test` runs the scanner over embedded seeded
//! violations and fails unless every rule fires (and the allow marker
//! suppresses), so the gate is itself gated.
//!
//! `cargo xtask trace-check` exercises the telemetry exporter: it runs
//! the seeded `trace_demo` figure twice with `--trace`, validates
//! the Chrome-trace JSON line by line (required fields, matched B/E
//! stacks per track, non-decreasing duration-event timestamps), and
//! fails unless the two same-seed traces and metrics CSVs are
//! byte-identical and match the FNV-1a digests pinned in
//! `crates/xtask/golden/trace_demo.digest` — the telemetry counterpart
//! of the determinism lint.
//!
//! `cargo xtask mc [--quick]` is the model-checking gate (see
//! `crates/mc`): FIFO-policy engine parity, the clean schedule-
//! exploration matrix, and the mutation hunts that prove the checkers
//! catch the re-introduced historical bugs and the seeded races.
//!
//! `cargo xtask racecheck` is the dynamic-checker gate (unit tests,
//! clean matrix, seeded violations of every rule, observer-order
//! regression), and `cargo xtask check-all` umbrellas the gates that are
//! not plain `cargo test`/`cargo clippy`: lint, trace-check,
//! engine-parity, racecheck.
//!
//! `cargo xtask pairs --parent <exe> --change <exe> --workload W` is the
//! host-clock measuring loop of a performance change: alternating runs
//! of two builds of the repository benchmark, seed by seed. It reads
//! host clocks, so it gates nothing and CI does not run it. With
//! `--claim METRIC` it also verifies a virtual gain: that metric better
//! in every pair, every other virtual metric the same or better.
//!
//! `cargo xtask loc` counts non-test lines: per crate under `crates/` and
//! for `src/`, the lines of each `.rs` file above its first
//! `#[cfg(test)]` line, with and without blank and `//` lines. CI prints
//! it as a report; it gates nothing.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint rule: a substring that must not appear in simulation code.
struct Rule {
    /// Stable identifier, used in `// xtask: allow(<id>)`.
    id: &'static str,
    /// Substring matched against comment-stripped source lines.
    needle: &'static str,
    /// Why the pattern is banned / what to use instead.
    why: &'static str,
    /// When set, the rule covers only files under this repo-relative
    /// prefix, and only the lines above their `#[cfg(test)]` line.
    scope: Option<&'static str>,
}

/// The banned patterns. Substrings are matched after stripping `//`
/// comments, so prose mentioning a pattern is fine.
const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock-instant",
        needle: "Instant::now",
        why: "wall-clock time; use the simulation clock (`Sim::now`)",
        scope: None,
    },
    Rule {
        id: "wall-clock-system-time",
        needle: "SystemTime",
        why: "wall-clock time; use the simulation clock (`Sim::now`)",
        scope: None,
    },
    Rule {
        id: "os-entropy-thread-rng",
        needle: "thread_rng",
        why: "OS-seeded RNG; use `simnet::rng::DetRng::seed_from_u64`",
        scope: None,
    },
    Rule {
        id: "os-entropy-osrng",
        needle: "OsRng",
        why: "OS entropy; use `simnet::rng::DetRng::seed_from_u64`",
        scope: None,
    },
    Rule {
        id: "os-entropy-from-entropy",
        needle: "from_entropy",
        why: "OS entropy; use `simnet::rng::DetRng::seed_from_u64`",
        scope: None,
    },
    Rule {
        id: "thread-spawn",
        needle: "thread::spawn",
        why: "real threads race; simulation tasks go through `Sim::spawn`",
        scope: None,
    },
    Rule {
        id: "hash-order-map",
        needle: "HashMap",
        why: "iteration order is randomized per process; use `BTreeMap`",
        scope: None,
    },
    Rule {
        id: "hash-order-set",
        needle: "HashSet",
        why: "iteration order is randomized per process; use `BTreeSet`",
        scope: None,
    },
    // Added with the model checker (crates/mc): a schedule explorer that
    // quietly drew OS entropy or hashed its state would make decision
    // traces non-replayable — the exact failure the counterexample
    // format exists to prevent.
    Rule {
        id: "os-entropy-rand-random",
        needle: "rand::random",
        why: "OS-seeded convenience RNG; use `simnet::rng::DetRng::seed_from_u64`",
        scope: None,
    },
    Rule {
        id: "hash-order-random-state",
        needle: "RandomState",
        why: "per-process random hasher; use `BTreeMap`/`BTreeSet` or a fixed hasher",
        scope: None,
    },
    // Not a determinism rule: an operation's verbs must go through the
    // `ep: &Endpoint` it was handed. `Endpoint::new` allocates a new
    // client id, so verbs sent on a fresh endpoint escape the
    // operation's span, its lock-owner bits, a kill or cancel of its
    // client, and the checker's per-client windows.
    Rule {
        id: "deadline-thread",
        needle: "Endpoint::new",
        why: "a fresh endpoint is a new client id, outside the operation's span, lock-owner bits, \
              kill/cancel and checker windows; thread `ep: &Endpoint` through",
        scope: Some("crates/core/src/"),
    },
];

/// Directory names never descended into, anywhere in the tree.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "xtask", "results"];

/// One lint hit.
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    needle: &'static str,
    why: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.path.display(),
            self.line,
            self.rule,
            self.needle,
            self.why
        )
    }
}

/// Strip a line-comment, unless it carries the allow marker (then the
/// caller has already bailed). Naive about `//` inside string literals,
/// which is fine for a deny-list gate: it can only under-report on lines
/// that embed the pattern in a *string*, and over-reporting is handled by
/// the allow marker.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Scan one file's contents; `path` is only used for reporting.
fn scan_source(path: &Path, contents: &str, out: &mut Vec<Finding>) {
    let mut in_tests = false;
    for (no, raw) in contents.lines().enumerate() {
        in_tests |= raw.starts_with("#[cfg(test)]");
        for rule in RULES {
            if !strip_comment(raw).contains(rule.needle) {
                continue;
            }
            if rule.scope.is_some_and(|p| in_tests || !path.starts_with(p)) {
                continue;
            }
            let allow = format!("xtask: allow({})", rule.id);
            if raw.contains(&allow) {
                continue;
            }
            out.push(Finding {
                path: path.to_path_buf(),
                line: no + 1,
                rule: rule.id,
                needle: rule.needle,
                why: rule.why,
            });
        }
    }
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort(); // deterministic report order, naturally
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&p, files);
            }
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(p);
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the repo root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root, &mut files);
    let mut findings = Vec::new();
    for f in &files {
        match fs::read_to_string(f) {
            Ok(s) => scan_source(f.strip_prefix(&root).unwrap_or(f), &s, &mut findings),
            Err(e) => eprintln!("warning: skipping unreadable {}: {e}", f.display()),
        }
    }
    if findings.is_empty() {
        println!(
            "determinism lint: {} files scanned, {} rules, clean",
            files.len(),
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("determinism lint: {} violation(s):", findings.len());
        for f in &findings {
            eprintln!("  {f}");
        }
        eprintln!("suppress a deliberate use with a trailing `// xtask: allow(<rule-id>)` comment");
        ExitCode::FAILURE
    }
}

/// Seeded violations: each pair is (source snippet, rule-id that must
/// fire). The scanner runs over these in-memory, proving the gate trips.
const SEEDED: &[(&str, &str)] = &[
    ("let t0 = std::time::Instant::now();", "wall-clock-instant"),
    (
        "let epoch = SystemTime::now().duration_since(UNIX_EPOCH);",
        "wall-clock-system-time",
    ),
    ("let mut rng = rand::thread_rng();", "os-entropy-thread-rng"),
    ("let mut rng = OsRng;", "os-entropy-osrng"),
    (
        "let rng = SmallRng::from_entropy();",
        "os-entropy-from-entropy",
    ),
    ("std::thread::spawn(move || loop {});", "thread-spawn"),
    (
        "let mut m: HashMap<u64, u64> = HashMap::new();",
        "hash-order-map",
    ),
    ("let mut s = HashSet::new();", "hash-order-set"),
    ("let x: u64 = rand::random();", "os-entropy-rand-random"),
    (
        "let m = HashMap::with_hasher(RandomState::new());",
        "hash-order-random-state",
    ),
    ("let ep = Endpoint::new(&self.cluster);", "deadline-thread"),
];

/// Where a seeded violation of `rule` pretends to live: inside the
/// rule's scope, if it has one.
fn seeded_path(rule: &str) -> PathBuf {
    let scope = RULES.iter().find(|r| r.id == rule).and_then(|r| r.scope);
    Path::new(scope.unwrap_or("")).join("seeded.rs")
}

fn self_test() -> ExitCode {
    let mut failures = 0;
    for (snippet, want) in SEEDED {
        let mut out = Vec::new();
        scan_source(&seeded_path(want), snippet, &mut out);
        if out.iter().any(|f| f.rule == *want) {
            println!("self-test: rule `{want}` fires on seeded violation ... ok");
        } else {
            eprintln!("self-test: rule `{want}` MISSED seeded violation: {snippet}");
            failures += 1;
        }
    }
    // The allow marker must suppress, comment prose must not trip, and a
    // scoped rule stays inside its scope and above the test module.
    let mut out = Vec::new();
    scan_source(
        Path::new("<seeded>"),
        "let m = HashMap::new(); // xtask: allow(hash-order-map)\n\
         // a comment talking about Instant::now is fine\n\
         let ep = Endpoint::new(&cluster);\n",
        &mut out,
    );
    scan_source(
        &seeded_path("deadline-thread"),
        "#[cfg(test)]\nmod tests {\n    let ep = Endpoint::new(&cluster);\n}\n",
        &mut out,
    );
    if out.is_empty() {
        println!(
            "self-test: allow marker suppresses, comments and out-of-scope uses ignored ... ok"
        );
    } else {
        eprintln!("self-test: suppression failed: {}", out[0]);
        failures += 1;
    }
    if failures == 0 {
        println!("self-test: all {} rules verified", RULES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// trace-check: schema, determinism and golden gate for the telemetry exporter.

/// FNV-1a 64-bit digest (dependency-free, stable across platforms).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pull a JSON string field (`"key":"value"`) out of one event line.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Pull a JSON number field (`"key":123.456`, `"key": 1`) out of one
/// event line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validate one Chrome-trace JSON file; returns an error string naming
/// the first offending line. Open `B` spans at end-of-file are legal
/// (the simulation stops mid-operation), unmatched `E`s are not.
fn validate_trace(contents: &str) -> Result<(), String> {
    let lines: Vec<&str> = contents.lines().collect();
    if lines.first() != Some(&"[") || lines.last() != Some(&"]") {
        return Err("trace must be a one-object-per-line JSON array".into());
    }
    // Per-(tid, cat) stacks of open B event names.
    let mut stacks: std::collections::BTreeMap<(u64, String), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts = f64::MIN;
    let mut events = 0usize;
    for (no, raw) in lines[1..lines.len() - 1].iter().enumerate() {
        let lineno = no + 2;
        let line = raw.strip_suffix(',').unwrap_or(raw);
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {lineno}: not a JSON object: {line}"));
        }
        let ph =
            json_str_field(line, "ph").ok_or_else(|| format!("line {lineno}: missing \"ph\""))?;
        let name = json_str_field(line, "name")
            .ok_or_else(|| format!("line {lineno}: missing \"name\""))?
            .to_string();
        let cat = json_str_field(line, "cat")
            .ok_or_else(|| format!("line {lineno}: missing \"cat\""))?
            .to_string();
        let ts =
            json_num_field(line, "ts").ok_or_else(|| format!("line {lineno}: missing \"ts\""))?;
        let tid = json_num_field(line, "tid")
            .ok_or_else(|| format!("line {lineno}: missing \"tid\""))? as u64;
        if json_num_field(line, "pid").is_none() {
            return Err(format!("line {lineno}: missing \"pid\""));
        }
        events += 1;
        match ph {
            "M" => {}
            "X" => {
                let dur = json_num_field(line, "dur")
                    .ok_or_else(|| format!("line {lineno}: X event missing \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("line {lineno}: negative duration"));
                }
            }
            "i" => {
                let scope = json_str_field(line, "s")
                    .ok_or_else(|| format!("line {lineno}: instant missing \"s\""))?;
                if scope != "g" && scope != "t" {
                    return Err(format!("line {lineno}: instant scope must be g or t"));
                }
            }
            "B" => {
                // B/E/i events are appended at their event instant and
                // virtual time never runs backwards.
                if ts < last_ts {
                    return Err(format!("line {lineno}: timestamp went backwards"));
                }
                stacks.entry((tid, cat)).or_default().push(name);
            }
            "E" => {
                if ts < last_ts {
                    return Err(format!("line {lineno}: timestamp went backwards"));
                }
                match stacks.entry((tid, cat.clone())).or_default().pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "line {lineno}: E \"{name}\" closes open B \"{open}\" (tid {tid}, cat {cat})"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: E \"{name}\" with no open B (tid {tid}, cat {cat})"
                        ));
                    }
                }
            }
            other => return Err(format!("line {lineno}: unknown phase {other:?}")),
        }
        if matches!(ph, "B" | "E" | "i") {
            last_ts = ts;
        }
    }
    if events == 0 {
        return Err("trace contains no events".into());
    }
    Ok(())
}

fn run_trace_demo(root: &Path, out: &Path) -> Result<(), String> {
    let status = std::process::Command::new("cargo")
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "bench",
            "--",
            "trace_demo",
            "--seed",
            "42",
            "--trace",
        ])
        .arg(out)
        .status()
        .map_err(|e| format!("failed to launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("trace_demo exited with {status}"));
    }
    Ok(())
}

/// Committed digests of the seed-42 `trace_demo` trace and its metrics
/// CSV, one `<fnv1a> <file>` line each. Re-pinning is an edit of this
/// file, justified in the change that moves them.
const TRACE_DEMO_GOLDEN: &str = "crates/xtask/golden/trace_demo.digest";

fn trace_check() -> ExitCode {
    let root = repo_root();
    let dir = root.join("target").join("trace-check");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("trace-check: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let runs = [dir.join("run1.json"), dir.join("run2.json")];
    let mut digests = Vec::new();
    for out in &runs {
        if let Err(e) = run_trace_demo(&root, out) {
            eprintln!("trace-check: {e}");
            return ExitCode::FAILURE;
        }
        let read = |path: &Path| {
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let (contents, metrics) = match (read(out), read(&out.with_extension("metrics.csv"))) {
            (Ok(c), Ok(m)) => (c, m),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("trace-check: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = validate_trace(&contents) {
            eprintln!("trace-check: {} is malformed: {e}", out.display());
            return ExitCode::FAILURE;
        }
        let digest = format!(
            "{:016x} trace_demo.json\n{:016x} trace_demo.metrics.csv\n",
            fnv1a(contents.as_bytes()),
            fnv1a(metrics.as_bytes())
        );
        print!(
            "trace-check: {} valid ({} lines)\n{digest}",
            out.display(),
            contents.lines().count(),
        );
        digests.push(digest);
    }
    if digests[0] != digests[1] {
        eprintln!(
            "trace-check: same-seed runs differ — telemetry is nondeterministic:\n{}\n{}",
            digests[0], digests[1]
        );
        return ExitCode::FAILURE;
    }
    let golden = match fs::read_to_string(root.join(TRACE_DEMO_GOLDEN)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("trace-check: cannot read {TRACE_DEMO_GOLDEN}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if digests[0] != golden {
        eprintln!(
            "trace-check: digests differ from {TRACE_DEMO_GOLDEN}\ngot:\n{}want:\n{golden}",
            digests[0]
        );
        return ExitCode::FAILURE;
    }
    println!("trace-check: same seed, same trace, matches {TRACE_DEMO_GOLDEN} — ok");
    ExitCode::SUCCESS
}

/// Committed digest the parity sweep must reproduce. Regenerate (and
/// review the perf diff!) with `cargo xtask engine-parity --bless`.
const ENGINE_PARITY_GOLDEN: &str = "crates/xtask/golden/engine_parity.digest";

/// Traversal-engine parity gate: the quick uncached uniform-throughput
/// sweep (fig. 8, `NAMDEX_QUICK=1`, seed 42) must produce a CSV that is
/// byte-identical — digest-checked — to the committed golden captured
/// before the engine refactor. Catches any accidental change to the
/// verb sequence or timing of the uncached operation path.
fn engine_parity(bless: bool) -> ExitCode {
    engine_parity_inner(bless, false)
}

/// `mc_fifo` additionally sets `NAMDEX_MC_FIFO=1`, routing every
/// scheduling decision through the explicit FIFO policy — the digest
/// must STILL match the golden, proving the controlled scheduler is
/// bit-identical to the uncontrolled executor.
fn engine_parity_inner(bless: bool, mc_fifo: bool) -> ExitCode {
    let root = repo_root();
    let dir = root.join("target").join("engine-parity");
    let mut cmd = std::process::Command::new("cargo");
    // The golden digest predates the learned design; pin the sweep to
    // the original three so adding designs never invalidates the gate.
    cmd.current_dir(&root)
        .env("NAMDEX_QUICK", "1")
        .env("NAMDEX_DESIGNS", "cg,fg,hybrid")
        .env("NAMDEX_RESULTS_DIR", &dir);
    if mc_fifo {
        cmd.env("NAMDEX_MC_FIFO", "1");
    }
    let status = cmd
        .args([
            "run",
            "--release",
            "-p",
            "bench",
            "--",
            "fig08_throughput_unif",
            "--seed",
            "42",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("engine-parity: fig08_throughput_unif exited with {s}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("engine-parity: failed to launch cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    let csv = dir.join("fig08_throughput_unif.csv");
    let contents = match fs::read(&csv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("engine-parity: cannot read {}: {e}", csv.display());
            return ExitCode::FAILURE;
        }
    };
    let digest = format!("{:016x}", fnv1a(&contents));
    let golden_path = root.join(ENGINE_PARITY_GOLDEN);
    if bless {
        if let Err(e) = fs::write(&golden_path, format!("{digest}\n")) {
            eprintln!("engine-parity: cannot write {}: {e}", golden_path.display());
            return ExitCode::FAILURE;
        }
        println!("engine-parity: blessed {digest} -> {ENGINE_PARITY_GOLDEN}");
        return ExitCode::SUCCESS;
    }
    let golden = match fs::read_to_string(&golden_path) {
        Ok(g) => g.trim().to_string(),
        Err(e) => {
            eprintln!(
                "engine-parity: cannot read {} (run with --bless to create): {e}",
                golden_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if digest != golden {
        eprintln!(
            "engine-parity: digest {digest} != golden {golden} — the uncached \
             operation path changed behaviour (if intended, re-bless with \
             `cargo xtask engine-parity --bless` and justify in the PR)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "engine-parity{}: quick fig08 sweep matches golden {golden} — ok",
        if mc_fifo { " (FIFO policy)" } else { "" }
    );
    ExitCode::SUCCESS
}

/// Run `cargo <args...>` from the repo root, failing loudly.
fn cargo_step(label: &str, args: &[&str]) -> Result<(), ExitCode> {
    println!("mc: {label}: cargo {}", args.join(" "));
    match std::process::Command::new("cargo")
        .current_dir(repo_root())
        .args(args)
        .status()
    {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => {
            eprintln!("mc: {label} failed with {s}");
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("mc: {label} failed to launch cargo: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `cargo xtask mc [--quick]` — the model-checking gate, three steps:
///
/// 1. **FIFO parity**: the engine-parity sweep re-run with
///    `NAMDEX_MC_FIFO=1` must still match the committed golden digest —
///    the controlled scheduler's deterministic-FIFO policy is
///    bit-identical to the uncontrolled executor.
/// 2. **Clean matrix**: `mc_explore explore` over 4 designs ×
///    {no-fault, chaos} × {random-walk, PCT} (+ bounded DFS) must find
///    zero violations.
/// 3. **Mutation hunts**: with `--features mutations`, each of the seven
///    seeded bugs (`namdex_core::Mutation`: the two re-introduced
///    historical ones — CG duplicate insert on lost-response retry; lease
///    break without epoch bump — four race mutations — dropped
///    descent re-check, skipped cache fence, skipped mispredict re-read,
///    unlock-before-write reorder — and a learned scan that skips its
///    split check) is injected in turn and must be
///    detected within the budget, each leaving a replayable minimized
///    counterexample that names its mutation.
fn mc(quick: bool) -> ExitCode {
    let code = engine_parity_inner(false, true);
    if code != ExitCode::SUCCESS {
        return code;
    }
    let mut explore = vec!["run", "--release", "-p", "mc", "--bin", "mc_explore", "--"];
    explore.push("explore");
    if quick {
        explore.push("--quick");
    }
    if let Err(code) = cargo_step("clean explore matrix", &explore) {
        return code;
    }
    let mut hunt = vec![
        "run",
        "--release",
        "-p",
        "mc",
        "--features",
        "mutations",
        "--bin",
        "mc_explore",
        "--",
        "mutation",
    ];
    if quick {
        hunt.push("--quick");
    }
    if let Err(code) = cargo_step("mutation hunts", &hunt) {
        return code;
    }
    println!("mc: FIFO parity + clean matrix + all mutation hunts — ok");
    ExitCode::SUCCESS
}

/// `cargo xtask racecheck` — the dynamic-checker gate: the checker's own
/// unit tests, the two integration suites (every design × fault mode runs
/// violation-free with the checker installed, and a seeded violation of
/// every protocol and happens-before rule is caught under its rule id),
/// and the observer-ordering regression the clock model depends on.
fn racecheck_gate() -> ExitCode {
    if let Err(code) = cargo_step("racecheck unit tests", &["test", "-p", "racecheck"]) {
        return code;
    }
    if let Err(code) = cargo_step(
        "racecheck clean matrix + seeded violations",
        &[
            "test",
            "--release",
            "--test",
            "racecheck",
            "--test",
            "racecheck_protocol",
        ],
    ) {
        return code;
    }
    if let Err(code) = cargo_step(
        "observer-order regression",
        &["test", "--release", "--test", "observer_order"],
    ) {
        return code;
    }
    println!("racecheck: unit + clean matrix + seeded violations + observer order — ok");
    ExitCode::SUCCESS
}

/// `cargo xtask check-all` — umbrella over the correctness gates that
/// are neither plain `cargo test`/`cargo clippy` nor a full CI matrix:
/// source lint, trace determinism, engine parity, and the
/// dynamic-checker gate.
fn check_all() -> ExitCode {
    type Gate = fn() -> ExitCode;
    let steps: [(&str, Gate); 4] = [
        ("lint", lint),
        ("trace-check", trace_check),
        ("engine-parity", || engine_parity(false)),
        ("racecheck", racecheck_gate),
    ];
    for (name, step) in steps {
        println!("check-all: {name}");
        let code = step();
        if code != ExitCode::SUCCESS {
            eprintln!("check-all: {name} FAILED");
            return code;
        }
    }
    println!("check-all: all gates passed");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// pairs: alternating parent/change runs of the repository benchmark.

/// The benchmark's end-to-end metrics: whether each is virtual — a pure
/// function of the seed, on which the two sides agree bit for bit unless
/// a change claims to move it — and whether higher is better. The others
/// are host costs, lower being better.
const END_TO_END: [(&str, bool, bool); 7] = [
    ("setup_s", false, false),
    ("host_ns_per_op", false, false),
    ("peak_rss_mib", false, false),
    ("sim_ops_per_s", true, true),
    ("sim_p99_us", true, false),
    ("sim_wire_bytes_per_op", true, false),
    ("ok_ops_ratio", true, true),
];

/// `"name": {"value": 1.5, …` in the benchmark's one-line JSON report.
fn report_value(report: &str, name: &str) -> Option<f64> {
    let metric = &report[report.find(&format!("\"{name}\""))?..];
    json_num_field(metric, "value")
}

/// One run of a benchmark executable: the seven metrics of its report,
/// which is the last line it prints.
fn bench_run(exe: &str, workload: &str, seed: u64, reps: u64) -> Result<Vec<f64>, String> {
    let (seed, reps) = (seed.to_string(), reps.to_string());
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed, "--reps", &reps])
        .output()
        .map_err(|e| format!("cannot run {exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !report.contains("\"correct\": true") {
        return Err(format!("{exe} --seed {seed}: {}: {report}", out.status));
    }
    let metric = |(name, ..): &(&str, bool, bool)| {
        report_value(report, name).ok_or_else(|| format!("{exe}: no {name} in: {report}"))
    };
    END_TO_END.iter().map(metric).collect()
}

/// Linearly interpolated quantile of an ascending sample.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = (sorted.len() - 1) as f64 * p;
    let (below, above) = (sorted[at as usize], sorted[at.ceil() as usize]);
    below + (above - below) * at.fract()
}

/// Whether a `(parent, change)` pair shows the change better.
fn improves(higher: bool, (p, c): (f64, f64)) -> bool {
    if higher {
        c > p
    } else {
        c < p
    }
}

/// Whether virtual metric `name`'s `(parent, change)` pairs keep the
/// rule: without a claim the sides agree bit for bit; a claimed metric
/// is better in every pair; beside a claim, another metric is the same
/// or better in each.
fn virtual_holds(claim: Option<&str>, name: &str, higher: bool, pairs: &[(f64, f64)]) -> bool {
    let same = |&(p, c): &(f64, f64)| p.to_bits() == c.to_bits();
    match claim {
        Some(c) if c == name => pairs.iter().all(|&pc| improves(higher, pc)),
        Some(_) => pairs.iter().all(|&pc| same(&pc) || improves(higher, pc)),
        None => pairs.iter().all(same),
    }
}

const PAIRS_USAGE: &str = "usage: cargo xtask pairs --parent <exe> --change <exe> --workload W \
                           [--pairs 10] [--reps 3] [--seed0 1] [--claim METRIC]";

/// `cargo xtask pairs`: pair `i` runs both executables on seed
/// `seed0 + i`, the parent first when `i` is even and the change first
/// when it is odd, so a drift of the machine favours neither side. It
/// fails if a virtual metric moves: any move without `--claim`; with it,
/// the claimed metric not better, or another one worse, in some pair.
fn pairs(args: &[String]) -> Result<(), String> {
    let usage = || PAIRS_USAGE.to_string();
    let mut exes = [None, None];
    let (mut workload, mut n, mut reps, mut seed0, mut claim) = (None, 10, 3, 1, None);
    for flag in args.chunks(2) {
        let [name, value] = flag else {
            return Err(usage());
        };
        let num = || value.parse::<u64>().map_err(|_| usage());
        match name.as_str() {
            "--parent" => exes[0] = Some(value.as_str()),
            "--change" => exes[1] = Some(value.as_str()),
            "--workload" => workload = Some(value.as_str()),
            "--pairs" => n = num()?,
            "--reps" => reps = num()?,
            "--seed0" => seed0 = num()?,
            "--claim" => claim = Some(value.as_str()),
            _ => return Err(usage()),
        }
    }
    let ([Some(parent), Some(change)], Some(workload), 1..) = (exes, workload, n) else {
        return Err(usage());
    };
    let virtual_metric = |c: &str| END_TO_END.iter().any(|&(name, v, _)| v && name == c);
    if claim.is_some_and(|c| !virtual_metric(c)) {
        return Err(usage());
    }
    // runs[side][pair][metric]; side 0 is the parent.
    let mut runs = [Vec::new(), Vec::new()];
    for pair in 0..n {
        let first = (pair % 2) as usize;
        for side in [first, 1 - first] {
            let exe = [parent, change][side];
            runs[side].push(bench_run(exe, workload, seed0 + pair, reps)?);
        }
        eprintln!("pair {}/{n} done (seed {})", pair + 1, seed0 + pair);
    }
    let last = seed0 + n - 1;
    println!("{workload}: {n} pairs, seeds {seed0}..={last}, --reps {reps}");
    let mut failed = Vec::new();
    for (m, &(name, is_virtual, higher)) in END_TO_END.iter().enumerate() {
        let [parent, change] =
            [0, 1].map(|side| runs[side].iter().map(|run| run[m]).collect::<Vec<f64>>());
        let claimed = claim == Some(name);
        let ratio = if claimed { ", change / parent" } else { "" };
        println!("\n{name}: seed, parent, change{ratio}");
        for (seed, (p, c)) in (seed0..).zip(parent.iter().zip(&change)) {
            let ratio = if claimed {
                format!(" {:>9.5}", c / p)
            } else {
                String::new()
            };
            println!("  {seed:>6} {p:>16.3} {c:>16.3}{ratio}");
        }
        if is_virtual {
            let pairs: Vec<(f64, f64)> =
                parent.iter().copied().zip(change.iter().copied()).collect();
            let differing = pairs
                .iter()
                .filter(|(p, c)| p.to_bits() != c.to_bits())
                .count();
            let better = pairs.iter().filter(|&&pc| improves(higher, pc)).count();
            println!("  virtual: the sides differ within a seed in {differing}/{n} pairs, the change better in {better}/{n}");
            if !virtual_holds(claim, name, higher, &pairs) {
                failed.push(name);
            }
            continue;
        }
        for (side, sample) in [("parent", &parent), ("change", &change)] {
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            let [q1, q2, q3] = [0.25, 0.5, 0.75].map(|p| quantile(&sorted, p));
            println!("  {side}: median {q2:.3}, quartiles {q1:.3} / {q3:.3}");
        }
        let wins = parent.iter().zip(&change).filter(|(p, c)| c < p).count();
        let clear = change.iter().all(|c| parent.iter().all(|p| c < p));
        let clear = if clear { "yes" } else { "no" };
        println!(
            "  change lower in {wins}/{n} pairs; every change run below every parent run: {clear}"
        );
    }
    match (failed.is_empty(), claim) {
        (true, _) => Ok(()),
        (false, None) => Err(format!(
            "virtual {failed:?} moved — the sides must agree bit for bit"
        )),
        (false, Some(c)) => Err(format!(
            "virtual {failed:?} broke the claim: {c} better in every pair, the others the same or better"
        )),
    }
}

/// Lines of one source file above its first `#[cfg(test)]` line (all of
/// them if it has none), and how many of those are neither blank nor a
/// `//` comment (doc comments included).
fn non_test_lines(contents: &str) -> (usize, usize) {
    let body = contents
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"));
    body.fold((0, 0), |(all, code), line| {
        let t = line.trim_start();
        (
            all + 1,
            code + usize::from(!t.is_empty() && !t.starts_with("//")),
        )
    })
}

/// `cargo xtask loc`: non-test lines of every crate's `src/` and of the
/// root `src/`, then the totals with and without `xtask`.
fn loc() -> ExitCode {
    let root = repo_root();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        eprintln!("loc: no crates/ directory under {}", root.display());
        return ExitCode::FAILURE;
    };
    let mut crates: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crates.sort();
    crates.push(root.clone());
    let (mut total, mut without_xtask) = ((0, 0), (0, 0));
    println!("{:<20} {:>7} {:>7}", "non-test lines", "all", "code");
    for dir in crates {
        let mut files = Vec::new();
        walk(&dir.join("src"), &mut files);
        let (mut all, mut code) = (0, 0);
        for f in &files {
            match fs::read_to_string(f) {
                Ok(s) => {
                    let (a, c) = non_test_lines(&s);
                    (all, code) = (all + a, code + c);
                }
                Err(e) => eprintln!("warning: skipping unreadable {}: {e}", f.display()),
            }
        }
        let name = dir.strip_prefix(&root).unwrap_or(&dir).join("src");
        println!("{:<20} {all:>7} {code:>7}", name.display());
        total = (total.0 + all, total.1 + code);
        if dir.starts_with(root.join("crates")) && !dir.ends_with("xtask") {
            without_xtask = (without_xtask.0 + all, without_xtask.1 + code);
        }
    }
    let row = |label: &str, (all, code): (usize, usize)| println!("{label:<20} {all:>7} {code:>7}");
    row("crates/ w/o xtask", without_xtask);
    row("total", total);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => lint(),
        Some("lint") if args[1] == "--self-test" => self_test(),
        Some("trace-check") if args.len() == 1 => trace_check(),
        Some("engine-parity") if args.len() == 1 => engine_parity(false),
        Some("engine-parity") if args[1] == "--bless" => engine_parity(true),
        Some("mc") if args.len() == 1 => mc(false),
        Some("mc") if args[1] == "--quick" => mc(true),
        Some("racecheck") if args.len() == 1 => racecheck_gate(),
        Some("check-all") if args.len() == 1 => check_all(),
        Some("loc") if args.len() == 1 => loc(),
        Some("pairs") => match pairs(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pairs: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--self-test] | trace-check | engine-parity [--bless] | mc [--quick] | racecheck | check-all | loc | pairs ...>"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_fires_on_its_seeded_violation() {
        for (snippet, want) in SEEDED {
            let mut out = Vec::new();
            scan_source(&seeded_path(want), snippet, &mut out);
            assert!(
                out.iter().any(|f| f.rule == *want),
                "rule {want} missed: {snippet}"
            );
        }
    }

    #[test]
    fn every_rule_has_a_seeded_violation() {
        for rule in RULES {
            assert!(
                SEEDED.iter().any(|(_, want)| want == &rule.id),
                "rule {} lacks a self-test seed",
                rule.id
            );
        }
    }

    #[test]
    fn allow_marker_suppresses_only_its_rule() {
        let mut out = Vec::new();
        scan_source(
            Path::new("t.rs"),
            "let m = HashMap::new(); // xtask: allow(hash-order-map)",
            &mut out,
        );
        assert!(out.is_empty());
        // Wrong id does not suppress.
        let mut out = Vec::new();
        scan_source(
            Path::new("t.rs"),
            "let m = HashMap::new(); // xtask: allow(wall-clock-instant)",
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn comments_and_clean_code_pass() {
        let mut out = Vec::new();
        scan_source(
            Path::new("t.rs"),
            "// HashMap would be wrong here; BTreeMap keeps iteration stable\n\
             let m: std::collections::BTreeMap<u64, u64> = Default::default();\n\
             let now = sim.now();\n",
            &mut out,
        );
        assert!(out.is_empty(), "{:?}", out.first().map(|f| f.to_string()));
    }

    #[test]
    fn trace_validator_accepts_well_formed_trace() {
        let trace = "[\n\
            {\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"args\":{\"name\":\"x\"}},\n\
            {\"name\":\"lookup\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":1.000,\"pid\":0,\"tid\":3},\n\
            {\"name\":\"read\",\"cat\":\"verb\",\"ph\":\"X\",\"ts\":1.100,\"dur\":0.500,\"pid\":0,\"tid\":3},\n\
            {\"name\":\"crash_server(1)\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":1.500,\"pid\":0,\"tid\":0,\"s\":\"g\"},\n\
            {\"name\":\"lookup\",\"cat\":\"op\",\"ph\":\"E\",\"ts\":2.000,\"pid\":0,\"tid\":3},\n\
            {\"name\":\"insert\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":3.000,\"pid\":0,\"tid\":3}\n\
            ]";
        // Trailing open B is legal: the simulation stops mid-operation.
        assert_eq!(validate_trace(trace), Ok(()));
    }

    #[test]
    fn trace_validator_rejects_defects() {
        let wrap = |events: &str| format!("[\n{events}\n]");
        // Unmatched E.
        let bad = wrap(
            "{\"name\":\"lookup\",\"cat\":\"op\",\"ph\":\"E\",\"ts\":1.000,\"pid\":0,\"tid\":3}",
        );
        assert!(validate_trace(&bad).unwrap_err().contains("no open B"));
        // Mismatched close.
        let bad = wrap(
            "{\"name\":\"lookup\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":1.000,\"pid\":0,\"tid\":3},\n\
             {\"name\":\"insert\",\"cat\":\"op\",\"ph\":\"E\",\"ts\":2.000,\"pid\":0,\"tid\":3}",
        );
        assert!(validate_trace(&bad).unwrap_err().contains("closes open B"));
        // Backwards time on duration events.
        let bad = wrap(
            "{\"name\":\"a\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":5.000,\"pid\":0,\"tid\":1},\n\
             {\"name\":\"b\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":4.000,\"pid\":0,\"tid\":2}",
        );
        assert!(validate_trace(&bad).unwrap_err().contains("backwards"));
        // Missing field.
        let bad = wrap("{\"name\":\"a\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":1.000,\"tid\":1}");
        assert!(validate_trace(&bad).unwrap_err().contains("pid"));
        // Empty array.
        assert!(validate_trace("[\n]").is_err());
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn json_field_extraction() {
        let line = "{\"name\":\"rpc\",\"ph\":\"X\",\"ts\":12.345,\"pid\":0,\"tid\":7}";
        assert_eq!(json_str_field(line, "name"), Some("rpc"));
        assert_eq!(json_str_field(line, "ph"), Some("X"));
        assert_eq!(json_num_field(line, "ts"), Some(12.345));
        assert_eq!(json_num_field(line, "tid"), Some(7.0));
        assert_eq!(json_num_field(line, "dur"), None);
    }

    #[test]
    fn pairs_reads_reports_and_refuses_bad_flags() {
        let report = "{\"correct\": true, \"attempted\": 7, \"metrics\": {\
            \"setup_s\": {\"value\": 0.084333104, \"unit\": \"s\"}, \
            \"ok_ops_ratio\": {\"value\": 1, \"unit\": \"ratio\"}}}";
        assert_eq!(report_value(report, "setup_s"), Some(0.084333104));
        assert_eq!(report_value(report, "ok_ops_ratio"), Some(1.0));
        assert_eq!(report_value(report, "host_ns_per_op"), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let both = ["--parent", "a", "--change", "b", "--workload", "w"];
        for bad in [
            &both[..4],                          // no workload
            &[&both[..], &["--pairs"]].concat(), // flag without a value
            &[&both[..], &["--pairs", "0"]].concat(),
            &[&both[..], &["--pairs", "x"]].concat(),
            &[&both[..], &["--pair", "3"]].concat(), // unknown flag
            &[&both[..], &["--claim", "host_ns_per_op"]].concat(), // a host metric
            &[&both[..], &["--claim", "sim_ops"]].concat(), // no metric
        ] {
            assert_eq!(pairs(&args(bad)), Err(PAIRS_USAGE.to_string()), "{bad:?}");
        }
        // A claimed gain holds in every pair; beside it the other
        // virtual metrics may only stay or improve; without a claim
        // nothing virtual moves.
        let (up, same, down) = ([(1.0, 2.0)], [(1.0, 1.0)], [(2.0, 1.0)]);
        let two = [(1.0, 2.0), (1.0, 1.0)];
        let ops = Some("sim_ops_per_s");
        assert!(virtual_holds(ops, "sim_ops_per_s", true, &up));
        assert!(!virtual_holds(ops, "sim_ops_per_s", true, &two));
        assert!(!virtual_holds(ops, "sim_ops_per_s", true, &down));
        assert!(virtual_holds(ops, "sim_p99_us", false, &down));
        assert!(virtual_holds(ops, "sim_p99_us", false, &same));
        assert!(!virtual_holds(ops, "sim_p99_us", false, &up));
        assert!(virtual_holds(None, "sim_p99_us", false, &same));
        assert!(!virtual_holds(None, "sim_p99_us", false, &down));
    }

    #[test]
    fn line_numbers_are_one_based_and_exact() {
        let mut out = Vec::new();
        scan_source(
            Path::new("t.rs"),
            "fn ok() {}\nlet t = Instant::now();\n",
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert_eq!(out[0].rule, "wall-clock-instant");
    }

    #[test]
    fn non_test_lines_stop_at_the_test_module() {
        let with_tests =
            "//! Doc.\n\nfn a() {}\n// note\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(with_tests), (4, 1));
        let without = "/// Doc.\nfn a() {\n\n    // note\n    let x = 1; // trailing\n}\n";
        assert_eq!(non_test_lines(without), (6, 3));
    }
}
