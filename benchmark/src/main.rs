//! The repository's benchmark: six workloads, seven end-to-end metrics on
//! two clocks, and a per-layer ledger — see `benchmark/README.md` and
//! `BENCHMARK.json`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S | --reps R]
//!           [--trace 0|1] [--smoke] [--selfcheck]
//! ```
//!
//! The parent process measures nothing itself. It runs this executable
//! again once per repetition (`--child`), one child at a time, so every
//! repetition starts from a fresh address space; it then checks that the
//! virtual clock repeated exactly, takes medians on the host clock, and
//! prints a report whose last line is the result as one JSON object.

mod cell;
mod child;
mod host;
mod probe;
mod spec;

use std::process::ExitCode;

use child::Outcome;
use probe::median;
use spec::{Clock, WorkloadSpec, END_TO_END, WORKLOADS};

const OUT_DIR: &str = "benchmark/out";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    child: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 15.0,
        reps: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        child: false,
    };
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = num(&flag, value()?)?,
            "--seconds" => o.seconds = num(&flag, value()?)?,
            "--reps" => o.reps = Some(num(&flag, value()?)?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--selfcheck" => o.selfcheck = true,
            "--child" => o.child = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 170.0) {
        return Err("--seconds must lie in (0, 170]".into());
    }
    if o.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(o)
}

fn resolve(name: &str, o: &Options) -> Result<WorkloadSpec, String> {
    let known = || WORKLOADS.map(|w| w.name).join(", ");
    let mut w =
        spec::workload(name).ok_or(format!("unknown workload {name:?}; one of {}", known()))?;
    if o.smoke {
        w = w.smoke();
    }
    Ok(w)
}

// ---- child <-> parent: one `key value` line per number ----

fn print_outcome(out: &Outcome) {
    for (name, value) in &out.metrics {
        println!("metric {name} {value:?}");
    }
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    println!("mismatches {}", out.mismatches);
    println!("verified {}", out.verified);
    println!("sim_events {}", out.sim_events);
    println!("latency_samples_min {}", out.latency_samples_min);
}

fn parse_outcome(text: &str) -> Result<Outcome, String> {
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: 0,
        verified: 0,
        sim_events: 0,
        latency_samples_min: 0,
    };
    for line in text.lines() {
        let bad = || format!("child printed {line:?}");
        let mut words = line.split(' ');
        let key = words.next().ok_or_else(bad)?;
        if key == "metric" {
            let name = words.next().ok_or_else(bad)?;
            let value = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            out.metrics.push((name.to_string(), value));
            continue;
        }
        let n = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        match key {
            "attempted" => out.attempted = n,
            "failed" => out.failed = n,
            "mismatches" => out.mismatches = n,
            "verified" => out.verified = n,
            "sim_events" => out.sim_events = n,
            "latency_samples_min" => out.latency_samples_min = n,
            _ => return Err(bad()),
        }
    }
    Ok(out)
}

fn run_child(w: &WorkloadSpec, o: &Options) -> Result<Outcome, String> {
    let mut args = vec![
        "--child".to_string(),
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        o.seed.to_string(),
        "--trace".into(),
        (o.trace as u8).to_string(),
    ];
    if o.smoke {
        args.push("--smoke".into());
    }
    parse_outcome(&host::run_self(&args)?)
}

// ---- aggregation over repetitions ----

/// One reported metric: the median over the repetitions and their range.
struct Stat {
    name: String,
    unit: &'static str,
    clock: &'static str,
    higher_is_better: bool,
    median: f64,
    min: f64,
    max: f64,
    samples: usize,
}

struct Report {
    workload: WorkloadSpec,
    stats: Vec<Stat>,
    repetitions: usize,
    attempted: u64,
    failed: u64,
    verified: u64,
    mismatches: u64,
    latency_samples_min: u64,
    /// The virtual clock and the event count repeated exactly.
    deterministic: bool,
}

impl Report {
    fn correct(&self) -> bool {
        self.mismatches == 0 && self.deterministic
    }

    fn value(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.median)
    }
}

/// Run workload `w`: repetitions of the untraced child until `--seconds`
/// are used up (or `--reps` are done), or the one traced child.
fn run_workload(w: &WorkloadSpec, o: &Options) -> Result<Report, String> {
    let start = host::now_ns();
    let mut reps: Vec<Outcome> = Vec::new();
    loop {
        reps.push(run_child(w, o)?);
        let elapsed = (host::now_ns() - start) as f64 / 1e9;
        let done = match o.reps {
            _ if o.trace => true,
            Some(r) => reps.len() >= r,
            None => elapsed + elapsed / reps.len() as f64 > o.seconds,
        };
        if done {
            break;
        }
    }

    let first = &reps[0];
    let mut deterministic = reps.iter().all(|r| {
        (r.sim_events, r.attempted, r.failed) == (first.sim_events, first.attempted, first.failed)
    });
    let layer = spec::layer_metrics();
    let mut stats = Vec::new();
    for (i, (name, _)) in first.metrics.iter().enumerate() {
        let values: Vec<f64> = reps.iter().map(|r| r.metrics[i].1).collect();
        let (unit, clock, higher_is_better) = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) if m.clock == Clock::Virtual => {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    eprintln!("{}: {name} differs between repetitions: {values:?}", w.name);
                    deterministic = false;
                }
                (m.unit, "virtual", m.higher_is_better)
            }
            Some(m) => (m.unit, "host", m.higher_is_better),
            None => layer
                .iter()
                .find(|m| &m.name == name)
                .map_or(("", "", false), |m| (m.unit, "", m.higher_is_better)),
        };
        stats.push(Stat {
            name: name.clone(),
            unit,
            clock,
            higher_is_better,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len(),
            median: median(values),
        });
    }
    Ok(Report {
        workload: *w,
        stats,
        repetitions: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        verified: reps.iter().map(|r| r.verified).sum(),
        mismatches: reps.iter().map(|r| r.mismatches).sum(),
        latency_samples_min: first.latency_samples_min,
        deterministic,
    })
}

// ---- output ----

fn print_report(r: &Report, o: &Options, env: &str) {
    let w = &r.workload;
    println!(
        "== {} | seed {} | {} repetition(s){}{} | {env}",
        w.name,
        o.seed,
        r.repetitions,
        if o.trace { " | traced" } else { "" },
        if o.smoke { " | smoke scale" } else { "" },
    );
    println!("   why: {}", w.why);
    println!(
        "   {} keys, {} closed-loop clients, designs {}, warm-up {} us + window {} us of virtual time per cell",
        w.keys,
        w.clients,
        w.designs.iter().map(|d| d.key()).collect::<Vec<_>>().join(" "),
        w.warmup_us,
        w.measure_us,
    );
    println!(
        "   {:<40} {:>16} {:<7} {:<7} {:<6} {:>16} {:>16} {:>3}",
        "metric", "median", "unit", "clock", "better", "min", "max", "n"
    );
    for s in &r.stats {
        println!(
            "   {:<40} {:>16.4} {:<7} {:<7} {:<6} {:>16.4} {:>16.4} {:>3}",
            s.name,
            s.median,
            s.unit,
            s.clock,
            if s.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            s.min,
            s.max,
            s.samples
        );
    }
    println!(
        "   verify_mismatches = {} ({} operations re-checked by the oracle; virtual clock repeated exactly: {}; \
         fewest latency samples in a cell: {})",
        r.mismatches, r.verified, r.deterministic, r.latency_samples_min
    );
    println!(
        "   sim_* are virtual-clock results of a model that is unvalidated against InfiniBand hardware \
         (DESIGN.md §2): no error figure is given."
    );
}

/// Each metric as a JSON member: `"name": {"value": v, "unit": "u"}`.
fn metric_members(stats: &[Stat]) -> Vec<String> {
    stats
        .iter()
        .map(|s| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name, s.median, s.unit
            )
        })
        .collect()
}

/// The result line the driver reads.
fn result_json(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metric_members(&r.stats).join(", ")
    )
}

/// `layers.json` of a traced run: the ledger with units, next to the spans.
fn write_layers(r: &Report, o: &Options, env: &str) -> Result<(), String> {
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"environment\": \"{env}\",\n  \"layers\": {{\n    {}\n  }}\n}}\n",
        r.workload.name,
        o.seed,
        metric_members(&r.stats).join(",\n    ")
    );
    std::fs::write(format!("{OUT_DIR}/layers.json"), json)
        .map_err(|e| format!("write layers.json: {e}"))
}

/// Run the benchmark twice on the same build and hold the two medians of
/// every (workload, end-to-end metric) pair against the metric's bound.
fn selfcheck(workloads: &[WorkloadSpec], o: &Options) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in workloads {
        let (a, b) = (run_workload(w, o)?, run_workload(w, o)?);
        ok &= a.correct() && b.correct();
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let diff = (y - x).abs() / x;
            let within = match m.clock {
                Clock::Virtual => x.to_bits() == y.to_bits(),
                Clock::Host => diff <= m.bound,
            };
            ok &= within;
            println!(
                "{:<16} {:<16} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.1}%{}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn run(o: &Options) -> Result<bool, String> {
    if o.child {
        let name = o.workload.as_deref().ok_or("--child needs --workload")?;
        let w = resolve(name, o)?;
        let out = if o.trace {
            child::traced(&w, o.seed, OUT_DIR)?
        } else {
            child::plain(&w, o.seed)
        };
        print_outcome(&out);
        return Ok(true);
    }
    let workloads: Vec<WorkloadSpec> = match &o.workload {
        Some(name) => vec![resolve(name, o)?],
        None => WORKLOADS
            .iter()
            .map(|w| resolve(w.name, o))
            .collect::<Result<_, _>>()?,
    };
    if o.selfcheck {
        return selfcheck(&workloads, o);
    }
    let env = format!(
        "commit {} | {} core(s) | {}",
        host::git_commit(),
        host::nproc(),
        host::rustc_version()
    );
    let mut ok = true;
    for w in &workloads {
        let report = run_workload(w, o)?;
        print_report(&report, o, &env);
        if o.trace {
            write_layers(&report, o, &env)?;
            println!("   host spans: {OUT_DIR}/trace.json, ledger: {OUT_DIR}/layers.json");
        }
        println!("{}", result_json(&report));
        ok &= report.correct();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match parse_args(std::env::args()).and_then(|o| run(&o)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: outputs were not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{layer_metrics, LayerMetric};
    use std::fmt::Write as _;

    /// Just enough JSON to read `BENCHMARK.json` (no serde offline).
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("no key {key:?}")),
                other => panic!("not an object: {other:?}"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }

        fn items(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("not an array: {other:?}"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("not a number: {other:?}"),
            }
        }
    }

    fn parse_json(text: &str) -> Json {
        fn skip_ws(b: &[u8], i: &mut usize) {
            while b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> String {
            assert_eq!(b[*i], b'"');
            let start = *i + 1;
            let len = b[start..]
                .iter()
                .position(|&c| c == b'"')
                .expect("closing quote");
            let s = std::str::from_utf8(&b[start..start + len]).unwrap();
            assert!(!s.contains('\\'), "escapes are not supported: {s}");
            *i = start + len + 1;
            s.to_string()
        }
        fn value(b: &[u8], i: &mut usize) -> Json {
            skip_ws(b, i);
            match b[*i] {
                b'"' => Json::Str(string(b, i)),
                open @ (b'[' | b'{') => {
                    let close = if open == b'[' { b']' } else { b'}' };
                    *i += 1;
                    let (mut items, mut fields) = (Vec::new(), Vec::new());
                    loop {
                        skip_ws(b, i);
                        if b[*i] == close {
                            *i += 1;
                            break;
                        }
                        if b[*i] == b',' {
                            *i += 1;
                            continue;
                        }
                        if open == b'[' {
                            items.push(value(b, i));
                        } else {
                            let key = string(b, i);
                            skip_ws(b, i);
                            assert_eq!(b[*i], b':');
                            *i += 1;
                            fields.push((key, value(b, i)));
                        }
                    }
                    if open == b'[' {
                        Json::Arr(items)
                    } else {
                        Json::Obj(fields)
                    }
                }
                _ => {
                    let len = b[*i..]
                        .iter()
                        .position(|c| !matches!(c, b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'))
                        .unwrap();
                    let n = std::str::from_utf8(&b[*i..*i + len])
                        .unwrap()
                        .parse()
                        .unwrap();
                    *i += len;
                    Json::Num(n)
                }
            }
        }
        let padded = format!("{text} ");
        value(padded.as_bytes(), &mut 0)
    }

    fn manifest() -> Json {
        parse_json(include_str!("../../BENCHMARK.json"))
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
    }

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn manifest_has_the_contract_shape() {
        let m = manifest();
        assert_eq!(
            m.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(m.get("paths").items(), [Json::Str("benchmark".into())]);
        let default_seconds = parse_args(["benchmark".to_string()].into_iter())
            .unwrap()
            .seconds;
        assert_eq!(m.get("run_seconds").num(), default_seconds);
        let command: Vec<&str> = m.get("command").items().iter().map(Json::str).collect();
        assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    }

    #[test]
    fn manifest_workloads_are_the_code_s_workloads() {
        let m = manifest();
        let listed: Vec<(&str, &str)> = m
            .get("workloads")
            .items()
            .iter()
            .map(|w| {
                assert_eq!(w.keys(), ["name", "why"]);
                (w.get("name").str(), w.get("why").str())
            })
            .collect();
        let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, coded);
        for (name, why) in coded {
            assert!(is_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} long",
                why.len()
            );
        }
    }

    #[test]
    fn manifest_metrics_are_the_code_s_metrics() {
        let m = manifest();
        let listed: Vec<(String, String, String, Option<f64>)> = m
            .get("end_to_end")
            .items()
            .iter()
            .map(|e| {
                assert_eq!(e.keys(), ["name", "unit", "better", "bound"]);
                (
                    e.get("name").str().into(),
                    e.get("unit").str().into(),
                    e.get("better").str().into(),
                    Some(e.get("bound").num()),
                )
            })
            .collect();
        let coded: Vec<_> = END_TO_END
            .iter()
            .map(|e| {
                assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
                (
                    e.name.to_string(),
                    e.unit.to_string(),
                    better(e.higher_is_better).to_string(),
                    Some(e.bound),
                )
            })
            .collect();
        assert_eq!(listed, coded);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.higher_is_better),
            ("setup_s", "s", false)
        );
        assert!(
            END_TO_END.iter().all(|e| e.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        let listed: Vec<(String, String, String)> = m
            .get("per_layer")
            .items()
            .iter()
            .map(|e| {
                assert_eq!(e.keys(), ["name", "unit", "better"]);
                (
                    e.get("name").str().into(),
                    e.get("unit").str().into(),
                    e.get("better").str().into(),
                )
            })
            .collect();
        let coded: Vec<_> = layer_metrics()
            .into_iter()
            .map(
                |LayerMetric {
                     name,
                     unit,
                     higher_is_better,
                 }| {
                    (name, unit.to_string(), better(higher_is_better).to_string())
                },
            )
            .collect();
        assert_eq!(listed, coded);
        assert_eq!(coded.len(), 116);

        let mut names: Vec<&str> = coded.iter().map(|c| c.0.as_str()).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| is_name(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
    }

    /// Every workload at the smoke scale, through the oracle on all its
    /// designs: emits exactly the end-to-end metrics, nothing fails.
    #[test]
    fn smoke_scale_runs_every_workload_through_the_oracle() {
        for w in WORKLOADS {
            let out = child::plain(&w.smoke(), 7);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|e| e.name), "{}", w.name);
            assert_eq!((out.mismatches, out.failed), (0, 0), "{}", w.name);
            assert!(out.verified > 0 && out.attempted > 0, "{}", w.name);
            for (name, value) in &out.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {name} = {value}",
                    w.name
                );
            }
        }
    }

    /// A traced run emits exactly the per-layer ledger, its span shares
    /// sum to 1, its `overload_1k` cells take the failure path, and it
    /// leaves the host spans behind.
    #[test]
    fn traced_run_emits_the_whole_ledger() {
        // Under the package's own git-ignored `out/`, not the system's
        // temporary directory: the benchmark writes inside its checkout.
        let dir = format!(
            "{}/out/test-{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        );
        let dir = dir.as_str();
        let w = spec::workload("insert_mix").unwrap().smoke();
        let out = child::traced(&w, 7, dir).unwrap();
        let names: Vec<String> = out.metrics.iter().map(|(n, _)| n.clone()).collect();
        let coded: Vec<String> = layer_metrics().into_iter().map(|m| m.name).collect();
        assert_eq!(names, coded);
        assert_eq!(out.mismatches, 0);
        let shares: f64 = out
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("span.") && n.ends_with("_share"))
            .map(|(_, v)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "span shares sum to {shares}");
        for name in ["failed_ops_ratio", "timeouts_per_op", "stall_share"] {
            let name = format!("overload_1k.{name}");
            let value = out.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(value > 0.0, "{name} = {value}");
        }
        let trace = std::fs::read_to_string(format!("{dir}/trace.json")).unwrap();
        assert!(
            trace.contains("\"name\":\"probe.core\"") && trace.contains("\"name\":\"measure\"")
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The body of TOML table `[header]`: its `key = value` lines.
    fn toml_table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != format!("[{header}]"))
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// No gate of the repository builds this package, so nothing else
    /// notices when its copies of the root's build settings drift.
    #[test]
    fn build_settings_mirror_the_repository_s() {
        let root = include_str!("../../Cargo.toml");
        let own = include_str!("../Cargo.toml");
        let profile = toml_table(root, "profile.release");
        assert!(!profile.is_empty());
        assert_eq!(toml_table(own, "profile.release"), profile);
        let lints = toml_table(root, "workspace.lints.clippy");
        assert!(!lints.is_empty());
        assert_eq!(toml_table(own, "lints.clippy"), lints);
    }

    #[test]
    fn child_output_round_trips() {
        let out = child::plain(&spec::workload("range_scan").unwrap().smoke(), 3);
        let mut text = String::new();
        for (name, value) in &out.metrics {
            let _ = writeln!(text, "metric {name} {value:?}");
        }
        let _ = writeln!(
            text,
            "attempted {}\nsim_events {}",
            out.attempted, out.sim_events
        );
        let back = parse_outcome(&text).unwrap();
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(
            (back.attempted, back.sim_events),
            (out.attempted, out.sim_events)
        );
        assert!(parse_outcome("metric x").is_err() && parse_outcome("bogus 1").is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| {
            parse_args(
                std::iter::once("benchmark")
                    .chain(args.iter().copied())
                    .map(String::from),
            )
        };
        let o = parse(&[
            "--workload",
            "load_10m",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("load_10m"), 7, 3.0, true)
        );
        for bad in [
            &["--trace", "yes"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--reps", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(resolve("no_such_workload", &o).is_err());
    }
}
