#![forbid(unsafe_code)]

//! Command-line front end for the schedule-space model checker.
//!
//! ```text
//! mc_explore explore  [--quick] [--design cg|fg|hybrid|learned] [--out DIR] [--seed N]
//! mc_explore mutation [--quick] [--out DIR]        (needs --features mutations)
//! mc_explore replay FILE                           (a seeded trace needs --features mutations)
//! ```
//!
//! Exit codes: `0` success (explore: zero violations; mutation: all six
//! seeded bugs — two historical ones and four dropped race fences —
//! detected; replay: violation reproduced), `1` violations found
//! (explore) or replay failed to reproduce, `2` usage error or a build
//! that cannot run the request.

use mc::explore::{explore, run_mutation_hunts, ExploreConfig};
use mc::Counterexample;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mc_explore explore  [--quick] [--design cg|fg|hybrid|learned] [--out DIR] [--seed N]\n  mc_explore mutation [--quick] [--out DIR]\n  mc_explore replay FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "explore" => cmd_explore(&args[1..]),
        "mutation" => cmd_mutation(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

struct Flags {
    quick: bool,
    design: Option<nam::IndexKind>,
    out: PathBuf,
    seed: Option<u64>,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        quick: false,
        design: None,
        out: PathBuf::from("target/mc"),
        seed: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => flags.quick = true,
            "--design" => flags.design = Some(nam::IndexKind::parse(it.next()?)?),
            "--out" => flags.out = PathBuf::from(it.next()?),
            "--seed" => flags.seed = it.next()?.parse().ok(),
            _ => return None,
        }
    }
    Some(flags)
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args) else {
        return usage();
    };
    let mut cfg = if flags.quick {
        ExploreConfig::quick(flags.out)
    } else {
        ExploreConfig::full(flags.out)
    };
    cfg.only_design = flags.design;
    if let Some(seed) = flags.seed {
        cfg.seed_base = seed;
    }
    let report = explore(&cfg);
    print!("{}", report.table());
    println!(
        "total: {} schedules, {} violations",
        report.schedules(),
        report.violations()
    );
    for cell in &report.cells {
        if let Some(path) = &cell.counterexample {
            println!("counterexample [{}]: {}", cell.label, path.display());
        }
    }
    if report.violations() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_mutation(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args) else {
        return usage();
    };
    if !namdex_core::mutations_enabled() {
        eprintln!("mutation mode needs `--features mutations` (this build has them off)");
        return ExitCode::from(2);
    }
    let budget = if flags.quick { 32 } else { 128 };
    // run_mutation_hunts panics if a mutation escapes the budget, which
    // is the assertion this mode exists for.
    let results = run_mutation_hunts(budget, &flags.out);
    for r in &results {
        println!(
            "mutation {} detected as {} ({}) after {} schedule(s); minimized trace: {} decision(s) at {}",
            r.label,
            r.class.name(),
            r.detail,
            r.schedules_to_detect,
            r.minimized_len,
            r.counterexample.display()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let [file] = args else {
        return usage();
    };
    let cx = match Counterexample::load(&PathBuf::from(file)) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("cannot load {file}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(m) = cx.scenario.mutation {
        if !namdex_core::mutations_enabled() {
            eprintln!(
                "{file} seeds mutation `{}`: replay needs `--features mutations` (this build has them off)",
                m.key()
            );
            return ExitCode::from(2);
        }
    }
    println!(
        "replaying {} / {} / seed {} — expecting {} ({})",
        cx.scenario.design.key(),
        cx.scenario.fault.name(),
        cx.scenario.seed,
        cx.class.name(),
        cx.detail
    );
    match cx.replay() {
        Some(report) => {
            println!(
                "reproduced: {} after {} choice points",
                cx.class.name(),
                report.decisions.len()
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("violation did NOT reproduce — stale trace");
            ExitCode::FAILURE
        }
    }
}
