//! Command-line parsing for the figure binary.
//!
//! `bench <figure>… | all | list [flags]`. Positional arguments name
//! figures (validated against the registry by [`crate::figures::select`]);
//! the flags are
//!
//! - `--seed N` — workload seed (default 42);
//! - `--fault-seed N` — replace `ext_fault_tolerance`'s scripted
//!   schedule with a randomized plan drawn from this seed;
//! - `--trace PATH` — record a Chrome-trace/Perfetto JSON of every
//!   experiment's verb/op/fault events (in virtual time), the first to
//!   `PATH`, later ones numbered, each with a `*.metrics.csv`
//!   metrics-registry snapshot next to it;
//! - `--cache-capacity N` — attach a client-side cache of `N` entries
//!   (`0` = unbounded) to the shared sweeps' pointer-resolving designs;
//! - `--racecheck` — install the happens-before race detector on every
//!   cluster and fail the run on any violation.
//!
//! Both `--flag N` and `--flag=N` forms work. An unknown flag is an
//! error that lists the known ones.

/// The flags the binary accepts, for error messages and `list`.
pub const FLAGS: &str = "--seed N, --fault-seed N, --trace PATH, --cache-capacity N, --racecheck";

/// A parsed command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// Positional arguments: figure names, `all` or `list`.
    pub figures: Vec<String>,
    /// `--seed`: workload generation seed.
    pub seed: Option<u64>,
    /// `--fault-seed`: randomized fault-plan seed.
    pub fault_seed: Option<u64>,
    /// `--trace`: write a Chrome-trace JSON of the run here.
    pub trace: Option<String>,
    /// `--cache-capacity`: client cache capacity in entries (0 =
    /// unbounded). Absent = caching off.
    pub cache_capacity: Option<usize>,
    /// `--racecheck`: install the happens-before race detector on the
    /// cluster and fail the run on any violation.
    pub racecheck: bool,
}

impl BenchArgs {
    /// The workload seed, defaulting to the repo-wide 42.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(42)
    }
}

/// Parse an argument list (without the program name).
pub fn parse_from(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            out.figures.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        if flag == "--racecheck" {
            if inline.is_some() {
                return Err("--racecheck takes no value".into());
            }
            out.racecheck = true;
            continue;
        }
        if !matches!(
            flag.as_str(),
            "--seed" | "--fault-seed" | "--trace" | "--cache-capacity"
        ) {
            return Err(format!("unknown flag {flag}; known flags: {FLAGS}"));
        }
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--trace" {
            out.trace = Some(value);
            continue;
        }
        let parsed: u64 = value
            .parse()
            .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))?;
        match flag.as_str() {
            "--seed" => out.seed = Some(parsed),
            "--fault-seed" => out.fault_seed = Some(parsed),
            _ => {
                out.cache_capacity = Some(
                    usize::try_from(parsed)
                        .map_err(|_| format!("{flag} {parsed} does not fit this platform"))?,
                )
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_flag_forms_and_positionals() {
        assert_eq!(
            parse(&["fig12_inserts", "--seed", "7", "table1", "--fault-seed=9"]),
            Ok(BenchArgs {
                figures: vec!["fig12_inserts".into(), "table1".into()],
                seed: Some(7),
                fault_seed: Some(9),
                ..BenchArgs::default()
            })
        );
    }

    #[test]
    fn parses_trace_path() {
        let got = parse(&["--trace", "out.json", "--seed=3"]).unwrap();
        assert_eq!(got.trace.as_deref(), Some("out.json"));
        assert_eq!(got.seed, Some(3));
        let eq = parse(&["--trace=/tmp/t.json"]).unwrap();
        assert_eq!(eq.trace.as_deref(), Some("/tmp/t.json"));
    }

    #[test]
    fn parses_cache_capacity() {
        assert_eq!(
            parse(&["--cache-capacity", "0"]).unwrap().cache_capacity,
            Some(0)
        );
        assert_eq!(
            parse(&["--cache-capacity=4096"]).unwrap().cache_capacity,
            Some(4096)
        );
        assert_eq!(parse(&[]).unwrap().cache_capacity, None);
    }

    #[test]
    fn parses_racecheck_flag() {
        assert!(parse(&["--racecheck"]).unwrap().racecheck);
        // Boolean: consumes no value.
        let got = parse(&["--racecheck", "--seed", "5"]).unwrap();
        assert!(got.racecheck);
        assert_eq!(got.seed, Some(5));
        assert!(!parse(&[]).unwrap().racecheck);
        assert!(parse(&["--racecheck=1"]).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_that_list_the_known_ones() {
        let err = parse(&["fig08_throughput_unif", "--sed", "7"]).unwrap_err();
        assert!(err.contains("--sed"), "{err}");
        for flag in [
            "--seed",
            "--fault-seed",
            "--trace",
            "--cache-capacity",
            "--racecheck",
        ] {
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn defaults_when_absent() {
        let got = parse(&[]).unwrap();
        assert_eq!(got, BenchArgs::default());
        assert_eq!(got.seed_or_default(), 42);
    }

    #[test]
    fn rejects_malformed_and_missing_values() {
        let err = parse(&["--seed", "many"]).unwrap_err();
        assert!(err.contains("expects an unsigned integer"), "{err}");
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
    }
}
