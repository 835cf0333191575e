#![forbid(unsafe_code)]

//! `bench <figure>… | all | list [flags]` — regenerate the paper's
//! tables and figures from the registry in [`bench::figures`].

use std::process::ExitCode;

use bench::figures::{list, run_figure, select, Ctx};

fn main() -> ExitCode {
    let run = || -> Result<(), String> {
        let args = bench::cli::parse_from(std::env::args().skip(1))?;
        if args.figures == ["list"] {
            print!("{}", list());
            return Ok(());
        }
        let picked = select(&args.figures)?;
        let ctx = Ctx::from_env(args)?;
        for fig in picked {
            run_figure(fig, &ctx);
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
