//! qb-perfbench: a two-clock, four-workload benchmark of the QueenBee
//! stack. See `bench/README.md`.
//!
//! ```text
//! qb-perfbench --workload <name> --seed <u64> [--seconds 15] [--trace 0|1]
//! qb-perfbench --agree [n] [--seed <u64>] [--seconds <s>]
//! qb-perfbench --separation [--seed <u64>] [--seconds <s>]
//! qb-perfbench --catalogue [json]
//! ```

mod agree;
mod calib;
mod catalogue;
mod host;
mod layers;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

use std::process::ExitCode;

const USAGE: &str = "usage: qb-perfbench --workload <serve-warm|cold-lookup|score-heavy|publish-churn> \
--seed <u64> [--seconds <1..60>] [--trace 0|1]\n       qb-perfbench --agree [n] | --separation [--seed <u64>] [--seconds <s>]\n       qb-perfbench --catalogue [json]";

enum Command {
    Run(run::RunArgs),
    Agree {
        runs: usize,
        seed: u64,
        seconds: u32,
    },
    Separation {
        seed: u64,
        seconds: u32,
    },
    Catalogue {
        json: bool,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    enum Mode {
        Run,
        Agree(usize),
        Separation,
    }
    let mut mode = Mode::Run;
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                kind = Some(
                    workload::Kind::parse(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("a u64")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value("a whole number of seconds")?
                        .parse::<u32>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or("--seconds must be a whole number from 1 to 60")?,
                );
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                };
            }
            "--agree" => {
                let runs = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 3,
                };
                mode = Mode::Agree(runs.max(2));
            }
            "--separation" => mode = Mode::Separation,
            "--catalogue" => {
                return Ok(Command::Catalogue {
                    json: it.peek().is_some_and(|v| v.as_str() == "json"),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let check_seed = seed.unwrap_or(agree::DEFAULT_SEED);
    let check_seconds = seconds.unwrap_or(agree::DEFAULT_SECONDS);
    match (mode, kind, seed) {
        (Mode::Agree(runs), _, _) => Ok(Command::Agree {
            runs,
            seed: check_seed,
            seconds: check_seconds,
        }),
        (Mode::Separation, _, _) => Ok(Command::Separation {
            seed: check_seed,
            seconds: check_seconds,
        }),
        (Mode::Run, Some(kind), Some(seed)) => Ok(Command::Run(run::RunArgs {
            kind,
            seed,
            seconds: seconds.unwrap_or(catalogue::RUN_SECONDS),
            trace,
        })),
        (Mode::Run, _, _) => Err("--workload and --seed are required".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Run(args) => report::run_and_print(args),
        Command::Agree {
            runs,
            seed,
            seconds,
        } => agree::agree(runs, seed, seconds),
        Command::Separation { seed, seconds } => agree::separation(seed, seconds),
        Command::Catalogue { json: true } => {
            print!("{}", catalogue::benchmark_json());
            true
        }
        Command::Catalogue { json: false } => {
            print!("{}", catalogue::markdown());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Command::Run(a)) = parse(&args(
            "--workload cold-lookup --seed 42 --seconds 15 --trace 1",
        )) else {
            panic!("valid command line");
        };
        assert_eq!(a.kind, workload::Kind::ColdLookup);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 15, true));
        assert!(matches!(
            parse(&args("--agree")),
            Ok(Command::Agree {
                runs: 3,
                seed: 1,
                ..
            })
        ));
        assert!(matches!(
            parse(&args("--agree 5 --seconds 4 --seed 9")),
            Ok(Command::Agree {
                runs: 5,
                seed: 9,
                seconds: 4
            })
        ));
        assert!(matches!(
            parse(&args("--separation --seconds 3")),
            Ok(Command::Separation {
                seed: 1,
                seconds: 3
            })
        ));
        assert!(matches!(
            parse(&args("--catalogue json")),
            Ok(Command::Catalogue { json: true })
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload serve-warm",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload serve-warm --seed x",
            "--workload serve-warm --seed 1 --seconds 0",
            "--workload serve-warm --seed 1 --seconds 61",
            "--workload serve-warm --seed 1 --trace 2",
            "--workload serve-warm --seed 1 --bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "'{bad}' must be refused");
        }
    }
}
