//! The command line: one run, or `compare A B`.

use std::path::{Path, PathBuf};

use crate::compare::{compare, load_set};
use crate::report::{metric_table, result_file, result_line, result_path};
use crate::runner::{run, write_spans, RunConfig};
use crate::worker::Fault;
use crate::workload::{Scale, Workload};

const USAGE: &str = "\
usage: skiphash-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                          [--out <dir>] [--scale <divisor>]
       skiphash-benchmark compare <dir A> <dir B>

workloads: read_mostly update_heavy scan_vs_update durable_writes
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
Result files (and the spans of a traced run) go to --out, default benchmark/out.
compare judges set B against the base A by the bounds in BENCHMARK.json and
exits 1 if any workload x metric pair is worse.";

/// A parsed run request.
#[derive(Debug)]
pub struct RunArgs {
    /// What to run.
    pub config: RunConfig,
    /// Where result and span files go.
    pub out_dir: PathBuf,
}

/// Parse the arguments of a run.  Every flag takes one value; `--workload`,
/// `--seed`, `--seconds` and `--trace` are required.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut scale = 1u64;
    let mut fault = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            "--out" => out_dir = PathBuf::from(value),
            "--scale" => scale = number()?.clamp(1, 1000),
            // Tests only: plant one wrong answer, to see the run fail.
            "--inject-fault" => {
                fault = Some(match value.as_str() {
                    "get" => Fault::FlipGet,
                    "range" => Fault::DropRangePair,
                    _ => return Err(format!("--inject-fault {value}: must be get or range")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunArgs {
        config: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::new(scale),
            fault,
        },
        out_dir,
    })
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let RunArgs { config, out_dir } = parse_run(args)?;
    let outcome = run(&config);
    let io = |e: std::io::Error| format!("{}: {e}", out_dir.display());
    std::fs::create_dir_all(&out_dir).map_err(io)?;
    let path = result_path(&out_dir, &config);
    std::fs::write(&path, format!("{}\n", result_file(&config, &outcome))).map_err(io)?;
    if config.trace {
        write_spans(&outcome.spans, &path.with_extension("spans.jsonl")).map_err(io)?;
    }
    for failure in &outcome.notes.check_failures {
        eprintln!("check failed: {failure}");
    }
    eprintln!(
        "{} seed {}: {} operations attempted, {} failed; notes in {}",
        config.workload.name(),
        config.seed,
        outcome.attempted,
        outcome.failed,
        path.display()
    );
    print!("{}", metric_table(&config, &outcome));
    println!("{}", result_line(&config, &outcome));
    Ok(if outcome.correct { 0 } else { 1 })
}

fn compare_command(a: &str, b: &str) -> Result<i32, String> {
    let (table, any_worse) = compare(&load_set(Path::new(a))?, &load_set(Path::new(b))?);
    print!("{table}");
    Ok(i32::from(any_worse))
}

/// Run the command line; returns the process exit code (0 fine, 1 a wrong
/// answer or a `worse` pair, 2 bad usage or I/O).
pub fn main(args: &[String]) -> i32 {
    let result = match args {
        [cmd, a, b] if cmd == "compare" => compare_command(a, b),
        [cmd, ..] if cmd == "compare" => Err("compare takes two directories".to_owned()),
        [] => Err("no arguments".to_owned()),
        _ => run_command(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        2
    })
}
