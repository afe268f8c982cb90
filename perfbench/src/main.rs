//! The benchmark harness of the aod workspace.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//! perfbench gen --workload W --seed N --data DIR
//! perfbench server
//! ```
//!
//! `run` writes the workload's CSV input from the seed (in a child `gen`
//! process, so input generation never counts towards the measured peak
//! memory), measures, checks the outputs and prints two JSON lines: a
//! detail line, then the result line. `python3 perfbench/run.py` builds
//! this program and drives it; see `perfbench/README.md`.

mod batch;
mod clock;
mod digest;
mod inputs;
mod layers;
mod recorded;
mod report;
mod serve;
mod stats;
#[cfg(test)]
mod twins;

use inputs::{workload, Run, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command: run, gen or server")?;
    let mut args = Args {
        command,
        workload: None,
        seed: recorded::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        data: PathBuf::from("perfbench-data"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(workload(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--data" => args.data = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Writes the workload's input in a child process and returns its path.
fn generate(w: &Workload, seed: u64, data: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["gen", "--workload", w.name, "--seed", &seed.to_string()])
        .arg("--data")
        .arg(data)
        .status()
        .map_err(|e| format!("running gen: {e}"))?;
    if !status.success() {
        return Err(format!("gen failed: {status}"));
    }
    Ok(w.input.csv_path(data, seed))
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    if args.command == "server" {
        return serve::server_main();
    }
    let w = args.workload.ok_or("--workload is required")?;
    match args.command.as_str() {
        "gen" => {
            let path = w.input.write_csv(&args.data, args.seed)?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
        "run" => {
            let csv = generate(&w, args.seed, &args.data)?;
            let trace_out = args
                .data
                .join(format!("trace-{}-seed{}.ndjson", w.name, args.seed));
            let mut report = match (w.run, args.trace) {
                (Run::Batch { epsilon, threads }, false) => {
                    batch::run(w.name, &csv, epsilon, threads, args.seed, args.seconds)?
                }
                (Run::Batch { epsilon, threads }, true) => {
                    batch::run_traced(w.name, &csv, epsilon, threads, args.seed, &trace_out)?
                }
                (Run::Serve, false) => serve::run(&csv, args.seed)?,
                (Run::Serve, true) => serve::run_traced(&csv, args.seed, &trace_out)?,
            };
            report.print(w.name, args.seed, args.trace);
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}
