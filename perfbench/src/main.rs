//! `perfbench --workload <fig5_replay|stream_adaptive|shard_journal|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Measures one workload (or each in turn, in its own process) for the
//! given wall-clock budget and prints every metric by name and unit, then
//! one JSON result line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of separate traced passes. A run
//! record (command, host, toolchain, raw per-pass values) goes to
//! `perfbench/out/`, with the chrome trace and layer table of traced runs.
//! Exits non-zero when an output check fails.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use scibench_perfbench::fig5::Fig5Replay;
use scibench_perfbench::shard::{self, ShardJournal};
use scibench_perfbench::stream::StreamAdaptive;
use scibench_perfbench::{harness, run, run_record, RunArgs, RunResult, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <fig5_replay|stream_adaptive|shard_journal|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} must be a non-negative number\n{USAGE}"))
    };
    let workload = value("--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}\n{USAGE}")),
    };
    Ok(Cli {
        workload,
        args: RunArgs {
            seed,
            seconds: number("--seconds")?,
            trace,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
    })
}

fn report<W: Workload>(w: &W, args: &RunArgs) -> Result<RunResult, String> {
    let result = run(w, args)?;
    let record = run_record(w.name(), args, harness::lanes(), &result);
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args
        .out_dir
        .join(format!("{}-seed{}-{kind}.run.json", w.name(), args.seed));
    harness::write_file(&path, &record)?;
    println!(
        "{} (seed {}, {} lanes, {}):",
        w.name(),
        args.seed,
        harness::lanes(),
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        }
    );
    print!("{}", result.metrics.render());
    println!("  run record: {}", path.display());
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    Ok(result)
}

fn run_one(workload: &str, args: &RunArgs) -> Result<RunResult, String> {
    match workload {
        "fig5_replay" => report(&Fig5Replay::default(), args),
        "stream_adaptive" => report(&StreamAdaptive::default(), args),
        "shard_journal" => {
            let work = args
                .out_dir
                .join("work")
                .join(format!("shard-{}", std::process::id()));
            let result = report(
                &ShardJournal {
                    work_dir: work.clone(),
                },
                args,
            );
            let _ = std::fs::remove_dir_all(&work);
            result
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs every workload in its own process, so each peak resident set
/// belongs to that workload alone.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above");
        child_args[at + 1] = workload.to_owned();
        let status = Command::new(&program)
            .args(&child_args)
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(shard::WORKER_ARG) {
        return match shard::worker_main(&argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return match run_all(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_one(&cli.workload, &cli.args) {
        Ok(result) => {
            println!(
                "{}",
                harness::result_line(
                    result.correct,
                    result.attempted,
                    result.failed,
                    &result.metrics
                )
            );
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cli.workload);
            ExitCode::FAILURE
        }
    }
}
