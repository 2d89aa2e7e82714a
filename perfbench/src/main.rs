//! The repository benchmark: seeded workloads over the Cocktail serving
//! stack, end-to-end metrics from untraced runs and per-layer metrics from
//! traced runs. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <record-a.json> <record-b.json>
//! ```
//!
//! The last line of standard output is the JSON verdict
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero on any wrong output, failed request or idle leak.

mod bench;
mod chat;
mod host;
mod inproc;
mod replay;
mod report;
mod schedule;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Directory (inside the checkout) for run records and trace files.
pub fn out_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).ok().map(|()| dir)
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its table and verdict.
fn run_one(cli: &Cli) -> ExitCode {
    let mut report = Report::default();
    let args = bench::Args {
        seed: cli.seed,
        window: Duration::from_secs(cli.seconds),
        trace: cli.trace,
    };
    if let Err(e) = bench::run(&cli.workload, args, &mut report) {
        eprintln!("perfbench: {}: {e}", cli.workload);
        return ExitCode::from(2);
    }
    let kind = if cli.trace { "traced" } else { "untraced" };
    report.print_table(&format!("{} seed {} ({kind})", cli.workload, cli.seed));
    if let Some(dir) = out_dir() {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            cli.workload,
            cli.seed,
            u8::from(cli.trace)
        ));
        let record = report.record_json(&cli.workload, cli.seed, cli.trace);
        if std::fs::write(&path, record.to_string_pretty()).is_ok() {
            println!("   record written to {}", path.display());
        }
    }
    println!("{}", report.verdict_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process (so each has its own
/// peak RSS), and fails if any does.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in bench::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: perfbench compare <record-a.json> <record-b.json>");
            return ExitCode::from(2);
        };
        return match report::compare(a.as_ref(), b.as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(3),
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        run_all(&cli)
    } else {
        run_one(&cli)
    }
}
