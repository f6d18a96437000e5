//! `perfbench --workload <survey-sweep|fleet-mixed|serve-mixed> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line as the last
//! line of standard output.

use mseh_perfbench::{fleet, serve, survey, Options};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <survey-sweep|fleet-mixed|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "survey-sweep" => survey::run(opts),
        "fleet-mixed" => fleet::run(opts),
        "serve-mixed" => serve::run(opts),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc {}, threads {}, profile {}, workload {workload}, seed {}, seconds {}, trace {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        mseh::sim::thread_count(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
    );
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} attempted, {} failed, correct {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
