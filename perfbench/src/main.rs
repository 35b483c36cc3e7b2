//! The optsched benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench repeat  --workload <name> --runs <N> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out runs.jsonl]
//! perfbench compare --before a.jsonl --after b.jsonl
//! ```
//!
//! A run generates its inputs from `--seed`, measures for about `--seconds`
//! seconds, checks every output, prints one `name value unit` line per
//! metric and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer ones.  `README.md` beside this crate maps
//! each per-layer metric to the end-to-end metric it should move.

mod instances;
mod mem;
mod repeat;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "exact_solve",
    "budget_frontier",
    "service_mix",
    "parallel_exact",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench repeat --workload W --runs N [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       perfbench compare --before FILE --after FILE",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("repeat") => ExitCode::from(repeat::repeat(&args[1..]) as u8),
        Some("compare") => ExitCode::from(repeat::compare(&args[1..]) as u8),
        _ => run(&args),
    }
}

fn run(args: &[String]) -> ExitCode {
    let get = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
    };
    let Some(workload) = get("--workload").filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };
    let (Ok(seed), Ok(seconds), Ok(trace)) = (
        get("--seed").map_or(Ok(1), |v| v.parse::<u64>()),
        get("--seconds").map_or(Ok(10.0), |v| v.parse::<f64>()),
        get("--trace").map_or(Ok(0), |v| v.parse::<u8>()),
    ) else {
        return usage();
    };
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        return usage();
    }
    let trace = trace == 1;

    let mut report = Report::new();
    match workload.as_str() {
        "exact_solve" => workloads::solve::exact_solve(seed, seconds, trace, &mut report),
        "budget_frontier" => {
            workloads::frontier::budget_frontier(seed, seconds, trace, &mut report)
        }
        "service_mix" => workloads::service::service_mix(seed, seconds, trace, &mut report),
        "parallel_exact" => workloads::solve::parallel_exact(seed, seconds, trace, &mut report),
        _ => unreachable!("filtered above"),
    }
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    if !trace {
        for &(name, _) in END_TO_END {
            let value = report.values.get(name).copied().unwrap_or(0.0);
            report.check(value.is_finite() && value > 0.0, || {
                format!("{name} read {value}: an end-to-end metric must be positive")
            });
        }
    }
    for problem in &report.problems {
        eprintln!("perfbench: {workload}: {problem}");
    }
    for &(name, unit) in catalogue {
        println!(
            "{name:<30} {:>16.6} {unit}",
            report.values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", report.result_line(catalogue));
    ExitCode::SUCCESS
}
