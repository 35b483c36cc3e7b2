//! Repeat mode: run a workload N times with successive seeds and summarise
//! every metric, and compare two sets of runs against the bounds that
//! `BENCHMARK.json` fixes.
//!
//! ```text
//! perfbench repeat --workload W --runs N [--seed S] [--seconds T] [--trace 0|1] [--out runs.jsonl]
//! perfbench compare --before a.jsonl --after b.jsonl
//! ```
//!
//! Each run is a child process of this binary; its last stdout line (the
//! result object) is appended to `--out`.  The summary prints, per metric,
//! the sample count, the median and the quartiles (Python's
//! `statistics.quantiles(values, n=4)`), and the spread — the distance
//! between the quartiles as a share of the median — against the metric's
//! bound.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::stats::{median, quartiles};

/// Parses a JSON document into the vendored `serde::Value` tree.
pub fn parse(text: &str) -> Result<Value, String> {
    struct Doc(Value);
    impl serde::Deserialize for Doc {
        fn from_value(v: &Value) -> Result<Doc, serde::Error> {
            Ok(Doc(v.clone()))
        }
    }
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}

/// The value of `key` in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// `(bound, higher_is_better)` per end-to-end metric, from `BENCHMARK.json`
/// in the working directory (empty when it is missing).
fn bounds() -> BTreeMap<String, (f64, bool)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = parse(&text) else {
        return BTreeMap::new();
    };
    field(&doc, "end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = field(m, "name")?.as_str()?.to_string();
            let bound = field(m, "bound")?.as_f64()?;
            let higher = field(m, "better")?.as_str()? == "higher";
            Some((name, (bound, higher)))
        })
        .collect()
}

/// Metric values of a set of result lines, by name; plus how many runs
/// were correct.
fn collect(lines: &[String]) -> (BTreeMap<String, Vec<f64>>, usize) {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut correct = 0;
    for line in lines {
        let Ok(doc) = parse(line) else { continue };
        if field(&doc, "correct").and_then(Value::as_bool) == Some(true) {
            correct += 1;
        }
        for (name, m) in field(&doc, "metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            if let Some(v) = field(m, "value").and_then(Value::as_f64) {
                by_name.entry(name.clone()).or_default().push(v);
            }
        }
    }
    (by_name, correct)
}

/// `(q1 − q3 distance) / median`, the spread the bounds are judged on.
fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

/// `perfbench repeat ...`; returns the exit code.
pub fn repeat(args: &[String]) -> i32 {
    let Some(workload) = arg(args, "--workload") else {
        eprintln!("repeat: --workload is required");
        return 2;
    };
    let runs: u64 = arg(args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seed: u64 = arg(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let seconds = arg(args, "--seconds").unwrap_or("10");
    let trace = arg(args, "--trace").unwrap_or("0");
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut lines = Vec::new();
    for k in 0..runs {
        let run_seed = (seed + k).to_string();
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &run_seed,
                "--seconds",
                seconds,
                "--trace",
                trace,
            ])
            .stderr(Stdio::inherit())
            .output();
        let line = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            Ok(out) => {
                eprintln!("repeat: seed {run_seed} exited with {}", out.status);
                return 1;
            }
            Err(e) => {
                eprintln!("repeat: cannot start {}: {e}", exe.display());
                return 1;
            }
        };
        eprintln!("repeat: {workload} seed {run_seed} done");
        if let Some(path) = arg(args, "--out") {
            let appended = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("repeat: cannot append to {path}: {e}");
                return 1;
            }
        }
        lines.push(line);
    }
    summarise(workload, &lines);
    0
}

fn summarise(label: &str, lines: &[String]) {
    let (by_name, correct) = collect(lines);
    let bounds = bounds();
    println!("{label}: {} runs, {correct} correct", lines.len());
    println!(
        "{:<30} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for (name, values) in &by_name {
        let [q1, q2, q3] = quartiles(values).unwrap_or([f64::NAN; 3]);
        let spread = spread(values).unwrap_or(f64::NAN);
        let bound = bounds
            .get(name)
            .map_or(String::new(), |(b, _)| format!("{b}"));
        let flag = match bounds.get(name) {
            Some((b, _)) if spread > *b => " WIDE",
            Some((b, _)) if spread > b / 3.0 => " (over a third of the bound)",
            _ => "",
        };
        println!(
            "{name:<30} {:>3} {q2:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}{flag}",
            values.len()
        );
    }
}

/// `perfbench compare --before A --after B`; returns 1 when a metric got
/// worse by more than its bound.
pub fn compare(args: &[String]) -> i32 {
    let (Some(before), Some(after)) = (arg(args, "--before"), arg(args, "--after")) else {
        eprintln!("compare: --before and --after are required");
        return 2;
    };
    let (a, b) = match (read_lines(before), read_lines(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    summarise(before, &a);
    summarise(after, &b);
    let (a, _) = collect(&a);
    let (b, _) = collect(&b);
    let mut regressed = false;
    println!(
        "{:<30} {:>14} {:>14} {:>9} {:>6}  verdict",
        "metric", "before", "after", "worse by", "bound"
    );
    for (name, (bound, higher)) in bounds() {
        let (Some(va), Some(vb)) = (a.get(&name), b.get(&name)) else {
            continue;
        };
        let (Some(ma), Some(mb)) = (median(va), median(vb)) else {
            continue;
        };
        let worse = if higher {
            (ma - mb) / ma.abs()
        } else {
            (mb - ma) / ma.abs()
        };
        let wide = spread(va).is_some_and(|s| s > bound) || spread(vb).is_some_and(|s| s > bound);
        let verdict = if worse > bound {
            regressed = true;
            "REGRESSED"
        } else if wide {
            "unresolved (spread wider than the bound)"
        } else {
            "within bound"
        };
        println!("{name:<30} {ma:>14.6} {mb:>14.6} {worse:>9.4} {bound:>6}  {verdict}");
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_metric_values_from_result_lines() {
        let lines = vec![
            r#"{"correct": true, "attempted": 2, "failed": 0, "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}"#.to_string(),
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"solve_s": {"value": 2.5, "unit": "s"}}}"#.to_string(),
            "not json".to_string(),
        ];
        let (by_name, correct) = collect(&lines);
        assert_eq!(correct, 1);
        assert_eq!(by_name["solve_s"], vec![1.5, 2.5]);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
