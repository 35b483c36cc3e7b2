//! Smoke tests driving the `optsched` binary end-to-end: the paper example,
//! the generate → schedule JSON round-trip, and error handling on malformed
//! input.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

fn optsched(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_optsched"));
    cmd.args(args);
    cmd
}

fn run(args: &[&str]) -> Output {
    optsched(args).output().expect("spawn optsched")
}

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = optsched(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optsched");
    // A usage error exits before reading stdin; if the child is already gone
    // the write fails with a broken pipe, which only means the input went
    // unread.  The caller's assertions on the output still decide the test.
    if let Err(e) = child.stdin.as_mut().expect("piped stdin").write_all(stdin) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    child.wait_with_output().expect("wait for optsched")
}

#[test]
fn example_prints_the_paper_optimum() {
    let out = run(&["example"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimal schedule length = 14"), "stdout: {stdout}");
    assert!(stdout.contains("schedule length = 14"));
}

#[test]
fn generate_schedule_round_trip_through_json() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;
    assert!(!graph_json.is_empty());

    // Pipe the generated graph into `schedule --input -` (the documented
    // `optsched generate | optsched schedule` composition).
    let scheduled = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        &graph_json,
    );
    assert!(
        scheduled.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&scheduled.stderr)
    );
    let stdout = String::from_utf8_lossy(&scheduled.stdout);
    assert!(stdout.contains("schedule length:"), "stdout: {stdout}");
    // An invalid schedule would have been reported on stderr by `report`.
    assert!(!String::from_utf8_lossy(&scheduled.stderr).contains("invalid schedule"));

    // `levels` consumes the same format.
    let levels = run_with_stdin(&["levels", "--input", "-"], &graph_json);
    assert!(levels.status.success());
    assert!(String::from_utf8_lossy(&levels.stdout).contains("critical path length"));
}

#[test]
fn json_output_round_trips_as_json() {
    let generated = run(&["generate", "--nodes", "8", "--seed", "3"]);
    assert!(generated.status.success());
    let scheduled = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "list", "--json"],
        &generated.stdout,
    );
    assert!(scheduled.status.success());
    let stdout = String::from_utf8_lossy(&scheduled.stdout);
    // The --json output must itself be parseable JSON (spot-check the shape).
    assert!(stdout.trim_start().starts_with('{'), "stdout: {stdout}");
    assert!(stdout.contains("assignments"));
}

#[test]
fn malformed_input_exits_non_zero() {
    let out = run_with_stdin(&["schedule", "--input", "-"], b"this is not json");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));

    // Valid JSON that is not a graph must also fail cleanly.
    let out = run_with_stdin(&["schedule", "--input", "-"], b"[1, 2, 3]");
    assert!(!out.status.success());

    // A missing file is an error, not a panic.
    let out = run(&["schedule", "--input", "/nonexistent/graph.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let no_args = run(&[]);
    assert!(!no_args.status.success());
}

#[test]
fn unknown_algorithm_fails() {
    let generated = run(&["generate", "--nodes", "6", "--seed", "1"]);
    assert!(generated.status.success());
    let out = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "quantum"],
        &generated.stdout,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

/// The exhaustive enumerator is schedulable from the CLI and honours
/// `--max-expansions` (it used to ignore limits before the engine refactor):
/// a budget of 1 expansion must cut the run short and fall back to the
/// list-heuristic incumbent, with the budget note on stderr.
#[test]
fn exhaustive_algorithm_honours_max_expansions() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    // Unbounded: the enumerator is exact on a small instance.
    let exact = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "exhaustive", "--procs", "2"],
        &graph_json,
    );
    assert!(exact.status.success(), "stderr: {}", String::from_utf8_lossy(&exact.stderr));
    let exact_out = String::from_utf8_lossy(&exact.stdout).to_string();
    assert!(exact_out.contains("exhaustive enumeration"), "stdout: {exact_out}");
    let exact_len = exact_out
        .lines()
        .find_map(|l| l.strip_prefix("schedule length:"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("schedule length in output");

    // A* agrees (both dispatched through the same registry).
    let astar = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "2"],
        &graph_json,
    );
    let astar_out = String::from_utf8_lossy(&astar.stdout).to_string();
    assert!(astar_out.contains(&format!("schedule length: {exact_len}")), "stdout: {astar_out}");

    // Bounded: still succeeds, reports the budget note, stays feasible.
    let bounded = run_with_stdin(
        &[
            "schedule", "--input", "-", "--algorithm", "exhaustive", "--procs", "2",
            "--max-expansions", "1",
        ],
        &graph_json,
    );
    assert!(bounded.status.success());
    let note = String::from_utf8_lossy(&bounded.stderr);
    assert!(note.contains("hit its budget"), "stderr: {note}");
    let bounded_len = String::from_utf8_lossy(&bounded.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("schedule length:").and_then(|v| v.trim().parse::<u64>().ok()))
        .expect("schedule length in bounded output");
    assert!(bounded_len >= exact_len, "incumbent cannot beat the optimum");
}

#[test]
fn parallel_duplicate_detection_modes_agree_and_report_counters() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let mut lengths = Vec::new();
    for mode in ["local", "sharded"] {
        let out = run_with_stdin(
            &[
                "schedule", "--input", "-", "--algorithm", "parallel", "--ppes", "2",
                "--dup-detection", mode, "--shards", "4", "--procs", "3",
            ],
            &graph_json,
        );
        assert!(out.status.success(), "mode={mode} stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains(&format!("{mode} duplicate detection")), "stdout: {stdout}");
        assert!(stdout.contains("redundant cross-PPE expansions avoided:"), "stdout: {stdout}");
        // Only the sharded mode has a table to report on.
        assert_eq!(mode == "sharded", stdout.contains("closed table"), "stdout: {stdout}");
        let len = stdout
            .lines()
            .find_map(|l| l.strip_prefix("schedule length:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no schedule length in: {stdout}"));
        lengths.push(len);
    }
    assert_eq!(lengths[0], lengths[1], "both modes must return the same optimum");

    // An unknown mode fails cleanly.
    let bad = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "parallel", "--dup-detection", "bogus"],
        &graph_json,
    );
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown duplicate-detection mode"));
}

/// The service pipeline composes on the command line exactly as documented:
/// `optsched requests | optsched batch --requests -`.  The generated corpus
/// is guaranteed to contain a repeated instance and a tight deadline, so the
/// batch must report zero errors *and* at least one cache hit — the same
/// contract the CI smoke step enforces.
#[test]
fn requests_pipe_into_batch_with_cache_hits_and_no_errors() {
    let corpus = run(&["requests", "--count", "10", "--seed", "7"]);
    assert!(corpus.status.success(), "stderr: {}", String::from_utf8_lossy(&corpus.stderr));
    let lines = String::from_utf8_lossy(&corpus.stdout);
    assert_eq!(lines.lines().count(), 10);
    assert!(lines.contains("\"deadline_ms\":"), "corpus must carry a deadline request");

    let batch = run_with_stdin(
        &["batch", "--requests", "-", "--workers", "2", "--min-cache-hits", "1", "--summary"],
        corpus.stdout.as_slice(),
    );
    assert!(batch.status.success(), "stderr: {}", String::from_utf8_lossy(&batch.stderr));
    let out = String::from_utf8_lossy(&batch.stdout);
    assert_eq!(out.lines().count(), 10, "one response per request");
    assert!(out.contains("\"ok\":true"));
    assert!(out.contains("\"cache_hit\":true"), "the duplicate instance must hit the cache");
    assert!(String::from_utf8_lossy(&batch.stderr).contains("batch: 10 responses"));
}

/// `serve` answers the JSON-lines protocol on stdin/stdout, including a
/// structured error for a malformed line (the service must not die on it).
#[test]
fn serve_answers_requests_and_survives_malformed_lines() {
    let corpus = run(&["requests", "--count", "3", "--seed", "11"]);
    assert!(corpus.status.success());
    let mut input = String::from_utf8(corpus.stdout).unwrap();
    input.push_str("this is not json\n");

    let served = run_with_stdin(&["serve", "--workers", "2"], input.as_bytes());
    assert!(served.status.success(), "stderr: {}", String::from_utf8_lossy(&served.stderr));
    let out = String::from_utf8_lossy(&served.stdout);
    assert_eq!(out.lines().count(), 4, "three answers plus one structured error");
    assert!(out.contains("\"ok\":true"));
    assert!(out.contains("\"ok\":false"));
    assert!(out.contains("malformed request"));
    assert!(String::from_utf8_lossy(&served.stderr).contains("served 4 responses"));
}

/// The `wastar` algorithm is schedulable from the CLI, and at `--weight 1.0`
/// it agrees with A* (same registry, same optimum).
#[test]
fn wastar_from_the_cli_matches_astar_at_weight_one() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let mut lengths = Vec::new();
    for argv in [
        vec!["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        vec![
            "schedule", "--input", "-", "--algorithm", "wastar", "--weight", "1.0", "--procs",
            "3",
        ],
        vec![
            "schedule", "--input", "-", "--algorithm", "wastar", "--weight", "1.0", "--procs",
            "3", "--seed-incumbent",
        ],
    ] {
        let out = run_with_stdin(&argv, &graph_json);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let len = stdout
            .lines()
            .find_map(|l| l.strip_prefix("schedule length:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no schedule length in: {stdout}"));
        lengths.push(len);
    }
    assert_eq!(lengths[0], lengths[1], "wastar at w=1 must match astar");
    assert_eq!(lengths[0], lengths[2], "the seeded search stays exact");
}

/// Reads the numeric value of a `name: value` line of `schedule` output.
fn counter(stdout: &str, name: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.trim_start_matches([' ', ':']).trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no {name} counter in: {stdout}"))
}

/// `parallel` runs one state store, the delta arena: it returns the serial
/// optimum, reports the `peak_live_states` headline, and its replay-savings
/// counter shows the path-cache bases banking skipped deltas.  The `--store`
/// flag that once picked a store fails cleanly as an unknown flag.
#[test]
fn parallel_store_modes_agree_and_report_peak_live_states() {
    let generated = run(&["generate", "--nodes", "8", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let serial = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        &graph_json,
    );
    assert!(serial.status.success(), "stderr: {}", String::from_utf8_lossy(&serial.stderr));
    let serial_len = counter(&String::from_utf8_lossy(&serial.stdout), "schedule length");

    let par = run_with_stdin(
        &[
            "schedule", "--input", "-", "--algorithm", "parallel", "--ppes", "2", "--procs",
            "3",
        ],
        &graph_json,
    );
    assert!(par.status.success(), "stderr: {}", String::from_utf8_lossy(&par.stderr));
    let stdout = String::from_utf8_lossy(&par.stdout).to_string();
    assert_eq!(counter(&stdout, "schedule length"), serial_len, "stdout: {stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("peak_live_states")), "stdout: {stdout}");
    assert!(
        counter(&stdout, "replayed deltas saved") > 0,
        "the path-cache bases must bank skipped deltas: {stdout}"
    );

    let bad = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "parallel", "--store", "eager"],
        &graph_json,
    );
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown flag `--store`"));
}

/// Every schedule run prints the arena-lifecycle counters
/// (`peak_live_records`, `reclaimed_records`, the path-cache hit rate), the
/// serial families from the uniform stats and `parallel` among its extras.
/// Reclamation is always on, so both reclaim dead chains; the `--arena-gc`
/// flag that once switched it off fails cleanly as an unknown flag.
#[test]
fn arena_gc_knob_and_lifecycle_counters_from_the_cli() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let serial = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        &graph_json,
    );
    assert!(serial.status.success(), "stderr: {}", String::from_utf8_lossy(&serial.stderr));
    let stdout = String::from_utf8_lossy(&serial.stdout).to_string();
    assert!(stdout.contains("path-cache hit rate"), "stdout: {stdout}");
    assert!(counter(&stdout, "peak_live_records") > 0, "stdout: {stdout}");
    assert!(counter(&stdout, "reclaimed_records") > 0, "the default run reclaims dead chains");
    let serial_len = counter(&stdout, "schedule length");

    let par = run_with_stdin(
        &[
            "schedule", "--input", "-", "--algorithm", "parallel", "--ppes", "2", "--procs",
            "3",
        ],
        &graph_json,
    );
    assert!(par.status.success(), "stderr: {}", String::from_utf8_lossy(&par.stderr));
    let stdout = String::from_utf8_lossy(&par.stdout).to_string();
    assert_eq!(counter(&stdout, "schedule length"), serial_len, "stdout: {stdout}");
    assert!(counter(&stdout, "reclaimed_records") > 0, "stdout: {stdout}");
    assert!(stdout.contains("path-cache hit rate"), "stdout: {stdout}");

    let bad = run_with_stdin(&["schedule", "--input", "-", "--arena-gc", "off"], &graph_json);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown flag `--arena-gc`"));
}

/// A run stopped by a limit says so on its `outcome` line, and the
/// algorithm line makes no optimality claim of its own.
#[test]
fn limit_reached_runs_report_the_limit_as_their_outcome() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let graph_json = generated.stdout;

    let bounded = run_with_stdin(
        &[
            "schedule", "--input", "-", "--algorithm", "astar", "--procs", "3",
            "--max-expansions", "1",
        ],
        &graph_json,
    );
    assert!(bounded.status.success(), "stderr: {}", String::from_utf8_lossy(&bounded.stderr));
    let stdout = String::from_utf8_lossy(&bounded.stdout).to_string();
    let line = |name: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .map(|v| v.trim_start_matches([' ', ':']).to_string())
            .unwrap_or_else(|| panic!("no {name} line in: {stdout}"))
    };
    assert!(line("outcome").starts_with("limit reached"), "stdout: {stdout}");
    assert!(!line("algorithm").contains("optimal"), "stdout: {stdout}");

    let exact = run_with_stdin(
        &["schedule", "--input", "-", "--algorithm", "astar", "--procs", "3"],
        &graph_json,
    );
    assert!(exact.status.success());
    let stdout = String::from_utf8_lossy(&exact.stdout);
    assert!(stdout.contains("outcome        : completed (optimal"), "stdout: {stdout}");
}

/// Each subcommand rejects a flag outside its usage line with a usage
/// error: the store, GC, path-cache and election-batch flags earlier
/// versions accepted, and a misspelt `--budget_ms`, must fail instead of
/// silently running with defaults.
#[test]
fn removed_and_misspelt_flags_are_usage_errors() {
    let generated = run(&["generate", "--nodes", "6", "--seed", "1"]);
    assert!(generated.status.success());
    let removed =
        [("store", "eager"), ("arena-gc", "off"), ("path-cache", "0"), ("election-batch", "1")];
    let mut cases: Vec<(String, &str)> =
        removed.iter().map(|&(flag, value)| (format!("--{flag}"), value)).collect();
    cases.push(("--budget_ms".to_string(), "500"));
    for (flag, value) in &cases {
        let out = run_with_stdin(&["schedule", "--input", "-", flag, value], &generated.stdout);
        assert!(!out.status.success(), "{flag} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} must not run a search");
    }
    // A flag is judged against its own subcommand's usage line.
    let out = run(&["generate", "--nodes", "6", "--gantt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--gantt`"));
}

/// A flag value that does not parse, or an unknown topology, is a usage
/// error naming the flag and the value — in every subcommand, and before any
/// input is read — instead of silently running with the default.
#[test]
fn malformed_flag_values_are_usage_errors() {
    let generated = run(&["generate", "--nodes", "10", "--ccr", "1.0", "--seed", "7"]);
    assert!(generated.status.success());
    let schedule = |flag: &'static str, value: &'static str| {
        vec!["schedule", "--input", "-", "--algorithm", "parallel", flag, value]
    };
    let cases: Vec<(Vec<&str>, &str, &str)> = vec![
        (schedule("--max-expansions", "1x"), "--max-expansions", "1x"),
        (schedule("--budget-ms", "5s"), "--budget-ms", "5s"),
        (schedule("--epsilon", "abc"), "--epsilon", "abc"),
        (schedule("--ppes", "x"), "--ppes", "x"),
        (schedule("--topology", "rnig"), "--topology", "rnig"),
        (schedule("--procs", "four"), "--procs", "four"),
        (vec!["generate", "--nodes", "ten"], "--nodes", "ten"),
        (vec!["batch", "--requests", "-", "--workers", "two"], "--workers", "two"),
        (vec!["serve", "--summary-interval-ms", "soon"], "--summary-interval-ms", "soon"),
        (vec!["requests", "--count", "many"], "--count", "many"),
    ];
    for (argv, flag, value) in &cases {
        let out = run_with_stdin(argv, &generated.stdout);
        assert!(!out.status.success(), "{argv:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid value `{value}` for `{flag}`")),
            "{argv:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} must not run");
    }
}

/// Feeds stdin in two chunks with a pause between, keeping the service alive
/// long enough for time-based behaviour (the periodic summary) to fire.
fn run_with_chunked_stdin(args: &[&str], first: &[u8], second: &[u8]) -> Output {
    let mut child = optsched(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optsched");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(first).expect("write first chunk");
        stdin.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(120));
        stdin.write_all(second).expect("write second chunk");
    }
    child.wait_with_output().expect("wait for optsched")
}

/// `serve --summary-interval-ms` prints periodic metrics snapshots to stderr
/// while serving, and the final summary surfaces the admission-control and
/// cache-lifecycle counters (shed, degraded, evictions, expirations).
#[test]
fn serve_periodic_summaries_surface_backpressure_counters() {
    let corpus = run(&["requests", "--count", "6", "--seed", "7"]);
    assert!(corpus.status.success());
    let lines = String::from_utf8(corpus.stdout).unwrap();
    let split = lines.find('\n').unwrap() + 1;

    let served = run_with_chunked_stdin(
        &["serve", "--workers", "2", "--summary-interval-ms", "10"],
        &lines.as_bytes()[..split],
        &lines.as_bytes()[split..],
    );
    assert!(served.status.success(), "stderr: {}", String::from_utf8_lossy(&served.stderr));
    let stderr = String::from_utf8_lossy(&served.stderr);
    let metric_lines: Vec<&str> =
        stderr.lines().filter(|l| l.starts_with("serve: ")).collect();
    assert!(
        metric_lines.len() >= 2,
        "at least one periodic snapshot plus the final one, got: {stderr}"
    );
    for needle in ["pending", "shed", "degraded", "evictions", "expired", "hit rate"] {
        assert!(metric_lines[0].contains(needle), "`{needle}` missing from: {}", metric_lines[0]);
    }
    // The final per-connection summary also carries the shed/degrade tallies.
    assert!(stderr.contains("served 6 responses"), "stderr: {stderr}");
    assert!(stderr.contains("0 shed, 0 degraded"), "stderr: {stderr}");
}

/// `batch --summary` surfaces the new counters, and `--cache-max-age-ms 0`
/// is plumbed through: with everything expiring instantly the duplicate
/// instances cannot hit the cache, and the expiry counter shows why.
#[test]
fn batch_summary_reports_cache_lifecycle_counters_and_honours_max_age() {
    let corpus = run(&["requests", "--count", "8", "--seed", "7"]);
    assert!(corpus.status.success());

    let batch = run_with_stdin(
        &["batch", "--requests", "-", "--workers", "2", "--summary", "--cache-max-age-ms", "0"],
        corpus.stdout.as_slice(),
    );
    assert!(batch.status.success(), "stderr: {}", String::from_utf8_lossy(&batch.stderr));
    let stderr = String::from_utf8_lossy(&batch.stderr);
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("batch:"))
        .unwrap_or_else(|| panic!("no summary in: {stderr}"));
    assert!(summary.contains("0 cache hits"), "a 0 ms TTL serves nothing: {summary}");
    assert!(summary.contains("0 shed, 0 degraded"), "{summary}");
    let expired: u64 = summary
        .split(" expired")
        .next()
        .and_then(|s| s.rsplit(", ").next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no expired counter in: {summary}"));
    assert!(expired > 0, "the duplicate lookups must have expired entries: {summary}");
}
