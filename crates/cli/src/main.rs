//! `optsched` — command-line front end for the DAG schedulers.
//!
//! ```text
//! optsched schedule --input graph.json [--procs 4] [--topology ring|mesh|full|chain|star|hypercube]
//!                   [--algorithm astar|wastar|aeps|chenyu|exhaustive|list|parallel] [--epsilon 0.2]
//!                   [--weight 1.5] [--seed-incumbent] [--ppes 4] [--dup-detection local|sharded]
//!                   [--shards N] [--budget-ms N] [--max-expansions N]
//!                   [--trace-out trace.json] [--gantt] [--json]
//! optsched generate --nodes 20 --ccr 1.0 [--seed 7] [--output graph.json]
//! optsched example
//! optsched levels --input graph.json
//! optsched serve [--workers 2] [--listen 127.0.0.1:7878] [--admission-budget N]
//!                [--degrade-threshold N] [--degrade-deadline-ms N] [--cache-capacity N]
//!                [--cache-max-age-ms N] [--summary-interval-ms N] [--no-seed-incumbent]
//!                [--trace-out trace.json]
//! optsched batch --requests reqs.jsonl|- [--workers 2] [--min-cache-hits N] [--summary]
//!                [--admission-budget N] [--degrade-threshold N] [--degrade-deadline-ms N]
//!                [--cache-capacity N] [--cache-max-age-ms N] [--no-seed-incumbent]
//!                [--trace-out trace.json]
//! optsched requests --count 20 [--seed 7] [--output reqs.jsonl]
//! ```
//!
//! The `--algorithm` value is dispatched through the facade's
//! [`SchedulerSpec::run`]; the CLI has no per-algorithm code paths.  The
//! text report has an `outcome` line (completed, or which limit stopped the
//! search), the expanded, generated and duplicate counts, the elapsed time,
//! and the state store's `peak_live_records`, `reclaimed_records` and
//! replayed-deltas-saved counters.  Each subcommand rejects, as a usage
//! error and before it reads any input, a flag that is not on its usage
//! line, a value that does not parse, an unknown topology and an unknown
//! algorithm.
//!
//! Graph files are the `serde_json` serialisation of
//! [`optsched_taskgraph::TaskGraph`] (produced by `optsched generate`).
//! `--input -` reads the graph from stdin, so generation and scheduling
//! compose: `optsched generate --nodes 10 | optsched schedule --input -`.
//!
//! The service subcommands speak the JSON-lines protocol of
//! `optsched-service`: `serve` answers requests from stdin (or a TCP
//! listener with `--listen`) over **one** global worker pool shared by all
//! connections, `batch` drains a request file through that pool and reports
//! a summary, and `requests` generates a mixed request corpus — so the whole
//! pipeline composes as `optsched requests --count 20 | optsched batch
//! --requests -`.  `--admission-budget` / `--degrade-threshold` /
//! `--degrade-deadline-ms` tune the service's backpressure (shed with a
//! structured `overloaded` response past the budget, degrade to
//! deadline-clamped `wastar` past the threshold), `--cache-capacity` /
//! `--cache-max-age-ms` size the LRU result cache and its TTL, and
//! `serve --summary-interval-ms N` prints a metrics snapshot (pending,
//! shed, degraded, service-side latency percentiles, cache hit rate,
//! evictions, expirations) to stderr every N milliseconds.
//!
//! `--trace-out PATH` (on `schedule`, `serve` and `batch`) turns on the
//! `optsched-obs` event/span layer for the run and writes a Chrome
//! trace-event JSON file at exit — load it in `chrome://tracing` or
//! Perfetto.  Without the flag the collection layer stays disabled and
//! costs one relaxed atomic load per would-be event.  A running service
//! also answers the admin line `{"type": "stats"}` on any connection with
//! a JSON stats report (counters plus queue-wait/end-to-end p50/p99).

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optsched::registry::{SchedulerSpec, NAMES};
use optsched_core::{AStarScheduler, SchedulingProblem, SearchConfig, SearchLimits, SearchOutcome};
use optsched_procnet::{ProcNetwork, Topology};
use optsched_schedule::{render_gantt, Schedule};
use optsched_service::{run_service, serve_tcp, Request, SchedulingService, ServiceConfig};
use optsched_taskgraph::{paper_example_dag, GraphLevels, TaskGraph};
use optsched_workload::{
    generate_random_dag, generate_request_corpus, RandomDagConfig, RequestCorpusConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    pairs.push((key.to_string(), argv[i + 1].clone()));
                    i += 1;
                } else {
                    flags.push(key.to_string());
                }
            }
            i += 1;
        }
        Args { pairs, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of `--key` parsed as `T`, or `None` when the flag is
    /// absent.  A value that does not parse is an error naming the flag and
    /// the value, never a silent default.
    fn get_parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(key)
            .map(|v| v.parse().map_err(|e| format!("invalid value `{v}` for `--{key}`: {e}")))
            .transpose()
    }

    /// [`Args::get_parse_opt`] with `default` for an absent flag.
    fn get_parse<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get_parse_opt(key)?.unwrap_or(default))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The first flag (with or without a value) that is not in `known`.
    fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.pairs
            .iter()
            .map(|(k, _)| k)
            .chain(&self.flags)
            .map(String::as_str)
            .find(|k| !known.contains(k))
    }
}

/// Every subcommand with the flags it accepts: exactly those on its
/// [`USAGE`] line.
const SUBCOMMANDS: &[(&str, &[&str])] = &[
    (
        "schedule",
        &[
            "input", "procs", "topology", "algorithm", "epsilon", "weight", "seed-incumbent",
            "ppes", "dup-detection", "shards", "budget-ms", "max-expansions", "trace-out",
            "gantt", "json",
        ],
    ),
    ("generate", &["nodes", "ccr", "seed", "output"]),
    ("levels", &["input"]),
    ("example", &[]),
    (
        "serve",
        &[
            "workers", "listen", "admission-budget", "degrade-threshold", "degrade-deadline-ms",
            "cache-capacity", "cache-max-age-ms", "summary-interval-ms", "no-seed-incumbent",
            "trace-out",
        ],
    ),
    (
        "batch",
        &[
            "requests", "workers", "min-cache-hits", "summary", "admission-budget",
            "degrade-threshold", "degrade-deadline-ms", "cache-capacity", "cache-max-age-ms",
            "no-seed-incumbent", "trace-out",
        ],
    ),
    ("requests", &["count", "seed", "output"]),
];

const USAGE: &str = "usage:
  optsched schedule --input graph.json|- [--procs P] [--topology T] [--algorithm A] \\
                    [--epsilon E] [--weight W] [--seed-incumbent] [--ppes Q] \\
                    [--dup-detection local|sharded] [--shards N] \\
                    [--budget-ms N] [--max-expansions N] \\
                    [--trace-out trace.json] [--gantt] [--json]
  optsched generate --nodes N --ccr C [--seed S] [--output file.json]
  optsched levels --input graph.json|-
  optsched example
  optsched serve [--workers N] [--listen ADDR:PORT] [--admission-budget N] \\
                 [--degrade-threshold N] [--degrade-deadline-ms N] [--cache-capacity N] \\
                 [--cache-max-age-ms N] [--summary-interval-ms N] [--no-seed-incumbent] \\
                 [--trace-out trace.json]
  optsched batch --requests file.jsonl|- [--workers N] [--min-cache-hits N] [--summary] \\
                 [--admission-budget N] [--degrade-threshold N] [--degrade-deadline-ms N] \\
                 [--cache-capacity N] [--cache-max-age-ms N] [--no-seed-incumbent] \\
                 [--trace-out trace.json]
  optsched requests --count N [--seed S] [--output file.jsonl]
(`--input -` reads the graph JSON from stdin; algorithms: astar|wastar|aeps|chenyu|exhaustive|list|parallel;
 serve/batch requests may also say \"auto\" to let the deadline-aware portfolio pick;
 a running serve/batch also answers the admin line {\"type\": \"stats\"};
 --trace-out writes a Chrome trace-event JSON of the run's spans at exit)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn load_graph(args: &Args) -> Result<TaskGraph, String> {
    match args.get("input") {
        Some("-") => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse stdin: {e}"))
        }
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        None => Err("missing --input <graph.json|-> (or use `optsched example`)".to_string()),
    }
}

fn build_network(args: &Args, default_procs: usize) -> Result<ProcNetwork, String> {
    let p = args.get_parse("procs", default_procs)?;
    Ok(match args.get("topology").unwrap_or("full") {
        "full" => ProcNetwork::fully_connected(p),
        "ring" => ProcNetwork::ring(p),
        "chain" => ProcNetwork::chain(p),
        "star" => ProcNetwork::star(p),
        "hypercube" => ProcNetwork::hypercube(p.next_power_of_two()),
        "mesh" => {
            let rows = (p as f64).sqrt().floor().max(1.0) as usize;
            let rows = (1..=rows).rev().find(|r| p % r == 0).unwrap_or(1);
            ProcNetwork::with_topology(Topology::Mesh { rows, cols: p / rows }, p)
        }
        other => {
            return Err(format!(
                "invalid value `{other}` for `--topology`: unknown topology \
                 (expected ring|mesh|full|chain|star|hypercube)"
            ))
        }
    })
}

/// The `outcome` report line: why the search stopped, and so what the
/// printed schedule is known to be.
fn outcome_label(outcome: &SearchOutcome) -> &'static str {
    match outcome {
        SearchOutcome::Optimal => "completed (optimal, or within the algorithm's ε/w bound)",
        SearchOutcome::TargetReached => "target cost reached (not proven optimal)",
        SearchOutcome::LimitReached => "limit reached (best incumbent, not proven optimal)",
        SearchOutcome::Exhausted => "search space exhausted",
        SearchOutcome::Heuristic => "heuristic (no optimality claim)",
    }
}

fn report(
    schedule: &Schedule,
    graph: &TaskGraph,
    net: &ProcNetwork,
    args: &Args,
    label: &str,
    outcome: &SearchOutcome,
) {
    if let Err(e) = schedule.validate(graph, net) {
        eprintln!("internal error: produced an invalid schedule: {e}");
    }
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(schedule).expect("schedules serialise"));
        return;
    }
    println!("algorithm      : {label}");
    println!("outcome        : {}", outcome_label(outcome));
    println!("schedule length: {}", schedule.makespan());
    println!("processors used: {}", schedule.procs_used());
    if args.has("gantt") {
        println!("{}", render_gantt(schedule, graph));
    }
}

/// Builds the scheduler configuration from the command line.  Every family
/// reads the knobs that apply to it; unparsable values fail with a message.
fn build_spec(args: &Args) -> Result<SchedulerSpec, String> {
    let epsilon = args.get_parse_opt("epsilon")?;
    let limits = SearchLimits {
        max_millis: args.get_parse_opt("budget-ms")?,
        max_expansions: args.get_parse_opt("max-expansions")?,
        ..Default::default()
    };
    let mut spec = SchedulerSpec {
        search: SearchConfig {
            limits,
            seed_incumbent: args.has("seed-incumbent"),
            ..Default::default()
        },
        epsilon: epsilon.unwrap_or(0.2),
        weight: args.get_parse("weight", 1.5)?,
        ..Default::default()
    };
    spec.parallel.num_ppes = args.get_parse("ppes", spec.parallel.num_ppes)?;
    spec.parallel.epsilon = epsilon;
    spec.parallel.duplicate_detection =
        args.get_parse("dup-detection", spec.parallel.duplicate_detection)?;
    spec.parallel.num_shards = args.get_parse("shards", spec.parallel.num_shards)?;
    Ok(spec)
}

fn cmd_schedule(args: &Args) -> Result<ExitCode, String> {
    let net = build_network(args, 4)?;
    let spec = build_spec(args)?;
    let algorithm = args.get("algorithm").unwrap_or("astar");
    let Some(label) = spec.describe(algorithm) else {
        return Err(format!("unknown algorithm `{algorithm}` (expected {})", NAMES.join("|")));
    };
    let graph = match load_graph(args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // `--trace-out PATH` turns the event/span layer on for this run and
    // writes a Chrome trace-event file (load it in `chrome://tracing` or
    // Perfetto) after the report.
    let trace_out = args.get("trace-out").map(String::from);
    if trace_out.is_some() {
        optsched_obs::set_enabled(true);
    }
    let problem = SchedulingProblem::new(graph.clone(), net.clone());
    let run = spec.run(algorithm, &problem).expect("every described name runs");
    let Some(schedule) = run.result.schedule.as_ref() else {
        eprintln!("internal error: `{algorithm}` produced no schedule");
        return Ok(ExitCode::FAILURE);
    };
    report(schedule, &graph, &net, args, &label, &run.result.outcome);
    if run.result.outcome == SearchOutcome::LimitReached {
        eprintln!("note: the search hit its budget; the schedule is the best incumbent, not proven optimal");
    }
    if !args.has("json") {
        // One stats block for every family (the parallel one's totals are
        // summed over its PPEs), then what only the family can say.
        let s = &run.result.stats;
        let elapsed_ms = format!("{:.3}", run.result.elapsed.as_secs_f64() * 1e3);
        let stats = [
            ("expanded", s.expanded.to_string()),
            ("generated", s.generated.to_string()),
            ("duplicates", (s.duplicates + s.duplicates_global).to_string()),
            ("elapsed_ms", elapsed_ms),
            ("peak_live_records", s.peak_live_records.to_string()),
            ("reclaimed_records", s.reclaimed_records.to_string()),
            ("replayed deltas saved", s.replayed_deltas_saved.to_string()),
        ];
        for (label, value) in stats {
            println!("{label:<15}: {value}");
        }
        for (label, value) in &run.extras {
            println!("{label:<15}: {value}");
        }
    }
    if let Some(path) = trace_out {
        optsched_obs::set_enabled(false);
        match optsched_obs::save_chrome_trace(&path) {
            Ok(n) => eprintln!("trace: wrote {n} events to {path}"),
            Err(e) => {
                eprintln!("trace: failed to write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &Args) -> Result<ExitCode, String> {
    let nodes = args.get_parse("nodes", 20usize)?;
    let ccr = args.get_parse("ccr", 1.0f64)?;
    let seed = args.get_parse("seed", 7u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generate_random_dag(&RandomDagConfig { nodes, ccr, ..Default::default() }, &mut rng);
    let json = serde_json::to_string_pretty(&graph).expect("graphs serialise");
    match args.get("output") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {nodes}-node graph (CCR {ccr}, seed {seed}) to {path}");
        }
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_levels(args: &Args) -> ExitCode {
    let graph = match load_graph(args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let levels = GraphLevels::compute(&graph);
    println!("{:<8} {:>8} {:>10} {:>10} {:>10}", "node", "weight", "sl", "b-level", "t-level");
    for n in graph.node_ids() {
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10}",
            n.to_string(),
            graph.weight(n),
            levels.static_level(n),
            levels.b_level(n),
            levels.t_level(n)
        );
    }
    println!("critical path length = {}", levels.critical_path_length());
    ExitCode::SUCCESS
}

/// Builds the service configuration shared by `serve` and `batch` from the
/// command line.
fn service_config_from_args(args: &Args) -> Result<ServiceConfig, String> {
    let d = ServiceConfig::default();
    let admission_budget = args.get_parse("admission-budget", d.admission_budget)?;
    Ok(ServiceConfig {
        workers: args.get_parse("workers", d.workers)?,
        cache_capacity: args.get_parse("cache-capacity", d.cache_capacity)?,
        cache_max_age_ms: args.get_parse_opt("cache-max-age-ms")?,
        admission_budget,
        // The threshold must stay within the budget to mean anything.
        degrade_threshold: args
            .get_parse("degrade-threshold", d.degrade_threshold)?
            .min(admission_budget),
        degrade_deadline_ms: args.get_parse("degrade-deadline-ms", d.degrade_deadline_ms)?,
        seed_incumbent: !args.has("no-seed-incumbent"),
        trace_path: args.get("trace-out").map(String::from),
        ..d
    })
}

/// One metrics line for the periodic and final `serve` summaries.
fn metrics_line(service: &SchedulingService) -> String {
    let m = service.metrics_snapshot();
    let c = service.cache_stats();
    format!(
        "submitted {} responses {} pending {} (peak {}) shed {} degraded {} peak_live_records {} | auto: {} exact, {} anytime, {} raced, {} warm starts | latency: e2e p50 {:.1} ms p99 {:.1} ms, queue p50 {:.1} ms p99 {:.1} ms | cache: {} entries, {:.0}% hit rate, {} evictions, {} expired, {} filter skips",
        m.submitted,
        m.responses,
        m.pending,
        m.peak_pending,
        m.shed,
        m.degraded,
        m.peak_live_records,
        m.auto_exact,
        m.auto_anytime,
        m.auto_raced,
        m.auto_warm_starts,
        m.e2e_p50_us as f64 / 1e3,
        m.e2e_p99_us as f64 / 1e3,
        m.queue_wait_p50_us as f64 / 1e3,
        m.queue_wait_p99_us as f64 / 1e3,
        c.entries,
        c.hit_rate() * 100.0,
        c.evictions,
        c.expired,
        c.filter_skips
    )
}

/// Prints a metrics snapshot to stderr every `interval_ms` until the
/// returned guard is dropped (no-op at 0).
fn spawn_summary_monitor(interval_ms: u64, service: &SchedulingService) -> Option<SummaryMonitor> {
    if interval_ms == 0 {
        return None;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let service = service.clone();
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let interval = std::time::Duration::from_millis(interval_ms.max(1));
        while !flag.load(Ordering::Relaxed) {
            std::thread::park_timeout(interval);
            if flag.load(Ordering::Relaxed) {
                break;
            }
            eprintln!("serve: {}", metrics_line(&service));
        }
    });
    Some(SummaryMonitor { stop, handle: Some(handle) })
}

/// Guard of the periodic summary thread; stops it on drop.
struct SummaryMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for SummaryMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            handle.join().expect("summary monitor panicked");
        }
    }
}

/// `optsched serve`: the JSON-lines scheduling service over stdin/stdout,
/// or over TCP with `--listen ADDR:PORT` — either way one global worker
/// pool answers every connection.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let config = service_config_from_args(args)?;
    let interval_ms = args.get_parse("summary-interval-ms", 0u64)?;
    let (workers, admission_budget) = (config.workers, config.admission_budget);
    let service = SchedulingService::new(config);
    let _monitor = spawn_summary_monitor(interval_ms, &service);
    Ok(match args.get("listen") {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot listen on {addr}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            eprintln!(
                "optsched-service listening on {addr} ({workers} shared workers, admission budget {admission_budget})"
            );
            if let Err(e) = serve_tcp(&service, &listener, None) {
                eprintln!("serve error: {e}");
                return Ok(ExitCode::FAILURE);
            }
            ExitCode::SUCCESS
        }
        None => {
            // `BufReader<Stdin>` rather than `StdinLock`: the runtime's
            // reader thread needs a `Send` reader.
            let stdin = std::io::BufReader::new(std::io::stdin());
            let mut stdout = std::io::stdout();
            match run_service(&service, stdin, &mut stdout) {
                Ok(summary) => {
                    eprintln!(
                        "served {} responses ({} errors, {} cache hits, {} shed, {} degraded)",
                        summary.responses,
                        summary.errors,
                        summary.cache_hits,
                        summary.shed,
                        summary.degraded
                    );
                    eprintln!("serve: {}", metrics_line(&service));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    })
}

/// `optsched batch`: drain a request file through the worker pool, print the
/// responses to stdout, and fail loudly if any response errored or the
/// cache saw fewer hits than `--min-cache-hits` (the CI smoke contract).
fn cmd_batch(args: &Args) -> Result<ExitCode, String> {
    let config = service_config_from_args(args)?;
    let min_hits = args.get_parse("min-cache-hits", 0u64)?;
    let Some(path) = args.get("requests") else {
        eprintln!("missing --requests <file.jsonl|->");
        return Ok(ExitCode::FAILURE);
    };
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
            eprintln!("cannot read stdin: {e}");
            return Ok(ExitCode::FAILURE);
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    };

    let service = SchedulingService::new(config);
    let mut stdout = std::io::stdout();
    let summary = match run_service(&service, text.as_bytes(), &mut stdout) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("batch error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let stats = service.cache_stats();
    if args.has("summary") {
        eprintln!(
            "batch: {} responses, {} errors, {} cache hits, {} shed, {} degraded ({} entries, {:.0}% hit rate, {} evictions, {} expired)",
            summary.responses,
            summary.errors,
            summary.cache_hits,
            summary.shed,
            summary.degraded,
            stats.entries,
            stats.hit_rate() * 100.0,
            stats.evictions,
            stats.expired
        );
    }
    if summary.errors > 0 {
        eprintln!("batch: {} response(s) reported errors", summary.errors);
        return Ok(ExitCode::FAILURE);
    }
    if summary.cache_hits < min_hits {
        eprintln!(
            "batch: expected >= {min_hits} cache hit(s), observed {}",
            summary.cache_hits
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `optsched requests`: generate a mixed request corpus (sizes, CCRs,
/// algorithms, deadlines, repeated instances) as JSON lines.
fn cmd_requests(args: &Args) -> Result<ExitCode, String> {
    let cfg = RequestCorpusConfig {
        count: args.get_parse("count", RequestCorpusConfig::default().count)?,
        ..Default::default()
    };
    let seed = args.get_parse("seed", 7u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = generate_request_corpus(&cfg, &mut rng);
    let mut lines = String::new();
    for (i, c) in corpus.iter().enumerate() {
        let mut req = Request::from(c);
        req.id = Some(i as u64);
        lines.push_str(&serde_json::to_string(&req).expect("requests serialise"));
        lines.push('\n');
    }
    match args.get("output") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, lines) {
                eprintln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {} requests (seed {seed}) to {path}", corpus.len());
        }
        None => print!("{lines}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { return usage() };
    let Some(&(_, known)) = SUBCOMMANDS.iter().find(|(name, _)| name == cmd) else {
        return usage();
    };
    let args = Args::parse(&argv[1..]);
    if let Some(flag) = args.unknown_flag(known) {
        eprintln!("unknown flag `--{flag}` for `optsched {cmd}`");
        return usage();
    }
    // A command reads all of its flag values before it reads any input or
    // starts any work, and returns a bad one as `Err`: a usage error naming
    // the flag and the value.  Later failures print their own message and
    // return `Ok(ExitCode::FAILURE)`.
    let run = match cmd.as_str() {
        "schedule" => cmd_schedule(&args),
        "generate" => cmd_generate(&args),
        "serve" => cmd_serve(&args),
        "batch" => cmd_batch(&args),
        "requests" => cmd_requests(&args),
        "levels" => Ok(cmd_levels(&args)),
        "example" => {
            let graph = paper_example_dag();
            let net = ProcNetwork::ring(3);
            let problem = SchedulingProblem::new(graph.clone(), net.clone());
            let r = AStarScheduler::new(&problem).run();
            println!("paper example (Figure 1): optimal schedule length = {}", r.schedule_length);
            println!("{}", render_gantt(r.expect_schedule(), &graph));
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    run.unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parser_handles_pairs_and_flags() {
        let argv: Vec<String> =
            ["--nodes", "12", "--gantt", "--ccr", "0.5"].iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&argv);
        assert_eq!(a.get("nodes"), Some("12"));
        assert_eq!(a.get_parse("ccr", 1.0), Ok(0.5));
        assert_eq!(a.get_parse("missing", 3usize), Ok(3));
        assert_eq!(a.get_parse_opt::<u64>("missing"), Ok(None));
        let err = a.get_parse_opt::<usize>("ccr").unwrap_err();
        assert!(err.contains("invalid value `0.5` for `--ccr`"), "{err}");
        assert!(a.has("gantt"));
        assert!(!a.has("json"));
        assert_eq!(a.unknown_flag(&["nodes", "gantt", "ccr"]), None);
        assert_eq!(a.unknown_flag(&["nodes", "ccr"]), Some("gantt"));
    }

    /// The flag table and the usage text name the same flags.
    #[test]
    fn every_accepted_flag_is_on_the_usage_text() {
        for (cmd, known) in SUBCOMMANDS {
            assert!(USAGE.contains(&format!("optsched {cmd}")), "{cmd}");
            for flag in *known {
                assert!(USAGE.contains(&format!("--{flag}")), "{cmd} --{flag}");
            }
        }
    }

    #[test]
    fn build_network_topologies() {
        let argv: Vec<String> = ["--procs", "6", "--topology", "mesh"].iter().map(|s| s.to_string()).collect();
        let net = build_network(&Args::parse(&argv), 4).unwrap();
        assert_eq!(net.num_procs(), 6);
        let ring: Vec<String> = ["--procs", "5", "--topology", "ring"].iter().map(|s| s.to_string()).collect();
        let ring = build_network(&Args::parse(&ring), 4).unwrap();
        assert_eq!(ring.degree(optsched_procnet::ProcId(0)), 2);
        let hyper: Vec<String> = ["--procs", "5", "--topology", "hypercube"].iter().map(|s| s.to_string()).collect();
        assert_eq!(build_network(&Args::parse(&hyper), 4).unwrap().num_procs(), 8);
        let typo: Vec<String> = ["--topology", "rnig"].iter().map(|s| s.to_string()).collect();
        let err = build_network(&Args::parse(&typo), 4).unwrap_err();
        assert!(err.contains("invalid value `rnig` for `--topology`"), "{err}");
    }

    #[test]
    fn example_problem_solves_to_14() {
        let graph = paper_example_dag();
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        assert_eq!(AStarScheduler::new(&problem).run().schedule_length, 14);
    }
}
