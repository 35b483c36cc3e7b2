//! `service_mix`: open-loop arrivals at a fixed offered rate into one
//! `ServiceRuntime` with two workers.
//!
//! One generator thread submits each request line when it is due, whatever
//! the service is doing; one collector thread serialises each response as
//! it comes out.  A request's latency runs from its due time — not its send
//! time — to its response line, so parse and serialise are inside it and a
//! stall charges every request it delays.  A run whose generator fell behind
//! its own schedule is invalid.
//!
//! The mix: small fresh instances (v 6–10) across `astar`, `wastar`,
//! `aeps`, `list` and `auto`; about a quarter repeats of earlier
//! memoizable requests, half submitted right behind their original (they
//! coalesce onto its search) and half long after it (cache hits); and a
//! minority of `astar` requests with a deadline on graphs too large to
//! finish inside it.

use std::time::{Duration, Instant};

use optsched_core::{AStarScheduler, SchedulingProblem, SearchLimits};
use optsched_procnet::ProcNetwork;
use optsched_service::{
    canonical_signature, Instance, ReplyBody, Request, Response, SchedulingService, ServiceConfig,
    ServiceRuntime, StatsReport,
};
use optsched_workload::{generate_random_dag, RandomDagConfig, PAPER_CCRS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Measured, Op, Pass};
use crate::instances::{paper_graph, relabel};
use crate::mem;
use crate::report::Report;
use crate::stats::{nearest_rank, samples_beyond, sorted};

/// Offered load, requests per second: well below what two workers
/// sustain on this mix, so queues stay short and p50 is set by the
/// service layers.
pub const RATE_RPS: f64 = 60.0;

/// Requests per run at least: a thousand ok latencies leave ten samples
/// beyond the p99.
pub const MIN_REQUESTS: usize = 1100;

/// The deadline of the deadline-carrying requests, ms.
pub const DEADLINE_MS: u64 = 40;

/// A run whose generator submitted its p99 request later than this after
/// its due time fell behind its schedule and is invalid, ms.
pub const LAG_LIMIT_MS: f64 = 10.0;

/// Expansion cap of the difficulty probe of the small requests.
const PROBE_EXPANSIONS: u64 = 1000;

/// Set-ups per run; `setup_s` is the fastest.  The run itself is one open
/// loop, so the set-ups cannot interleave with passes.
const SETUPS: usize = 3;

/// Warm-up requests per set-up (instances outside the mix).
const WARMUP: usize = 8;

/// Algorithms of the fresh small requests.
const ALGORITHMS: [&str; 5] = ["astar", "wastar", "aeps", "list", "auto"];

/// One planned request.
struct Planned {
    request: Request,
    line: String,
    /// Due time after the run's start, seconds.
    due: f64,
}

/// Seed of the small-instance pool.
const SMALL_POOL_SEED: u64 = 0x5eed_5a11;

/// `count` distinct small instances: v 6–10 paper graphs on 2–3
/// processors that A* proves within [`PROBE_EXPANSIONS`] (redrawn
/// otherwise).  Without the probe one graph in a few hundred takes seconds
/// under every algorithm, and those few would set the tail and saturate
/// the workers.  The pool is the same for every seed, so the probing work
/// — most of the set-up — is too; a run's seed relabels the graphs it uses.
fn small_pool(count: usize) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(SMALL_POOL_SEED);
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let nodes = rng.gen_range(6..=10);
        let ccr = PAPER_CCRS[rng.gen_range(0..PAPER_CCRS.len())];
        let graph = generate_random_dag(
            &RandomDagConfig {
                nodes,
                ccr,
                ..Default::default()
            },
            &mut rng,
        );
        let network = ProcNetwork::fully_connected(rng.gen_range(2..=3));
        let problem = SchedulingProblem::new(graph.clone(), network.clone());
        let probe = AStarScheduler::new(&problem)
            .with_limits(SearchLimits::expansions(PROBE_EXPANSIONS))
            .run();
        if probe.is_optimal() {
            pool.push(Instance::new(graph, network));
        }
    }
    pool
}

/// A small fresh request: `instance` relabelled, under a random algorithm.
fn small_request(instance: &Instance, rng: &mut StdRng) -> Request {
    let mut req = Request::new(Instance::new(
        relabel(&instance.graph, rng),
        instance.network.clone(),
    ));
    req.algorithm = Some(ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())].to_string());
    req
}

/// The graphs of the deadline-carrying requests: A* runs for seconds on
/// each, so a request can only end on its deadline.  A fixed pool, each
/// request a fresh relabelling, keeps the work behind a deadline the same
/// from seed to seed.
const HARD_POOL: [(usize, f64, u64); 4] = [(14, 1.0, 2), (15, 0.1, 2), (16, 1.0, 1), (16, 1.0, 2)];

fn hard_request(rng: &mut StdRng) -> Request {
    hard_request_on(HARD_POOL[rng.gen_range(0..HARD_POOL.len())], rng)
}

fn hard_request_on((nodes, ccr, graph_seed): (usize, f64, u64), rng: &mut StdRng) -> Request {
    let graph = relabel(&paper_graph(nodes, ccr, graph_seed), rng);
    let mut req = Request::new(Instance::new(graph, ProcNetwork::fully_connected(4)));
    req.algorithm = Some("astar".to_string());
    req.deadline_ms = Some(DEADLINE_MS);
    req
}

/// The request schedule for `seed`: `count` requests at [`RATE_RPS`], the
/// fresh ones drawn in order from `pool`.
fn plan(seed: u64, count: usize, pool: &[Instance]) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = pool.iter();
    let mut requests: Vec<(Request, f64)> = Vec::with_capacity(count);
    // Indices of fresh requests whose answers the service memoizes.
    let mut memoizable: Vec<usize> = Vec::new();
    let mut slot = 0usize;
    while requests.len() < count {
        let id = requests.len() as u64;
        let roll = rng.gen_range(0..100u32);
        // Memoizable originals at least 50 requests back.
        let far = memoizable.partition_point(|&j| j + 50 <= requests.len());
        let previous = requests.len().checked_sub(1);
        let (mut request, due) = if roll < 5 {
            (hard_request(&mut rng), slot as f64 / RATE_RPS)
        } else if roll < 17 && far > 0 {
            (
                requests[memoizable[rng.gen_range(0..far)]].0.clone(),
                slot as f64 / RATE_RPS,
            )
        } else if roll < 30 && previous.is_some() && memoizable.last() == previous.as_ref() {
            // Right behind its original, at the same due time.
            let (original, due) = &requests[requests.len() - 1];
            requests.push((
                Request {
                    id: Some(id),
                    ..original.clone()
                },
                *due,
            ));
            continue;
        } else {
            let req = small_request(
                fresh.next().expect("the pool holds a request per slot"),
                &mut rng,
            );
            if req.algorithm.as_deref() != Some("list") {
                memoizable.push(requests.len());
            }
            (req, slot as f64 / RATE_RPS)
        };
        request.id = Some(id);
        requests.push((request, due));
        slot += 1;
    }
    requests
        .into_iter()
        .map(|(request, due)| Planned {
            line: serde_json::to_string(&request).expect("requests serialise"),
            request,
            due,
        })
        .collect()
}

/// Starts a runtime and answers one request per `warmup` instance (none of
/// them in the mix).
fn start_warm(seed: u64, warmup: &[Instance]) -> (SchedulingService, ServiceRuntime) {
    let service = SchedulingService::new(ServiceConfig::default());
    let runtime = ServiceRuntime::start(&service);
    let (mut conn, replies) = runtime.open();
    let mut rng = StdRng::seed_from_u64(seed);
    for instance in warmup {
        conn.submit(small_request(instance, &mut rng));
    }
    drop(conn);
    while replies.recv().is_ok() {}
    (service, runtime)
}

/// What one open-loop run observed.
struct OpenLoop {
    /// `(seq, latency from due time in seconds, response line)`.
    received: Vec<(u64, f64, String)>,
    /// How late the generator submitted each request, ms.
    lags_ms: Vec<f64>,
    /// From the first due time to the last response line, seconds.
    span: f64,
    /// The runtime's `{"type": "stats"}` report after the run.
    stats: Option<StatsReport>,
}

fn open_loop(runtime: &ServiceRuntime, plan: &[Planned]) -> OpenLoop {
    let (mut conn, replies) = runtime.open();
    let start = Instant::now() + Duration::from_millis(20);
    let (received, lags_ms) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::with_capacity(plan.len());
            while let Ok(reply) = replies.recv() {
                let line = match &reply.body {
                    ReplyBody::Response(r) => serde_json::to_string(r),
                    ReplyBody::Stats(s) => serde_json::to_string(s),
                }
                .expect("responses serialise");
                out.push((reply.seq, Instant::now(), line));
            }
            out
        });
        let mut lags_ms = Vec::with_capacity(plan.len());
        for p in plan {
            let due = start + Duration::from_secs_f64(p.due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lags_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            conn.submit_line(&p.line);
        }
        drop(conn);
        (
            collector.join().expect("response collector panicked"),
            lags_ms,
        )
    });
    let received: Vec<(u64, f64, String)> = received
        .into_iter()
        .map(|(seq, at, line)| {
            let due =
                start + Duration::from_secs_f64(plan.get(seq as usize).map_or(0.0, |p| p.due));
            (seq, at.saturating_duration_since(due).as_secs_f64(), line)
        })
        .collect();
    let last = received
        .iter()
        .map(|r| r.1 + plan.get(r.0 as usize).map_or(0.0, |p| p.due))
        .fold(0.0, f64::max);
    let stats = {
        let (mut conn, replies) = runtime.open();
        conn.submit_line(r#"{"type": "stats"}"#);
        drop(conn);
        replies.recv().ok().and_then(|reply| reply.stats().cloned())
    };
    OpenLoop {
        received,
        lags_ms,
        span: last,
        stats,
    }
}

/// Checks every response line against its request and turns it into an
/// [`Op`].  Exactly one line per request, every ok schedule valid.
/// Also returns how many responses were cache hits.
fn check_responses(report: &mut Report, plan: &[Planned], run: &OpenLoop) -> (Vec<Op>, usize) {
    report.check(run.received.len() == plan.len(), || {
        format!(
            "{} response lines for {} request lines",
            run.received.len(),
            plan.len()
        )
    });
    let mut seen = vec![false; plan.len()];
    let mut ops = Vec::with_capacity(plan.len());
    let mut hits = 0;
    for (seq, latency, line) in &run.received {
        let Some(p) = plan.get(*seq as usize) else {
            report.fail(format!("response for unknown request {seq}"));
            continue;
        };
        if std::mem::replace(&mut seen[*seq as usize], true) {
            report.fail(format!("two responses for request {seq}"));
        }
        let resp: Response = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("request {seq}: unparseable response line: {e}"));
                continue;
            }
        };
        hits += usize::from(resp.cache_hit);
        let mut ok = resp.ok && resp.id == p.request.id.unwrap_or(u64::MAX);
        if p.request.deadline_ms.is_some() && resp.quality.as_deref() == Some("optimal") {
            report.fail(format!(
                "request {seq}: a deadline request finished inside its deadline"
            ));
        }
        if resp.ok {
            let inst = &p.request.instance;
            match &resp.schedule {
                Some(s)
                    if s.validate(&inst.graph, &inst.network).is_ok()
                        && resp.schedule_length == Some(s.makespan()) => {}
                _ => {
                    report.fail(format!(
                        "request {seq}: response schedule does not validate"
                    ));
                    ok = false;
                }
            }
        }
        ops.push(Op {
            wall: *latency,
            promise: p
                .request
                .deadline_ms
                .map_or(resp.elapsed_ms / 1e3, |d| d as f64 / 1e3),
            budgeted: p.request.deadline_ms.is_some(),
            expanded: if resp.cache_hit { 0 } else { resp.expanded },
            ok,
            ..Op::default()
        });
    }
    let lag_p99 = nearest_rank(&sorted(&run.lags_ms), 99.0).unwrap_or(0.0);
    report.check(lag_p99 <= LAG_LIMIT_MS, || {
        format!("invalid run: the generator fell behind its schedule (p99 lag {lag_p99:.2} ms > {LAG_LIMIT_MS} ms)")
    });
    let answered = ops.iter().filter(|op| op.ok).count();
    report.check(samples_beyond(answered, 99.0) >= 10, || {
        format!("only {answered} ok latencies: fewer than ten beyond the p99")
    });
    (ops, hits)
}

/// `service_mix`.
pub fn service_mix(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let count = MIN_REQUESTS.max((RATE_RPS * seconds) as usize);
    let mut measured = Measured::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        // Shut the previous set-up's runtime down before timing the next.
        drop(setup.take());
        setup = Some(measured.set_up(|| {
            let pool = small_pool(count + WARMUP);
            let planned = plan(seed, count, &pool[..count]);
            let (service, runtime) = start_warm(seed, &pool[count..]);
            (planned, service, runtime)
        }));
    }
    let (planned, service, runtime) = setup.expect("at least one set-up");
    mem::reset_peak();
    let run = open_loop(&runtime, &planned);
    let peak = mem::peak();
    runtime.shutdown();
    let (ops, hits) = check_responses(report, &planned, &run);

    if trace {
        let ok = ops.iter().filter(|op| op.ok).count();
        report.attempted = planned.len() as u64;
        report.set("service.cache_hit_rate", hits as f64 / ok.max(1) as f64);
        report.set(
            "service.generator_lag_ms",
            nearest_rank(&sorted(&run.lags_ms), 99.0).unwrap_or(0.0),
        );
        if let Some(stats) = &run.stats {
            report.set("service.queue_wait_p50_ms", stats.queue_wait_p50_ms);
            report.set("service.queue_wait_p99_ms", stats.queue_wait_p99_ms);
            report.set("service.peak_pending", stats.peak_pending as f64);
        } else {
            report.fail("the runtime did not answer the stats verb");
        }
        drop(service);
        layer_pass(&planned, report);
        return;
    }

    let ok = ops.iter().filter(|op| op.ok).count();
    measured.passes.push(Pass { ops });
    measured.end_to_end(report);
    // One pass: from the first due time to the last response line.
    report.set("solve_s", run.span);
    report.set("peak_rss_mb", peak as f64 / 1e6);
    report.set("bytes_per_state", deadline_bytes_per_state(seed));
    // Open loop: answers per second of the offered schedule.
    report.set("goodput_rps", ok as f64 / run.span);
}

/// Deadline requests replayed for the memory measure.
const MEMORY_REPLAYS: usize = 16;

/// The expansion budget that stands in for the deadline in the replays:
/// about what 40 ms buys.
const MEMORY_REPLAY_EXPANSIONS: u64 = 8000;

/// Peak-RSS growth per expanded state of deadline requests, replayed one
/// at a time through a fresh service after the open-loop run, each with its
/// deadline swapped for a fixed expansion budget.  With two workers and the
/// allocator's per-thread arenas, the growth of the concurrent run depends
/// on which searches overlap, and a deadline makes the work depend on the
/// machine's speed.  Every deadline graph is replayed equally often (the
/// seed relabels them): the graphs differ in bytes per state, and a mix
/// drawn by the seed would make the seed move the metric.  The wire
/// protocol reports expanded, not generated, states.
fn deadline_bytes_per_state(seed: u64) -> f64 {
    let service = SchedulingService::new(ServiceConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut growth, mut expanded) = (0u64, 0u64);
    for i in 0..MEMORY_REPLAYS {
        let request = Request {
            deadline_ms: None,
            max_expansions: Some(MEMORY_REPLAY_EXPANSIONS),
            ..hard_request_on(HARD_POOL[i % HARD_POOL.len()], &mut rng)
        };
        let before = mem::reset_peak();
        let resp = service.handle_request(&request, i as u64);
        growth += mem::peak().saturating_sub(before);
        expanded += resp.expanded;
    }
    growth as f64 / expanded.max(1) as f64
}

/// Times the service layers in one single-threaded pass over the planned
/// lines (parse, handle, serialise, client validation; resolve,
/// canonicalise and problem build as side calls outside the pass), then
/// repeats the pass without timers for the tracing overhead.
fn layer_pass(plan: &[Planned], report: &mut Report) {
    let mean_us = |v: &[Duration]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<Duration>().as_secs_f64() * 1e6 / v.len() as f64
        }
    };
    let service = SchedulingService::new(ServiceConfig::default());
    let [mut parse, mut resolve, mut canon, mut build, mut hit, mut miss, mut serialise, mut validate] =
        std::array::from_fn(|_| Vec::with_capacity(plan.len()));
    let mut side = Duration::ZERO;
    let pass = Instant::now();
    for (i, p) in plan.iter().enumerate() {
        let t = Instant::now();
        let req: Request = serde_json::from_str(&p.line).expect("planned lines parse");
        parse.push(t.elapsed());

        let side_start = Instant::now();
        let t = Instant::now();
        std::hint::black_box(service.resolve_algorithm(&req));
        resolve.push(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(canonical_signature(&req.instance));
        canon.push(t.elapsed());
        let (graph, network) = (req.instance.graph.clone(), req.instance.network.clone());
        let t = Instant::now();
        let problem = SchedulingProblem::new(graph, network);
        build.push(t.elapsed());
        drop(problem);
        side += side_start.elapsed();

        let t = Instant::now();
        let resp = service.handle_request(&req, i as u64);
        if resp.cache_hit { &mut hit } else { &mut miss }.push(t.elapsed());
        let t = Instant::now();
        let line = serde_json::to_string(&resp).expect("responses serialise");
        serialise.push(t.elapsed());
        let t = Instant::now();
        let valid = resp
            .schedule
            .as_ref()
            .map(|s| s.validate(&req.instance.graph, &req.instance.network));
        validate.push(t.elapsed());
        report.check(resp.ok && matches!(valid, Some(Ok(()))), || {
            format!("request {i}: no valid schedule")
        });
        std::hint::black_box(line);
    }
    let timed = pass.elapsed().saturating_sub(side);

    let service = SchedulingService::new(ServiceConfig::default());
    let pass = Instant::now();
    for (i, p) in plan.iter().enumerate() {
        let req: Request = serde_json::from_str(&p.line).expect("planned lines parse");
        let resp = service.handle_request(&req, i as u64);
        let line = serde_json::to_string(&resp).expect("responses serialise");
        let valid = resp
            .schedule
            .as_ref()
            .map(|s| s.validate(&req.instance.graph, &req.instance.network));
        std::hint::black_box((line, valid));
    }
    let plain = pass.elapsed();

    report.set("service.parse_us", mean_us(&parse));
    report.set("service.resolve_us", mean_us(&resolve));
    report.set("service.canon_us", mean_us(&canon));
    report.set("service.hit_us", mean_us(&hit));
    report.set("service.miss_ms", mean_us(&miss) / 1e3);
    report.set("service.serialise_us", mean_us(&serialise));
    report.set("problem.build_ms", mean_us(&build) / 1e3);
    report.set("schedule.validate_us", mean_us(&validate));
    report.set(
        "trace.overhead_pct",
        (timed.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
    );
    let layers: Duration = [&parse, &hit, &miss, &serialise, &validate]
        .iter()
        .flat_map(|v| v.iter())
        .sum();
    report.set(
        "trace.coverage_pct",
        layers.as_secs_f64() / timed.as_secs_f64() * 100.0,
    );
}
