//! The global service runtime: **one** worker pool shared by every
//! connection of every transport.
//!
//! The previous pool (`pool.rs` before this runtime existed) spawned a full
//! worker pool per accepted connection — N connections cost N × workers
//! threads and convoyed each other's requests behind their private queues.
//! The runtime inverts that shape:
//!
//! ```text
//!  conn 0 reader ─┐                        ┌─ worker 0 ─┐
//!  conn 1 reader ─┼──▶ shared injector ────┼─ worker 1 ─┼──▶ per-conn writers
//!  conn 2 reader ─┘    (MPMC channel)      └─ worker W ─┘    (seq-reordered)
//! ```
//!
//! * **Readers** parse one JSON line at a time, run *admission control*
//!   (below) and tag every accepted request with their connection id and a
//!   per-connection sequence number before pushing it onto the shared
//!   injector.  Malformed lines and shed requests are answered by the
//!   reader directly — they never occupy a worker.
//! * **Workers** (exactly
//!   [`ServiceConfig::workers`](crate::ServiceConfig::workers) threads,
//!   however many connections exist) pull from the shared injector: an idle worker takes
//!   the next job immediately, so one expensive exact request occupies one
//!   worker while cheap requests flow through the others — the
//!   work-stealing property that per-connection (or per-worker) FIFO queues
//!   cannot give.  Jobs whose cache identity is already being solved are
//!   *coalesced*: they park on the in-flight entry and are answered right
//!   after the leader completes (from the then-warm cache), so duplicate
//!   instances cost one search no matter how they race.
//! * **Writers** (one per connection) buffer worker replies by sequence
//!   number and emit them in request arrival order, so every connection
//!   observes FIFO responses even though the shared pool completes out of
//!   order, and one connection's replies can never reach another.
//!
//! **Admission control.**  The number of admitted-but-unanswered requests is
//! bounded by
//! [`ServiceConfig::admission_budget`](crate::ServiceConfig::admission_budget)
//! across all connections (a CAS reservation — see
//! [`ServiceMetrics::try_reserve_pending`](crate::ServiceMetrics::try_reserve_pending)).
//! At or beyond
//! [`ServiceConfig::degrade_threshold`](crate::ServiceConfig::degrade_threshold)
//! pending requests, an admitted request is rewritten to deadline-clamped
//! `wastar` (response marked `degraded`); with the budget exhausted it is refused outright with a
//! structured `overloaded` response (`shed`).  Either way the caller gets
//! exactly one response per request and the queue cannot grow unboundedly.
//!
//! **Shutdown.**  [`ServiceRuntime::shutdown`] closes the injector and joins
//! the workers, which first drain every job still queued — a graceful drain,
//! asserted by the soak test.  All [`Connection`]s must be finished first
//! (they hold injector handles).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use optsched_obs as obs;
use parking_lot::Mutex;

use crate::metrics::Admission;
use crate::protocol::{AdminRequest, Request, Response, StatsReport};
use crate::service::SchedulingService;

/// In-flight coalescing key: requests with equal cache identity are answered
/// by one search.  The trailing byte is the resolved plan band (direct /
/// auto-exact / auto-anytime / auto-race), so an `auto` request only ever
/// coalesces with requests its portfolio resolution actually matches.
type FlightKey = (u64, String, u64, u8);

/// One admitted, tagged request travelling to a worker.
struct Job {
    /// Per-connection arrival sequence number — the writer's ordering key
    /// and the fallback response id.
    seq: u64,
    request: Request,
    /// Set when admission control degraded this request.
    degraded: bool,
    /// When admission control accepted the request.  A `deadline_ms` is a
    /// promise measured from here, not from when a worker frees up: the
    /// worker subtracts the queue wait from the search budget (see
    /// [`answer`]), so a request that waited out its whole deadline gets an
    /// immediate anytime answer instead of a full search.
    admitted: Instant,
    /// Reply route back to the owning connection's writer.
    reply: Sender<Reply>,
    /// The owning connection's tracing track (timeline row).
    track: u64,
}

/// One reply tagged with its per-connection sequence number.
#[derive(Debug)]
pub struct Reply {
    /// The request's per-connection arrival sequence number.
    pub seq: u64,
    /// What the reply carries.
    pub body: ReplyBody,
}

/// The payload of a [`Reply`]: a scheduling response, or the answer to an
/// admin verb.
#[derive(Debug)]
pub enum ReplyBody {
    /// A scheduling (or structured-error) response.
    Response(Response),
    /// The answer to a `{"type": "stats"}` admin line.
    Stats(StatsReport),
}

impl Reply {
    /// The scheduling response, if this reply is one.
    pub fn response(&self) -> Option<&Response> {
        match &self.body {
            ReplyBody::Response(r) => Some(r),
            ReplyBody::Stats(_) => None,
        }
    }

    /// Consumes the reply into its scheduling response, if it is one.
    pub fn into_response(self) -> Option<Response> {
        match self.body {
            ReplyBody::Response(r) => Some(r),
            ReplyBody::Stats(_) => None,
        }
    }

    /// The stats report, if this reply is one.
    pub fn stats(&self) -> Option<&StatsReport> {
        match &self.body {
            ReplyBody::Response(_) => None,
            ReplyBody::Stats(s) => Some(s),
        }
    }
}

/// State shared between the runtime, its workers and every connection.
struct Shared {
    service: SchedulingService,
    /// Cache identities currently being solved, each with the jobs parked
    /// behind the solver ("singleflight"): a duplicate arriving while its
    /// original is mid-search waits for that search instead of racing it.
    in_flight: Mutex<HashMap<FlightKey, Vec<Job>>>,
}

/// The global worker pool.  Create one per process (or per listener) with
/// [`ServiceRuntime::start`]; open any number of concurrent [`Connection`]s
/// against it; [`ServiceRuntime::shutdown`] drains and joins.
pub struct ServiceRuntime {
    shared: Arc<Shared>,
    /// The runtime's injector handle; every connection clones it, and
    /// dropping all clones (shutdown + finished connections) hangs the
    /// workers up.
    injector: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceRuntime {
    /// Starts the pool: exactly `service.config().workers` (≥ 1) worker
    /// threads pulling from one shared injector.  The service handle is
    /// cloned — cache, metrics and configuration stay shared with the
    /// caller's handle.
    pub fn start(service: &SchedulingService) -> ServiceRuntime {
        // A configured trace path turns event/span collection on for the
        // runtime's lifetime; shutdown drains the rings into the file.
        if service.config().trace_path.is_some() {
            obs::set_enabled(true);
        }
        let workers = service.config().workers.max(1);
        let shared = Arc::new(Shared {
            service: service.clone(),
            in_flight: Mutex::new(HashMap::new()),
        });
        let (injector, jobs) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let jobs = jobs.clone();
                std::thread::spawn(move || worker_loop(&shared, &jobs))
            })
            .collect();
        ServiceRuntime { shared, injector, workers: handles }
    }

    /// The configured pool size.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The service this runtime answers for (shared cache/metrics handle).
    pub fn service(&self) -> &SchedulingService {
        &self.shared.service
    }

    /// Opens a programmatic connection: a submission handle plus the
    /// receiver its replies arrive on (unordered, tagged with `seq`; the
    /// IO transports reorder — see [`ServiceRuntime::serve_connection`]).
    /// The receiver disconnects once the handle is dropped *and* every
    /// admitted request has been answered.
    pub fn open(&self) -> (Connection, Receiver<Reply>) {
        let (reply_tx, reply_rx) = unbounded::<Reply>();
        (
            Connection {
                shared: Arc::clone(&self.shared),
                injector: self.injector.clone(),
                reply: reply_tx,
                seq: 0,
                track: if obs::enabled() { obs::next_track() } else { 0 },
            },
            reply_rx,
        )
    }

    /// Serves one JSON-lines connection over the shared pool: requests in on
    /// `input` (one per line; empty lines skipped), responses out on
    /// `output` in request arrival order.  Returns the connection's tally.
    ///
    /// The calling thread is the writer; a scoped thread reads.  A response
    /// is flushed as soon as it *and every response before it* is done, so a
    /// slow request delays its successors' output but their searches still
    /// proceed concurrently on the pool.
    pub fn serve_connection<R, W>(&self, input: R, output: &mut W) -> io::Result<PoolSummary>
    where
        R: BufRead + Send,
        W: Write,
    {
        let (mut conn, replies) = self.open();
        let track = conn.track;
        std::thread::scope(|scope| -> io::Result<PoolSummary> {
            let reader = scope.spawn(move || -> io::Result<()> {
                for line in input.lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    conn.submit_line(&line);
                }
                Ok(()) // dropping `conn` closes this connection's reply route
            });

            // Writer: reorder worker completions back into arrival order.
            let mut summary = PoolSummary::default();
            let mut pending_out: BTreeMap<u64, ReplyBody> = BTreeMap::new();
            let mut next_seq = 0u64;
            let mut io_result: io::Result<()> = Ok(());
            while let Ok(reply) = replies.recv() {
                pending_out.insert(reply.seq, reply.body);
                while let Some(body) = pending_out.remove(&next_seq) {
                    let seq = next_seq;
                    next_seq += 1;
                    let line = match &body {
                        ReplyBody::Response(resp) => {
                            summary.tally(resp);
                            serde_json::to_string(resp)
                        }
                        ReplyBody::Stats(report) => {
                            // An admin reply is one response line like any
                            // other for the one-line-per-request contract.
                            summary.responses += 1;
                            serde_json::to_string(report)
                        }
                    };
                    if io_result.is_ok() {
                        let _write_span = obs::span("write", track).with_arg("seq", seq);
                        io_result = line
                            .map_err(io::Error::other)
                            .and_then(|line| writeln!(output, "{line}"))
                            .and_then(|()| output.flush());
                        // A dead client stops the writing, not the draining:
                        // the loop keeps consuming replies so the pool's
                        // pending accounting settles, then reports the error.
                    }
                }
            }
            debug_assert!(pending_out.is_empty(), "every admitted seq must be answered");
            let read_result = reader.join().expect("connection reader panicked");
            io_result?;
            read_result?;
            Ok(summary)
        })
    }

    /// Closes the injector and joins the workers after they drain every job
    /// still queued.  Call once all connections are finished (their handles
    /// keep the injector open).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down (Drop after an explicit shutdown)
        }
        // Replace the held injector with a dangling one so the workers'
        // receive side disconnects as soon as the connections are done.
        let (dangling, _) = unbounded::<Job>();
        drop(std::mem::replace(&mut self.injector, dangling));
        for handle in self.workers.drain(..) {
            handle.join().expect("service worker panicked");
        }
        if let Some(path) = &self.shared.service.config().trace_path {
            obs::set_enabled(false);
            match obs::save_chrome_trace(path) {
                Ok(n) => eprintln!("trace: wrote {n} events to {path}"),
                Err(e) => eprintln!("trace: failed to write {path}: {e}"),
            }
        }
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The submission half of one connection (see [`ServiceRuntime::open`]).
/// Dropping it signals end-of-input for the connection.
pub struct Connection {
    shared: Arc<Shared>,
    injector: Sender<Job>,
    reply: Sender<Reply>,
    seq: u64,
    /// The connection's tracing track: its requests' read/queue-wait/search/
    /// write spans share one timeline row.
    track: u64,
}

impl Connection {
    /// Parses and submits one JSON line.  Malformed lines and admin verbs
    /// (`{"type": "stats"}`) are answered by the reader immediately (no
    /// worker involved).  Returns what admission control decided (`None` for
    /// non-scheduling lines), and the sequence number the reply will carry.
    pub fn submit_line(&mut self, line: &str) -> (u64, Option<Admission>) {
        let started = Instant::now();
        let _read_span = obs::span("read", self.track);
        match serde_json::from_str::<Request>(line) {
            Ok(request) => {
                let (seq, admission) = self.submit_at(request, started);
                (seq, Some(admission))
            }
            Err(parse_err) => {
                let seq = self.next_seq();
                // A scheduling request can never reach this branch (it parsed
                // above), so a line carrying `"type"` is an admin verb.
                if let Ok(admin) = serde_json::from_str::<AdminRequest>(line) {
                    if admin.verb == "stats" {
                        let report =
                            self.shared.service.stats_report(admin.id.unwrap_or(seq));
                        self.shared
                            .service
                            .metrics()
                            .responses
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = self.reply.send(Reply { seq, body: ReplyBody::Stats(report) });
                    } else {
                        let id = admin.id.unwrap_or(seq);
                        let response =
                            Response::error(id, format!("unknown admin verb `{}`", admin.verb));
                        self.deliver_timed(seq, started, response);
                    }
                    return (seq, None);
                }
                let response = Response::error(seq, format!("malformed request: {parse_err}"));
                self.deliver_timed(seq, started, response);
                (seq, None)
            }
        }
    }

    /// Runs admission control on one parsed request and either enqueues it
    /// (possibly degraded) or answers it shed, returning the decision and
    /// the reply's sequence number.
    pub fn submit(&mut self, request: Request) -> (u64, Admission) {
        self.submit_at(request, Instant::now())
    }

    fn submit_at(&mut self, mut request: Request, started: Instant) -> (u64, Admission) {
        let seq = self.next_seq();
        let metrics = self.shared.service.metrics();
        let (budget, degrade_threshold, degrade_deadline_ms) = {
            let config = self.shared.service.config();
            (config.admission_budget, config.degrade_threshold, config.degrade_deadline_ms)
        };
        metrics.submitted.fetch_add(1, Ordering::Relaxed);

        if !metrics.try_reserve_pending(budget) {
            metrics.shed.fetch_add(1, Ordering::Relaxed);
            obs::instant("shed", self.track, "seq", seq);
            let id = request.id.unwrap_or(seq);
            self.deliver_timed(seq, started, Response::overloaded(id, budget));
            return (seq, Admission::Shed);
        }

        // Past the degrade threshold, the backlog must drain at heuristic
        // speed: the request loses its algorithm choice and becomes
        // deadline-clamped wastar.  (`pending` was just raised past the
        // threshold check value, hence `>`.)
        let pending = metrics.pending.load(Ordering::Relaxed);
        let degraded = pending > degrade_threshold;
        if degraded {
            metrics.degraded.fetch_add(1, Ordering::Relaxed);
            obs::instant("degraded", self.track, "seq", seq);
            request.algorithm = Some("wastar".to_string());
            request.deadline_ms = Some(
                request
                    .deadline_ms
                    .map_or(degrade_deadline_ms, |d| d.min(degrade_deadline_ms)),
            );
        }

        // Admission is timed from submission entry (`started`), so the queue
        // wait charged against the deadline includes the reader's own work.
        let job = Job {
            seq,
            request,
            degraded,
            admitted: started,
            reply: self.reply.clone(),
            track: self.track,
        };
        // A failed send means the runtime already shut down; answer shed so
        // the caller still gets its one structured response per request.
        if let Err(send_err) = self.injector.send(job) {
            metrics.release_pending();
            metrics.shed.fetch_add(1, Ordering::Relaxed);
            let id = send_err.0.request.id.unwrap_or(seq);
            self.deliver_timed(seq, started, Response::overloaded(id, budget));
            return (seq, Admission::Shed);
        }
        (seq, if degraded { Admission::Degraded } else { Admission::Enqueued })
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Sends a reader-generated (malformed/shed/admin-error) reply to this
    /// connection's writer — through the same elapsed-time helper and
    /// end-to-end histogram as worker-answered responses, so *every*
    /// response is timed uniformly.
    fn deliver_timed(&self, seq: u64, started: Instant, mut response: Response) {
        let metrics = self.shared.service.metrics();
        metrics.stamp_elapsed(started, &mut response);
        metrics.observe_e2e(started);
        metrics.responses.fetch_add(1, Ordering::Relaxed);
        let _ = self.reply.send(Reply { seq, body: ReplyBody::Response(response) });
    }
}

/// What one connection processed, for callers that assert on the outcome
/// (the `batch` front end, the CI smoke test, and the load/soak tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSummary {
    /// Responses written (one per non-empty input line).
    pub responses: u64,
    /// Responses with `ok == false` (malformed requests, unknown
    /// algorithms, shed requests, …).
    pub errors: u64,
    /// Responses served from the memoizing result cache.
    pub cache_hits: u64,
    /// Requests refused by admission control (`overloaded`).
    pub shed: u64,
    /// Requests degraded to deadline-clamped `wastar` under overload.
    pub degraded: u64,
}

impl PoolSummary {
    /// Accounts one response.
    fn tally(&mut self, resp: &Response) {
        self.responses += 1;
        if !resp.ok {
            self.errors += 1;
        }
        if resp.cache_hit {
            self.cache_hits += 1;
        }
        if resp.shed {
            self.shed += 1;
        }
        if resp.degraded {
            self.degraded += 1;
        }
    }
}

/// One worker: pull a job from the shared injector, solve it (or park it
/// behind an identical in-flight job), answer the parked duplicates once the
/// leader completes.
fn worker_loop(shared: &Shared, jobs: &Receiver<Job>) {
    shared.service.metrics().workers_spawned.fetch_add(1, Ordering::Relaxed);
    while let Ok(job) = jobs.recv() {
        // A request that fails resolution (invalid parameters, an unknown
        // algorithm) has no identity to coalesce on; answer it directly (the
        // structured error).
        let key = match shared.service.cache_identity(&job.request) {
            Ok(key) => key,
            Err(_) => {
                answer(shared, job, false);
                continue;
            }
        };
        let job = {
            let mut in_flight = shared.in_flight.lock();
            match in_flight.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    // An identical request is mid-search on another worker:
                    // park this one; the leader answers it on completion
                    // (from the then-memoized result).
                    entry.get_mut().push(job);
                    continue;
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(Vec::new());
                    job
                }
            }
        };
        answer(shared, job, false);
        // Everything that parked behind this search is a warm-cache answer
        // now (or, for non-memoized deadline runs, a cheap re-run).
        let waiters = shared.in_flight.lock().remove(&key).unwrap_or_default();
        for waiter in waiters {
            answer(shared, waiter, true);
        }
    }
}

/// Solves one job and routes the reply to its connection.
///
/// The job's `deadline_ms` is re-based to the time *remaining* since
/// admission before the search starts: queue wait spends the caller's
/// deadline exactly like search time does, so an admitted request that went
/// stale behind a backlog stops at its original deadline with the anytime
/// incumbent rather than running its full budget late.
fn answer(shared: &Shared, job: Job, coalesced: bool) {
    let metrics = shared.service.metrics();
    let waited = job.admitted.elapsed();
    metrics.observe_queue_wait(waited);
    if obs::enabled() {
        // Reconstruct the wait as a span ending now: the ring only sees
        // completed spans, so the guard pattern cannot cover a wait that
        // started on another thread.  Coalesced waiters waited on the
        // leader's search, not the injector, hence the distinct name.
        let waited_us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
        obs::record(obs::Event {
            name: if coalesced { "coalesce_wait" } else { "queue_wait" },
            parent: "",
            kind: obs::EventKind::Span,
            ts_us: obs::now_us().saturating_sub(waited_us),
            dur_us: waited_us,
            track: job.track,
            arg_name: "seq",
            arg: job.seq,
        });
    }
    let mut request = job.request;
    if let Some(deadline) = request.deadline_ms {
        let waited_ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
        request.deadline_ms = Some(deadline.saturating_sub(waited_ms));
    }
    let mut response = {
        let _search_span = obs::span("search", job.track).with_arg("seq", job.seq);
        shared.service.handle_request(&request, job.seq)
    };
    response.degraded = job.degraded;
    metrics.observe_peak_live_records(response.peak_live_records);
    metrics.observe_e2e(job.admitted);
    metrics.responses.fetch_add(1, Ordering::Relaxed);
    // The send fails only if the connection's writer already went away (a
    // dead client); the request is still accounted as answered.
    let _ = job.reply.send(Reply { seq: job.seq, body: ReplyBody::Response(response) });
    metrics.release_pending();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Instance;
    use crate::service::ServiceConfig;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    fn example_request(id: u64) -> Request {
        let mut req = Request::new(Instance::new(paper_example_dag(), ProcNetwork::ring(3)));
        req.id = Some(id);
        req
    }

    #[test]
    fn open_connection_round_trip() {
        let service = SchedulingService::new(ServiceConfig { workers: 2, ..Default::default() });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        let (seq, admission) = conn.submit(example_request(7));
        assert_eq!(seq, 0);
        assert_eq!(admission, Admission::Enqueued);
        drop(conn);
        let got: Vec<Reply> = replies.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 0);
        let resp = got[0].response().expect("scheduling reply");
        assert!(resp.ok);
        assert_eq!(resp.id, 7);
        assert!(
            resp.peak_live_records > 0,
            "a solved (non-cached) response reports its store footprint"
        );
        runtime.shutdown();
        let snap = service.metrics_snapshot();
        assert_eq!(snap.pending, 0);
        assert_eq!(
            snap.peak_live_records, resp.peak_live_records,
            "the service gauge tracks the worst per-request footprint"
        );
    }

    #[test]
    fn zero_budget_sheds_with_a_structured_response() {
        let service = SchedulingService::new(ServiceConfig {
            workers: 1,
            admission_budget: 0,
            ..Default::default()
        });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        let (_, admission) = conn.submit(example_request(3));
        assert_eq!(admission, Admission::Shed);
        drop(conn);
        let got: Vec<Reply> = replies.iter().collect();
        assert_eq!(got.len(), 1);
        let resp = got[0].response().expect("scheduling reply");
        assert!(!resp.ok);
        assert!(resp.shed && resp.is_overloaded());
        assert_eq!(resp.id, 3);
        assert!(resp.error.as_deref().unwrap().starts_with("overloaded"));
        runtime.shutdown();
        assert_eq!(service.metrics_snapshot().shed, 1);
    }

    #[test]
    fn degrade_threshold_rewrites_to_deadline_clamped_wastar() {
        // Threshold 0: every admitted request is beyond it and degrades.
        let service = SchedulingService::new(ServiceConfig {
            workers: 1,
            degrade_threshold: 0,
            degrade_deadline_ms: 0,
            ..Default::default()
        });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        let (_, admission) = conn.submit(example_request(1));
        assert_eq!(admission, Admission::Degraded);
        drop(conn);
        let got: Vec<Reply> = replies.iter().collect();
        assert_eq!(got.len(), 1);
        let resp = got[0].response().expect("scheduling reply");
        assert!(resp.ok, "{:?}", resp.error);
        assert!(resp.degraded);
        assert_eq!(resp.algorithm.as_deref(), Some("wastar"));
        runtime.shutdown();
        let snap = service.metrics_snapshot();
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.pending, 0);
    }

    /// A request whose parameters fail resolution (no coalescing identity)
    /// still gets exactly one structured error response and releases its
    /// pending slot.
    #[test]
    fn invalid_parameters_are_answered_without_coalescing() {
        let service = SchedulingService::new(ServiceConfig { workers: 1, ..Default::default() });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        let mut req = example_request(11);
        req.weight = Some(0.2);
        let (_, admission) = conn.submit(req);
        assert_eq!(admission, Admission::Enqueued);
        drop(conn);
        let got: Vec<Reply> = replies.iter().collect();
        assert_eq!(got.len(), 1);
        let resp = got[0].response().expect("scheduling reply");
        assert!(!resp.ok);
        assert_eq!(resp.id, 11);
        assert!(resp.error.as_deref().unwrap().contains("weight"), "{:?}", resp.error);
        runtime.shutdown();
        assert_eq!(service.metrics_snapshot().pending, 0);
    }

    /// Queue wait spends the deadline: a job whose admission timestamp lies
    /// a full deadline in the past is answered with the anytime incumbent,
    /// while the same request admitted just now gets its full search.
    #[test]
    fn queue_wait_counts_against_the_deadline() {
        use optsched_workload::{generate_random_dag, RandomDagConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5);
        let graph =
            generate_random_dag(&RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() }, &mut rng);
        let mut request = Request::new(Instance::new(graph, ProcNetwork::ring(3)));
        request.algorithm = Some("astar".to_string());
        request.deadline_ms = Some(5_000);

        let service = SchedulingService::new(ServiceConfig::default());
        let shared =
            Arc::new(Shared { service, in_flight: Mutex::new(HashMap::new()) });
        let (reply_tx, reply_rx) = unbounded::<Reply>();

        // Admitted 10 s ago: the 5 s deadline has fully elapsed in the
        // queue, so the worker must answer without an optimality proof.
        let stale_admitted = Instant::now()
            .checked_sub(std::time::Duration::from_secs(10))
            .expect("host has been up for more than ten seconds");
        shared.service.metrics().try_reserve_pending(u64::MAX);
        answer(
            &shared,
            Job {
                seq: 0,
                request: request.clone(),
                degraded: false,
                admitted: stale_admitted,
                reply: reply_tx.clone(),
                track: 0,
            },
            false,
        );
        let stale =
            reply_rx.recv().expect("stale job answered").into_response().expect("scheduling reply");
        assert!(stale.ok, "{:?}", stale.error);
        assert_ne!(
            stale.quality.as_deref(),
            Some("optimal"),
            "an expired deadline must not run the full search"
        );

        // The same request admitted now has its whole deadline left.
        shared.service.metrics().try_reserve_pending(u64::MAX);
        answer(
            &shared,
            Job {
                seq: 1,
                request,
                degraded: false,
                admitted: Instant::now(),
                reply: reply_tx,
                track: 0,
            },
            false,
        );
        let fresh =
            reply_rx.recv().expect("fresh job answered").into_response().expect("scheduling reply");
        assert_eq!(fresh.quality.as_deref(), Some("optimal"), "{:?}", fresh.error);
    }

    /// The `{"type": "stats"}` admin line is answered by the reader with a
    /// stats report (no worker, no admission slot), and the report reflects
    /// the scheduling traffic that preceded it on the same runtime.
    #[test]
    fn stats_admin_verb_reports_runtime_counters() {
        let service = SchedulingService::new(ServiceConfig { workers: 1, ..Default::default() });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        let line = serde_json::to_string(&example_request(5)).unwrap();
        conn.submit_line(&line);
        // Wait for the scheduling response first, so the stats snapshot
        // deterministically includes it.
        let first = replies.recv().expect("scheduling reply arrives");
        assert!(first.response().expect("scheduling reply").ok);
        let (seq, admission) = conn.submit_line(r#"{"type": "stats", "id": 42}"#);
        assert_eq!(seq, 1);
        assert_eq!(admission, None, "admin lines bypass admission control");
        let (_, admission) = conn.submit_line(r#"{"type": "flush"}"#);
        assert_eq!(admission, None);
        drop(conn);
        let mut got: Vec<Reply> = replies.iter().collect();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got.len(), 2);
        let report = got[0].stats().expect("stats reply");
        assert_eq!(report.id, 42);
        assert_eq!(report.submitted, 1, "admin lines are not submissions");
        assert!(report.e2e_count >= 1);
        assert!(report.e2e_p99_ms >= report.e2e_p50_ms);
        let unknown = got[1].response().expect("admin error is a response");
        assert!(!unknown.ok);
        assert!(unknown.error.as_deref().unwrap().contains("unknown admin verb"));
        runtime.shutdown();
        assert_eq!(service.metrics_snapshot().pending, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = SchedulingService::new(ServiceConfig { workers: 1, ..Default::default() });
        let runtime = ServiceRuntime::start(&service);
        let (mut conn, replies) = runtime.open();
        for i in 0..8 {
            conn.submit(example_request(i));
        }
        drop(conn);
        runtime.shutdown(); // must answer all 8 before joining
        assert_eq!(replies.iter().count(), 8);
        assert_eq!(service.metrics_snapshot().pending, 0);
    }
}
