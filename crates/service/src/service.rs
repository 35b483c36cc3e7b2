//! The request handler: parse → intern → cache → dispatch → validate → tag.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optsched::registry::SchedulerSpec;
use optsched_core::{SchedulingProblem, SearchConfig, SearchLimits, SearchOutcome, SearchResult};
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::cache::{CacheStats, CachedResult, ResultCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::portfolio::{self, PlanMode, ResolvedPlan};
use crate::protocol::{quality, Instance, Request, Response, StatsReport};
use crate::signature::CanonicalInstance;

/// Lock stripes of the memoizing result cache.
const CACHE_SHARDS: usize = 8;

/// Configuration of a [`SchedulingService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads of the global pool draining the shared request queue
    /// (shared by *all* connections — not a pool per connection).
    pub workers: usize,
    /// Per-shard entry cap of the result cache (a full shard evicts its
    /// least-recently-used entry); clamped to at least one entry per shard.
    pub cache_capacity: usize,
    /// Optional time-to-live of memoized results, in milliseconds: an entry
    /// older than this is lazily expired on lookup instead of served.
    /// `None` disables expiry.
    pub cache_max_age_ms: Option<u64>,
    /// Admission budget: the hard bound on admitted-but-unanswered requests
    /// across all connections.  A request arriving with the budget exhausted
    /// is refused with a structured `overloaded` response (shed) — the
    /// service never queues unboundedly.
    pub admission_budget: u64,
    /// Degrade threshold (≤ `admission_budget`): a request admitted while at
    /// least this many requests are already pending is rewritten to
    /// deadline-clamped `wastar` (response marked `degraded: true`) so the
    /// backlog drains at heuristic speed instead of exact-search speed.
    /// Setting this equal to `admission_budget` disables degradation
    /// (pure shed).
    pub degrade_threshold: u64,
    /// The deadline (ms) clamped onto degraded requests.
    pub degrade_deadline_ms: u64,
    /// Seed the serial searches from the list-scheduling upper bound
    /// ([`SearchConfig::seed_incumbent`]).  On by default in the
    /// service: callers pay for answers, not for faithful-to-1998 search
    /// trees.
    pub seed_incumbent: bool,
    /// Default ε for `aeps` requests that do not specify one.
    pub epsilon: f64,
    /// Heuristic weight for `wastar` — the service's deadline-pressure
    /// algorithm — when the request does not specify one.
    pub deadline_weight: f64,
    /// When set, the runtime enables event/span tracing for its lifetime and
    /// writes a Chrome trace-event JSON file (Perfetto-loadable) here on
    /// shutdown.  `None` (the default) keeps tracing disabled: every
    /// instrumentation site then costs one relaxed atomic load.
    pub trace_path: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache_capacity: crate::cache::DEFAULT_SHARD_CAPACITY,
            cache_max_age_ms: None,
            admission_budget: 256,
            degrade_threshold: 192,
            degrade_deadline_ms: 25,
            seed_incumbent: true,
            epsilon: 0.2,
            deadline_weight: 1.5,
            trace_path: None,
        }
    }
}

/// The scheduling service: stateless request handling over a shared
/// memoizing result cache and shared runtime counters.
///
/// A `SchedulingService` is a cheap *handle*: cloning it shares the cache,
/// the metrics and the configuration, so the global worker pool, every
/// transport and the reporting front end all observe one state.
/// `&SchedulingService` is also `Sync`, so a single handle can serve many
/// threads directly.
#[derive(Clone)]
pub struct SchedulingService {
    config: ServiceConfig,
    cache: Arc<ResultCache>,
    metrics: Arc<ServiceMetrics>,
}

impl SchedulingService {
    /// A service with the given configuration and an empty cache.
    pub fn new(config: ServiceConfig) -> SchedulingService {
        let cache = Arc::new(ResultCache::with_max_age(
            CACHE_SHARDS,
            config.cache_capacity,
            config.cache_max_age_ms.map(Duration::from_millis),
        ));
        SchedulingService { config, cache, metrics: Arc::new(ServiceMetrics::default()) }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counter snapshot of the memoizing result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared runtime counters (admission control, shed/degrade, pool
    /// accounting).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// A point-in-time copy of the runtime counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Builds the `{"type": "stats"}` admin report: counters, latency
    /// percentiles (log2-bucket upper bounds) and cache occupancy.
    pub fn stats_report(&self, id: u64) -> StatsReport {
        let m = self.metrics.snapshot();
        let cache = self.cache_stats();
        StatsReport {
            id,
            submitted: m.submitted,
            responses: m.responses,
            shed: m.shed,
            degraded: m.degraded,
            pending: m.pending,
            peak_pending: m.peak_pending,
            peak_live_records: m.peak_live_records,
            queue_wait_count: m.queue_wait_count,
            queue_wait_p50_ms: m.queue_wait_p50_us as f64 / 1e3,
            queue_wait_p99_ms: m.queue_wait_p99_us as f64 / 1e3,
            e2e_count: m.e2e_count,
            e2e_p50_ms: m.e2e_p50_us as f64 / 1e3,
            e2e_p99_ms: m.e2e_p99_us as f64 / 1e3,
            cache_entries: cache.entries as u64,
            cache_hits: cache.hits,
            dropped_events: optsched_obs::dropped(),
        }
    }

    /// The algorithm this request resolves to: its explicit choice (with
    /// `auto` resolved by the portfolio), or the service default (`wastar`
    /// under deadline pressure, `astar` otherwise).
    ///
    /// Shorthand over [`portfolio::resolve`] for callers that only need the
    /// name; a request that fails resolution (invalid parameters, an unknown
    /// name) falls back to the name it asked for, or to that default.
    pub fn resolve_algorithm(&self, req: &Request) -> String {
        match portfolio::resolve(req, &self.config) {
            Ok(plan) => plan.algorithm,
            Err(_) => portfolio::requested_algorithm(req).to_string(),
        }
    }

    /// The cache identity of a request — canonical signature, *resolved*
    /// algorithm, quality-relevant parameter bits and the plan-band byte.
    /// Two requests with equal identities are answered by one search (the
    /// runtime coalesces them in flight; the cache memoizes across time).
    ///
    /// The identity comes from the same [`portfolio::resolve`] call that
    /// [`handle_request`](SchedulingService::handle_request) dispatches on,
    /// so the two can never disagree — and a request with invalid ε/weight
    /// or an unknown algorithm name fails *here*, before anything coalesces
    /// on it.  The literal string `"auto"` never appears in an identity: an
    /// auto request keys on what the portfolio resolved it to, so a tight
    /// heuristic answer can never alias a generous exact one.
    pub(crate) fn cache_identity(&self, req: &Request) -> Result<(u64, String, u64, u8), String> {
        let plan = portfolio::resolve(req, &self.config)?;
        Ok((
            crate::signature::canonical_signature(&req.instance),
            plan.algorithm,
            plan.param_bits,
            plan.mode.band_byte(),
        ))
    }

    /// Parses and serves one JSON request line.  A malformed line yields a
    /// structured error response (`ok == false`) under `fallback_id` — the
    /// service never dies on bad input.
    pub fn handle_line(&self, line: &str, fallback_id: u64) -> Response {
        match serde_json::from_str::<Request>(line) {
            Ok(req) => self.handle_request(&req, fallback_id),
            Err(e) => Response::error(fallback_id, format!("malformed request: {e}")),
        }
    }

    /// Serves one parsed request.
    ///
    /// The request is resolved into its plan first, so invalid parameters
    /// and unknown algorithm names fail before any other work.  The instance
    /// is then interned under its canonical signature and the sharded result
    /// cache is consulted; a miss runs the plan through the facade's
    /// [`SchedulerSpec::run`] with the request's deadline threaded into
    /// [`SearchLimits::max_millis`].  Every response's schedule is validated
    /// against the instance before it is sent.
    pub fn handle_request(&self, req: &Request, fallback_id: u64) -> Response {
        let start = Instant::now();
        let mut response = self.handle_request_inner(req, fallback_id, start);
        // Every response — served, cache hit, or structured error — leaves
        // through the one elapsed-time helper, so `elapsed_ms` is never the
        // 0.0 placeholder some error paths used to carry.
        self.metrics.stamp_elapsed(start, &mut response);
        response
    }

    fn handle_request_inner(&self, req: &Request, fallback_id: u64, start: Instant) -> Response {
        let id = req.id.unwrap_or(fallback_id);
        let instance = &req.instance;

        // One resolution serves validation, dispatch and the cache identity
        // alike (the runtime's coalescer calls the same `resolve` through
        // `cache_identity`, so the two can never diverge).
        let plan = match portfolio::resolve(req, &self.config) {
            Ok(plan) => plan,
            Err(e) => return Response::error(id, e),
        };
        match plan.mode {
            PlanMode::Direct => {}
            PlanMode::AutoExact => {
                self.metrics.auto_exact.fetch_add(1, Ordering::Relaxed);
            }
            PlanMode::AutoAnytime => {
                self.metrics.auto_anytime.fetch_add(1, Ordering::Relaxed);
            }
            PlanMode::AutoRace => {
                self.metrics.auto_raced.fetch_add(1, Ordering::Relaxed);
            }
        }

        let canon = CanonicalInstance::of(instance);
        let signature = canon.signature();
        // Validate even a memoized schedule against *this* request's
        // instance: canonical equality guarantees it fits, and the check is
        // cheap insurance against cache corruption.
        let hit = self
            .cache
            .lookup(signature, &canon, &plan.algorithm, plan.param_bits)
            .filter(|c| c.schedule.validate(&instance.graph, &instance.network).is_ok());
        let cache_hit = hit.is_some();
        let answer = match hit {
            Some(cached) => cached,
            None => match self.run_plan(req, &plan, &canon, signature, start) {
                Ok(answer) => answer,
                Err(e) => return Response::error(id, e),
            },
        };
        Response {
            id,
            ok: true,
            algorithm: Some(answer.algorithm),
            plan: plan.mode.plan_tag().map(str::to_string),
            quality: Some(answer.quality),
            schedule_length: Some(answer.schedule_length),
            schedule: Some(answer.schedule),
            signature: Some(format!("{signature:016x}")),
            cache_hit,
            shed: false,
            degraded: false,
            // A hit reports the producing run's provenance, not zeros:
            // dashboards can still see what the answer cost.
            expanded: answer.expanded,
            peak_live_records: answer.peak_live_records,
            elapsed_ms: 0.0, // stamped by `handle_request`
            error: None,
        }
    }

    /// Runs a resolved plan on a cache miss: the plan's algorithm under the
    /// request's limits, validated and tagged.
    ///
    /// Every search here is memoized under its own identity when it
    /// completed: a completed run carries its full guarantee and is
    /// deterministic, while a limit-truncated incumbent is *not* memoized —
    /// a later unconstrained request deserves the real search.
    ///
    /// The mid-band race ([`PlanMode::AutoRace`]) first runs a calibrated
    /// weighted-A\* leg on a quarter of the deadline to secure a good
    /// feasible answer; a completed leg is memoized under its `wastar`
    /// identity, so direct `wastar` requests with this weight benefit too.
    /// The exact algorithm then gets whatever budget is left, and the answer
    /// reports the cost of both legs.  Both exact auto bands warm-start from
    /// the better of the race leg (if any) and a validated cache
    /// near-match, so a race is never worse than what plain `wastar` would
    /// have returned from the same budget split.
    fn run_plan(
        &self,
        req: &Request,
        plan: &ResolvedPlan,
        canon: &CanonicalInstance,
        signature: u64,
        start: Instant,
    ) -> Result<CachedResult, String> {
        let instance = &req.instance;
        let problem = SchedulingProblem::new(instance.graph.clone(), instance.network.clone());
        let upper_bound = problem.upper_bound();
        let search = |name: &str, spec: &SchedulerSpec| -> Result<CachedResult, String> {
            // `resolve` admits only dispatchable names, and every family
            // returns a schedule.
            let Some(SearchResult { schedule: Some(schedule), outcome, stats, .. }) =
                spec.run(name, &problem).map(|run| run.result)
            else {
                return Err(format!("`{name}` produced no schedule"));
            };
            if let Err(e) = schedule.validate(&instance.graph, &instance.network) {
                return Err(format!("internal error: invalid schedule: {e}"));
            }
            let length = schedule.makespan();
            let completed = matches!(outcome, SearchOutcome::Optimal | SearchOutcome::Exhausted);
            // `parallel` always runs exact here: requests cannot set
            // `ParallelConfig::epsilon` (if that knob is ever exposed, its ε
            // must also join `param_bits` so approximate and exact parallel
            // answers never share a cache slot).
            let bounded_suboptimal = (name == "aeps" && plan.epsilon > 0.0)
                || (name == "wastar" && plan.weight > 1.0);
            let answer = CachedResult {
                schedule,
                schedule_length: length,
                quality: quality_tag(outcome, length, upper_bound, bounded_suboptimal).to_string(),
                algorithm: name.to_string(),
                expanded: stats.expanded,
                peak_live_records: stats.peak_live_records,
            };
            if completed {
                let bits = portfolio::param_bits(name, plan.epsilon, plan.weight);
                self.cache.insert(signature, canon, name, bits, answer.clone());
            }
            Ok(answer)
        };

        let limits = SearchLimits {
            max_millis: req.deadline_ms,
            max_expansions: req.max_expansions,
            ..Default::default()
        };
        let mut spec = SchedulerSpec {
            search: SearchConfig {
                limits,
                seed_incumbent: self.config.seed_incumbent,
                ..Default::default()
            },
            epsilon: plan.epsilon,
            weight: plan.weight,
            ..Default::default()
        };
        let mut leg = None;
        if plan.mode == PlanMode::AutoRace {
            // The mid band only exists for requests with a deadline.
            let total = req.deadline_ms.unwrap_or(0);
            spec.search.limits.max_millis = Some((total / 4).max(1));
            leg = search("wastar", &spec).ok();
            let elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
            spec.search.limits.max_millis = Some(total.saturating_sub(elapsed_ms));
        }
        // Only the exact auto bands probe the cache for a structurally near
        // incumbent: the deadline that affords an exact search is what makes
        // the (possibly useless) donor worth validating.
        if matches!(plan.mode, PlanMode::AutoExact | PlanMode::AutoRace) {
            let leg_schedule = leg.as_ref().map(|l| &l.schedule);
            spec.search.warm_start =
                self.warm_start_candidate(signature, canon, instance, upper_bound, leg_schedule);
        }
        let mut answer = search(&plan.algorithm, &spec)?;
        if let Some(leg) = leg {
            // The race's cost is both legs' cost.
            answer.expanded += leg.expanded;
            answer.peak_live_records = answer.peak_live_records.max(leg.peak_live_records);
        }
        Ok(answer)
    }

    /// Picks the warm-start incumbent for an exact auto search: the better
    /// of a validated cache nearest-match donor and the race leg's schedule
    /// (when there is one).  `auto_warm_starts` counts only the cases where
    /// the *cache* donor wins and would actually tighten the list-seeded
    /// incumbent — i.e. where the cache changed the search.
    fn warm_start_candidate(
        &self,
        signature: u64,
        canon: &CanonicalInstance,
        instance: &Instance,
        upper_bound: Cost,
        leg: Option<&Schedule>,
    ) -> Option<Schedule> {
        let donor = self
            .cache
            .nearest_match(signature, canon)
            .map(|c| c.schedule)
            .filter(|s| s.validate(&instance.graph, &instance.network).is_ok());
        let donor_wins = match (&donor, leg) {
            (Some(d), Some(l)) => d.makespan() < l.makespan(),
            (Some(_), None) => true,
            _ => false,
        };
        if donor_wins {
            let d = donor.expect("donor_wins implies a donor");
            if d.makespan() < upper_bound {
                self.metrics.auto_warm_starts.fetch_add(1, Ordering::Relaxed);
            }
            Some(d)
        } else {
            leg.cloned().or(donor)
        }
    }
}

/// The quality tag of a run: only a proven optimum is `optimal`; a completed
/// bounded-suboptimal run (`aeps` with ε > 0, `wastar` with w > 1) is
/// `anytime`, as is any limit-truncated incumbent that improved on the list
/// schedule; the untouched list incumbent is `heuristic`.
fn quality_tag(
    outcome: SearchOutcome,
    length: Cost,
    upper_bound: Cost,
    bounded_suboptimal: bool,
) -> &'static str {
    match outcome {
        SearchOutcome::Heuristic => quality::HEURISTIC,
        SearchOutcome::LimitReached | SearchOutcome::TargetReached => {
            if length < upper_bound {
                quality::ANYTIME
            } else {
                quality::HEURISTIC
            }
        }
        SearchOutcome::Optimal | SearchOutcome::Exhausted => {
            if bounded_suboptimal {
                quality::ANYTIME
            } else {
                quality::OPTIMAL
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Instance;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    fn example_request() -> Request {
        Request::new(Instance::new(paper_example_dag(), ProcNetwork::ring(3)))
    }

    #[test]
    fn default_request_is_answered_optimally() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let resp = svc.handle_request(&example_request(), 0);
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.algorithm.as_deref(), Some("astar"));
        assert_eq!(resp.quality.as_deref(), Some(quality::OPTIMAL));
        assert_eq!(resp.schedule_length, Some(14));
        assert!(!resp.cache_hit);
        assert!(resp.signature.is_some());
    }

    #[test]
    fn repeated_instances_hit_the_cache() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let first = svc.handle_request(&example_request(), 0);
        let second = svc.handle_request(&example_request(), 1);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        // A hit carries the producing run's provenance, not zeros.
        assert_eq!(second.expanded, first.expanded);
        assert!(second.expanded > 0);
        assert_eq!(second.peak_live_records, first.peak_live_records);
        assert_eq!(first.schedule_length, second.schedule_length);
        assert_eq!(first.signature, second.signature);
        let stats = svc.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn deadline_requests_default_to_wastar_and_stay_feasible() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut req = example_request();
        req.deadline_ms = Some(0); // the harshest deadline there is
        let resp = svc.handle_request(&req, 0);
        assert!(resp.ok);
        assert_eq!(resp.algorithm.as_deref(), Some("wastar"));
        let tag = resp.quality.as_deref().unwrap();
        assert!(tag == quality::ANYTIME || tag == quality::HEURISTIC, "{tag}");
        // The schedule is feasible even at 0 ms (the pre-seeded incumbent).
        let inst = &req.instance;
        resp.schedule.unwrap().validate(&inst.graph, &inst.network).unwrap();
    }

    #[test]
    fn truncated_runs_are_not_memoized() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut req = example_request();
        req.deadline_ms = Some(0);
        let truncated = svc.handle_request(&req, 0);
        assert!(truncated.ok);
        assert_ne!(truncated.quality.as_deref(), Some(quality::OPTIMAL));
        // A later unconstrained wastar request must not see a cached stub...
        let mut full = example_request();
        full.algorithm = Some("wastar".to_string());
        let answered = svc.handle_request(&full, 1);
        assert!(!answered.cache_hit, "deadline stubs must not be memoized");
        // ...but its own (completed) answer is memoized.
        let again = svc.handle_request(&full, 2);
        assert!(again.cache_hit);
    }

    #[test]
    fn unknown_algorithms_and_bad_params_are_structured_errors() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut req = example_request();
        req.algorithm = Some("quantum".to_string());
        let resp = svc.handle_request(&req, 9);
        assert!(!resp.ok);
        assert_eq!(resp.id, 9);
        assert!(resp.error.as_deref().unwrap().contains("unknown algorithm"));

        let mut req = example_request();
        req.weight = Some(0.2);
        req.algorithm = Some("wastar".to_string());
        assert!(!svc.handle_request(&req, 0).ok);
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        let svc = SchedulingService::new(ServiceConfig::default());
        for line in ["this is not json", "{\"id\": 1}", "[1,2,3]", "{\"instance\": 5}"] {
            let resp = svc.handle_line(line, 42);
            assert!(!resp.ok, "{line}");
            assert_eq!(resp.id, 42);
            assert!(resp.error.is_some());
        }
    }

    #[test]
    fn list_requests_are_tagged_heuristic() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut req = example_request();
        req.algorithm = Some("list".to_string());
        let resp = svc.handle_request(&req, 0);
        assert!(resp.ok);
        assert_eq!(resp.quality.as_deref(), Some(quality::HEURISTIC));
        assert!(resp.schedule_length.unwrap() >= 14);
    }

    #[test]
    fn bounded_suboptimal_completions_are_tagged_anytime() {
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut req = example_request();
        req.algorithm = Some("wastar".to_string());
        req.weight = Some(2.0);
        let resp = svc.handle_request(&req, 0);
        assert!(resp.ok);
        assert_eq!(resp.quality.as_deref(), Some(quality::ANYTIME));
        assert!(resp.schedule_length.unwrap() <= 28, "2 x optimal bound");
    }
}
