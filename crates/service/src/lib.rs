//! # optsched-service — the deadline-aware scheduling service
//!
//! PRs 1–4 grew a fast, memory-lean optimal-scheduling *engine*; this crate
//! is the layer that lets many callers use it concurrently:
//!
//! * **Protocol** ([`protocol`]) — JSON lines in, JSON lines out.  A
//!   [`Request`] carries a full problem [`Instance`] (task graph + processor
//!   network in the validated wire formats), an algorithm name dispatched
//!   through the facade's `SchedulerSpec::run`, and optional
//!   `deadline_ms` / `max_expansions` budgets; a [`Response`] carries the
//!   validated schedule, its quality tag (`optimal` / `anytime` /
//!   `heuristic`), the canonical instance signature and the service-side
//!   accounting.  Malformed input yields a structured error response — the
//!   service never dies on bad bytes.
//! * **Instance interning** ([`signature`]) — a topology- and label-stable
//!   canonical form plus its 64-bit FNV signature identify instances by
//!   scheduling-relevant *content*, so presentation differences (labels,
//!   edge order, JSON field order) cannot defeat memoization.
//! * **Memoizing cache** ([`cache`]) — a sharded, lock-striped **LRU**
//!   result cache (the `crates/parallel/src/closed.rs` idiom) answers
//!   repeated instances without re-search; per-shard capacity evicts the
//!   least-recently-used entry, an optional `max_age` TTL lazily expires
//!   stale results on lookup, and only completed runs are memoized, so
//!   deadline-truncated answers never shadow a real search.
//! * **Anytime fallback** — the engine pre-seeds every search with the
//!   list-scheduling schedule and returns the best incumbent when a
//!   deadline (threaded into `SearchLimits::max_millis`) expires, so every
//!   response — even at a 0 ms deadline — is a feasible, validated
//!   schedule.  Requests under deadline pressure default to the weighted-A\*
//!   `wastar` algorithm, and the service switches the engine's
//!   `seed_incumbent` pruning on.
//! * **Algorithm portfolio** ([`portfolio`]) — `algorithm: "auto"` resolves
//!   a request from cheap instance features (node count, CCR, level widths,
//!   topology class) and its deadline band: generous deadlines run a seeded
//!   exact search, tight ones run feature-calibrated weighted A\*, and
//!   mid-band deadlines run a staged race (a weighted-A\* leg, then the
//!   remaining budget on an exact search warm-started from the leg and from
//!   the cache's nearest structural match).  Responses report the resolved
//!   algorithm plus a `plan` tag; the cache and coalescer key on the
//!   *resolved* plan, never the literal `auto`, so a tight heuristic answer
//!   can never serve a generous request.
//! * **Global runtime** ([`runtime`]) — **one** worker pool shared by every
//!   connection of every transport: per-connection readers tag requests with
//!   a sequence number and push them onto one shared MPMC injector, idle
//!   workers pull the next job (so an expensive request cannot convoy cheap
//!   ones behind a private queue), identical in-flight instances coalesce
//!   onto one search, and per-connection writers reorder completions back
//!   into request arrival order.  N concurrent connections cost
//!   [`ServiceConfig::workers`] threads, not N × workers.
//! * **Admission control** ([`metrics`]) — the number of
//!   admitted-but-unanswered requests is hard-bounded by
//!   [`ServiceConfig::admission_budget`] (a CAS reservation): past the
//!   degrade threshold requests are rewritten to deadline-clamped `wastar`
//!   (response marked `degraded`), and with the budget exhausted they are
//!   refused with a structured `overloaded` response (`shed`) — bounded
//!   memory and bounded queueing delay under any load.
//! * **Transports** ([`pool`]) — JSON lines over stdin/stdout
//!   ([`run_service`]) or a `std::net::TcpListener` ([`serve_tcp`]), both
//!   thin shells over the runtime.
//! * **Observability** — every response path goes through one elapsed-time
//!   helper; always-on log2 histograms record queue-wait and end-to-end
//!   latency (service-side p50/p99 in [`MetricsSnapshot`]); the admin line
//!   `{"type": "stats"}` answers with a [`StatsReport`] over the same
//!   JSON-lines connection; and a configured [`ServiceConfig::trace_path`]
//!   turns on the `optsched-obs` event/span layer and writes a Chrome
//!   trace-event file at shutdown.
//!
//! ```
//! use optsched_procnet::ProcNetwork;
//! use optsched_service::{Instance, Request, SchedulingService, ServiceConfig};
//! use optsched_taskgraph::paper_example_dag;
//!
//! let service = SchedulingService::new(ServiceConfig::default());
//! let req = Request::new(Instance::new(paper_example_dag(), ProcNetwork::ring(3)));
//! let first = service.handle_request(&req, 0);
//! assert_eq!(first.schedule_length, Some(14));
//! assert_eq!(first.quality.as_deref(), Some("optimal"));
//! // The same instance again: answered from the cache, no re-search.
//! assert!(service.handle_request(&req, 1).cache_hit);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod pool;
pub mod portfolio;
pub mod protocol;
pub mod runtime;
pub mod service;
pub mod signature;

pub use cache::{CacheStats, CachedResult, ResultCache, DEFAULT_SHARD_CAPACITY};
pub use metrics::{Admission, MetricsSnapshot, ServiceMetrics};
pub use pool::{run_service, serve_tcp, PoolSummary};
pub use portfolio::{DeadlineBand, InstanceFeatures, PlanMode, ResolvedPlan};
pub use protocol::{plan, quality, AdminRequest, Instance, Request, Response, StatsReport, OVERLOADED};
pub use runtime::{Connection, Reply, ReplyBody, ServiceRuntime};
pub use service::{SchedulingService, ServiceConfig};
pub use signature::{canonical_signature, CanonicalInstance};
