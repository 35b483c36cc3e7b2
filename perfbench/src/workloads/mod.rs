//! The four workloads and the end-to-end metrics they share.
//!
//! Every workload is a list of operations — one search call, or one
//! service request — each timed by the caller.  The end-to-end metrics are
//! computed the same way for all of them from [`Op`] records:
//!
//! | metric | definition |
//! |---|---|
//! | `setup_s` | fastest of the run's set-ups: input generation from the seed, runtime start, warm-up |
//! | `solve_s` | caller wall-clock of one pass over the operations, each at its fastest repeat |
//! | `expanded_per_s` | engine expansions per second of caller wall-clock, over the operations that searched, each at its best-rate repeat |
//! | `deadline_overshoot_ms` | median over operations of caller time minus the promise, each at its smallest repeat: the budget or deadline of a budgeted operation, else the engine's own reported elapsed time (so on the exact workloads it is the time spent outside the engine's clock: problem build plus teardown) |
//! | `bytes_per_state` | growth of peak RSS during each operation, summed, per generated state |
//! | `peak_rss_mb` | median over passes of the pass's peak RSS |
//! | `req_p50_ms`, `req_p99_ms` | nearest-rank percentiles of caller latency per operation, each at its fastest repeat |
//! | `goodput_rps` | operations answered correctly per pass, per second of `solve_s` |
//!
//! An operation repeated over passes enters the timings once, with its
//! fastest repeat, and the solver workloads set up afresh before every
//! pass.  They repeat a fixed set of calls on a shared host whose speed
//! shifts by a third for seconds at a time (a busy neighbour); a call's
//! fastest repeat is what the program costs, the others add how busy the
//! host was.

pub mod frontier;
pub mod service;
pub mod solve;

use std::time::Instant;

use optsched_core::bnb::ChenYuScheduler;
use optsched_core::engine::BoundPolicy;
use optsched_core::{ChildDelta, SchedulingProblem, SearchState, SearchStats};
use optsched_taskgraph::Cost;

use crate::report::Report;
use crate::stats::{median, nearest_rank, sorted};

/// One timed operation.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Caller wall-clock, seconds.
    pub wall: f64,
    /// What the caller was promised, seconds: the budget or deadline, or
    /// the engine's own elapsed time for an unbudgeted call.
    pub promise: f64,
    /// Whether the promise is a budget or deadline.
    pub budgeted: bool,
    /// States the engine expanded.
    pub expanded: u64,
    /// States the engine generated.
    pub generated: u64,
    /// Growth of peak RSS over the resident size before the call, bytes.
    pub rss_growth: u64,
    /// Peak RSS during the call, bytes.
    pub rss_peak: u64,
    /// The answer passed its checks.
    pub ok: bool,
}

/// One pass over a workload's operations: operation `i` of every pass is
/// the same call.
#[derive(Debug, Default)]
pub struct Pass {
    /// The operations, in order.
    pub ops: Vec<Op>,
}

/// Everything one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, seconds.
    pub setups: Vec<f64>,
    /// Every pass.
    pub passes: Vec<Pass>,
}

impl Measured {
    /// Runs `setup`, recording how long it took.
    pub fn set_up<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.setups.push(t.elapsed().as_secs_f64());
        out
    }

    /// Writes the end-to-end metrics (see the module table).  An operation
    /// repeated over passes counts once, with its fastest repeat.
    pub fn end_to_end(&self, report: &mut Report) {
        let ops = || self.passes.iter().flat_map(|p| p.ops.iter());
        report.attempted = ops().count() as u64;
        report.failed = ops().filter(|op| !op.ok).count() as u64;
        report.set(
            "setup_s",
            self.setups.iter().copied().reduce(f64::min).unwrap_or(0.0),
        );

        // Operation `i`'s repeat with the least `key`.
        let n = self.passes.iter().map(|p| p.ops.len()).max().unwrap_or(0);
        let best_by = |key: &dyn Fn(&Op) -> f64| -> Vec<&Op> {
            (0..n)
                .filter_map(|i| {
                    self.passes
                        .iter()
                        .filter_map(|p| p.ops.get(i))
                        .min_by(|a, b| key(a).total_cmp(&key(b)))
                })
                .collect()
        };
        let fastest = best_by(&|op| op.wall);
        let solve_s: f64 = fastest.iter().map(|op| op.wall).sum();
        report.set("solve_s", solve_s);
        let searched: Vec<&Op> = best_by(&|op| -(op.expanded as f64 / op.wall))
            .into_iter()
            .filter(|op| op.expanded > 0)
            .collect();
        report.set(
            "expanded_per_s",
            searched.iter().map(|op| op.expanded).sum::<u64>() as f64
                / searched.iter().map(|op| op.wall).sum::<f64>(),
        );

        let any_budget = fastest.iter().any(|op| op.budgeted);
        let overshoot: Vec<f64> = best_by(&|op| op.wall - op.promise)
            .into_iter()
            .filter(|op| op.budgeted == any_budget)
            .map(|op| (op.wall - op.promise) * 1e3)
            .collect();
        report.set("deadline_overshoot_ms", median(&overshoot).unwrap_or(0.0));

        let growth: u64 = ops().map(|op| op.rss_growth).sum();
        let generated: u64 = ops().map(|op| op.generated).sum();
        report.set("bytes_per_state", growth as f64 / generated.max(1) as f64);
        let pass_peaks: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.ops.iter().map(|op| op.rss_peak).max().unwrap_or(0) as f64)
            .collect();
        report.set("peak_rss_mb", median(&pass_peaks).unwrap_or(0.0) / 1e6);

        let latencies = sorted(&fastest.iter().map(|op| op.wall * 1e3).collect::<Vec<_>>());
        report.set("req_p50_ms", nearest_rank(&latencies, 50.0).unwrap_or(0.0));
        report.set("req_p99_ms", nearest_rank(&latencies, 99.0).unwrap_or(0.0));
        let ok_per_pass = ops().filter(|op| op.ok).count() as f64 / self.passes.len() as f64;
        report.set("goodput_rps", ok_per_pass / solve_s);
    }
}

/// The frontier policy `ChenYuScheduler::run` builds, rebuilt from the
/// scheduler's public path bound so the traced search can run it.
pub fn chen_yu_policy<'a>(
    cy: &'a ChenYuScheduler<'a>,
) -> BoundPolicy<
    impl FnMut(&SchedulingProblem, &SearchState, &ChildDelta, &mut SearchStats) -> Cost + 'a,
> {
    BoundPolicy::new(
        move |_problem: &SchedulingProblem,
              parent: &SearchState,
              delta: &ChildDelta,
              stats: &mut SearchStats| {
            let (remaining, segments) = cy.evaluate_bound(parent, delta.node);
            stats.path_segments_enumerated += segments;
            delta.g.max(delta.finish + remaining)
        },
    )
}
