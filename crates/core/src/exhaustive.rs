//! Brute-force optimal scheduling for very small instances.
//!
//! A plain depth-first enumeration of every `(ready node, processor)`
//! decision, with duplicate-state elimination and pruning only against the
//! best complete schedule found so far (which preserves exactness because
//! `g` never decreases along a path).  Exponential — intended primarily as
//! the ground truth for the unit and property tests of the search
//! algorithms.
//!
//! Since the move onto the unified [`engine`](crate::engine) the enumerator
//! is an ordinary scheduler: it honours [`SearchLimits`] (a bounded run
//! returns the best incumbent with
//! [`SearchOutcome::LimitReached`](crate::stats::SearchOutcome)) and reports
//! full [`SearchStats`](crate::stats::SearchStats).

use optsched_taskgraph::Cost;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::engine::{run_search, DfsPolicy, SearchConfig};
use crate::problem::SchedulingProblem;
use crate::stats::{SearchOutcome, SearchResult};

/// Exhaustive depth-first enumeration scheduler.
///
/// Use only for small instances (roughly `v <= 10` and `p <= 4`); the tests
/// of this workspace use it to certify the optimality of the A* results.
#[derive(Debug, Clone)]
pub struct ExhaustiveScheduler<'a> {
    problem: &'a SchedulingProblem,
    /// No pruning technique and the zero heuristic; never seeded:
    /// `DfsPolicy`'s goal test treats the passed incumbent length with its
    /// own strictness, and the engine pre-seeds the incumbent *schedule*
    /// anyway, so the enumerator effectively starts from the list upper
    /// bound already.
    config: SearchConfig,
}

impl<'a> ExhaustiveScheduler<'a> {
    /// Creates the enumerator.
    pub fn new(problem: &'a SchedulingProblem) -> Self {
        let config = SearchConfig {
            pruning: PruningConfig::none(),
            heuristic: HeuristicKind::Zero,
            ..SearchConfig::default()
        };
        ExhaustiveScheduler { problem, config }
    }

    /// Applies resource limits to the run (previously the enumerator ignored
    /// them; on the engine they come for free).
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Runs the enumeration.  An exhausted frontier *is* the optimality
    /// proof, so a run that was not cut short reports
    /// [`SearchOutcome::Optimal`].
    pub fn run(&self) -> SearchResult {
        let mut result = run_search(self.problem, DfsPolicy::new(), &self.config);
        if result.outcome == SearchOutcome::Exhausted {
            result.outcome = SearchOutcome::Optimal;
        }
        result
    }
}

/// Returns the optimal schedule length of `problem` by exhaustive enumeration.
///
/// Convenience wrapper over [`ExhaustiveScheduler`] with no limits.
pub fn exhaustive_optimal(problem: &SchedulingProblem) -> Cost {
    ExhaustiveScheduler::new(problem).run().schedule_length
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::{paper_example_dag, GraphBuilder};
    use optsched_workload::chain;

    #[test]
    fn exhaustive_finds_14_on_the_example() {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        assert_eq!(exhaustive_optimal(&prob), 14);
    }

    #[test]
    fn chain_cannot_be_parallelised() {
        let prob = SchedulingProblem::new(chain(5, 3, 1), ProcNetwork::fully_connected(3));
        assert_eq!(exhaustive_optimal(&prob), 15);
    }

    #[test]
    fn independent_tasks_spread_over_processors() {
        // Two independent tasks joined by nothing but a common sink with zero cost.
        let mut b = GraphBuilder::new();
        let a = b.add_node(5);
        let c = b.add_node(5);
        let sink = b.add_node(1);
        b.add_edge(a, sink, 0).unwrap();
        b.add_edge(c, sink, 0).unwrap();
        let prob = SchedulingProblem::new(b.build().unwrap(), ProcNetwork::fully_connected(2));
        assert_eq!(exhaustive_optimal(&prob), 6);
    }

    #[test]
    fn single_processor_is_serial() {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::fully_connected(1));
        assert_eq!(exhaustive_optimal(&prob), 19);
    }

    #[test]
    fn unbounded_run_proves_optimality_and_reports_stats() {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let r = ExhaustiveScheduler::new(&prob).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length, 14);
        r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
        assert!(r.stats.expanded > 0);
        // Every stored state is popped exactly once; only goal pops are not
        // expansions (on the paper example the list upper bound equals the
        // optimum, so no goal child survives the bound and the two are equal).
        assert!(r.stats.generated >= r.stats.expanded);
    }

    /// The satellite requirement of the engine refactor: the enumerator now
    /// honours `SearchLimits` instead of silently ignoring them.
    #[test]
    fn limits_are_honoured() {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let r = ExhaustiveScheduler::new(&prob).with_limits(SearchLimits::expansions(2)).run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        assert!(r.stats.expanded <= 2);
        // The incumbent falls back to the (feasible) list-heuristic schedule.
        let s = r.expect_schedule();
        s.validate(prob.graph(), prob.network()).unwrap();
        assert!(r.schedule_length >= 14);

        let timed = ExhaustiveScheduler::new(&prob)
            .with_limits(SearchLimits { max_millis: Some(0), ..Default::default() })
            .run();
        assert_eq!(timed.outcome, SearchOutcome::LimitReached);
    }
}
