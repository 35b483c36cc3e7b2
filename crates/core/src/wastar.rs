//! Weighted-A\* scheduling: the anytime/deadline-pressure member of the A\*
//! family.
//!
//! The scheduler orders its frontier by the inflated cost `g + w · h`
//! (`w ≥ 1`), which drives the search towards complete schedules much
//! earlier than plain A\* at the price of a bounded deviation: the first
//! goal state removed from the frontier is guaranteed to be within `w ×` the
//! optimal schedule length (the classic weighted-A\* bound — `h` is
//! admissible, so `g* ≤ g ≤ g + w·h(goal path) ≤ w · f*`).  Upper-bound
//! pruning stays on the *uninflated* `f`, so the weight only changes the
//! visit order, never the reachable set.
//!
//! This is the `FrontierPolicy` plug-in anticipated by the PR 3 follow-up
//! ("a weighted-A\*/anytime variant is now a ~60-line plug-in") and the
//! algorithm the scheduling service runs under deadline pressure: a run cut
//! short by [`SearchLimits::max_millis`] returns its incumbent — typically
//! far better than the list schedule — as an *anytime* answer.
//!
//! ```
//! use optsched_core::{AStarScheduler, SchedulingProblem, WAStarScheduler};
//! use optsched_procnet::ProcNetwork;
//! use optsched_taskgraph::paper_example_dag;
//!
//! let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
//! // At weight 1.0 the search is bit-identical to A*.
//! let exact = WAStarScheduler::new(&problem, 1.0).run();
//! assert_eq!(exact.schedule_length, 14);
//! // A larger weight still stays within w x optimal (here it finds 14 too).
//! let fast = WAStarScheduler::new(&problem, 2.0).run();
//! assert!(fast.schedule_length <= 28);
//! ```

use optsched_schedule::Schedule;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::engine::{run_search, SearchConfig, WeightedAStarPolicy};
use crate::problem::SchedulingProblem;
use crate::stats::SearchResult;

/// Weighted-A\* scheduler: a thin configuration over the unified
/// [`engine`](crate::engine) with the `g + w · h` ordering policy.
///
/// An outcome of [`SearchOutcome::Optimal`](crate::stats::SearchOutcome)
/// means "completed with the `w`-bounded guarantee" (exactly optimal when
/// `w = 1`), mirroring the Aε\* convention.
#[derive(Debug, Clone)]
pub struct WAStarScheduler<'a> {
    problem: &'a SchedulingProblem,
    weight: f64,
    config: SearchConfig,
}

impl<'a> WAStarScheduler<'a> {
    /// A scheduler with heuristic weight `weight` (`>= 1`; 1 is plain A\*).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is below 1 or not finite.
    pub fn new(problem: &'a SchedulingProblem, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 1.0, "weight must be a finite number >= 1");
        WAStarScheduler { problem, weight, config: SearchConfig::default() }
    }

    /// Replaces the whole search configuration: pruning, heuristic, limits,
    /// seeding and warm start.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// The heuristic weight `w`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Selects which pruning techniques to use.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Selects the admissible heuristic (inflated only in the ordering).
    pub fn with_heuristic(mut self, heuristic: HeuristicKind) -> Self {
        self.config.heuristic = heuristic;
        self
    }

    /// Applies resource limits to the run.
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Treats the list-heuristic schedule as an attained incumbent (strict
    /// upper-bound pruning; see [`SearchConfig::seed_incumbent`]).  Off by
    /// default.
    pub fn with_seeded_incumbent(mut self, seed: bool) -> Self {
        self.config.seed_incumbent = seed;
        self
    }

    /// Hands the search a complete schedule attained elsewhere as a candidate
    /// starting incumbent (adopted only when strictly better; must be
    /// feasible for this problem).
    pub fn with_warm_start(mut self, warm: Option<Schedule>) -> Self {
        self.config.warm_start = warm;
        self
    }

    /// Runs the search to completion (or until a limit is hit).
    pub fn run(&self) -> SearchResult {
        let policy = WeightedAStarPolicy::new(self.weight, self.config.pruning.upper_bound_pruning);
        run_search(self.problem, policy, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::AStarScheduler;
    use crate::stats::SearchOutcome;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::{paper_example_dag, Cost};
    use optsched_workload::{generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    /// At weight 1 the search is A*, down to the exact expansion counts.
    #[test]
    fn weight_one_is_bit_identical_to_astar() {
        let mut rng = StdRng::seed_from_u64(42);
        for ccr in [0.1, 1.0, 10.0] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 8, ccr, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let a = AStarScheduler::new(&prob).run();
            let w = WAStarScheduler::new(&prob, 1.0).run();
            assert_eq!(a.schedule_length, w.schedule_length, "ccr={ccr}");
            assert_eq!(
                (a.stats.expanded, a.stats.generated, a.stats.duplicates),
                (w.stats.expanded, w.stats.generated, w.stats.duplicates),
                "ccr={ccr}"
            );
        }
    }

    /// Larger weights stay within the `w x optimal` bound and typically
    /// reach a goal with fewer expansions.
    #[test]
    fn weight_bound_holds_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..3 {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 9, ccr: 1.0, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let optimal = AStarScheduler::new(&prob).run().schedule_length;
            for weight in [1.2, 1.5, 2.0] {
                let r = WAStarScheduler::new(&prob, weight).run();
                assert_eq!(r.outcome, SearchOutcome::Optimal);
                let bound = (optimal as f64 * weight).floor() as Cost;
                assert!(
                    r.schedule_length >= optimal && r.schedule_length <= bound,
                    "w={weight}: {} outside [{optimal}, {bound}]",
                    r.schedule_length
                );
                r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
            }
        }
    }

    /// The deadline-pressure contract: even a 0 ms budget yields a feasible
    /// schedule (the pre-seeded list incumbent) with `LimitReached`.
    #[test]
    fn zero_deadline_returns_the_list_incumbent() {
        let prob = example_problem();
        let r = WAStarScheduler::new(&prob, 1.5)
            .with_limits(SearchLimits { max_millis: Some(0), ..Default::default() })
            .run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        let s = r.expect_schedule();
        s.validate(prob.graph(), prob.network()).unwrap();
        assert!(r.schedule_length <= prob.upper_bound());
    }

    #[test]
    fn seeded_weighted_search_stays_within_bound() {
        let prob = example_problem();
        let r = WAStarScheduler::new(&prob, 1.5).with_seeded_incumbent(true).run();
        assert_eq!(r.outcome, SearchOutcome::Optimal);
        assert!(r.schedule_length <= 21); // 1.5 x 14
        r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
    }

    #[test]
    #[should_panic(expected = "weight must be")]
    fn sub_one_weight_is_rejected() {
        let prob = example_problem();
        let _ = WAStarScheduler::new(&prob, 0.9);
    }
}
