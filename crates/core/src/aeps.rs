//! The approximate Aε* scheduling algorithm (Section 3.4).
//!
//! Following Pearl & Kim's semi-admissible search, the algorithm keeps a
//! FOCAL subset of the OPEN list containing every state whose cost is within
//! a factor `(1 + ε)` of the smallest cost in OPEN, and always expands a
//! state from FOCAL — preferring the one with the smallest `h`, i.e. the one
//! closest to a complete schedule.  The first goal state expanded is
//! guaranteed to be within `(1 + ε)` of the optimal schedule length
//! (Theorem 2), while the search typically expands far fewer states than A*.

use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::engine::{focal_threshold, run_search, FocalPolicy, SearchConfig};
use crate::problem::SchedulingProblem;
use crate::stats::SearchResult;

/// Approximate Aε* scheduler with a bounded deviation from the optimum: a
/// thin configuration over the unified [`engine`](crate::engine) with the
/// FOCAL selection policy.
#[derive(Debug, Clone)]
pub struct AEpsScheduler<'a> {
    problem: &'a SchedulingProblem,
    epsilon: f64,
    config: SearchConfig,
}

impl<'a> AEpsScheduler<'a> {
    /// A scheduler with approximation factor `epsilon` (the paper evaluates
    /// ε = 0.2 and ε = 0.5).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn new(problem: &'a SchedulingProblem, epsilon: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon >= 0.0, "epsilon must be a non-negative number");
        AEpsScheduler { problem, epsilon, config: SearchConfig::default() }
    }

    /// Replaces the whole search configuration: pruning, heuristic, limits,
    /// seeding and warm start.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// The approximation factor ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Selects which pruning techniques to use.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Selects the admissible heuristic.
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

    /// Largest cost admitted into FOCAL when the smallest OPEN cost is `fmin`.
    pub fn focal_threshold(&self, fmin: Cost) -> Cost {
        focal_threshold(self.epsilon, fmin)
    }

    /// Runs the search.  The returned schedule's length is at most
    /// `(1 + ε) ·` the optimal schedule length whenever the outcome is
    /// [`SearchOutcome::Optimal`](crate::stats::SearchOutcome::Optimal)
    /// (which here means "completed within the configured bound").
    pub fn run(&self) -> SearchResult {
        let policy = FocalPolicy::new(self.epsilon, self.config.pruning.upper_bound_pruning);
        run_search(self.problem, policy, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::AStarScheduler;
    use crate::stats::SearchOutcome;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;
    use optsched_workload::{generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn epsilon_zero_is_exact() {
        let prob = example_problem();
        let r = AEpsScheduler::new(&prob, 0.0).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length, 14);
    }

    #[test]
    fn result_is_within_bound_for_paper_epsilons() {
        let mut rng = StdRng::seed_from_u64(21);
        for ccr in [0.1, 1.0, 10.0] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 10, ccr, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let optimal = AStarScheduler::new(&prob).run();
            assert!(optimal.is_optimal());
            for eps in [0.2, 0.5] {
                let approx = AEpsScheduler::new(&prob, eps).run();
                assert!(approx.is_optimal());
                let bound = (optimal.schedule_length as f64 * (1.0 + eps)).floor() as Cost;
                assert!(
                    approx.schedule_length <= bound,
                    "ccr={ccr} eps={eps}: {} > {}",
                    approx.schedule_length,
                    bound
                );
                approx.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
            }
        }
    }

    #[test]
    fn larger_epsilon_expands_no_more_states() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 12, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
        let tight = AEpsScheduler::new(&prob, 0.0).run();
        let loose = AEpsScheduler::new(&prob, 0.5).run();
        assert!(loose.stats.expanded <= tight.stats.expanded);
    }

    #[test]
    fn focal_threshold_rounds_down() {
        let prob = example_problem();
        let s = AEpsScheduler::new(&prob, 0.2);
        assert_eq!(s.focal_threshold(10), 12);
        assert_eq!(s.focal_threshold(14), 16); // 16.8 -> 16
        assert_eq!(s.epsilon(), 0.2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        let prob = example_problem();
        let _ = AEpsScheduler::new(&prob, -0.1);
    }

    #[test]
    fn limits_are_honoured() {
        let prob = example_problem();
        let r = AEpsScheduler::new(&prob, 0.2).with_limits(SearchLimits::expansions(1)).run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
    }

    #[test]
    fn pruning_config_and_heuristic_are_composable() {
        let prob = example_problem();
        let r = AEpsScheduler::new(&prob, 0.2)
            .with_pruning(PruningConfig::none())
            .with_heuristic(HeuristicKind::TightStaticLevel)
            .run();
        assert!(r.is_optimal());
        assert!(r.schedule_length <= (14.0 * 1.2) as Cost);
    }
}
