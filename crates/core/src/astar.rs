//! The serial A* scheduling algorithm (Section 3.1) with the state-space
//! pruning techniques of Section 3.2.
//!
//! The algorithm keeps an OPEN list of un-expanded states ordered by
//! `f = g + h` and a CLOSED set of already-seen partial schedules.  At every
//! iteration the state with the smallest `f` is removed; if it is a goal
//! state the schedule it represents is optimal (the cost function is
//! admissible, Theorem 1), otherwise the state is expanded by assigning every
//! ready node to every candidate processor.
//!
//! ```
//! use optsched_core::{AStarScheduler, SchedulingProblem};
//! use optsched_procnet::ProcNetwork;
//! use optsched_taskgraph::paper_example_dag;
//!
//! let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
//! let result = AStarScheduler::new(&problem).run();
//! assert!(result.is_optimal());
//! assert_eq!(result.schedule_length, 14);
//! ```

use optsched_schedule::Schedule;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::engine::{run_search, AStarPolicy, SearchConfig};
use crate::problem::SchedulingProblem;
use crate::stats::SearchResult;

/// Serial A* optimal scheduler: a thin configuration over the unified
/// [`engine`](crate::engine) with the best-first `(f, h, FIFO)` policy.
#[derive(Debug, Clone)]
pub struct AStarScheduler<'a> {
    problem: &'a SchedulingProblem,
    config: SearchConfig,
}

impl<'a> AStarScheduler<'a> {
    /// A scheduler with every pruning technique enabled and the paper's heuristic.
    pub fn new(problem: &'a SchedulingProblem) -> Self {
        AStarScheduler { problem, config: SearchConfig::default() }
    }

    /// Replaces the whole search configuration: pruning, heuristic, limits,
    /// seeding and warm start.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
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

    /// Treats the list-heuristic schedule as an *attained* incumbent, so the
    /// upper-bound rule prunes states that cannot strictly improve on it (see
    /// [`SearchConfig::seed_incumbent`]).  Off by default: the classic
    /// behaviour keeps states whose `f` merely *equals* the upper bound.
    pub fn with_seeded_incumbent(mut self, seed: bool) -> Self {
        self.config.seed_incumbent = seed;
        self
    }

    /// Hands the search a complete schedule attained elsewhere (a cached
    /// near-match, an anytime leg of a race) as a candidate starting
    /// incumbent; adopted only when it beats the incumbent the run would
    /// otherwise start from.  The schedule must be feasible for this problem.
    pub fn with_warm_start(mut self, warm: Option<Schedule>) -> Self {
        self.config.warm_start = warm;
        self
    }

    /// The problem being solved.
    pub fn problem(&self) -> &SchedulingProblem {
        self.problem
    }

    /// Runs the search to completion (or until a limit is hit).
    pub fn run(&self) -> SearchResult {
        let policy = AStarPolicy::new(self.config.pruning.upper_bound_pruning);
        run_search(self.problem, policy, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_optimal;
    use crate::stats::SearchOutcome;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::Cost;
    use optsched_taskgraph::paper_example_dag;
    use optsched_workload::{fork_join, generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    /// Figure 4: the optimal schedule of the example DAG on the 3-PE ring has
    /// length 14.
    #[test]
    fn fig4_optimal_schedule_length_is_14() {
        let prob = example_problem();
        let result = AStarScheduler::new(&prob).run();
        assert!(result.is_optimal());
        assert_eq!(result.schedule_length, 14);
        let schedule = result.expect_schedule();
        schedule.validate(prob.graph(), prob.network()).unwrap();
        assert_eq!(schedule.makespan(), 14);
    }

    /// Figure 3: with all pruning techniques the example search stays tiny
    /// (the paper reports 26 generated / 9 expanded states versus an
    /// exhaustive tree of more than 3^6 = 729 states; the exact counts depend
    /// on tie-breaking among the many f = 14 states, so this test pins the
    /// order of magnitude rather than the precise figure).
    #[test]
    fn fig3_search_tree_is_small_with_pruning() {
        let prob = example_problem();
        let with = AStarScheduler::new(&prob).run();
        assert!(with.is_optimal());
        assert!(
            with.stats.generated <= 100,
            "expected a few dozen states, generated {}",
            with.stats.generated
        );
        assert!(with.stats.expanded <= 50, "expanded {}", with.stats.expanded);

        let without = AStarScheduler::new(&prob).with_pruning(PruningConfig::none()).run();
        assert!(without.is_optimal());
        assert_eq!(without.schedule_length, 14);
        assert!(
            without.stats.generated > with.stats.generated,
            "pruning must shrink the search: {} vs {}",
            without.stats.generated,
            with.stats.generated
        );
    }

    #[test]
    fn every_pruning_combination_stays_optimal_on_example() {
        let prob = example_problem();
        for mask in 0u8..16 {
            let cfg = PruningConfig {
                processor_isomorphism: mask & 1 != 0,
                node_equivalence: mask & 2 != 0,
                upper_bound_pruning: mask & 4 != 0,
                priority_ordering: mask & 8 != 0,
            };
            let r = AStarScheduler::new(&prob).with_pruning(cfg).run();
            assert!(r.is_optimal(), "{}", cfg.describe());
            assert_eq!(r.schedule_length, 14, "{}", cfg.describe());
            r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
        }
    }

    #[test]
    fn all_heuristics_agree_on_the_optimum() {
        let prob = example_problem();
        for h in [HeuristicKind::PaperStaticLevel, HeuristicKind::TightStaticLevel, HeuristicKind::Zero] {
            let r = AStarScheduler::new(&prob).with_heuristic(h).run();
            assert!(r.is_optimal());
            assert_eq!(r.schedule_length, 14, "{h:?}");
        }
    }

    #[test]
    fn tight_heuristic_expands_no_more_states() {
        let prob = example_problem();
        let paper = AStarScheduler::new(&prob).run();
        let tight =
            AStarScheduler::new(&prob).with_heuristic(HeuristicKind::TightStaticLevel).run();
        assert!(tight.stats.expanded <= paper.stats.expanded);
        let zero = AStarScheduler::new(&prob).with_heuristic(HeuristicKind::Zero).run();
        assert!(zero.stats.expanded >= paper.stats.expanded);
    }

    #[test]
    fn single_processor_gives_serial_length() {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::fully_connected(1));
        let r = AStarScheduler::new(&prob).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length, prob.graph().total_computation());
    }

    #[test]
    fn more_processors_never_hurt() {
        let g = paper_example_dag();
        let mut prev = Cost::MAX;
        for p in 1..=4 {
            let prob = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(p));
            let r = AStarScheduler::new(&prob).run();
            assert!(r.is_optimal());
            assert!(r.schedule_length <= prev, "p={p}");
            prev = r.schedule_length;
        }
    }

    #[test]
    fn optimal_never_exceeds_heuristic_upper_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 9, ccr: 1.0, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let r = AStarScheduler::new(&prob).run();
            assert!(r.is_optimal());
            assert!(r.schedule_length <= prob.upper_bound());
            assert!(r.schedule_length >= prob.lower_bound());
        }
    }

    #[test]
    fn matches_exhaustive_search_on_small_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        for ccr in [0.1, 1.0, 10.0] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 7, ccr, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::ring(3));
            let astar = AStarScheduler::new(&prob).run();
            let brute = exhaustive_optimal(&prob);
            assert!(astar.is_optimal());
            assert_eq!(astar.schedule_length, brute, "ccr={ccr}");
        }
    }

    #[test]
    fn fork_join_on_enough_processors_is_perfectly_parallel() {
        let g = fork_join(3, 4, 0);
        let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
        let r = AStarScheduler::new(&prob).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length, 12); // fork + worker + join, no comm
    }

    #[test]
    fn expansion_limit_reports_limit_reached_with_incumbent() {
        let prob = example_problem();
        let r = AStarScheduler::new(&prob).with_limits(SearchLimits::expansions(1)).run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        // The incumbent is at worst the list-heuristic schedule, which is complete.
        let s = r.expect_schedule();
        s.validate(prob.graph(), prob.network()).unwrap();
        assert!(r.schedule_length >= 14);
        assert!(r.schedule_length <= prob.upper_bound());
    }

    #[test]
    fn generation_and_time_limits_are_honoured() {
        let prob = example_problem();
        let r = AStarScheduler::new(&prob)
            .with_limits(SearchLimits { max_generated: Some(2), ..Default::default() })
            .run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);

        let r2 = AStarScheduler::new(&prob)
            .with_limits(SearchLimits { max_millis: Some(0), ..Default::default() })
            .run();
        assert_eq!(r2.outcome, SearchOutcome::LimitReached);
    }

    #[test]
    fn target_cost_stops_early() {
        let prob = example_problem();
        // The list-heuristic incumbent already meets a loose target.
        let loose_target = prob.upper_bound();
        let r = AStarScheduler::new(&prob)
            .with_limits(SearchLimits { target_cost: Some(loose_target), ..Default::default() })
            .run();
        assert_eq!(r.outcome, SearchOutcome::TargetReached);
        assert!(r.schedule_length <= loose_target);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let prob = example_problem();
        let r = AStarScheduler::new(&prob).run();
        assert!(r.stats.generated >= r.stats.expanded);
        assert!(r.stats.max_open_size > 0);
        // Every heuristic evaluation corresponds to a generated child that was
        // then either kept, discarded by the upper bound, or a duplicate.
        assert_eq!(
            r.stats.heuristic_evaluations,
            (r.stats.generated - 1) + r.stats.pruned_upper_bound + r.stats.duplicates
        );
        assert!(r.stats.reclaimed_records > 0, "the default run reclaims dead records");
        assert!(
            r.stats.peak_live_records < r.stats.generated,
            "live records stay below the total ever generated"
        );
        assert!(r.elapsed.as_secs() < 10);
    }

    #[test]
    fn heterogeneous_processors_send_work_to_the_fast_one() {
        let g = fork_join(2, 4, 1);
        let net = ProcNetwork::fully_connected(2).with_cycle_times(&[1, 10]);
        let prob = SchedulingProblem::new(g, net);
        let r = AStarScheduler::new(&prob).run();
        assert!(r.is_optimal());
        // Serial on the fast processor: 4 tasks x 4 units = 16; using the slow
        // processor for a worker would cost 1 + 1 + 40 + ... far more.
        assert_eq!(r.schedule_length, 16);
    }
}
