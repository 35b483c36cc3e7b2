//! The Chen & Yu branch-and-bound baseline (reference \[3\] of the paper).
//!
//! Chen and Yu's algorithm is a branch-and-bound-with-underestimates search
//! for the same problem.  Its distinguishing feature — and the reason the
//! paper's A* outperforms it (Section 4.2) — is the cost of evaluating its
//! underestimate: for every newly generated state it
//!
//! 1. determines **all complete execution paths** extended from the node just
//!    scheduled,
//! 2. exhaustively **matches those paths against the processor graph** to
//!    find the minimum communication the remaining work must incur, and
//! 3. takes the estimated finish time of the last exit node as the bound.
//!
//! This re-implementation follows that recipe literally: the bound is
//! computed by explicit depth-first enumeration of the execution paths
//! (rather than from precomputed static levels) and, for every edge of every
//! path, the minimum communication is obtained by scanning processor pairs.
//! The value obtained is an admissible lower bound — numerically it can never
//! exceed the true remaining time — so the search is still exact; it is the
//! *evaluation cost per state* that differs from the A* scheduler, which is
//! exactly the asymmetry Table 1 measures.  [`SearchStats::path_segments_enumerated`]
//! records how much path-matching work was performed.
//!
//! No state-space pruning techniques are applied (Chen & Yu's algorithm
//! predates them); duplicate partial schedules are still detected, as in any
//! reasonable implementation, to keep memory bounded.

use optsched_procnet::ProcId;
use optsched_schedule::Schedule;
use optsched_taskgraph::{Cost, NodeId};

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::engine::{run_search, BoundPolicy, SearchConfig};
use crate::problem::SchedulingProblem;
use crate::state::SearchState;
use crate::stats::{SearchResult, SearchStats};

/// Safety valve: maximum number of path/processor-assignment segments
/// enumerated per bound evaluation before the enumeration is cut short (the
/// truncated maximum is still a valid lower bound).
///
/// Chen & Yu's evaluation is exponential in the path length (every complete
/// execution path is matched exhaustively against the processor graph); the
/// cap keeps the baseline runnable on the benchmark workloads while
/// preserving the property Table 1 measures — a per-state evaluation cost
/// that is one to two orders of magnitude above the A* cost function's.
const MAX_SEGMENTS_PER_EVALUATION: u64 = 4_000;

/// Re-implementation of the Chen & Yu branch-and-bound scheduler: a thin
/// configuration over the unified [`engine`](crate::engine) whose
/// [`BoundPolicy`] orders OPEN by the path-enumeration underestimate.
#[derive(Debug, Clone)]
pub struct ChenYuScheduler<'a> {
    problem: &'a SchedulingProblem,
    /// No pruning technique and the zero heuristic: Chen & Yu's algorithm
    /// predates the techniques, and its own bound replaces `h`.
    config: SearchConfig,
}

impl<'a> ChenYuScheduler<'a> {
    /// Creates the baseline scheduler.
    pub fn new(problem: &'a SchedulingProblem) -> Self {
        let config = SearchConfig {
            pruning: PruningConfig::none(),
            heuristic: HeuristicKind::Zero,
            ..SearchConfig::default()
        };
        ChenYuScheduler { problem, config }
    }

    /// Applies resource limits to the run.
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Starts the branch-and-bound elimination from the list-heuristic upper
    /// bound instead of the algorithm's native infinite incumbent (and prunes
    /// strictly, since that bound is attained; see
    /// [`SearchConfig::seed_incumbent`]).  This is
    /// the classic "seed BnB with a heuristic solution" accelerator — off by
    /// default to preserve the faithful-to-Chen-&-Yu baseline.
    pub fn with_seeded_incumbent(mut self, seed: bool) -> Self {
        self.config.seed_incumbent = seed;
        self
    }

    /// Hands the search a complete schedule attained elsewhere as a candidate
    /// starting incumbent (adopted only when strictly better than the bound
    /// the run would otherwise start from; must be feasible for this
    /// problem).
    pub fn with_warm_start(mut self, warm: Option<Schedule>) -> Self {
        self.config.warm_start = warm;
        self
    }

    /// The expensive underestimate: explicit enumeration of the execution
    /// paths from `from` (the node just scheduled), matched against the
    /// processor graph, yielding a lower bound on the time between `FT(from)`
    /// and the completion of the last exit node reachable from it.
    ///
    /// `state` may be either the child (with `from` scheduled) or its parent:
    /// the enumeration only consults the scheduled-status of strict
    /// descendants of `from`, which is identical in both.
    fn path_bound(&self, state: &SearchState, from: NodeId, stats: &mut SearchStats) -> Cost {
        let graph = self.problem.graph();
        let net = self.problem.network();
        let mut best: Cost = 0;
        // Depth-first enumeration of every path from `from` to an exit node.
        // The stack holds (node, next-child cursor); `comp_acc` / `comm_acc`
        // carry the accumulated computation and minimum-communication along
        // the current path, excluding `from` itself (the bound estimates the
        // time *after* FT(from)).
        let mut path: Vec<(NodeId, usize)> = vec![(from, 0)];
        let mut comp_acc: Vec<Cost> = vec![0];
        let mut comm_acc: Vec<Cost> = vec![0];
        let mut budget = MAX_SEGMENTS_PER_EVALUATION;
        while !path.is_empty() {
            let top = path.len() - 1;
            let (node, cursor) = path[top];
            // Only unscheduled successors contribute to the *remaining* work.
            let next = graph
                .successors(node)
                .iter()
                .enumerate()
                .skip(cursor)
                .find(|(_, &(c, _))| !state.is_scheduled(c));
            match next {
                Some((i, &(child, edge_comm))) if budget > 0 => {
                    path[top].1 = i + 1;
                    budget -= 1;
                    stats.path_segments_enumerated += 1;
                    // Minimum communication this edge can incur over all
                    // placements of its two endpoints (zero when co-located).
                    let mut min_comm = Cost::MAX;
                    for a in net.proc_ids() {
                        for b in net.proc_ids() {
                            min_comm = min_comm.min(net.comm_cost(edge_comm, a, b));
                        }
                    }
                    let comp = comp_acc[top] + graph.weight(child);
                    let comm = comm_acc[top] + min_comm;
                    best = best.max(comp + comm);
                    if graph.successors(child).is_empty() {
                        // A complete execution path has been determined:
                        // exhaustively match it against the processor graph,
                        // i.e. enumerate every assignment of the path's nodes
                        // to processors and take the cheapest total
                        // communication.  (Its minimum is attained by
                        // co-location, so the value cannot exceed the simple
                        // per-edge bound accumulated above — the enumeration
                        // is the evaluation cost Chen & Yu pay per state.)
                        let mut full_path: Vec<NodeId> = path.iter().map(|&(n, _)| n).collect();
                        full_path.push(child);
                        let matched =
                            exhaustive_path_matching(self.problem, &full_path, &mut budget, stats);
                        best = best.max(comp + matched);
                    } else {
                        path.push((child, 0));
                        comp_acc.push(comp);
                        comm_acc.push(comm);
                    }
                }
                _ => {
                    path.pop();
                    comp_acc.pop();
                    comm_acc.pop();
                }
            }
        }
        best
    }

    /// Runs the branch-and-bound search to completion (or until a limit is hit).
    ///
    /// Chen & Yu expand every ready node on every processor (no Section 3.2
    /// pruning — the techniques postdate the algorithm), and, unlike the
    /// paper's A*, have no external upper bound: branch-and-bound elimination
    /// only uses incumbents discovered by the search itself, which is why the
    /// [`BoundPolicy`] starts from an infinite incumbent length.  (The
    /// list-heuristic schedule is still the fallback result if a limit stops
    /// the run before any goal is found.)
    pub fn run(&self) -> SearchResult {
        let policy = BoundPolicy::new(
            |_problem: &SchedulingProblem,
             parent: &SearchState,
             delta: &crate::state::ChildDelta,
             stats: &mut SearchStats| {
                // The expensive underestimate is evaluated against the parent
                // plus the delta: the nodes the path enumeration visits are
                // all descendants of the node just scheduled, whose
                // scheduled-status is identical in parent and child.
                let remaining = self.path_bound(parent, delta.node, stats);
                delta.g.max(delta.finish + remaining)
            },
        );
        run_search(self.problem, policy, &self.config)
    }

    /// Exposes the bound computation for tests and the benches (value and
    /// enumeration cost for a single state).  The second element of the
    /// returned pair counts the path/assignment segments the evaluation
    /// enumerated (the "expensive cost function" measure of Section 4.2).
    pub fn evaluate_bound(&self, state: &SearchState, from: NodeId) -> (Cost, u64) {
        let mut stats = SearchStats::default();
        let b = self.path_bound(state, from, &mut stats);
        (b, stats.path_segments_enumerated)
    }
}

/// Exhaustively matches one complete execution path against the processor
/// graph: every assignment of the path's nodes to processors is enumerated
/// (odometer order) and the cheapest total communication along the path is
/// returned.  The all-co-located assignment is enumerated first, so even when
/// the per-evaluation `budget` cuts the enumeration short the returned
/// minimum is exact (zero) and the bound built from it stays admissible; the
/// rest of the enumeration is precisely the per-state evaluation expense the
/// paper's Section 4.2 attributes to Chen & Yu's algorithm.
fn exhaustive_path_matching(
    problem: &SchedulingProblem,
    path: &[NodeId],
    budget: &mut u64,
    stats: &mut SearchStats,
) -> Cost {
    let net = problem.network();
    let graph = problem.graph();
    let p = net.num_procs();
    if path.len() < 2 || p == 0 {
        return 0;
    }
    // Pre-fetch the edge weights along the path.
    let edge_weights: Vec<Cost> = path
        .windows(2)
        .map(|w| graph.edge_weight(w[0], w[1]).unwrap_or(0))
        .collect();
    let mut assignment = vec![0usize; path.len()];
    let mut best = Cost::MAX;
    loop {
        if *budget == 0 {
            break;
        }
        // Total communication of this processor assignment.
        let mut total = 0;
        for (i, &w) in edge_weights.iter().enumerate() {
            total += net.comm_cost(
                w,
                ProcId(assignment[i] as u32),
                ProcId(assignment[i + 1] as u32),
            );
            stats.path_segments_enumerated += 1;
            *budget = budget.saturating_sub(1);
        }
        best = best.min(total);
        // Advance the odometer.
        let mut pos = 0;
        loop {
            assignment[pos] += 1;
            if assignment[pos] < p {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
            if pos == path.len() {
                return if best == Cost::MAX { 0 } else { best };
            }
        }
    }
    if best == Cost::MAX {
        0
    } else {
        best
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
    fn chen_yu_finds_the_optimum_on_the_example() {
        let prob = example_problem();
        let r = ChenYuScheduler::new(&prob).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length, 14);
        r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
    }

    #[test]
    fn chen_yu_matches_astar_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for ccr in [0.1, 1.0, 10.0] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 9, ccr, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let a = AStarScheduler::new(&prob).run();
            let c = ChenYuScheduler::new(&prob).run();
            assert!(a.is_optimal() && c.is_optimal());
            assert_eq!(a.schedule_length, c.schedule_length, "ccr={ccr}");
        }
    }

    #[test]
    fn chen_yu_pays_for_path_enumeration() {
        let prob = example_problem();
        let cy = ChenYuScheduler::new(&prob).run();
        let astar = AStarScheduler::new(&prob).run();
        assert!(cy.stats.path_segments_enumerated > 0);
        assert_eq!(astar.stats.path_segments_enumerated, 0);
    }

    #[test]
    fn chen_yu_generates_at_least_as_many_states_as_pruned_astar() {
        let prob = example_problem();
        let cy = ChenYuScheduler::new(&prob).run();
        let astar = AStarScheduler::new(&prob).with_pruning(PruningConfig::all()).run();
        assert!(
            cy.stats.generated >= astar.stats.generated,
            "chen-yu {} vs a* {}",
            cy.stats.generated,
            astar.stats.generated
        );
    }

    #[test]
    fn bound_is_admissible_on_the_root_expansion() {
        // After scheduling n1 on PE0, the remaining time is at least 10 (the
        // static level of its heaviest successor) and the optimal schedule is
        // 14, so FT(n1) + bound must stay <= 14.
        let prob = example_problem();
        let scheduler = ChenYuScheduler::new(&prob);
        let s1 = SearchState::initial(&prob).schedule_node(
            &prob,
            NodeId(0),
            ProcId(0),
            HeuristicKind::Zero,
        );
        let (bound, work) = scheduler.evaluate_bound(&s1, NodeId(0));
        assert!(bound >= 10, "path enumeration must see the longest remaining chain");
        assert!(2 + bound <= 14, "bound must stay admissible");
        assert!(work > 0);
    }

    #[test]
    fn limits_are_honoured() {
        let prob = example_problem();
        let r = ChenYuScheduler::new(&prob).with_limits(SearchLimits::expansions(2)).run();
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        r.expect_schedule().validate(prob.graph(), prob.network()).unwrap();
    }
}
