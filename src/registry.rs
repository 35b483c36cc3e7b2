//! The scheduler dispatch point: one function of the algorithm name for
//! every scheduler family in the workspace.
//!
//! The CLI, the service, the experiment binaries and the conformance suite
//! build a [`SchedulerSpec`] (the union of every family's knobs) and call
//! [`SchedulerSpec::run`] with one of the [`NAMES`]; none of them has
//! per-algorithm code paths.  Adding a scheduler family to the workspace
//! means one arm in [`SchedulerSpec::run`], one in
//! [`SchedulerSpec::describe`] and its name in [`NAMES`] — every front end
//! picks it up.

use optsched_core::{
    AEpsScheduler, AStarScheduler, ChenYuScheduler, ExhaustiveScheduler, HeuristicKind,
    PruningConfig, SchedulingProblem, SearchLimits, SearchOutcome, SearchResult, SearchStats,
    WAStarScheduler,
};
use optsched_listsched::upper_bound_schedule;
use optsched_parallel::{ParallelAStarScheduler, ParallelConfig, ParallelSearchResult};
use optsched_schedule::Schedule;

/// The result of a dispatched run: the uniform [`SearchResult`] plus any
/// family-specific extras (e.g. the parallel scheduler's CLOSED-table
/// counters) as displayable label/value pairs.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The uniform search result (schedule, outcome, stats, elapsed time).
    pub result: SearchResult,
    /// Family-specific report lines, in display order.
    pub extras: Vec<(String, String)>,
}

/// Configuration shared by every scheduler family; each family reads the
/// knobs that apply to it.
#[derive(Debug, Clone)]
pub struct SchedulerSpec {
    /// Resource limits (all families, including `exhaustive`; for
    /// `parallel` they override [`ParallelConfig::limits`]).
    pub limits: SearchLimits,
    /// Pruning techniques (A\* family; Chen & Yu and exhaustive ignore it by
    /// construction).
    pub pruning: PruningConfig,
    /// Admissible heuristic (A\* family).
    pub heuristic: HeuristicKind,
    /// Approximation factor of `aeps` (also applied to `parallel` when
    /// [`ParallelConfig::epsilon`] is set there).
    pub epsilon: f64,
    /// Heuristic weight of `wastar` (`>= 1`; 1.0 makes it bit-identical to
    /// `astar`).
    pub weight: f64,
    /// Seeds the serial searches (`astar`, `wastar`, `aeps`, `chenyu`) with
    /// the list-scheduling schedule as an *attained* incumbent: the
    /// branch-and-bound elimination starts from the list upper bound instead
    /// of infinity and the upper-bound rule prunes states that cannot
    /// strictly improve on it.  Off by default (the classic behaviour, and
    /// what the pinned `tests/engine_equivalence.rs` literals measure); the
    /// scheduling service switches it on.
    pub seed_incumbent: bool,
    /// A complete schedule attained by an earlier run (a cached near-match,
    /// the anytime leg of a race) handed to the serial searches (`astar`,
    /// `wastar`, `aeps`, `chenyu`) as a candidate starting incumbent.  The
    /// engine adopts it only when it beats the incumbent the run would start
    /// from otherwise; the caller must guarantee it is feasible for the
    /// problem being solved.  `None` (the default) changes nothing.
    pub warm_start: Option<Schedule>,
    /// Configuration of the `parallel` family.
    pub parallel: ParallelConfig,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec {
            limits: SearchLimits::unlimited(),
            pruning: PruningConfig::all(),
            heuristic: HeuristicKind::default(),
            epsilon: 0.2,
            weight: 1.0,
            seed_incumbent: false,
            warm_start: None,
            parallel: ParallelConfig::default(),
        }
    }
}

/// Converts a parallel result into the uniform [`SearchResult`] shape
/// (statistics aggregated over all PPEs).
pub fn parallel_to_search_result(r: &ParallelSearchResult) -> SearchResult {
    SearchResult {
        schedule_length: r.schedule_length(),
        schedule: Some(r.schedule.clone()),
        outcome: r.outcome.clone(),
        stats: r.total_stats(),
        elapsed: r.elapsed,
    }
}

/// Formats the arena path-cache hit rate (`path_cache_hits` over
/// materialisations) for report lines; `"n/a"` when the run never
/// materialised a state.
pub fn path_cache_hit_rate(stats: &SearchStats) -> String {
    if stats.materialisations == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.1}% ({} of {})",
            stats.path_cache_hits as f64 / stats.materialisations as f64 * 100.0,
            stats.path_cache_hits,
            stats.materialisations
        )
    }
}

/// Every scheduler family [`SchedulerSpec::run`] dispatches to, in display
/// order (also the CLI's `--algorithm` values).
pub const NAMES: [&str; 7] =
    ["astar", "wastar", "aeps", "chenyu", "exhaustive", "list", "parallel"];

impl SchedulerSpec {
    /// Runs the family called `name` on `problem` with this spec's knobs;
    /// `None` when `name` is not one of [`NAMES`].
    pub fn run(&self, name: &str, problem: &SchedulingProblem) -> Option<SearchReport> {
        let result = match name {
            "astar" => AStarScheduler::new(problem)
                .with_pruning(self.pruning)
                .with_heuristic(self.heuristic)
                .with_limits(self.limits)
                .with_seeded_incumbent(self.seed_incumbent)
                .with_warm_start(self.warm_start.clone())
                .run(),
            "wastar" => WAStarScheduler::new(problem, self.weight)
                .with_pruning(self.pruning)
                .with_heuristic(self.heuristic)
                .with_limits(self.limits)
                .with_seeded_incumbent(self.seed_incumbent)
                .with_warm_start(self.warm_start.clone())
                .run(),
            "aeps" => AEpsScheduler::new(problem, self.epsilon)
                .with_pruning(self.pruning)
                .with_heuristic(self.heuristic)
                .with_limits(self.limits)
                .with_seeded_incumbent(self.seed_incumbent)
                .with_warm_start(self.warm_start.clone())
                .run(),
            "chenyu" => ChenYuScheduler::new(problem)
                .with_limits(self.limits)
                .with_seeded_incumbent(self.seed_incumbent)
                .with_warm_start(self.warm_start.clone())
                .run(),
            "exhaustive" => ExhaustiveScheduler::new(problem).with_limits(self.limits).run(),
            "list" => {
                let start = std::time::Instant::now();
                let schedule = upper_bound_schedule(problem.graph(), problem.network());
                SearchResult {
                    schedule_length: schedule.makespan(),
                    schedule: Some(schedule),
                    outcome: SearchOutcome::Heuristic,
                    stats: Default::default(),
                    elapsed: start.elapsed(),
                }
            }
            "parallel" => return Some(self.run_parallel(problem)),
            _ => return None,
        };
        Some(SearchReport { result, extras: Vec::new() })
    }

    /// One-line human description of the family called `name` as this spec
    /// configures it (the CLI's `algorithm` report line); `None` when `name`
    /// is not one of [`NAMES`].
    pub fn describe(&self, name: &str) -> Option<String> {
        Some(match name {
            "astar" => "serial A*".to_string(),
            "wastar" => format!("weighted A* (w = {}, anytime)", self.weight),
            "aeps" => format!("Aε* (ε = {})", self.epsilon),
            "chenyu" => "Chen & Yu branch-and-bound".to_string(),
            "exhaustive" => "exhaustive enumeration".to_string(),
            "list" => "list-scheduling heuristic".to_string(),
            "parallel" => format!(
                "parallel A* ({} PPEs, {} duplicate detection)",
                self.parallel.num_ppes, self.parallel.duplicate_detection
            ),
            _ => return None,
        })
    }

    /// The `parallel` family: the spec's limits override
    /// [`ParallelConfig::limits`], and the PPE and CLOSED-table counters come
    /// back as extras.
    fn run_parallel(&self, problem: &SchedulingProblem) -> SearchReport {
        let mut cfg = self.parallel;
        cfg.limits = self.limits;
        let r = ParallelAStarScheduler::new(problem, cfg).run();
        let totals = r.total_stats();
        let mut extras = vec![
            ("states expanded".to_string(), r.total_expanded().to_string()),
            (
                "redundant cross-PPE expansions avoided".to_string(),
                r.redundant_expansions_avoided().to_string(),
            ),
            ("peak_live_states".to_string(), r.peak_live_states().to_string()),
            ("peak_live_records".to_string(), totals.peak_live_records.to_string()),
            ("reclaimed_records".to_string(), totals.reclaimed_records.to_string()),
            ("path-cache hit rate".to_string(), path_cache_hit_rate(&totals)),
            (
                "path-cache ancestor hits".to_string(),
                totals.path_cache_ancestor_hits.to_string(),
            ),
            ("replayed deltas saved".to_string(), totals.replayed_deltas_saved.to_string()),
            ("in-flight peak".to_string(), r.peak_in_flight.to_string()),
            ("election transfers".to_string(), r.election_transfers().to_string()),
        ];
        if let Some(table) = &r.closed_stats {
            extras.push((
                "closed table".to_string(),
                format!(
                    "{} shards, {} entries, hit rate {:.1}%",
                    table.num_shards(),
                    table.total_entries(),
                    table.hit_rate() * 100.0
                ),
            ));
        }
        SearchReport { result: parallel_to_search_result(&r), extras }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn registry_lists_every_family() {
        assert_eq!(NAMES, ["astar", "wastar", "aeps", "chenyu", "exhaustive", "list", "parallel"]);
        let spec = SchedulerSpec::default();
        for name in NAMES {
            assert!(spec.describe(name).is_some(), "{name}");
        }
        assert!(spec.describe("quantum").is_none());
        assert!(spec.run("quantum", &example_problem()).is_none());
    }

    #[test]
    fn every_exact_family_reaches_the_paper_optimum_via_dispatch() {
        let problem = example_problem();
        let spec = SchedulerSpec::default();
        for name in ["astar", "wastar", "aeps", "chenyu", "exhaustive", "parallel"] {
            let report = spec.run(name, &problem).expect(name);
            // aeps runs at the default ε = 0.2 (and wastar at the default
            // w = 1.0) yet still finds 14 here.
            assert_eq!(report.result.schedule_length, 14, "{name}");
            report
                .result
                .schedule
                .as_ref()
                .expect(name)
                .validate(problem.graph(), problem.network())
                .unwrap();
        }
        let list = spec.run("list", &problem).unwrap();
        assert_eq!(list.result.outcome, SearchOutcome::Heuristic);
        assert!(list.result.schedule_length >= 14);
    }

    #[test]
    fn parallel_entry_reports_extras() {
        let problem = example_problem();
        let spec = SchedulerSpec::default();
        let report = spec.run("parallel", &problem).unwrap();
        assert!(report.extras.iter().any(|(k, _)| k == "states expanded"));
        assert!(report.extras.iter().any(|(k, _)| k == "peak_live_states"));
        assert!(report.extras.iter().any(|(k, _)| k == "peak_live_records"));
        assert!(report.extras.iter().any(|(k, _)| k == "reclaimed_records"));
        assert!(report.extras.iter().any(|(k, _)| k == "path-cache hit rate"));
        assert!(report.extras.iter().any(|(k, _)| k == "path-cache ancestor hits"));
        assert!(report.extras.iter().any(|(k, _)| k == "replayed deltas saved"));
        assert!(report.extras.iter().any(|(k, _)| k == "election transfers"));
        assert!(
            report.extras.iter().any(|(k, _)| k == "closed table"),
            "default mode is sharded, which reports table stats"
        );
        let desc = spec.describe("parallel").unwrap();
        assert!(desc.contains("sharded"), "{desc}");
    }

    /// Arena reclamation reaches both the serial engines and the PPE workers
    /// through the dispatch: each family reclaims dead chains and keeps its
    /// record high-water mark below the generated count, where an append-only
    /// store keeps at least one record per generated state, without moving
    /// the optimum.
    #[test]
    fn arena_gc_knob_flows_through() {
        let problem = example_problem();
        let spec = SchedulerSpec::default();
        for name in ["astar", "parallel"] {
            let report = spec.run(name, &problem).unwrap();
            let stats = &report.result.stats;
            assert_eq!(report.result.schedule_length, 14, "{name}");
            assert!(stats.reclaimed_records > 0, "{name}: the arena must reclaim");
            assert!(
                stats.peak_live_records < stats.generated,
                "{name}: reclamation keeps the record high-water mark ({}) below the \
                 states generated ({})",
                stats.peak_live_records,
                stats.generated
            );
        }
    }

    #[test]
    fn path_cache_hit_rate_formats() {
        let none = SearchStats::default();
        assert_eq!(path_cache_hit_rate(&none), "n/a");
        let some = SearchStats { materialisations: 8, path_cache_hits: 2, ..Default::default() };
        assert_eq!(path_cache_hit_rate(&some), "25.0% (2 of 8)");
    }

    #[test]
    fn spec_knobs_flow_through() {
        let problem = example_problem();
        let spec = SchedulerSpec {
            limits: SearchLimits::expansions(1),
            ..SchedulerSpec::default()
        };
        for name in ["astar", "wastar", "exhaustive"] {
            let report = spec.run(name, &problem).unwrap();
            assert_eq!(report.result.outcome, SearchOutcome::LimitReached, "{name}");
        }
    }

    /// The `wastar` family reads the spec's weight (visible in its banner and
    /// in the `w x optimal` bound) and the seeded-incumbent knob reaches the
    /// serial families without changing their optima.
    #[test]
    fn weight_and_seed_knobs_flow_through() {
        let problem = example_problem();
        let spec = SchedulerSpec { weight: 2.0, seed_incumbent: true, ..SchedulerSpec::default() };
        assert!(spec.describe("wastar").unwrap().contains("w = 2"));
        let w = spec.run("wastar", &problem).unwrap();
        assert!(w.result.schedule_length <= 28, "2 x optimal bound");
        w.result.schedule.as_ref().unwrap().validate(problem.graph(), problem.network()).unwrap();
        for name in ["astar", "chenyu"] {
            let seeded = spec.run(name, &problem).unwrap();
            assert!(seeded.result.is_optimal(), "{name}");
            assert_eq!(seeded.result.schedule_length, 14, "{name}");
            // Strict pruning against the attained list incumbent can only
            // shrink the search.
            let plain = SchedulerSpec::default().run(name, &problem).unwrap();
            assert!(
                seeded.result.stats.expanded <= plain.result.stats.expanded,
                "{name}: seeded {} vs plain {}",
                seeded.result.stats.expanded,
                plain.result.stats.expanded
            );
        }
    }
}
