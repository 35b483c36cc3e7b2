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
    AEpsScheduler, AStarScheduler, ChenYuScheduler, ExhaustiveScheduler, SchedulingProblem,
    SearchConfig, SearchOutcome, SearchResult, WAStarScheduler,
};
use optsched_listsched::upper_bound_schedule;
use optsched_parallel::{ParallelAStarScheduler, ParallelConfig, ParallelSearchResult};

/// The result of a dispatched run: the uniform [`SearchResult`] plus any
/// family-specific extras (e.g. the parallel scheduler's CLOSED-table
/// counters) as displayable label/value pairs — only what the uniform
/// statistics cannot say.
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
    /// The search configuration of the serial families.
    ///
    /// * [`SearchConfig::limits`] applies to every family, `exhaustive`
    ///   included; for `parallel` it overrides [`ParallelConfig::limits`].
    /// * [`SearchConfig::pruning`] and [`SearchConfig::heuristic`] apply to
    ///   the A\* family (`astar`, `wastar`, `aeps`).  Chen & Yu and
    ///   exhaustive ignore them by construction, and `parallel` reads
    ///   [`ParallelConfig`]'s.
    /// * [`SearchConfig::seed_incumbent`] and [`SearchConfig::warm_start`]
    ///   apply to `astar`, `wastar`, `aeps` and `chenyu`.  Seeding is off by
    ///   default (the classic behaviour, and what the pinned
    ///   `tests/engine_equivalence.rs` literals measure); the scheduling
    ///   service switches it on.
    pub search: SearchConfig,
    /// Approximation factor of `aeps` (also applied to `parallel` when
    /// [`ParallelConfig::epsilon`] is set there).
    pub epsilon: f64,
    /// Heuristic weight of `wastar` (`>= 1`; 1.0 makes it bit-identical to
    /// `astar`).
    pub weight: f64,
    /// Configuration of the `parallel` family.
    pub parallel: ParallelConfig,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec {
            search: SearchConfig::default(),
            epsilon: 0.2,
            weight: 1.0,
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

/// Every scheduler family [`SchedulerSpec::run`] dispatches to, in display
/// order (also the CLI's `--algorithm` values).
pub const NAMES: [&str; 7] =
    ["astar", "wastar", "aeps", "chenyu", "exhaustive", "list", "parallel"];

impl SchedulerSpec {
    /// Runs the family called `name` on `problem` with this spec's knobs;
    /// `None` when `name` is not one of [`NAMES`].
    pub fn run(&self, name: &str, problem: &SchedulingProblem) -> Option<SearchReport> {
        let search = &self.search;
        let result = match name {
            "astar" => AStarScheduler::new(problem).with_config(search.clone()).run(),
            "wastar" => {
                WAStarScheduler::new(problem, self.weight).with_config(search.clone()).run()
            }
            "aeps" => AEpsScheduler::new(problem, self.epsilon).with_config(search.clone()).run(),
            "chenyu" => ChenYuScheduler::new(problem)
                .with_limits(search.limits)
                .with_seeded_incumbent(search.seed_incumbent)
                .with_warm_start(search.warm_start.clone())
                .run(),
            "exhaustive" => ExhaustiveScheduler::new(problem).with_limits(search.limits).run(),
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
    /// [`ParallelConfig::limits`], and what the totals over the PPEs cannot
    /// say comes back as extras: the cross-PPE duplicates, the memory
    /// headline with the in-flight peak, the elections and the CLOSED table.
    fn run_parallel(&self, problem: &SchedulingProblem) -> SearchReport {
        let mut cfg = self.parallel;
        cfg.limits = self.search.limits;
        let r = ParallelAStarScheduler::new(problem, cfg).run();
        let mut extras = vec![
            (
                "redundant cross-PPE expansions avoided".to_string(),
                r.redundant_expansions_avoided().to_string(),
            ),
            ("peak_live_states".to_string(), r.peak_live_states().to_string()),
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
    use optsched_core::SearchLimits;
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

    /// The parallel extras hold only what the uniform statistics cannot
    /// say; the expansion and arena counters are in `result.stats`, summed
    /// over the PPEs, as for every other family.
    #[test]
    fn parallel_entry_reports_extras() {
        let problem = example_problem();
        let spec = SchedulerSpec::default();
        let report = spec.run("parallel", &problem).unwrap();
        let labels: Vec<&str> = report.extras.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            labels,
            [
                "redundant cross-PPE expansions avoided",
                "peak_live_states",
                "in-flight peak",
                "election transfers",
                "closed table", // the default mode is sharded
            ]
        );
        let stats = &report.result.stats;
        assert!(stats.expanded > 0 && stats.generated > 0);
        assert!(stats.peak_live_records > 0 && stats.reclaimed_records > 0);
        assert!(stats.materialisations > 0);
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
    fn spec_knobs_flow_through() {
        let problem = example_problem();
        let limits = SearchLimits::expansions(1);
        let search = SearchConfig { limits, ..SearchConfig::default() };
        let spec = SchedulerSpec { search, ..SchedulerSpec::default() };
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
        let search = SearchConfig { seed_incumbent: true, ..SearchConfig::default() };
        let spec = SchedulerSpec { weight: 2.0, search, ..SchedulerSpec::default() };
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
