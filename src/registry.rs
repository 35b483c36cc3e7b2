//! The scheduler registry: one object-safe dispatch point for every
//! scheduler family in the workspace.
//!
//! The CLI, the experiment binaries and the conformance suite used to
//! hand-match algorithm names onto concrete scheduler types; they now build a
//! [`SchedulerSpec`] (the union of every family's knobs), instantiate a
//! [`SchedulerRegistry`] and dispatch by name through the [`Scheduler`]
//! trait.  Adding a scheduler family to the workspace means implementing the
//! trait and registering one entry here — every front end picks it up.

use optsched_core::{
    AEpsScheduler, AStarScheduler, ChenYuScheduler, ExhaustiveScheduler, HeuristicKind,
    PruningConfig, SchedulingProblem, SearchLimits, SearchOutcome, SearchResult, SearchStats,
    WAStarScheduler,
};
use optsched_listsched::upper_bound_schedule;
use optsched_parallel::{ParallelAStarScheduler, ParallelConfig, ParallelSearchResult};
use optsched_schedule::Schedule;

/// An object-safe scheduler: anything that maps a [`SchedulingProblem`] to a
/// [`SearchResult`].
pub trait Scheduler {
    /// The registry name (and CLI `--algorithm` value) of this scheduler.
    fn name(&self) -> &'static str;

    /// One-line human description (shown by `optsched schedule --help`-style
    /// listings and used in reports).
    fn description(&self) -> String;

    /// Runs the scheduler on `problem`.
    fn run(&self, problem: &SchedulingProblem) -> SearchReport;
}

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

impl SearchReport {
    fn plain(result: SearchResult) -> SearchReport {
        SearchReport { result, extras: Vec::new() }
    }
}

/// Configuration shared by every registered scheduler family; each family
/// reads the knobs that apply to it.
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

struct AStarEntry(SchedulerSpec);
struct WAStarEntry(SchedulerSpec);
struct AEpsEntry(SchedulerSpec);
struct ChenYuEntry(SchedulerSpec);
struct ExhaustiveEntry(SchedulerSpec);
struct ListEntry;
struct ParallelEntry(SchedulerSpec);

impl Scheduler for AStarEntry {
    fn name(&self) -> &'static str {
        "astar"
    }
    fn description(&self) -> String {
        "serial A*".to_string()
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        SearchReport::plain(
            AStarScheduler::new(problem)
                .with_pruning(self.0.pruning)
                .with_heuristic(self.0.heuristic)
                .with_limits(self.0.limits)
                .with_seeded_incumbent(self.0.seed_incumbent)
                .with_warm_start(self.0.warm_start.clone())
                .run(),
        )
    }
}

impl Scheduler for WAStarEntry {
    fn name(&self) -> &'static str {
        "wastar"
    }
    fn description(&self) -> String {
        format!("weighted A* (w = {}, anytime)", self.0.weight)
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        SearchReport::plain(
            WAStarScheduler::new(problem, self.0.weight)
                .with_pruning(self.0.pruning)
                .with_heuristic(self.0.heuristic)
                .with_limits(self.0.limits)
                .with_seeded_incumbent(self.0.seed_incumbent)
                .with_warm_start(self.0.warm_start.clone())
                .run(),
        )
    }
}

impl Scheduler for AEpsEntry {
    fn name(&self) -> &'static str {
        "aeps"
    }
    fn description(&self) -> String {
        format!("Aε* (ε = {})", self.0.epsilon)
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        SearchReport::plain(
            AEpsScheduler::new(problem, self.0.epsilon)
                .with_pruning(self.0.pruning)
                .with_heuristic(self.0.heuristic)
                .with_limits(self.0.limits)
                .with_seeded_incumbent(self.0.seed_incumbent)
                .with_warm_start(self.0.warm_start.clone())
                .run(),
        )
    }
}

impl Scheduler for ChenYuEntry {
    fn name(&self) -> &'static str {
        "chenyu"
    }
    fn description(&self) -> String {
        "Chen & Yu branch-and-bound".to_string()
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        SearchReport::plain(
            ChenYuScheduler::new(problem)
                .with_limits(self.0.limits)
                .with_seeded_incumbent(self.0.seed_incumbent)
                .with_warm_start(self.0.warm_start.clone())
                .run(),
        )
    }
}

impl Scheduler for ExhaustiveEntry {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn description(&self) -> String {
        "exhaustive enumeration".to_string()
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        SearchReport::plain(
            ExhaustiveScheduler::new(problem)
                .with_limits(self.0.limits)
                .run(),
        )
    }
}

impl Scheduler for ListEntry {
    fn name(&self) -> &'static str {
        "list"
    }
    fn description(&self) -> String {
        "list-scheduling heuristic".to_string()
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        let start = std::time::Instant::now();
        let schedule = upper_bound_schedule(problem.graph(), problem.network());
        SearchReport::plain(SearchResult {
            schedule_length: schedule.makespan(),
            schedule: Some(schedule),
            outcome: SearchOutcome::Heuristic,
            stats: Default::default(),
            elapsed: start.elapsed(),
        })
    }
}

impl Scheduler for ParallelEntry {
    fn name(&self) -> &'static str {
        "parallel"
    }
    fn description(&self) -> String {
        format!(
            "parallel A* ({} PPEs, {} duplicate detection)",
            self.0.parallel.num_ppes, self.0.parallel.duplicate_detection
        )
    }
    fn run(&self, problem: &SchedulingProblem) -> SearchReport {
        let mut cfg = self.0.parallel;
        cfg.limits = self.0.limits;
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

/// A name → [`Scheduler`] table over every family in the workspace.
pub struct SchedulerRegistry {
    entries: Vec<Box<dyn Scheduler>>,
}

impl SchedulerRegistry {
    /// The built-in families (`astar`, `wastar`, `aeps`, `chenyu`,
    /// `exhaustive`, `list`, `parallel`), each configured from `spec`.
    pub fn with_spec(spec: SchedulerSpec) -> SchedulerRegistry {
        SchedulerRegistry {
            entries: vec![
                Box::new(AStarEntry(spec.clone())),
                Box::new(WAStarEntry(spec.clone())),
                Box::new(AEpsEntry(spec.clone())),
                Box::new(ChenYuEntry(spec.clone())),
                Box::new(ExhaustiveEntry(spec.clone())),
                Box::new(ListEntry),
                Box::new(ParallelEntry(spec)),
            ],
        }
    }

    /// The registry with every knob at its default.
    pub fn builtin() -> SchedulerRegistry {
        SchedulerRegistry::with_spec(SchedulerSpec::default())
    }

    /// Looks a scheduler up by its registry name.
    pub fn get(&self, name: &str) -> Option<&dyn Scheduler> {
        self.entries.iter().find(|s| s.name() == name).map(|b| b.as_ref())
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name()).collect()
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
        let reg = SchedulerRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec!["astar", "wastar", "aeps", "chenyu", "exhaustive", "list", "parallel"]
        );
        assert!(reg.get("astar").is_some());
        assert!(reg.get("wastar").is_some());
        assert!(reg.get("quantum").is_none());
    }

    #[test]
    fn every_exact_family_reaches_the_paper_optimum_via_dispatch() {
        let problem = example_problem();
        let reg = SchedulerRegistry::builtin();
        for name in ["astar", "wastar", "aeps", "chenyu", "exhaustive", "parallel"] {
            let report = reg.get(name).expect(name).run(&problem);
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
        let list = reg.get("list").unwrap().run(&problem);
        assert_eq!(list.result.outcome, SearchOutcome::Heuristic);
        assert!(list.result.schedule_length >= 14);
    }

    #[test]
    fn parallel_entry_reports_extras() {
        let problem = example_problem();
        let reg = SchedulerRegistry::builtin();
        let report = reg.get("parallel").unwrap().run(&problem);
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
        let desc = reg.get("parallel").unwrap().description();
        assert!(desc.contains("sharded"), "{desc}");
    }

    /// Arena reclamation reaches both the serial engines and the PPE workers
    /// through the registry: each family reclaims dead chains and keeps its
    /// record high-water mark below the generated count, where an append-only
    /// store keeps at least one record per generated state, without moving
    /// the optimum.
    #[test]
    fn arena_gc_knob_flows_through() {
        let problem = example_problem();
        let reg = SchedulerRegistry::builtin();
        for name in ["astar", "parallel"] {
            let report = reg.get(name).unwrap().run(&problem);
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
        let reg = SchedulerRegistry::with_spec(spec);
        for name in ["astar", "wastar", "exhaustive"] {
            let report = reg.get(name).unwrap().run(&problem);
            assert_eq!(report.result.outcome, SearchOutcome::LimitReached, "{name}");
        }
    }

    /// The `wastar` entry reads the spec's weight (visible in its banner and
    /// in the `w x optimal` bound) and the seeded-incumbent knob reaches the
    /// serial families without changing their optima.
    #[test]
    fn weight_and_seed_knobs_flow_through() {
        let problem = example_problem();
        let spec = SchedulerSpec { weight: 2.0, seed_incumbent: true, ..SchedulerSpec::default() };
        let reg = SchedulerRegistry::with_spec(spec);
        assert!(reg.get("wastar").unwrap().description().contains("w = 2"));
        let w = reg.get("wastar").unwrap().run(&problem);
        assert!(w.result.schedule_length <= 28, "2 x optimal bound");
        w.result.schedule.as_ref().unwrap().validate(problem.graph(), problem.network()).unwrap();
        for name in ["astar", "chenyu"] {
            let seeded = reg.get(name).unwrap().run(&problem);
            assert!(seeded.result.is_optimal(), "{name}");
            assert_eq!(seeded.result.schedule_length, 14, "{name}");
            // Strict pruning against the attained list incumbent can only
            // shrink the search.
            let plain = SchedulerRegistry::builtin().get(name).unwrap().run(&problem);
            assert!(
                seeded.result.stats.expanded <= plain.result.stats.expanded,
                "{name}: seeded {} vs plain {}",
                seeded.result.stats.expanded,
                plain.result.stats.expanded
            );
        }
    }
}
