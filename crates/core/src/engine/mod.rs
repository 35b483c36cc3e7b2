//! The unified best-first search engine.
//!
//! Every scheduler family in this workspace — serial A\*, Aε\*, the Chen & Yu
//! branch-and-bound baseline, exhaustive enumeration, and each PPE of the
//! parallel scheduler — is one state-space search over partial schedules.
//! This module implements that search **once**:
//!
//! * [`Search::step`] is the only search step in the workspace: it pops the
//!   policy's next state, materialises it, tests it for a goal, enforces the
//!   [`SearchLimits`], and expands it through the per-child pipeline
//!   (evaluate → bound-prune → duplicate-check → store).  What
//!   differentiates the algorithms — child evaluation, bound pruning and
//!   expansion order — lives behind the [`FrontierPolicy`] trait
//!   ([`policy`]).
//! * [`run_search`] is the serial scheduler: a loop over [`Search::step`].
//!   `AStarScheduler`, `AEpsScheduler`, `WAStarScheduler`, `ChenYuScheduler`
//!   and `ExhaustiveScheduler` are thin configurations over it.  Each PPE of
//!   the parallel scheduler drives the same step between its message
//!   handling and communication phases, with its shared incumbent behind
//!   the [`Incumbent`] hook and its CLOSED table behind [`DuplicateFilter`].
//! * [`StateArena`] ([`arena`]) stores generated states as parent-id +
//!   [`ChildDelta`] records and materialises a full [`SearchState`] only when
//!   a state is selected for expansion.  The parallel scheduler ships every
//!   state between the PPEs' arenas as one snapshot
//!   ([`StateArena::materialise_owned`] / [`StateArena::adopt_snapshot`]).
//! * [`SignatureSet`] is the serial duplicate filter: packed
//!   [`StateSignature`] words in a chunked row slab, found through a flat
//!   index split into independently growing parts.
//! * [`BucketQueue`] ([`bucket`]) is OPEN for every best-first policy:
//!   groups of equal integer keys, each a FIFO list of 16-byte pooled nodes
//!   under A\*.

pub mod arena;
pub mod bucket;
pub mod policy;
mod seen;

use std::time::{Duration, Instant};

use optsched_obs as obs;
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, SearchState, StateSignature};
use crate::stats::{SearchOutcome, SearchResult, SearchStats};

pub use arena::{ArenaConfig, StateArena, StateId};
pub use bucket::{BucketQueue, Queued};
pub use policy::{
    focal_threshold, AStarPolicy, BoundPolicy, DfsPolicy, FocalPolicy, FrontierPolicy, OpenEntry,
    WeightedAStarPolicy,
};
pub use seen::SignatureSet;

/// The engine's duplicate-detection hook.
///
/// The serial engine uses [`SignatureSet`]; the parallel scheduler plugs its
/// sharded global CLOSED table (or the paper's per-PPE private sets) in
/// behind this trait, preserving its claim-ownership semantics.
pub trait DuplicateFilter {
    /// Decides whether the state identified by `sig` (with path cost `g`)
    /// is new.  Returns `false` — after updating the duplicate counters in
    /// `stats` — when an identical partial schedule was already seen.
    fn admit(&mut self, sig: StateSignature, g: Cost, stats: &mut SearchStats) -> bool;
}

/// Where a [`Search`] keeps the best complete schedule it knows.
///
/// A serial search owns its incumbent; the PPEs of the parallel scheduler
/// share one, together with the work counted against the run's limits.
pub trait Incumbent {
    /// Makespan of the best complete schedule known: the bound generated
    /// children are pruned against.
    fn makespan(&self) -> Cost;

    /// Offers a complete schedule of length `len`, built by `schedule` only
    /// if it is kept.  It is kept when strictly shorter than the incumbent;
    /// returns whether it was.
    fn offer(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool;

    /// A goal popped under a policy whose first popped goal is final
    /// ([`FrontierPolicy::goal_on_pop_is_final`]).  Returns `true` when the
    /// search ends on it, which a serial search does, taking the schedule
    /// even at equal length.  A PPE only offers it and returns `false`: its
    /// global termination test decides when the run ends.
    fn settle(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool;

    /// The expansions and generations counted against
    /// [`SearchLimits::max_expansions`] and [`SearchLimits::max_generated`]:
    /// the search's own, `own`, unless it shares its limits with other
    /// searches.
    fn work(&self, own: &SearchStats) -> (u64, u64) {
        (own.expanded, own.generated)
    }
}

/// What a search takes besides the problem and the frontier policy.
#[derive(Debug, Clone, Default)]
pub struct SearchConfig {
    /// The Section 3.2 pruning techniques in force.
    pub pruning: PruningConfig,
    /// The admissible heuristic evaluated for every child.
    pub heuristic: HeuristicKind,
    /// Resource limits; a limited run returns its incumbent as
    /// [`SearchOutcome::LimitReached`].
    pub limits: SearchLimits,
    /// Treats the list-heuristic schedule as an *attained* incumbent from
    /// the first expansion on.  The length the policy's bound pruning starts
    /// from is capped at [`SchedulingProblem::upper_bound`] (the big win for
    /// branch-and-bound, whose own initial bound is infinite), and the bound
    /// handed to [`FrontierPolicy::evaluate`] is tightened by one, so
    /// children that cannot *strictly* improve on a schedule the search
    /// already holds are discarded.  Exhausting the frontier then *is* the
    /// optimality proof for the incumbent (the evaluation is admissible and
    /// only provably non-improving states were pruned), so such a run
    /// reports [`SearchOutcome::Optimal`] instead of `Exhausted`.  The
    /// tightened bound requires the policy to treat the passed incumbent
    /// length as an inclusive upper bound (`value > bound` ⇒ prune), which
    /// holds for every best-first policy here but *not* for [`DfsPolicy`]'s
    /// special goal handling — the exhaustive enumerator therefore never
    /// sets it (it effectively seeds already).  Off by default.
    pub seed_incumbent: bool,
    /// A complete schedule attained by an earlier run (a cache near-match,
    /// a raced anytime leg), adopted as the starting incumbent only when it
    /// beats the one the search would otherwise start from; `None`, and any
    /// warm schedule that is no better, leaves the run unchanged.  The
    /// caller must guarantee the schedule is feasible **for this problem**;
    /// the engine trusts it the same way it trusts the list schedule.
    pub warm_start: Option<Schedule>,
}

/// Expansions between wall-clock reads when enforcing
/// [`SearchLimits::max_millis`], whatever the budget; the first expansion
/// always reads it, so a 0 ms deadline still stops before any work (the
/// anytime contract the service relies on).  A read is not a syscall where
/// the clock is served from user space: `Instant::now()` is a vDSO read of
/// about 45–50 ns on x86-64 Linux with the `tsc` clocksource, noise against
/// the microseconds one expansion takes.  The cadence, not the read's cost,
/// bounds the overshoot: a stretch of 64 expansions is a fraction of a
/// millisecond.  The `expansion_rate` trace sample shares the cadence.
const TIME_CHECK_CADENCE: u64 = 64;

/// What one [`Search::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Expanded a state and stored its surviving children.
    Expanded,
    /// Popped a complete schedule and offered it to the incumbent; the
    /// search goes on.
    Goal,
    /// OPEN is empty.
    Empty,
    /// The search is over: a final goal was settled
    /// ([`SearchOutcome::Optimal`]) or a limit stopped it.
    Stop(SearchOutcome),
}

/// One best-first search: the state store, the duplicate filter, the
/// frontier policy, the insertion counter, the statistics and the
/// incumbent, advanced one state at a time by [`Search::step`].
///
/// The store, the filter, the policy and the statistics are public so that
/// a PPE of the parallel scheduler can move states in and out between steps
/// (its transfers and communication phase); states put on OPEN go through
/// [`Search::push`], which keeps the insertion order.
pub struct Search<'p, P, D, I> {
    /// The problem being solved.
    problem: &'p SchedulingProblem,
    pruning: PruningConfig,
    heuristic: HeuristicKind,
    limits: SearchLimits,
    seed_incumbent: bool,
    /// Generated states, as parent + delta records.  Slot 0 holds the
    /// initial (empty) state; every delta chain bottoms out there or at an
    /// adopted snapshot.
    pub arena: StateArena<'p>,
    /// Duplicate detection for generated children.
    pub dup: D,
    /// OPEN and the algorithm's evaluation rule.
    pub policy: P,
    /// The counters of this search.
    pub stats: SearchStats,
    incumbent: I,
    /// Insertion counter: the `seq` of the last entry pushed.
    seq: u64,
    /// The children of the state being expanded, kept until it is stored.
    kept: Vec<(ChildDelta, Cost)>,
    started: Instant,
    track: u64,
}

impl<'p, P: FrontierPolicy, D: DuplicateFilter, I: Incumbent> Search<'p, P, D, I> {
    /// A search over `problem` with an empty OPEN and the initial state
    /// stored in slot 0 of the arena.  Its clock, which
    /// [`SearchLimits::max_millis`] is measured on, starts here.
    /// `config.warm_start` is the incumbent's business and is not read.
    pub fn new(
        problem: &'p SchedulingProblem,
        policy: P,
        dup: D,
        incumbent: I,
        config: &SearchConfig,
    ) -> Self {
        let mut arena = StateArena::new(problem, ArenaConfig);
        arena.insert_root(SearchState::initial(problem));
        Search {
            problem,
            pruning: config.pruning,
            heuristic: config.heuristic,
            limits: config.limits,
            seed_incumbent: config.seed_incumbent,
            arena,
            dup,
            policy,
            stats: SearchStats::default(),
            incumbent,
            seq: 0,
            kept: Vec::new(),
            started: Instant::now(),
            // One timeline track per search; the callers open their span on
            // it.  All of the observability is behind `obs::enabled()`.
            track: if obs::enabled() { obs::next_track() } else { 0 },
        }
    }

    /// The search's timeline track (see [`optsched_obs`]).
    pub fn track(&self) -> u64 {
        self.track
    }

    /// Time since the search was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Puts arena state `id` on OPEN with the next insertion number;
    /// `value` is what the policy's evaluation returned for it.
    pub fn push(&mut self, id: StateId, f: Cost, h: Cost, value: Cost) {
        self.seq += 1;
        self.policy.push(OpenEntry { id, f, h, value, seq: self.seq });
    }

    /// Advances the search by one state: pops the policy's next state and
    /// materialises it.  A goal either ends the search (a best-first policy
    /// settles it) or is offered to the incumbent.  Any other state is
    /// checked against the limits — the expansion and generation caps, the
    /// clock and the target cost, in that order — and then expanded: each
    /// child is evaluated allocation-free, bound-pruned by the policy
    /// against the incumbent and checked for duplicates; the survivors are
    /// stored in the arena and pushed.  Finally the popped state's record
    /// is released.
    ///
    /// The clock is read on the first expansion and on every 64th
    /// (`TIME_CHECK_CADENCE`), whatever the budget.
    pub fn step(&mut self) -> Step {
        let Some(entry) = self.policy.pop() else {
            return Step::Empty;
        };
        self.stats.max_open_size = self.stats.max_open_size.max(self.policy.open_len() + 1);
        let problem = self.problem;
        let state = self.arena.materialise(entry.id);

        if state.is_goal(problem) {
            let g = state.g();
            let to_schedule = || state.to_schedule(problem);
            if self.policy.goal_on_pop_is_final() {
                if self.incumbent.settle(g, to_schedule) {
                    obs::instant("incumbent", self.track, "makespan", g);
                    return Step::Stop(SearchOutcome::Optimal);
                }
            } else if self.incumbent.offer(g, to_schedule) {
                obs::instant("incumbent", self.track, "makespan", g);
            }
            self.arena.release(entry.id);
            return Step::Goal;
        }

        let limit = limit_reached(&self.limits, self.started, &self.stats, &self.incumbent);
        if let Some(outcome) = limit {
            return Step::Stop(outcome);
        }
        self.stats.expanded += 1;
        if self.stats.expanded % TIME_CHECK_CADENCE == 0 && obs::enabled() {
            obs::instant("expansion_rate", self.track, "expanded", self.stats.expanded);
        }

        self.kept.clear();
        let candidates = state.expansion_candidates(problem, &self.pruning, &mut self.stats);
        if !candidates.is_empty() {
            let parent_sig = state.signature();
            let track_goals = self.policy.track_goals_at_generation();
            let goal_depth = problem.num_nodes() as u16;
            for (node, proc) in candidates {
                let delta = state.peek_child(problem, node, proc, self.heuristic);
                self.stats.heuristic_evaluations += 1;
                // The bound is inclusive of the incumbent length, or strictly
                // below it when the incumbent is known to be attained.
                let len = self.incumbent.makespan();
                let bound = if self.seed_incumbent { len.saturating_sub(1) } else { len };
                let value = self.policy.evaluate(problem, state, &delta, bound, &mut self.stats);
                let Some(value) = value else {
                    self.stats.pruned_upper_bound += 1;
                    continue;
                };
                let sig = parent_sig.with_assignment(delta.node, delta.proc, delta.start);
                if !self.dup.admit(sig, delta.g, &mut self.stats) {
                    continue;
                }
                // A goal found at generation tightens the bound for the rest
                // of the expansion, and a limited run still returns it.
                if track_goals
                    && state.depth() + 1 == goal_depth
                    && self.incumbent.offer(delta.g, || {
                        state.apply_delta(problem, &delta).to_schedule(problem)
                    })
                {
                    obs::instant("incumbent", self.track, "makespan", delta.g);
                }
                self.kept.push((delta, value));
            }
        }

        for &(delta, value) in &self.kept {
            self.seq += 1;
            let id = self.arena.insert_child(entry.id, &delta);
            self.policy.push(OpenEntry { id, f: delta.f(), h: delta.h, value, seq: self.seq });
            self.stats.generated += 1;
        }
        // The popped state is dead to the frontier: its kept children (if
        // any) hold it alive through their parent links; pruned-out or
        // childless states are reclaimed here, cascading up their dead
        // chains.
        self.arena.release(entry.id);
        Step::Expanded
    }

    /// Ends the search: returns its statistics, with the arena's record
    /// counters, and its incumbent.
    pub fn finish(mut self) -> (SearchStats, I) {
        self.arena.record_stats(&mut self.stats);
        (self.stats, self.incumbent)
    }
}

/// The limit that stops the search before its next expansion, if any.
fn limit_reached(
    limits: &SearchLimits,
    started: Instant,
    stats: &SearchStats,
    incumbent: &impl Incumbent,
) -> Option<SearchOutcome> {
    if let Some(max_exp) = limits.max_expansions {
        if incumbent.work(stats).0 >= max_exp {
            return Some(SearchOutcome::LimitReached);
        }
    }
    if let Some(max_gen) = limits.max_generated {
        if incumbent.work(stats).1 >= max_gen {
            return Some(SearchOutcome::LimitReached);
        }
    }
    if let Some(ms) = limits.max_millis {
        // The first pop (expanded == 0) always checks, so a 0 ms budget
        // still stops before any work.
        let check_now = stats.expanded % TIME_CHECK_CADENCE == 0;
        if check_now && started.elapsed().as_millis() as u64 >= ms {
            return Some(SearchOutcome::LimitReached);
        }
    }
    if let Some(target) = limits.target_cost {
        if incumbent.makespan() <= target {
            return Some(SearchOutcome::TargetReached);
        }
    }
    None
}

/// A serial search's own incumbent, starting from the list schedule.
struct LocalIncumbent {
    len: Cost,
    schedule: Schedule,
}

impl Incumbent for LocalIncumbent {
    fn makespan(&self) -> Cost {
        self.len
    }

    fn offer(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool {
        let better = len < self.len;
        if better {
            self.len = len;
            self.schedule = schedule();
        }
        better
    }

    fn settle(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool {
        self.len = len;
        self.schedule = schedule();
        true
    }
}

/// Runs a complete serial search over `problem` under the given frontier
/// policy: a loop over [`Search::step`] from the initial state until a final
/// goal, an empty OPEN or a limit.
///
/// The incumbent starts as the list-heuristic schedule, so a limited run
/// always returns a feasible result.  The *length* the bound pruning starts
/// from is the policy's choice
/// ([`FrontierPolicy::initial_incumbent_len`]), capped at the list upper
/// bound under [`SearchConfig::seed_incumbent`], and replaced by
/// [`SearchConfig::warm_start`] when that is shorter.  A seeded search that
/// exhausts its frontier has proved that nothing strictly better than the
/// incumbent exists and reports [`SearchOutcome::Optimal`].
pub fn run_search<P: FrontierPolicy>(
    problem: &SchedulingProblem,
    policy: P,
    config: &SearchConfig,
) -> SearchResult {
    let mut incumbent = LocalIncumbent {
        len: policy.initial_incumbent_len(problem),
        schedule: problem.upper_bound_schedule().clone(),
    };
    if config.seed_incumbent {
        incumbent.len = incumbent.len.min(problem.upper_bound());
    }
    if let Some(warm) = &config.warm_start {
        incumbent.offer(warm.makespan(), || warm.clone());
    }
    let mut search = Search::new(problem, policy, SignatureSet::new(), incumbent, config);
    let _obs_span = obs::span("run_search", search.track());
    search.push(0, 0, 0, 0); // the initial state, in slot 0
    search.stats.generated += 1;

    let outcome = loop {
        match search.step() {
            Step::Expanded | Step::Goal => {}
            Step::Empty if config.seed_incumbent => break SearchOutcome::Optimal,
            Step::Empty => break SearchOutcome::Exhausted,
            Step::Stop(outcome) => break outcome,
        }
    };
    let elapsed = search.elapsed();
    let (stats, incumbent) = search.finish();
    SearchResult {
        schedule_length: incumbent.schedule.makespan(),
        schedule: Some(incumbent.schedule),
        outcome,
        stats,
        elapsed,
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
    fn signature_set_counts_duplicates() {
        let problem = example_problem();
        let mut stats = SearchStats::default();
        let mut set = SignatureSet::new();
        assert!(set.is_empty());
        let sig = SearchState::initial(&problem).signature();
        assert!(set.admit(sig.clone(), 0, &mut stats));
        assert!(!set.admit(sig, 0, &mut stats));
        assert_eq!(set.len(), 1);
        assert_eq!(stats.duplicates, 1);
    }

    #[test]
    fn dfs_policy_enumerates_to_the_optimum() {
        let problem = example_problem();
        let config = SearchConfig {
            pruning: PruningConfig::none(),
            heuristic: HeuristicKind::Zero,
            ..SearchConfig::default()
        };
        let r = run_search(&problem, DfsPolicy::new(), &config);
        assert_eq!(r.outcome, SearchOutcome::Exhausted);
        assert_eq!(r.schedule_length, 14);
    }

    /// Reclamation is a storage concern only: the A* run reproduces, counter
    /// for counter, the search of the append-only arena (whose figures are
    /// pinned below), while visibly reclaiming records.  Replays depend only
    /// on the expansion order, so they match too.
    #[test]
    fn gc_and_path_cache_knobs_never_change_the_search() {
        // Expanded, generated, duplicates, peak live records and replayed
        // deltas of the same run with reclamation off; an append-only arena
        // keeps one record per generated state.
        const APPEND_ONLY: (u64, u64, u64, u64, u64) = (34, 62, 11, 62, 99);
        let problem = example_problem();
        let r = run_search(&problem, AStarPolicy::new(true), &SearchConfig::default());
        let (expanded, generated, duplicates, peak_live_records, replayed_deltas) = APPEND_ONLY;
        assert_eq!(r.schedule_length, 14);
        assert_eq!(
            (r.stats.expanded, r.stats.generated, r.stats.duplicates),
            (expanded, generated, duplicates),
            "storage lifecycle leaked into search behaviour"
        );
        assert!(r.stats.reclaimed_records > 0, "the run reclaims dead chains");
        assert!(
            r.stats.peak_live_records <= peak_live_records,
            "reclamation must not grow the live set: {} vs {peak_live_records}",
            r.stats.peak_live_records
        );
        assert!(
            r.stats.peak_live_records < r.stats.generated,
            "live records stay below the total ever generated"
        );
        assert_eq!(
            r.stats.replayed_deltas, replayed_deltas,
            "reclamation must not change what replays"
        );
    }

    /// The seeded mode prunes against the attained list incumbent (strictly)
    /// yet stays exact, and reports `Optimal` even when the proof comes from
    /// frontier exhaustion rather than a popped goal.
    #[test]
    fn seeded_incumbent_stays_exact_and_never_expands_more() {
        let problem = example_problem();
        let run = |seed_incumbent| {
            let config = SearchConfig { seed_incumbent, ..SearchConfig::default() };
            run_search(&problem, AStarPolicy::new(true), &config)
        };
        let plain = run(false);
        let seeded = run(true);
        assert_eq!(plain.schedule_length, 14);
        assert_eq!(seeded.schedule_length, 14);
        assert_eq!(seeded.outcome, SearchOutcome::Optimal);
        assert!(
            seeded.stats.expanded <= plain.stats.expanded,
            "seeded {} vs plain {}",
            seeded.stats.expanded,
            plain.stats.expanded
        );
        seeded
            .expect_schedule()
            .validate(problem.graph(), problem.network())
            .unwrap();
    }

    /// A warm-start schedule only ever tightens the starting incumbent: a
    /// warmed run stays exact and expands no more states than the plain
    /// seeded run, while a warm schedule no better than the list incumbent
    /// (and `None`) leaves the run unchanged.
    #[test]
    fn warm_start_only_ever_tightens_the_incumbent() {
        let problem = example_problem();
        let run = |warm: Option<&Schedule>| {
            let warm_start = warm.cloned();
            let config = SearchConfig { seed_incumbent: true, warm_start, ..SearchConfig::default() };
            run_search(&problem, AStarPolicy::new(true), &config)
        };
        let plain = run(None);
        assert_eq!(plain.schedule_length, 14);
        let optimal = plain.expect_schedule().clone();
        let warmed = run(Some(&optimal));
        assert_eq!(warmed.schedule_length, 14);
        assert_eq!(warmed.outcome, SearchOutcome::Optimal);
        assert!(
            warmed.stats.expanded <= plain.stats.expanded,
            "warmed {} vs plain {}",
            warmed.stats.expanded,
            plain.stats.expanded
        );
        let list = problem.upper_bound_schedule().clone();
        let ignored = run(Some(&list));
        assert_eq!(ignored.stats.expanded, plain.stats.expanded);
        assert_eq!(ignored.schedule_length, plain.schedule_length);
    }
}
