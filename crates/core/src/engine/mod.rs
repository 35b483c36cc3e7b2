//! The unified best-first search engine.
//!
//! Every scheduler family in this workspace — serial A\*, Aε\*, the Chen & Yu
//! branch-and-bound baseline, exhaustive enumeration, and each PPE of the
//! parallel scheduler — is one state-space search over partial schedules.
//! This module implements that search **once**:
//!
//! * [`run_search`] is the single OPEN/CLOSED run loop: frontier selection,
//!   duplicate detection, [`SearchLimits`] enforcement, incumbent /
//!   upper-bound handling and [`SearchStats`] accounting.  What
//!   differentiates the algorithms — child evaluation, bound pruning and
//!   expansion order — lives behind the [`FrontierPolicy`] trait
//!   ([`policy`]): `AStarScheduler`, `AEpsScheduler`, `ChenYuScheduler` and
//!   `ExhaustiveScheduler` are thin configurations over it.
//! * [`StateArena`] ([`arena`]) stores generated states as parent-id +
//!   [`ChildDelta`] records and materialises a full
//!   [`SearchState`] only when a state is selected for expansion, replacing
//!   the clone-per-generation layout.  The arena is not tied to
//!   [`run_search`]: the parallel scheduler's PPE workers each own one,
//!   shipping states as delta chains ([`StateArena::extract_chain`] /
//!   [`StateArena::adopt_chain`]) or, past a depth threshold, as snapshots
//!   ([`StateArena::materialise_owned`] / [`StateArena::adopt_snapshot`]).
//! * [`expand_state`] is the shared per-child admission pipeline
//!   (evaluate → bound-prune → duplicate-check), parameterised by the
//!   [`DuplicateFilter`] hook; the parallel scheduler's PPE workers drive the
//!   same pipeline with their sharded global CLOSED table behind the hook.

pub mod arena;
pub mod policy;

use std::cell::Cell;
use std::collections::HashSet;
use std::time::Instant;

use optsched_obs as obs;
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::config::{HeuristicKind, PruningConfig, SearchLimits};
use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, SearchState, StateSignature};
use crate::stats::{SearchOutcome, SearchResult, SearchStats};

pub use arena::{ArenaConfig, StateArena, StateId};
pub use policy::{
    focal_threshold, AStarPolicy, BoundPolicy, DfsPolicy, FocalPolicy, FrontierPolicy, OpenEntry,
    WeightedAStarPolicy,
};

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

/// The serial CLOSED ∪ OPEN seen-set: a plain hash set of state signatures.
#[derive(Debug, Default)]
pub struct SignatureSet {
    seen: HashSet<StateSignature>,
}

impl SignatureSet {
    /// An empty set.
    pub fn new() -> SignatureSet {
        SignatureSet::default()
    }

    /// Number of distinct signatures seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True if no signature has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Forgets `sig`, so a later [`DuplicateFilter::admit`] of it counts as
    /// new; returns whether it was present.
    pub fn remove(&mut self, sig: &StateSignature) -> bool {
        self.seen.remove(sig)
    }
}

impl DuplicateFilter for SignatureSet {
    fn admit(&mut self, sig: StateSignature, _g: Cost, stats: &mut SearchStats) -> bool {
        if self.seen.insert(sig) {
            true
        } else {
            stats.duplicates += 1;
            false
        }
    }
}

/// The instance-wide inputs of an expansion step, shared by every child the
/// step generates.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionContext<'a> {
    /// The problem being solved.
    pub problem: &'a SchedulingProblem,
    /// The Section 3.2 pruning techniques in force.
    pub pruning: &'a PruningConfig,
    /// The admissible heuristic evaluated for every child.
    pub heuristic: HeuristicKind,
}

/// The shared per-child admission pipeline: enumerates the expansion
/// candidates of `state`, evaluates each child allocation-free via
/// [`SearchState::peek_child`], applies `evaluate`'s bound pruning (a `None`
/// is counted as [`SearchStats::pruned_upper_bound`]), rejects duplicates
/// through the [`DuplicateFilter`] hook, and hands every surviving child to
/// `admit`.
///
/// Both the serial [`run_search`] loop and the parallel scheduler's PPE
/// workers generate children exclusively through this function.
pub fn expand_state<D: DuplicateFilter>(
    ctx: ExpansionContext<'_>,
    state: &SearchState,
    dup: &mut D,
    stats: &mut SearchStats,
    mut evaluate: impl FnMut(&SearchState, &ChildDelta, &mut SearchStats) -> Option<Cost>,
    mut admit: impl FnMut(&SearchState, ChildDelta, Cost, &mut SearchStats),
) {
    let candidates = state.expansion_candidates(ctx.problem, ctx.pruning, stats);
    if candidates.is_empty() {
        return;
    }
    let parent_sig = state.signature();
    for (node, proc) in candidates {
        let delta = state.peek_child(ctx.problem, node, proc, ctx.heuristic);
        stats.heuristic_evaluations += 1;
        let Some(value) = evaluate(state, &delta, stats) else {
            stats.pruned_upper_bound += 1;
            continue;
        };
        let sig = parent_sig.with_assignment(delta.node, delta.proc, delta.start);
        if !dup.admit(sig, delta.g, stats) {
            continue;
        }
        admit(state, delta, value, stats);
    }
}

/// Expansions between wall-clock reads when enforcing
/// [`SearchLimits::max_millis`].  Reading the clock is a syscall; paying it
/// on every expansion measurably slows deadline runs whose per-expansion
/// work is cheap.  A cadence of 1024 expansions costs single-digit
/// milliseconds of overshoot at worst — noise against any budget that is
/// itself larger than [`TIME_CHECK_ALWAYS_BELOW_MS`].
const TIME_CHECK_CADENCE: u64 = 1024;

/// Budgets at or below this many milliseconds check the clock on *every*
/// expansion: one cadence stretch could overshoot such a budget by a
/// meaningful fraction (a 0 ms deadline must still stop on the first
/// expansion, the anytime contract the service relies on).
const TIME_CHECK_ALWAYS_BELOW_MS: u64 = 16;

/// Runs a complete search over `problem` under the given frontier policy.
///
/// This is the only OPEN/CLOSED run loop in the workspace's serial
/// schedulers: the state with the policy's best value is removed from the
/// frontier; a goal either proves optimality or updates the incumbent
/// (depending on the policy); otherwise the state is expanded through
/// [`expand_state`] and the surviving children are stored in the
/// [`StateArena`] and pushed back to the policy.
///
/// With `seed_incumbent` the list-heuristic schedule is treated as an
/// *attained* incumbent from the first expansion on: the length the policy's
/// bound pruning starts from is capped at [`SchedulingProblem::upper_bound`]
/// (the big win for branch-and-bound, whose own initial bound is infinite),
/// and the bound handed to [`FrontierPolicy::evaluate`] is tightened by one
/// so children that cannot *strictly* improve on a schedule the search
/// already holds are discarded.  Exhausting the frontier then *is* the
/// optimality proof for the incumbent (the evaluation is admissible and only
/// provably non-improving states were pruned), so such a run reports
/// [`SearchOutcome::Optimal`] instead of `Exhausted`.  The tightened bound
/// requires the policy to treat the passed incumbent length as an inclusive
/// upper bound (`value > bound` ⇒ prune), which holds for every best-first
/// policy here but *not* for [`DfsPolicy`]'s special goal handling — the
/// exhaustive enumerator therefore never sets this flag (it effectively
/// seeds already).  Off by default: with `false` the behaviour is
/// bit-identical to the pre-knob engine.
///
/// `warm_start` optionally hands the search a complete schedule attained by
/// an earlier run (a cache near-match, a raced anytime leg).  It is adopted
/// as the starting incumbent only when it beats the incumbent the search
/// would otherwise start from, so `None` — and any warm schedule that is no
/// better — leaves the run bit-identical to the unwarmed one.  The caller
/// must guarantee the schedule is feasible **for this problem**; the engine
/// trusts it the same way it trusts the list schedule.
pub fn run_search<P: FrontierPolicy>(
    problem: &SchedulingProblem,
    mut policy: P,
    pruning: PruningConfig,
    heuristic: HeuristicKind,
    limits: SearchLimits,
    seed_incumbent: bool,
    warm_start: Option<&Schedule>,
) -> SearchResult {
    let start_time = Instant::now();
    // Observability: one timeline track per run, a span covering the whole
    // search, instants on every incumbent improvement and on the existing
    // 1/1024 expansion cadence.  All of it is behind `obs::enabled()` — the
    // disabled cost per site is a single relaxed atomic load.
    let obs_track = if obs::enabled() { obs::next_track() } else { 0 };
    let _obs_span = obs::span("run_search", obs_track);
    let mut stats = SearchStats::default();
    let mut arena = StateArena::new(problem, ArenaConfig);
    let mut dup = SignatureSet::new();
    let mut seq: u64 = 0;

    // Incumbent: best complete schedule known so far.  The schedule starts
    // as the list-heuristic schedule so a limit-bounded run always returns a
    // feasible result; the *length* the bound pruning starts from is the
    // policy's choice (the list upper bound for the A* family, infinite for
    // branch-and-bound elimination without an external bound) unless the
    // seeded mode caps it at the list upper bound, which that schedule
    // attains.
    let mut incumbent: Schedule = problem.upper_bound_schedule().clone();
    let mut initial_len = if seed_incumbent {
        policy.initial_incumbent_len(problem).min(problem.upper_bound())
    } else {
        policy.initial_incumbent_len(problem)
    };
    if let Some(warm) = warm_start {
        let warm_len = warm.makespan();
        if warm_len < initial_len {
            incumbent = warm.clone();
            initial_len = warm_len;
        }
    }
    let incumbent_len = Cell::new(initial_len);
    // The bound handed to the policy: inclusive of the incumbent length
    // normally, strictly below it when the incumbent is known to be attained.
    let prune_bound =
        |len: Cost| if seed_incumbent { len.saturating_sub(1) } else { len };

    let goal_is_final = policy.goal_on_pop_is_final();
    let track_goals = policy.track_goals_at_generation();
    let goal_depth = problem.num_nodes() as u16;

    let root_id = arena.insert_root(SearchState::initial(problem));
    policy.push(OpenEntry { id: root_id, f: 0, h: 0, value: 0, seq });
    stats.generated += 1;

    let mut kept: Vec<(ChildDelta, Cost)> = Vec::new();
    let outcome = loop {
        let Some(entry) = policy.pop() else {
            break SearchOutcome::Exhausted;
        };
        stats.max_open_size = stats.max_open_size.max(policy.open_len() + 1);

        kept.clear();
        {
            let state = arena.materialise(entry.id);

            // Goal test at expansion time: under a best-first policy the
            // first goal removed from OPEN is optimal; under an enumerating
            // policy it only updates the incumbent (and, with `kept` empty,
            // falls through to the handle release below).
            if state.is_goal(problem) {
                if goal_is_final {
                    incumbent = state.to_schedule(problem);
                    obs::instant("incumbent", obs_track, "makespan", state.g());
                    break SearchOutcome::Optimal;
                }
                if state.g() < incumbent_len.get() {
                    incumbent_len.set(state.g());
                    incumbent = state.to_schedule(problem);
                    obs::instant("incumbent", obs_track, "makespan", state.g());
                }
            } else {
                // Limits.
                if let Some(max_exp) = limits.max_expansions {
                    if stats.expanded >= max_exp {
                        break SearchOutcome::LimitReached;
                    }
                }
                if let Some(max_gen) = limits.max_generated {
                    if stats.generated >= max_gen {
                        break SearchOutcome::LimitReached;
                    }
                }
                if let Some(ms) = limits.max_millis {
                    // The clock is read on a cadence, not per expansion: the
                    // first pop (expanded == 0) always checks, so a 0 ms
                    // budget still stops before any work, and tiny budgets
                    // keep the per-expansion check.
                    let check_now = ms <= TIME_CHECK_ALWAYS_BELOW_MS
                        || stats.expanded % TIME_CHECK_CADENCE == 0;
                    if check_now && start_time.elapsed().as_millis() as u64 >= ms {
                        break SearchOutcome::LimitReached;
                    }
                }
                if let Some(target) = limits.target_cost {
                    if incumbent_len.get() <= target {
                        break SearchOutcome::TargetReached;
                    }
                }

                stats.expanded += 1;
                if obs::enabled() && stats.expanded % TIME_CHECK_CADENCE == 0 {
                    obs::instant("expansion_rate", obs_track, "expanded", stats.expanded);
                }
                expand_state(
                    ExpansionContext { problem, pruning: &pruning, heuristic },
                    state,
                    &mut dup,
                    &mut stats,
                    |parent, delta, stats| {
                        policy.evaluate(
                            problem,
                            parent,
                            delta,
                            prune_bound(incumbent_len.get()),
                            stats,
                        )
                    },
                    |parent, delta, value, _stats| {
                        // Track incumbents discovered at generation time so the
                        // bound tightens within this expansion and a
                        // limit-bounded run still returns its best schedule.
                        if track_goals
                            && parent.depth() + 1 == goal_depth
                            && delta.g < incumbent_len.get()
                        {
                            incumbent_len.set(delta.g);
                            incumbent = parent.apply_delta(problem, &delta).to_schedule(problem);
                            obs::instant("incumbent", obs_track, "makespan", delta.g);
                        }
                        kept.push((delta, value));
                    },
                );
            }
        }

        for &(delta, value) in &kept {
            seq += 1;
            let id = arena.insert_child(entry.id, &delta);
            policy.push(OpenEntry { id, f: delta.f(), h: delta.h, value, seq });
            stats.generated += 1;
        }
        // The popped state is dead to the frontier: its kept children (if
        // any) hold it alive through their parent links; pruned-out or
        // childless states are reclaimed here, cascading up their dead
        // chains.
        arena.release(entry.id);
    };

    // A seeded search that exhausted its frontier has *proved* that nothing
    // strictly better than the incumbent exists: report the proof.
    let outcome = if seed_incumbent && outcome == SearchOutcome::Exhausted {
        SearchOutcome::Optimal
    } else {
        outcome
    };

    arena.record_stats(&mut stats);
    SearchResult {
        schedule_length: incumbent.makespan(),
        schedule: Some(incumbent),
        outcome,
        stats,
        elapsed: start_time.elapsed(),
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
        let r = run_search(
            &problem,
            DfsPolicy::new(),
            PruningConfig::none(),
            HeuristicKind::Zero,
            SearchLimits::unlimited(),
            false,
            None,
        );
        assert_eq!(r.outcome, SearchOutcome::Exhausted);
        assert_eq!(r.schedule_length, 14);
    }

    /// Reclamation and the path-cache are storage concerns only: the A* run
    /// reproduces, counter for counter, the search of the append-only,
    /// cache-free arena (whose figures are pinned below), while visibly
    /// reclaiming records and shortening replays.
    #[test]
    fn gc_and_path_cache_knobs_never_change_the_search() {
        // Expanded, generated, duplicates, peak live records and replayed
        // deltas of the same run with reclamation and the path-cache off;
        // an append-only arena keeps one record per generated state.
        const APPEND_ONLY: (u64, u64, u64, u64, u64) = (34, 62, 11, 62, 99);
        let problem = example_problem();
        let r = run_search(
            &problem,
            AStarPolicy::new(true),
            PruningConfig::all(),
            HeuristicKind::PaperStaticLevel,
            SearchLimits::unlimited(),
            false,
            None,
        );
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
        assert!(
            r.stats.replayed_deltas <= replayed_deltas,
            "the path-cache must not lengthen replays: {} vs {replayed_deltas}",
            r.stats.replayed_deltas
        );
    }

    /// The seeded mode prunes against the attained list incumbent (strictly)
    /// yet stays exact, and reports `Optimal` even when the proof comes from
    /// frontier exhaustion rather than a popped goal.
    #[test]
    fn seeded_incumbent_stays_exact_and_never_expands_more() {
        let problem = example_problem();
        let run = |seed| {
            run_search(
                &problem,
                AStarPolicy::new(true),
                PruningConfig::all(),
                HeuristicKind::PaperStaticLevel,
                SearchLimits::unlimited(),
                seed,
                None,
            )
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
            run_search(
                &problem,
                AStarPolicy::new(true),
                PruningConfig::all(),
                HeuristicKind::PaperStaticLevel,
                SearchLimits::unlimited(),
                true,
                warm,
            )
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
