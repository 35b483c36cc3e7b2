//! The traced search: `run_search`'s loop rebuilt from the engine's
//! public pieces, with a timer around each call into a layer.
//!
//! It makes the same calls in the same order as
//! `optsched_core::engine::run_search` (policy pop, arena materialise,
//! expansion candidates, `peek_child`, policy evaluate, signature, seen-set
//! admit, arena insert, policy push, arena release), so it must reproduce
//! the engine's `expanded`, `generated` and `duplicates` exactly; the
//! workloads compare them per instance and fail the traced run otherwise.
//!
//! Timers read the clock on every [`SAMPLE_EVERY`]-th expansion only.  Laps
//! are contiguous, so a sampled expansion's time is split among its layers;
//! each layer's total is estimated as its mean sampled time per call (less
//! the cost of the clock read, and scaled to expansions timed whole with
//! two clock reads) times its exact call count.  Calls that may grow a
//! container are timed every time.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use optsched_core::engine::{
    ArenaConfig, DuplicateFilter, FrontierPolicy, OpenEntry, SignatureSet, StateArena,
};
use optsched_core::{
    ChildDelta, HeuristicKind, PruningConfig, SchedulingProblem, SearchOutcome, SearchState,
    SearchStats,
};
use optsched_taskgraph::Cost;

/// One expansion in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// The engine layers the traced search times.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `FrontierPolicy::pop` (OPEN).
    Pop,
    /// `StateArena::materialise`.
    Materialise,
    /// `SearchState::expansion_candidates`.
    Candidates,
    /// `SearchState::peek_child` (EST and heuristic of one child).
    PeekChild,
    /// `FrontierPolicy::evaluate` (bound pruning of one child).
    Policy,
    /// `SearchState::signature` / `StateSignature::with_assignment`.
    Signature,
    /// `SignatureSet::admit` (duplicate check).
    Admit,
    /// `StateArena::insert_child`.
    Insert,
    /// `FrontierPolicy::push` (OPEN).
    Push,
    /// `StateArena::release`.
    Release,
}

const LAYERS: usize = 10;

/// Sampled times and exact call counts per layer, plus every call that
/// may grow a container (timed whether sampled or not: one resize of a
/// million-entry table outweighs thousands of ordinary calls, so sampling
/// would miss or overweight it).
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    sampled_ns: [u64; LAYERS],
    sampled_calls: [u64; LAYERS],
    calls: [u64; LAYERS],
    growth_ns: [u64; LAYERS],
    growth_calls: [u64; LAYERS],
    /// Expansions timed lap by lap.
    lap_expansions: u64,
    /// Other expansions timed whole, with two clock reads (growth calls
    /// excluded): the unperturbed scale the lap times are corrected to.
    bracket_ns: u64,
    bracket_expansions: u64,
}

impl LayerTimes {
    /// Estimated mean nanoseconds per call, container growth amortised in.
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let l = layer as usize;
        if self.calls[l] == 0 {
            0.0
        } else {
            self.total_ns(l) / self.calls[l] as f64
        }
    }

    /// Mean sampled ordinary call of layer `l`, less the one clock read
    /// each lap contains.
    fn ordinary_ns(&self, l: usize) -> f64 {
        if self.sampled_calls[l] == 0 {
            0.0
        } else {
            (self.sampled_ns[l] as f64 / self.sampled_calls[l] as f64 - clock_read_ns()).max(0.0)
        }
    }

    /// Lap timing slows the expansions it samples by more than the clock
    /// reads themselves (each read also stalls the pipeline around it).
    /// The lap times give each layer's share; whole-expansion brackets give
    /// the scale: this factor maps one onto the other.
    fn lap_scale(&self) -> f64 {
        if self.lap_expansions == 0 || self.bracket_expansions == 0 {
            return 1.0;
        }
        let lap_mean: f64 = (0..LAYERS)
            .map(|l| self.ordinary_ns(l) * self.sampled_calls[l] as f64)
            .sum::<f64>()
            / self.lap_expansions as f64;
        let bracket_mean =
            self.bracket_ns as f64 / self.bracket_expansions as f64 - clock_read_ns();
        if lap_mean > 0.0 && bracket_mean > 0.0 {
            bracket_mean / lap_mean
        } else {
            1.0
        }
    }

    /// Estimated nanoseconds in layer `l`: the corrected mean ordinary call
    /// times the ordinary calls, plus the measured growth calls.
    fn total_ns(&self, l: usize) -> f64 {
        let ordinary = self.ordinary_ns(l) * self.lap_scale();
        ordinary * (self.calls[l] - self.growth_calls[l]) as f64 + self.growth_ns[l] as f64
    }

    fn growth_total_ns(&self) -> u64 {
        self.growth_ns.iter().sum()
    }

    /// Calls made to `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Estimated total nanoseconds spent in all layers.
    pub fn estimated_total_ns(&self) -> f64 {
        (0..LAYERS).map(|l| self.total_ns(l)).sum()
    }

    /// Adds `other`'s samples and counts.
    pub fn merge(&mut self, other: &LayerTimes) {
        for l in 0..LAYERS {
            self.sampled_ns[l] += other.sampled_ns[l];
            self.sampled_calls[l] += other.sampled_calls[l];
            self.calls[l] += other.calls[l];
            self.growth_ns[l] += other.growth_ns[l];
            self.growth_calls[l] += other.growth_calls[l];
        }
        self.lap_expansions += other.lap_expansions;
        self.bracket_ns += other.bracket_ns;
        self.bracket_expansions += other.bracket_expansions;
    }
}

/// Whether admitting one more signature into a seen-set holding `len` may
/// resize its table.  `HashSet` (hashbrown) holds 3 entries in its first
/// table and 7/8 of its buckets after that, doubling the buckets when full.
fn set_may_grow(len: usize) -> bool {
    len == 0 || len == 3 || (len % 7 == 0 && (len / 7).is_power_of_two())
}

/// The cost of one `Instant::now()`, ns: the least mean over a few batches
/// of back-to-back reads, measured once per process.
pub fn clock_read_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 10_000;
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..READS {
                    std::hint::black_box(Instant::now());
                }
                t.elapsed().as_nanos() as f64 / f64::from(READS)
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// A lap timer that reads the clock only when its expansion is sampled.
struct Lap {
    last: Option<Instant>,
}

impl Lap {
    fn new(sampled: bool) -> Lap {
        Lap {
            last: sampled.then(Instant::now),
        }
    }

    /// Charges the time since the previous mark to `layer`.
    fn mark(&mut self, times: &mut LayerTimes, layer: Layer) {
        let l = layer as usize;
        times.calls[l] += 1;
        if let Some(last) = self.last {
            let now = Instant::now();
            times.sampled_ns[l] += (now - last).as_nanos() as u64;
            times.sampled_calls[l] += 1;
            self.last = Some(now);
        }
    }

    /// Starts timing a call that may grow a container: `None` when the
    /// call cannot grow one, or when the lap already runs.
    fn start_growth(&self, may_grow: bool) -> Option<Instant> {
        (may_grow && self.last.is_none()).then(Instant::now)
    }

    /// Ends a call begun with [`Lap::start_growth`]: a call that may have
    /// grown a container is charged to the layer's growth time, any other
    /// call as by [`Lap::mark`].
    fn mark_growth(
        &mut self,
        times: &mut LayerTimes,
        layer: Layer,
        may_grow: bool,
        start: Option<Instant>,
    ) {
        if !may_grow {
            return self.mark(times, layer);
        }
        let l = layer as usize;
        let now = Instant::now();
        let began = self.last.or(start).expect("a growth call is timed");
        times.calls[l] += 1;
        times.growth_calls[l] += 1;
        times.growth_ns[l] += (now - began).as_nanos() as u64;
        if self.last.is_some() {
            self.last = Some(now);
        }
    }

    /// Restarts the lap without charging anyone (bookkeeping between calls).
    fn skip(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

/// What one traced search measured.
#[derive(Debug)]
pub struct Traced {
    /// The engine counters, filled exactly as `run_search` fills them.
    pub stats: SearchStats,
    /// Why the search stopped.
    pub outcome: SearchOutcome,
    /// Makespan of the returned incumbent.
    pub makespan: Cost,
    /// Per-layer samples.
    pub layers: LayerTimes,
    /// Distinct signatures in the seen-set when the search stopped.
    pub seen_entries: usize,
    /// Caller wall-clock of the whole call, teardown included.
    pub wall: Duration,
    /// Timed drops of the arena, the seen-set and the policy (OPEN).
    pub drop_store: Duration,
    /// See [`Traced::drop_store`].
    pub drop_seen: Duration,
    /// See [`Traced::drop_store`].
    pub drop_open: Duration,
}

/// Runs one traced search with the shipped default store.  Of the engine's
/// limits only an expansion cap is supported: it stops at the same point a
/// wall-clock budget stopped the untraced run, which makes a budgeted run
/// replayable.
pub fn traced_search<P: FrontierPolicy>(
    problem: &SchedulingProblem,
    mut policy: P,
    pruning: PruningConfig,
    heuristic: HeuristicKind,
    max_expansions: Option<u64>,
    seed_incumbent: bool,
) -> Traced {
    let start = Instant::now();
    let mut times = LayerTimes::default();
    let mut stats = SearchStats::default();
    let mut arena = StateArena::new(problem, ArenaConfig::default());
    let mut dup = SignatureSet::new();
    let mut seq: u64 = 0;

    let mut incumbent = problem.upper_bound_schedule().clone();
    let mut incumbent_len = if seed_incumbent {
        policy
            .initial_incumbent_len(problem)
            .min(problem.upper_bound())
    } else {
        policy.initial_incumbent_len(problem)
    };
    let prune_bound = |len: Cost| {
        if seed_incumbent {
            len.saturating_sub(1)
        } else {
            len
        }
    };
    let goal_is_final = policy.goal_on_pop_is_final();
    let track_goals = policy.track_goals_at_generation();
    let goal_depth = problem.num_nodes() as u16;

    let root_id = arena.insert_root(SearchState::initial(problem));
    policy.push(OpenEntry {
        id: root_id,
        f: 0,
        h: 0,
        value: 0,
        seq,
    });
    // The OPEN heap's vector capacity, modelled on `Vec`'s doubling (first
    // allocation: four entries); a push at full capacity reallocates.
    let mut open_capacity: usize = 4;
    stats.generated += 1;

    let mut kept: Vec<(ChildDelta, Cost)> = Vec::new();
    let mut pops: u64 = 0;
    let outcome = loop {
        // Offset from 0 so the root, whose expansion is atypically costly,
        // is never sampled.
        let mut lap = Lap::new(pops % SAMPLE_EVERY == SAMPLE_EVERY / 2);
        times.lap_expansions += u64::from(lap.last.is_some());
        let bracket = (pops % SAMPLE_EVERY == SAMPLE_EVERY / 4)
            .then(|| (Instant::now(), times.growth_total_ns()));
        pops += 1;
        let Some(entry) = policy.pop() else {
            break SearchOutcome::Exhausted;
        };
        lap.mark(&mut times, Layer::Pop);
        stats.max_open_size = stats.max_open_size.max(policy.open_len() + 1);

        kept.clear();
        {
            let state = arena.materialise(entry.id);
            lap.mark(&mut times, Layer::Materialise);
            if state.is_goal(problem) {
                if goal_is_final {
                    incumbent = state.to_schedule(problem);
                    break SearchOutcome::Optimal;
                }
                if state.g() < incumbent_len {
                    incumbent_len = state.g();
                    incumbent = state.to_schedule(problem);
                }
            } else {
                if max_expansions.is_some_and(|max| stats.expanded >= max) {
                    break SearchOutcome::LimitReached;
                }
                stats.expanded += 1;
                lap.skip();

                let candidates = state.expansion_candidates(problem, &pruning, &mut stats);
                lap.mark(&mut times, Layer::Candidates);
                if !candidates.is_empty() {
                    let parent_sig = state.signature();
                    lap.mark(&mut times, Layer::Signature);
                    for (node, proc) in candidates {
                        let delta = state.peek_child(problem, node, proc, heuristic);
                        stats.heuristic_evaluations += 1;
                        lap.mark(&mut times, Layer::PeekChild);
                        let value = policy.evaluate(
                            problem,
                            state,
                            &delta,
                            prune_bound(incumbent_len),
                            &mut stats,
                        );
                        lap.mark(&mut times, Layer::Policy);
                        let Some(value) = value else {
                            stats.pruned_upper_bound += 1;
                            continue;
                        };
                        let sig = parent_sig.with_assignment(delta.node, delta.proc, delta.start);
                        lap.mark(&mut times, Layer::Signature);
                        let may_grow = set_may_grow(dup.len());
                        let began = lap.start_growth(may_grow);
                        let fresh = dup.admit(sig, delta.g, &mut stats);
                        lap.mark_growth(&mut times, Layer::Admit, may_grow, began);
                        if !fresh {
                            continue;
                        }
                        if track_goals && state.depth() + 1 == goal_depth && delta.g < incumbent_len
                        {
                            incumbent_len = delta.g;
                            incumbent = state.apply_delta(problem, &delta).to_schedule(problem);
                        }
                        kept.push((delta, value));
                        lap.skip();
                    }
                }
            }
        }

        for &(delta, value) in &kept {
            seq += 1;
            let may_grow = arena.len() == arena.capacity();
            let began = lap.start_growth(may_grow);
            let id = arena.insert_child(entry.id, &delta);
            lap.mark_growth(&mut times, Layer::Insert, may_grow, began);
            let may_grow = policy.open_len() == open_capacity;
            if may_grow {
                open_capacity = (2 * open_capacity).max(4);
            }
            let began = lap.start_growth(may_grow);
            policy.push(OpenEntry {
                id,
                f: delta.f(),
                h: delta.h,
                value,
                seq,
            });
            lap.mark_growth(&mut times, Layer::Push, may_grow, began);
            stats.generated += 1;
        }
        arena.release(entry.id);
        lap.mark(&mut times, Layer::Release);
        if let Some((began, growth_before)) = bracket {
            let growth = times.growth_total_ns() - growth_before;
            times.bracket_ns += (began.elapsed().as_nanos() as u64).saturating_sub(growth);
            times.bracket_expansions += 1;
        }
    };
    let outcome = if seed_incumbent && outcome == SearchOutcome::Exhausted {
        SearchOutcome::Optimal
    } else {
        outcome
    };

    stats.peak_live_states = arena.peak_live_full() as u64;
    stats.peak_live_records = arena.peak_live_records() as u64;
    stats.reclaimed_records = arena.reclaimed_records();
    stats.materialisations = arena.materialisations();
    stats.path_cache_hits = arena.path_cache_hits();
    stats.path_cache_ancestor_hits = arena.path_cache_ancestor_hits();
    stats.replayed_deltas = arena.replayed_deltas();
    stats.replayed_deltas_saved = arena.replayed_deltas_saved();
    let seen_entries = dup.len();
    let makespan = incumbent.makespan();

    let t = Instant::now();
    drop(arena);
    let drop_store = t.elapsed();
    let t = Instant::now();
    drop(dup);
    let drop_seen = t.elapsed();
    let t = Instant::now();
    drop(policy);
    let drop_open = t.elapsed();
    drop(kept);
    drop(incumbent);
    Traced {
        stats,
        outcome,
        makespan,
        layers: times,
        seen_entries,
        wall: start.elapsed(),
        drop_store,
        drop_seen,
        drop_open,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_core::engine::AStarPolicy;
    use optsched_core::{AStarScheduler, ChenYuScheduler, SearchLimits};
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    /// The traced search reproduces `run_search`'s counters on the paper's example
    /// under A*, under a budget cap and under seeded Chen & Yu.
    #[test]
    fn reproduces_run_search_counts() {
        let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let reference = AStarScheduler::new(&problem).run();
        let traced = traced_search(
            &problem,
            AStarPolicy::new(true),
            PruningConfig::all(),
            HeuristicKind::PaperStaticLevel,
            None,
            false,
        );
        assert_eq!(traced.makespan, 14);
        assert_eq!(traced.outcome, SearchOutcome::Optimal);
        assert_eq!(traced.stats.expanded, reference.stats.expanded);
        assert_eq!(traced.stats.generated, reference.stats.generated);
        assert_eq!(traced.stats.duplicates, reference.stats.duplicates);
        assert!(traced.layers.calls(Layer::PeekChild) >= traced.stats.generated - 1);

        let capped = AStarScheduler::new(&problem)
            .with_limits(SearchLimits::expansions(3))
            .run();
        let traced = traced_search(
            &problem,
            AStarPolicy::new(true),
            PruningConfig::all(),
            HeuristicKind::PaperStaticLevel,
            Some(3),
            false,
        );
        assert_eq!(traced.outcome, capped.outcome);
        assert_eq!(traced.stats.generated, capped.stats.generated);

        let cy = ChenYuScheduler::new(&problem);
        let reference = cy.clone().with_seeded_incumbent(true).run();
        let traced = traced_search(
            &problem,
            crate::workloads::chen_yu_policy(&cy),
            PruningConfig::none(),
            HeuristicKind::Zero,
            None,
            true,
        );
        assert_eq!(traced.makespan, reference.schedule_length);
        assert_eq!(traced.stats.expanded, reference.stats.expanded);
        assert_eq!(traced.stats.generated, reference.stats.generated);
        assert_eq!(traced.stats.duplicates, reference.stats.duplicates);
    }
}
