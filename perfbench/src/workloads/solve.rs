//! `exact_solve` and `parallel_exact`: the fixed exact pool solved to proven
//! optimality, serially and by parallel A* with q = 2 PPEs; plus the
//! serial-search helpers `budget_frontier` shares.

use std::time::{Duration, Instant};

use optsched_core::engine::AStarPolicy;
use optsched_core::{
    AStarScheduler, ChenYuScheduler, HeuristicKind, PruningConfig, SchedulingProblem, SearchLimits,
    SearchOutcome, SearchResult, SearchStats,
};
use optsched_parallel::{ParallelAStarScheduler, ParallelConfig};
use optsched_schedule::Schedule;

use super::{chen_yu_policy, Measured, Op, Pass};
use crate::instances::{instances, Instance, EXACT_POOL};
use crate::mem;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{traced_search, Layer, LayerTimes};

/// The serial search families the service's `auto` dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Serial A* with every pruning technique (`astar`).
    AStar,
    /// Chen & Yu branch-and-bound seeded with the list schedule, as `auto`
    /// runs it on CCR ≥ 2 instances.
    ChenYu,
}

/// The operations of one exact pass: A* on every instance, plus seeded
/// Chen & Yu where the CCR is at least 2.
pub fn exact_ops(pool: &[Instance]) -> Vec<(&Instance, Family)> {
    let mut ops = Vec::new();
    for inst in pool {
        ops.push((inst, Family::AStar));
        if inst.entry.ccr >= 2.0 {
            ops.push((inst, Family::ChenYu));
        }
    }
    ops
}

fn run_family(problem: &SchedulingProblem, family: Family, limits: SearchLimits) -> SearchResult {
    match family {
        Family::AStar => AStarScheduler::new(problem).with_limits(limits).run(),
        Family::ChenYu => ChenYuScheduler::new(problem)
            .with_seeded_incumbent(true)
            .with_limits(limits)
            .run(),
    }
}

/// One untraced serial search as a caller sees it: timed from
/// `SchedulingProblem::new` to after the problem and the result are
/// dropped, with the peak-RSS growth of the call.
pub struct SerialRun {
    /// The timed operation.
    pub op: Op,
    /// Why the search stopped.
    pub outcome: SearchOutcome,
    /// The returned schedule.
    pub schedule: Option<Schedule>,
}

/// Runs `family` on `inst`, under `budget_ms` if given.
pub fn run_serial(inst: &Instance, family: Family, budget_ms: Option<u64>) -> SerialRun {
    let (graph, network) = (inst.graph.clone(), inst.network.clone());
    let before = mem::reset_peak();
    let t = Instant::now();
    let problem = SchedulingProblem::new(graph, network);
    let limits = SearchLimits {
        max_millis: budget_ms,
        ..Default::default()
    };
    let SearchResult {
        schedule,
        outcome,
        stats,
        elapsed,
        ..
    } = run_family(&problem, family, limits);
    drop(problem);
    let wall = t.elapsed().as_secs_f64();
    let op = Op {
        wall,
        promise: budget_ms.map_or(elapsed.as_secs_f64(), |ms| ms as f64 / 1e3),
        budgeted: budget_ms.is_some(),
        expanded: stats.expanded,
        generated: stats.generated,
        rss_growth: 0,
        rss_peak: mem::peak(),
        ok: schedule.is_some(),
    };
    let op = Op {
        rss_growth: op.rss_peak.saturating_sub(before),
        ..op
    };
    SerialRun {
        op,
        outcome,
        schedule,
    }
}

/// Checks a returned schedule: present, valid for the instance, and — for
/// an exact run — proven optimal at the pinned makespan.
pub fn check_schedule(
    report: &mut Report,
    inst: &Instance,
    what: &str,
    schedule: Option<&Schedule>,
    exact: Option<SearchOutcome>,
) -> bool {
    let Some(schedule) = schedule else {
        report.fail(format!("{}: {what} returned no schedule", inst.name));
        return false;
    };
    if let Err(e) = schedule.validate(&inst.graph, &inst.network) {
        report.fail(format!(
            "{}: {what} returned an invalid schedule: {e}",
            inst.name
        ));
        return false;
    }
    if let Some(outcome) = exact {
        let pinned = inst
            .entry
            .optimal
            .expect("exact instances pin their optimum");
        if outcome != SearchOutcome::Optimal || schedule.makespan() != pinned {
            report.fail(format!(
                "{}: {what} gave {:?} makespan {}, pinned optimum {pinned}",
                inst.name,
                outcome,
                schedule.makespan()
            ));
            return false;
        }
    }
    true
}

/// Repeats `pass` until `seconds` have gone by (at least `min_passes`
/// times), timing a fresh `setup` before each: set-up, like every call, is
/// sampled across the whole run.
pub fn repeat_passes<T>(
    measured: &mut Measured,
    seconds: f64,
    min_passes: usize,
    setup: impl Fn() -> T,
    mut pass: impl FnMut(&mut Vec<Op>),
) {
    let start = Instant::now();
    while measured.passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        drop(measured.set_up(&setup));
        let mut ops = Vec::new();
        pass(&mut ops);
        measured.passes.push(Pass { ops });
    }
}

/// `exact_solve`.
pub fn exact_solve(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let setup = || {
        let pool = instances(EXACT_POOL, seed);
        // Warm-up: one solve per family on the first CCR-10 instance.
        let warm = pool
            .iter()
            .find(|i| i.entry.ccr >= 2.0)
            .expect("the pool has CCR 10");
        for family in [Family::AStar, Family::ChenYu] {
            run_serial(warm, family, None);
        }
        pool
    };
    let mut measured = Measured::default();
    let pool = measured.set_up(setup);
    let ops = exact_ops(&pool);
    if trace {
        let mut layers = EngineLayers::default();
        for &(inst, family) in &ops {
            layers.trace(report, inst, family, None);
        }
        layers.report(report);
        return;
    }
    repeat_passes(&mut measured, seconds, 3, setup, |out| {
        for &(inst, family) in &ops {
            let run = run_serial(inst, family, None);
            let ok = check_schedule(
                report,
                inst,
                &format!("{family:?}"),
                run.schedule.as_ref(),
                Some(run.outcome),
            );
            out.push(Op {
                ok: run.op.ok && ok,
                ..run.op
            });
        }
    });
    measured.end_to_end(report);
}

/// Per-layer totals of the traced engine search over a set of searches.
#[derive(Default)]
pub struct EngineLayers {
    build_ms: Vec<f64>,
    validate_us: Vec<f64>,
    teardown_ms: f64,
    clock_overshoot_ms: Vec<f64>,
    layers: LayerTimes,
    drop_store: Duration,
    drop_seen: Duration,
    drop_open: Duration,
    stats: SearchStats,
    seen_entries: usize,
    traced_wall: Duration,
    reference_wall: Duration,
    ops: u64,
}

impl EngineLayers {
    /// Runs `family` on `inst` untraced (the reference), then through the
    /// traced search, and checks that both made the same search.  A budget
    /// run is replayed by capping the traced run at the reference's
    /// expansion count.
    pub fn trace(
        &mut self,
        report: &mut Report,
        inst: &Instance,
        family: Family,
        budget_ms: Option<u64>,
    ) {
        let graph = inst.graph.clone();
        let t = Instant::now();
        let problem = SchedulingProblem::new(graph, inst.network.clone());
        self.build_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Both runs start from a trimmed heap, as every untraced call does.
        let limits = SearchLimits {
            max_millis: budget_ms,
            ..Default::default()
        };
        mem::reset_peak();
        let t = Instant::now();
        let reference = run_family(&problem, family, limits);
        let reference_wall = t.elapsed();
        self.reference_wall += reference_wall;
        self.teardown_ms += (reference_wall.saturating_sub(reference.elapsed)).as_secs_f64() * 1e3;
        if let Some(ms) = budget_ms {
            self.clock_overshoot_ms
                .push(reference.elapsed.as_secs_f64() * 1e3 - ms as f64);
        }
        let t = Instant::now();
        let valid = reference
            .schedule
            .as_ref()
            .map(|s| s.validate(&inst.graph, &inst.network));
        self.validate_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(valid, Some(Ok(()))) {
            report.fail(format!(
                "{}: {family:?} returned no valid schedule",
                inst.name
            ));
        }

        let cap = budget_ms.map(|_| reference.stats.expanded);
        mem::reset_peak();
        let traced = match family {
            Family::AStar => traced_search(
                &problem,
                AStarPolicy::new(true),
                PruningConfig::all(),
                HeuristicKind::PaperStaticLevel,
                cap,
                false,
            ),
            Family::ChenYu => {
                let cy = ChenYuScheduler::new(&problem);
                traced_search(
                    &problem,
                    chen_yu_policy(&cy),
                    PruningConfig::none(),
                    HeuristicKind::Zero,
                    cap,
                    true,
                )
            }
        };
        let (r, s) = (&reference.stats, &traced.stats);
        report.check(
            (r.expanded, r.generated, r.duplicates) == (s.expanded, s.generated, s.duplicates),
            || {
                format!(
                    "{}: traced {family:?} counted (expanded, generated, duplicates) = ({}, {}, {}), run_search ({}, {}, {})",
                    inst.name, s.expanded, s.generated, s.duplicates, r.expanded, r.generated, r.duplicates
                )
            },
        );
        report.check(traced.outcome == reference.outcome, || {
            format!(
                "{}: traced {family:?} stopped {:?}, run_search {:?}",
                inst.name, traced.outcome, reference.outcome
            )
        });
        report.check(
            budget_ms.is_some() || traced.makespan == reference.schedule_length,
            || {
                format!(
                    "{}: traced {family:?} makespan {} vs {}",
                    inst.name, traced.makespan, reference.schedule_length
                )
            },
        );

        self.layers.merge(&traced.layers);
        self.drop_store += traced.drop_store;
        self.drop_seen += traced.drop_seen;
        self.drop_open += traced.drop_open;
        self.seen_entries = self.seen_entries.max(traced.seen_entries);
        self.stats.merge(&traced.stats);
        self.traced_wall += traced.wall;
        self.ops += 1;
    }

    /// Writes the engine's per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        let l = &self.layers;
        let s = &self.stats;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set("problem.build_ms", median(&self.build_ms).unwrap_or(0.0));
        report.set("eval.candidates_ns", l.ns_per_call(Layer::Candidates));
        report.set("eval.peek_child_ns", l.ns_per_call(Layer::PeekChild));
        report.set("eval.policy_ns", l.ns_per_call(Layer::Policy));
        report.set(
            "eval.children_per_expansion",
            ratio(l.calls(Layer::PeekChild), s.expanded),
        );
        report.set("dup.signature_ns", l.ns_per_call(Layer::Signature));
        report.set("dup.admit_ns", l.ns_per_call(Layer::Admit));
        report.set("dup.hit_ratio", ratio(s.duplicates, l.calls(Layer::Admit)));
        report.set("dup.seen_entries", self.seen_entries as f64);
        report.set("store.insert_ns", l.ns_per_call(Layer::Insert));
        report.set("store.materialise_ns", l.ns_per_call(Layer::Materialise));
        report.set("store.release_ns", l.ns_per_call(Layer::Release));
        report.set(
            "store.replay_per_materialise",
            ratio(s.replayed_deltas, s.materialisations),
        );
        report.set(
            "store.path_cache_hit_rate",
            ratio(s.path_cache_hits, s.materialisations),
        );
        report.set("store.peak_live_records", s.peak_live_records as f64);
        report.set("open.push_ns", l.ns_per_call(Layer::Push));
        report.set("open.pop_ns", l.ns_per_call(Layer::Pop));
        report.set("open.max_size", s.max_open_size as f64);
        report.set("teardown.total_ms", self.teardown_ms);
        report.set("teardown.store_ms", self.drop_store.as_secs_f64() * 1e3);
        report.set("teardown.seen_ms", self.drop_seen.as_secs_f64() * 1e3);
        report.set("teardown.open_ms", self.drop_open.as_secs_f64() * 1e3);
        report.set(
            "engine.clock_overshoot_ms",
            median(&self.clock_overshoot_ms).unwrap_or(0.0),
        );
        report.set("engine.expanded", s.expanded as f64);
        report.set("engine.generated", s.generated as f64);
        report.set(
            "schedule.validate_us",
            median(&self.validate_us).unwrap_or(0.0),
        );
        let traced = self.traced_wall.as_secs_f64();
        report.set(
            "trace.overhead_pct",
            (traced / self.reference_wall.as_secs_f64() - 1.0) * 100.0,
        );
        let drops = (self.drop_store + self.drop_seen + self.drop_open).as_secs_f64();
        report.set(
            "trace.coverage_pct",
            (l.estimated_total_ns() / 1e9 + drops) / traced * 100.0,
        );
        report.attempted = self.ops;
    }
}

/// `parallel_exact`: the exact pool's v ≥ 11 instances, solved by parallel
/// A* with q = 2 PPEs and the default configuration.
pub fn parallel_exact(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let config = ParallelConfig {
        num_ppes: 2,
        ..Default::default()
    };
    let setup = || {
        let mut pool = instances(EXACT_POOL, seed);
        pool.retain(|i| i.entry.nodes >= 11);
        let problem = SchedulingProblem::new(pool[0].graph.clone(), pool[0].network.clone());
        ParallelAStarScheduler::new(&problem, config).run();
        pool
    };
    let mut measured = Measured::default();
    let pool = measured.set_up(setup);
    if trace {
        parallel_layers(&pool, config, report);
        return;
    }
    repeat_passes(&mut measured, seconds, 3, setup, |out| {
        for inst in &pool {
            let (graph, network) = (inst.graph.clone(), inst.network.clone());
            let before = mem::reset_peak();
            let t = Instant::now();
            let problem = SchedulingProblem::new(graph, network);
            let result = ParallelAStarScheduler::new(&problem, config).run();
            let (expanded, generated) = (result.total_expanded(), result.total_stats().generated);
            let (outcome, elapsed, schedule) = (
                result.outcome.clone(),
                result.elapsed,
                result.schedule.clone(),
            );
            drop(result);
            drop(problem);
            let wall = t.elapsed().as_secs_f64();
            let rss_peak = mem::peak();
            let ok = check_schedule(report, inst, "parallel", Some(&schedule), Some(outcome));
            out.push(Op {
                wall,
                promise: elapsed.as_secs_f64(),
                budgeted: false,
                expanded,
                generated,
                rss_growth: rss_peak.saturating_sub(before),
                rss_peak,
                ok,
            });
        }
    });
    measured.end_to_end(report);
}

fn parallel_layers(pool: &[Instance], config: ParallelConfig, report: &mut Report) {
    let (mut build_ms, mut validate_us, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    let (mut expanded, mut avoided, mut transfers, mut hits, mut lookups) = (0, 0, 0, 0, 0);
    let (mut peak_in_flight, mut teardown, mut accounted) = (0, Duration::ZERO, Duration::ZERO);
    let pass = Instant::now();
    for inst in pool {
        let t = Instant::now();
        let problem = SchedulingProblem::new(inst.graph.clone(), inst.network.clone());
        let build = t.elapsed();
        build_ms.push(build.as_secs_f64() * 1e3);
        let t = Instant::now();
        let result = ParallelAStarScheduler::new(&problem, config).run();
        let run = t.elapsed();
        teardown += run.saturating_sub(result.elapsed);
        let t = Instant::now();
        let valid = result.schedule.validate(&inst.graph, &inst.network);
        let validate = t.elapsed();
        validate_us.push(validate.as_secs_f64() * 1e6);
        accounted += build + run + validate;
        check_schedule(
            report,
            inst,
            "parallel",
            Some(&result.schedule),
            Some(result.outcome.clone()),
        );
        report.check(valid.is_ok(), || {
            format!("{}: invalid parallel schedule", inst.name)
        });
        expanded += result.total_expanded();
        avoided += result.redundant_expansions_avoided();
        transfers += result.election_transfers();
        if let Some(closed) = &result.closed_stats {
            hits += closed.total_hits();
            lookups += closed.total_hits() + closed.total_misses();
        }
        // A PPE that expanded nothing makes the ratio infinite; count it as
        // one expansion so the imbalance stays finite and still large.
        let counts: Vec<u64> = result
            .per_ppe_stats
            .iter()
            .map(|s| s.expanded.max(1))
            .collect();
        let (max, min) = (
            counts.iter().max().copied().unwrap_or(1),
            counts.iter().min().copied().unwrap_or(1),
        );
        imbalance.push(max as f64 / min as f64);
        peak_in_flight = peak_in_flight.max(result.peak_in_flight);
    }
    let pass = pass.elapsed();
    report.attempted = pool.len() as u64;
    report.set("problem.build_ms", median(&build_ms).unwrap_or(0.0));
    report.set("schedule.validate_us", median(&validate_us).unwrap_or(0.0));
    report.set("parallel.expanded", expanded as f64);
    report.set("parallel.redundant_avoided", avoided as f64);
    report.set("parallel.election_transfers", transfers as f64);
    report.set(
        "parallel.closed_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    report.set("parallel.load_imbalance", median(&imbalance).unwrap_or(0.0));
    report.set("parallel.peak_in_flight", peak_in_flight as f64);
    report.set("parallel.teardown_ms", teardown.as_secs_f64() * 1e3);
    // Nothing inside the parallel search is traced: coverage is the share
    // of the pass the timed calls account for.
    report.set(
        "trace.coverage_pct",
        accounted.as_secs_f64() / pass.as_secs_f64() * 100.0,
    );
}
