//! Cross-scheduler conformance suite: every exact scheduler in the workspace
//! — serial A*, the Chen & Yu branch-and-bound baseline, Aε* with ε = 0,
//! exhaustive enumeration, and the parallel A* in both duplicate-detection
//! modes with q ∈ {1, 2} — must return the same optimal makespan on a
//! deterministic corpus of small random and structured instances, and every
//! returned schedule must be feasible.  All families are dispatched by name
//! through the facade's `SchedulerSpec::run`.
//!
//! The corpus stays at ≤ 10 nodes (seeds chosen with the PR 1 probe pattern
//! for the vendored RNG stream) so the exponential searches remain fast on
//! the single-core CI host.
//!
//! The parallel runs exercise both duplicate-detection modes in one process,
//! and every assertion message names the mode it checks.

use optsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Both duplicate-detection modes of the parallel scheduler.
const MODES: [DuplicateDetection; 2] =
    [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal];

/// The deterministic conformance corpus: structured graphs plus random DAGs
/// over the paper's CCR sweep, all ≤ 10 nodes.
fn corpus() -> Vec<(String, TaskGraph, ProcNetwork)> {
    let mut cases: Vec<(String, TaskGraph, ProcNetwork)> = vec![
        ("paper-example".into(), paper_example_dag(), ProcNetwork::ring(3)),
        ("fork-join".into(), fork_join(3, 4, 2), ProcNetwork::fully_connected(3)),
        ("chain".into(), chain(6, 3, 4), ProcNetwork::ring(3)),
        ("out-tree".into(), out_tree(2, 2, 4, 3), ProcNetwork::fully_connected(2)),
        ("in-tree".into(), in_tree(2, 2, 4, 3), ProcNetwork::star(3)),
    ];
    // Random instances: one RNG stream per probe-tested seed, as in PR 1.
    let mut rng = StdRng::seed_from_u64(42);
    for &ccr in &PAPER_CCRS {
        for nodes in [6usize, 7] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes, ccr, ..Default::default() },
                &mut rng,
            );
            cases.push((format!("random-v{nodes}-ccr{ccr}"), g, ProcNetwork::ring(3)));
        }
    }
    cases
}

/// The headline conformance assertion: five scheduler families, one optimum.
/// Every family is dispatched by name through the facade's
/// [`SchedulerSpec::run`] — the same path the CLI, the service and the
/// experiment binaries use — instead of hand-matching scheduler types.
#[test]
fn all_schedulers_agree_on_the_optimal_makespan() {
    for (name, graph, net) in corpus() {
        let problem = SchedulingProblem::new(graph.clone(), net.clone());

        // Serial A* at the defaults is the reference.
        let astar = SchedulerSpec::default().run("astar", &problem).expect("astar").result;
        assert!(astar.is_optimal(), "{name}: A* must prove optimality");
        let optimum = astar.schedule_length;

        // Aε* degenerates to an exact search at ε = 0; `exhaustive` certifies
        // the optimum by brute force on the smallest instances (it is itself
        // exponential, so it is skipped above 7 nodes).
        let spec = SchedulerSpec { epsilon: 0.0, ..Default::default() };
        let mut families = vec!["astar", "aeps", "chenyu"];
        if graph.num_nodes() <= 7 {
            families.push("exhaustive");
        }
        for family in families {
            let r = spec.run(family, &problem).expect(family).result;
            assert!(r.is_optimal(), "{name}: {family}");
            assert_eq!(r.schedule_length, optimum, "{name}: {family}");
            r.expect_schedule().validate(&graph, &net).unwrap();
        }

        // Parallel A*: every duplicate-detection mode, q ∈ {1, 2}.
        for mode in MODES {
            for q in [1usize, 2] {
                let spec = SchedulerSpec {
                    parallel: ParallelConfig::exact(q).with_duplicate_detection(mode),
                    ..Default::default()
                };
                let ctx = format!("{name}: parallel q={q} mode={mode}");
                let r = spec.run("parallel", &problem).expect("parallel").result;
                assert!(r.is_optimal(), "{ctx}");
                assert_eq!(r.schedule_length, optimum, "{ctx}");
                r.expect_schedule().validate(&graph, &net).unwrap();
                // Without transfers (q = 1) the arena keeps at most the
                // pinned root plus one scratch state; at q > 1 deep
                // transfers arrive as snapshot roots.
                if q == 1 {
                    assert!(
                        r.stats.peak_live_states <= 2,
                        "{ctx}: arena held {} live full states",
                        r.stats.peak_live_states
                    );
                }
                // A search that pops past the root must rebuild those states
                // by replay (bound-terminated runs that only ever expand full
                // roots replay nothing, so gate on the expansion count).
                if r.stats.expanded > 2 {
                    assert!(r.stats.replayed_deltas > 0, "{ctx}: the arena expands by replay");
                }
            }
        }
    }
}

/// Weighted-A* conformance over the whole corpus: at weight 1.0 the `wastar`
/// family *is* A* — same optimum and bit-identical expansion/generation
/// counts — and at larger weights every schedule stays within `w × optimum`
/// while remaining feasible.  (The service relies on both halves: weight-1
/// requests are exact, and deadline-pressure weights keep their bound.)
#[test]
fn wastar_at_weight_one_agrees_with_astar_and_respects_its_bound_above() {
    for (name, graph, net) in corpus() {
        let problem = SchedulingProblem::new(graph.clone(), net.clone());
        let astar = AStarScheduler::new(&problem).run();
        assert!(astar.is_optimal(), "{name}");
        let optimum = astar.schedule_length;

        let spec = SchedulerSpec { weight: 1.0, ..Default::default() };
        let exact = spec.run("wastar", &problem).expect("wastar");
        assert!(exact.result.is_optimal(), "{name}: wastar(1.0)");
        assert_eq!(exact.result.schedule_length, optimum, "{name}: wastar(1.0)");
        assert_eq!(
            (exact.result.stats.expanded, exact.result.stats.generated),
            (astar.stats.expanded, astar.stats.generated),
            "{name}: wastar at weight 1.0 must be bit-identical to A*"
        );
        exact.result.expect_schedule().validate(&graph, &net).unwrap();

        for weight in [1.5, 2.0] {
            let spec = SchedulerSpec { weight, ..Default::default() };
            let r = spec.run("wastar", &problem).expect("wastar").result;
            let bound = ((optimum as f64) * weight).floor() as Cost;
            assert!(
                r.schedule_length >= optimum && r.schedule_length <= bound,
                "{name}: wastar({weight}) gave {} outside [{optimum}, {bound}]",
                r.schedule_length
            );
            r.expect_schedule().validate(&graph, &net).unwrap();
        }
    }
}

/// Aε* conformance: for every ε the schedule stays within (1+ε)·optimum, in
/// both the serial and the parallel realisation (and both duplicate modes).
#[test]
fn epsilon_bound_holds_across_schedulers() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = generate_random_dag(
        &RandomDagConfig { nodes: 7, ccr: 1.0, ..Default::default() },
        &mut rng,
    );
    let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(3));
    let optimum = AStarScheduler::new(&problem).run().schedule_length;

    for eps in [0.2, 0.5] {
        let bound = ((optimum as f64) * (1.0 + eps)).floor() as Cost;
        let serial = AEpsScheduler::new(&problem, eps).run();
        assert!(serial.schedule_length >= optimum && serial.schedule_length <= bound);
        for mode in MODES {
            let cfg = ParallelConfig::approximate(2, eps).with_duplicate_detection(mode);
            let r = ParallelAStarScheduler::new(&problem, cfg).run();
            assert!(r.is_optimal(), "eps={eps} mode={mode}");
            assert!(
                r.schedule_length() >= optimum && r.schedule_length() <= bound,
                "eps={eps} mode={mode}: {} outside [{optimum}, {bound}]",
                r.schedule_length()
            );
        }
    }
}

/// The acceptance criterion of the sharded CLOSED table: on a contended
/// instance the global duplicate detection expands strictly fewer states
/// in total than the paper's local-only design, and the savings are visible
/// in the new redundant-work counters.
///
/// The instance and configuration (q = 4, eager communication) were probed
/// to give a wide margin — local mode expands ≥ 2× the states of sharded
/// mode on every observed interleaving — so the strict inequality is robust
/// to thread scheduling noise on the single-core host.
#[test]
fn sharded_mode_expands_strictly_fewer_states_under_contention() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = generate_random_dag(
        &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
        &mut rng,
    );
    let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
    let cfg = |mode| ParallelConfig {
        num_ppes: 4,
        min_comm_period: 1, // eager exchange maximises cross-PPE duplication
        duplicate_detection: mode,
        ..Default::default()
    };

    let local = ParallelAStarScheduler::new(&problem, cfg(DuplicateDetection::Local)).run();
    let sharded =
        ParallelAStarScheduler::new(&problem, cfg(DuplicateDetection::ShardedGlobal)).run();

    // Both modes remain exact…
    assert!(local.is_optimal() && sharded.is_optimal());
    assert_eq!(local.schedule_length(), sharded.schedule_length());

    // …but the global table kills the redundant work.
    assert!(
        sharded.total_expanded() < local.total_expanded(),
        "sharded mode expanded {} states, local mode {}",
        sharded.total_expanded(),
        local.total_expanded()
    );
    assert!(sharded.redundant_expansions_avoided() > 0);
    assert_eq!(local.redundant_expansions_avoided(), 0);

    // The avoided duplicates are reported consistently by the table itself.
    let table = sharded.closed_stats.as_ref().expect("sharded run reports table stats");
    assert!(table.total_hits() >= sharded.redundant_expansions_avoided());
    assert!(table.hit_rate() > 0.0);
}

/// The PR 4 extension of the PR 2 table stress test: q = 4 PPEs on arena
/// stores hammer the sharded CLOSED table through the *real* scheduler with
/// eager communication, so claimed states are continuously popped,
/// materialised, shipped (load sharing **and** the ownership-transferring
/// election) and adopted into the receivers' delta arenas — shallow states
/// as re-rooted chains, deep ones as single snapshot records.  Across
/// repeated contended runs no signature claim may be lost:
///
/// * every run stays optimal (a lost claim silently drops the sole live copy
///   of a state, which shows up here as a missed optimum),
/// * the table's books balance — entries equal first-time claims, and every
///   hit is a *generation-time* duplicate counted by exactly one PPE.
///   Owned transfers (load shares and election transfers) bypass the table
///   entirely, so `duplicates_global` cannot count election traffic: if an
///   election transfer were re-admitted through the table, its hit would
///   have no matching generation-time counter and the reconciliation below
///   would fail.
/// * the ownership-transferring election is actually exercised
///   (`election_transfers > 0` accumulated across runs) while local mode
///   records none.
#[test]
fn arena_transfers_lose_no_claims_under_4_thread_stress() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = generate_random_dag(
        &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
        &mut rng,
    );
    let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(3));
    let optimum = AStarScheduler::new(&problem).run().schedule_length;

    let mut elections_seen = 0u64;
    for run in 0..4 {
        let cfg = ParallelConfig {
            num_ppes: 4,
            min_comm_period: 1, // eager exchange: maximum transfer traffic
            num_shards: 4,
            ..Default::default()
        };
        let r = ParallelAStarScheduler::new(&problem, cfg).run();
        assert!(r.is_optimal(), "run {run}");
        assert_eq!(r.schedule_length(), optimum, "run {run}: a claim was lost");
        r.schedule.validate(&g, problem.network()).unwrap();

        let table = r.closed_stats.as_ref().expect("sharded run reports table stats");
        let total = r.total_stats();
        assert_eq!(
            table.total_entries() as u64,
            table.total_misses(),
            "run {run}: every successful claim inserts exactly one entry"
        );
        assert_eq!(table.total_reopens(), 0, "run {run}");
        assert_eq!(
            table.total_hits(),
            total.duplicates + total.duplicates_global,
            "run {run}: a transfer was re-admitted through the table"
        );
        // Transfers arrive as delta chains (shallow) or snapshot roots
        // (deep), never as an eagerly cloned working set: descendants of
        // every arrival are delta records rebuilt by replay, and full
        // snapshots stay a strict subset of the live records.
        assert!(total.replayed_deltas > 0, "run {run}: the arena expands by replay");
        assert!(
            total.peak_live_states <= total.peak_live_records,
            "run {run}: {} live full states exceed {} live records",
            total.peak_live_states,
            total.peak_live_records
        );
        elections_seen += total.election_transfers;
    }
    assert!(
        elections_seen > 0,
        "eagerly communicating contended runs must elect at least once"
    );

    // Local mode on the same instance: the paper's copy election, no
    // ownership transfers recorded.
    let cfg = ParallelConfig {
        num_ppes: 4,
        min_comm_period: 1,
        ..Default::default()
    }
    .with_duplicate_detection(DuplicateDetection::Local);
    let r = ParallelAStarScheduler::new(&problem, cfg).run();
    assert!(r.is_optimal());
    assert_eq!(r.schedule_length(), optimum);
    assert_eq!(r.election_transfers(), 0);
}
