//! Cross-crate integration tests: every algorithm, every substrate, on the
//! paper's random workloads and on the structured application graphs.

use std::time::{Duration, Instant};

use optsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All exact algorithms (serial A*, A* without pruning, Chen & Yu, parallel
/// A*, exhaustive enumeration) agree on the optimal schedule length over a
/// small sweep of the paper's workload space.
#[test]
fn all_exact_algorithms_agree_on_random_workloads() {
    let mut rng = StdRng::seed_from_u64(42);
    for &ccr in &PAPER_CCRS {
        for nodes in [6usize, 7] {
            let graph = generate_random_dag(
                &RandomDagConfig { nodes, ccr, ..Default::default() },
                &mut rng,
            );
            let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));

            let astar = AStarScheduler::new(&problem).run();
            let astar_full =
                AStarScheduler::new(&problem).with_pruning(PruningConfig::none()).run();
            let chen = ChenYuScheduler::new(&problem).run();
            let brute = exhaustive_optimal(&problem);
            let parallel =
                ParallelAStarScheduler::new(&problem, ParallelConfig::exact(3)).run();

            assert!(astar.is_optimal());
            assert_eq!(astar.schedule_length, brute, "ccr={ccr} v={nodes}");
            assert_eq!(astar_full.schedule_length, brute, "ccr={ccr} v={nodes}");
            assert_eq!(chen.schedule_length, brute, "ccr={ccr} v={nodes}");
            assert_eq!(parallel.schedule_length(), brute, "ccr={ccr} v={nodes}");

            // Every schedule is feasible.
            for s in [astar.expect_schedule(), chen.expect_schedule(), &parallel.schedule] {
                s.validate(problem.graph(), problem.network()).unwrap();
            }
            // And the heuristics bracket the optimum from above.
            assert!(problem.upper_bound() >= brute);
        }
    }
}

/// The Aε* schedulers (serial and parallel) always respect the (1+ε) bound
/// and never beat the optimum.
#[test]
fn approximate_schedulers_respect_their_bound() {
    // Seed and size picked so all three CCR instances stay tractable for the
    // exact searches on the vendored RNG stream (see vendor/rand).
    let mut rng = StdRng::seed_from_u64(11);
    for &ccr in &PAPER_CCRS {
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::fully_connected(3));
        let optimal = AStarScheduler::new(&problem).run().schedule_length;
        for eps in [0.2, 0.5] {
            let bound = ((optimal as f64) * (1.0 + eps)).floor() as Cost;

            let serial = AEpsScheduler::new(&problem, eps).run();
            assert!(serial.schedule_length >= optimal);
            assert!(serial.schedule_length <= bound, "serial ccr={ccr} eps={eps}");

            let par = ParallelAStarScheduler::new(&problem, ParallelConfig::approximate(4, eps)).run();
            assert!(par.schedule_length() >= optimal);
            assert!(par.schedule_length() <= bound, "parallel ccr={ccr} eps={eps}");
        }
    }
}

/// Structured application graphs end-to-end: optimal schedules are feasible,
/// never longer than the heuristic, and never shorter than the critical-path
/// based lower bound.
#[test]
fn structured_graphs_end_to_end() {
    let cases: Vec<(&str, TaskGraph, ProcNetwork)> = vec![
        ("fork-join", fork_join(4, 5, 2), ProcNetwork::fully_connected(3)),
        ("chain", chain(8, 3, 4), ProcNetwork::ring(3)),
        ("out-tree", out_tree(2, 2, 4, 3), ProcNetwork::star(4)),
        ("in-tree", in_tree(2, 2, 4, 3), ProcNetwork::fully_connected(3)),
        ("gauss", gaussian_elimination(4, 6, 3), ProcNetwork::mesh(2, 2)),
        ("fft", fft_butterfly(2, 4, 2), ProcNetwork::hypercube(2)),
        ("lattice", diamond_lattice(3, 3, 3, 2), ProcNetwork::chain(3)),
    ];
    for (name, graph, net) in cases {
        let problem = SchedulingProblem::new(graph.clone(), net.clone());
        let optimal = AStarScheduler::new(&problem).run();
        assert!(optimal.is_optimal(), "{name}");
        let schedule = optimal.expect_schedule();
        schedule.validate(&graph, &net).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(optimal.schedule_length <= problem.upper_bound(), "{name}");
        assert!(
            optimal.schedule_length >= graph.schedule_length_lower_bound(),
            "{name}: {} < lower bound {}",
            optimal.schedule_length,
            graph.schedule_length_lower_bound()
        );
        // The heuristic baselines are feasible too.
        let (_, best) = best_heuristic_schedule(&graph, &net);
        best.validate(&graph, &net).unwrap();
        assert!(best.makespan() >= optimal.schedule_length, "{name}");
    }
}

/// A chain cannot be sped up by more processors; a wide fork-join with free
/// communication parallelises perfectly.  (Scheduling "common sense" checks
/// that exercise the whole stack.)
#[test]
fn scheduling_common_sense() {
    // Chain: optimum equals the serial time regardless of processor count.
    let chain_graph = chain(6, 5, 3);
    for p in [1usize, 2, 4] {
        let problem = SchedulingProblem::new(chain_graph.clone(), ProcNetwork::fully_connected(p));
        assert_eq!(AStarScheduler::new(&problem).run().schedule_length, 30, "p={p}");
    }

    // Fork-join with zero communication: with enough processors the makespan
    // is fork + worker + join.
    let fj = fork_join(4, 7, 0);
    let problem = SchedulingProblem::new(fj, ProcNetwork::fully_connected(4));
    assert_eq!(AStarScheduler::new(&problem).run().schedule_length, 21);

    // The same fork-join with huge communication costs collapses onto one
    // processor: 6 tasks x 7 units.
    let fj_expensive = fork_join(4, 7, 1000);
    let problem = SchedulingProblem::new(fj_expensive, ProcNetwork::fully_connected(4));
    assert_eq!(AStarScheduler::new(&problem).run().schedule_length, 42);
}

/// Heterogeneous processors and hop-scaled communication flow through the
/// whole pipeline (problem construction, search, validation).
#[test]
fn heterogeneous_and_hop_scaled_pipeline() {
    let graph = fork_join(3, 6, 2);
    let net = ProcNetwork::chain(3)
        .with_cycle_times(&[1, 2, 2])
        .with_comm_model(CommModel::HopScaled);
    let problem = SchedulingProblem::new(graph.clone(), net.clone());
    let r = AStarScheduler::new(&problem).run();
    assert!(r.is_optimal());
    r.expect_schedule().validate(&graph, &net).unwrap();
    // The serial execution on the fastest processor is an upper bound.
    assert!(r.schedule_length <= graph.total_computation());
}

/// Schedules and graphs round-trip through serde (the format the CLI uses).
#[test]
fn serde_round_trips_across_crates() {
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generate_random_dag(&RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() }, &mut rng);
    let json = serde_json::to_string(&graph).unwrap();
    let back: TaskGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(graph, back);

    let problem = SchedulingProblem::new(back, ProcNetwork::fully_connected(3));
    let r = AStarScheduler::new(&problem).run();
    let sched_json = serde_json::to_string(r.expect_schedule()).unwrap();
    let sched_back: Schedule = serde_json::from_str(&sched_json).unwrap();
    assert_eq!(sched_back.makespan(), r.schedule_length);
    sched_back.validate(problem.graph(), problem.network()).unwrap();
}

/// A budget stops a search that cannot finish, on the clock's cadence path:
/// whatever the budget, the clock is read on the first expansion and on
/// every 64th.  Serial A\* runs for far more than seconds on this v = 16
/// graph on 4 fully connected processors (the budget caps the instance, it
/// is not shrunk).  Under a 40 ms budget, serial `astar` and `parallel` at q = 2
/// each return a validated schedule no longer than the list schedule, as
/// `LimitReached`, within the budget plus a second.
#[test]
fn a_budget_stops_a_search_that_cannot_finish() {
    const BUDGET_MS: u64 = 40;
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generate_random_dag(
        &RandomDagConfig { nodes: 16, ccr: 1.0, ..Default::default() },
        &mut rng,
    );
    let problem = SchedulingProblem::new(graph, ProcNetwork::fully_connected(4));
    let mut spec = SchedulerSpec::default();
    spec.search.limits.max_millis = Some(BUDGET_MS);
    spec.parallel.num_ppes = 2;
    for name in ["astar", "parallel"] {
        let start = Instant::now();
        let result = spec.run(name, &problem).expect(name).result;
        let wall = start.elapsed();
        assert_eq!(result.outcome, SearchOutcome::LimitReached, "{name}");
        let schedule = result.schedule.as_ref().expect(name);
        schedule.validate(problem.graph(), problem.network()).unwrap();
        assert!(schedule.makespan() <= problem.upper_bound(), "{name}");
        assert!(wall < Duration::from_millis(BUDGET_MS + 1000), "{name}: took {wall:?}");
    }
}
