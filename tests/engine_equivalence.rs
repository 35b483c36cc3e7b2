//! Engine-equivalence suite: the unified-engine refactor must be
//! behaviour-preserving, not merely optimum-preserving.
//!
//! The serial expansion and generation counts of A*, Aε*(0) and Chen & Yu on
//! the deterministic conformance corpus are pinned below as literals,
//! captured from the pre-refactor implementations (PR 2 tree) on the same
//! corpus.  Any drift in candidate enumeration order, pruning placement,
//! duplicate-detection order or tie-breaking shows up as a loud mismatch
//! here, with the instance and family named.

use optsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The same deterministic corpus as `tests/conformance.rs`.
fn corpus() -> Vec<(String, TaskGraph, ProcNetwork)> {
    let mut cases: Vec<(String, TaskGraph, ProcNetwork)> = vec![
        ("paper-example".into(), paper_example_dag(), ProcNetwork::ring(3)),
        ("fork-join".into(), fork_join(3, 4, 2), ProcNetwork::fully_connected(3)),
        ("chain".into(), chain(6, 3, 4), ProcNetwork::ring(3)),
        ("out-tree".into(), out_tree(2, 2, 4, 3), ProcNetwork::fully_connected(2)),
        ("in-tree".into(), in_tree(2, 2, 4, 3), ProcNetwork::star(3)),
    ];
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

/// Pre-refactor serial counts, one row per corpus instance:
/// (name, optimum,
///  A* expanded, A* generated,
///  Aε*(0) expanded, Aε*(0) generated,
///  Chen & Yu expanded, Chen & Yu generated).
///
/// Captured from the clone-per-generation implementations at commit
/// "PR 2: Sharded global duplicate detection..." with default
/// configurations (all pruning, paper heuristic).  Pinned as literals so
/// behaviour drift is loud; if an intentional algorithm change moves them,
/// re-capture and update this table in the same commit.
type PinnedRow = (&'static str, Cost, u64, u64, u64, u64, u64, u64);

const PINNED: &[PinnedRow] = &[
    ("paper-example", 14, 34, 62, 34, 62, 325, 548),
    ("fork-join", 16, 10, 22, 10, 22, 157, 355),
    ("chain", 18, 6, 7, 6, 7, 16, 43),
    ("out-tree", 19, 100, 148, 100, 148, 423, 680),
    ("in-tree", 18, 589, 677, 589, 677, 1405, 3542),
    ("random-v6-ccr0.1", 155, 14, 20, 14, 20, 160, 393),
    ("random-v7-ccr0.1", 163, 414, 438, 414, 438, 580, 1673),
    ("random-v6-ccr1", 203, 6, 7, 6, 7, 16, 43),
    ("random-v7-ccr1", 162, 161, 317, 161, 317, 598, 1845),
    ("random-v6-ccr10", 242, 322, 503, 338, 523, 884, 2079),
    ("random-v7-ccr10", 225, 225, 291, 225, 291, 706, 1698),
];

#[test]
fn serial_expansion_counts_match_the_pre_refactor_implementations() {
    let cases = corpus();
    assert_eq!(cases.len(), PINNED.len(), "corpus and pinned table out of sync");
    for ((name, graph, net), pinned) in cases.into_iter().zip(PINNED) {
        let (pname, optimum, a_exp, a_gen, e_exp, e_gen, c_exp, c_gen) = *pinned;
        assert_eq!(name, pname, "corpus order changed — re-pin the table");
        let problem = SchedulingProblem::new(graph, net);

        let astar = AStarScheduler::new(&problem).run();
        assert!(astar.is_optimal(), "{name}: A*");
        assert_eq!(astar.schedule_length, optimum, "{name}: A* optimum");
        assert_eq!(
            (astar.stats.expanded, astar.stats.generated),
            (a_exp, a_gen),
            "{name}: A* expansion counts drifted from the pre-refactor baseline"
        );

        let aeps = AEpsScheduler::new(&problem, 0.0).run();
        assert_eq!(aeps.schedule_length, optimum, "{name}: Aε*(0) optimum");
        assert_eq!(
            (aeps.stats.expanded, aeps.stats.generated),
            (e_exp, e_gen),
            "{name}: Aε*(0) expansion counts drifted from the pre-refactor baseline"
        );

        let chen = ChenYuScheduler::new(&problem).run();
        assert_eq!(chen.schedule_length, optimum, "{name}: Chen & Yu optimum");
        assert_eq!(
            (chen.stats.expanded, chen.stats.generated),
            (c_exp, c_gen),
            "{name}: Chen & Yu expansion counts drifted from the pre-refactor baseline"
        );
    }
}

/// Pinned q = 1 parallel counts, one row per corpus instance:
/// (name, optimum, expanded, generated).
///
/// A single-PPE parallel run has no neighbours, hence no elections, no load
/// sharing and no thread races: it is a deterministic replay of the PPE
/// worker loop, pinned here with the same re-pin-in-the-same-commit
/// discipline as the serial literals above.  Captured at the PR 4
/// arena-backed-worker change; the counts are identical across both
/// duplicate-detection modes (asserted below), so any divergence between
/// those paths is loud too.
const PINNED_PARALLEL_Q1: &[(&str, Cost, u64, u64)] = &[
    ("paper-example", 14, 34, 61),
    ("fork-join", 16, 10, 21),
    ("chain", 18, 1, 1),
    ("out-tree", 19, 76, 137),
    ("in-tree", 18, 589, 676),
    ("random-v6-ccr0.1", 155, 13, 19),
    ("random-v7-ccr0.1", 163, 414, 437),
    ("random-v6-ccr1", 203, 1, 1),
    ("random-v7-ccr1", 162, 161, 316),
    ("random-v6-ccr10", 242, 322, 502),
    ("random-v7-ccr10", 225, 225, 290),
];

#[test]
fn single_ppe_parallel_counts_are_pinned_across_modes() {
    let cases = corpus();
    assert_eq!(cases.len(), PINNED_PARALLEL_Q1.len(), "corpus and pinned table out of sync");
    for ((name, graph, net), pinned) in cases.into_iter().zip(PINNED_PARALLEL_Q1) {
        let (pname, optimum, expanded, generated) = *pinned;
        assert_eq!(name, pname, "corpus order changed — re-pin the table");
        let problem = SchedulingProblem::new(graph, net);
        for mode in [DuplicateDetection::ShardedGlobal, DuplicateDetection::Local] {
            let cfg = ParallelConfig::exact(1).with_duplicate_detection(mode);
            let r = ParallelAStarScheduler::new(&problem, cfg).run();
            let ctx = format!("{name}: q=1 mode={mode}");
            assert!(r.is_optimal(), "{ctx}");
            assert_eq!(r.schedule_length(), optimum, "{ctx}");
            let total = r.total_stats();
            assert_eq!(
                (total.expanded, total.generated),
                (expanded, generated),
                "{ctx}: deterministic-replay counts drifted — if the change is \
                 intentional, re-pin PINNED_PARALLEL_Q1 in the same commit"
            );
            assert_eq!(total.election_transfers, 0, "{ctx}: q=1 has no neighbours");
        }
    }
}

/// Pinned q = 1 parallel Aε\* runs, one row per corpus instance:
/// (name, ε = 0.2 length, expanded, generated, ε = 0.5 length, expanded,
///  generated).
///
/// The ε-bounded PPE steps the serial search with `FocalPolicy`, the serial
/// Aε\* rule; these counts pin it as `PINNED_PARALLEL_Q1` pins the exact
/// mode.  Captured at the change that made every PPE drive the engine's
/// `Search::step` (the PPE had its own rule before: the smallest `h` among
/// the first 64 entries in `(f, h, FIFO)` order); identical across both
/// duplicate-detection modes.  Re-pin in the same commit if an intentional
/// change moves them.
const PINNED_PARALLEL_Q1_EPS: &[(&str, Cost, u64, u64, Cost, u64, u64)] = &[
    ("paper-example", 14, 1, 1, 14, 1, 1),
    ("fork-join", 16, 3, 5, 16, 1, 1),
    ("chain", 18, 1, 1, 18, 1, 1),
    ("out-tree", 19, 64, 118, 19, 23, 48),
    ("in-tree", 18, 25, 138, 18, 1, 4),
    ("random-v6-ccr0.1", 155, 5, 10, 155, 2, 5),
    ("random-v7-ccr0.1", 163, 3, 8, 163, 3, 8),
    ("random-v6-ccr1", 203, 1, 1, 203, 1, 1),
    ("random-v7-ccr1", 193, 155, 302, 193, 127, 278),
    ("random-v6-ccr10", 256, 337, 520, 360, 319, 497),
    ("random-v7-ccr10", 225, 158, 246, 225, 11, 22),
];

#[test]
fn single_ppe_parallel_aeps_counts_are_pinned_across_modes() {
    let cases = corpus();
    assert_eq!(cases.len(), PINNED_PARALLEL_Q1_EPS.len(), "corpus and pinned table out of sync");
    for ((name, graph, net), pinned) in cases.into_iter().zip(PINNED_PARALLEL_Q1_EPS) {
        let (pname, len_02, exp_02, gen_02, len_05, exp_05, gen_05) = *pinned;
        assert_eq!(name, pname, "corpus order changed — re-pin the table");
        let problem = SchedulingProblem::new(graph, net);
        for (eps, length, expanded, generated) in
            [(0.2, len_02, exp_02, gen_02), (0.5, len_05, exp_05, gen_05)]
        {
            for mode in [DuplicateDetection::ShardedGlobal, DuplicateDetection::Local] {
                let cfg = ParallelConfig::approximate(1, eps).with_duplicate_detection(mode);
                let r = ParallelAStarScheduler::new(&problem, cfg).run();
                let ctx = format!("{name}: q=1 eps={eps} mode={mode}");
                assert!(r.is_optimal(), "{ctx}");
                assert_eq!(r.schedule_length(), length, "{ctx}");
                let total = r.total_stats();
                assert_eq!(
                    (total.expanded, total.generated),
                    (expanded, generated),
                    "{ctx}: deterministic-replay counts drifted — if the change is \
                     intentional, re-pin PINNED_PARALLEL_Q1_EPS in the same commit"
                );
            }
        }
    }
}

/// `SearchLimits` now flow through every family, including the exhaustive
/// enumerator (which silently ignored them before the engine refactor).
#[test]
fn limits_flow_through_every_family() {
    let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
    let limits = SearchLimits::expansions(1);
    let outcomes = [
        AStarScheduler::new(&problem).with_limits(limits).run().outcome,
        AEpsScheduler::new(&problem, 0.2).with_limits(limits).run().outcome,
        ChenYuScheduler::new(&problem).with_limits(limits).run().outcome,
        ExhaustiveScheduler::new(&problem).with_limits(limits).run().outcome,
    ];
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(*o, SearchOutcome::LimitReached, "family #{i}");
    }
}
