//! End-to-end tests of `algorithm: "auto"` — the deadline-aware portfolio.
//!
//! The contract under test:
//!
//! * no deadline (generous band) → a seeded exact search whose answers
//!   reproduce the pinned optima,
//! * `deadline_ms: 0` (tight band) → always a feasible schedule, never an
//!   error, tagged with the `auto_anytime` plan,
//! * a mid-band deadline → the staged race (`auto_raced`), still feasible
//!   and never worse than the list upper bound,
//! * dominance: `auto` never returns a longer schedule than a plain
//!   `wastar` request for the same instance and deadline,
//! * the cache keys on the *resolved* plan: an exact auto answer interns
//!   with direct exact requests, and a completed `wastar` entry can
//!   warm-start a later generous auto search (counted in
//!   `auto_warm_starts`), and a race's completed weighted-A\* leg is
//!   memoized under its own `wastar` identity.

use rand::rngs::StdRng;
use rand::SeedableRng;

use optsched_core::SchedulingProblem;
use optsched_procnet::ProcNetwork;
use optsched_service::{
    plan, quality, Instance, InstanceFeatures, Request, SchedulingService, ServiceConfig,
};
use optsched_taskgraph::paper_example_dag;
use optsched_workload::{fork_join, generate_random_dag, RandomDagConfig};

fn auto_request(instance: Instance, deadline_ms: Option<u64>) -> Request {
    let mut req = Request::new(instance);
    req.algorithm = Some("auto".to_string());
    req.deadline_ms = deadline_ms;
    req
}

fn random_instance(nodes: usize, ccr: f64, seed: u64) -> Instance {
    let graph = generate_random_dag(
        &RandomDagConfig { nodes, ccr, ..Default::default() },
        &mut StdRng::seed_from_u64(seed),
    );
    Instance::new(graph, ProcNetwork::fully_connected(3))
}

/// Generous band: `auto` with no deadline reproduces the pinned optima —
/// the paper example's 14, and serial A*'s answer on random instances
/// (including a high-CCR one, which routes to the Chen & Yu prover).
#[test]
fn auto_without_a_deadline_reproduces_the_pinned_optima() {
    let svc = SchedulingService::new(ServiceConfig::default());
    let resp = svc.handle_request(
        &auto_request(Instance::new(paper_example_dag(), ProcNetwork::ring(3)), None),
        0,
    );
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.schedule_length, Some(14));
    assert_eq!(resp.quality.as_deref(), Some(quality::OPTIMAL));
    assert_eq!(resp.plan.as_deref(), Some(plan::AUTO_EXACT));
    assert_ne!(resp.algorithm.as_deref(), Some("auto"), "the literal never reaches a response");

    for (seed, ccr) in [(1u64, 0.5), (2, 1.0), (3, 10.0)] {
        let instance = random_instance(9, ccr, seed);
        let auto_svc = SchedulingService::new(ServiceConfig::default());
        let auto = auto_svc.handle_request(&auto_request(instance.clone(), None), 0);
        assert!(auto.ok, "ccr={ccr}: {:?}", auto.error);
        assert_eq!(auto.quality.as_deref(), Some(quality::OPTIMAL), "ccr={ccr}");

        let mut exact = Request::new(instance);
        exact.algorithm = Some("astar".to_string());
        let reference = SchedulingService::new(ServiceConfig::default()).handle_request(&exact, 0);
        assert_eq!(auto.schedule_length, reference.schedule_length, "ccr={ccr}");
    }
    assert!(svc.metrics_snapshot().auto_exact >= 1);
}

/// Tight band: a 0 ms deadline is always feasible — the anytime plan's
/// pre-seeded incumbent — and never an error.
#[test]
fn auto_with_a_zero_deadline_is_always_feasible() {
    let svc = SchedulingService::new(ServiceConfig::default());
    for (seed, ccr) in [(10u64, 0.1), (11, 1.0), (12, 10.0)] {
        let instance = random_instance(10, ccr, seed);
        let resp = svc.handle_request(&auto_request(instance.clone(), Some(0)), seed);
        assert!(resp.ok, "ccr={ccr}: {:?}", resp.error);
        assert_eq!(resp.plan.as_deref(), Some(plan::AUTO_ANYTIME));
        assert_eq!(resp.algorithm.as_deref(), Some("wastar"));
        resp.schedule
            .expect("feasible schedule even at 0 ms")
            .validate(&instance.graph, &instance.network)
            .unwrap();
    }
    assert_eq!(svc.metrics_snapshot().auto_anytime, 3);
}

/// Mid band: the staged race answers with the `auto_raced` plan, a feasible
/// schedule no longer than the list upper bound, and reports the exact
/// algorithm of its second leg.
#[test]
fn auto_mid_band_races_and_stays_feasible() {
    let instance = Instance::new(paper_example_dag(), ProcNetwork::ring(3));
    let predicted = InstanceFeatures::of(&instance).predicted_exact_ms();
    let svc = SchedulingService::new(ServiceConfig::default());
    let resp = svc.handle_request(&auto_request(instance.clone(), Some(predicted * 2)), 0);
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.plan.as_deref(), Some(plan::AUTO_RACED));
    assert_ne!(resp.algorithm.as_deref(), Some("auto"));
    let schedule = resp.schedule.expect("the race always has an incumbent");
    schedule.validate(&instance.graph, &instance.network).unwrap();
    let ub = SchedulingProblem::new(instance.graph.clone(), instance.network.clone()).upper_bound();
    assert!(schedule.makespan() <= ub, "{} > list bound {ub}", schedule.makespan());
    assert_eq!(svc.metrics_snapshot().auto_raced, 1);
}

/// The race memoizes its completed weighted-A\* leg under the leg's own
/// identity (`wastar` at the calibrated weight, here the default 1.5), so a
/// later direct `wastar` request is a cache hit; the race itself reports the
/// cost of both legs, which exceeds the leg's alone.
#[test]
fn a_completed_race_leg_serves_direct_wastar_requests() {
    let instance = Instance::new(fork_join(8, 10, 5), ProcNetwork::fully_connected(3));
    let predicted = InstanceFeatures::of(&instance).predicted_exact_ms();
    let svc = SchedulingService::new(ServiceConfig::default());
    let race = svc.handle_request(&auto_request(instance.clone(), Some(predicted * 2)), 0);
    assert!(race.ok, "{:?}", race.error);
    assert_eq!(race.plan.as_deref(), Some(plan::AUTO_RACED));

    let mut direct = Request::new(instance);
    direct.algorithm = Some("wastar".to_string());
    let hit = svc.handle_request(&direct, 1);
    assert!(hit.ok, "{:?}", hit.error);
    assert!(hit.cache_hit, "the completed leg is memoized under its wastar identity");
    assert_eq!(hit.algorithm.as_deref(), Some("wastar"));
    assert!(
        race.expanded > hit.expanded,
        "the race sums both legs: race {} vs leg {}",
        race.expanded,
        hit.expanded
    );
}

/// Dominance: for the same instance and deadline, `auto` never returns a
/// longer schedule than a plain `wastar` request.  Checked at the three
/// deterministic deadlines — none (both complete), 0 ms (both return the
/// identical pre-seeded incumbent) and a generous 10 s (no truncation on
/// any plausible machine) — so the comparison cannot flake on wall-clock.
#[test]
fn auto_is_never_worse_than_plain_wastar() {
    for seed in [21u64, 22, 23] {
        for ccr in [0.5, 1.0, 10.0] {
            for deadline in [None, Some(0u64), Some(10_000)] {
                let instance = random_instance(9, ccr, seed);
                let auto_resp = SchedulingService::new(ServiceConfig::default())
                    .handle_request(&auto_request(instance.clone(), deadline), 0);
                let mut wastar_req = Request::new(instance);
                wastar_req.algorithm = Some("wastar".to_string());
                wastar_req.deadline_ms = deadline;
                let wastar_resp = SchedulingService::new(ServiceConfig::default())
                    .handle_request(&wastar_req, 0);
                assert!(auto_resp.ok && wastar_resp.ok);
                assert!(
                    auto_resp.schedule_length <= wastar_resp.schedule_length,
                    "seed={seed} ccr={ccr} deadline={deadline:?}: auto {:?} > wastar {:?}",
                    auto_resp.schedule_length,
                    wastar_resp.schedule_length,
                );
            }
        }
    }
}

/// Cache identity: an exact auto answer is memoized under the *resolved*
/// exact algorithm, so a direct request for that algorithm hits it — and a
/// repeated auto request hits it too, still tagged with its plan.
#[test]
fn auto_answers_intern_under_the_resolved_identity() {
    let instance = random_instance(8, 0.5, 31);
    let svc = SchedulingService::new(ServiceConfig::default());
    let first = svc.handle_request(&auto_request(instance.clone(), None), 0);
    assert!(first.ok && !first.cache_hit);
    let resolved = first.algorithm.clone().expect("resolved algorithm reported");
    assert_ne!(resolved, "auto");

    let mut direct = Request::new(instance.clone());
    direct.algorithm = Some(resolved);
    let second = svc.handle_request(&direct, 1);
    assert!(second.cache_hit, "direct exact request hits the auto-produced entry");
    assert_eq!(second.schedule_length, first.schedule_length);
    assert_eq!(second.plan, None, "a direct request carries no plan tag");

    let third = svc.handle_request(&auto_request(instance, None), 2);
    assert!(third.cache_hit);
    assert_eq!(third.plan.as_deref(), Some(plan::AUTO_EXACT));
    assert_eq!(third.expanded, first.expanded, "hits carry the producing run's provenance");
}

/// Tight answers must never serve a generous request: a 0 ms auto answer
/// lives under the anytime identity, so the same instance asked with no
/// deadline still runs (and proves) the real search.
#[test]
fn tight_answers_never_serve_generous_requests() {
    let instance = random_instance(8, 1.0, 41);
    let svc = SchedulingService::new(ServiceConfig::default());
    let tight = svc.handle_request(&auto_request(instance.clone(), Some(0)), 0);
    assert!(tight.ok);
    assert_ne!(tight.quality.as_deref(), Some(quality::OPTIMAL));
    let generous = svc.handle_request(&auto_request(instance, None), 1);
    assert!(!generous.cache_hit, "a tight heuristic answer must not alias the exact band");
    assert_eq!(generous.quality.as_deref(), Some(quality::OPTIMAL));
}

/// Warm start: a completed `wastar` result in the cache seeds a later
/// generous auto search on the same instance — counted in
/// `auto_warm_starts` — and the exact answer is never worse than the donor.
#[test]
fn cached_near_matches_warm_start_generous_auto_searches() {
    // Find an instance whose list bound is *not* already optimal, so the
    // wastar donor genuinely tightens the incumbent (and is counted).
    for seed in 50u64..70 {
        let instance = random_instance(10, 1.0, seed);
        let problem =
            SchedulingProblem::new(instance.graph.clone(), instance.network.clone());
        let svc = SchedulingService::new(ServiceConfig::default());
        let mut donor_req = Request::new(instance.clone());
        donor_req.algorithm = Some("wastar".to_string());
        let donor = svc.handle_request(&donor_req, 0);
        assert!(donor.ok);
        let donor_len = donor.schedule_length.unwrap();
        if donor_len >= problem.upper_bound() {
            continue; // the donor would not tighten anything; try another seed
        }

        let auto = svc.handle_request(&auto_request(instance, None), 1);
        assert!(auto.ok, "{:?}", auto.error);
        assert!(!auto.cache_hit, "the exact band has no entry yet");
        assert_eq!(auto.quality.as_deref(), Some(quality::OPTIMAL));
        assert!(auto.schedule_length.unwrap() <= donor_len, "warm start only ever tightens");
        assert!(
            svc.metrics_snapshot().auto_warm_starts >= 1,
            "the adopted donor is counted"
        );
        return;
    }
    panic!("no seed in 50..70 produced a donor below the list bound");
}
