//! Property-based tests (proptest) of the core invariants, run over randomly
//! generated DAGs, processor networks and cost distributions.

use optsched::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small random DAG described by (nodes, ccr-index, seed).
/// Sizes stay small enough that even the un-pruned exact search (which the
/// optimality property exercises) finishes quickly in debug builds.
fn dag_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (4usize..=8, 0usize..3, any::<u64>())
}

fn make_dag(nodes: usize, ccr_idx: usize, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_random_dag(
        &RandomDagConfig { nodes, ccr: PAPER_CCRS[ccr_idx], ..Default::default() },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Level attributes: every parent has a strictly larger b-level than each
    /// of its children, t-levels are non-decreasing along edges, the static
    /// level never exceeds the b-level, and the critical path length is the
    /// maximum b-level of an entry node.
    #[test]
    fn level_invariants((nodes, ccr_idx, seed) in dag_params()) {
        let g = make_dag(nodes, ccr_idx, seed);
        let levels = GraphLevels::compute(&g);
        for e in g.edges() {
            prop_assert!(levels.b_level(e.src) > levels.b_level(e.dst));
            prop_assert!(levels.t_level(e.src) < levels.t_level(e.dst));
        }
        for n in g.node_ids() {
            prop_assert!(levels.static_level(n) <= levels.b_level(n));
            prop_assert!(levels.b_level(n) + levels.alap(n) == levels.critical_path_length());
        }
        let cp_from_entries =
            g.entry_nodes().iter().map(|&n| levels.b_level(n)).max().unwrap();
        prop_assert_eq!(cp_from_entries, levels.critical_path_length());
    }

    /// Every list-scheduling configuration produces a feasible schedule whose
    /// length lies between the computation-only critical path and the fully
    /// serial execution plus all communication.
    #[test]
    fn heuristic_schedules_are_feasible((nodes, ccr_idx, seed) in dag_params(), procs in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let s = upper_bound_schedule(&g, &net);
        prop_assert!(s.validate(&g, &net).is_ok());
        prop_assert!(s.makespan() >= g.schedule_length_lower_bound());
        prop_assert!(s.makespan() <= g.total_computation() + g.total_communication());
    }

    /// The A* search returns a feasible schedule that is optimal: no longer
    /// than the list heuristic, no shorter than the static critical path, and
    /// identical in length for every pruning configuration.
    #[test]
    fn astar_optimality_invariants((nodes, ccr_idx, seed) in dag_params(), procs in 2usize..=3) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(procs));
        let pruned = AStarScheduler::new(&problem).run();
        prop_assert!(pruned.is_optimal());
        prop_assert!(pruned.expect_schedule().validate(&g, problem.network()).is_ok());
        prop_assert!(pruned.schedule_length <= problem.upper_bound());
        prop_assert!(pruned.schedule_length >= problem.lower_bound());

        let unpruned = AStarScheduler::new(&problem).with_pruning(PruningConfig::none()).run();
        prop_assert_eq!(unpruned.schedule_length, pruned.schedule_length);

        let tight = AStarScheduler::new(&problem)
            .with_heuristic(HeuristicKind::TightStaticLevel)
            .run();
        prop_assert_eq!(tight.schedule_length, pruned.schedule_length);
    }

    /// Aε* never returns a schedule shorter than optimal or longer than
    /// (1+ε) times optimal.
    #[test]
    fn aeps_bound_holds((nodes, ccr_idx, seed) in dag_params(), eps_pct in 0u32..=60) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let eps = f64::from(eps_pct) / 100.0;
        let optimal = AStarScheduler::new(&problem).run().schedule_length;
        let approx = AEpsScheduler::new(&problem, eps).run().schedule_length;
        prop_assert!(approx >= optimal);
        prop_assert!((approx as f64) <= (optimal as f64) * (1.0 + eps) + 1e-9);
    }

    /// The parallel scheduler is exact for any PPE count, topology choice and
    /// duplicate-detection mode.
    #[test]
    fn parallel_astar_is_exact((nodes, ccr_idx, seed) in dag_params(), q in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::ring(3));
        let serial = AStarScheduler::new(&problem).run().schedule_length;
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig::exact(q).with_duplicate_detection(mode);
            let parallel = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert_eq!(parallel.schedule_length(), serial, "mode={}", mode);
            prop_assert!(parallel.schedule.validate(&g, problem.network()).is_ok());
        }
    }

    /// Under random load-share + election schedules (random instances,
    /// random PPE counts, eager communication so transfers actually fly, plus
    /// whatever thread interleaving this run happens to produce), a parallel
    /// run returns a valid schedule with serial A*'s optimal makespan, in
    /// both duplicate-detection modes — while its per-PPE stores hold only
    /// roots, scratch states and adopted snapshots.
    #[test]
    fn parallel_arena_store_matches_serial_optimum_under_eager_communication(
        (nodes, ccr_idx, seed) in (4usize..=7, 0usize..3, any::<u64>()),
        q in 2usize..=4,
        comm_period in 1u64..=2,
    ) {
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(3));
        let optimum = AStarScheduler::new(&problem).run().schedule_length;
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig {
                num_ppes: q,
                min_comm_period: comm_period,
                ..Default::default()
            }
            .with_duplicate_detection(mode);
            let r = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert!(r.is_optimal(), "mode={}", mode);
            prop_assert_eq!(r.schedule_length(), optimum, "mode={}", mode);
            prop_assert!(r.schedule.validate(&g, problem.network()).is_ok());
            // The per-PPE stores hold roots, scratch states and adopted
            // snapshot transfers — always a subset of the live records; the
            // airtight headline `peak_live_states()` additionally folds in
            // the in-flight transfer peak.
            prop_assert!(
                r.total_stats().peak_live_states
                    <= r.total_stats().peak_live_records
                        + q as u64, // one scratch state per PPE is not a record
                "mode={}: arena held {} live full states over {} records",
                mode,
                r.total_stats().peak_live_states,
                r.total_stats().peak_live_records
            );
            prop_assert_eq!(
                r.peak_live_states(),
                r.total_stats().peak_live_states + r.peak_in_flight,
                "mode={}", mode
            );
        }
    }

    /// Arena lifecycle bookkeeping under random generate / materialise /
    /// release / ship schedules: the refcount books stay balanced at every
    /// step (every allocated record is either live or reclaimed — nothing
    /// leaks, nothing is double-freed), and releasing every outstanding
    /// handle drains the arena back to exactly its pinned root, no matter
    /// the order the handles die in.
    #[test]
    fn arena_refcount_books_stay_balanced(
        (nodes, ccr_idx, seed) in dag_params(),
        op_seed in any::<u64>(),
    ) {
        use optsched::core::engine::StateArena;
        use optsched::core::SearchState;
        use rand::Rng;
        let g = make_dag(nodes, ccr_idx, seed);
        let problem = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = StateArena::new(&problem, ArenaConfig);
        let mut handles = vec![arena.insert_root(SearchState::initial(&problem))];
        let mut allocs: u64 = 1;

        let mut op_rng = StdRng::seed_from_u64(op_seed);
        for _ in 0..80 {
            let op = op_rng.next_u32();
            prop_assert_eq!(
                arena.live_records() as u64 + arena.reclaimed_records(),
                allocs,
                "books out of balance mid-run"
            );
            if handles.is_empty() {
                break;
            }
            let pick = (op as usize / 4) % handles.len();
            match op % 4 {
                // Expand: store a child of a random held state (two op codes,
                // so trees grow often enough to exercise deep cascades).
                0 | 1 => {
                    let parent = arena.materialise(handles[pick]).clone();
                    let ready = parent.ready_nodes(&problem);
                    if !ready.is_empty() {
                        let n = ready[(op as usize / 8) % ready.len()];
                        let p = ProcId((op / 16) % problem.num_procs() as u32);
                        let d = parent.peek_child(&problem, n, p, h);
                        handles.push(arena.insert_child(handles[pick], &d));
                        allocs += 1;
                    }
                }
                // Prune: drop the handle (reclamation may cascade).
                2 => arena.release(handles.swap_remove(pick)),
                // Ship: materialise a snapshot, release the local copy, adopt
                // it back — a loop-back transfer through the wire form, one
                // record per ship.  (Depth-0 states are never shipped.)
                _ => {
                    let id = handles[pick];
                    if arena.materialise(id).depth() > 0 {
                        let wire = arena.materialise_owned(id);
                        handles.swap_remove(pick);
                        arena.release(id);
                        handles.push(arena.adopt_snapshot(wire));
                        allocs += 1;
                    }
                }
            }
        }

        for id in handles.drain(..) {
            arena.release(id);
        }
        prop_assert_eq!(arena.live_records(), 1, "only the pinned root survives the drain");
        prop_assert_eq!(arena.live_records() as u64 + arena.reclaimed_records(), allocs);
    }

    /// Adding a processor never makes the optimal schedule longer.
    #[test]
    fn more_processors_never_hurt((nodes, ccr_idx, seed) in dag_params()) {
        let g = make_dag(nodes, ccr_idx, seed);
        let mut previous = Cost::MAX;
        for p in 1..=3 {
            let problem = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(p));
            let len = AStarScheduler::new(&problem).run().schedule_length;
            prop_assert!(len <= previous, "p={} gave {} > {}", p, len, previous);
            previous = len;
        }
    }

    /// Scaling every node and edge weight by a constant scales the optimal
    /// schedule length by exactly the same constant.
    #[test]
    fn optimal_length_scales_linearly((nodes, ccr_idx, seed) in dag_params(), factor in 2u64..=5) {
        let g = make_dag(nodes, ccr_idx, seed);
        let mut scaled = GraphBuilder::with_capacity(g.num_nodes());
        for n in g.node_ids() {
            scaled.add_node(g.weight(n) * factor);
        }
        for e in g.edges() {
            scaled.add_edge(e.src, e.dst, e.weight * factor).unwrap();
        }
        let scaled = scaled.build().unwrap();

        let p1 = SchedulingProblem::new(g, ProcNetwork::fully_connected(2));
        let p2 = SchedulingProblem::new(scaled, ProcNetwork::fully_connected(2));
        let len1 = AStarScheduler::new(&p1).run().schedule_length;
        let len2 = AStarScheduler::new(&p2).run().schedule_length;
        prop_assert_eq!(len1 * factor, len2);
    }

    /// Every schedule returned by any scheduler in the workspace is *valid*:
    /// complete, precedence and communication delays respected, no two tasks
    /// overlapping on a processor (all enforced by `Schedule::validate`), and
    /// the reported makespan equal to the maximum finish time over the tasks.
    /// The bounded schedulers additionally respect their guarantees:
    /// exact ones return the optimum, Aε* stays within (1+ε)·optimum, and the
    /// list heuristic is never better than the optimum.
    #[test]
    fn every_scheduler_returns_a_valid_schedule(
        (nodes, ccr_idx, seed) in dag_params(),
        procs in 2usize..=3,
        eps_pct in 0u32..=50,
    ) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let problem = SchedulingProblem::new(g.clone(), net.clone());
        let eps = f64::from(eps_pct) / 100.0;

        let astar = AStarScheduler::new(&problem).run();
        prop_assert!(astar.is_optimal());
        let optimum = astar.schedule_length;

        let aeps = AEpsScheduler::new(&problem, eps).run();
        let aeps_bound = ((optimum as f64) * (1.0 + eps)).floor() as Cost;
        prop_assert!(aeps.schedule_length >= optimum);
        prop_assert!(
            aeps.schedule_length <= aeps_bound,
            "Aε*({}) returned {} > bound {}", eps, aeps.schedule_length, aeps_bound
        );

        let mut schedules: Vec<(String, Schedule)> = vec![
            ("list".into(), upper_bound_schedule(&g, &net)),
            ("astar".into(), astar.expect_schedule().clone()),
            ("aeps".into(), aeps.expect_schedule().clone()),
            ("chenyu".into(), ChenYuScheduler::new(&problem).run().expect_schedule().clone()),
        ];
        for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
            let cfg = ParallelConfig::exact(2).with_duplicate_detection(mode);
            let r = ParallelAStarScheduler::new(&problem, cfg).run();
            prop_assert_eq!(r.schedule_length(), optimum, "parallel mode={}", mode);
            schedules.push((format!("parallel-{mode}"), r.schedule));
        }

        for (name, s) in &schedules {
            prop_assert!(s.is_complete(), "{}: incomplete schedule", name);
            // Precedence + communication delays + per-processor exclusivity.
            if let Err(e) = s.validate(&g, &net) {
                panic!("{name}: invalid schedule: {e}");
            }
            // The reported makespan is exactly the latest finish time.
            let max_finish = s.tasks().map(|t| t.finish).max().unwrap_or(0);
            prop_assert_eq!(s.makespan(), max_finish, "{}", name);
            // No schedule beats the optimum; the exact ones attain it.
            prop_assert!(s.makespan() >= optimum, "{}: beats the optimum", name);
        }
        prop_assert_eq!(schedules[1].1.makespan(), optimum);
        prop_assert_eq!(schedules[3].1.makespan(), optimum, "chenyu");
    }

    /// The random workload generator respects its contract: node count, at
    /// least one edge, weights within the uniform-distribution bounds.
    #[test]
    fn workload_generator_contract(nodes in 2usize..=40, ccr_idx in 0usize..3, seed in any::<u64>()) {
        let g = make_dag(nodes, ccr_idx, seed);
        prop_assert_eq!(g.num_nodes(), nodes);
        prop_assert!(g.num_edges() >= 1);
        for n in g.node_ids() {
            prop_assert!((1..=79).contains(&g.weight(n)));
        }
        // Acyclicity is guaranteed by construction: a topological order exists.
        prop_assert!(optsched::taskgraph::TopoOrder::compute(&g).is_some());
    }

    /// The service wire format round-trips: an `Instance` (task graph +
    /// processor network in the validated wire formats) survives JSON
    /// serialisation bit-for-bit, with an unchanged canonical signature —
    /// the service's cache interning must not depend on which side of the
    /// wire an instance came from.
    #[test]
    fn instance_json_round_trips(
        (nodes, ccr_idx, seed) in dag_params(),
        procs in 1usize..=4,
        topo in 0usize..3,
    ) {
        use optsched_service::{canonical_signature, Instance};
        let g = make_dag(nodes, ccr_idx, seed);
        let net = match topo {
            0 => ProcNetwork::fully_connected(procs),
            1 => ProcNetwork::ring(procs.max(2)),
            _ => ProcNetwork::star(procs.max(2)),
        };
        let inst = Instance::new(g, net);
        let json = serde_json::to_string(&inst).expect("instances serialise");
        let back: Instance = serde_json::from_str(&json).expect("instances parse back");
        prop_assert_eq!(&back, &inst);
        prop_assert_eq!(canonical_signature(&back), canonical_signature(&inst));
        // Pretty-printing (different whitespace, same content) parses to the
        // same instance too.
        let pretty: Instance =
            serde_json::from_str(&serde_json::to_string_pretty(&inst).expect("pretty"))
                .expect("pretty parses");
        prop_assert_eq!(&pretty, &inst);
    }

    /// `Schedule` JSON round-trips for real schedules of every shape the
    /// service can produce (here: the list heuristic over random instances).
    #[test]
    fn schedule_json_round_trips((nodes, ccr_idx, seed) in dag_params(), procs in 1usize..=4) {
        let g = make_dag(nodes, ccr_idx, seed);
        let net = ProcNetwork::fully_connected(procs);
        let s = upper_bound_schedule(&g, &net);
        let json = serde_json::to_string(&s).expect("schedules serialise");
        let back: Schedule = serde_json::from_str(&json).expect("schedules parse back");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.makespan(), s.makespan());
        prop_assert!(back.validate(&g, &net).is_ok());
    }
}

/// The service answers malformed requests with a *structured error* —
/// `ok == false`, an error message, the fallback id — instead of dying,
/// for every flavour of malformed: not JSON at all, JSON of the wrong
/// shape, a request whose instance violates graph invariants, and an
/// unknown algorithm on a well-formed instance.
#[test]
fn service_answers_malformed_requests_with_structured_errors() {
    use optsched_service::{SchedulingService, ServiceConfig};

    let svc = SchedulingService::new(ServiceConfig::default());
    let cyclic_instance = r#"{"instance": {"graph": {"nodes": [{"weight": 1, "label": null},
        {"weight": 1, "label": null}], "edges": [{"src": 0, "dst": 1, "weight": 1},
        {"src": 1, "dst": 0, "weight": 1}]},
        "network": {"procs": [{"cycle_time": 1, "label": null}], "links": []}}}"#;
    for (line, needle) in [
        ("this is not json", "malformed"),
        ("{\"id\": 3}", "instance"),
        ("[1, 2, 3]", "malformed"),
        (cyclic_instance, "cycle"),
    ] {
        let resp = svc.handle_line(line, 77);
        assert!(!resp.ok, "{line}");
        assert_eq!(resp.id, 77);
        let err = resp.error.expect("structured error message");
        assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        assert!(resp.schedule.is_none());
    }

    // A well-formed instance with an unknown algorithm is also an error
    // response, not a death.
    let mut req = optsched_service::Request::new(optsched_service::Instance::new(
        paper_example_dag(),
        ProcNetwork::ring(3),
    ));
    req.algorithm = Some("quantum".to_string());
    let resp = svc.handle_request(&req, 5);
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("unknown algorithm"));

    // And the service still works afterwards.
    req.algorithm = Some("astar".to_string());
    let resp = svc.handle_request(&req, 6);
    assert!(resp.ok);
    assert_eq!(resp.schedule_length, Some(14));
}

// ---------------------------------------------------------------------------
// Service result-cache properties: the LRU + max_age cache against a
// reference model.
// ---------------------------------------------------------------------------

/// A shared single-shard cache setup for the cache properties: one canonical
/// instance, entries distinguished by their algorithm string (distinct cache
/// keys in one shard without building many instances).
fn cache_fixture() -> (u64, optsched_service::CanonicalInstance, optsched_service::CachedResult) {
    use optsched_service::{canonical_signature, CachedResult, CanonicalInstance, Instance};
    let inst = Instance::new(paper_example_dag(), ProcNetwork::ring(3));
    let result = CachedResult {
        schedule: Schedule::new(1, 1),
        schedule_length: 14,
        quality: "optimal".to_string(),
        algorithm: "astar".to_string(),
        expanded: 0,
        peak_live_records: 0,
    };
    (canonical_signature(&inst), CanonicalInstance::of(&inst), result)
}

/// Deterministic op stream: (is_lookup, key index) pairs from a SplitMix64
/// walk, so every proptest case replays exactly.
fn cache_ops(seed: u64, n: usize) -> Vec<(bool, usize)> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..n).map(|_| ((next() % 2) == 0, (next() % 6) as usize)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The LRU cache against a reference model: for any op sequence the
    /// shard never exceeds its capacity, lookups hit exactly when the model
    /// says the key is live, the evicted key is always the least-recently
    /// *used* one, and the hit/miss/eviction counters balance exactly.
    #[test]
    fn cache_lru_matches_a_reference_model(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::collections::HashMap;

        let (sig, canon, result) = cache_fixture();
        let cache = ResultCache::bounded(1, capacity); // one shard: capacity == shard capacity
        // The model mirrors the shard: key -> recency stamp, one clock tick
        // per operation (the cache's shard clock advances on every lookup
        // *and* insert), evict the minimum stamp on overflow.
        let mut model: HashMap<usize, u64> = HashMap::new();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut lookups = 0u64;

        for (clock, (is_lookup, k)) in cache_ops(seed, 48).into_iter().enumerate() {
            let alg = format!("alg{k}");
            let stamp = clock as u64;
            if is_lookup {
                lookups += 1;
                let got = cache.lookup(sig, &canon, &alg, 0).is_some();
                let expected = model.contains_key(&k);
                prop_assert_eq!(got, expected, "lookup of key {} disagrees with the model", k);
                if expected {
                    model.insert(k, stamp); // a hit refreshes recency
                    hits += 1;
                } else {
                    misses += 1;
                }
            } else {
                cache.insert(sig, &canon, &alg, 0, result.clone());
                model.insert(k, stamp); // re-insert refreshes in place
                if model.len() > capacity {
                    let victim = *model.iter().min_by_key(|(_, s)| **s).unwrap().0;
                    model.remove(&victim);
                    evictions += 1;
                }
            }
            prop_assert!(
                cache.stats().entries <= capacity,
                "the shard exceeded its capacity"
            );
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.entries, model.len(), "live entries match the model");
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.evictions, evictions);
        prop_assert_eq!(stats.expired, 0, "no TTL, no expiry");
        prop_assert_eq!(stats.hits + stats.misses, lookups, "counters balance");
    }

    /// `max_age = ZERO` makes every entry stale by its first lookup: for any
    /// op sequence not a single lookup is served, stale entries are expired
    /// (never LRU-evicted), and the shard still respects its capacity.
    #[test]
    fn cache_expired_entries_are_never_served(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::time::Duration;

        let (sig, canon, result) = cache_fixture();
        let cache = ResultCache::with_max_age(1, capacity, Some(Duration::ZERO));
        let mut lookups = 0u64;
        for (is_lookup, k) in cache_ops(seed, 48) {
            let alg = format!("alg{k}");
            if is_lookup {
                lookups += 1;
                prop_assert!(
                    cache.lookup(sig, &canon, &alg, 0).is_none(),
                    "an expired entry was served"
                );
            } else {
                cache.insert(sig, &canon, &alg, 0, result.clone());
            }
            prop_assert!(cache.stats().entries <= capacity);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, 0, "nothing stale is ever a hit");
        prop_assert_eq!(stats.misses, lookups);
        prop_assert_eq!(stats.evictions, 0, "stale entries expire instead of evicting");
        prop_assert!(stats.entries <= capacity);
    }

    /// The lock-free CLOSED table against a sequential min-g model under
    /// real 4-thread interleavings: for any op stream the table ends with
    /// every distinct signature present, its stored `g` equal to the minimum
    /// ever submitted for it — probed via the claim protocol itself, which
    /// must answer `Duplicate`, never `Claimed`, at that minimum — and with
    /// order-independent counter totals (`entries == misses ==` distinct
    /// signatures; hits + reopens account for every remaining claim).
    #[test]
    fn closed_table_matches_a_min_g_model_under_concurrency(
        seed in any::<u64>(),
        shards in 1usize..=4,
    ) {
        use optsched::core::SearchState;
        use optsched::parallel::{ClaimOutcome, ShardedClosedTable};
        use std::collections::HashMap;

        // Key universe: distinct real signatures (the paper DAG's initial
        // state with one extra assignment each).
        let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let base = SearchState::initial(&problem).signature();
        let keys: Vec<_> = (0..12u32)
            .map(|i| base.with_assignment(NodeId(i % 6), ProcId(i / 6), Cost::from(i) * 3))
            .collect();

        // Deterministic op stream (key index, g); thread t executes ops
        // i ≡ t (mod 4), so all four threads race on the shared key set.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let ops: Vec<(usize, Cost)> =
            (0..160).map(|_| ((next() % 12) as usize, (next() % 8) + 1)).collect();

        let mut min_g: HashMap<usize, Cost> = HashMap::new();
        for &(k, g) in &ops {
            min_g.entry(k).and_modify(|m| *m = (*m).min(g)).or_insert(g);
        }

        let table = ShardedClosedTable::new(shards);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (table, ops, keys) = (&table, &ops, &keys);
                scope.spawn(move || {
                    for (i, &(k, g)) in ops.iter().enumerate() {
                        if i % 4 == t {
                            table.try_claim(keys[k].clone(), g, t);
                        }
                    }
                });
            }
        });

        // Order-independent counter totals, checked before the probe
        // claims below disturb them.
        let stats = table.stats();
        let entries: u64 = stats.per_shard.iter().map(|s| s.entries as u64).sum();
        let hits: u64 = stats.per_shard.iter().map(|s| s.hits).sum();
        let misses: u64 = stats.per_shard.iter().map(|s| s.misses).sum();
        let reopens: u64 = stats.per_shard.iter().map(|s| s.reopens).sum();
        prop_assert_eq!(table.len(), min_g.len(), "one entry per distinct signature");
        prop_assert_eq!(entries, min_g.len() as u64);
        prop_assert_eq!(misses, entries, "every entry began as a miss");
        prop_assert_eq!(hits + misses + reopens, ops.len() as u64, "every claim accounted");

        // Final contents: each signature present, its stored g no worse
        // than the best ever submitted (a claim at that minimum must
        // resolve as a duplicate, never win).
        for (&k, &mg) in &min_g {
            prop_assert!(table.contains(&keys[k]), "key {} missing", k);
            let outcome = table.try_claim(keys[k].clone(), mg, 7);
            prop_assert!(
                matches!(
                    outcome,
                    ClaimOutcome::DuplicateSameOwner | ClaimOutcome::DuplicateOtherOwner
                ),
                "stored g for key {} is worse than the submitted minimum {}",
                k, mg
            );
        }
    }

    /// A generous `max_age` is behaviourally identical to no TTL: the same
    /// op sequence produces the same lookup outcomes and the same counters.
    #[test]
    fn cache_long_max_age_behaves_like_no_ttl(capacity in 1usize..=4, seed in any::<u64>()) {
        use optsched_service::ResultCache;
        use std::time::Duration;

        let (sig, canon, result) = cache_fixture();
        let plain = ResultCache::bounded(1, capacity);
        let aged = ResultCache::with_max_age(1, capacity, Some(Duration::from_secs(3600)));
        for (is_lookup, k) in cache_ops(seed, 48) {
            let alg = format!("alg{k}");
            if is_lookup {
                prop_assert_eq!(
                    plain.lookup(sig, &canon, &alg, 0).is_some(),
                    aged.lookup(sig, &canon, &alg, 0).is_some(),
                    "a long TTL changed a lookup outcome"
                );
            } else {
                plain.insert(sig, &canon, &alg, 0, result.clone());
                aged.insert(sig, &canon, &alg, 0, result.clone());
            }
        }
        let (p, a) = (plain.stats(), aged.stats());
        prop_assert_eq!(p.entries, a.entries);
        prop_assert_eq!(p.hits, a.hits);
        prop_assert_eq!(p.misses, a.misses);
        prop_assert_eq!(p.evictions, a.evictions);
        prop_assert_eq!(a.expired, 0);
    }
}

/// A random key over the paper example's six nodes: one to three
/// assignments on processors 0–2, starts below 200, which is the short
/// form.  With `wide`, about half the keys take an assignment past the
/// short range (a start from 2^12 up to 2^62, or a processor from 15 up),
/// which is the wide form.
fn random_seen_key(
    base: &optsched::core::state::StateSignature,
    rng: &mut StdRng,
    wide: bool,
) -> optsched::core::state::StateSignature {
    use rand::Rng;
    let mut key = base.clone();
    let mut nodes: Vec<u32> = (0..6).collect();
    for _ in 0..rng.gen_range(1..=3usize) {
        let node = nodes.swap_remove(rng.gen_range(0..nodes.len()));
        let (mut proc, mut start) = (rng.gen_range(0..3u32), rng.gen_range(0..200u64));
        if wide && rng.gen_bool(0.25) {
            if rng.gen_bool(0.5) {
                start += 1 << rng.gen_range(12..=62u32);
            } else {
                proc += rng.gen_range(15..=300u32);
            }
        }
        key = key.with_assignment(NodeId(node), ProcId(proc), start);
    }
    key
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The flat seen-set against a `HashSet<StateSignature>` model: random
    /// admit and remove sequences give the same return values, `len()` and
    /// duplicate counter.  A sequence admits a few thousand distinct keys,
    /// enough to grow every index part several times, and its second half
    /// mixes in wide keys.  Each sequence runs on the paper's
    /// six-node example and again on a 20-node problem, whose short keys
    /// are too long to be held inline.
    #[test]
    fn signature_set_matches_a_hash_set_model(seed in any::<u64>()) {
        use optsched::core::engine::{DuplicateFilter, SignatureSet};
        use optsched::core::SearchState;
        use rand::Rng;
        use std::collections::HashSet;

        const OPS: usize = 6000;
        let mut twenty = GraphBuilder::new();
        for _ in 0..20 {
            twenty.add_node(1);
        }
        for graph in [paper_example_dag(), twenty.build().unwrap()] {
            let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
            let base = SearchState::initial(&problem).signature();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = SignatureSet::new();
            let mut model = HashSet::new();
            let mut stats = SearchStats::default();
            let mut model_duplicates = 0u64;
            let mut drawn = Vec::new();
            let mut peak = 0;
            for i in 0..OPS {
                let roll = rng.gen_range(0..10u32);
                if roll < 2 && !drawn.is_empty() {
                    let key = &drawn[rng.gen_range(0..drawn.len())];
                    prop_assert_eq!(set.remove(key), model.remove(key), "remove at op {}", i);
                } else {
                    let key = if roll < 4 && !drawn.is_empty() {
                        drawn[rng.gen_range(0..drawn.len())].clone()
                    } else {
                        let key = random_seen_key(&base, &mut rng, i >= OPS / 2);
                        drawn.push(key.clone());
                        key
                    };
                    let fresh = model.insert(key.clone());
                    model_duplicates += u64::from(!fresh);
                    prop_assert_eq!(set.admit(key, 0, &mut stats), fresh, "admit at op {}", i);
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(stats.duplicates, model_duplicates);
                peak = peak.max(set.len());
            }
            prop_assert!(drawn[..OPS / 4].iter().all(|k| !k.is_wide()));
            prop_assert!(drawn.iter().filter(|k| k.is_wide()).count() > 200);
            prop_assert!(peak > 2500, "the set peaked at {} keys", peak);
        }
    }
}

/// The order a frontier policy pops in, as an O(n) scan model.
#[derive(Debug, Clone, Copy)]
enum PopRule {
    /// Smallest `(value, h, seq)`: A\* and weighted A\*.
    ValueH,
    /// Smallest `(value, seq)`: branch-and-bound.
    Value,
    /// Aε\*: the live minimum by `(h, f, seq)` if its `f` is within
    /// `focal_threshold(ε, fmin)`, else the minimum by `(f, seq)`.
    Focal(f64),
}

/// A frontier as a plain list, popped by scanning it under `rule`.
struct ScanModel {
    rule: PopRule,
    live: Vec<optsched::core::engine::OpenEntry>,
    /// Aε\* only: entries taken through FOCAL that the policy's `f` ordering
    /// still holds.  It drops them lazily, once they sort before its live
    /// minimum, and counts them in `open_len` until then.
    stale: Vec<optsched::core::engine::OpenEntry>,
}

impl ScanModel {
    fn new(rule: PopRule) -> ScanModel {
        ScanModel { rule, live: Vec::new(), stale: Vec::new() }
    }

    fn pop(&mut self) -> Option<optsched::core::engine::OpenEntry> {
        use optsched::core::engine::{focal_threshold, OpenEntry};
        let min_by = |live: &[OpenEntry], key: fn(&OpenEntry) -> (Cost, Cost, u64)| {
            (0..live.len()).min_by_key(|&i| key(&live[i]))
        };
        let at = match self.rule {
            PopRule::ValueH => min_by(&self.live, |e| (e.value, e.h, e.seq))?,
            PopRule::Value => min_by(&self.live, |e| (e.value, 0, e.seq))?,
            PopRule::Focal(eps) => {
                let Some(by_f) = min_by(&self.live, |e| (e.f, 0, e.seq)) else {
                    self.stale.clear();
                    return None;
                };
                let front = (self.live[by_f].f, self.live[by_f].seq);
                self.stale.retain(|e| (e.f, e.seq) > front);
                let by_h = min_by(&self.live, |e| (e.h, e.f, e.seq)).unwrap();
                if self.live[by_h].f <= focal_threshold(eps, self.live[by_f].f) {
                    self.stale.push(self.live[by_h]);
                    by_h
                } else {
                    by_f
                }
            }
        };
        Some(self.live.swap_remove(at))
    }

    fn len(&self) -> usize {
        self.live.len() + self.stale.len()
    }
}

/// A random cost: from `0..6` (many ties) or, with `wide`, about three
/// times in four from the whole `u64` range, from just above 2^53 or from
/// just below `u64::MAX`.
fn random_cost(rng: &mut StdRng, wide: bool) -> Cost {
    use rand::Rng;
    match if wide { rng.gen_range(0..4u32) } else { 0 } {
        1 => rng.next_u64(),
        2 => (1 << 53) + rng.gen_range(0..4u64),
        3 => u64::MAX - rng.gen_range(0..4u64),
        _ => rng.gen_range(0..6u64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every bucket-queue frontier policy against a scan model of its rule:
    /// random pushes with pops interleaved, then a full drain, give the same
    /// pop sequence and the same `open_len` after every operation, and each
    /// popped entry equals the pushed one field for field.  Pushes carry
    /// increasing `seq`, as the engine's do; ids of popped entries are
    /// reused, as the arena reuses reclaimed ids.  Entries pushed to A\* and
    /// Aε\* have `value = f`, what their `evaluate` returns.
    #[test]
    fn frontier_policies_match_a_scan_model(seed in any::<u64>()) {
        use optsched::core::engine::{
            AStarPolicy, BoundPolicy, FocalPolicy, FrontierPolicy, OpenEntry, WeightedAStarPolicy,
        };
        use optsched::core::{ChildDelta, SearchState};
        use rand::Rng;

        const OPS: usize = 1500;
        let mut rng = StdRng::seed_from_u64(seed);
        for wide in [false, true] {
            let no_bound =
                |_: &SchedulingProblem, _: &SearchState, _: &ChildDelta, _: &mut SearchStats| 0;
            let policies: Vec<(&str, Box<dyn FrontierPolicy>, PopRule, bool)> = vec![
                ("A*", Box::new(AStarPolicy::new(true)), PopRule::ValueH, true),
                ("wA*", Box::new(WeightedAStarPolicy::new(2.0, true)), PopRule::ValueH, false),
                ("bound", Box::new(BoundPolicy::new(no_bound)), PopRule::Value, false),
                ("Aε*(0)", Box::new(FocalPolicy::new(0.0, true)), PopRule::Focal(0.0), true),
                ("Aε*(0.3)", Box::new(FocalPolicy::new(0.3, true)), PopRule::Focal(0.3), true),
            ];
            for (name, mut policy, rule, value_is_f) in policies {
                let mut model = ScanModel::new(rule);
                let (mut closed, mut fresh, mut pops) = (Vec::new(), 0u32, 0usize);
                for (op, seq) in (0..OPS).zip(1u64..) {
                    let popped = if rng.gen_range(0..5u32) < 3 {
                        let id = if !closed.is_empty() && rng.gen_bool(0.3) {
                            closed.swap_remove(rng.gen_range(0..closed.len()))
                        } else {
                            fresh += 1;
                            fresh
                        };
                        let (f, h) = (random_cost(&mut rng, wide), random_cost(&mut rng, wide));
                        let value = if value_is_f { f } else { random_cost(&mut rng, wide) };
                        let entry = OpenEntry { id, f, h, value, seq };
                        policy.push(entry);
                        model.live.push(entry);
                        None
                    } else {
                        let (got, want) = (policy.pop(), model.pop());
                        prop_assert_eq!(got, want, "{} wide={}: pop at op {}", name, wide, op);
                        pops += usize::from(got.is_some());
                        got
                    };
                    closed.extend(popped.map(|e| e.id));
                    let (len, want_len) = (policy.open_len(), model.len());
                    prop_assert_eq!(len, want_len, "{} wide={}: open_len at op {}", name, wide, op);
                }
                loop {
                    let (got, want) = (policy.pop(), model.pop());
                    prop_assert_eq!(got, want, "{} wide={}: drain", name, wide);
                    prop_assert_eq!(policy.open_len(), model.len(), "{} wide={}", name, wide);
                    if got.is_none() {
                        break;
                    }
                    pops += 1;
                }
                prop_assert!(pops > OPS / 2, "{}: {} pops", name, pops);
            }
        }
    }
}
