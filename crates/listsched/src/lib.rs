//! Polynomial-time list-scheduling heuristics.
//!
//! These serve two purposes in the reproduction:
//!
//! 1. **Upper bound for the optimal search.** Section 3.2 of the paper prunes
//!    any search state whose cost exceeds an upper bound `U` obtained from a
//!    linear-time heuristic (the FAST-style two-step procedure of reference
//!    \[14\]): build a task list in decreasing priority order, then schedule
//!    each task on the processor allowing the earliest start time.  This is
//!    [`upper_bound_schedule`] / [`upper_bound`].
//! 2. **Baselines.** The same machinery, parameterised by priority attribute
//!    (static level, b-level, t-level, b+t) and processor-selection policy
//!    (earliest start vs. earliest finish, append vs. insertion), provides the
//!    classic heuristics the paper's introduction positions the optimal
//!    algorithms against.
//!
//! All heuristics return a validated [`Schedule`] and run in
//! `O(v log v + (v + e) · p)`.

#![warn(missing_docs)]

use optsched_procnet::{ProcId, ProcNetwork};
use optsched_schedule::{
    earliest_start_time, earliest_start_time_insertion_with, Schedule, ScheduledTask,
};
use optsched_taskgraph::{Cost, GraphLevels, LevelKind, NodeId, TaskGraph};

/// How a processor is chosen for the task under consideration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorPolicy {
    /// Pick the processor on which the task can *start* earliest
    /// (the rule used by the paper's upper-bound heuristic).
    EarliestStart,
    /// Pick the processor on which the task *finishes* earliest
    /// (differs from `EarliestStart` only on heterogeneous systems).
    EarliestFinish,
}

/// Configuration of a list-scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListConfig {
    /// Node attribute used as the (static) priority; larger = scheduled earlier.
    pub priority: LevelKind,
    /// Processor selection rule.
    pub policy: ProcessorPolicy,
    /// If true, tasks may be inserted into idle slots; otherwise they are
    /// appended after the last task of the chosen processor.
    pub insertion: bool,
}

impl Default for ListConfig {
    fn default() -> Self {
        ListConfig {
            priority: LevelKind::BLevel,
            policy: ProcessorPolicy::EarliestStart,
            insertion: false,
        }
    }
}

/// Runs list scheduling with the given configuration and returns the schedule.
///
/// Tasks are consumed in decreasing priority among *ready* tasks (all
/// predecessors scheduled), which both reproduces the "schedule the list one
/// by one" behaviour for monotone priorities such as the b-level and stays
/// correct for non-monotone ones such as the t-level.
pub fn list_schedule(graph: &TaskGraph, net: &ProcNetwork, config: ListConfig) -> Schedule {
    let levels = GraphLevels::compute(graph);
    list_schedule_with_levels(graph, net, config, &levels)
}

/// Same as [`list_schedule`] but reuses precomputed levels.
pub fn list_schedule_with_levels(
    graph: &TaskGraph,
    net: &ProcNetwork,
    config: ListConfig,
    levels: &GraphLevels,
) -> Schedule {
    let v = graph.num_nodes();
    let mut schedule = Schedule::new(v, net.num_procs());
    let mut unscheduled_preds: Vec<usize> =
        graph.node_ids().map(|n| graph.in_degree(n)).collect();
    // Ready pool, re-sorted lazily: small graphs dominate our workloads, so a
    // simple Vec with linear extraction of the max-priority element is fast
    // and keeps tie-breaking (by node id) explicit and deterministic.
    let mut ready: Vec<NodeId> =
        graph.node_ids().filter(|&n| graph.in_degree(n) == 0).collect();
    // One task-list buffer reused across every insertion-EST probe below.
    let mut est_scratch: Vec<ScheduledTask> = Vec::new();

    for _ in 0..v {
        // Highest priority ready node; ties broken toward the smaller id.
        let (pos, &node) = ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                levels
                    .level(config.priority, a)
                    .cmp(&levels.level(config.priority, b))
                    .then(b.cmp(&a))
            })
            .expect("ready pool must not be empty while nodes remain");
        ready.swap_remove(pos);

        // Choose the processor.
        let mut best: Option<(Cost, Cost, ProcId)> = None; // (key, start, proc)
        for proc in net.proc_ids() {
            let start = if config.insertion {
                earliest_start_time_insertion_with(
                    graph,
                    net,
                    &schedule,
                    node,
                    proc,
                    &mut est_scratch,
                )
            } else {
                earliest_start_time(graph, net, &schedule, node, proc)
            };
            let finish = start + net.exec_time(graph.weight(node), proc);
            let key = match config.policy {
                ProcessorPolicy::EarliestStart => start,
                ProcessorPolicy::EarliestFinish => finish,
            };
            if best.map_or(true, |(bk, _, bp)| key < bk || (key == bk && proc < bp)) {
                best = Some((key, start, proc));
            }
        }
        let (_, start, proc) = best.expect("network has at least one processor");
        let finish = start + net.exec_time(graph.weight(node), proc);
        schedule.assign(node, proc, start, finish);

        for &(child, _) in graph.successors(node) {
            unscheduled_preds[child.index()] -= 1;
            if unscheduled_preds[child.index()] == 0 {
                ready.push(child);
            }
        }
    }
    schedule
}

/// The paper's linear-time upper-bound heuristic (Section 3.2, "Upper-Bound
/// Solution Cost"): decreasing-priority list + earliest-start-time processor,
/// append-only.
pub fn upper_bound_schedule(graph: &TaskGraph, net: &ProcNetwork) -> Schedule {
    list_schedule(graph, net, ListConfig::default())
}

/// Schedule length of [`upper_bound_schedule`]; every optimal schedule has a
/// makespan `<= upper_bound(graph, net)`.
pub fn upper_bound(graph: &TaskGraph, net: &ProcNetwork) -> Cost {
    upper_bound_schedule(graph, net).makespan()
}

/// Convenience: run every built-in heuristic configuration and return the
/// best (shortest) schedule found together with the name of the winner.
pub fn best_heuristic_schedule(graph: &TaskGraph, net: &ProcNetwork) -> (String, Schedule) {
    let configs = [
        ("blevel-est", ListConfig { priority: LevelKind::BLevel, policy: ProcessorPolicy::EarliestStart, insertion: false }),
        ("blevel-eft-ins", ListConfig { priority: LevelKind::BLevel, policy: ProcessorPolicy::EarliestFinish, insertion: true }),
        ("static-est", ListConfig { priority: LevelKind::StaticLevel, policy: ProcessorPolicy::EarliestStart, insertion: false }),
        ("bpt-eft-ins", ListConfig { priority: LevelKind::BPlusT, policy: ProcessorPolicy::EarliestFinish, insertion: true }),
    ];
    let mut best: Option<(String, Schedule)> = None;
    for (name, cfg) in configs {
        let s = list_schedule(graph, net, cfg);
        if best.as_ref().map_or(true, |(_, b)| s.makespan() < b.makespan()) {
            best = Some((name.to_string(), s));
        }
    }
    best.expect("at least one configuration")
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::{paper_example_dag, GraphBuilder};

    #[test]
    fn upper_bound_schedule_is_valid_on_example() {
        let g = paper_example_dag();
        let net = ProcNetwork::ring(3);
        let s = upper_bound_schedule(&g, &net);
        s.validate(&g, &net).unwrap();
        assert!(s.is_complete());
        // The optimal length is 14 (Figure 4); a heuristic can only be >= that
        // and never worse than fully serial execution.
        assert!(s.makespan() >= 14);
        assert!(s.makespan() <= g.total_computation() + g.total_communication());
    }

    #[test]
    fn upper_bound_value_matches_schedule() {
        let g = paper_example_dag();
        let net = ProcNetwork::ring(3);
        assert_eq!(upper_bound(&g, &net), upper_bound_schedule(&g, &net).makespan());
    }

    #[test]
    fn single_processor_gives_serial_makespan() {
        let g = paper_example_dag();
        let net = ProcNetwork::fully_connected(1);
        for insertion in [false, true] {
            let s = list_schedule(
                &g,
                &net,
                ListConfig { insertion, ..Default::default() },
            );
            s.validate(&g, &net).unwrap();
            assert_eq!(s.makespan(), g.total_computation());
        }
    }

    #[test]
    fn makespan_never_below_static_critical_path() {
        let g = paper_example_dag();
        for p in 1..=4 {
            let net = ProcNetwork::fully_connected(p);
            let s = upper_bound_schedule(&g, &net);
            s.validate(&g, &net).unwrap();
            assert!(s.makespan() >= g.schedule_length_lower_bound());
        }
    }

    #[test]
    fn all_configs_produce_valid_schedules() {
        let g = paper_example_dag();
        let net = ProcNetwork::mesh(2, 2);
        for priority in [LevelKind::BLevel, LevelKind::TLevel, LevelKind::StaticLevel, LevelKind::BPlusT] {
            for policy in [ProcessorPolicy::EarliestStart, ProcessorPolicy::EarliestFinish] {
                for insertion in [false, true] {
                    let s = list_schedule(&g, &net, ListConfig { priority, policy, insertion });
                    s.validate(&g, &net)
                        .unwrap_or_else(|e| panic!("{priority:?}/{policy:?}/{insertion}: {e}"));
                }
            }
        }
    }

    #[test]
    fn insertion_never_hurts_on_example() {
        let g = paper_example_dag();
        let net = ProcNetwork::ring(3);
        let append = list_schedule(&g, &net, ListConfig::default());
        let insert = list_schedule(&g, &net, ListConfig { insertion: true, ..Default::default() });
        assert!(insert.makespan() <= append.makespan());
    }

    #[test]
    fn heterogeneous_processors_prefer_fast_one() {
        // A single chain: a -> b; PE1 three times slower.
        let mut bd = GraphBuilder::new();
        let a = bd.add_node(4);
        let b = bd.add_node(4);
        bd.add_edge(a, b, 1).unwrap();
        let g = bd.build().unwrap();
        let net = ProcNetwork::fully_connected(2).with_cycle_times(&[1, 3]);
        let s = list_schedule(
            &g,
            &net,
            ListConfig { policy: ProcessorPolicy::EarliestFinish, ..Default::default() },
        );
        s.validate(&g, &net).unwrap();
        assert_eq!(s.proc_of(a), Some(ProcId(0)));
        assert_eq!(s.proc_of(b), Some(ProcId(0)));
        assert_eq!(s.makespan(), 8);
    }

    #[test]
    fn fork_join_uses_multiple_processors_when_comm_is_cheap() {
        // root -> 4 children -> sink, zero communication: parallelism wins.
        let mut bd = GraphBuilder::new();
        let root = bd.add_node(1);
        let sink_children: Vec<_> = (0..4).map(|_| bd.add_node(10)).collect();
        let sink = bd.add_node(1);
        for &c in &sink_children {
            bd.add_edge(root, c, 0).unwrap();
            bd.add_edge(c, sink, 0).unwrap();
        }
        let g = bd.build().unwrap();
        let net = ProcNetwork::fully_connected(4);
        let s = upper_bound_schedule(&g, &net);
        s.validate(&g, &net).unwrap();
        assert_eq!(s.makespan(), 12); // 1 + 10 + 1
        assert_eq!(s.procs_used(), 4);
    }

    #[test]
    fn high_communication_keeps_chain_on_one_processor() {
        // a -> b with enormous comm cost: b must follow a on the same PE.
        let mut bd = GraphBuilder::new();
        let a = bd.add_node(2);
        let b = bd.add_node(2);
        bd.add_edge(a, b, 1000).unwrap();
        let g = bd.build().unwrap();
        let net = ProcNetwork::fully_connected(4);
        let s = upper_bound_schedule(&g, &net);
        assert_eq!(s.proc_of(a), s.proc_of(b));
        assert_eq!(s.makespan(), 4);
    }

    #[test]
    fn best_heuristic_reports_minimum() {
        let g = paper_example_dag();
        let net = ProcNetwork::ring(3);
        let (name, best) = best_heuristic_schedule(&g, &net);
        assert!(!name.is_empty());
        best.validate(&g, &net).unwrap();
        assert!(best.makespan() <= upper_bound(&g, &net));
    }

    #[test]
    fn random_graphs_all_heuristics_valid() {
        use optsched_workload::{RandomDagConfig, generate_random_dag};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for nodes in [10usize, 16, 24] {
            for ccr in [0.1, 1.0, 10.0] {
                let cfg = RandomDagConfig { nodes, ccr, ..Default::default() };
                let g = generate_random_dag(&cfg, &mut rng);
                let net = ProcNetwork::fully_connected(4);
                let s = upper_bound_schedule(&g, &net);
                s.validate(&g, &net)
                    .unwrap_or_else(|e| panic!("v={nodes} ccr={ccr}: {e}"));
            }
        }
    }
}
