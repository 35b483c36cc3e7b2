//! The benchmark's problem instances.
//!
//! The solver workloads draw from fixed pools of paper-style random graphs
//! (Section 4.1 of the paper: mean computation cost 40, `v/10` children per
//! node, CCR ∈ {0.1, 1, 10}), each named by its generator parameters.  A
//! run's `--seed` relabels every graph's nodes with a fresh random
//! permutation: the inputs differ from seed to seed, while each instance's
//! difficulty and optimal makespan stay put.  A difficulty that moved with
//! the seed would swamp the run-to-run spread of an exponential search (one
//! unlucky draw of a v = 12 graph can take minutes), so the pools were
//! chosen once by solving candidates, and their optima are pinned below.

use optsched_procnet::ProcNetwork;
use optsched_taskgraph::{Cost, GraphBuilder, NodeId, TaskGraph};
use optsched_workload::{generate_random_dag, RandomDagConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Processors of every solver instance: four, fully connected.
pub const PROCS: usize = 4;

/// One graph of a fixed pool: generator parameters plus the pinned optimum.
#[derive(Debug, Clone, Copy)]
pub struct PoolEntry {
    /// Node count `v`.
    pub nodes: usize,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Seed of the generator's RNG stream.
    pub graph_seed: u64,
    /// The optimal makespan on [`PROCS`] fully connected processors, or
    /// `None` where no search finishes (the budgeted frontier graphs).
    pub optimal: Option<Cost>,
}

const fn exact(nodes: usize, ccr: f64, graph_seed: u64, optimal: Cost) -> PoolEntry {
    PoolEntry {
        nodes,
        ccr,
        graph_seed,
        optimal: Some(optimal),
    }
}

/// `exact_solve` (and, for v ≥ 11, `parallel_exact`): v ∈ {10, 11, 12} ×
/// CCR ∈ {0.1, 1, 10}, each solved to proven optimality in well under a
/// second.  Only one v = 12, CCR = 10 graph is kept: seeded Chen & Yu takes
/// seconds on the others.
pub const EXACT_POOL: &[PoolEntry] = &[
    exact(10, 0.1, 15, 166),
    exact(10, 0.1, 18, 238),
    exact(10, 1.0, 15, 188),
    exact(10, 1.0, 18, 242),
    exact(10, 10.0, 9, 192),
    exact(10, 10.0, 25, 313),
    exact(11, 0.1, 13, 314),
    exact(11, 0.1, 16, 324),
    exact(11, 1.0, 13, 324),
    exact(11, 1.0, 18, 302),
    exact(11, 10.0, 15, 392),
    exact(11, 10.0, 1, 199),
    exact(12, 0.1, 13, 291),
    exact(12, 0.1, 15, 250),
    exact(12, 1.0, 12, 179),
    exact(12, 1.0, 15, 275),
    exact(12, 10.0, 13, 337),
];

/// `budget_frontier`: graphs no exact search finishes in minutes.  The
/// first is the v = 12, CCR = 1, seed 2 graph the ROADMAP measures
/// (`optsched generate --nodes 12 --ccr 1.0 --seed 2`).
pub const FRONTIER_POOL: &[PoolEntry] = &[
    PoolEntry {
        nodes: 12,
        ccr: 1.0,
        graph_seed: 2,
        optimal: None,
    },
    PoolEntry {
        nodes: 12,
        ccr: 0.1,
        graph_seed: 3,
        optimal: None,
    },
];

/// A generated, relabelled problem instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Short name: `v12-ccr1-s2`.
    pub name: String,
    /// The relabelled graph.
    pub graph: TaskGraph,
    /// The processors.
    pub network: ProcNetwork,
    /// The entry the graph came from.
    pub entry: PoolEntry,
}

/// The graph `optsched generate --nodes v --ccr c --seed s` writes.
pub fn paper_graph(nodes: usize, ccr: f64, graph_seed: u64) -> TaskGraph {
    generate_random_dag(
        &RandomDagConfig {
            nodes,
            ccr,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(graph_seed),
    )
}

/// `graph` with its nodes renumbered by a uniformly random permutation
/// (Fisher–Yates over `rng`); weights and edges move with their nodes.
pub fn relabel(graph: &TaskGraph, rng: &mut impl Rng) -> TaskGraph {
    let v = graph.num_nodes();
    let mut new_id: Vec<usize> = (0..v).collect();
    for i in (1..v).rev() {
        new_id.swap(i, rng.gen_range(0..=i));
    }
    let mut old_of = vec![0; v];
    for (old, &new) in new_id.iter().enumerate() {
        old_of[new] = old;
    }
    let mut b = GraphBuilder::with_capacity(v);
    let ids: Vec<NodeId> = old_of
        .iter()
        .map(|&old| b.add_node(graph.weight(NodeId(old as u32))))
        .collect();
    for e in graph.edges() {
        b.add_edge(
            ids[new_id[e.src.index()]],
            ids[new_id[e.dst.index()]],
            e.weight,
        )
        .expect("a relabelled DAG keeps distinct endpoints");
    }
    b.build().expect("relabelling preserves acyclicity")
}

/// The instances of `pool`, relabelled for `seed`.
pub fn instances(pool: &[PoolEntry], seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    pool.iter()
        .map(|&entry| {
            let graph = relabel(
                &paper_graph(entry.nodes, entry.ccr, entry.graph_seed),
                &mut rng,
            );
            Instance {
                name: format!("v{}-ccr{}-s{}", entry.nodes, entry.ccr, entry.graph_seed),
                graph,
                network: ProcNetwork::fully_connected(PROCS),
                entry,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_permutes_nodes_and_keeps_the_graph() {
        let g = paper_graph(12, 1.0, 2);
        let r = relabel(&g, &mut StdRng::seed_from_u64(5));
        assert_ne!(g, r, "a 12-node permutation should move something");
        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.total_computation(), g.total_computation());
        assert_eq!(r.total_communication(), g.total_communication());
        assert_eq!(r.critical_path_length(), g.critical_path_length());
    }

    #[test]
    fn the_same_seed_gives_the_same_instances() {
        let a = instances(EXACT_POOL, 3);
        let b = instances(EXACT_POOL, 3);
        let c = instances(EXACT_POOL, 4);
        assert!(a.iter().zip(&b).all(|(x, y)| x.graph == y.graph));
        assert!(a.iter().zip(&c).any(|(x, y)| x.graph != y.graph));
    }
}
