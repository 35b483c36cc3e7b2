//! Configuration of the parallel search.

use optsched_core::{HeuristicKind, PruningConfig, SearchLimits};
use optsched_procnet::Topology;

use crate::closed::DuplicateDetection;

/// Parameters of a parallel A* / Aε* run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Number of physical processing elements (PPE threads) `q`.
    /// The paper evaluates q ∈ {2, 4, 8, 16}.
    pub num_ppes: usize,
    /// Virtual interconnection topology of the PPEs; communication and load
    /// sharing only happen between topological neighbours.  The default mesh
    /// mirrors the Intel Paragon.  `None` falls back to a fully connected
    /// PPE network.
    pub ppe_topology: Option<Topology>,
    /// Pruning techniques applied by every PPE (same semantics as the serial
    /// scheduler).
    pub pruning: PruningConfig,
    /// Admissible heuristic used by every PPE.
    pub heuristic: HeuristicKind,
    /// `None` runs the exact parallel A*; `Some(ε)` runs the parallel Aε*
    /// with the corresponding FOCAL bound (the paper uses 0.2 and 0.5).
    pub epsilon: Option<f64>,
    /// Smallest communication period (in expansions). The period starts at
    /// `v / 2` and is halved after every communication phase down to this
    /// floor (the paper uses 2).
    pub min_comm_period: u64,
    /// How duplicate states are detected across PPEs: the paper's per-PPE
    /// private CLOSED lists (`Local`), or one global lock-free sharded table
    /// (`ShardedGlobal`, the default) that drops a state at generation time
    /// when *any* PPE has already claimed its signature.
    pub duplicate_detection: DuplicateDetection,
    /// Number of shards of the global CLOSED table (rounded up to a power of
    /// two; ignored in `Local` mode).  Each shard keeps its own counters; the
    /// table's bucket budget is split across them, so the count changes how
    /// claims spread, not the memory; 16 is plenty for the thread counts the
    /// paper evaluates.
    pub num_shards: usize,
    /// Resource limits applied to the whole parallel run: expansions and
    /// generations are counted across all PPEs, and each PPE reads its clock
    /// on the serial search's cadence, from the moment it starts.
    pub limits: SearchLimits,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            num_ppes: 4,
            ppe_topology: None,
            pruning: PruningConfig::all(),
            heuristic: HeuristicKind::PaperStaticLevel,
            epsilon: None,
            min_comm_period: 2,
            duplicate_detection: DuplicateDetection::default(),
            num_shards: 16,
            limits: SearchLimits::unlimited(),
        }
    }
}

impl ParallelConfig {
    /// Convenience constructor for an exact run on `q` PPEs.
    pub fn exact(q: usize) -> ParallelConfig {
        ParallelConfig { num_ppes: q, ..Default::default() }
    }

    /// Convenience constructor for an approximate run on `q` PPEs with bound ε.
    pub fn approximate(q: usize, epsilon: f64) -> ParallelConfig {
        ParallelConfig { num_ppes: q, epsilon: Some(epsilon), ..Default::default() }
    }

    /// Returns this configuration with the given duplicate-detection mode.
    pub fn with_duplicate_detection(self, mode: DuplicateDetection) -> ParallelConfig {
        ParallelConfig { duplicate_detection: mode, ..self }
    }

    /// The undirected neighbour lists of the PPE network.
    ///
    /// A `Mesh` topology whose dimensions do not multiply to `num_ppes` is
    /// rejected at construction time by [`Topology::edges`]; the helper
    /// [`ParallelConfig::paragon_like`] picks a valid mesh automatically.
    pub fn ppe_neighbors(&self) -> Vec<Vec<usize>> {
        let q = self.num_ppes;
        let edges = match self.ppe_topology {
            Some(t) => t.edges(q),
            None => Topology::FullyConnected.edges(q),
        };
        let mut adj = vec![Vec::new(); q];
        for (a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }

    /// A configuration with a roughly square mesh of PPEs, like the Paragon
    /// partitions used in the paper.
    pub fn paragon_like(q: usize) -> ParallelConfig {
        let mut rows = (q as f64).sqrt().floor() as usize;
        while rows > 1 && q % rows != 0 {
            rows -= 1;
        }
        let topology = if rows <= 1 {
            Topology::Chain
        } else {
            Topology::Mesh { rows, cols: q / rows }
        };
        ParallelConfig { num_ppes: q, ppe_topology: Some(topology), ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_exact_fully_connected() {
        let c = ParallelConfig::default();
        assert_eq!(c.num_ppes, 4);
        assert!(c.epsilon.is_none());
        assert_eq!(c.duplicate_detection, DuplicateDetection::ShardedGlobal);
        assert_eq!(c.num_shards, 16);
        let adj = c.ppe_neighbors();
        assert_eq!(adj.len(), 4);
        assert_eq!(adj[0], vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_detection_mode_switch() {
        let local = ParallelConfig::exact(4).with_duplicate_detection(DuplicateDetection::Local);
        assert_eq!(local.duplicate_detection, DuplicateDetection::Local);
        // The rest of the configuration is untouched.
        assert_eq!(local.num_ppes, 4);
        assert_eq!(local.num_shards, ParallelConfig::default().num_shards);
    }

    #[test]
    fn paragon_like_builds_a_mesh_when_possible() {
        let c = ParallelConfig::paragon_like(16);
        assert_eq!(c.ppe_topology, Some(Topology::Mesh { rows: 4, cols: 4 }));
        let adj = c.ppe_neighbors();
        // Interior PPE of a 4x4 mesh has 4 neighbours.
        assert_eq!(adj[5].len(), 4);

        let c2 = ParallelConfig::paragon_like(8);
        assert_eq!(c2.ppe_topology, Some(Topology::Mesh { rows: 2, cols: 4 }));

        let prime = ParallelConfig::paragon_like(7);
        assert_eq!(prime.ppe_topology, Some(Topology::Chain));
        assert_eq!(prime.ppe_neighbors()[0], vec![1]);
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(ParallelConfig::exact(8).num_ppes, 8);
        assert_eq!(ParallelConfig::approximate(16, 0.5).epsilon, Some(0.5));
    }

    #[test]
    fn ring_topology_neighbours() {
        let c = ParallelConfig {
            num_ppes: 5,
            ppe_topology: Some(Topology::Ring),
            ..Default::default()
        };
        let adj = c.ppe_neighbors();
        assert_eq!(adj[0], vec![1, 4]);
        assert_eq!(adj[2], vec![1, 3]);
    }
}
