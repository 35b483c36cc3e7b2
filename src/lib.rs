//! # optsched — optimal and near-optimal DAG scheduling by state-space search
//!
//! A Rust reproduction of Kwok & Ahmad, *"Optimal and Near-Optimal Allocation
//! of Precedence-Constrained Tasks to Parallel Processors: Defying the High
//! Complexity Using Effective Search Techniques"* (ICPP 1998).
//!
//! This crate is a thin facade that re-exports the workspace members and
//! hosts the [`registry`] — [`SchedulerSpec::run`](registry::SchedulerSpec::run),
//! the one dispatch by algorithm name that the CLI, the service, the
//! experiment binaries and the conformance suite call:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`taskgraph`] | `optsched-taskgraph` | weighted DAGs, levels, critical path |
//! | [`procnet`] | `optsched-procnet` | processor networks and topologies |
//! | [`schedule`] | `optsched-schedule` | schedules, validation, Gantt rendering |
//! | [`listsched`] | `optsched-listsched` | list-scheduling heuristics / upper bound |
//! | [`core`] | `optsched-core` | serial A*, Aε*, Chen & Yu branch-and-bound |
//! | [`parallel`] | `optsched-parallel` | parallel A*/Aε* over a PPE thread pool |
//! | [`workload`] | `optsched-workload` | random and structured workload generators |
//!
//! # Quick start
//!
//! ```
//! use optsched::prelude::*;
//!
//! // The example task graph and 3-processor ring of the paper (Figure 1).
//! let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
//!
//! // Serial optimal schedule (Figure 4: length 14).
//! let result = AStarScheduler::new(&problem).run();
//! assert_eq!(result.schedule_length, 14);
//!
//! // Parallel search on 2 PPE threads reaches the same optimum.
//! let parallel = ParallelAStarScheduler::new(&problem, ParallelConfig::exact(2)).run();
//! assert_eq!(parallel.schedule_length(), 14);
//! ```

#![warn(missing_docs)]

pub use optsched_core as core;
pub use optsched_listsched as listsched;
pub use optsched_parallel as parallel;
pub use optsched_procnet as procnet;
pub use optsched_schedule as schedule;
pub use optsched_taskgraph as taskgraph;
pub use optsched_workload as workload;

pub mod registry;

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::registry::{SchedulerSpec, SearchReport};
    pub use optsched_core::{
        exhaustive_optimal, AEpsScheduler, AStarScheduler, ArenaConfig, ChenYuScheduler,
        ExhaustiveScheduler, HeuristicKind, PruningConfig, SchedulingProblem, SearchConfig,
        SearchLimits, SearchOutcome, SearchResult, SearchStats, WAStarScheduler,
    };
    pub use optsched_listsched::{
        best_heuristic_schedule, list_schedule, upper_bound, upper_bound_schedule, ListConfig,
        ProcessorPolicy,
    };
    pub use optsched_parallel::{
        ClosedTableStats, DuplicateDetection, ParallelAStarScheduler, ParallelConfig,
        ParallelSearchResult, ShardedClosedTable,
    };
    pub use optsched_procnet::{CommModel, ProcId, ProcNetwork, Processor, Topology};
    pub use optsched_schedule::{render_gantt, Schedule, ScheduleError, ScheduledTask};
    pub use optsched_taskgraph::{
        paper_example_dag, Cost, GraphBuilder, GraphLevels, LevelKind, NodeId, TaskGraph,
    };
    pub use optsched_workload::{
        chain, diamond_lattice, fft_butterfly, fork_join, gaussian_elimination, in_tree,
        generate_random_dag, out_tree, paper_workload_suite, RandomDagConfig, PAPER_CCRS,
        PAPER_SIZES,
    };
}
