//! Parallel A* / Aε* DAG scheduling (Section 3.3 of Kwok & Ahmad, ICPP'98).
//!
//! The paper parallelises the A* scheduler over the *physical* processing
//! elements (PPEs) of an Intel Paragon: every PPE keeps its own OPEN and
//! CLOSED lists, PPEs are connected by a mesh and only communicate with their
//! topological neighbours, work is balanced with a round-robin load-sharing
//! scheme, and the communication period decreases exponentially
//! (T = v/2, v/4, …, down to 2 expansions) as the search converges.
//!
//! **Substitution note** (see `DESIGN.md`): the Paragon is replaced by a
//! thread-based PPE simulator.  Each PPE is an OS thread with private search
//! lists; the PPE interconnection topology is virtual (any
//! [`Topology`](optsched_procnet::Topology)); states travel between
//! neighbouring PPEs over `crossbeam` channels; the incumbent schedule,
//! per-PPE best costs and termination flag live behind shared atomics/locks.
//! The control flow — initial distribution cases 1–3, neighbour-only
//! communication, best-state election, round-robin sharing, exponentially
//! shrinking periods, goal broadcast — follows Section 3.3.
//!
//! **Beyond the paper**: on shared memory the private per-PPE CLOSED lists
//! are optional.  By default duplicate detection is *global*: a sharded,
//! lock-free CLOSED table ([`closed::ShardedClosedTable`]) shared by all
//! PPEs drops a state at generation time when any PPE has already claimed an
//! equal-or-better partial schedule, eliminating the redundant cross-PPE
//! expansions of the paper's design.  Select the paper's behaviour with
//! [`DuplicateDetection::Local`] (see [`ParallelConfig::duplicate_detection`]).
//!
//! Two further shared-memory departures (PR 4): each PPE stores its frontier
//! in an arena of parent-id + delta records
//! ([`StateArena`](optsched_core::engine::StateArena)), materialising full
//! states only on expansion and on send, so a worker's live full states are
//! its root, one scratch state and any adopted snapshot transfers; and
//! in sharded mode the best-state election *transfers claim ownership* of the
//! elected state to the neighbour with the worst frontier instead of sending
//! a copy that the receiver would immediately drop as a global duplicate
//! (counted in `SearchStats::election_transfers`).
//!
//! ```
//! use optsched_core::SchedulingProblem;
//! use optsched_parallel::{ParallelAStarScheduler, ParallelConfig};
//! use optsched_procnet::ProcNetwork;
//! use optsched_taskgraph::paper_example_dag;
//!
//! let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
//! let config = ParallelConfig { num_ppes: 2, ..Default::default() };
//! let result = ParallelAStarScheduler::new(&problem, config).run();
//! assert_eq!(result.schedule_length(), 14);
//! ```

#![warn(missing_docs)]

pub mod closed;
pub mod config;
pub mod result;
pub mod scheduler;

pub use closed::{ClaimOutcome, ClosedTableStats, DuplicateDetection, ShardedClosedTable};
pub use config::ParallelConfig;
pub use result::ParallelSearchResult;
pub use scheduler::ParallelAStarScheduler;
