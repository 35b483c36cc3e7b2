//! Search-state representation and the expansion operator (Section 3.1).
//!
//! A state is a *partial schedule*: a subset of the DAG's nodes assigned to
//! processors with concrete start/finish times.  The initial state is the
//! empty schedule, the expansion operator assigns one ready node to one
//! processor (appending after the processor's last task), and a goal state is
//! a complete schedule.

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use optsched_procnet::ProcId;
use optsched_schedule::Schedule;
use optsched_taskgraph::{Cost, NodeId};

use crate::bitset::BitSet;
use crate::config::{HeuristicKind, PruningConfig};
use crate::problem::SchedulingProblem;
use crate::stats::SearchStats;

/// Marker for "not assigned to any processor yet".
const UNASSIGNED: u16 = u16::MAX;

/// Exact identity of a partial schedule, used for duplicate detection.
///
/// Two states with the same signature assign the same nodes to the same
/// processors with the same start times, hence have identical `g`, `h` and
/// future expansions; only one needs to be kept.
///
/// This type owns the key format and its hash.  A key holds one entry per
/// node, `(processor + 1, start)`, in one of two forms (all-zero marks an
/// unscheduled node):
///
/// * **short**, while every scheduled node fits: one `u16` per node,
///   processor + 1 in the top 4 bits and the start in the low 12, for
///   processors below 15 and starts below 4096: 24 B at v = 12, held inline
///   (no allocation) up to 16 nodes;
/// * **wide** otherwise: two `u64` per node, exact for every processor and
///   start time.
///
/// The form follows from the assignments alone, never from an option, so
/// equal partial schedules always have equal forms and equal words.
///
/// The hash is the wrapping sum, over the scheduled nodes, of a keyed mix of
/// `(node, processor, start)`: an additive Zobrist hash (Zobrist 1970).
/// [`StateSignature::with_assignment`] updates it in O(1), and it does not
/// depend on the form.  It is computed once per key; [`Hash`] writes it as a
/// single word, and the duplicate-detection tables read it through
/// [`StateSignature::key_hash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSignature {
    hash: u64,
    words: KeyWords,
}

/// The packed words of a [`StateSignature`] (see its documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum KeyWords {
    Short(ShortWords),
    Wide(Box<[[u64; 2]]>),
}

/// Short keys of up to this many nodes live inside the signature.
const INLINE_NODES: usize = 16;

/// The short form's words: inline up to [`INLINE_NODES`] nodes, else boxed.
/// Which one depends only on the node count, so keys of one problem always
/// agree, and the unused inline tail stays zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShortWords {
    Inline { len: u8, words: [u16; INLINE_NODES] },
    Boxed(Box<[u16]>),
}

impl ShortWords {
    fn zeroed(num_nodes: usize) -> ShortWords {
        match u8::try_from(num_nodes) {
            Ok(len) if num_nodes <= INLINE_NODES => {
                ShortWords::Inline { len, words: [0; INLINE_NODES] }
            }
            _ => ShortWords::Boxed(vec![0; num_nodes].into_boxed_slice()),
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u16] {
        match self {
            ShortWords::Inline { len, words } => &words[..usize::from(*len)],
            ShortWords::Boxed(words) => words,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u16] {
        match self {
            ShortWords::Inline { len, words } => &mut words[..usize::from(*len)],
            ShortWords::Boxed(words) => words,
        }
    }
}

/// Bits of a short entry that hold the start; the 4 above hold processor + 1.
const SHORT_START_BITS: u32 = 12;

/// Packs processor + 1 (0 for an unscheduled node) and the start into a
/// short entry, if they fit.
#[inline]
fn pack_short(tagged_proc: u64, start: Cost) -> Option<u16> {
    (tagged_proc < 1 << (u16::BITS - SHORT_START_BITS) && start < 1 << SHORT_START_BITS)
        .then_some(((tagged_proc << SHORT_START_BITS) | start) as u16)
}

/// Re-encodes short entries in the wide form.
fn widen(words: &[u16]) -> Box<[[u64; 2]]> {
    words
        .iter()
        .map(|&w| [u64::from(w >> SHORT_START_BITS), u64::from(w & ((1 << SHORT_START_BITS) - 1))])
        .collect()
}

impl std::hash::Hash for StateSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// splitmix64's finalizer: a bijection with full avalanche.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A random key drawn once per process.  Start times follow from the weights
/// of an instance that may come from outside the program, so the key hash is
/// keyed, like std's `RandomState`: nobody can craft states that pile onto
/// one index slot.  Nothing the search does depends on hash values.
fn process_hash_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// One scheduled node's term of the additive key hash.
#[inline]
fn assignment_hash(node: usize, proc: u32, start: Cost) -> u64 {
    let placement = ((node as u64) << 32) | u64::from(proc);
    mix64(mix64(placement ^ process_hash_key()) ^ start)
}

impl StateSignature {
    /// The key of the empty partial schedule over `num_nodes` nodes.
    fn empty(num_nodes: usize) -> StateSignature {
        StateSignature { hash: 0, words: KeyWords::Short(ShortWords::zeroed(num_nodes)) }
    }

    /// Schedules the unscheduled `node` on `proc` at `start`, moving the key
    /// to the wide form if the assignment does not fit the short one.
    fn assign(&mut self, node: usize, proc: u32, start: Cost) {
        debug_assert!(!self.is_assigned(node), "node already scheduled in the parent");
        self.hash = self.hash.wrapping_add(assignment_hash(node, proc, start));
        let tagged = u64::from(proc) + 1;
        match &mut self.words {
            KeyWords::Short(words) => match pack_short(tagged, start) {
                Some(word) => words.as_mut_slice()[node] = word,
                None => {
                    let mut wide = widen(words.as_slice());
                    wide[node] = [tagged, start];
                    self.words = KeyWords::Wide(wide);
                }
            },
            KeyWords::Wide(words) => words[node] = [tagged, start],
        }
    }

    fn is_assigned(&self, node: usize) -> bool {
        match &self.words {
            KeyWords::Short(words) => words.as_slice()[node] != 0,
            KeyWords::Wide(words) => words[node][0] != 0,
        }
    }

    /// The signature of the child obtained from this (parent) signature by
    /// additionally scheduling `node` on `proc` at `start`.
    ///
    /// Equivalent to materialising the child and calling
    /// [`SearchState::signature`], at the cost of one copy of the words (no
    /// allocation for a short key of up to 16 nodes); the hash is updated in
    /// O(1).
    pub fn with_assignment(&self, node: NodeId, proc: ProcId, start: Cost) -> StateSignature {
        let mut child = self.clone();
        child.assign(node.index(), proc.0, start);
        child
    }

    /// The key's 64-bit hash, computed once when the key was built.
    #[inline]
    pub fn key_hash(&self) -> u64 {
        self.hash
    }

    /// The packed words, for the seen-set's row store.
    #[inline]
    pub(crate) fn words(&self) -> &KeyWords {
        &self.words
    }

    /// True when the key is in the wide form (two `u64` per node).
    pub fn is_wide(&self) -> bool {
        matches!(self.words, KeyWords::Wide(_))
    }
}

/// The delta record of one expansion step: everything that distinguishes a
/// child state from its parent, in a fixed-size value.
///
/// Produced by [`SearchState::peek_child`] *without* materialising the child,
/// so the search engine can evaluate, bound-prune and duplicate-check a
/// generated state before paying for a single allocation.  Applying the delta
/// to the parent with [`SearchState::apply_delta`] reproduces exactly the
/// state [`SearchState::schedule_node`] would have built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildDelta {
    /// The ready node being scheduled.
    pub node: NodeId,
    /// The processor it is assigned to.
    pub proc: ProcId,
    /// Its start time (earliest start on `proc`).
    pub start: Cost,
    /// Its finish time.
    pub finish: Cost,
    /// The child's partial schedule length `g`.
    pub g: Cost,
    /// The child's heuristic estimate `h`.
    pub h: Cost,
}

impl ChildDelta {
    /// `f = g + h` of the child this delta describes.
    #[inline]
    pub fn f(&self) -> Cost {
        self.g + self.h
    }
}

/// A partial schedule together with its cost `f = g + h`.
#[derive(Debug, Clone)]
pub struct SearchState {
    scheduled: BitSet,
    /// Processor of each node (`UNASSIGNED` when unscheduled).
    proc_of: Box<[u16]>,
    /// Start time of each scheduled node.
    start: Box<[Cost]>,
    /// Finish time of each scheduled node.
    finish: Box<[Cost]>,
    /// Ready time of each processor (finish of its last task).
    proc_ready: Box<[Cost]>,
    /// Number of unscheduled predecessors of each node.
    missing_preds: Box<[u16]>,
    /// Number of scheduled nodes.
    num_scheduled: u16,
    /// Node with the largest finish time (`n_max` in the paper), if any.
    max_finish_node: Option<NodeId>,
    /// Partial schedule length `g(s)`.
    g: Cost,
    /// Heuristic estimate `h(s)` of the remaining schedule length.
    h: Cost,
}

impl SearchState {
    /// The initial (empty) state with `f = 0`.
    pub fn initial(problem: &SchedulingProblem) -> SearchState {
        let v = problem.num_nodes();
        let p = problem.num_procs();
        let graph = problem.graph();
        let missing: Vec<u16> =
            graph.node_ids().map(|n| graph.in_degree(n) as u16).collect();
        SearchState {
            scheduled: BitSet::new(v),
            proc_of: vec![UNASSIGNED; v].into_boxed_slice(),
            start: vec![0; v].into_boxed_slice(),
            finish: vec![0; v].into_boxed_slice(),
            proc_ready: vec![0; p].into_boxed_slice(),
            missing_preds: missing.into_boxed_slice(),
            num_scheduled: 0,
            max_finish_node: None,
            g: 0,
            h: 0,
        }
    }

    /// `g(s)`: the length of the partial schedule (max finish time).
    #[inline]
    pub fn g(&self) -> Cost {
        self.g
    }

    /// `h(s)`: the admissible estimate of the remaining schedule length.
    #[inline]
    pub fn h(&self) -> Cost {
        self.h
    }

    /// `f(s) = g(s) + h(s)`.
    #[inline]
    pub fn f(&self) -> Cost {
        self.g + self.h
    }

    /// Number of nodes scheduled so far.
    #[inline]
    pub fn depth(&self) -> u16 {
        self.num_scheduled
    }

    /// True when every node is scheduled (goal state).
    pub fn is_goal(&self, problem: &SchedulingProblem) -> bool {
        self.num_scheduled as usize == problem.num_nodes()
    }

    /// The node with the largest finish time, if any node is scheduled.
    pub fn max_finish_node(&self) -> Option<NodeId> {
        self.max_finish_node
    }

    /// True if `n` is scheduled in this state.
    #[inline]
    pub fn is_scheduled(&self, n: NodeId) -> bool {
        self.scheduled.contains(n.index())
    }

    /// Processor of `n`, if scheduled.
    pub fn proc_of(&self, n: NodeId) -> Option<ProcId> {
        let p = self.proc_of[n.index()];
        (p != UNASSIGNED).then(|| ProcId(u32::from(p)))
    }

    /// Finish time of `n`, if scheduled.
    pub fn finish_time(&self, n: NodeId) -> Option<Cost> {
        self.is_scheduled(n).then(|| self.finish[n.index()])
    }

    /// Ready time `RT_i` of processor `p` (Definition 1).
    #[inline]
    pub fn proc_ready_time(&self, p: ProcId) -> Cost {
        self.proc_ready[p.index()]
    }

    /// True if no task has been placed on `p` yet.
    pub fn proc_is_empty(&self, p: ProcId) -> bool {
        let pi = p.index() as u16;
        !self.proc_of.contains(&pi)
    }

    /// The ready nodes: unscheduled nodes whose predecessors are all scheduled.
    pub fn ready_nodes(&self, problem: &SchedulingProblem) -> Vec<NodeId> {
        problem
            .graph()
            .node_ids()
            .filter(|&n| !self.is_scheduled(n) && self.missing_preds[n.index()] == 0)
            .collect()
    }

    /// Earliest start time of ready node `n` on processor `p` (append-only),
    /// honouring the processor ready time and the arrival of every parent
    /// message.
    pub fn earliest_start(&self, problem: &SchedulingProblem, n: NodeId, p: ProcId) -> Cost {
        let net = problem.network();
        let mut est = self.proc_ready[p.index()];
        for &(parent, comm) in problem.graph().predecessors(n) {
            debug_assert!(self.is_scheduled(parent), "expanding a non-ready node");
            let parent_proc = ProcId(u32::from(self.proc_of[parent.index()]));
            let arrival = self.finish[parent.index()] + net.comm_cost(comm, parent_proc, p);
            est = est.max(arrival);
        }
        est
    }

    /// Creates the successor state obtained by scheduling ready node `n` on
    /// processor `p` at its earliest start time.
    pub fn schedule_node(
        &self,
        problem: &SchedulingProblem,
        n: NodeId,
        p: ProcId,
        heuristic: HeuristicKind,
    ) -> SearchState {
        let delta = self.peek_child(problem, n, p, heuristic);
        self.apply_delta(problem, &delta)
    }

    /// Evaluates the expansion "schedule ready node `n` on processor `p`"
    /// *without materialising the child state*: the returned [`ChildDelta`]
    /// carries the child's placement, `g` and `h`, computed directly against
    /// this (parent) state.
    ///
    /// This is the allocation-free half of the expansion operator; pass the
    /// delta to [`SearchState::apply_delta`] to build the full child, which is
    /// only necessary for states that survive pruning and duplicate detection
    /// and are actually selected for expansion.
    pub fn peek_child(
        &self,
        problem: &SchedulingProblem,
        n: NodeId,
        p: ProcId,
        heuristic: HeuristicKind,
    ) -> ChildDelta {
        let est = self.earliest_start(problem, n, p);
        let dur = problem.network().exec_time(problem.graph().weight(n), p);
        let finish = est + dur;
        let (g, max_finish_node) =
            if finish >= self.g { (finish, Some(n)) } else { (self.g, self.max_finish_node) };
        let h = self.peek_h(problem, heuristic, n, finish, g, max_finish_node);
        ChildDelta { node: n, proc: p, start: est, finish, g, h }
    }

    /// Evaluates the heuristic of the child obtained by scheduling `n` (with
    /// finish time `n_finish`), against this parent state.  `g` and
    /// `max_finish_node` are the child's values.
    fn peek_h(
        &self,
        problem: &SchedulingProblem,
        heuristic: HeuristicKind,
        n: NodeId,
        n_finish: Cost,
        g: Cost,
        max_finish_node: Option<NodeId>,
    ) -> Cost {
        let graph = problem.graph();
        let levels = problem.levels();
        // Scheduled-set and finish times of the *child*: the parent's, plus `n`.
        let scheduled = |m: NodeId| m == n || self.is_scheduled(m);
        let finish_of = |m: NodeId| if m == n { n_finish } else { self.finish[m.index()] };
        match heuristic {
            HeuristicKind::Zero => 0,
            HeuristicKind::PaperStaticLevel => {
                let Some(nmax) = max_finish_node else { return 0 };
                graph
                    .successors(nmax)
                    .iter()
                    .filter(|&&(c, _)| !scheduled(c))
                    .map(|&(c, _)| levels.static_level(c))
                    .max()
                    .unwrap_or(0)
            }
            HeuristicKind::TightStaticLevel => {
                let mut bound = g;
                for m in graph.node_ids().filter(|&m| scheduled(m)) {
                    let tail = graph
                        .successors(m)
                        .iter()
                        .filter(|&&(c, _)| !scheduled(c))
                        .map(|&(c, _)| levels.static_level(c))
                        .max()
                        .unwrap_or(0);
                    bound = bound.max(finish_of(m) + tail);
                }
                // Unscheduled entry-like nodes (all of whose predecessors are
                // unscheduled too) still need at least their static level.
                for m in graph.node_ids().filter(|&m| !scheduled(m)) {
                    if graph.predecessors(m).iter().all(|&(q, _)| !scheduled(q)) {
                        bound = bound.max(levels.static_level(m));
                    }
                }
                bound - g
            }
        }
    }

    /// Materialises the child described by `delta`: clones this state and
    /// applies the delta in place.
    pub fn apply_delta(&self, problem: &SchedulingProblem, delta: &ChildDelta) -> SearchState {
        let mut next = self.clone();
        next.apply_delta_in_place(problem, delta);
        next
    }

    /// Applies `delta` to this state in place (the replay step of the
    /// delta-backed state arena).  `self` must be the delta's parent state.
    pub fn apply_delta_in_place(&mut self, problem: &SchedulingProblem, delta: &ChildDelta) {
        let n = delta.node;
        let p = delta.proc;
        debug_assert!(!self.is_scheduled(n), "delta re-schedules an already scheduled node");
        self.scheduled.insert(n.index());
        self.proc_of[n.index()] = p.index() as u16;
        self.start[n.index()] = delta.start;
        self.finish[n.index()] = delta.finish;
        self.proc_ready[p.index()] = delta.finish;
        self.num_scheduled += 1;
        for &(child, _) in problem.graph().successors(n) {
            self.missing_preds[child.index()] -= 1;
        }
        if delta.finish >= self.g {
            self.max_finish_node = Some(n);
        }
        self.g = delta.g;
        self.h = delta.h;
    }

    /// Overwrites this state with the contents of `other` without allocating
    /// (all slices keep their boxes; both states must belong to the same
    /// problem instance, i.e. have identical slice lengths).
    pub fn copy_from(&mut self, other: &SearchState) {
        self.scheduled.copy_from(&other.scheduled);
        self.proc_of.copy_from_slice(&other.proc_of);
        self.start.copy_from_slice(&other.start);
        self.finish.copy_from_slice(&other.finish);
        self.proc_ready.copy_from_slice(&other.proc_ready);
        self.missing_preds.copy_from_slice(&other.missing_preds);
        self.num_scheduled = other.num_scheduled;
        self.max_finish_node = other.max_finish_node;
        self.g = other.g;
        self.h = other.h;
    }

    /// The exact signature of this partial schedule (for duplicate detection).
    pub fn signature(&self) -> StateSignature {
        let mut sig = StateSignature::empty(self.proc_of.len());
        for i in (0..self.proc_of.len()).filter(|&i| self.scheduled.contains(i)) {
            sig.assign(i, u32::from(self.proc_of[i]), self.start[i]);
        }
        sig
    }

    /// Enumerates the `(ready node, processor)` pairs the expansion operator
    /// should try, applying the node-equivalence, processor-isomorphism and
    /// priority-ordering rules according to `config`.
    pub fn expansion_candidates(
        &self,
        problem: &SchedulingProblem,
        config: &PruningConfig,
        stats: &mut SearchStats,
    ) -> Vec<(NodeId, ProcId)> {
        let mut ready = self.ready_nodes(problem);
        if config.priority_ordering {
            ready.sort_by_key(|&n| (Reverse(problem.priority(n)), n));
        }

        // Node equivalence: among ready nodes of the same equivalence class,
        // keep only the smallest id (Definition 3 guarantees the discarded
        // orderings lead to schedules of identical length).
        if config.node_equivalence {
            let mut kept: Vec<NodeId> = Vec::with_capacity(ready.len());
            for &n in &ready {
                let rep = problem.equivalence_representative(n);
                let duplicate = kept.iter().any(|&m| problem.equivalence_representative(m) == rep);
                if duplicate {
                    stats.pruned_node_equivalence += 1;
                } else {
                    kept.push(n);
                }
            }
            ready = kept;
        }

        // Processor isomorphism: among *empty*, mutually interchangeable
        // processors keep only the smallest id (Definition 2).
        let mut procs: Vec<ProcId> = Vec::with_capacity(problem.num_procs());
        if config.processor_isomorphism {
            let mut kept_empty_reps: Vec<ProcId> = Vec::new();
            for p in problem.network().proc_ids() {
                if self.proc_is_empty(p) && self.proc_ready[p.index()] == 0 {
                    let rep = problem.interchange_representative(p);
                    if kept_empty_reps.contains(&rep) {
                        stats.pruned_processor_isomorphism += 1;
                        continue;
                    }
                    kept_empty_reps.push(rep);
                }
                procs.push(p);
            }
        } else {
            procs.extend(problem.network().proc_ids());
        }

        let mut out = Vec::with_capacity(ready.len() * procs.len());
        for &n in &ready {
            for &p in &procs {
                out.push((n, p));
            }
        }
        out
    }

    /// Converts a goal state (or any partial state) into a [`Schedule`].
    pub fn to_schedule(&self, problem: &SchedulingProblem) -> Schedule {
        let mut s = Schedule::new(problem.num_nodes(), problem.num_procs());
        for n in problem.graph().node_ids() {
            if self.is_scheduled(n) {
                s.assign(
                    n,
                    ProcId(u32::from(self.proc_of[n.index()])),
                    self.start[n.index()],
                    self.finish[n.index()],
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn initial_state_matches_paper() {
        let prob = example_problem();
        let s = SearchState::initial(&prob);
        assert_eq!(s.f(), 0, "the paper sets f(initial) = 0");
        assert_eq!(s.depth(), 0);
        assert!(!s.is_goal(&prob));
        assert_eq!(s.ready_nodes(&prob), vec![NodeId(0)]);
        assert!(s.proc_is_empty(ProcId(0)));
    }

    /// The root expansion of Figure 3: scheduling n1 to PE0 gives f = 2 + 10.
    #[test]
    fn fig3_root_state_cost() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let s1 = s0.schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::PaperStaticLevel);
        assert_eq!(s1.g(), 2);
        assert_eq!(s1.h(), 10);
        assert_eq!(s1.f(), 12);
        assert_eq!(s1.max_finish_node(), Some(NodeId(0)));
        assert_eq!(s1.proc_of(NodeId(0)), Some(ProcId(0)));
        assert_eq!(s1.finish_time(NodeId(0)), Some(2));
    }

    /// Level-2 states of Figure 3: n2→PE0 f=5+7, n2→PE1 f=6+7,
    /// n4→PE0 f=6+2, n4→PE1 f=8+2.
    #[test]
    fn fig3_second_level_costs() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);

        let n2_pe0 = s1.schedule_node(&prob, NodeId(1), ProcId(0), h);
        assert_eq!((n2_pe0.g(), n2_pe0.h()), (5, 7));

        let n2_pe1 = s1.schedule_node(&prob, NodeId(1), ProcId(1), h);
        assert_eq!((n2_pe1.g(), n2_pe1.h()), (6, 7));

        let n4_pe0 = s1.schedule_node(&prob, NodeId(3), ProcId(0), h);
        assert_eq!((n4_pe0.g(), n4_pe0.h()), (6, 2));

        let n4_pe1 = s1.schedule_node(&prob, NodeId(3), ProcId(1), h);
        assert_eq!((n4_pe1.g(), n4_pe1.h()), (8, 2));
    }

    #[test]
    fn ready_set_evolves_with_scheduling() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        assert_eq!(s1.ready_nodes(&prob), vec![NodeId(1), NodeId(2), NodeId(3)]);
        let s2 = s1.schedule_node(&prob, NodeId(1), ProcId(0), h);
        let s3 = s2.schedule_node(&prob, NodeId(2), ProcId(1), h);
        // n5 becomes ready only after both n2 and n3 are scheduled.
        assert!(s3.ready_nodes(&prob).contains(&NodeId(4)));
        assert!(!s2.ready_nodes(&prob).contains(&NodeId(4)));
    }

    #[test]
    fn expansion_candidates_with_all_pruning_at_root() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let mut stats = SearchStats::default();
        let cands = s0.expansion_candidates(&prob, &PruningConfig::all(), &mut stats);
        // Only n1 is ready and all three empty ring PEs are interchangeable:
        // exactly one state is generated, as in Figure 3.
        assert_eq!(cands, vec![(NodeId(0), ProcId(0))]);
        assert_eq!(stats.pruned_processor_isomorphism, 2);
    }

    #[test]
    fn expansion_candidates_without_pruning_at_root() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let mut stats = SearchStats::default();
        let cands = s0.expansion_candidates(&prob, &PruningConfig::none(), &mut stats);
        assert_eq!(cands.len(), 3); // n1 × {PE0, PE1, PE2}
        assert_eq!(stats.total_pruned(), 0);
    }

    /// Figure 3, second expansion: with pruning, only n2 and n4 are tried
    /// (n3 is equivalent to n2) on PE0 and PE1 (PE1/PE2 interchangeable),
    /// giving exactly four candidate states.
    #[test]
    fn fig3_second_expansion_candidates() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        let mut stats = SearchStats::default();
        let cands = s1.expansion_candidates(&prob, &PruningConfig::all(), &mut stats);
        assert_eq!(cands.len(), 4);
        let nodes: std::collections::BTreeSet<NodeId> = cands.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes.into_iter().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(stats.pruned_node_equivalence, 1); // n3 dropped
        assert!(stats.pruned_processor_isomorphism >= 1); // PE2 dropped
        // Priority ordering puts n2 (b+t = 19) before n4 (b+t = 14).
        assert_eq!(cands[0].0, NodeId(1));
    }

    #[test]
    fn goal_state_converts_to_valid_schedule() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut s = SearchState::initial(&prob);
        // Schedule everything on PE0 in topological id order.
        for n in prob.graph().node_ids() {
            s = s.schedule_node(&prob, n, ProcId(0), h);
        }
        assert!(s.is_goal(&prob));
        assert_eq!(s.h(), 0, "goal state has no remaining work");
        let schedule = s.to_schedule(&prob);
        schedule.validate(prob.graph(), prob.network()).unwrap();
        assert_eq!(schedule.makespan(), s.g());
        assert_eq!(schedule.makespan(), prob.graph().total_computation());
    }

    #[test]
    fn identical_partial_schedules_share_a_signature() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        // Schedule n2 then n4 on different PEs, and n4 then n2: same partial schedule.
        let a = s1
            .schedule_node(&prob, NodeId(1), ProcId(0), h)
            .schedule_node(&prob, NodeId(3), ProcId(1), h);
        let b = s1
            .schedule_node(&prob, NodeId(3), ProcId(1), h)
            .schedule_node(&prob, NodeId(1), ProcId(0), h);
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.f(), b.f());
        // A genuinely different placement has a different signature.
        let c = s1
            .schedule_node(&prob, NodeId(1), ProcId(1), h)
            .schedule_node(&prob, NodeId(3), ProcId(1), h);
        assert_ne!(a.signature(), c.signature());
    }

    /// A start or processor past the short form's range moves the key to
    /// the exact wide form, so no two placements alias, however large the
    /// start.
    #[test]
    fn keys_stay_exact_past_the_short_range() {
        let prob = example_problem();
        let base = SearchState::initial(&prob).signature();
        let n = NodeId(0);
        let far = base.with_assignment(n, ProcId(0), 1 << 48);
        let near = base.with_assignment(n, ProcId(1), 0);
        assert_ne!(far, near);
        assert!(far.is_wide() && !near.is_wide());
        let top = base.with_assignment(n, ProcId(0), Cost::MAX);
        assert_ne!(top, base.with_assignment(n, ProcId(0), Cost::MAX - 1));
        let past_start = base.with_assignment(n, ProcId(0), 1 << 12);
        assert_ne!(past_start, near);
        let past_proc = base.with_assignment(n, ProcId(15), 0);
        assert_ne!(past_proc, base);
        assert_ne!(past_proc, base.with_assignment(n, ProcId(14), 0));
        assert!(!base.with_assignment(n, ProcId(14), (1 << 12) - 1).is_wide());
        assert!(past_start.is_wide() && past_proc.is_wide());
    }

    /// Past 16 nodes a short key boxes its words: it widens and compares
    /// like an inline one.
    #[test]
    fn long_short_keys_compare_by_content() {
        let mut b = optsched_taskgraph::GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..20).map(|_| b.add_node(5)).collect();
        let prob = SchedulingProblem::new(b.build().unwrap(), ProcNetwork::fully_connected(2));
        let h = HeuristicKind::PaperStaticLevel;
        let s0 = SearchState::initial(&prob);
        let ab = s0.schedule_node(&prob, nodes[0], ProcId(0), h).schedule_node(&prob, nodes[19], ProcId(1), h);
        let ba = s0.schedule_node(&prob, nodes[19], ProcId(1), h).schedule_node(&prob, nodes[0], ProcId(0), h);
        assert_eq!(ab.signature(), ba.signature());
        let base = s0.signature();
        let incremental = base.with_assignment(nodes[0], ProcId(0), 0).with_assignment(nodes[19], ProcId(1), 0);
        assert_eq!(incremental, ab.signature());
        assert_ne!(incremental, base.with_assignment(nodes[0], ProcId(0), 0));
        let widened = incremental.with_assignment(nodes[7], ProcId(0), 1 << 40);
        assert!(widened.is_wide());
        assert_ne!(widened, incremental.with_assignment(nodes[7], ProcId(0), 0));
    }

    /// Heavy weights push start times past the short range mid-search: the
    /// key widens, keeps its hash, and equals the materialised state's key
    /// whichever order built the same partial schedule.
    #[test]
    fn wide_keys_agree_across_construction_routes() {
        let mut b = optsched_taskgraph::GraphBuilder::new();
        let heavy = b.add_node(1 << 30);
        let after = b.add_node(3);
        let light = b.add_node(2);
        b.add_edge(heavy, after, 1).unwrap();
        let prob = SchedulingProblem::new(b.build().unwrap(), ProcNetwork::fully_connected(2));
        let h = HeuristicKind::PaperStaticLevel;
        let (p0, p1) = (ProcId(0), ProcId(1));
        let s0 = SearchState::initial(&prob);
        let heavy_first = s0.schedule_node(&prob, heavy, p0, h).schedule_node(&prob, light, p1, h);
        let light_first = s0.schedule_node(&prob, light, p1, h).schedule_node(&prob, heavy, p0, h);
        assert!(!heavy_first.signature().is_wide());
        assert_eq!(heavy_first.signature(), light_first.signature());
        for parent in [&heavy_first, &light_first] {
            let delta = parent.peek_child(&prob, after, p0, h);
            assert_eq!(delta.start, 1 << 30);
            let incremental = parent.signature().with_assignment(after, p0, delta.start);
            let child = parent.apply_delta(&prob, &delta).signature();
            assert!(incremental.is_wide());
            assert_eq!(incremental, child);
            assert_eq!(incremental.key_hash(), child.key_hash());
        }
    }

    #[test]
    fn tight_heuristic_dominates_paper_heuristic() {
        let prob = example_problem();
        let s1 = SearchState::initial(&prob).schedule_node(
            &prob,
            NodeId(0),
            ProcId(0),
            HeuristicKind::PaperStaticLevel,
        );
        let paper_h = s1.h();
        let tight =
            SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::TightStaticLevel);
        assert!(tight.h() >= paper_h);
        let zero =
            SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::Zero);
        assert_eq!(zero.h(), 0);
    }

    /// `peek_child` + `apply_delta` must agree with the materialised child on
    /// every observable (the expansion operator is now defined through them).
    #[test]
    fn peek_child_matches_materialised_child() {
        let prob = example_problem();
        for h in [HeuristicKind::PaperStaticLevel, HeuristicKind::TightStaticLevel, HeuristicKind::Zero] {
            let mut state = SearchState::initial(&prob);
            // Walk a fixed trace, checking every step.
            for (n, p) in [(0u32, 0u32), (1, 1), (3, 0), (2, 2), (4, 1)] {
                let (n, p) = (NodeId(n), ProcId(p));
                let delta = state.peek_child(&prob, n, p, h);
                let child = state.schedule_node(&prob, n, p, h);
                assert_eq!(delta.g, child.g(), "{h:?}");
                assert_eq!(delta.h, child.h(), "{h:?}");
                assert_eq!(delta.f(), child.f(), "{h:?}");
                assert_eq!(Some(delta.finish), child.finish_time(n));
                assert_eq!(child.signature(), state.signature().with_assignment(n, p, delta.start));
                let applied = state.apply_delta(&prob, &delta);
                assert_eq!(applied.signature(), child.signature());
                assert_eq!((applied.g(), applied.h()), (child.g(), child.h()));
                assert_eq!(applied.max_finish_node(), child.max_finish_node());
                state = child;
            }
        }
    }

    #[test]
    fn apply_delta_in_place_replays_a_trace() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let trace = [(0u32, 0u32), (1, 0), (2, 1), (3, 2), (4, 1), (5, 0)];
        // Eager chain of full states.
        let mut eager = vec![SearchState::initial(&prob)];
        let mut deltas = Vec::new();
        for &(n, p) in &trace {
            let last = eager.last().unwrap();
            deltas.push(last.peek_child(&prob, NodeId(n), ProcId(p), h));
            eager.push(last.schedule_node(&prob, NodeId(n), ProcId(p), h));
        }
        // Replay onto a reusable scratch state (the arena's materialisation path).
        let mut scratch = SearchState::initial(&prob);
        scratch.copy_from(&eager[0]);
        for (i, d) in deltas.iter().enumerate() {
            scratch.apply_delta_in_place(&prob, d);
            let want = &eager[i + 1];
            assert_eq!(scratch.signature(), want.signature());
            assert_eq!((scratch.g(), scratch.h(), scratch.depth()), (want.g(), want.h(), want.depth()));
            assert_eq!(scratch.ready_nodes(&prob), want.ready_nodes(&prob));
        }
        assert!(scratch.is_goal(&prob));
    }

    /// Replaying a trace's deltas, collected with `peek_child` along the way,
    /// must reproduce every observable field of the state, whatever order the
    /// schedule was built in — including equal-finish ties, where
    /// `max_finish_node` must survive.
    #[test]
    fn delta_chain_replay_reproduces_the_state() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        // Several generation orders, including partial and complete states.
        let traces: &[&[(u32, u32)]] = &[
            &[(0, 0)],
            &[(0, 0), (1, 1), (3, 0)],
            &[(0, 0), (3, 2), (1, 0), (2, 1)],
            &[(0, 0), (1, 0), (2, 1), (3, 2), (4, 1), (5, 0)],
            &[(0, 1), (2, 1), (1, 2), (3, 1), (4, 2), (5, 2)],
        ];
        for trace in traces {
            let mut state = SearchState::initial(&prob);
            let mut chain = Vec::new();
            for &(n, p) in *trace {
                chain.push(state.peek_child(&prob, NodeId(n), ProcId(p), h));
                state = state.schedule_node(&prob, NodeId(n), ProcId(p), h);
            }
            assert_eq!(chain.len(), trace.len());
            let mut replayed = SearchState::initial(&prob);
            for d in &chain {
                replayed.apply_delta_in_place(&prob, d);
            }
            assert_eq!(replayed.signature(), state.signature(), "{trace:?}");
            assert_eq!((replayed.g(), replayed.h()), (state.g(), state.h()), "{trace:?}");
            assert_eq!(replayed.depth(), state.depth(), "{trace:?}");
            assert_eq!(replayed.max_finish_node(), state.max_finish_node(), "{trace:?}");
            assert_eq!(replayed.ready_nodes(&prob), state.ready_nodes(&prob), "{trace:?}");
            for p in prob.network().proc_ids() {
                assert_eq!(replayed.proc_ready_time(p), state.proc_ready_time(p), "{trace:?}");
            }
            // The replayed state expands identically: same child deltas.
            for n in state.ready_nodes(&prob) {
                for p in prob.network().proc_ids() {
                    assert_eq!(
                        replayed.peek_child(&prob, n, p, h),
                        state.peek_child(&prob, n, p, h),
                        "{trace:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn copy_from_resets_a_dirty_state_without_alloc() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let root = SearchState::initial(&prob);
        let mut dirty = root.schedule_node(&prob, NodeId(0), ProcId(1), h);
        dirty.copy_from(&root);
        assert_eq!(dirty.signature(), root.signature());
        assert_eq!(dirty.depth(), 0);
        assert_eq!(dirty.proc_ready_time(ProcId(1)), 0);
        assert_eq!(dirty.ready_nodes(&prob), root.ready_nodes(&prob));
    }

    #[test]
    fn heterogeneous_execution_time_in_expansion() {
        let prob = SchedulingProblem::new(
            paper_example_dag(),
            ProcNetwork::fully_connected(2).with_cycle_times(&[1, 2]),
        );
        let h = HeuristicKind::PaperStaticLevel;
        let s0 = SearchState::initial(&prob);
        let fast = s0.schedule_node(&prob, NodeId(0), ProcId(0), h);
        let slow = s0.schedule_node(&prob, NodeId(0), ProcId(1), h);
        assert_eq!(fast.finish_time(NodeId(0)), Some(2));
        assert_eq!(slow.finish_time(NodeId(0)), Some(4));
    }
}
