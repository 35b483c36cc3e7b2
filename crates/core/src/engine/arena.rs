//! Arena-backed storage of generated search states, with a refcounted
//! lifecycle.
//!
//! The pre-engine schedulers kept every generated state as a fully
//! materialised [`SearchState`] — six boxed slices per state, cloned on every
//! generation, held live for the whole run.  The [`StateArena`] replaces that
//! with parent-pointer + [`ChildDelta`] records: a generated state costs one
//! fixed-size record, and the full `SearchState` is rebuilt only when the
//! state is actually selected for expansion, by replaying the delta chain
//! onto a single reusable scratch state (no allocation on the replay path).
//!
//! * **Refcounted reclamation.**  Every record carries a reference count: one
//!   for the caller's handle (the OPEN entry), plus one per child record
//!   pointing at it.  [`StateArena::release`] drops the caller handle once a
//!   state has been expanded (or pruned, or shipped to another PPE); when a
//!   count reaches zero the slot is freed into a free list for id reuse and
//!   the decrement cascades up the delta chain, so a dead subtree is
//!   reclaimed as soon as its last frontier descendant dies.  The initial
//!   root (slot 0) is pinned and never freed.
//! * **One replay base.**  [`StateArena::materialise`] walks the parent
//!   chain only until it meets the scratch state or a full slot (the root or
//!   an adopted snapshot), whichever is nearer, and replays the deltas below
//!   it.  Best-first search mostly expands a child of the state it just
//!   expanded, so most walks end at the scratch state after one delta.
//!
//! Neither mechanism changes the search: they decide when memory is freed
//! and how many deltas replay, never which states are expanded.

use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, SearchState};
use crate::stats::SearchStats;

/// Identifier of a state held by a [`StateArena`].
///
/// Ids of reclaimed states are reused from a free list, so an id is only
/// meaningful while the caller holds its handle (i.e. before
/// [`StateArena::release`]).  Expansion order never depends on ids — the
/// engine's FIFO tie-breaking uses the explicit `seq` counter instead.
pub type StateId = u32;

/// Sentinel id used internally to mark an invalidated scratch state.
/// Never allocated: the arena panics on id overflow long before.
const INVALID_ID: StateId = StateId::MAX;

/// Argument of [`StateArena::new`].  The arena has a single configuration,
/// so this carries no setting; it keeps the constructor stable for callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaConfig;

/// One stored state: a full snapshot, a delta against its parent, or a freed
/// slot awaiting reuse.  Full snapshots (roots and adopted transfers) are
/// rare, so they are boxed: every slot is then the size of a delta record,
/// 48 bytes, not the 136 of an inline `SearchState`.
#[derive(Debug, Clone)]
enum Slot {
    Full(Box<SearchState>),
    Delta { parent: StateId, delta: ChildDelta },
    Free,
}

/// Store of every *live* state of a search run (see the module docs for the
/// reclamation and replay mechanics).
#[derive(Debug)]
pub struct StateArena<'p> {
    problem: &'p SchedulingProblem,
    slots: Vec<Slot>,
    /// Reference count per slot: the caller's handle plus one per child
    /// record.  Slot 0 (the initial root) carries one extra pin.
    refs: Vec<u32>,
    /// Reclaimed slot ids available for reuse.
    free: Vec<StateId>,
    /// Reusable scratch state holding the most recently materialised delta
    /// slot (`None` until the first delta materialisation).  Re-materialising
    /// a descendant of the scratch state replays only the new deltas.
    scratch: Option<(StateId, SearchState)>,
    /// Reusable buffer for the deltas collected during materialisation,
    /// tip first.
    chain: Vec<ChildDelta>,
    live_full: usize,
    peak_live_full: usize,
    live_records: usize,
    peak_live_records: usize,
    reclaimed_records: u64,
    materialisations: u64,
    replayed_deltas: u64,
    replayed_deltas_saved: u64,
}

impl<'p> StateArena<'p> {
    /// An empty arena for `problem`.
    pub fn new(problem: &'p SchedulingProblem, _config: ArenaConfig) -> StateArena<'p> {
        StateArena {
            problem,
            slots: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            scratch: None,
            chain: Vec::new(),
            live_full: 0,
            peak_live_full: 0,
            live_records: 0,
            peak_live_records: 0,
            reclaimed_records: 0,
            materialisations: 0,
            replayed_deltas: 0,
            replayed_deltas_saved: 0,
        }
    }

    /// Number of slots ever allocated (live records plus free slots).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no state has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Largest number of fully materialised states held at any point: roots
    /// and adopted snapshots plus the scratch state.
    pub fn peak_live_full(&self) -> usize {
        self.peak_live_full
    }

    /// Number of records (roots, snapshots and deltas) currently live.
    pub fn live_records(&self) -> usize {
        self.live_records
    }

    /// Largest number of simultaneously live records observed.
    pub fn peak_live_records(&self) -> usize {
        self.peak_live_records
    }

    /// Total records reclaimed by [`StateArena::release`] cascades.
    pub fn reclaimed_records(&self) -> u64 {
        self.reclaimed_records
    }

    /// Delta-chain materialisations performed (full-slot fast-path reads are
    /// not counted — nothing is replayed for them).
    pub fn materialisations(&self) -> u64 {
        self.materialisations
    }

    /// Always 0: the arena keeps no path-cache.  Kept so that callers
    /// reporting the counter still build.
    pub fn path_cache_hits(&self) -> u64 {
        0
    }

    /// Always 0: the arena keeps no path-cache.  Kept so that callers
    /// reporting the counter still build.
    pub fn path_cache_ancestor_hits(&self) -> u64 {
        0
    }

    /// Total deltas replayed across all materialisations — the arena's
    /// CPU-overhead proxy.
    pub fn replayed_deltas(&self) -> u64 {
        self.replayed_deltas
    }

    /// Total deltas *not* replayed because a walk ended at the scratch state
    /// instead of descending to a full slot: the depth of the scratch state,
    /// summed over those materialisations.
    pub fn replayed_deltas_saved(&self) -> u64 {
        self.replayed_deltas_saved
    }

    /// Copies the store's lifecycle counters (peak full states and records,
    /// reclaims, materialisations and replay work) into `stats`, as a
    /// finished search reports them.
    pub fn record_stats(&self, stats: &mut SearchStats) {
        stats.peak_live_states = self.peak_live_full as u64;
        stats.peak_live_records = self.peak_live_records as u64;
        stats.reclaimed_records = self.reclaimed_records;
        stats.materialisations = self.materialisations;
        stats.replayed_deltas = self.replayed_deltas;
        stats.replayed_deltas_saved = self.replayed_deltas_saved;
    }

    /// Slot capacity currently allocated by the record vector.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn note_live_full(&mut self, added: usize) {
        self.live_full += added;
        let scratch = usize::from(self.scratch.is_some());
        self.peak_live_full = self.peak_live_full.max(self.live_full + scratch);
    }

    /// Allocates a slot (reusing a freed one if available) with one caller
    /// handle on its refcount.
    fn alloc(&mut self, slot: Slot) -> StateId {
        self.live_records += 1;
        self.peak_live_records = self.peak_live_records.max(self.live_records);
        if let Some(id) = self.free.pop() {
            debug_assert!(matches!(self.slots[id as usize], Slot::Free), "free list corrupt");
            self.slots[id as usize] = slot;
            self.refs[id as usize] = 1;
            id
        } else {
            let id = StateId::try_from(self.slots.len()).expect("state arena overflowed StateId");
            assert_ne!(id, INVALID_ID, "state arena overflowed StateId");
            self.slots.push(slot);
            self.refs.push(1);
            id
        }
    }

    /// Stores a full state with no parent (the initial state).  The first
    /// root (slot 0) is pinned: it anchors every delta chain and is never
    /// reclaimed.
    pub fn insert_root(&mut self, state: SearchState) -> StateId {
        let id = self.alloc(Slot::Full(Box::new(state)));
        if id == 0 {
            self.refs[0] += 1; // pin: delta chains always bottom out here
        }
        self.note_live_full(1);
        id
    }

    /// Stores the child of `parent` described by `delta`.  The parent must be
    /// live (the caller holds its handle while expanding it).
    pub fn insert_child(&mut self, parent: StateId, delta: &ChildDelta) -> StateId {
        let id = self.alloc(Slot::Delta { parent, delta: *delta });
        self.refs[parent as usize] += 1;
        id
    }

    /// Drops the caller's handle on `id`.  When no child record keeps the
    /// state alive, its slot is freed for reuse and the release cascades up
    /// the delta chain, reclaiming every ancestor that just lost its last
    /// reference.
    ///
    /// After releasing an id the caller must not use it again: the slot may
    /// be reused by the next insertion.
    pub fn release(&mut self, id: StateId) {
        let mut cursor = id;
        loop {
            let r = &mut self.refs[cursor as usize];
            debug_assert!(*r > 0, "release of a dead slot {cursor}");
            *r -= 1;
            if *r > 0 {
                break;
            }
            let slot = std::mem::replace(&mut self.slots[cursor as usize], Slot::Free);
            self.live_records -= 1;
            self.reclaimed_records += 1;
            // A reused id must never alias the scratch state of the *old*
            // incarnation.
            if let Some((sid, _)) = &mut self.scratch {
                if *sid == cursor {
                    *sid = INVALID_ID;
                }
            }
            self.free.push(cursor);
            match slot {
                Slot::Full(_) => {
                    self.live_full -= 1;
                    break;
                }
                Slot::Delta { parent, .. } => cursor = parent,
                Slot::Free => unreachable!("double free of slot {cursor}"),
            }
        }
    }

    /// Adopts a full state as a *snapshot root*: one `Slot::Full` record that
    /// later children hang their deltas off and that `materialise` replays
    /// from directly — how a state sent by another PPE enters this arena.
    /// Adopting (and later releasing) a transfer costs one record whatever
    /// its depth.  An empty arena is seeded with the pinned initial root
    /// first, so slot 0 always holds the initial state; a depth-0 state *is*
    /// that state and returns the pinned root (no duplicate root record).
    pub fn adopt_snapshot(&mut self, state: SearchState) -> StateId {
        if self.slots.is_empty() {
            self.insert_root(SearchState::initial(self.problem));
        }
        if state.depth() == 0 {
            return 0;
        }
        let id = self.alloc(Slot::Full(Box::new(state)));
        self.note_live_full(1);
        id
    }

    /// Materialises the state identified by `id` and returns an owned clone —
    /// the send path of the parallel scheduler, where a state leaving for
    /// another PPE must outlive this arena's scratch state.
    pub fn materialise_owned(&mut self, id: StateId) -> SearchState {
        self.materialise(id).clone()
    }

    /// Returns the full state identified by `id`, rebuilding it from its
    /// delta chain if necessary.  The returned reference borrows the arena
    /// (it may point into the internal scratch state), so collect whatever
    /// the expansion keeps before inserting new children.
    pub fn materialise(&mut self, id: StateId) -> &SearchState {
        // Fast path: the slot already holds a full state.
        if matches!(self.slots[id as usize], Slot::Full(_)) {
            let Slot::Full(state) = &self.slots[id as usize] else { unreachable!() };
            return state;
        }
        self.materialisations += 1;

        // Collect the deltas from `id` up to the nearest replay base: the
        // scratch state (`None`) or a full slot.
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        let scratch_id = self.scratch.as_ref().map(|&(sid, _)| sid);
        let mut cursor = id;
        let base = loop {
            if Some(cursor) == scratch_id {
                break None;
            }
            match &self.slots[cursor as usize] {
                Slot::Full(_) => break Some(cursor),
                Slot::Delta { parent, delta } => {
                    chain.push(*delta);
                    cursor = *parent;
                }
                Slot::Free => unreachable!("materialise through a freed slot"),
            }
        };
        self.replayed_deltas += chain.len() as u64;

        // Seat the base in the scratch state, unless it already is there.
        let mut scratch = match (base, self.scratch.take()) {
            (None, Some((_, s))) => {
                // Every delta below the scratch state would have been
                // replayed by a walk to the full slot.
                self.replayed_deltas_saved += s.depth() as u64;
                s
            }
            (None, None) => unreachable!("scratch base without a scratch state"),
            (Some(base_id), existing) => {
                let Slot::Full(base_state) = &self.slots[base_id as usize] else { unreachable!() };
                match existing {
                    Some((_, mut s)) => {
                        s.copy_from(base_state);
                        s
                    }
                    None => {
                        let cloned = (**base_state).clone();
                        self.peak_live_full = self.peak_live_full.max(self.live_full + 1);
                        cloned
                    }
                }
            }
        };
        for delta in chain.iter().rev() {
            scratch.apply_delta_in_place(self.problem, delta);
        }
        self.chain = chain;
        self.scratch = Some((id, scratch));
        &self.scratch.as_ref().expect("scratch seated above").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeuristicKind;
    use optsched_procnet::{ProcId, ProcNetwork};
    use optsched_taskgraph::paper_example_dag;
    use optsched_workload::{generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    /// A slot holds a delta record or a boxed snapshot, never an inline
    /// `SearchState`.
    #[test]
    fn slot_is_the_size_of_a_delta_record() {
        assert!(std::mem::size_of::<Slot>() <= 48, "{} B", std::mem::size_of::<Slot>());
    }

    fn arena(problem: &SchedulingProblem) -> StateArena<'_> {
        StateArena::new(problem, ArenaConfig)
    }

    /// On a random expansion trace, every state materialised from the arena
    /// equals the eagerly cloned state, including after out-of-order
    /// materialisation (scratch misses).
    #[test]
    fn materialised_states_equal_eager_clones_on_a_random_trace() {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 9, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;

        let mut arena = arena(&problem);
        let root = SearchState::initial(&problem);
        let mut eager: Vec<SearchState> = vec![root.clone()];
        let mut parents: Vec<StateId> = vec![arena.insert_root(root)];

        // Random walk: repeatedly pick a random stored state, expand a random
        // (ready node, processor) pair, store the child in both forms.
        for _ in 0..200 {
            let pick = rng.gen_range(0..eager.len());
            let parent = eager[pick].clone();
            let ready = parent.ready_nodes(&problem);
            if ready.is_empty() {
                continue;
            }
            let node = ready[rng.gen_range(0..ready.len())];
            let proc = ProcId(rng.gen_range(0..problem.num_procs()) as u32);
            let delta = parent.peek_child(&problem, node, proc, h);
            let id = arena.insert_child(parents[pick], &delta);
            eager.push(parent.schedule_node(&problem, node, proc, h));
            parents.push(id);
        }

        // Materialise in a shuffled order so the scratch state repeatedly
        // starts over from the root.
        let mut order: Vec<usize> = (0..eager.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let materialised = arena.materialise(parents[i]);
            let want = &eager[i];
            assert_eq!(materialised.signature(), want.signature());
            assert_eq!(materialised.g(), want.g());
            assert_eq!(materialised.h(), want.h());
            assert_eq!(materialised.depth(), want.depth());
            assert_eq!(materialised.max_finish_node(), want.max_finish_node());
            assert_eq!(materialised.ready_nodes(&problem), want.ready_nodes(&problem));
            for p in problem.network().proc_ids() {
                assert_eq!(materialised.proc_ready_time(p), want.proc_ready_time(p));
            }
        }
        assert!(arena.materialisations() > 0);
        assert!(arena.replayed_deltas() > 0);
    }

    /// The scratch fast path: materialising a child of the most recently
    /// materialised state replays exactly one delta.
    #[test]
    fn descendant_materialisation_reuses_the_scratch_state() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let root = SearchState::initial(&problem);
        let d1 = root.peek_child(&problem, optsched_taskgraph::NodeId(0), ProcId(0), h);
        let root_id = arena.insert_root(root.clone());
        let c1 = arena.insert_child(root_id, &d1);
        let s1 = arena.materialise(c1).clone();
        let d2 = s1.peek_child(&problem, optsched_taskgraph::NodeId(1), ProcId(1), h);
        let c2 = arena.insert_child(c1, &d2);
        // c2 is a child of the scratch (c1): replayed in place.
        let before = arena.replayed_deltas();
        let s2 = arena.materialise(c2);
        assert_eq!(s2.depth(), 2);
        assert_eq!(s2.signature(), s1.apply_delta(&problem, &d2).signature());
        assert_eq!(arena.replayed_deltas(), before + 1, "exactly one delta replayed");
        // Jumping back to the root still works (scratch rebuilt from the full slot).
        assert_eq!(arena.materialise(root_id).depth(), 0);
        assert_eq!(arena.materialise(c2).depth(), 2);
        assert!(!arena.is_empty());
        assert_eq!(arena.peak_live_full(), 2, "the root plus one scratch state");
    }

    /// The arena counts stored states and live full states differently: a
    /// chain of stored children grows `len` by one record each, while
    /// materialising every one of them still holds only the root plus one
    /// scratch state in full.
    #[test]
    fn peak_live_full_counts_stores_differently() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let mut state = SearchState::initial(&problem);
        let mut id = arena.insert_root(state.clone());
        for step in 1..=4u16 {
            let node = state.ready_nodes(&problem)[0];
            let delta = state.peek_child(&problem, node, ProcId(u32::from(step) % 3), h);
            id = arena.insert_child(id, &delta);
            state = arena.materialise(id).clone();
            assert_eq!(state.depth(), step);
        }
        assert_eq!(arena.len(), 5, "the root plus four delta records");
        assert!(!arena.is_empty());
        assert_eq!(arena.peak_live_full(), 2, "the root plus one scratch state");
    }

    /// Releasing the last handle on a leaf reclaims the whole dead chain up
    /// to (but excluding) ancestors that still have live descendants, and the
    /// freed slots are reused by later insertions.
    #[test]
    fn release_cascades_up_dead_chains_and_reuses_slots() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let root = SearchState::initial(&problem);
        let d1 = root.peek_child(&problem, optsched_taskgraph::NodeId(0), ProcId(0), h);
        let root_id = arena.insert_root(root);
        let c1 = arena.insert_child(root_id, &d1);
        let s1 = arena.materialise(c1).clone();
        let d2 = s1.peek_child(&problem, optsched_taskgraph::NodeId(1), ProcId(1), h);
        let c2 = arena.insert_child(c1, &d2);
        let d2b = s1.peek_child(&problem, optsched_taskgraph::NodeId(1), ProcId(0), h);
        let c3 = arena.insert_child(c1, &d2b);
        assert_eq!(arena.live_records(), 4);

        // c1 has been expanded: dropping its handle must NOT free it while
        // its children c2/c3 are alive.
        arena.release(c1);
        assert_eq!(arena.live_records(), 4);
        assert_eq!(arena.reclaimed_records(), 0);

        // Killing c2 frees only c2 (c3 still pins c1).
        arena.release(c2);
        assert_eq!(arena.live_records(), 3);
        assert_eq!(arena.reclaimed_records(), 1);

        // Killing c3 cascades: c3 and the now-orphaned c1 are both freed.
        arena.release(c3);
        assert_eq!(arena.live_records(), 1, "only the pinned root survives");
        assert_eq!(arena.reclaimed_records(), 3);

        // The pinned root never dies, even when its handle is dropped.
        arena.release(root_id);
        assert_eq!(arena.live_records(), 1);
        assert_eq!(arena.materialise(root_id).depth(), 0);

        // Freed ids are reused and materialise correctly (no stale scratch
        // aliasing from the old incarnation).
        let e1 = arena.insert_child(root_id, &d1);
        let e2 = arena.insert_child(e1, &d2);
        assert!(arena.len() <= 4, "slots are reused, not appended: len {}", arena.len());
        let s2 = arena.materialise(e2);
        assert_eq!(s2.signature(), s1.apply_delta(&problem, &d2).signature());
        assert_eq!(arena.peak_live_records(), 4);
    }

    /// Snapshot adoption stores a deep transfer as ONE record, descendants
    /// replay from it, extracting a descendant (`materialise_owned`, the send
    /// path) splices the snapshot and the deltas above it into one state
    /// that a fresh receiver adopts as one record, and releasing it reclaims
    /// one record — no refcount cascade through a chain.
    #[test]
    fn adopt_snapshot_costs_one_record_and_splices_on_extract() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 8, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;
        let mut state = SearchState::initial(&problem);
        for _ in 0..6 {
            let ready = state.ready_nodes(&problem);
            let n = ready[rng.gen_range(0..ready.len())];
            let p = ProcId(rng.gen_range(0..problem.num_procs()) as u32);
            state = state.schedule_node(&problem, n, p, h);
        }

        let mut delta = arena(&problem);
        let id = delta.adopt_snapshot(state.clone());
        assert_eq!(delta.live_records(), 2, "the pinned initial root plus one snapshot");
        assert_eq!(delta.materialise(id).signature(), state.signature());

        // A descendant replays from the snapshot, not the distant root.
        let ready = state.ready_nodes(&problem);
        let d = state.peek_child(&problem, ready[0], ProcId(0), h);
        let child = delta.insert_child(id, &d);
        let replayed_before = delta.replayed_deltas();
        let child_sig = delta.materialise(child).signature();
        assert_eq!(delta.replayed_deltas() - replayed_before, 1, "one delta above the snapshot");
        assert_eq!(child_sig, state.apply_delta(&problem, &d).signature());

        // Extraction splices the snapshot and the delta above it into one
        // state: a fresh receiver adopts it as one record and rebuilds it.
        let wire = delta.materialise_owned(child);
        assert_eq!(wire.depth(), state.depth() + 1);
        let mut receiver = arena(&problem);
        let rid = receiver.adopt_snapshot(wire);
        assert_eq!(receiver.live_records(), 2, "the receiver's pinned root plus one snapshot");
        assert_eq!(receiver.materialise(rid).signature(), child_sig);

        // Releasing the child reclaims the snapshot with no cascade beyond it.
        delta.release(child);
        delta.release(id);
        assert_eq!(delta.live_records(), 1, "only the pinned root survives");

        // Depth-0 snapshots reuse the pinned root instead of duplicating it.
        let mut fresh = arena(&problem);
        assert_eq!(fresh.adopt_snapshot(SearchState::initial(&problem)), 0);
        assert_eq!(fresh.live_records(), 1);
    }

    /// Adoption is total: an empty arena seeds its own initial root into
    /// slot 0 before it stores the adopted state above it.
    #[test]
    fn adopt_seeds_an_empty_delta_arena_with_the_initial_root() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let deep = SearchState::initial(&problem)
            .schedule_node(&problem, optsched_taskgraph::NodeId(0), ProcId(0), h)
            .schedule_node(&problem, optsched_taskgraph::NodeId(1), ProcId(1), h);

        let mut arena = arena(&problem);
        assert!(arena.is_empty());
        let id = arena.adopt_snapshot(deep.clone());
        assert_ne!(id, 0, "the adopted state does not take the root's slot");
        assert_eq!(arena.materialise(id).signature(), deep.signature());
        assert_eq!(arena.materialise(0).depth(), 0, "slot 0 is the seeded initial state");
        assert_eq!(
            arena.materialise(0).signature(),
            SearchState::initial(&problem).signature()
        );
    }
}
