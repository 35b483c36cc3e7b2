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
//! Two further mechanisms keep the arena O(live frontier) in both memory and
//! replay time:
//!
//! * **Refcounted reclamation.**  Every record carries a reference count: one
//!   for the caller's handle (the OPEN entry), plus one per child record
//!   pointing at it.  [`StateArena::release`] drops the caller handle once a
//!   state has been expanded (or pruned, or shipped to another PPE); when a
//!   count reaches zero the slot is freed into a free list for id reuse and
//!   the decrement cascades up the delta chain, so a dead subtree is
//!   reclaimed as soon as its last frontier descendant dies.  The initial
//!   root (slot 0) is pinned and never freed.
//! * **Materialisation path-cache.**  Replaying from the root makes a single
//!   materialisation O(depth).  The arena keeps the last
//!   eight (`PATH_CACHE_ENTRIES`) materialised states whose replay was long enough
//!   to be worth caching; a later materialisation walks its parent chain only
//!   until it meets the scratch state, a cached ancestor or a full snapshot,
//!   whichever is nearest.
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

/// Sentinel id used internally to mark invalidated scratch/cache entries.
/// Never allocated: the arena panics on id overflow long before.
const INVALID_ID: StateId = StateId::MAX;

/// A replay must be at least this many deltas long before the materialised
/// state is promoted into the path-cache (short replays are cheaper than the
/// full-state copy a promotion costs).
const PROMOTE_REPLAY_THRESHOLD: usize = 4;

/// A replay at least this long additionally promotes its *midpoint* ancestor
/// into the path-cache, so a later jump into any part of the subtree finds a
/// nearby cached ancestor instead of only the tip.  Twice the tip threshold:
/// each half of the chain must be long enough to be worth a cache slot.
const MID_PROMOTE_REPLAY_THRESHOLD: usize = 2 * PROMOTE_REPLAY_THRESHOLD;

/// Automatic compaction cadence: after this many reclaimed records since the
/// last compaction the arena checks whether the trailing run of free slots is
/// worth truncating (a "generation" of reclaims).  Explicit
/// [`StateArena::compact`] calls are not throttled.
const COMPACT_RECLAIM_INTERVAL: u64 = 8192;

/// Number of materialised states the path-cache keeps (the single scratch
/// state is kept on top of these).
const PATH_CACHE_ENTRIES: usize = 8;

/// Argument of [`StateArena::new`].  The arena has a single configuration,
/// so this carries no setting; it keeps the constructor stable for callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaConfig;

/// One stored state: a full snapshot, a delta against its parent, or a freed
/// slot awaiting reuse.
#[derive(Debug, Clone)]
enum Slot {
    Full(SearchState),
    Delta { parent: StateId, delta: ChildDelta },
    Free,
}

/// Store of every *live* state of a search run (see the module docs for the
/// reclamation and path-cache mechanics).
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
    /// The path-cache: up to [`PATH_CACHE_ENTRIES`] recently materialised
    /// states, replaced round-robin.  Entries whose state was reclaimed are
    /// marked with [`INVALID_ID`] (the allocation is kept for reuse).
    cache: Vec<(StateId, SearchState)>,
    cache_cursor: usize,
    /// Reusable buffer for the delta chain collected during materialisation:
    /// each element is the id of the state the delta produces, so intermediate
    /// ancestors can be promoted into the path-cache mid-replay.
    chain: Vec<(StateId, ChildDelta)>,
    live_full: usize,
    peak_live_full: usize,
    live_records: usize,
    peak_live_records: usize,
    reclaimed_records: u64,
    /// Reclaim count at the last automatic compaction check.
    last_compact_reclaims: u64,
    materialisations: u64,
    path_cache_hits: u64,
    path_cache_ancestor_hits: u64,
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
            cache: Vec::new(),
            cache_cursor: 0,
            chain: Vec::new(),
            live_full: 0,
            peak_live_full: 0,
            live_records: 0,
            peak_live_records: 0,
            reclaimed_records: 0,
            last_compact_reclaims: 0,
            materialisations: 0,
            path_cache_hits: 0,
            path_cache_ancestor_hits: 0,
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
    /// and adopted snapshots plus the scratch state.  (The path-cache's up to
    /// eight (`PATH_CACHE_ENTRIES`) extra full states are a fixed overhead, not
    /// counted here.)
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

    /// Materialisations whose parent-chain walk ended at a path-cache entry
    /// (scratch-state reuse is not counted — it predates the cache).
    pub fn path_cache_hits(&self) -> u64 {
        self.path_cache_hits
    }

    /// The subset of [`StateArena::path_cache_hits`] where the cached entry
    /// was a strict *ancestor* of the requested state (not an exact-id hit):
    /// the replay-from-nearest-ancestor win.
    pub fn path_cache_ancestor_hits(&self) -> u64 {
        self.path_cache_ancestor_hits
    }

    /// Total deltas replayed across all materialisations — the arena's
    /// CPU-overhead proxy that the path-cache exists to shrink.
    pub fn replayed_deltas(&self) -> u64 {
        self.replayed_deltas
    }

    /// Total deltas *not* replayed because a walk ended at the scratch state
    /// or a cached (ancestor) entry instead of descending to a full snapshot:
    /// the depth of the reused base, summed over those materialisations.
    pub fn replayed_deltas_saved(&self) -> u64 {
        self.replayed_deltas_saved
    }

    /// Copies the store's lifecycle counters (peak full states and records,
    /// reclaims, materialisations, path-cache hits and replay work) into
    /// `stats`, as a finished search reports them.
    pub fn record_stats(&self, stats: &mut SearchStats) {
        stats.peak_live_states = self.peak_live_full as u64;
        stats.peak_live_records = self.peak_live_records as u64;
        stats.reclaimed_records = self.reclaimed_records;
        stats.materialisations = self.materialisations;
        stats.path_cache_hits = self.path_cache_hits;
        stats.path_cache_ancestor_hits = self.path_cache_ancestor_hits;
        stats.replayed_deltas = self.replayed_deltas;
        stats.replayed_deltas_saved = self.replayed_deltas_saved;
    }

    /// Slot capacity currently allocated by the record vector (compaction
    /// exists to shrink this back towards the live count after a drain).
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
        let id = self.alloc(Slot::Full(state));
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
            // A reused id must never alias the scratch state or a cached
            // ancestor of the *old* incarnation: invalidate both.
            if let Some((sid, _)) = &mut self.scratch {
                if *sid == cursor {
                    *sid = INVALID_ID;
                }
            }
            for (cid, _) in &mut self.cache {
                if *cid == cursor {
                    *cid = INVALID_ID;
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
        // Generation-scoped compaction: every COMPACT_RECLAIM_INTERVAL
        // reclaims, truncate the record vector if a substantial trailing run
        // of slots has been freed, so a drained arena gives capacity back
        // instead of only recycling ids.
        if self.reclaimed_records - self.last_compact_reclaims >= COMPACT_RECLAIM_INTERVAL {
            self.last_compact_reclaims = self.reclaimed_records;
            let len = self.slots.len();
            let tail = len - self.live_len();
            if tail * 4 >= len {
                self.compact();
            }
        }
    }

    /// One past the highest non-free slot index (the length the record
    /// vector can truncate to without touching a live record).
    fn live_len(&self) -> usize {
        self.slots.iter().rposition(|s| !matches!(s, Slot::Free)).map_or(0, |i| i + 1)
    }

    /// Compacts the record vector: truncates the trailing run of freed slots,
    /// drops their ids from the free list and releases the spare capacity of
    /// the slot/refcount/free vectors back to the allocator.  Live ids are
    /// never moved — only `Free` slots past the last live record are cut — so
    /// every outstanding handle (and the scratch/path-cache ids, which are
    /// invalidated eagerly on release) survives compaction unchanged.
    ///
    /// Runs automatically every 8192 (`COMPACT_RECLAIM_INTERVAL`) reclaims when
    /// the trailing free run is at least a quarter of the vector; callers
    /// with a natural generation boundary (e.g. a service worker between
    /// requests) can invoke it directly.
    pub fn compact(&mut self) {
        let new_len = self.live_len();
        if new_len < self.slots.len() {
            self.slots.truncate(new_len);
            self.refs.truncate(new_len);
            self.free.retain(|&id| (id as usize) < new_len);
        }
        self.slots.shrink_to_fit();
        self.refs.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Adopts a full state as a *snapshot root*: one `Slot::Full` record that
    /// later children hang their deltas off and that `materialise` replays
    /// from directly — the receive-side of the parallel scheduler's snapshot
    /// transfers.  The state is stored as-is instead of decomposed into a
    /// chain, so adopting (and later releasing) a depth-`d` transfer costs
    /// one record instead of `d` records plus a refcount cascade.  An empty
    /// arena is still seeded with the pinned initial root first, preserving
    /// the slot-0 invariant that chain adoption relies on; a depth-0 state
    /// *is* the initial state and takes the chain path (no duplicate root
    /// record).
    pub fn adopt_snapshot(&mut self, state: SearchState) -> StateId {
        if state.depth() == 0 {
            return self.adopt_chain(&[]);
        }
        if self.slots.is_empty() {
            self.insert_root(SearchState::initial(self.problem));
        }
        let id = self.alloc(Slot::Full(state));
        self.note_live_full(1);
        id
    }

    /// Depth of the record `id` in deltas from the initial state, walked over
    /// parent links without materialising anything: the hop count to the
    /// nearest full snapshot plus that snapshot's own depth.  The sender-side
    /// cost model for choosing between chain and snapshot transfers.
    pub fn record_depth(&self, id: StateId) -> usize {
        let mut hops = 0usize;
        let mut cursor = id;
        loop {
            match &self.slots[cursor as usize] {
                Slot::Full(s) => return hops + s.depth() as usize,
                Slot::Delta { parent, .. } => {
                    hops += 1;
                    cursor = *parent;
                }
                Slot::Free => unreachable!("record_depth through a freed slot"),
            }
        }
    }

    /// Adopts a state expressed as a delta chain against the initial state
    /// (the wire format of the parallel scheduler's chain-shipping
    /// transfers; see [`SearchState::to_delta_chain`]).  The records are
    /// stored directly, hanging off slot 0 — the state is never materialised
    /// on adoption, so adopting never adds a live full state.
    ///
    /// Intermediate chain records keep no caller handle (only the child link
    /// holds them), so releasing the returned id reclaims the whole adopted
    /// chain.  An empty chain denotes the initial state itself and returns
    /// the pinned root.
    ///
    /// The arena therefore keeps the problem's **initial** (empty) state in
    /// slot 0: adopting into an empty arena seeds it automatically.
    ///
    /// # Panics
    ///
    /// Panics if the arena is non-empty and its slot 0 is not the initial
    /// state (only possible by inserting a non-initial root first), rather
    /// than replay chains onto the wrong base.
    pub fn adopt_chain(&mut self, chain: &[ChildDelta]) -> StateId {
        if self.slots.is_empty() {
            self.insert_root(SearchState::initial(self.problem));
        }
        assert!(
            matches!(&self.slots[0], Slot::Full(s) if s.depth() == 0),
            "delta arenas re-root adopted states at the initial state in slot 0"
        );
        let mut id: StateId = 0;
        for delta in chain {
            let child = self.insert_child(id, delta);
            if id != 0 {
                // The child's parent link now keeps the intermediate alive;
                // drop our construction handle so the chain can be reclaimed
                // from its tip.
                self.release(id);
            }
            id = child;
        }
        id
    }

    /// Decomposes the live state `id` into the delta chain that rebuilds it
    /// from the initial state — the send-side of the parallel scheduler's
    /// chain-shipping transfers.  Walks parent links only; nothing is
    /// materialised or copied beyond the fixed-size records.
    ///
    /// The walk bottoms out either at slot 0 or at an adopted snapshot root,
    /// whose own decomposition is spliced in so the chain always replays from
    /// the receiver's initial state.
    pub fn extract_chain(&self, id: StateId) -> Vec<ChildDelta> {
        let mut chain = Vec::new();
        let mut cursor = id;
        loop {
            match &self.slots[cursor as usize] {
                Slot::Full(s) => {
                    // A snapshot root sits `s.depth()` deltas above the
                    // initial state; splice its decomposition in (reversed —
                    // the chain is tip-first until the final reverse).
                    if s.depth() > 0 {
                        chain.extend(s.to_delta_chain().into_iter().rev());
                    }
                    break;
                }
                Slot::Delta { parent, delta } => {
                    chain.push(*delta);
                    cursor = *parent;
                }
                Slot::Free => unreachable!("extract_chain through a freed slot"),
            }
        }
        chain.reverse();
        chain
    }

    /// Materialises the state identified by `id` and returns an owned clone —
    /// the snapshot send-path of the parallel scheduler, where a state
    /// leaving for another PPE must outlive this arena's scratch state.
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

        // Collect the delta chain from `id` up to the nearest replay base:
        // the scratch state, a path-cache entry (exact id *or* any cached
        // ancestor), or a full snapshot.
        enum Base {
            Scratch,
            Cached(usize),
            Slot(StateId),
        }
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        let scratch_id = self.scratch.as_ref().map(|&(sid, _)| sid);
        let mut cursor = id;
        let base = loop {
            if Some(cursor) == scratch_id {
                break Base::Scratch; // replay directly onto the scratch state
            }
            if let Some(i) = self.cache.iter().position(|&(cid, _)| cid == cursor) {
                self.path_cache_hits += 1;
                if cursor != id {
                    self.path_cache_ancestor_hits += 1;
                }
                break Base::Cached(i);
            }
            match &self.slots[cursor as usize] {
                Slot::Full(_) => break Base::Slot(cursor),
                Slot::Delta { parent, delta } => {
                    chain.push((cursor, *delta));
                    cursor = *parent;
                }
                Slot::Free => unreachable!("materialise through a freed slot"),
            }
        };
        self.replayed_deltas += chain.len() as u64;
        let reused_base = matches!(base, Base::Scratch | Base::Cached(_));

        // Seat the base in the scratch state (unless it already is there),
        // taking the scratch out of `self` so the mid-replay promotion below
        // can borrow the cache.
        let mut scratch = match (&base, self.scratch.take()) {
            (Base::Scratch, Some((_, s))) => s,
            (_, existing) => {
                let base_state: &SearchState = match base {
                    Base::Scratch => unreachable!("scratch base without a scratch state"),
                    Base::Cached(i) => &self.cache[i].1,
                    Base::Slot(base_id) => {
                        let Slot::Full(s) = &self.slots[base_id as usize] else { unreachable!() };
                        s
                    }
                };
                match existing {
                    Some((_, mut s)) => {
                        s.copy_from(base_state);
                        s
                    }
                    None => {
                        let cloned = base_state.clone();
                        self.peak_live_full = self.peak_live_full.max(self.live_full + 1);
                        cloned
                    }
                }
            }
        };
        if reused_base {
            // Every delta below the reused base would have been replayed by a
            // walk to the full snapshot: the ancestor-replay win.
            self.replayed_deltas_saved += scratch.depth() as u64;
        }

        // Replay the suffix; a long enough replay also promotes its midpoint
        // ancestor so later jumps anywhere into this subtree start nearby.
        let replay_len = chain.len();
        let mid_idx = (replay_len >= MID_PROMOTE_REPLAY_THRESHOLD).then_some(replay_len / 2);
        for i in (0..replay_len).rev() {
            let (delta_id, delta) = chain[i];
            scratch.apply_delta_in_place(self.problem, &delta);
            if mid_idx == Some(i) {
                self.cache_insert(delta_id, &scratch);
            }
        }
        self.chain = chain;

        // Promote long replays into the path-cache so a later jump back into
        // this subtree starts from here instead of the root.
        if replay_len >= PROMOTE_REPLAY_THRESHOLD {
            self.cache_insert(id, &scratch);
        }
        self.scratch = Some((id, scratch));
        &self.scratch.as_ref().expect("scratch seated above").1
    }

    /// Inserts (or refreshes, round-robin) a path-cache entry.  An id already
    /// cached is left in place — its entry holds the identical state.
    fn cache_insert(&mut self, id: StateId, state: &SearchState) {
        if self.cache.iter().any(|&(cid, _)| cid == id) {
            return;
        }
        if self.cache.len() < PATH_CACHE_ENTRIES {
            self.cache.push((id, state.clone()));
        } else {
            let cursor = self.cache_cursor;
            let (cid, slot_state) = &mut self.cache[cursor];
            *cid = id;
            slot_state.copy_from(state);
            self.cache_cursor = (cursor + 1) % self.cache.len();
        }
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
        // starts over from the root (or a cached ancestor).
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
        // or cache aliasing from the old incarnation).
        let e1 = arena.insert_child(root_id, &d1);
        let e2 = arena.insert_child(e1, &d2);
        assert!(arena.len() <= 4, "slots are reused, not appended: len {}", arena.len());
        let s2 = arena.materialise(e2);
        assert_eq!(s2.signature(), s1.apply_delta(&problem, &d2).signature());
        assert_eq!(arena.peak_live_records(), 4);
    }

    /// A long replay promotes the materialised state into the path-cache;
    /// jumping away and back then walks only to the cached ancestor instead
    /// of the root.
    #[test]
    fn path_cache_shortens_replays_after_jumps() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let mut state = SearchState::initial(&problem);
        let mut id = arena.insert_root(state.clone());
        // A chain of depth 5 (>= promotion threshold).
        let mut ids = Vec::new();
        for _ in 0..5 {
            let n = state.ready_nodes(&problem)[0];
            let d = state.peek_child(&problem, n, ProcId(0), h);
            id = arena.insert_child(id, &d);
            state.apply_delta_in_place(&problem, &d);
            ids.push(id);
        }
        // Materialise the tip: replay of 5, promoted into the cache.
        assert_eq!(arena.materialise(id).depth(), 5);
        assert_eq!(arena.replayed_deltas(), 5);
        assert_eq!(arena.path_cache_hits(), 0);
        // Jump to a sibling branch (overwrites the scratch position)...
        let root_state = SearchState::initial(&problem);
        let sib_delta =
            root_state.peek_child(&problem, root_state.ready_nodes(&problem)[0], ProcId(1), h);
        let sib = arena.insert_child(0, &sib_delta);
        assert_eq!(arena.materialise(sib).depth(), 1);
        // ...then extend the tip: the walk stops at the cached tip, not root.
        let n = state.ready_nodes(&problem)[0];
        let d = state.peek_child(&problem, n, ProcId(1), h);
        let child = arena.insert_child(id, &d);
        let before = arena.replayed_deltas();
        let saved_before = arena.replayed_deltas_saved();
        assert_eq!(arena.materialise(child).depth(), 6);
        assert_eq!(arena.path_cache_hits(), 1, "the cached ancestor was found");
        assert_eq!(arena.path_cache_ancestor_hits(), 1, "a strict ancestor, not an exact id");
        assert_eq!(arena.replayed_deltas(), before + 1, "only the new delta was replayed");
        assert_eq!(
            arena.replayed_deltas_saved(),
            saved_before + 5,
            "the cached base's five deltas were not replayed"
        );
    }

    /// A replay long enough for midpoint promotion caches an intermediate
    /// ancestor: a later branch off the *middle* of the chain replays only
    /// from that ancestor instead of from the root or the far tip.
    #[test]
    fn midpoint_promotion_caches_an_interior_ancestor() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let mut state = SearchState::initial(&problem);
        let mut id = arena.insert_root(state.clone());
        // A chain of depth 8 (>= midpoint promotion threshold); remember the
        // state at depth 4 so we can branch off it later.
        let mut mid_state = None;
        let mut mid_id = 0;
        for depth in 1..=8 {
            let n = state.ready_nodes(&problem)[0];
            let d = state.peek_child(&problem, n, ProcId(0), h);
            id = arena.insert_child(id, &d);
            state.apply_delta_in_place(&problem, &d);
            if depth == 4 {
                mid_state = Some(state.clone());
                mid_id = id;
            }
        }
        let mid_state = mid_state.unwrap();
        assert_eq!(arena.materialise(id).depth(), 8);
        assert_eq!(arena.replayed_deltas(), 8);

        // Branch off the midpoint: the walk must stop at the promoted
        // interior ancestor (depth 4), replaying one delta, not eight.
        let n = mid_state.ready_nodes(&problem)[0];
        let d = mid_state.peek_child(&problem, n, ProcId(1), h);
        let branch = arena.insert_child(mid_id, &d);
        let before = arena.replayed_deltas();
        assert_eq!(arena.materialise(branch).depth(), 5);
        assert_eq!(arena.replayed_deltas(), before + 1, "replayed from the midpoint entry");
        assert_eq!(arena.path_cache_ancestor_hits(), 1);
        assert_eq!(arena.replayed_deltas_saved(), 4, "the midpoint's four deltas were saved");
    }

    /// Compaction truncates the trailing run of freed slots and returns the
    /// spare capacity, while every live id survives untouched.
    #[test]
    fn compact_shrinks_capacity_and_preserves_live_ids() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut arena = arena(&problem);
        let mut state = SearchState::initial(&problem);
        let mut id = arena.insert_root(state.clone());
        let keep = {
            let n = state.ready_nodes(&problem)[0];
            let d = state.peek_child(&problem, n, ProcId(1), h);
            arena.insert_child(id, &d)
        };
        let keep_sig = {
            let n = state.ready_nodes(&problem)[0];
            let d = state.peek_child(&problem, n, ProcId(1), h);
            state.apply_delta(&problem, &d).signature()
        };
        // Grow a long disposable chain past the kept child, then drain it.
        let mut ids = Vec::new();
        for _ in 0..6 {
            let n = state.ready_nodes(&problem)[0];
            let d = state.peek_child(&problem, n, ProcId(0), h);
            id = arena.insert_child(id, &d);
            state.apply_delta_in_place(&problem, &d);
            ids.push(id);
        }
        let grown = arena.len();
        assert_eq!(grown, 8);
        for dead in ids.iter().rev() {
            arena.release(*dead);
        }
        // The chain is gone but the slots (and their capacity) linger.
        assert_eq!(arena.live_records(), 2);
        assert_eq!(arena.len(), grown);

        arena.compact();
        assert_eq!(arena.len(), 2, "trailing free slots truncated");
        assert!(arena.capacity() < grown, "capacity given back: {}", arena.capacity());
        // The live child survives and still materialises correctly.
        assert_eq!(arena.materialise(keep).signature(), keep_sig);
        // New insertions extend the compacted vector cleanly.
        let tail = {
            let root_state = SearchState::initial(&problem);
            let n = root_state.ready_nodes(&problem)[0];
            let d = root_state.peek_child(&problem, n, ProcId(2), h);
            arena.insert_child(0, &d)
        };
        assert_eq!(arena.materialise(tail).depth(), 1);
    }

    /// The transfer-adoption path of the parallel scheduler: a full state
    /// adopted through its delta chain is re-rooted below slot 0 (no new live
    /// full state), materialises back to an identical state, and its
    /// descendants replay correctly.
    #[test]
    fn adopting_a_full_state_re_roots_it_without_live_fulls() {
        let mut rng = StdRng::seed_from_u64(9);
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 9, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;

        // Build a handful of "transferred" states by random walks.
        let mut transfers: Vec<SearchState> = Vec::new();
        for _ in 0..8 {
            let mut s = SearchState::initial(&problem);
            let depth = rng.gen_range(1..=6);
            for _ in 0..depth {
                let ready = s.ready_nodes(&problem);
                if ready.is_empty() {
                    break;
                }
                let n = ready[rng.gen_range(0..ready.len())];
                let p = ProcId(rng.gen_range(0..problem.num_procs()) as u32);
                s = s.schedule_node(&problem, n, p, h);
            }
            transfers.push(s);
        }

        let mut delta = arena(&problem);
        let root = delta.insert_root(SearchState::initial(&problem));
        assert_eq!(root, 0);
        let ids: Vec<StateId> =
            transfers.iter().map(|s| delta.adopt_chain(&s.to_delta_chain())).collect();
        // Re-rooting stores only delta records: still just the initial root
        // (plus at most one scratch state) live.
        assert!(delta.peak_live_full() <= 2, "peak {}", delta.peak_live_full());
        for (id, want) in ids.iter().zip(&transfers) {
            let got = delta.materialise_owned(*id);
            assert_eq!(got.signature(), want.signature());
            assert_eq!((got.g(), got.h(), got.depth()), (want.g(), want.h(), want.depth()));
            assert_eq!(got.max_finish_node(), want.max_finish_node());
            // A descendant of an adopted state replays through the chain.
            if let Some(&n) = want.ready_nodes(&problem).first() {
                let d = want.peek_child(&problem, n, ProcId(0), h);
                let child = delta.insert_child(*id, &d);
                assert_eq!(
                    delta.materialise(child).signature(),
                    want.apply_delta(&problem, &d).signature()
                );
            }
        }
    }

    /// Chain shipping round-trip: `extract_chain` on the sender equals the
    /// state's own decomposition, `adopt_chain` on the receiver rebuilds the
    /// identical state, and releasing the adopted tip reclaims the whole
    /// chain (intermediates hold no extra handles).
    #[test]
    fn extract_and_adopt_chain_round_trip_and_reclaim() {
        let mut rng = StdRng::seed_from_u64(21);
        let graph = generate_random_dag(
            &RandomDagConfig { nodes: 8, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;
        let mut state = SearchState::initial(&problem);
        for _ in 0..5 {
            let ready = state.ready_nodes(&problem);
            let n = ready[rng.gen_range(0..ready.len())];
            let p = ProcId(rng.gen_range(0..problem.num_procs()) as u32);
            state = state.schedule_node(&problem, n, p, h);
        }

        // Sender: the stored chain is extracted without materialising.
        let mut sender = arena(&problem);
        sender.insert_root(SearchState::initial(&problem));
        let sid = sender.adopt_chain(&state.to_delta_chain());
        let wire = sender.extract_chain(sid);
        assert_eq!(wire, state.to_delta_chain());
        sender.release(sid);
        assert_eq!(sender.live_records(), 1, "shipped chain reclaimed on the sender");

        // Receiver: the chain adopts into an identical state.
        let mut receiver = arena(&problem);
        let rid = receiver.adopt_chain(&wire);
        let got = receiver.materialise_owned(rid);
        assert_eq!(got.signature(), state.signature());
        assert_eq!((got.g(), got.h(), got.depth()), (state.g(), state.h(), state.depth()));
        receiver.release(rid);
        assert_eq!(receiver.live_records(), 1, "adopted chain reclaimed on the receiver");

        // The empty chain is the initial state (the pinned root).
        assert_eq!(receiver.adopt_chain(&[]), 0);
    }

    /// Snapshot adoption stores a deep transfer as ONE record, descendants
    /// replay from it, extraction splices its decomposition back into a
    /// root-anchored chain, and releasing it reclaims one record — no
    /// refcount cascade through a re-rooted chain.
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
        assert_eq!(delta.record_depth(id), state.depth() as usize);
        assert_eq!(delta.materialise(id).signature(), state.signature());

        // A descendant replays from the snapshot, not the distant root.
        let ready = state.ready_nodes(&problem);
        let d = state.peek_child(&problem, ready[0], ProcId(0), h);
        let child = delta.insert_child(id, &d);
        assert_eq!(delta.record_depth(child), state.depth() as usize + 1);
        let replayed_before = delta.replayed_deltas();
        let child_sig = delta.materialise(child).signature();
        assert_eq!(delta.replayed_deltas() - replayed_before, 1, "one delta above the snapshot");

        // Extraction splices the snapshot's decomposition back in: a fresh
        // receiver rebuilds the identical state from its own initial root.
        let wire = delta.extract_chain(child);
        assert_eq!(wire.len(), state.depth() as usize + 1);
        let mut receiver = arena(&problem);
        let rid = receiver.adopt_chain(&wire);
        assert_eq!(receiver.materialise(rid).signature(), child_sig);

        // Releasing the chain reclaims the snapshot with no cascade beyond it.
        delta.release(child);
        delta.release(id);
        assert_eq!(delta.live_records(), 1, "only the pinned root survives");

        // Depth-0 snapshots reuse the pinned root instead of duplicating it.
        let mut fresh = arena(&problem);
        assert_eq!(fresh.adopt_snapshot(SearchState::initial(&problem)), 0);
        assert_eq!(fresh.live_records(), 1);
    }

    /// Chain adoption is total: an empty arena seeds its own initial root,
    /// and one mis-seeded with a non-initial root refuses to replay chains
    /// onto the wrong base instead of corrupting state.
    #[test]
    fn adopt_seeds_an_empty_delta_arena_with_the_initial_root() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let deep = SearchState::initial(&problem)
            .schedule_node(&problem, optsched_taskgraph::NodeId(0), ProcId(0), h)
            .schedule_node(&problem, optsched_taskgraph::NodeId(1), ProcId(1), h);

        let mut arena = arena(&problem);
        let id = arena.adopt_chain(&deep.to_delta_chain());
        assert_eq!(arena.materialise(id).signature(), deep.signature());
        assert_eq!(arena.materialise(0).depth(), 0, "slot 0 is the seeded initial state");
    }

    #[test]
    #[should_panic(expected = "re-root adopted states at the initial state")]
    fn adopt_rejects_a_delta_arena_rooted_elsewhere() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let non_initial = SearchState::initial(&problem).schedule_node(
            &problem,
            optsched_taskgraph::NodeId(0),
            ProcId(0),
            h,
        );
        let mut arena = arena(&problem);
        arena.insert_root(non_initial.clone());
        let _ = arena.adopt_chain(&non_initial.to_delta_chain());
    }
}
