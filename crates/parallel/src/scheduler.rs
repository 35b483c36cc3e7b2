//! The thread-based parallel A* / Aε* scheduler.
//!
//! Every PPE (thread) runs the same best-first loop as the serial scheduler
//! on its private OPEN/CLOSED lists; the pieces that make it the *parallel*
//! algorithm of Section 3.3 are:
//!
//! * **Initial distribution** — the frontier obtained by repeatedly expanding
//!   the initial empty state until at least `q` states exist is dealt to the
//!   PPEs in the interleaved order of the paper (best to PPE 0, second best
//!   to PPE q−1, third to PPE 1, …), extras round-robin (cases 1–3).
//! * **Neighbour communication** — every `T` expansions a PPE runs a
//!   best-state election and balances OPEN sizes by dealing surplus states
//!   round-robin to deficit neighbours.  `T` starts at `v/2` and halves after
//!   every phase down to the configured floor.  In `Local` mode the election
//!   is the paper's: a *copy* of the best OPEN state goes to every neighbour
//!   (receivers may drop it as a duplicate).  In `ShardedGlobal` mode copies
//!   would always be dropped at the receiver (the signature is already
//!   claimed), so the election instead *transfers ownership*: the best state
//!   is popped and shipped — claim included — to the neighbour with the worst
//!   published frontier, and the receiver keeps it unconditionally (counted
//!   in [`SearchStats::election_transfers`], never in `duplicates_global`).
//! * **Goal broadcast / termination** — the best complete schedule lives in a
//!   shared incumbent; a PPE that can prove no open or in-flight state can
//!   beat the incumbent (within the ε bound, if any) raises the global
//!   termination flag.
//!
//! Each PPE stores its search frontier in a private [`StateArena`]: OPEN
//! holds arena ids ordered by `(f, h, FIFO)`, generated children live as
//! parent-id + [`ChildDelta`] records, and a full [`SearchState`] is built
//! only when a state is selected for expansion (scratch replay).  A shallow
//! state moves between PPEs as its *delta chain* (extracted without
//! materialising, re-rooted below the receiver's slot-0 initial state); one
//! deeper than four (`SNAPSHOT_DEPTH_THRESHOLD`) moves as a single snapshot.
//! Expanded, goal-popped and shipped-away states release their records, so
//! the record count tracks the live frontier instead of the whole history.
//! The `in_flight` gauge counts fixed-size *records* (one per scheduled node
//! of a chain, `v` per snapshot) so both transfer forms share one unit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use optsched_core::engine::{
    expand_state, ArenaConfig, DuplicateFilter, ExpansionContext, SignatureSet, StateArena,
    StateId,
};
use optsched_core::state::{ChildDelta, StateSignature};
use optsched_core::{SchedulingProblem, SearchOutcome, SearchState, SearchStats};
use optsched_obs as obs;
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::closed::{ClaimOutcome, DuplicateDetection, ShardedClosedTable};
use crate::config::ParallelConfig;
use crate::result::ParallelSearchResult;

/// Number of FOCAL candidates inspected per selection in the ε-bounded mode.
const FOCAL_SCAN_LIMIT: usize = 64;

/// An OPEN entry ordered by `(f, h, insertion counter)` ascending.  The
/// state itself lives in the PPE's [`StateArena`]; the entry carries only its
/// id plus the ordering key, so OPEN membership costs no live full state in
/// the delta layout.
struct HeapEntry {
    key: (Cost, Cost, u64),
    id: StateId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest key is on top.
        Reverse(self.key).cmp(&Reverse(other.key))
    }
}

/// Transfer depth at or below which a delta arena ships the raw chain; any
/// deeper and it materialises the state and ships one snapshot instead.  A
/// shallow chain is a couple of fixed-size records — cheaper than a clone on
/// both ends — but a deep one costs the receiver `d` record insertions plus a
/// refcount cascade of `d` releases when the state dies, which is what kept
/// transfer-heavy runs slow.  A snapshot adopts (and reclaims) as one record
/// and doubles as a nearby replay base for every descendant.
const SNAPSHOT_DEPTH_THRESHOLD: usize = 4;

/// Largest number of states the `ShardedGlobal` best-state election ships in
/// one phase when the receiver's published frontier minimum is *far* worse
/// than this PPE's best `f` (empty, or more than 25% above).  Every batch
/// member is still strictly better than the receiver's published minimum.
const ELECTION_BATCH: usize = 4;

/// The wire form of a state travelling between PPEs.
#[derive(Clone)]
enum Payload {
    /// A fully materialised clone — the form of states deeper than
    /// [`SNAPSHOT_DEPTH_THRESHOLD`] and of the initial distribution, adopted
    /// as a single snapshot record.
    Full(SearchState),
    /// A root-anchored delta chain (depth-ordered, last delta carries the
    /// state's true `g`/`h`) — the form of shallow states: at most
    /// [`SNAPSHOT_DEPTH_THRESHOLD`] fixed-size [`ChildDelta`] records,
    /// extracted from the sender's arena without materialising and re-rooted
    /// below the receiver's slot-0 initial state.
    Chain(Vec<ChildDelta>),
}

impl Payload {
    /// Channel footprint in fixed-size records: one per scheduled node of a
    /// chain, one per node (`v`) for a snapshot — the unit in which the
    /// `in_flight` gauge and its peak are kept.
    fn records(&self, problem: &SchedulingProblem) -> u64 {
        match self {
            Payload::Full(_) => problem.num_nodes() as u64,
            Payload::Chain(chain) => chain.len() as u64,
        }
    }

    /// `(f, g, h)` of the state this payload denotes, without materialising.
    fn costs(&self) -> (Cost, Cost, Cost) {
        match self {
            Payload::Full(s) => (s.f(), s.g(), s.h()),
            Payload::Chain(chain) => {
                let last = chain.last().expect("transfers never ship the depth-0 root");
                (last.f(), last.g, last.h)
            }
        }
    }

    /// True when the payload denotes a complete schedule.
    fn is_goal(&self, problem: &SchedulingProblem) -> bool {
        match self {
            Payload::Full(s) => s.is_goal(problem),
            Payload::Chain(chain) => chain.len() == problem.num_nodes(),
        }
    }

    /// The partial schedule's signature (chains fold their assignments onto
    /// the initial state's signature without building a full state).
    fn signature(&self, problem: &SchedulingProblem) -> StateSignature {
        match self {
            Payload::Full(s) => s.signature(),
            Payload::Chain(chain) => chain_signature(problem, chain),
        }
    }

    /// Rebuilds the full state (delta replay for chains).  Only needed on
    /// the rare goal-arrival path; everything else reads the payload as is.
    fn to_state(&self, problem: &SchedulingProblem) -> SearchState {
        match self {
            Payload::Full(s) => s.clone(),
            Payload::Chain(chain) => {
                let mut s = SearchState::initial(problem);
                for d in chain {
                    s.apply_delta_in_place(problem, d);
                }
                s
            }
        }
    }
}

/// Signature of the state a root-anchored delta chain denotes: the chain's
/// assignments folded onto the initial (empty) signature.
fn chain_signature(problem: &SchedulingProblem, chain: &[ChildDelta]) -> StateSignature {
    let mut sig = SearchState::initial(problem).signature();
    for d in chain {
        sig = sig.with_assignment(d.node, d.proc, d.start);
    }
    sig
}

/// A state travelling between PPEs.
struct Transfer {
    payload: Payload,
    /// True when the sender popped the state from its own OPEN list (load
    /// sharing, or the sharded-mode ownership-transferring election): the
    /// receiver is the state's new owner and must keep it.  False for the
    /// paper's copy-based election in `Local` mode, where the sender keeps
    /// its own copy — a receiver may freely drop it as a duplicate.
    owned: bool,
    /// True when the transfer was produced by the best-state election rather
    /// than load sharing.  Pure accounting (the ownership semantics above are
    /// untouched): accepted owned elections are counted in
    /// [`SearchStats::election_transfers`].
    election: bool,
}

/// Per-PPE view of duplicate detection: a private seen-set in `Local` mode,
/// or a handle to the shared sharded CLOSED table in `ShardedGlobal` mode.
///
/// This is the parallel scheduler's implementation of the engine's
/// [`DuplicateFilter`] hook: locally generated children flow through
/// [`expand_state`] and hit [`DuplicateFilter::admit`]; states arriving from
/// other PPEs go through [`DupFilter::admit_transfer`], which preserves the
/// claim-ownership semantics of the sharded table.
enum DupFilter<'t> {
    Local(SignatureSet),
    Global { table: &'t ShardedClosedTable, id: usize },
}

impl DuplicateFilter for DupFilter<'_> {
    /// Decides whether a state entering OPEN should be kept, updating the
    /// duplicate counters.
    fn admit(&mut self, sig: StateSignature, g: Cost, stats: &mut SearchStats) -> bool {
        match self {
            DupFilter::Local(seen) => seen.admit(sig, g, stats),
            DupFilter::Global { table, id } => match table.try_claim(sig, g, *id) {
                ClaimOutcome::Claimed => true,
                ClaimOutcome::DuplicateSameOwner => {
                    stats.duplicates += 1;
                    false
                }
                ClaimOutcome::DuplicateOtherOwner => {
                    stats.duplicates_global += 1;
                    false
                }
            },
        }
    }
}

impl DupFilter<'_> {
    /// Admission check for a state received from another PPE.
    /// `owned_transfer` marks a state whose ownership was just transferred
    /// by load sharing or by the sharded-mode best-state election: in global
    /// mode its signature is already claimed (by its generator) and the
    /// claim travels with the state, so it is admitted without consulting
    /// the table — dropping it there would lose the only live copy.  This is
    /// also why owned transfers can never be counted in
    /// `duplicates`/`duplicates_global`.
    fn admit_transfer(
        &mut self,
        sig: impl FnOnce() -> StateSignature,
        g: Cost,
        owned_transfer: bool,
        stats: &mut SearchStats,
    ) -> bool {
        if owned_transfer && matches!(self, DupFilter::Global { .. }) {
            return true;
        }
        self.admit(sig(), g, stats)
    }

    /// Called when a state is shipped away by load sharing or the sharded
    /// election.  In local mode the sender forgets the signature so the state
    /// is accepted back should another PPE return it (two PPEs exchanging
    /// their copies of one state must not both drop it).  In global mode the
    /// claim stays in the table and simply travels with the state (the
    /// signature closure is never evaluated).
    fn release(&mut self, sig: impl FnOnce() -> StateSignature) {
        if let DupFilter::Local(seen) = self {
            seen.remove(&sig());
        }
    }
}

/// State shared by all PPE threads.
struct Shared {
    /// Best complete schedule known so far and its length.
    incumbent: Mutex<(Cost, Schedule)>,
    /// Lock-free mirror of the incumbent length.  Read on every generated
    /// state for upper-bound pruning and on every loop iteration for the
    /// termination test; taking the mutex there serialises all PPEs and
    /// makes the parallel search slower than the serial one.  The mirror is
    /// updated inside the incumbent lock, so it can only lag behind by being
    /// *larger* than the true incumbent for a moment — a stale (looser)
    /// bound never prunes a state it should not and never terminates early.
    incumbent_len: AtomicU64,
    /// Smallest f in each PPE's OPEN list (u64::MAX when empty).
    local_min_f: Vec<AtomicU64>,
    /// Size of each PPE's OPEN list (for load sharing).
    open_sizes: Vec<AtomicUsize>,
    /// Fixed-size state records currently travelling between PPEs (one per
    /// scheduled node of a shipped delta chain, `v` per snapshot).  Zero
    /// exactly when no transfer is outstanding, which is all the termination
    /// test needs.
    in_flight: AtomicI64,
    /// High-water mark of `in_flight`: the most transfer *records* that were
    /// ever parked in the channels at once.  Those records are owned by no
    /// PPE's state store, so folding this gauge into the result's
    /// [`ParallelSearchResult::peak_live_states`] is what makes the memory
    /// headline airtight under eager communication.
    in_flight_peak: AtomicU64,
    /// Global stop flag.
    terminate: AtomicBool,
    /// Set when a resource limit caused the stop.
    limit_hit: AtomicBool,
    /// Set when the target cost caused the stop.
    target_hit: AtomicBool,
    /// Expansions across all PPEs (for the global expansion limit).
    total_expanded: AtomicU64,
    /// Generations across all PPEs (for the global generation limit).
    total_generated: AtomicU64,
    /// The sharded global CLOSED table (`None` in `Local` mode).
    closed: Option<ShardedClosedTable>,
}

impl Shared {
    fn new(q: usize, incumbent_len: Cost, incumbent: Schedule, closed: Option<ShardedClosedTable>) -> Shared {
        Shared {
            incumbent: Mutex::new((incumbent_len, incumbent)),
            incumbent_len: AtomicU64::new(incumbent_len),
            local_min_f: (0..q).map(|_| AtomicU64::new(u64::MAX)).collect(),
            open_sizes: (0..q).map(|_| AtomicUsize::new(0)).collect(),
            in_flight: AtomicI64::new(0),
            in_flight_peak: AtomicU64::new(0),
            terminate: AtomicBool::new(false),
            limit_hit: AtomicBool::new(false),
            target_hit: AtomicBool::new(false),
            total_expanded: AtomicU64::new(0),
            total_generated: AtomicU64::new(0),
            closed,
        }
    }

    /// Current incumbent length, without taking the lock.
    fn incumbent_len(&self) -> Cost {
        self.incumbent_len.load(Ordering::SeqCst)
    }

    /// Registers `records` more state records entering the channels,
    /// updating the in-flight high-water mark.  Every send site must use
    /// this (and undo with a plain `fetch_sub` of the same amount on a
    /// failed send), and every receive must subtract exactly the payload's
    /// record count, so the gauge and its peak never diverge.
    fn in_flight_add(&self, records: u64) {
        let now = self.in_flight.fetch_add(records as i64, Ordering::SeqCst) + records as i64;
        if now > 0 {
            self.in_flight_peak.fetch_max(now as u64, Ordering::SeqCst);
        }
    }

    /// Installs `schedule` (built lazily) as the incumbent if `len` improves
    /// on the best complete schedule known so far.
    fn offer_incumbent(&self, len: Cost, schedule: impl FnOnce() -> Schedule) {
        if len >= self.incumbent_len() {
            return;
        }
        let mut inc = self.incumbent.lock();
        if len < inc.0 {
            *inc = (len, schedule());
            self.incumbent_len.store(len, Ordering::SeqCst);
        }
    }
}

/// Parallel A* (and Aε*) scheduler over a virtual PPE network.
#[derive(Debug, Clone)]
pub struct ParallelAStarScheduler<'a> {
    problem: &'a SchedulingProblem,
    config: ParallelConfig,
}

impl<'a> ParallelAStarScheduler<'a> {
    /// Creates a scheduler for `problem` with the given parallel configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_ppes == 0` or if a configured ε is negative.
    pub fn new(problem: &'a SchedulingProblem, config: ParallelConfig) -> Self {
        assert!(config.num_ppes >= 1, "at least one PPE is required");
        if let Some(eps) = config.epsilon {
            assert!(eps.is_finite() && eps >= 0.0, "epsilon must be non-negative");
        }
        ParallelAStarScheduler { problem, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Builds the initial work distribution (Section 3.3, cases 1–3):
    /// repeatedly expands the lowest-cost frontier state, starting from the
    /// empty schedule, until at least `q` states exist (or nothing is left to
    /// expand), then deals the frontier out in the interleaved order.
    fn initial_distribution(&self, stats: &mut SearchStats) -> Vec<Vec<SearchState>> {
        let q = self.config.num_ppes;
        let mut frontier: Vec<SearchState> = Vec::new();

        let initial = SearchState::initial(self.problem);
        let mut to_expand = vec![initial];
        while frontier.len() + to_expand.len() < q.max(1) && !to_expand.is_empty() {
            // Expand the most promising expandable state.
            to_expand.sort_by_key(|s| Reverse(s.f()));
            let state = to_expand.pop().expect("loop guard ensures non-empty");
            if state.is_goal(self.problem) {
                frontier.push(state);
                continue;
            }
            stats.expanded += 1;
            for (node, proc) in
                state.expansion_candidates(self.problem, &self.config.pruning, stats)
            {
                let child = state.schedule_node(self.problem, node, proc, self.config.heuristic);
                stats.heuristic_evaluations += 1;
                stats.generated += 1;
                to_expand.push(child);
            }
        }
        frontier.extend(to_expand);
        // Sort by increasing cost and deal out: best -> PPE 0, next -> PPE q-1,
        // then PPE 1, PPE q-2, ... and the extras round-robin.
        frontier.sort_by_key(|s| (s.f(), s.h()));
        let mut buckets: Vec<Vec<SearchState>> = vec![Vec::new(); q];
        for (j, state) in frontier.into_iter().enumerate() {
            let target = if j < q {
                if j % 2 == 0 {
                    j / 2
                } else {
                    q - 1 - j / 2
                }
            } else {
                j % q
            };
            buckets[target].push(state);
        }
        buckets
    }

    /// Runs the parallel search and returns the best schedule with per-PPE
    /// statistics.
    pub fn run(&self) -> ParallelSearchResult {
        let start = Instant::now();
        let cfg = self.config;
        let q = cfg.num_ppes;

        let mut setup_stats = SearchStats::default();
        let buckets = self.initial_distribution(&mut setup_stats);

        let ub_schedule = self.problem.upper_bound_schedule().clone();
        let closed = match cfg.duplicate_detection {
            DuplicateDetection::Local => None,
            DuplicateDetection::ShardedGlobal => Some(ShardedClosedTable::new(cfg.num_shards)),
        };
        let shared = Shared::new(q, ub_schedule.makespan(), ub_schedule, closed);
        // Seed every PPE's published frontier cost from its initial bucket so
        // that no thread can observe an all-empty frontier (and terminate)
        // before the other threads have published their real minima.
        for (i, bucket) in buckets.iter().enumerate() {
            let min_f = bucket.iter().map(|s| s.f()).min().unwrap_or(u64::MAX);
            shared.local_min_f[i].store(min_f, Ordering::SeqCst);
        }
        let neighbors = cfg.ppe_neighbors();
        let deadline = cfg.limits.max_millis.map(|ms| start + Duration::from_millis(ms));

        let channels: Vec<(Sender<Transfer>, Receiver<Transfer>)> =
            (0..q).map(|_| unbounded()).collect();
        let txs: Vec<Sender<Transfer>> = channels.iter().map(|(t, _)| t.clone()).collect();
        let mut rxs: Vec<Option<Receiver<Transfer>>> =
            channels.into_iter().map(|(_, r)| Some(r)).collect();

        let mut per_ppe_stats: Vec<SearchStats> = Vec::with_capacity(q);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(q);
            for (id, bucket) in buckets.into_iter().enumerate() {
                let rx = rxs[id].take().expect("one receiver per PPE");
                let txs = txs.clone();
                let shared = &shared;
                let neighbors = neighbors[id].clone();
                let problem = self.problem;
                handles.push(scope.spawn(move || {
                    ppe_worker(id, problem, &cfg, &neighbors, shared, rx, &txs, bucket, deadline)
                }));
            }
            for h in handles {
                per_ppe_stats.push(h.join().expect("PPE thread panicked"));
            }
        });

        // Attribute the setup expansion work to PPE 0 so no counted state is lost.
        if let Some(first) = per_ppe_stats.first_mut() {
            first.merge(&setup_stats);
        }

        let closed_stats = shared.closed.as_ref().map(|t| t.stats());
        let (len, schedule) = shared.incumbent.into_inner();
        debug_assert_eq!(len, schedule.makespan());
        let outcome = if shared.limit_hit.load(Ordering::SeqCst) {
            SearchOutcome::LimitReached
        } else if shared.target_hit.load(Ordering::SeqCst) {
            SearchOutcome::TargetReached
        } else {
            SearchOutcome::Optimal
        };

        ParallelSearchResult {
            schedule,
            outcome,
            per_ppe_stats,
            closed_stats,
            elapsed: start.elapsed(),
            num_ppes: q,
            peak_in_flight: shared.in_flight_peak.load(Ordering::SeqCst),
        }
    }
}

/// Selects the next state to expand: plain best-first for the exact search,
/// or a FOCAL-style "deepest state within (1+ε)·fmin" for the ε-bounded one.
fn select_state(open: &mut BinaryHeap<HeapEntry>, epsilon: Option<f64>) -> HeapEntry {
    let Some(eps) = epsilon else {
        return open.pop().expect("select_state called on a non-empty OPEN");
    };
    let fmin = open.peek().expect("non-empty OPEN").key.0;
    let threshold = (fmin as f64 * (1.0 + eps)).floor() as Cost;
    let mut focal: Vec<HeapEntry> = Vec::new();
    while focal.len() < FOCAL_SCAN_LIMIT {
        match open.peek() {
            Some(e) if e.key.0 <= threshold => focal.push(open.pop().expect("peeked")),
            _ => break,
        }
    }
    // Pick the FOCAL member with the smallest h (closest to a goal).
    let best_idx = focal
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.key.1, e.key.0, e.key.2))
        .map(|(i, _)| i)
        .expect("focal contains at least the fmin state");
    let chosen = focal.swap_remove(best_idx);
    for e in focal {
        open.push(e);
    }
    chosen
}

/// The per-PPE search loop.
#[allow(clippy::too_many_arguments)]
fn ppe_worker(
    id: usize,
    problem: &SchedulingProblem,
    cfg: &ParallelConfig,
    neighbors: &[usize],
    shared: &Shared,
    rx: Receiver<Transfer>,
    txs: &[Sender<Transfer>],
    initial: Vec<SearchState>,
    deadline: Option<Instant>,
) -> SearchStats {
    // Observability: each PPE gets its own timeline track — a span covering
    // the worker's lifetime plus instants on elections, transfers and the
    // end-of-run duplicate tally.  Disabled cost: one relaxed load per site.
    let obs_track = if obs::enabled() { obs::next_track() } else { 0 };
    let _obs_span = obs::span("ppe", obs_track).with_arg("ppe", id as u64);
    let mut stats = SearchStats::default();
    let mut open: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut arena = StateArena::new(problem, ArenaConfig);
    // Slot 0 is the problem's initial (empty) state: chains received from
    // other PPEs are re-rooted below it.
    arena.insert_root(SearchState::initial(problem));
    let mut dup = match &shared.closed {
        Some(table) => DupFilter::Global { table, id },
        None => DupFilter::Local(SignatureSet::new()),
    };
    let mut counter: u64 = 0;

    let bound_factor = cfg.epsilon.map_or(1.0, |e| 1.0 + e);
    let v = problem.num_nodes() as u64;
    let goal_depth = problem.num_nodes() as u16;
    let mut comm_period = (v / 2).max(cfg.min_comm_period);
    let mut since_comm: u64 = 0;
    let mut idle_spins: u32 = 0;

    /// How a state arrives from outside this PPE's own expansions; governs
    /// the ownership semantics of duplicate detection.  (Locally generated
    /// children do not pass through here — they flow through the engine's
    /// [`expand_state`] pipeline below.)
    enum Arrival {
        /// Dealt out by the initial distribution.
        Initial,
        /// A best-state election copy from a neighbour (`Local` mode: the
        /// sender keeps its own copy, so dropping this one as a duplicate is
        /// always safe).
        ElectionCopy,
        /// A load-sharing transfer: the sender gave up its copy, this PPE is
        /// now the sole owner and must keep the state.
        OwnedTransfer,
        /// An ownership-transferring election (`ShardedGlobal` mode): like
        /// [`Arrival::OwnedTransfer`], but counted separately so the
        /// election's effectiveness is observable.
        ElectionTransfer,
    }

    let push_transfer = |open: &mut BinaryHeap<HeapEntry>,
                             arena: &mut StateArena<'_>,
                             dup: &mut DupFilter<'_>,
                             counter: &mut u64,
                             stats: &mut SearchStats,
                             payload: Payload,
                             arrival: Arrival| {
        let (f, g, h) = payload.costs();
        if cfg.pruning.upper_bound_pruning && f > shared.incumbent_len() {
            stats.pruned_upper_bound += 1;
            return;
        }
        let owned_transfer =
            matches!(arrival, Arrival::OwnedTransfer | Arrival::ElectionTransfer);
        if !dup.admit_transfer(|| payload.signature(problem), g, owned_transfer, stats) {
            return;
        }
        if matches!(arrival, Arrival::ElectionTransfer) {
            stats.election_transfers += 1;
        }
        if payload.is_goal(problem) {
            shared.offer_incumbent(g, || payload.to_state(problem).to_schedule(problem));
        }
        *counter += 1;
        let key = (f, h, *counter);
        let id = match payload {
            Payload::Full(state) => arena.adopt_snapshot(state),
            Payload::Chain(chain) => arena.adopt_chain(&chain),
        };
        open.push(HeapEntry { key, id });
    };

    for s in initial {
        push_transfer(
            &mut open,
            &mut arena,
            &mut dup,
            &mut counter,
            &mut stats,
            Payload::Full(s),
            Arrival::Initial,
        );
    }

    let mut kept: Vec<(ChildDelta, Cost)> = Vec::new();
    loop {
        if shared.terminate.load(Ordering::SeqCst) {
            break;
        }

        // Import states sent by neighbours.  The published minimum and the
        // in-flight counter are updated in an order that never lets another
        // PPE observe "nothing in flight" while this state is still invisible.
        while let Ok(t) = rx.try_recv() {
            let records = t.payload.records(problem) as i64;
            let arrival = match (t.owned, t.election) {
                (true, true) => Arrival::ElectionTransfer,
                (true, false) => Arrival::OwnedTransfer,
                (false, _) => Arrival::ElectionCopy,
            };
            let arrival_name = match arrival {
                Arrival::ElectionCopy | Arrival::ElectionTransfer => "election_in",
                _ => "transfer_in",
            };
            obs::instant(arrival_name, obs_track, "records", records as u64);
            push_transfer(&mut open, &mut arena, &mut dup, &mut counter, &mut stats, t.payload, arrival);
            let min_f = open.peek().map_or(u64::MAX, |e| e.key.0);
            shared.local_min_f[id].store(min_f, Ordering::SeqCst);
            shared.in_flight.fetch_sub(records, Ordering::SeqCst);
        }

        // Publish this PPE's frontier cost and OPEN size.
        let min_f = open.peek().map_or(u64::MAX, |e| e.key.0);
        shared.local_min_f[id].store(min_f, Ordering::SeqCst);
        shared.open_sizes[id].store(open.len(), Ordering::Relaxed);
        stats.max_open_size = stats.max_open_size.max(open.len());

        // Global termination test: nothing in flight and no frontier state
        // anywhere can improve on the incumbent (within the ε bound).
        let incumbent_len = shared.incumbent_len();
        if shared.in_flight.load(Ordering::SeqCst) == 0 {
            let global_min = shared
                .local_min_f
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .min()
                .unwrap_or(u64::MAX);
            let done = global_min == u64::MAX
                || (incumbent_len as f64) <= bound_factor * (global_min as f64);
            if done {
                shared.terminate.store(true, Ordering::SeqCst);
                break;
            }
        }

        // Resource limits (evaluated on the global counters).
        if let Some(max_exp) = cfg.limits.max_expansions {
            if shared.total_expanded.load(Ordering::Relaxed) >= max_exp {
                shared.limit_hit.store(true, Ordering::SeqCst);
                shared.terminate.store(true, Ordering::SeqCst);
                break;
            }
        }
        if let Some(max_gen) = cfg.limits.max_generated {
            if shared.total_generated.load(Ordering::Relaxed) >= max_gen {
                shared.limit_hit.store(true, Ordering::SeqCst);
                shared.terminate.store(true, Ordering::SeqCst);
                break;
            }
        }
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                shared.limit_hit.store(true, Ordering::SeqCst);
                shared.terminate.store(true, Ordering::SeqCst);
                break;
            }
        }
        if let Some(target) = cfg.limits.target_cost {
            if incumbent_len <= target {
                shared.target_hit.store(true, Ordering::SeqCst);
                shared.terminate.store(true, Ordering::SeqCst);
                break;
            }
        }

        if open.is_empty() {
            // Idle: wait for work from neighbours or for global termination.
            idle_spins += 1;
            if idle_spins > 64 {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        idle_spins = 0;

        let entry = select_state(&mut open, cfg.epsilon);
        kept.clear();
        let mut popped_goal = false;
        {
            // Materialise the selected state (scratch replay); the borrow
            // lasts until the children collected in `kept` are stored,
            // mirroring the serial engine's loop.
            let state = arena.materialise(entry.id);
            if state.is_goal(problem) {
                // Goal broadcast: publish and keep searching until the global
                // termination condition proves it cannot be beaten.
                shared.offer_incumbent(state.g(), || state.to_schedule(problem));
                popped_goal = true;
            } else {
                stats.expanded += 1;
                shared.total_expanded.fetch_add(1, Ordering::Relaxed);
                since_comm += 1;

                // Locally generated children flow through the engine's shared
                // admission pipeline: each candidate is evaluated
                // allocation-free, pruned against the shared incumbent, and
                // claimed through the duplicate-detection hook (private set
                // or sharded global table); only survivors are stored, as
                // delta records.
                expand_state(
                    ExpansionContext { problem, pruning: &cfg.pruning, heuristic: cfg.heuristic },
                    state,
                    &mut dup,
                    &mut stats,
                    |_parent, delta, _stats| {
                        let f = delta.f();
                        (!cfg.pruning.upper_bound_pruning || f <= shared.incumbent_len())
                            .then_some(f)
                    },
                    |parent, delta, f, _stats| {
                        if parent.depth() + 1 == goal_depth {
                            shared.offer_incumbent(delta.g, || {
                                parent.apply_delta(problem, &delta).to_schedule(problem)
                            });
                        }
                        kept.push((delta, f));
                    },
                );
            }
        }
        for &(delta, f) in &kept {
            counter += 1;
            stats.generated += 1;
            shared.total_generated.fetch_add(1, Ordering::Relaxed);
            let child = arena.insert_child(entry.id, &delta);
            open.push(HeapEntry { key: (f, delta.h, counter), id: child });
        }
        // The popped state's own handle is done: children hold their own
        // references up the chain, so dead subtrees (no surviving children)
        // release their records here.
        arena.release(entry.id);
        if popped_goal {
            // Goal pops never trigger the communication phase (unchanged
            // from the pre-reclamation loop).
            continue;
        }

        // Communication phase: neighbour exchange + round-robin load sharing.
        if since_comm >= comm_period && !neighbors.is_empty() {
            since_comm = 0;
            comm_period = (comm_period / 2).max(cfg.min_comm_period);

            // Best-state election.
            match cfg.duplicate_detection {
                DuplicateDetection::Local => {
                    // The paper's election: offer a *copy* of this PPE's best
                    // state to every neighbour (each receiver keeps or drops
                    // it through its own duplicate detection).  A shallow
                    // state ships as its chain without materialising it, a
                    // deep one as a single snapshot.
                    if let Some(best) = open.peek() {
                        let payload = extract_payload(&mut arena, best.id);
                        let records = payload.records(problem);
                        for &nb in neighbors {
                            shared.in_flight_add(records);
                            let copy = Transfer {
                                payload: payload.clone(),
                                owned: false,
                                election: true,
                            };
                            if txs[nb].send(copy).is_err() {
                                shared.in_flight.fetch_sub(records as i64, Ordering::SeqCst);
                            }
                        }
                        obs::instant("election_send", obs_track, "copies", neighbors.len() as u64);
                    }
                }
                DuplicateDetection::ShardedGlobal => {
                    // Ownership-transferring election: a copy would reach the
                    // receiver with an already-claimed signature and be
                    // dropped on arrival, so instead *give away* the best
                    // state (claim travels with it, see `DupFilter::release`)
                    // to the neighbour whose published frontier is worst —
                    // and only to one that actually profits, i.e. whose
                    // frontier minimum is strictly worse than this state.
                    // The receiver force-keeps it; nothing is wasted.  When
                    // the receiver's frontier is *far* worse (empty, or more
                    // than 25% above this PPE's best f), one state will not
                    // keep it busy: ship a k-best batch, every member still
                    // strictly better than the receiver's published minimum.
                    if let Some(best) = open.peek() {
                        let best_f = best.key.0;
                        let target = neighbors
                            .iter()
                            .map(|&nb| (shared.local_min_f[nb].load(Ordering::SeqCst), Reverse(nb)))
                            .filter(|&(min_f, _)| min_f > best_f)
                            .max();
                        if let Some((nb_min_f, Reverse(nb))) = target {
                            let far_worse =
                                nb_min_f == u64::MAX || nb_min_f > best_f + (best_f >> 2);
                            let batch = if far_worse { ELECTION_BATCH } else { 1 };
                            let mut shipped = 0u64;
                            for _ in 0..batch {
                                if !open.peek().is_some_and(|e| e.key.0 < nb_min_f) {
                                    break;
                                }
                                let e = open.pop().expect("peeked a qualifying state above");
                                let payload = extract_owned(problem, &mut arena, &mut dup, e.id);
                                let records = payload.records(problem);
                                shared.in_flight_add(records);
                                let t = Transfer { payload, owned: true, election: true };
                                if txs[nb].send(t).is_err() {
                                    shared.in_flight.fetch_sub(records as i64, Ordering::SeqCst);
                                }
                                shipped += 1;
                            }
                            obs::instant("election_send", obs_track, "states", shipped);
                        }
                    }
                }
            }

            // Round-robin load sharing of surplus states to deficit neighbours.
            let neighbor_sizes: Vec<(usize, usize)> = neighbors
                .iter()
                .map(|&nb| (nb, shared.open_sizes[nb].load(Ordering::Relaxed)))
                .collect();
            let total: usize =
                open.len() + neighbor_sizes.iter().map(|&(_, s)| s).sum::<usize>();
            let avg = total / (neighbor_sizes.len() + 1);
            if open.len() > avg + 1 {
                let deficits: Vec<usize> = neighbor_sizes
                    .iter()
                    .filter(|&&(_, s)| s < avg)
                    .map(|&(nb, _)| nb)
                    .collect();
                if !deficits.is_empty() {
                    let surplus = open.len() - avg;
                    // Keep the best state locally; deal the following ones out.
                    let keep = open.pop();
                    let mut sent = 0usize;
                    let mut outgoing: Vec<StateId> = Vec::with_capacity(surplus);
                    while sent < surplus {
                        match open.pop() {
                            Some(e) => {
                                outgoing.push(e.id);
                                sent += 1;
                            }
                            None => break,
                        }
                    }
                    if let Some(k) = keep {
                        open.push(k);
                    }
                    for (i, sid) in outgoing.into_iter().enumerate() {
                        // Chain-on-send: a shallow state leaves as its delta
                        // chain, a deep one as a snapshot.  Shipping transfers
                        // ownership (see
                        // `DupFilter::release`): the receiver force-inserts
                        // it, so the sole live copy of a claimed signature is
                        // never dropped by both sides of an exchange.
                        let payload = extract_owned(problem, &mut arena, &mut dup, sid);
                        let records = payload.records(problem);
                        let target = deficits[i % deficits.len()];
                        shared.in_flight_add(records);
                        let t = Transfer { payload, owned: true, election: false };
                        if txs[target].send(t).is_err() {
                            shared.in_flight.fetch_sub(records as i64, Ordering::SeqCst);
                        }
                    }
                    obs::instant("load_share", obs_track, "states", sent as u64);
                }
            }
        }
    }

    // The arena is the PPE's only holder of full states: root, scratch and
    // adopted snapshots (nothing per OPEN entry).  The record counters report
    // the O(live frontier) behaviour of the refcounted store and the replay
    // work behind it.
    arena.record_stats(&mut stats);
    obs::instant(
        "ppe_done",
        obs_track,
        "duplicates",
        stats.duplicates + stats.duplicates_global,
    );
    stats
}

/// Builds the wire form of state `id` without disturbing the sender's store:
/// a shallow state leaves as its raw chain, a deep one (past
/// [`SNAPSHOT_DEPTH_THRESHOLD`]) as a materialised snapshot clone.
fn extract_payload(arena: &mut StateArena<'_>, id: StateId) -> Payload {
    if arena.record_depth(id) <= SNAPSHOT_DEPTH_THRESHOLD {
        Payload::Chain(arena.extract_chain(id))
    } else {
        Payload::Full(arena.materialise_owned(id))
    }
}

/// Pops state `id` out of the sender's store for an ownership transfer (wire
/// form per [`extract_payload`]).  The sender's duplicate bookkeeping forgets
/// the signature (`Local` mode only — in `ShardedGlobal` mode the claim
/// travels with the state) and the state's arena records are released: from
/// here on the payload in the channel is the state's only live copy.
fn extract_owned(
    problem: &SchedulingProblem,
    arena: &mut StateArena<'_>,
    dup: &mut DupFilter<'_>,
    id: StateId,
) -> Payload {
    let payload = extract_payload(arena, id);
    dup.release(|| payload.signature(problem));
    arena.release(id);
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_core::{AStarScheduler, PruningConfig, SearchLimits};
    use optsched_procnet::{ProcNetwork, Topology};
    use optsched_taskgraph::paper_example_dag;
    use optsched_workload::{generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn parallel_finds_14_on_the_example_for_various_ppe_counts() {
        let prob = example_problem();
        for q in [1, 2, 3, 4, 8] {
            let r = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(q)).run();
            assert!(r.is_optimal(), "q={q}");
            assert_eq!(r.schedule_length(), 14, "q={q}");
            r.schedule.validate(prob.graph(), prob.network()).unwrap();
            assert_eq!(r.num_ppes, q);
            assert_eq!(r.per_ppe_stats.len(), q);
        }
    }

    #[test]
    fn parallel_matches_serial_on_random_graphs() {
        // Seed picked so the three CCR instances stay small enough for the
        // exact searches on a single-core host (vendored RNG stream).
        let mut rng = StdRng::seed_from_u64(11);
        for ccr in [0.1, 1.0, 10.0] {
            let g = generate_random_dag(
                &RandomDagConfig { nodes: 10, ccr, ..Default::default() },
                &mut rng,
            );
            let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
            let serial = AStarScheduler::new(&prob).run();
            let parallel =
                ParallelAStarScheduler::new(&prob, ParallelConfig::exact(4)).run();
            assert!(serial.is_optimal() && parallel.is_optimal());
            assert_eq!(serial.schedule_length, parallel.schedule_length(), "ccr={ccr}");
            parallel.schedule.validate(prob.graph(), prob.network()).unwrap();
        }
    }

    #[test]
    fn mesh_topology_like_the_paragon_works() {
        let prob = example_problem();
        let r = ParallelAStarScheduler::new(&prob, ParallelConfig::paragon_like(4)).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length(), 14);
    }

    #[test]
    fn ring_topology_works() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 4,
            ppe_topology: Some(Topology::Ring),
            ..Default::default()
        };
        let r = ParallelAStarScheduler::new(&prob, cfg).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length(), 14);
    }

    #[test]
    fn parallel_aeps_respects_the_bound() {
        // Small, well-conditioned instance: the parallel search repeats most
        // of the serial work per PPE, so a 12-node graph here dominated the
        // whole suite's runtime.
        let mut rng = StdRng::seed_from_u64(42);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
        let optimal = AStarScheduler::new(&prob).run();
        for eps in [0.2, 0.5] {
            let r = ParallelAStarScheduler::new(&prob, ParallelConfig::approximate(4, eps)).run();
            assert!(r.is_optimal());
            let bound = (optimal.schedule_length as f64 * (1.0 + eps)).floor() as Cost;
            assert!(
                r.schedule_length() <= bound,
                "eps={eps}: {} > {}",
                r.schedule_length(),
                bound
            );
            r.schedule.validate(prob.graph(), prob.network()).unwrap();
        }
    }

    #[test]
    fn without_pruning_the_parallel_search_is_still_exact() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 3,
            pruning: PruningConfig::none(),
            ..Default::default()
        };
        let r = ParallelAStarScheduler::new(&prob, cfg).run();
        assert!(r.is_optimal());
        assert_eq!(r.schedule_length(), 14);
    }

    #[test]
    fn expansion_limit_reports_limit_reached() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 2,
            limits: SearchLimits::expansions(1),
            ..Default::default()
        };
        let r = ParallelAStarScheduler::new(&prob, cfg).run();
        // The incumbent from the list heuristic is always available.
        r.schedule.validate(prob.graph(), prob.network()).unwrap();
        assert!(matches!(r.outcome, SearchOutcome::LimitReached | SearchOutcome::Optimal));
    }

    #[test]
    fn target_cost_stops_early() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 2,
            limits: SearchLimits { target_cost: Some(prob.upper_bound()), ..Default::default() },
            ..Default::default()
        };
        let r = ParallelAStarScheduler::new(&prob, cfg).run();
        assert!(matches!(r.outcome, SearchOutcome::TargetReached | SearchOutcome::Optimal));
        assert!(r.schedule_length() <= prob.upper_bound());
    }

    #[test]
    fn total_stats_cover_the_whole_search() {
        let prob = example_problem();
        let r = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(2)).run();
        let total = r.total_stats();
        assert!(total.generated > 0);
        assert!(total.expanded > 0);
        assert!(total.reclaimed_records > 0, "the default run reclaims dead records");
        assert!(
            total.peak_live_records < total.generated,
            "live records stay below the total ever generated"
        );
        assert!(r.load_imbalance() >= 1.0);
        assert!(r.elapsed.as_secs() < 30);
    }

    #[test]
    #[should_panic(expected = "at least one PPE")]
    fn zero_ppes_rejected() {
        let prob = example_problem();
        let _ = ParallelAStarScheduler::new(&prob, ParallelConfig { num_ppes: 0, ..Default::default() });
    }

    #[test]
    fn local_mode_matches_sharded_mode_on_the_example() {
        let prob = example_problem();
        for q in [1, 2, 4] {
            for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
                let cfg = ParallelConfig::exact(q).with_duplicate_detection(mode);
                let r = ParallelAStarScheduler::new(&prob, cfg).run();
                assert!(r.is_optimal(), "q={q} mode={mode}");
                assert_eq!(r.schedule_length(), 14, "q={q} mode={mode}");
                // The table statistics are reported exactly when the table exists.
                assert_eq!(r.closed_stats.is_some(), mode == DuplicateDetection::ShardedGlobal);
                if mode == DuplicateDetection::Local {
                    assert_eq!(r.redundant_expansions_avoided(), 0);
                }
            }
        }
    }

    /// Cross-checks the sharded table's counters against the per-PPE stats:
    /// every claim that inserted an entry is a miss, every dropped duplicate
    /// (local or cross-PPE) is a hit, and nothing else touches the table.
    #[test]
    fn sharded_table_counters_reconcile_with_ppe_stats() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let prob = SchedulingProblem::new(g, ProcNetwork::fully_connected(3));
        let cfg = ParallelConfig { num_ppes: 4, min_comm_period: 1, ..Default::default() };
        let r = ParallelAStarScheduler::new(&prob, cfg).run();
        assert!(r.is_optimal());

        let table = r.closed_stats.as_ref().expect("sharded mode reports table stats");
        assert_eq!(table.num_shards(), 16);
        assert_eq!(
            table.total_entries() as u64,
            table.total_misses(),
            "every successful claim inserts exactly one entry"
        );
        // Exact signatures imply equal g, so the defensive better-g re-open
        // path must never fire in a real search.
        assert_eq!(table.total_reopens(), 0);
        let total = r.total_stats();
        assert_eq!(
            table.total_hits(),
            total.duplicates + total.duplicates_global,
            "every table hit is counted as a duplicate by exactly one PPE"
        );
        assert!(table.total_hits() > 0, "a contended run must drop duplicates");
        assert!(r.redundant_expansions_avoided() > 0);
        // The striping actually spreads load: more than one shard is touched.
        assert!(table.per_shard.iter().filter(|s| s.entries > 0).count() > 1);
    }

    /// Stress the shared table through the real PPE loop: repeated contended
    /// runs on the single-core host must stay optimal with consistent
    /// counters in every interleaving.
    #[test]
    fn sharded_mode_is_stable_across_repeated_contended_runs() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 4,
            min_comm_period: 1,
            num_shards: 2,
            ..Default::default()
        };
        for run in 0..5 {
            let r = ParallelAStarScheduler::new(&prob, cfg).run();
            assert!(r.is_optimal(), "run {run}");
            assert_eq!(r.schedule_length(), 14, "run {run}");
            let table = r.closed_stats.as_ref().expect("table stats");
            assert_eq!(table.total_entries() as u64, table.total_misses(), "run {run}");
            let total = r.total_stats();
            assert_eq!(
                table.total_hits(),
                total.duplicates + total.duplicates_global,
                "run {run}"
            );
        }
    }

    /// The arena store, observed from the outside: under eager communication
    /// every PPE stays exact and agrees with serial A*, while the per-PPE
    /// stores hold only roots, scratch states and adopted snapshot transfers
    /// — OPEN size no longer costs full states.
    #[test]
    fn arena_store_matches_serial_with_tiny_live_footprint() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        for problem in [
            example_problem(),
            SchedulingProblem::new(g, ProcNetwork::fully_connected(3)),
        ] {
            let serial = AStarScheduler::new(&problem).run();
            for mode in [DuplicateDetection::Local, DuplicateDetection::ShardedGlobal] {
                let cfg = ParallelConfig {
                    num_ppes: 4,
                    min_comm_period: 1, // maximise transfers: the hard case
                    ..Default::default()
                }
                .with_duplicate_detection(mode);
                let r = ParallelAStarScheduler::new(&problem, cfg).run();
                assert!(r.is_optimal(), "mode={mode}");
                assert_eq!(r.schedule_length(), serial.schedule_length, "mode={mode}");
                // Full states are a subset of the live records plus one
                // scratch per PPE; the airtight headline additionally folds
                // in the in-flight transfer peak.
                let total = r.total_stats();
                assert!(
                    total.peak_live_states <= total.peak_live_records + cfg.num_ppes as u64,
                    "mode={mode}: arena held {} live full states over {} records",
                    total.peak_live_states,
                    total.peak_live_records
                );
                assert!(total.replayed_deltas > 0, "mode={mode}: the arena expands by replay");
                assert_eq!(
                    r.peak_live_states(),
                    total.peak_live_states + r.peak_in_flight,
                    "mode={mode}: headline must fold the in-flight peak in"
                );
            }
        }
    }

    /// The in-flight gauge's high-water mark is recorded and folded into the
    /// memory headline: an eagerly communicating multi-PPE run parks at
    /// least one transfer clone in the channels at some instant, while a
    /// q = 1 run (no neighbours, no transfers) records exactly zero.
    #[test]
    fn in_flight_peak_is_recorded_and_zero_without_neighbours() {
        let prob = example_problem();
        let eager_comm = ParallelConfig {
            num_ppes: 4,
            min_comm_period: 1,
            ..Default::default()
        };
        let mut peak_seen = 0;
        for _ in 0..3 {
            let r = ParallelAStarScheduler::new(&prob, eager_comm).run();
            assert!(r.is_optimal());
            assert_eq!(
                r.peak_live_states(),
                r.total_stats().peak_live_states + r.peak_in_flight
            );
            peak_seen = peak_seen.max(r.peak_in_flight);
        }
        assert!(peak_seen > 0, "eager communication must put states in flight");

        let solo = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(1)).run();
        assert_eq!(solo.peak_in_flight, 0, "q=1 has no channels to park states in");
        assert_eq!(solo.peak_live_states(), solo.total_stats().peak_live_states);
    }

    /// In `Local` mode the election still sends copies (the paper's design):
    /// no ownership-transferring elections can ever be recorded.
    #[test]
    fn local_mode_election_sends_copies_not_ownership() {
        let prob = example_problem();
        let cfg = ParallelConfig {
            num_ppes: 4,
            min_comm_period: 1,
            ..Default::default()
        }
        .with_duplicate_detection(DuplicateDetection::Local);
        for _ in 0..3 {
            let r = ParallelAStarScheduler::new(&prob, cfg).run();
            assert!(r.is_optimal());
            assert_eq!(r.election_transfers(), 0, "local mode elections are copies");
        }
    }

    #[test]
    fn initial_distribution_covers_all_ppes_for_large_q() {
        let prob = example_problem();
        let sched = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(6));
        let mut stats = SearchStats::default();
        let buckets = sched.initial_distribution(&mut stats);
        assert_eq!(buckets.len(), 6);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert!(total >= 6, "frontier of {total} states should cover every PPE");
        // The best state goes to PPE 0 (interleaved dealing).
        assert!(!buckets[0].is_empty());
    }
}
