//! The thread-based parallel A* / Aε* scheduler.
//!
//! Every PPE (thread) drives the serial scheduler's step,
//! [`Search::step`], on its private OPEN/CLOSED lists: exact mode pops in
//! [`AStarPolicy`]'s `(f, h, FIFO)` order, and ε mode with
//! [`FocalPolicy`]'s FOCAL rule, the serial Aε\* of Pearl & Kim.  Between
//! steps a PPE takes in the states its neighbours sent, publishes its
//! smallest `f` and runs the global termination test.  The pieces that make
//! it the *parallel* algorithm of Section 3.3 are:
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
//!   shared incumbent (the PPEs' [`Incumbent`]); a PPE that can prove no open
//!   or in-flight state can beat the incumbent (within the ε bound, if any)
//!   raises the global termination flag.  So does a PPE that hits a limit,
//!   and one that panics.
//!
//! Each PPE stores its search frontier in its search's private
//! [`StateArena`]: generated children live as parent-id +
//! [`ChildDelta`](optsched_core::state::ChildDelta) records, and a full
//! [`SearchState`] is built only when a state is selected for expansion
//! (scratch replay).  Every state moves between PPEs as one materialised
//! snapshot, which the receiver adopts as a single full record that the
//! state's descendants replay from.  Expanded, goal-popped and shipped-away
//! states release their records, so the record count tracks the live
//! frontier instead of the whole history.  The `in_flight` gauge counts `v`
//! fixed-size *records* per state in the channels.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use optsched_core::engine::{
    focal_threshold, AStarPolicy, DuplicateFilter, FocalPolicy, FrontierPolicy, Incumbent, Search,
    SearchConfig, SignatureSet, StateArena, StateId, Step,
};
use optsched_core::state::StateSignature;
use optsched_core::{SchedulingProblem, SearchOutcome, SearchState, SearchStats};
use optsched_obs as obs;
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::closed::{ClaimOutcome, DuplicateDetection, ShardedClosedTable};
use crate::config::ParallelConfig;
use crate::result::ParallelSearchResult;

/// Largest number of states the `ShardedGlobal` best-state election ships in
/// one phase when the receiver's published frontier minimum is *far* worse
/// than this PPE's best `f` (empty, or more than 25% above).  Every batch
/// member is still strictly better than the receiver's published minimum.
const ELECTION_BATCH: usize = 4;

/// A state travelling between PPEs, as a materialised snapshot.
struct Transfer {
    state: SearchState,
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
/// [`Search::step`] and hit [`DuplicateFilter::admit`]; states arriving from
/// other PPEs go through [`DupFilter::admit_transfer`], which preserves the
/// claim-ownership semantics of the sharded table.
enum DupFilter<'t> {
    Local(Box<SignatureSet>),
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
    /// Fixed-size state records currently travelling between PPEs, `v` per
    /// shipped state.  Zero exactly when no transfer is outstanding, which is
    /// all the termination test needs.
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
    /// failed send), and every receive must subtract the same `v` records,
    /// so the gauge and its peak never diverge.
    fn in_flight_add(&self, records: u64) {
        let now = self.in_flight.fetch_add(records as i64, Ordering::SeqCst) + records as i64;
        if now > 0 {
            self.in_flight_peak.fetch_max(now as u64, Ordering::SeqCst);
        }
    }

    /// Installs `schedule` (built lazily) as the incumbent if `len` improves
    /// on the best complete schedule known so far; returns whether it did.
    fn offer_incumbent(&self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool {
        if len >= self.incumbent_len() {
            return false;
        }
        let mut inc = self.incumbent.lock();
        let better = len < inc.0;
        if better {
            *inc = (len, schedule());
            self.incumbent_len.store(len, Ordering::SeqCst);
        }
        better
    }
}

/// The PPEs' shared incumbent, and the work all of them count against the
/// run's limits.
impl Incumbent for &Shared {
    fn makespan(&self) -> Cost {
        self.incumbent_len()
    }

    fn offer(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool {
        self.offer_incumbent(len, schedule)
    }

    /// Goal broadcast: a popped goal is published, and the search goes on
    /// until the global termination test proves it cannot be beaten.
    fn settle(&mut self, len: Cost, schedule: impl FnOnce() -> Schedule) -> bool {
        self.offer_incumbent(len, schedule);
        false
    }

    fn work(&self, _own: &SearchStats) -> (u64, u64) {
        (self.total_expanded.load(Ordering::Relaxed), self.total_generated.load(Ordering::Relaxed))
    }
}

/// Raises the global stop flag when its PPE unwinds, so that a panicking
/// PPE stops its peers instead of leaving them to wait for it forever; the
/// panic then reaches [`ParallelAStarScheduler::run`]'s caller.
struct StopPeersOnPanic<'a>(&'a AtomicBool);

impl Drop for StopPeersOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
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
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a PPE that panicked, after every PPE stopped.
    pub fn run(&self) -> ParallelSearchResult {
        let prune = self.config.pruning.upper_bound_pruning;
        match self.config.epsilon {
            None => self.run_with(|_| AStarPolicy::new(prune)),
            Some(eps) => self.run_with(|_| FocalPolicy::new(eps, prune)),
        }
    }

    /// Runs the parallel search with `policy(id)` as PPE `id`'s frontier.
    fn run_with<P: FrontierPolicy>(
        &self,
        policy: impl Fn(usize) -> P + Sync,
    ) -> ParallelSearchResult {
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
        let (txs, rxs): (Vec<Sender<Transfer>>, Vec<Receiver<Transfer>>) =
            (0..q).map(|_| unbounded()).unzip();

        let mut per_ppe_stats: Vec<SearchStats> = Vec::with_capacity(q);
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .zip(rxs)
                .enumerate()
                .map(|(id, (bucket, rx))| {
                    let ppe = Ppe {
                        id,
                        problem: self.problem,
                        cfg: &cfg,
                        shared: &shared,
                        neighbors: &neighbors[id],
                        txs: &txs,
                    };
                    let policy = &policy;
                    scope.spawn(move || ppe.run(policy(id), rx, bucket))
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(stats) => per_ppe_stats.push(stats),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
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

/// A PPE's search: the engine's [`Search`] over its private arena, with its
/// duplicate-detection view and the shared incumbent.
type PpeSearch<'a, P> = Search<'a, P, DupFilter<'a>, &'a Shared>;

/// One PPE thread: its id and neighbours, and what all PPEs share.
struct Ppe<'a> {
    id: usize,
    problem: &'a SchedulingProblem,
    cfg: &'a ParallelConfig,
    shared: &'a Shared,
    neighbors: &'a [usize],
    /// Every PPE's inbox.
    txs: &'a [Sender<Transfer>],
}

impl<'a> Ppe<'a> {
    /// The PPE's loop: take in the states neighbours sent, publish the
    /// frontier, test for global termination, step the search, and every
    /// `T` expansions run the communication phase.
    fn run<P: FrontierPolicy>(
        &self,
        policy: P,
        rx: Receiver<Transfer>,
        initial: Vec<SearchState>,
    ) -> SearchStats {
        let (problem, cfg, shared) = (self.problem, self.cfg, self.shared);
        let _stop_peers = StopPeersOnPanic(&shared.terminate);
        let dup = match &shared.closed {
            Some(table) => DupFilter::Global { table, id: self.id },
            None => DupFilter::Local(Box::default()),
        };
        let config = SearchConfig {
            pruning: cfg.pruning,
            heuristic: cfg.heuristic,
            limits: cfg.limits,
            ..SearchConfig::default()
        };
        let mut search = Search::new(problem, policy, dup, shared, &config);
        // Observability: a span covering the worker's lifetime on its
        // search's track, plus instants on elections, transfers and the
        // end-of-run duplicate tally.
        let track = search.track();
        let _obs_span = obs::span("ppe", track).with_arg("ppe", self.id as u64);
        for state in initial {
            self.adopt(&mut search, Transfer { state, owned: false, election: false });
        }

        let mut comm_period = (problem.num_nodes() as u64 / 2).max(cfg.min_comm_period);
        let mut since_comm: u64 = 0;
        let mut idle_spins: u32 = 0;
        let local_min_f = &shared.local_min_f[self.id];
        loop {
            if shared.terminate.load(Ordering::SeqCst) {
                break;
            }

            // Import states sent by neighbours.  The published minimum and the
            // in-flight counter are updated in an order that never lets another
            // PPE observe "nothing in flight" while this state is still invisible.
            while let Ok(t) = rx.try_recv() {
                let records = self.records();
                let name = if t.election { "election_in" } else { "transfer_in" };
                obs::instant(name, track, "records", records);
                self.adopt(&mut search, t);
                local_min_f.store(search.policy.min_f().unwrap_or(u64::MAX), Ordering::SeqCst);
                shared.in_flight.fetch_sub(records as i64, Ordering::SeqCst);
            }

            // Publish this PPE's frontier cost and OPEN size.
            local_min_f.store(search.policy.min_f().unwrap_or(u64::MAX), Ordering::SeqCst);
            shared.open_sizes[self.id].store(search.policy.open_len(), Ordering::Relaxed);

            // Global termination test: nothing in flight and no frontier state
            // anywhere can improve on the incumbent (within the ε bound).  The
            // comparison stays in integers: above 2^53 distinct costs share an
            // `f64`.
            if shared.in_flight.load(Ordering::SeqCst) == 0 {
                let global_min = shared
                    .local_min_f
                    .iter()
                    .map(|a| a.load(Ordering::SeqCst))
                    .min()
                    .unwrap_or(u64::MAX);
                let bound = cfg.epsilon.map_or(global_min, |e| focal_threshold(e, global_min));
                if global_min == u64::MAX || shared.incumbent_len() <= bound {
                    shared.terminate.store(true, Ordering::SeqCst);
                    break;
                }
            }

            let generated = search.stats.generated;
            match search.step() {
                Step::Expanded => {
                    idle_spins = 0;
                    shared.total_expanded.fetch_add(1, Ordering::Relaxed);
                    let children = search.stats.generated - generated;
                    shared.total_generated.fetch_add(children, Ordering::Relaxed);
                    since_comm += 1;
                    if since_comm >= comm_period && !self.neighbors.is_empty() {
                        since_comm = 0;
                        comm_period = (comm_period / 2).max(cfg.min_comm_period);
                        self.communicate(&mut search);
                    }
                }
                // Goal pops never trigger the communication phase.
                Step::Goal => idle_spins = 0,
                Step::Empty => {
                    // Idle: wait for work from neighbours or for global
                    // termination.
                    idle_spins += 1;
                    if idle_spins > 64 {
                        std::thread::sleep(Duration::from_micros(50));
                    } else {
                        std::thread::yield_now();
                    }
                }
                Step::Stop(outcome) => {
                    let cause = if outcome == SearchOutcome::TargetReached {
                        &shared.target_hit
                    } else {
                        &shared.limit_hit
                    };
                    cause.store(true, Ordering::SeqCst);
                    shared.terminate.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }

        // The arena is the PPE's only holder of full states: root, scratch
        // and adopted snapshots (nothing per OPEN entry).  Its record
        // counters report the O(live frontier) behaviour of the refcounted
        // store and the replay work behind it.
        let (stats, _) = search.finish();
        obs::instant("ppe_done", track, "duplicates", stats.duplicates + stats.duplicates_global);
        stats
    }

    /// Takes in a state from outside this PPE's own expansions: dealt out
    /// by the initial distribution, or sent by a neighbour.  An owned
    /// transfer is kept whatever duplicate detection says (see
    /// [`DupFilter::admit_transfer`]).
    fn adopt<P: FrontierPolicy>(&self, search: &mut PpeSearch<'a, P>, t: Transfer) {
        let (problem, state) = (self.problem, t.state);
        let (f, g, h) = (state.f(), state.g(), state.h());
        if self.cfg.pruning.upper_bound_pruning && f > self.shared.incumbent_len() {
            search.stats.pruned_upper_bound += 1;
            return;
        }
        if !search.dup.admit_transfer(|| state.signature(), g, t.owned, &mut search.stats) {
            return;
        }
        if t.owned && t.election {
            search.stats.election_transfers += 1;
        }
        if state.is_goal(problem) {
            self.shared.offer_incumbent(g, || state.to_schedule(problem));
        }
        let id = search.arena.adopt_snapshot(state);
        search.push(id, f, h, f);
    }

    /// The communication phase: the best-state election, then round-robin
    /// load sharing of surplus states to deficit neighbours.
    fn communicate<P: FrontierPolicy>(&self, search: &mut PpeSearch<'a, P>) {
        let (shared, neighbors) = (self.shared, self.neighbors);
        let track = search.track();
        match self.cfg.duplicate_detection {
            DuplicateDetection::Local => {
                // The paper's election: offer a *copy* of this PPE's best
                // state to every neighbour (each receiver keeps or drops it
                // through its own duplicate detection).
                if let Some(best) = search.policy.peek() {
                    let best = search.arena.materialise_owned(best.id);
                    for &nb in neighbors {
                        let state = best.clone();
                        self.send(nb, Transfer { state, owned: false, election: true });
                    }
                    obs::instant("election_send", track, "copies", neighbors.len() as u64);
                }
            }
            DuplicateDetection::ShardedGlobal => {
                // Ownership-transferring election: a copy would reach the
                // receiver with an already-claimed signature and be dropped
                // on arrival, so instead *give away* the best state (claim
                // travels with it, see `DupFilter::release`) to the neighbour
                // whose published frontier is worst — and only to one that
                // actually profits, i.e. whose frontier minimum is strictly
                // worse than this state.  The receiver force-keeps it;
                // nothing is wasted.  When the receiver's frontier is *far*
                // worse (empty, or more than 25% above this PPE's best f),
                // one state will not keep it busy: ship a k-best batch,
                // every member still strictly better than the receiver's
                // published minimum.
                if let Some(best) = search.policy.peek() {
                    let target = neighbors
                        .iter()
                        .map(|&nb| (shared.local_min_f[nb].load(Ordering::SeqCst), Reverse(nb)))
                        .filter(|&(min_f, _)| min_f > best.f)
                        .max();
                    if let Some((nb_min_f, Reverse(nb))) = target {
                        let far_worse = nb_min_f == u64::MAX || nb_min_f > best.f + (best.f >> 2);
                        let batch = if far_worse { ELECTION_BATCH } else { 1 };
                        let mut shipped = 0u64;
                        for _ in 0..batch {
                            if !search.policy.peek().is_some_and(|e| e.f < nb_min_f) {
                                break;
                            }
                            let e = search.policy.pop().expect("peeked a qualifying state above");
                            let state = extract_owned(&mut search.arena, &mut search.dup, e.id);
                            self.send(nb, Transfer { state, owned: true, election: true });
                            shipped += 1;
                        }
                        obs::instant("election_send", track, "states", shipped);
                    }
                }
            }
        }

        // Round-robin load sharing of surplus states to deficit neighbours.
        let open_len = search.policy.open_len();
        let neighbor_sizes: Vec<(usize, usize)> = neighbors
            .iter()
            .map(|&nb| (nb, shared.open_sizes[nb].load(Ordering::Relaxed)))
            .collect();
        let total: usize = open_len + neighbor_sizes.iter().map(|&(_, s)| s).sum::<usize>();
        let avg = total / (neighbor_sizes.len() + 1);
        if open_len <= avg + 1 {
            return;
        }
        let deficits: Vec<usize> =
            neighbor_sizes.iter().filter(|&&(_, s)| s < avg).map(|&(nb, _)| nb).collect();
        if deficits.is_empty() {
            return;
        }
        // Keep the best state locally and deal the following ones out.  The
        // kept state goes back on OPEN with a fresh insertion number, behind
        // any state of an equal key.
        let keep = search.policy.pop();
        let outgoing: Vec<StateId> =
            std::iter::from_fn(|| search.policy.pop()).take(open_len - avg).map(|e| e.id).collect();
        if let Some(k) = keep {
            search.push(k.id, k.f, k.h, k.value);
        }
        for (i, &sid) in outgoing.iter().enumerate() {
            // Shipping transfers ownership (see `DupFilter::release`): the
            // receiver force-inserts it, so the sole live copy of a claimed
            // signature is never dropped by both sides of an exchange.
            let state = extract_owned(&mut search.arena, &mut search.dup, sid);
            let to = deficits[i % deficits.len()];
            self.send(to, Transfer { state, owned: true, election: false });
        }
        obs::instant("load_share", track, "states", outgoing.len() as u64);
    }

    /// The channel footprint of one shipped state, in the `in_flight`
    /// gauge's unit: one fixed-size record per node, `v`.
    fn records(&self) -> u64 {
        self.problem.num_nodes() as u64
    }

    /// Ships `t` to PPE `to`, counting its records in flight until the
    /// receiver takes it in (see [`Shared::in_flight_add`]).
    fn send(&self, to: usize, t: Transfer) {
        let records = self.records();
        self.shared.in_flight_add(records);
        if self.txs[to].send(t).is_err() {
            self.shared.in_flight.fetch_sub(records as i64, Ordering::SeqCst);
        }
    }
}

/// Pops state `id` out of the sender's store for an ownership transfer, as
/// a materialised snapshot.  The sender's duplicate bookkeeping forgets the
/// signature (`Local` mode only — in `ShardedGlobal` mode the claim travels
/// with the state) and the state's arena records are released: from here on
/// the snapshot in the channel is the state's only live copy.
fn extract_owned(
    arena: &mut StateArena<'_>,
    dup: &mut DupFilter<'_>,
    id: StateId,
) -> SearchState {
    let state = arena.materialise_owned(id);
    dup.release(|| state.signature());
    arena.release(id);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_core::engine::OpenEntry;
    use optsched_core::state::ChildDelta;
    use optsched_core::{AStarScheduler, PruningConfig, SearchLimits};
    use optsched_procnet::{ProcNetwork, Topology};
    use optsched_taskgraph::{paper_example_dag, GraphBuilder};
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

    /// A test frontier: `inner`, except that it panics on its fifth pop
    /// when `armed`.
    struct PanicOnFifthPop<P> {
        inner: P,
        pops: u32,
        armed: bool,
    }

    impl<P: FrontierPolicy> FrontierPolicy for PanicOnFifthPop<P> {
        fn evaluate(
            &mut self,
            problem: &SchedulingProblem,
            parent: &SearchState,
            delta: &ChildDelta,
            incumbent_len: Cost,
            stats: &mut SearchStats,
        ) -> Option<Cost> {
            self.inner.evaluate(problem, parent, delta, incumbent_len, stats)
        }

        fn push(&mut self, entry: OpenEntry) {
            self.inner.push(entry);
        }

        fn pop(&mut self) -> Option<OpenEntry> {
            self.pops += 1;
            if self.armed && self.pops == 5 {
                panic!("injected PPE panic");
            }
            self.inner.pop()
        }

        fn peek(&mut self) -> Option<OpenEntry> {
            self.inner.peek()
        }

        fn open_len(&self) -> usize {
            self.inner.open_len()
        }
    }

    /// A PPE that panics stops its peers, and the panic reaches the caller
    /// of `run` instead of leaving the other PPEs spinning.  The run happens
    /// on a helper thread, so a regression fails after a second instead of
    /// hanging the suite.
    #[test]
    fn a_panicking_ppe_stops_the_run_and_the_panic_reaches_the_caller() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 10, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        for q in [2, 4] {
            let prob = SchedulingProblem::new(g.clone(), ProcNetwork::fully_connected(3));
            let run = std::thread::spawn(move || {
                let sched = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(q));
                sched.run_with(|id| PanicOnFifthPop {
                    inner: AStarPolicy::new(true),
                    pops: 0,
                    armed: id == 1,
                })
            });
            let deadline = Instant::now() + Duration::from_secs(1);
            while !run.is_finished() {
                assert!(Instant::now() < deadline, "q={q}: the run hung after a PPE panicked");
                std::thread::sleep(Duration::from_millis(1));
            }
            let panic = run.join().expect_err("the PPE's panic reaches the caller");
            let message = panic
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned());
            assert_eq!(message.as_deref(), Some("injected PPE panic"), "q={q}");
        }
    }

    /// The random v = 7 graph of seed 4 behind one extra entry task of
    /// weight 2^60, with 0-cost edges to every original entry task: every
    /// cost lies above 2^60, where an `f64` is 256 apart.
    fn heavy_entry_problem() -> SchedulingProblem {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generate_random_dag(
            &RandomDagConfig { nodes: 7, ccr: 1.0, ..Default::default() },
            &mut rng,
        );
        let mut b = GraphBuilder::new();
        for n in g.node_ids() {
            b.add_node(g.weight(n));
        }
        for e in g.edges() {
            b.add_edge(e.src, e.dst, e.weight).unwrap();
        }
        let heavy = b.add_node(1 << 60);
        for n in g.entry_nodes() {
            b.add_edge(heavy, n, 0).unwrap();
        }
        SchedulingProblem::new(b.build().unwrap(), ProcNetwork::ring(3))
    }

    #[test]
    fn exact_mode_stays_exact_above_2_pow_53() {
        let prob = heavy_entry_problem();
        let serial = AStarScheduler::new(&prob).run();
        assert!(serial.is_optimal());
        assert_eq!(serial.schedule_length, (1 << 60) + 86);
        for q in [1, 2] {
            let r = ParallelAStarScheduler::new(&prob, ParallelConfig::exact(q)).run();
            assert!(r.is_optimal(), "q={q}");
            assert_eq!(r.schedule_length(), serial.schedule_length, "q={q}");
            r.schedule.validate(prob.graph(), prob.network()).unwrap();
        }
    }

    /// Three tasks of weight 2^53 + 1, the first with unit-cost edges to the
    /// other two: at ε = 0 a threshold computed in `f64` falls below fmin.
    #[test]
    fn epsilon_mode_handles_fmin_above_2_pow_53() {
        let w = (1u64 << 53) + 1;
        let mut b = GraphBuilder::new();
        let (a, x, y) = (b.add_node(w), b.add_node(w), b.add_node(w));
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        let prob = SchedulingProblem::new(b.build().unwrap(), ProcNetwork::fully_connected(2));
        let optimal = AStarScheduler::new(&prob).run().schedule_length;
        assert_eq!(optimal, 2 * w + 1);
        for eps in [0.0, 0.5] {
            for q in [1, 2] {
                let cfg = ParallelConfig::approximate(q, eps);
                let r = ParallelAStarScheduler::new(&prob, cfg).run();
                assert!(r.is_optimal(), "eps={eps} q={q}");
                assert!(
                    r.schedule_length() <= focal_threshold(eps, optimal),
                    "eps={eps} q={q}: {} against an optimum of {optimal}",
                    r.schedule_length()
                );
                r.schedule.validate(prob.graph(), prob.network()).unwrap();
            }
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
