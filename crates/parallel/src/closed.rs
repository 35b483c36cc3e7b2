//! Sharded global duplicate detection for the parallel search.
//!
//! The paper's PPEs each keep a *private* CLOSED list, so the same partial
//! schedule can be generated — and expanded — by several PPEs.  On shared
//! memory nothing forces that design: this module provides a single logical
//! CLOSED/seen table shared by every PPE, split into `N` independent shards
//! so concurrent claims on different signatures almost never contend.
//!
//! A PPE *claims* a [`StateSignature`] at generation time; the first claim
//! wins and every later claim of the same signature (by any PPE) reports a
//! duplicate, identifying the owner so redundant cross-PPE work can be
//! counted separately from ordinary local duplicates.  Because a signature
//! encodes the exact `(processor, start time)` assignment of every scheduled
//! node, two states with equal signatures have equal `g` and identical future
//! expansions — dropping the loser never loses reachability, so the search
//! stays exact.  The table still records the claimed `g` and re-opens a
//! signature on a strictly better claim as a defensive measure.
//!
//! Each shard is a chaining hash table of atomic bucket heads over immutable
//! push-front nodes.  A claim reads the hash its signature carries
//! ([`StateSignature::key_hash`], computed once when the key was built), walks
//! its bucket's chain (a fingerprint word short-circuits mismatched nodes; a
//! match is always decided by full signature equality) and, if absent,
//! publishes a heap node with one compare-and-swap on the head; a loser
//! re-walks only the prefix its race inserted and retries.  Nodes are never removed or moved, so no
//! locks, no spinning and no ABA; growth is a non-event — the load factor
//! rises and chains lengthen gracefully (~`entries / 2^20` nodes per walk)
//! instead of migrating or probing saturated windows.  Every shard keeps
//! hit/miss/reopen counters with the exact `entries == misses` invariant.
//!
//! Ownership of a claim travels with the state: when load sharing moves a
//! state to another PPE, the receiver inserts it into its OPEN list without
//! consulting the table (the claim is still "alive", merely held elsewhere),
//! so a claimed state is never dropped by all PPEs at once.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

use optsched_core::state::StateSignature;
use optsched_taskgraph::Cost;

/// How the parallel search detects duplicate states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicateDetection {
    /// Every PPE keeps a private CLOSED/seen table, as on the paper's
    /// message-passing Paragon.  The same state can be expanded by several
    /// PPEs; kept for ablation and as the faithful-to-the-paper mode.
    Local,
    /// One global table shared by all PPEs, split into
    /// [`ParallelConfig::num_shards`](crate::ParallelConfig::num_shards)
    /// shards: a state already claimed by any PPE is dropped at generation
    /// time, eliminating redundant cross-PPE expansions.
    #[default]
    ShardedGlobal,
}

impl std::fmt::Display for DuplicateDetection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DuplicateDetection::Local => write!(f, "local"),
            DuplicateDetection::ShardedGlobal => write!(f, "sharded"),
        }
    }
}

impl std::str::FromStr for DuplicateDetection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "local" => Ok(DuplicateDetection::Local),
            "sharded" | "global" | "sharded-global" => Ok(DuplicateDetection::ShardedGlobal),
            other => Err(format!("unknown duplicate-detection mode `{other}` (expected local|sharded)")),
        }
    }
}

/// Result of [`ShardedClosedTable::try_claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The signature was not in the table (or arrived with a strictly better
    /// `g`); the caller now owns it and must keep the state.
    Claimed,
    /// The signature was already claimed by the *calling* PPE: an ordinary
    /// local duplicate.
    DuplicateSameOwner,
    /// The signature was already claimed by a *different* PPE: a redundant
    /// cross-PPE expansion avoided.
    DuplicateOtherOwner,
}

/// How a claim resolved inside a shard's store — the store reports the kind
/// and the table translates it into counter updates.
enum ClaimKind {
    /// New signature inserted (counts as a miss).
    Fresh,
    /// Existing entry replaced by a strictly better `g` (counts as a reopen).
    Reopen,
    /// Duplicate dropped (counts as a hit); carries the owning PPE.
    Duplicate { owner: u32 },
}

// ---------------------------------------------------------------------------
// Atomic shard store
// ---------------------------------------------------------------------------

/// Bucket heads across the *whole table*, divided among its shards — a claim
/// costs one bucket load plus an average chain walk of
/// `entries / TOTAL_BUCKET_BUDGET` nodes, independent of the shard count.
/// 2^20 head pointers are 8 MiB; a v = 12 parallel run claims ~3 M
/// signatures, so chains average ~3 nodes at the largest searches this
/// repository runs and the cost never cliffs (an earlier open-addressed
/// design degraded to window-scanning whole saturated segments).
const TOTAL_BUCKET_BUDGET: usize = 1 << 20;

/// Floor on the per-shard bucket array, so high shard counts keep useful
/// per-shard tables.
const MIN_BUCKETS_PER_SHARD: usize = 1 << 10;

/// A signature's shard comes from its hash bits at and above this one, its
/// bucket from the low bits.  At most 1024 shards (10 bits) and 2^20 buckets
/// per shard (20 bits) keep the two choices on disjoint bits.
const SHARD_SHIFT: u32 = 40;

/// One published claim of the atomic store: an immutable chain node (except
/// for the defensive better-`g` reopen fields).  The full signature is kept
/// so a match is always decided by signature equality, never by the
/// fingerprint; a short key of up to 16 nodes holds its words inline, so
/// the node is the claim's only allocation.
struct ClaimNode {
    /// Fingerprint of the signature hash; checked before the signature so
    /// walking over a mismatched node costs one word comparison, not a slice
    /// comparison.
    fp: u64,
    sig: StateSignature,
    g: AtomicU64,
    owner: AtomicU32,
    /// The next node in the bucket chain.  Written only while the node is
    /// still privately owned (before its publishing CAS); immutable after.
    next: *mut ClaimNode,
}

/// The lock-free shard store: a fixed power-of-two array of bucket heads,
/// each an atomic pointer to an immutable push-front chain of [`ClaimNode`]s.
///
/// A claim walks its bucket's chain; if the signature is absent it CAS-es a
/// new node in at the head.  A loser re-walks only the *prefix* its race
/// inserted (chains grow at the head and nodes are never removed, so the old
/// head is still reachable and there is no ABA), then retries.  Growth is a
/// non-event: load factor rises and chains lengthen gracefully instead of
/// probing saturated windows.
struct AtomicStore {
    buckets: Box<[AtomicPtr<ClaimNode>]>,
    mask: usize,
}

// SAFETY: all mutation goes through atomics; published `ClaimNode` pointers
// are immutable (bar their atomic fields) and freed only in `Drop`, which
// requires `&mut`.
unsafe impl Send for AtomicStore {}
unsafe impl Sync for AtomicStore {}

impl AtomicStore {
    fn new(num_buckets: usize) -> AtomicStore {
        let capacity = num_buckets.max(MIN_BUCKETS_PER_SHARD).next_power_of_two();
        let buckets = (0..capacity).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        AtomicStore { buckets, mask: capacity - 1 }
    }

    /// Walks `chain` (stopping at `until`, exclusive) for a node matching
    /// `fp`/`sig`.
    ///
    /// SAFETY: every pointer reachable from a published head stays valid
    /// until `Drop`, and `until` must be a pointer previously loaded from
    /// this bucket (chains only grow at the head, so it remains reachable).
    fn walk(
        mut chain: *mut ClaimNode,
        until: *mut ClaimNode,
        fp: u64,
        sig: &StateSignature,
    ) -> Option<&ClaimNode> {
        while chain != until {
            // SAFETY: see above — non-null chain pointers stay valid.
            let node = unsafe { &*chain };
            if node.fp == fp && node.sig == *sig {
                return Some(node);
            }
            chain = node.next;
        }
        None
    }

    fn try_claim(&self, sig: StateSignature, g: Cost, owner: u32) -> ClaimKind {
        let h = sig.key_hash();
        let fp = h | 1;
        let bucket = &self.buckets[(h as usize) & self.mask];
        let mut head = bucket.load(Ordering::Acquire);
        if let Some(node) = AtomicStore::walk(head, ptr::null_mut(), fp, &sig) {
            return resolve_occupied(node, g, owner);
        }
        // Absent: publish a new node at the head.  The signature moves into
        // the node (no clone); the box is reused across failed CAS attempts
        // and simply dropped if a racing claim turns out to hold it already.
        let mut node = Box::new(ClaimNode {
            fp,
            sig,
            g: AtomicU64::new(g),
            owner: AtomicU32::new(owner),
            next: head,
        });
        loop {
            let raw = Box::into_raw(node);
            match bucket.compare_exchange(head, raw, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return ClaimKind::Fresh,
                Err(new_head) => {
                    // SAFETY: `raw` lost the race and was never published; we
                    // still own it.
                    node = unsafe { Box::from_raw(raw) };
                    // Only the freshly inserted prefix (new_head..head) can
                    // contain our signature — everything from `head` down was
                    // checked before the CAS.
                    if let Some(won) = AtomicStore::walk(new_head, head, fp, &node.sig) {
                        return resolve_occupied(won, g, owner);
                    }
                    node.next = new_head;
                    head = new_head;
                }
            }
        }
    }

    fn find(&self, sig: &StateSignature) -> bool {
        let h = sig.key_hash();
        let head = self.buckets[(h as usize) & self.mask].load(Ordering::Acquire);
        AtomicStore::walk(head, ptr::null_mut(), h | 1, sig).is_some()
    }

    /// Chain nodes across all buckets (each claimed signature occupies
    /// exactly one node, so this equals the entry count).
    fn len(&self) -> usize {
        let mut n = 0;
        for bucket in self.buckets.iter() {
            let mut p = bucket.load(Ordering::Acquire);
            while !p.is_null() {
                n += 1;
                // SAFETY: as in `walk`.
                p = unsafe { &*p }.next;
            }
        }
        n
    }
}

impl Drop for AtomicStore {
    fn drop(&mut self) {
        for bucket in self.buckets.iter_mut() {
            let mut p = *bucket.get_mut();
            while !p.is_null() {
                // SAFETY: `&mut self` means no concurrent readers; every
                // non-null pointer was produced by `Box::into_raw` and
                // published once.
                let node = unsafe { Box::from_raw(p) };
                p = node.next;
            }
        }
    }
}

/// Duplicate/reopen resolution on an already-published entry, shared by both
/// walks of [`AtomicStore::try_claim`]: only a strictly better `g` wins, and
/// the owner follows the winning `g`.
fn resolve_occupied(entry: &ClaimNode, g: Cost, owner: u32) -> ClaimKind {
    let mut current = entry.g.load(Ordering::Acquire);
    while g < current {
        match entry.g.compare_exchange(current, g, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                entry.owner.store(owner, Ordering::Release);
                return ClaimKind::Reopen;
            }
            Err(better) => current = better,
        }
    }
    ClaimKind::Duplicate { owner: entry.owner.load(Ordering::Acquire) }
}

// ---------------------------------------------------------------------------
// Shards and the table
// ---------------------------------------------------------------------------

/// One shard: a claim store plus lock-free hit/miss counters (read without
/// any lock by [`ShardedClosedTable::stats`]).
struct Shard {
    store: AtomicStore,
    hits: AtomicU64,
    misses: AtomicU64,
    reopens: AtomicU64,
}

impl Shard {
    fn new(buckets: usize) -> Shard {
        Shard {
            store: AtomicStore::new(buckets),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reopens: AtomicU64::new(0),
        }
    }
}

/// Counters of one shard, snapshot by [`ShardedClosedTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCounters {
    /// Signatures currently claimed in this shard.
    pub entries: usize,
    /// Claims that found the signature already present (duplicates dropped).
    pub hits: u64,
    /// Claims that inserted a new signature.
    pub misses: u64,
    /// Claims that *replaced* an existing entry because they carried a
    /// strictly better `g`.  Exact signatures imply equal `g`, so this stays
    /// 0 unless the signature representation is ever loosened; tracking it
    /// separately keeps `entries == misses` an exact invariant either way.
    pub reopens: u64,
}

/// Per-shard hit/miss/occupancy statistics of a [`ShardedClosedTable`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClosedTableStats {
    /// One entry per shard, indexed by shard id.
    pub per_shard: Vec<ShardCounters>,
}

impl ClosedTableStats {
    /// Number of shards the table was built with.
    pub fn num_shards(&self) -> usize {
        self.per_shard.len()
    }

    /// Total signatures claimed across all shards.
    pub fn total_entries(&self) -> usize {
        self.per_shard.iter().map(|s| s.entries).sum()
    }

    /// Total duplicate claims dropped across all shards.
    pub fn total_hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hits).sum()
    }

    /// Total first-time claims across all shards.
    pub fn total_misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.misses).sum()
    }

    /// Total better-`g` re-opens across all shards (0 in practice; see
    /// [`ShardCounters::reopens`]).
    pub fn total_reopens(&self) -> u64 {
        self.per_shard.iter().map(|s| s.reopens).sum()
    }

    /// Ratio of claims that were duplicates (0.0 when the table is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses() + self.total_reopens();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }
}

/// The sharded global CLOSED/duplicate-detection table.
pub struct ShardedClosedTable {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two so masking replaces
    /// the modulo on the hot path.
    mask: usize,
}

impl std::fmt::Debug for ShardedClosedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedClosedTable")
            .field("num_shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

impl ShardedClosedTable {
    /// Creates a table with `num_shards` shards, rounded up to the next power
    /// of two (minimum 1, capped at 1024 — beyond that the per-shard stores
    /// cost more memory than they save in contention).
    pub fn new(num_shards: usize) -> ShardedClosedTable {
        let n = num_shards.clamp(1, 1024).next_power_of_two();
        // The bucket budget is a whole-table constant: more shards mean
        // smaller per-shard arrays, not more memory.
        let buckets = (TOTAL_BUCKET_BUDGET / n).max(MIN_BUCKETS_PER_SHARD);
        ShardedClosedTable { shards: (0..n).map(|_| Shard::new(buckets)).collect(), mask: n - 1 }
    }

    /// Number of shards (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, sig: &StateSignature) -> &Shard {
        &self.shards[(sig.key_hash() >> SHARD_SHIFT) as usize & self.mask]
    }

    /// Attempts to claim `sig` with cost `g` on behalf of PPE `owner`.
    ///
    /// The first claim of a signature wins; later claims report whether the
    /// duplicate was generated by the same or a different PPE.  A claim with
    /// a strictly better `g` re-opens the signature (defensive: exact
    /// signatures imply equal `g`, so completeness is preserved either way).
    pub fn try_claim(&self, sig: StateSignature, g: Cost, owner: usize) -> ClaimOutcome {
        let shard = self.shard_of(&sig);
        match shard.store.try_claim(sig, g, owner as u32) {
            ClaimKind::Fresh => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                ClaimOutcome::Claimed
            }
            ClaimKind::Reopen => {
                shard.reopens.fetch_add(1, Ordering::Relaxed);
                ClaimOutcome::Claimed
            }
            ClaimKind::Duplicate { owner: holder } => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if holder as usize == owner {
                    ClaimOutcome::DuplicateSameOwner
                } else {
                    ClaimOutcome::DuplicateOtherOwner
                }
            }
        }
    }

    /// True if `sig` has been claimed.
    pub fn contains(&self, sig: &StateSignature) -> bool {
        self.shard_of(sig).store.find(sig)
    }

    /// Total signatures claimed across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.store.len()).sum()
    }

    /// True if no signature has been claimed yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.store.len() == 0)
    }

    /// Snapshot of the per-shard counters.
    ///
    /// Every entry began as a miss and none is ever removed, so a shard's
    /// entry count is its miss counter; no bucket is walked.  Debug builds
    /// still count the chain nodes and check the two agree, so call this
    /// only once no claim is in flight.
    pub fn stats(&self) -> ClosedTableStats {
        ClosedTableStats {
            per_shard: self
                .shards
                .iter()
                .map(|s| {
                    let misses = s.misses.load(Ordering::Relaxed);
                    debug_assert_eq!(s.store.len() as u64, misses, "entries == misses");
                    ShardCounters {
                        entries: misses as usize,
                        hits: s.hits.load(Ordering::Relaxed),
                        misses,
                        reopens: s.reopens.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_core::{HeuristicKind, SchedulingProblem, SearchState};
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    /// Distinct signatures harvested from a breadth-first enumeration of the
    /// paper example's state space (no pruning): real states, real hashes.
    fn signature_corpus() -> Vec<(StateSignature, Cost)> {
        let prob = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let h = HeuristicKind::PaperStaticLevel;
        let mut frontier = vec![SearchState::initial(&prob)];
        let mut sigs: Vec<(StateSignature, Cost)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _depth in 0..3 {
            let mut next = Vec::new();
            for s in &frontier {
                for n in s.ready_nodes(&prob) {
                    for p in prob.network().proc_ids() {
                        let child = s.schedule_node(&prob, n, p, h);
                        let sig = child.signature();
                        if seen.insert(sig.clone()) {
                            sigs.push((sig, child.g()));
                            next.push(child);
                        }
                    }
                }
            }
            frontier = next;
        }
        assert!(sigs.len() >= 30, "corpus too small: {}", sigs.len());
        sigs
    }

    #[test]
    fn first_claim_wins_and_owners_are_tracked() {
        let table = ShardedClosedTable::new(4);
        let corpus = signature_corpus();
        let (sig, g) = corpus[0].clone();
        assert!(!table.contains(&sig));
        assert_eq!(table.try_claim(sig.clone(), g, 0), ClaimOutcome::Claimed);
        assert_eq!(table.try_claim(sig.clone(), g, 0), ClaimOutcome::DuplicateSameOwner);
        assert_eq!(table.try_claim(sig.clone(), g, 1), ClaimOutcome::DuplicateOtherOwner);
        assert!(table.contains(&sig));
        assert_eq!(table.len(), 1);

        let stats = table.stats();
        assert_eq!(stats.total_entries(), 1);
        assert_eq!(stats.total_misses(), 1);
        assert_eq!(stats.total_hits(), 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn better_g_reopens_a_signature() {
        let table = ShardedClosedTable::new(1);
        let (sig, g) = signature_corpus()[0].clone();
        assert_eq!(table.try_claim(sig.clone(), g + 5, 0), ClaimOutcome::Claimed);
        // Equal g: duplicate.  Strictly better g: re-claimed.
        assert_eq!(table.try_claim(sig.clone(), g + 5, 1), ClaimOutcome::DuplicateOtherOwner);
        assert_eq!(table.try_claim(sig.clone(), g, 1), ClaimOutcome::Claimed);
        assert_eq!(table.try_claim(sig, g, 0), ClaimOutcome::DuplicateOtherOwner);
        assert_eq!(table.len(), 1);

        // A re-open replaces the entry and is counted separately, so the
        // `entries == misses` invariant survives it.
        let stats = table.stats();
        assert_eq!(stats.total_misses(), 1);
        assert_eq!(stats.total_reopens(), 1);
        assert_eq!(stats.total_hits(), 2);
        assert_eq!(stats.total_entries() as u64, stats.total_misses());
    }

    #[test]
    fn shard_count_is_a_power_of_two() {
        assert_eq!(ShardedClosedTable::new(0).num_shards(), 1);
        assert_eq!(ShardedClosedTable::new(1).num_shards(), 1);
        assert_eq!(ShardedClosedTable::new(5).num_shards(), 8);
        assert_eq!(ShardedClosedTable::new(16).num_shards(), 16);
        assert_eq!(ShardedClosedTable::new(1_000_000).num_shards(), 1024);
        let t = ShardedClosedTable::new(6);
        assert!(t.is_empty());
        assert_eq!(t.stats().num_shards(), 8);
    }

    /// A single shard takes the whole corpus without losing or duplicating
    /// any signature, however dense its buckets get: chains simply lengthen.
    #[test]
    fn atomic_backend_survives_dense_single_shard_fill() {
        let table = ShardedClosedTable::new(1);
        let corpus = signature_corpus();
        for (sig, g) in &corpus {
            assert_eq!(table.try_claim(sig.clone(), *g, 0), ClaimOutcome::Claimed);
        }
        for (sig, g) in &corpus {
            assert_eq!(table.try_claim(sig.clone(), *g, 1), ClaimOutcome::DuplicateOtherOwner);
            assert!(table.contains(sig));
        }
        assert_eq!(table.len(), corpus.len());
        let stats = table.stats();
        assert_eq!(stats.total_misses(), corpus.len() as u64);
        assert_eq!(stats.total_entries(), corpus.len());
    }

    /// The stress test of the ISSUE: q = 4 threads hammer one table with an
    /// overlapping stream of claims (every thread claims the full corpus, in
    /// a different order, several times).  No update may be lost: across all
    /// threads each signature is claimed successfully *exactly once*, and the
    /// final table state equals a serial replay of the same claims.
    #[test]
    fn concurrent_claims_equal_a_serial_replay() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        let corpus = signature_corpus();
        let table = ShardedClosedTable::new(8);

        let claim_wins: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|id| {
                    let corpus = &corpus;
                    let table = &table;
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        for round in 0..ROUNDS {
                            // Rotate the iteration order per thread and round
                            // so claims collide in every interleaving.
                            let offset = (id * 7 + round * 13) % corpus.len();
                            for i in 0..corpus.len() {
                                let (sig, g) = &corpus[(i + offset) % corpus.len()];
                                if table.try_claim(sig.clone(), *g, id) == ClaimOutcome::Claimed {
                                    wins += 1;
                                }
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("stress thread panicked")).collect()
        });

        // Serial replay: claiming the corpus on a fresh table yields exactly
        // one entry (and one win) per distinct signature.
        let replay = ShardedClosedTable::new(8);
        let mut replay_wins = 0u64;
        for (sig, g) in &corpus {
            if replay.try_claim(sig.clone(), *g, 0) == ClaimOutcome::Claimed {
                replay_wins += 1;
            }
        }
        assert_eq!(replay_wins, corpus.len() as u64);
        assert_eq!(replay.len(), corpus.len());

        // No lost updates: same total wins, same final contents.
        let total_wins: u64 = claim_wins.iter().sum();
        assert_eq!(total_wins, replay_wins, "a claim was lost or double-granted");
        assert_eq!(table.len(), replay.len());
        for (sig, _) in &corpus {
            assert!(table.contains(sig));
        }

        // Counter bookkeeping: every attempt is either a hit or a miss, and
        // entries mirror the successful claims.
        let stats = table.stats();
        let attempts = (THREADS * ROUNDS * corpus.len()) as u64;
        assert_eq!(stats.total_hits() + stats.total_misses(), attempts);
        assert_eq!(stats.total_misses(), total_wins);
        assert_eq!(stats.total_entries(), corpus.len());
    }

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("local".parse::<DuplicateDetection>().unwrap(), DuplicateDetection::Local);
        assert_eq!(
            "sharded".parse::<DuplicateDetection>().unwrap(),
            DuplicateDetection::ShardedGlobal
        );
        assert_eq!(
            "SHARDED-GLOBAL".parse::<DuplicateDetection>().unwrap(),
            DuplicateDetection::ShardedGlobal
        );
        assert!("bogus".parse::<DuplicateDetection>().is_err());
        assert_eq!(DuplicateDetection::Local.to_string(), "local");
        assert_eq!(DuplicateDetection::ShardedGlobal.to_string(), "sharded");
        assert_eq!(DuplicateDetection::default(), DuplicateDetection::ShardedGlobal);
    }
}
