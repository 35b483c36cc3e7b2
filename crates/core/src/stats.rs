//! Search statistics and results.

use std::time::Duration;

use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

/// Machine-independent counters collected during a search run.
///
/// The paper reports running times on the Intel Paragon; this reproduction
/// additionally reports states generated/expanded so the Table 1 comparison
/// can be made independent of the host machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// States created and inserted into OPEN.
    pub generated: u64,
    /// States removed from OPEN and expanded.
    pub expanded: u64,
    /// Candidate (node, processor) pairs skipped by processor isomorphism.
    pub pruned_processor_isomorphism: u64,
    /// Ready nodes skipped by node equivalence.
    pub pruned_node_equivalence: u64,
    /// Generated states discarded because `f` exceeded the upper bound.
    pub pruned_upper_bound: u64,
    /// Generated states discarded because an identical partial schedule had
    /// already been seen (OPEN or CLOSED duplicate) by the same search agent
    /// (the serial search, or the PPE itself in the parallel search).
    pub duplicates: u64,
    /// Generated states discarded because a *different* PPE had already
    /// claimed the same partial schedule in the sharded global CLOSED table —
    /// i.e. redundant cross-PPE expansions avoided.  Always zero for the
    /// serial searches and for the parallel search in `Local` mode.
    pub duplicates_global: u64,
    /// Best-state election transfers this agent accepted *with claim
    /// ownership*: the sender popped its best OPEN state and shipped it, so
    /// the receiver keeps it without consulting duplicate detection — an
    /// accepted election transfer is never counted in [`duplicates`] or
    /// [`duplicates_global`].  Non-zero only for the parallel scheduler in
    /// `ShardedGlobal` mode (the `Local` mode keeps the paper's copy-based
    /// election, and serial searches have no elections at all).
    ///
    /// [`duplicates`]: SearchStats::duplicates
    /// [`duplicates_global`]: SearchStats::duplicates_global
    pub election_transfers: u64,
    /// Largest size of the OPEN list observed.
    pub max_open_size: usize,
    /// Largest number of fully materialised states the agent's *state store*
    /// held live at once — the allocation proxy of the store: the root and
    /// any adopted snapshots plus one scratch state.  In the parallel
    /// scheduler this counts each PPE's arena; transfers parked in the
    /// inter-PPE channels (bounded by the `in_flight` gauge at any instant)
    /// are owned by no store and are *not* counted here.
    pub peak_live_states: u64,
    /// Largest number of simultaneously live arena records (roots, snapshots
    /// and delta records) the agent's state store held — the O(live
    /// frontier) memory proxy of the refcounted arena.
    pub peak_live_records: u64,
    /// Arena records reclaimed by refcounted release cascades (pruned,
    /// duplicate-dropped or shipped-away subtrees).
    pub reclaimed_records: u64,
    /// Delta-chain materialisations performed by the arena (full-snapshot
    /// fast-path reads are free and not counted).
    pub materialisations: u64,
    /// Always 0: the arena keeps no path-cache.  The field stays for callers
    /// that report it.
    pub path_cache_hits: u64,
    /// Always 0, like [`path_cache_hits`](SearchStats::path_cache_hits).
    pub path_cache_ancestor_hits: u64,
    /// Total deltas replayed across all materialisations — the arena's CPU
    /// overhead that the scratch state exists to shrink.
    pub replayed_deltas: u64,
    /// Total deltas *not* replayed because materialisation reused the scratch
    /// state as its base instead of walking to a full slot (the depth of the
    /// scratch state, summed over those replays).
    pub replayed_deltas_saved: u64,
    /// Heuristic evaluations performed (one per generated state; the Chen &
    /// Yu baseline additionally counts its per-path evaluations here).
    pub heuristic_evaluations: u64,
    /// Total execution-path segments enumerated by the Chen & Yu bound
    /// (zero for the A* family); a proxy for the cost-function evaluation
    /// expense highlighted in Section 4.2.
    pub path_segments_enumerated: u64,
}

impl SearchStats {
    /// Sum of all states discarded by any pruning rule.
    pub fn total_pruned(&self) -> u64 {
        self.pruned_processor_isomorphism
            + self.pruned_node_equivalence
            + self.pruned_upper_bound
            + self.duplicates
            + self.duplicates_global
    }

    /// Accumulates `other` into `self`: additive counters are summed,
    /// high-water marks take the maximum.
    ///
    /// This is the single place that defines how per-PPE statistics aggregate.
    /// The exhaustive destructuring below makes adding a `SearchStats` field
    /// without deciding its aggregation a compile error, so the totals
    /// reported by the parallel scheduler can never silently drop a counter.
    pub fn merge(&mut self, other: &SearchStats) {
        let SearchStats {
            generated,
            expanded,
            pruned_processor_isomorphism,
            pruned_node_equivalence,
            pruned_upper_bound,
            duplicates,
            duplicates_global,
            election_transfers,
            max_open_size,
            peak_live_states,
            peak_live_records,
            reclaimed_records,
            materialisations,
            path_cache_hits,
            path_cache_ancestor_hits,
            replayed_deltas,
            replayed_deltas_saved,
            heuristic_evaluations,
            path_segments_enumerated,
        } = other;
        self.generated += generated;
        self.expanded += expanded;
        self.pruned_processor_isomorphism += pruned_processor_isomorphism;
        self.pruned_node_equivalence += pruned_node_equivalence;
        self.pruned_upper_bound += pruned_upper_bound;
        self.duplicates += duplicates;
        self.duplicates_global += duplicates_global;
        self.election_transfers += election_transfers;
        self.max_open_size = self.max_open_size.max(*max_open_size);
        self.peak_live_states = self.peak_live_states.max(*peak_live_states);
        self.peak_live_records = self.peak_live_records.max(*peak_live_records);
        self.reclaimed_records += reclaimed_records;
        self.materialisations += materialisations;
        self.path_cache_hits += path_cache_hits;
        self.path_cache_ancestor_hits += path_cache_ancestor_hits;
        self.replayed_deltas += replayed_deltas;
        self.replayed_deltas_saved += replayed_deltas_saved;
        self.heuristic_evaluations += heuristic_evaluations;
        self.path_segments_enumerated += path_segments_enumerated;
    }
}

/// Why a search run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A goal state with minimal `f` was expanded: the schedule is optimal
    /// (or, for Aε*, within the configured bound of optimal).
    Optimal,
    /// The search hit the configured target cost and returned the incumbent.
    TargetReached,
    /// The search ran out of the configured expansion/generation/time budget;
    /// the best incumbent (if any) is returned without an optimality claim.
    LimitReached,
    /// The search space was exhausted without finding a complete schedule
    /// (cannot happen for a connected processor network, kept for totality).
    Exhausted,
    /// The schedule was produced by a non-search heuristic (list scheduling):
    /// feasible, but with no optimality claim.  Used by the facade's
    /// scheduler registry.
    Heuristic,
}

/// Result of a search run: the schedule (if one was found), its length, the
/// guarantee that applies to it, and the collected statistics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best complete schedule found, if any.
    pub schedule: Option<Schedule>,
    /// Schedule length of `schedule` (0 when none was found).
    pub schedule_length: Cost,
    /// Why the search stopped.
    pub outcome: SearchOutcome,
    /// Counters.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl SearchResult {
    /// True if the result carries an optimality guarantee.
    pub fn is_optimal(&self) -> bool {
        self.outcome == SearchOutcome::Optimal
    }

    /// The schedule, panicking with a clear message if none was produced.
    pub fn expect_schedule(&self) -> &Schedule {
        self.schedule.as_ref().expect("search did not produce a schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_pruned_sums_every_category() {
        let s = SearchStats {
            pruned_processor_isomorphism: 1,
            pruned_node_equivalence: 2,
            pruned_upper_bound: 3,
            duplicates: 4,
            duplicates_global: 5,
            ..Default::default()
        };
        assert_eq!(s.total_pruned(), 15);
    }

    /// Pins the aggregation rule of every single field.  The struct literals
    /// deliberately avoid `..Default::default()`: adding a field to
    /// `SearchStats` must break this test (and `merge` itself) until its
    /// aggregation is specified here.
    #[test]
    fn merge_covers_every_field() {
        let a = SearchStats {
            generated: 1,
            expanded: 2,
            pruned_processor_isomorphism: 3,
            pruned_node_equivalence: 4,
            pruned_upper_bound: 5,
            duplicates: 6,
            duplicates_global: 7,
            election_transfers: 12,
            max_open_size: 9,
            peak_live_states: 8,
            peak_live_records: 13,
            reclaimed_records: 14,
            materialisations: 15,
            path_cache_hits: 16,
            path_cache_ancestor_hits: 18,
            replayed_deltas: 17,
            replayed_deltas_saved: 19,
            heuristic_evaluations: 10,
            path_segments_enumerated: 11,
        };
        let b = SearchStats {
            generated: 100,
            expanded: 200,
            pruned_processor_isomorphism: 300,
            pruned_node_equivalence: 400,
            pruned_upper_bound: 500,
            duplicates: 600,
            duplicates_global: 700,
            election_transfers: 1200,
            max_open_size: 4,
            peak_live_states: 3,
            peak_live_records: 5,
            reclaimed_records: 1400,
            materialisations: 1500,
            path_cache_hits: 1600,
            path_cache_ancestor_hits: 1800,
            replayed_deltas: 1700,
            replayed_deltas_saved: 1900,
            heuristic_evaluations: 1000,
            path_segments_enumerated: 1100,
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(
            merged,
            SearchStats {
                generated: 101,
                expanded: 202,
                pruned_processor_isomorphism: 303,
                pruned_node_equivalence: 404,
                pruned_upper_bound: 505,
                duplicates: 606,
                duplicates_global: 707,
                election_transfers: 1212,
                max_open_size: 9,      // high-water mark: max, not sum
                peak_live_states: 8,   // high-water mark: max, not sum
                peak_live_records: 13, // high-water mark: max, not sum
                reclaimed_records: 1414,
                materialisations: 1515,
                path_cache_hits: 1616,
                path_cache_ancestor_hits: 1818,
                replayed_deltas: 1717,
                replayed_deltas_saved: 1919,
                heuristic_evaluations: 1010,
                path_segments_enumerated: 1111,
            }
        );

        // Merging into a default is identity.
        let mut from_zero = SearchStats::default();
        from_zero.merge(&a);
        assert_eq!(from_zero, a);
    }

    #[test]
    fn result_accessors() {
        let r = SearchResult {
            schedule: None,
            schedule_length: 0,
            outcome: SearchOutcome::LimitReached,
            stats: SearchStats::default(),
            elapsed: Duration::from_millis(5),
        };
        assert!(!r.is_optimal());
    }

    #[test]
    #[should_panic(expected = "did not produce a schedule")]
    fn expect_schedule_panics_without_schedule() {
        let r = SearchResult {
            schedule: None,
            schedule_length: 0,
            outcome: SearchOutcome::Exhausted,
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
        };
        r.expect_schedule();
    }
}
