//! Results of a parallel search run.

use std::time::Duration;

use optsched_core::{SearchOutcome, SearchStats};
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::closed::ClosedTableStats;

/// Outcome of a parallel A* / Aε* run, including per-PPE statistics.
#[derive(Debug, Clone)]
pub struct ParallelSearchResult {
    /// The best complete schedule found.
    pub schedule: Schedule,
    /// Why the run stopped (same meaning as for the serial schedulers; for
    /// an ε-bounded run, `Optimal` means "within the configured bound").
    pub outcome: SearchOutcome,
    /// Statistics of every PPE, indexed by PPE id.
    pub per_ppe_stats: Vec<SearchStats>,
    /// Per-shard hit/miss statistics of the global CLOSED table
    /// (`None` when the run used `DuplicateDetection::Local`).
    pub closed_stats: Option<ClosedTableStats>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Number of PPE threads used.
    pub num_ppes: usize,
    /// High-water mark of the `in_flight` gauge in fixed-size state
    /// *records*: `v` (the node count) per shipped snapshot.  Whatever is
    /// parked in the inter-PPE channels is owned by no PPE's state store, so
    /// it escapes the per-PPE `peak_live_states` counters; the result folds
    /// the peak back in (see [`ParallelSearchResult::peak_live_states`]) so
    /// the memory headline stays airtight under eager communication.
    pub peak_in_flight: u64,
}

impl ParallelSearchResult {
    /// Schedule length of the returned schedule.
    pub fn schedule_length(&self) -> Cost {
        self.schedule.makespan()
    }

    /// True if the run carries its optimality (or ε-bound) guarantee.
    pub fn is_optimal(&self) -> bool {
        self.outcome == SearchOutcome::Optimal
    }

    /// Aggregated statistics over all PPEs.
    ///
    /// Delegates to [`SearchStats::merge`], the single authoritative
    /// definition of how per-PPE counters aggregate (sums for additive
    /// counters, max for high-water marks), so a counter added to
    /// `SearchStats` can never be silently dropped from the totals.
    pub fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for s in &self.per_ppe_stats {
            total.merge(s);
        }
        total
    }

    /// Total states expanded across all PPEs.
    pub fn total_expanded(&self) -> u64 {
        self.per_ppe_stats.iter().map(|s| s.expanded).sum()
    }

    /// Redundant cross-PPE expansions avoided by the sharded global CLOSED
    /// table: states dropped at generation time because a *different* PPE had
    /// already claimed the same partial schedule.  Always 0 in `Local` mode,
    /// where every PPE prunes only against its own history.
    pub fn redundant_expansions_avoided(&self) -> u64 {
        self.per_ppe_stats.iter().map(|s| s.duplicates_global).sum()
    }

    /// The run's live-full-state memory headline: the largest number of
    /// fully materialised states any single PPE's store held at once (root,
    /// scratch and adopted snapshots) **plus** the in-flight transfer
    /// high-water mark — states parked in the channels belong to no store,
    /// and before they were folded in here an eagerly communicating run could
    /// park an unbounded number of full states in flight without the headline
    /// moving.  The store-only component remains available as
    /// `total_stats().peak_live_states`.
    pub fn peak_live_states(&self) -> u64 {
        self.total_stats().peak_live_states + self.peak_in_flight
    }

    /// Ownership-transferring best-state election transfers accepted across
    /// all PPEs (always 0 in `Local` mode, whose election sends copies).
    pub fn election_transfers(&self) -> u64 {
        self.total_stats().election_transfers
    }

    /// Ratio between the busiest and the least busy PPE (1.0 = perfectly even).
    ///
    /// A rough indicator of how well the round-robin load sharing balanced
    /// the search; returns 1.0 when fewer than two PPEs did any work.
    pub fn load_imbalance(&self) -> f64 {
        let counts: Vec<u64> = self.per_ppe_stats.iter().map(|s| s.expanded).collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_core::SearchStats;

    fn dummy(expanded: Vec<u64>) -> ParallelSearchResult {
        ParallelSearchResult {
            schedule: Schedule::new(1, 1),
            outcome: SearchOutcome::Optimal,
            per_ppe_stats: expanded
                .into_iter()
                .map(|e| SearchStats {
                    expanded: e,
                    generated: e * 2,
                    duplicates_global: e / 10,
                    election_transfers: e / 5,
                    max_open_size: e as usize,
                    peak_live_states: e + 1,
                    ..Default::default()
                })
                .collect(),
            closed_stats: None,
            elapsed: Duration::from_millis(1),
            num_ppes: 2,
            peak_in_flight: 3,
        }
    }

    #[test]
    fn aggregation_sums_counters() {
        let r = dummy(vec![10, 30]);
        assert_eq!(r.total_expanded(), 40);
        assert_eq!(r.total_stats().generated, 80);
        assert_eq!(r.redundant_expansions_avoided(), 4);
        assert_eq!(r.total_stats().duplicates_global, 4);
        assert_eq!(r.election_transfers(), 8);
        // High-water marks take the max across PPEs, not the sum; the
        // headline additionally folds in the in-flight transfer peak.
        assert_eq!(r.total_stats().max_open_size, 30);
        assert_eq!(r.total_stats().peak_live_states, 31);
        assert_eq!(r.peak_live_states(), 31 + 3);
        assert!((r.load_imbalance() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn load_imbalance_edge_cases() {
        assert_eq!(dummy(vec![0, 0]).load_imbalance(), 1.0);
        assert_eq!(dummy(vec![5, 0]).load_imbalance(), f64::INFINITY);
    }
}
