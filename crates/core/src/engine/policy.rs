//! Frontier policies: the per-algorithm part of the unified search engine.
//!
//! [`Search::step`](crate::engine::Search::step) owns everything the
//! scheduler families share — OPEN/CLOSED bookkeeping, duplicate detection,
//! limit enforcement, incumbent tracking, statistics.  What makes A\*,
//! Aε\*, Chen & Yu branch-and-bound and exhaustive enumeration different
//! algorithms is captured by the [`FrontierPolicy`] trait: how a generated
//! child is *evaluated* (and bound-pruned), and in which *order* frontier
//! states are selected for expansion.  Each policy below is a few dozen
//! lines; adding a new scheduler family means adding one more.

use optsched_taskgraph::Cost;

use crate::engine::arena::StateId;
use crate::engine::bucket::{BucketQueue, Queued};
use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, SearchState};
use crate::stats::SearchStats;

/// One OPEN-list entry: a stored state plus the costs the policies order by.
///
/// The best-first policies keep OPEN as a [`BucketQueue`] keyed by their
/// ordering, so a queued entry stores only what its key does not imply:
/// under [`AStarPolicy`], whose `(f, h)` key gives every cost, that is the
/// id and `seq` in 16 bytes.  [`FrontierPolicy::pop`] rebuilds the entry
/// as it was pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenEntry {
    /// Arena id of the state.
    pub id: StateId,
    /// `f = g + h` of the state.
    pub f: Cost,
    /// `h` of the state.
    pub h: Cost,
    /// The policy's ordering value ([`FrontierPolicy::evaluate`]'s result):
    /// `f` for the A\* family, the path-matching bound for Chen & Yu, `g`
    /// for the exhaustive enumeration.
    pub value: Cost,
    /// Insertion sequence number (FIFO/LIFO tie-breaking).  Pushes carry
    /// increasing numbers, as the engine's insertion counter does: the
    /// bucket queues break ties in push order.
    pub seq: u64,
}

impl OpenEntry {
    /// This entry as a queue entry under `key`, carrying `extra`.
    fn queued<E>(self, key: (Cost, Cost), extra: E) -> Queued<E> {
        Queued { key, id: self.id, seq: self.seq, extra }
    }
}

/// The pluggable algorithm-specific half of the search engine.
pub trait FrontierPolicy {
    /// Evaluates a freshly generated child (described by `delta`, against its
    /// materialised `parent`).  Returns the child's ordering value, or `None`
    /// to discard it as bound-pruned (counted as
    /// [`SearchStats::pruned_upper_bound`]).
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        stats: &mut SearchStats,
    ) -> Option<Cost>;

    /// Inserts a state into the frontier.  An entry's `value` must be what
    /// [`FrontierPolicy::evaluate`] returned for it (the root's is 0).
    fn push(&mut self, entry: OpenEntry);

    /// Removes and returns the next state to expand.  The returned entry
    /// equals, field for field, the one pushed for that state.
    fn pop(&mut self) -> Option<OpenEntry>;

    /// The entry [`FrontierPolicy::pop`] would return next, left in OPEN.
    /// A PPE of the parallel scheduler reads it for its best-state
    /// election; the serial loop never calls it.
    fn peek(&mut self) -> Option<OpenEntry>;

    /// The smallest `f` in OPEN (`None` when OPEN is empty), which a PPE of
    /// the parallel scheduler publishes for its global termination test;
    /// the serial loop never calls it.  The default is the `f` of the next
    /// entry: the smallest for a policy that pops in `f` order, such as
    /// [`AStarPolicy`], but not for [`WeightedAStarPolicy`],
    /// [`BoundPolicy`] or [`DfsPolicy`].  [`FocalPolicy`], whose next entry
    /// may come from FOCAL, overrides it with its `fmin`.
    fn min_f(&mut self) -> Option<Cost> {
        self.peek().map(|e| e.f)
    }

    /// Current frontier size (may include lazily deleted entries).
    fn open_len(&self) -> usize;

    /// True when the first goal state *popped* from the frontier is provably
    /// final (best-first order with an admissible evaluation).  When false,
    /// popped goals only update the incumbent and the search continues until
    /// the frontier is exhausted (exhaustive enumeration).
    fn goal_on_pop_is_final(&self) -> bool {
        true
    }

    /// Whether goals discovered at *generation* time update the incumbent
    /// immediately (tightening the bound for the rest of the expansion).
    fn track_goals_at_generation(&self) -> bool {
        true
    }

    /// The incumbent length the bound-pruning rule starts from.
    fn initial_incumbent_len(&self, problem: &SchedulingProblem) -> Cost {
        problem.upper_bound()
    }
}

/// A\* (Section 3.1): best-first on `(f, h, FIFO)`, with the upper-bound
/// pruning rule of Section 3.2 when enabled.
#[derive(Debug)]
pub struct AStarPolicy {
    /// Keyed `(f, h)`; an entry's `value` is its `f`.
    open: BucketQueue,
    prune_upper_bound: bool,
}

impl AStarPolicy {
    /// An A\* frontier; `prune_upper_bound` enables the incumbent bound rule.
    pub fn new(prune_upper_bound: bool) -> AStarPolicy {
        AStarPolicy { open: BucketQueue::new(), prune_upper_bound }
    }

    fn entry(e: Queued) -> OpenEntry {
        let (f, h) = e.key;
        OpenEntry { id: e.id, f, h, value: f, seq: e.seq }
    }
}

impl FrontierPolicy for AStarPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len).then_some(f)
    }

    fn push(&mut self, entry: OpenEntry) {
        debug_assert_eq!(entry.value, entry.f, "A* orders by f");
        self.open.push(entry.queued((entry.f, entry.h), ()));
    }

    fn pop(&mut self) -> Option<OpenEntry> {
        self.open.pop().map(AStarPolicy::entry)
    }

    fn peek(&mut self) -> Option<OpenEntry> {
        self.open.peek().map(AStarPolicy::entry)
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

/// Weighted A\* (the classic anytime/bounded-suboptimal variant): best-first
/// on `g + w · h` for a weight `w ≥ 1`, which inflates the heuristic to reach
/// goals sooner at the price of a `w`-bounded deviation from the optimum.
///
/// Everything *except* the ordering stays admissible: the upper-bound rule
/// still prunes on the uninflated `f = g + h`, so the weight never discards a
/// state a weight-1 search would keep — it only visits promising-looking
/// deep states earlier.  That makes the policy ideal under a wall-clock
/// deadline: an interrupted run's incumbent is much more likely to be a real
/// improvement over the list schedule.  At `w = 1` the ordering key
/// `(g + h, h, FIFO)` coincides with [`AStarPolicy`]'s for every cost and
/// the search is *bit-identical* to A\* (pinned by the conformance suite).
#[derive(Debug)]
pub struct WeightedAStarPolicy {
    /// Keyed `(value, h)`, carrying `f`.
    open: BucketQueue<Cost>,
    weight: f64,
    prune_upper_bound: bool,
}

impl WeightedAStarPolicy {
    /// A weighted-A\* frontier with the given heuristic weight (`>= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is below 1 or not finite.
    pub fn new(weight: f64, prune_upper_bound: bool) -> WeightedAStarPolicy {
        assert!(weight.is_finite() && weight >= 1.0, "weight must be a finite number >= 1");
        WeightedAStarPolicy { open: BucketQueue::new(), weight, prune_upper_bound }
    }

    /// The inflated ordering key `g + round(w · h)`.  At `w = 1` it is
    /// exactly `g + h`: rounding through `f64` would lose integers above
    /// 2^53.  A larger weight saturates at `Cost::MAX` instead of wrapping.
    fn inflated(&self, g: Cost, h: Cost) -> Cost {
        if self.weight == 1.0 {
            g + h
        } else {
            g.saturating_add((self.weight * h as f64).round() as Cost)
        }
    }

    fn entry(e: Queued<Cost>) -> OpenEntry {
        let (value, h) = e.key;
        OpenEntry { id: e.id, f: e.extra, h, value, seq: e.seq }
    }
}

impl FrontierPolicy for WeightedAStarPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        // Prune on the *uninflated* admissible f so the weight cannot cut an
        // optimal path; order by the inflated value.
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len)
            .then(|| self.inflated(delta.g, delta.h))
    }

    fn push(&mut self, entry: OpenEntry) {
        self.open.push(entry.queued((entry.value, entry.h), entry.f));
    }

    fn pop(&mut self) -> Option<OpenEntry> {
        self.open.pop().map(WeightedAStarPolicy::entry)
    }

    fn peek(&mut self) -> Option<OpenEntry> {
        self.open.peek().map(WeightedAStarPolicy::entry)
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

/// Largest cost admitted into FOCAL when the smallest OPEN cost is `fmin`:
/// `floor(fmin · (1 + ε))`, computed in `f64` and clamped to at least
/// `fmin`.  Above 2^53 an `f64` cannot hold every integer and `fmin` itself
/// may round down; the clamp keeps `fmin` in FOCAL, so at `ε = 0` the
/// threshold is exactly `fmin` for every cost.
pub fn focal_threshold(epsilon: f64, fmin: Cost) -> Cost {
    (((fmin as f64) * (1.0 + epsilon)).floor() as Cost).max(fmin)
}

/// Sentinel for "no live OPEN entry under this id" in [`FocalPolicy`]'s
/// lazy-deletion table.
const NO_OPEN_SEQ: u64 = u64::MAX;

/// Aε\* (Section 3.4, Pearl & Kim): keeps two lazily synchronised orderings
/// of OPEN — by `f` (for `fmin` and the fallback) and by `(h, f)` — and
/// expands the smallest-`h` state whose `f` is within `(1 + ε) · fmin`
/// (FOCAL), falling back to the smallest-`f` state.
///
/// [`FrontierPolicy::open_len`] is the size of the `f` ordering: the live
/// entries plus those taken through FOCAL that it has not yet discarded.
#[derive(Debug)]
pub struct FocalPolicy {
    epsilon: f64,
    prune_upper_bound: bool,
    /// Keyed `(f, 0)`, carrying `h`; an entry's `value` is its `f`.
    open_f: BucketQueue<Cost>,
    /// Keyed `(h, f)`.
    open_h: BucketQueue,
    /// Lazy-deletion marker: the `seq` of the live OPEN entry per state id
    /// ([`NO_OPEN_SEQ`] when the id is closed).  Keyed on `seq` rather than
    /// a boolean because the arena reuses reclaimed ids — a stale twin entry
    /// for a freed-and-reused id must not be mistaken for the new state.
    in_open: Vec<u64>,
}

impl FocalPolicy {
    /// An Aε\* frontier with approximation factor `epsilon`.
    pub fn new(epsilon: f64, prune_upper_bound: bool) -> FocalPolicy {
        FocalPolicy {
            epsilon,
            prune_upper_bound,
            open_f: BucketQueue::new(),
            open_h: BucketQueue::new(),
            in_open: Vec::new(),
        }
    }

    fn is_open<E>(&self, e: &Queued<E>) -> bool {
        self.in_open.get(e.id as usize).copied() == Some(e.seq)
    }

    fn mark(&mut self, id: StateId, seq: u64) {
        let i = id as usize;
        if i >= self.in_open.len() {
            self.in_open.resize(i + 1, NO_OPEN_SEQ);
        }
        self.in_open[i] = seq;
    }

    /// The live front of the `f` ordering (`fmin`'s entry), after
    /// discarding the entries already taken through FOCAL.
    fn front_f(&mut self) -> Option<Queued<Cost>> {
        loop {
            let e = self.open_f.peek()?;
            if self.is_open(&e) {
                return Some(e);
            }
            self.open_f.pop();
        }
    }

    /// The entry to expand next, and whether it is the front of the `(h, f)`
    /// ordering (else of the `f` one): the smallest-`h` state if it lies
    /// within FOCAL, else the smallest-`f` state (which trivially does).
    fn next(&mut self) -> Option<(OpenEntry, bool)> {
        let front = self.front_f()?;
        let threshold = focal_threshold(self.epsilon, front.key.0);
        while let Some(e) = self.open_h.peek() {
            if !self.is_open(&e) {
                self.open_h.pop();
                continue;
            }
            let (h, f) = e.key;
            if f <= threshold {
                return Some((OpenEntry { id: e.id, f, h, value: f, seq: e.seq }, true));
            }
            break;
        }
        let f = front.key.0;
        Some((OpenEntry { id: front.id, f, h: front.extra, value: f, seq: front.seq }, false))
    }
}

impl FrontierPolicy for FocalPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len).then_some(f)
    }

    fn push(&mut self, entry: OpenEntry) {
        debug_assert_eq!(entry.value, entry.f, "Aε* orders by f");
        self.mark(entry.id, entry.seq);
        self.open_f.push(entry.queued((entry.f, 0), entry.h));
        self.open_h.push(entry.queued((entry.h, entry.f), ()));
    }

    fn pop(&mut self) -> Option<OpenEntry> {
        let (entry, focal) = self.next()?;
        if focal {
            self.open_h.pop();
        } else {
            self.open_f.pop();
        }
        self.mark(entry.id, NO_OPEN_SEQ);
        Some(entry)
    }

    fn peek(&mut self) -> Option<OpenEntry> {
        self.next().map(|(entry, _)| entry)
    }

    /// `fmin`, the smallest `f` of a live entry: below the `f` of the next
    /// entry whenever that comes from FOCAL.
    fn min_f(&mut self) -> Option<Cost> {
        self.front_f().map(|e| e.key.0)
    }

    fn open_len(&self) -> usize {
        self.open_f.len()
    }
}

/// Branch-and-bound with an expensive underestimate (Chen & Yu): best-first
/// on the bound computed by the supplied evaluator — for the paper's
/// baseline, explicit execution-path enumeration matched against the
/// processor graph.  Elimination is against incumbents found by the search
/// itself (no external upper bound), hence the infinite initial incumbent.
#[derive(Debug)]
pub struct BoundPolicy<F> {
    /// Keyed `(bound, 0)`, carrying `(f, h)`.
    open: BucketQueue<(Cost, Cost)>,
    bound: F,
}

impl<F> BoundPolicy<F>
where
    F: FnMut(&SchedulingProblem, &SearchState, &ChildDelta, &mut SearchStats) -> Cost,
{
    /// A branch-and-bound frontier ordered by `bound`'s result.
    pub fn new(bound: F) -> BoundPolicy<F> {
        BoundPolicy { open: BucketQueue::new(), bound }
    }

    fn entry(e: Queued<(Cost, Cost)>) -> OpenEntry {
        let (f, h) = e.extra;
        OpenEntry { id: e.id, f, h, value: e.key.0, seq: e.seq }
    }
}

impl<F> FrontierPolicy for BoundPolicy<F>
where
    F: FnMut(&SchedulingProblem, &SearchState, &ChildDelta, &mut SearchStats) -> Cost,
{
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        stats: &mut SearchStats,
    ) -> Option<Cost> {
        let bound = (self.bound)(problem, parent, delta, stats);
        (bound <= incumbent_len).then_some(bound)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.open.push(entry.queued((entry.value, 0), (entry.f, entry.h)));
    }

    fn pop(&mut self) -> Option<OpenEntry> {
        self.open.pop().map(BoundPolicy::<F>::entry)
    }

    fn peek(&mut self) -> Option<OpenEntry> {
        self.open.peek().map(BoundPolicy::<F>::entry)
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }

    fn initial_incumbent_len(&self, _problem: &SchedulingProblem) -> Cost {
        Cost::MAX
    }
}

/// Exhaustive depth-first enumeration: LIFO order, prune only against the
/// best complete schedule found so far (exact because `g` never decreases
/// along a path).  Goals never terminate the search — exhausting the
/// frontier is the optimality proof.
#[derive(Debug, Default)]
pub struct DfsPolicy {
    stack: Vec<OpenEntry>,
}

impl DfsPolicy {
    /// An empty depth-first frontier.
    pub fn new() -> DfsPolicy {
        DfsPolicy::default()
    }
}

impl FrontierPolicy for DfsPolicy {
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let is_goal = usize::from(parent.depth()) + 1 == problem.num_nodes();
        if delta.g > incumbent_len || (is_goal && delta.g >= incumbent_len) {
            return None;
        }
        Some(delta.g)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.stack.push(entry);
    }

    fn pop(&mut self) -> Option<OpenEntry> {
        self.stack.pop()
    }

    fn peek(&mut self) -> Option<OpenEntry> {
        self.stack.last().copied()
    }

    fn open_len(&self) -> usize {
        self.stack.len()
    }

    fn goal_on_pop_is_final(&self) -> bool {
        false
    }

    fn track_goals_at_generation(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: StateId, f: Cost, h: Cost, seq: u64) -> OpenEntry {
        OpenEntry { id, f, h, value: f, seq }
    }

    #[test]
    fn astar_policy_orders_by_f_then_h_then_fifo() {
        let mut p = AStarPolicy::new(true);
        p.push(entry(0, 5, 3, 0));
        p.push(entry(1, 4, 9, 1));
        p.push(entry(2, 4, 2, 2));
        p.push(entry(3, 4, 2, 3));
        assert_eq!(p.open_len(), 4);
        let order: Vec<StateId> = std::iter::from_fn(|| p.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn weighted_policy_at_one_orders_like_astar() {
        let mut w = WeightedAStarPolicy::new(1.0, true);
        let mut a = AStarPolicy::new(true);
        for e in [entry(0, 5, 3, 0), entry(1, 4, 9, 1), entry(2, 4, 2, 2)] {
            w.push(e);
            a.push(e);
        }
        let worder: Vec<StateId> = std::iter::from_fn(|| w.pop()).map(|e| e.id).collect();
        let aorder: Vec<StateId> = std::iter::from_fn(|| a.pop()).map(|e| e.id).collect();
        assert_eq!(worder, aorder);
    }

    #[test]
    fn weighted_policy_inflates_only_the_ordering() {
        let mut p = WeightedAStarPolicy::new(2.0, true);
        assert_eq!(p.inflated(4, 3), 10);
        // value = g + 2h: a deep state (small h) overtakes a shallow one with
        // equal f.
        p.push(OpenEntry { id: 0, f: 10, h: 8, value: 2 + 16, seq: 0 });
        p.push(OpenEntry { id: 1, f: 10, h: 1, value: 9 + 2, seq: 1 });
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop().unwrap().id, 0);
    }

    /// Above 2^53 an `f64` cannot hold every integer: at `w = 1` the key
    /// must still be exactly `f`, and a larger weight saturates.
    #[test]
    fn weighted_policy_at_one_keys_by_f_above_2_pow_53() {
        use optsched_procnet::{ProcId, ProcNetwork};
        use optsched_taskgraph::{paper_example_dag, NodeId};

        let problem = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        let parent = SearchState::initial(&problem);
        let (node, proc) = (NodeId(0), ProcId(0));
        let delta = ChildDelta { node, proc, start: 0, finish: 5, g: 5, h: (1 << 53) + 1 };
        let mut stats = SearchStats::default();
        let mut p = WeightedAStarPolicy::new(1.0, true);
        let value = p.evaluate(&problem, &parent, &delta, Cost::MAX, &mut stats);
        assert_eq!(value, Some(delta.f()));
        assert_eq!(WeightedAStarPolicy::new(2.0, true).inflated(Cost::MAX - 1, 10), Cost::MAX);
    }

    #[test]
    fn peek_returns_the_entry_pop_returns_next() {
        let no_bound =
            |_: &SchedulingProblem, _: &SearchState, _: &ChildDelta, _: &mut SearchStats| 0;
        let policies: [Box<dyn FrontierPolicy>; 5] = [
            Box::new(AStarPolicy::new(true)),
            Box::new(WeightedAStarPolicy::new(2.0, true)),
            Box::new(FocalPolicy::new(0.5, true)),
            Box::new(BoundPolicy::new(no_bound)),
            Box::new(DfsPolicy::new()),
        ];
        for mut p in policies {
            for (id, (f, h)) in [(10, 9), (14, 1), (12, 3), (16, 0)].into_iter().enumerate() {
                p.push(entry(id as StateId, f, h, id as u64));
            }
            while let Some(next) = p.peek() {
                assert_eq!(p.pop(), Some(next));
            }
            assert_eq!(p.pop(), None);
        }
    }

    /// A PPE publishes `fmin` for its termination test.  Once the `fmin`
    /// entry has been taken through FOCAL, the `f` ordering still holds a
    /// stale copy of it, and the next entry may lie above `fmin`.
    #[test]
    fn focal_policy_min_f_is_fmin_not_the_next_entry() {
        let mut p = FocalPolicy::new(0.5, true);
        p.push(entry(0, 10, 0, 0)); // fmin and the smallest h
        p.push(entry(1, 11, 5, 1));
        p.push(entry(2, 14, 1, 2));
        assert_eq!(p.min_f(), Some(10));
        assert_eq!(p.pop().unwrap().id, 0, "taken through FOCAL");
        assert_eq!(p.min_f(), Some(11));
        let next = p.peek().unwrap();
        assert_eq!((next.id, next.f), (2, 14), "FOCAL's smallest h, above fmin");
        assert_eq!(p.pop(), Some(next));
        assert_eq!(p.min_f(), Some(11));
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!((p.min_f(), p.peek()), (None, None));
    }

    #[test]
    #[should_panic(expected = "weight must be")]
    fn weighted_policy_rejects_weights_below_one() {
        let _ = WeightedAStarPolicy::new(0.5, true);
    }

    #[test]
    fn focal_threshold_rounds_down() {
        assert_eq!(focal_threshold(0.2, 10), 12);
        assert_eq!(focal_threshold(0.2, 14), 16); // 16.8 -> 16
        assert_eq!(focal_threshold(0.0, 7), 7);
    }

    #[test]
    fn focal_threshold_never_drops_below_fmin() {
        let fmin = (1u64 << 53) + 1; // rounds down to 2^53 as an f64
        assert_eq!(focal_threshold(0.0, fmin), fmin);
        assert_eq!(focal_threshold(0.0, u64::MAX), u64::MAX);
        assert!(focal_threshold(1e-18, fmin) >= fmin);
        assert_eq!(focal_threshold(0.5, 1 << 60), 3 << 59);
        assert_eq!(focal_threshold(0.5, u64::MAX - 1), u64::MAX, "saturates");
    }

    #[test]
    fn focal_policy_prefers_small_h_within_the_bound() {
        let mut p = FocalPolicy::new(0.5, true);
        p.push(entry(0, 10, 9, 0)); // fmin, large h
        p.push(entry(1, 14, 1, 1)); // inside FOCAL (14 <= 15), smallest h
        p.push(entry(2, 16, 5, 2)); // outside FOCAL
        assert_eq!(p.pop().unwrap().id, 1);
        // Now the h-ordered top is entry 2 (h = 5) but its f is above
        // floor(10 * 1.5) = 15: the policy only inspects the top of the
        // h-ordered heap, so it falls back to the smallest-f state (id 0).
        assert_eq!(p.pop().unwrap().id, 0);
        assert_eq!(p.pop().unwrap().id, 2);
        assert!(p.pop().is_none());
    }

    #[test]
    fn focal_policy_at_zero_epsilon_is_astar_like_on_f() {
        let mut p = FocalPolicy::new(0.0, true);
        p.push(entry(0, 5, 5, 0));
        p.push(entry(1, 5, 1, 1));
        p.push(entry(2, 7, 0, 2));
        // FOCAL = { f == 5 }: the h-ordered top is id 2 (h = 0) but f = 7 > 5,
        // so the fallback pops the smallest-f entry (id 0, FIFO before 1).
        assert_eq!(p.pop().unwrap().id, 0);
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop().unwrap().id, 2);
    }

    #[test]
    fn dfs_policy_is_lifo_and_goals_do_not_finalise() {
        let mut p = DfsPolicy::new();
        p.push(entry(0, 1, 0, 0));
        p.push(entry(1, 2, 0, 1));
        assert!(!p.goal_on_pop_is_final());
        assert!(!p.track_goals_at_generation());
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop().unwrap().id, 0);
    }
}
