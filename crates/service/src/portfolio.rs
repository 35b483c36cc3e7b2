//! The `algorithm: "auto"` portfolio: cheap instance features, a deadline
//! band, and the plan that resolves both into a concrete algorithm.
//!
//! `auto` is a *service-level* contract: "give me the best schedule you can
//! justify inside my deadline".  The portfolio reads a handful of O(V + E)
//! features off the instance (node count, CCR, level structure, topology
//! class), predicts very roughly how long a seeded exact search would take,
//! and sorts the request into one of three deadline bands:
//!
//! * **Generous** (no deadline, or ≥ 4× the prediction) — run a seeded
//!   exact search ([`PlanMode::AutoExact`]); the answer is provably optimal.
//! * **Tight** (below the prediction, including 0 ms) — run weighted A\*
//!   with a feature-calibrated weight ([`PlanMode::AutoAnytime`]); the
//!   answer is the best incumbent the budget allowed, never infeasible.
//! * **Mid** (in between) — a staged race ([`PlanMode::AutoRace`]): a short
//!   weighted-A\* leg secures a good feasible answer, then the remaining
//!   budget warm-starts an exact search from it (and from the cache's
//!   nearest structural match, when one validates).
//!
//! The resolved plan — never the literal string `"auto"` — is what the
//! cache and the in-flight coalescer key on, so a tight heuristic answer
//! can never be served to a generous request.  The prediction constants
//! below were fitted against the offline corpus run checked in at
//! `results/BENCH_auto.json` (see `crates/bench/src/bin/bench_auto.rs`).

use std::collections::VecDeque;

use optsched::registry::NAMES;
use optsched_procnet::Topology;

use crate::protocol::{plan, Instance, Request};
use crate::service::ServiceConfig;

/// Cheap structural features of an instance, the portfolio's entire input.
///
/// Everything here is O(V + E) to compute — the point is to *route* the
/// request, not to solve it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFeatures {
    /// Task count `v`.
    pub nodes: usize,
    /// Precedence-edge count.
    pub edges: usize,
    /// Processor count.
    pub procs: usize,
    /// Communication-to-computation ratio of the graph.
    pub ccr: f64,
    /// Whether the target network is fully connected (anything else makes
    /// the cost model's data-ready times, and so the search, lumpier).
    pub fully_connected: bool,
    /// Number of precedence levels (longest path in hops, plus one).
    pub levels: usize,
    /// Largest number of tasks on one level — the width that drives the
    /// branching factor of the search.
    pub max_level_width: usize,
}

impl InstanceFeatures {
    /// Extracts the features from an instance.
    pub fn of(instance: &Instance) -> InstanceFeatures {
        let graph = &instance.graph;
        let n = graph.num_nodes();
        // Hop-depth layering by a Kahn walk: depth(entry) = 0, depth(v) =
        // 1 + max over predecessors.
        let mut indeg = vec![0usize; n];
        for u in graph.node_ids() {
            for &(v, _) in graph.successors(u) {
                indeg[v.index()] += 1;
            }
        }
        let mut depth = vec![0usize; n];
        let mut queue: VecDeque<_> = graph.entry_nodes().into_iter().collect();
        while let Some(u) = queue.pop_front() {
            for &(v, _) in graph.successors(u) {
                depth[v.index()] = depth[v.index()].max(depth[u.index()] + 1);
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let levels = depth.iter().max().map_or(0, |d| d + 1);
        let mut widths = vec![0usize; levels];
        for &d in &depth {
            widths[d] += 1;
        }
        InstanceFeatures {
            nodes: n,
            edges: graph.num_edges(),
            procs: instance.network.num_procs(),
            ccr: graph.ccr(),
            fully_connected: matches!(instance.network.topology(), Some(Topology::FullyConnected)),
            levels,
            max_level_width: widths.iter().copied().max().unwrap_or(0),
        }
    }

    /// A rough wall-clock prediction (ms, ≥ 1) for a *seeded exact* search
    /// of this instance — the yardstick the deadline is banded against.
    ///
    /// The shape is a calibrated guess, not a model: exact search cost is
    /// dominated by an exponential in the node count past the trivial sizes,
    /// inflated by communication weight (CCR), by wide levels (branching)
    /// and by non-fully-connected targets (lumpier data-ready times).
    /// High-CCR instances grow *faster per node* than the linear `ccr_factor`
    /// captures — communication weight multiplies the near-tied data-ready
    /// alternatives at every branching level — so past the CCR crossover the
    /// prediction also compounds a per-level tail factor over the levels
    /// that actually branch (bounded by the level width).  The constants
    /// were sanity-checked against `results/BENCH_auto.json`: corpus cells
    /// land within a factor of a few of the measurement in both directions
    /// (the old linear-only shape under-predicted the wide high-CCR tail by
    /// ~20×).  Banding tolerates the remaining spread — the generous band
    /// starts at 4× the prediction, and a mis-banded request still gets a
    /// feasible (race or anytime) answer, never an infeasible one.
    pub fn predicted_exact_ms(&self) -> u64 {
        let extra_nodes = (self.nodes as f64 - 6.0).max(0.0);
        let base = 0.05 * 6f64.powf(extra_nodes);
        let ccr_factor = 1.0 + 0.25 * self.ccr.min(8.0);
        let tail_factor = if self.ccr >= 2.0 {
            // Compound over the branching levels: narrow graphs (small
            // max_level_width) have few near-tied alternatives per level and
            // stay close to the linear shape; wide ones balloon.
            let tail_steps = extra_nodes.min(self.max_level_width.saturating_sub(2) as f64);
            (1.0 + 0.1 * (self.ccr - 2.0).min(8.0)).powf(tail_steps)
        } else {
            1.0
        };
        let width_factor = 1.0 + 0.15 * self.max_level_width.saturating_sub(2) as f64;
        let topo_factor = if self.fully_connected { 1.0 } else { 1.3 };
        (base * ccr_factor * tail_factor * width_factor * topo_factor).ceil().max(1.0) as u64
    }

    /// The exact algorithm the portfolio runs when the deadline affords one.
    ///
    /// Chen & Yu's depth-first branch-and-bound holds only the current path,
    /// which on communication-heavy instances (high CCR, where the A\*
    /// frontier balloons with near-tied data-ready alternatives) makes it
    /// the cheaper prover; computation-dominated instances stay with A\*'s
    /// best-first order.  The crossover matches the corpus run in
    /// `results/BENCH_auto.json`.
    pub fn exact_algorithm(&self) -> &'static str {
        if self.ccr >= 2.0 {
            "chenyu"
        } else {
            "astar"
        }
    }

    /// The weighted-A\* weight for the tight band, starting from the
    /// service's configured deadline weight.
    ///
    /// Larger instances need a greedier search to reach *any* complete
    /// schedule inside a tight budget, so past 10 nodes the weight is raised
    /// to at least 2.0.  At or below 10 nodes the base weight is returned
    /// unchanged — deliberately, so `auto` in the tight band is bit-identical
    /// to a plain `wastar` request on small instances.
    pub fn calibrated_weight(&self, base: f64) -> f64 {
        if self.nodes > 10 {
            base.max(2.0)
        } else {
            base
        }
    }
}

/// Where a request's deadline falls relative to the predicted exact cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineBand {
    /// No deadline, or at least [`GENEROUS_FACTOR`] × the prediction.
    Generous,
    /// Between the prediction and [`GENEROUS_FACTOR`] × it.
    Mid,
    /// Below the prediction (0 ms is always tight, since predictions are
    /// ≥ 1 ms).
    Tight,
}

/// A deadline at least this many times the predicted exact cost counts as
/// generous: the exact search gets the whole budget.
pub const GENEROUS_FACTOR: u64 = 4;

impl DeadlineBand {
    /// Bands `deadline_ms` against `predicted_ms` (which is ≥ 1).
    pub fn of(deadline_ms: Option<u64>, predicted_ms: u64) -> DeadlineBand {
        match deadline_ms {
            None => DeadlineBand::Generous,
            Some(d) if d >= predicted_ms.saturating_mul(GENEROUS_FACTOR) => DeadlineBand::Generous,
            Some(d) if d >= predicted_ms => DeadlineBand::Mid,
            Some(_) => DeadlineBand::Tight,
        }
    }
}

/// How a request's algorithm was resolved — the discriminant that joins the
/// cache/coalescing identity so plan bands never alias each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PlanMode {
    /// The request named its algorithm (or took the non-`auto` default).
    Direct = 0,
    /// `auto`, generous band: seeded exact search.
    AutoExact = 1,
    /// `auto`, tight band: calibrated weighted A\*.
    AutoAnytime = 2,
    /// `auto`, mid band: staged race (weighted-A\* leg, then warm-started
    /// exact).
    AutoRace = 3,
}

impl PlanMode {
    /// The identity byte of this mode (part of the coalescing key).
    pub fn band_byte(self) -> u8 {
        self as u8
    }

    /// The response's `plan` tag; `None` for direct requests.
    pub fn plan_tag(self) -> Option<&'static str> {
        match self {
            PlanMode::Direct => None,
            PlanMode::AutoExact => Some(plan::AUTO_EXACT),
            PlanMode::AutoAnytime => Some(plan::AUTO_ANYTIME),
            PlanMode::AutoRace => Some(plan::AUTO_RACED),
        }
    }
}

/// A fully resolved request plan: the concrete algorithm plus the validated
/// parameters — everything identity-relevant, with `"auto"` already gone.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPlan {
    /// Registry name of the algorithm to run (for [`PlanMode::AutoRace`],
    /// the *exact* algorithm of the second leg — what the response reports).
    pub algorithm: String,
    /// How the algorithm was chosen.
    pub mode: PlanMode,
    /// Validated ε (explicit or the service default).
    pub epsilon: f64,
    /// Validated weighted-A\* weight; for the auto anytime/race bands this
    /// is already feature-calibrated.
    pub weight: f64,
    /// Quality-relevant parameter bits for the cache identity (ε bits for
    /// `aeps`, `w` bits for `wastar`, 0 otherwise — exact auto bands use 0
    /// so they intern with direct exact results).
    pub param_bits: u64,
}

/// The algorithm name a request asks for: its explicit choice, or the
/// service default — `wastar` under a deadline, `astar` without one.
pub(crate) fn requested_algorithm(req: &Request) -> &str {
    match &req.algorithm {
        Some(a) => a,
        None if req.deadline_ms.is_some() => "wastar",
        None => "astar",
    }
}

/// The quality-relevant parameter bits of a run of `algorithm`, the part of
/// its cache identity beyond the name: ε bits for `aeps`, `w` bits for
/// `wastar`, 0 for every parameterless algorithm.
pub(crate) fn param_bits(algorithm: &str, epsilon: f64, weight: f64) -> u64 {
    match algorithm {
        "aeps" => epsilon.to_bits(),
        "wastar" => weight.to_bits(),
        _ => 0,
    }
}

/// Resolves a request into its concrete plan, validating ε, the weight and
/// the algorithm name *before* anything keys on them (the runtime coalesces
/// on this resolution, so an invalid request must fail here, before a search
/// was shared or the instance was even canonicalised).
pub fn resolve(req: &Request, config: &ServiceConfig) -> Result<ResolvedPlan, String> {
    let epsilon = req.epsilon.unwrap_or(config.epsilon);
    let weight = req.weight.unwrap_or(config.deadline_weight);
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(format!("epsilon must be a non-negative number, got {epsilon}"));
    }
    if !weight.is_finite() || weight < 1.0 {
        return Err(format!("weight must be a finite number >= 1, got {weight}"));
    }

    let named = requested_algorithm(req);
    let (algorithm, mode, weight) = if named == "auto" {
        let features = InstanceFeatures::of(&req.instance);
        let exact = features.exact_algorithm();
        match DeadlineBand::of(req.deadline_ms, features.predicted_exact_ms()) {
            DeadlineBand::Generous => (exact, PlanMode::AutoExact, weight),
            DeadlineBand::Tight => {
                ("wastar", PlanMode::AutoAnytime, features.calibrated_weight(weight))
            }
            DeadlineBand::Mid => (exact, PlanMode::AutoRace, features.calibrated_weight(weight)),
        }
    } else if NAMES.contains(&named) {
        (named, PlanMode::Direct, weight)
    } else {
        return Err(format!("unknown algorithm `{named}` (expected {}|auto)", NAMES.join("|")));
    };
    Ok(ResolvedPlan {
        algorithm: algorithm.to_string(),
        mode,
        epsilon,
        weight,
        param_bits: param_bits(algorithm, epsilon, weight),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::{paper_example_dag, GraphBuilder};

    fn example_instance() -> Instance {
        Instance::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn features_capture_the_level_structure() {
        // The paper example: 6 nodes, entry n1, hop levels of widths
        // 1/3/1/1 (n1; n2 n3 n4; n5; n6).
        let f = InstanceFeatures::of(&example_instance());
        assert_eq!(f.nodes, 6);
        assert_eq!(f.procs, 3);
        assert_eq!(f.levels, 4);
        assert_eq!(f.max_level_width, 3);
        assert!(!f.fully_connected, "a ring is not fully connected");
        assert!(f.ccr > 0.0);

        let chain = {
            let mut b = GraphBuilder::new();
            let n0 = b.add_node(2);
            let n1 = b.add_node(2);
            let n2 = b.add_node(2);
            b.add_edge(n0, n1, 1).unwrap();
            b.add_edge(n1, n2, 1).unwrap();
            Instance::new(b.build().unwrap(), ProcNetwork::fully_connected(2))
        };
        let cf = InstanceFeatures::of(&chain);
        assert_eq!((cf.levels, cf.max_level_width), (3, 1));
        assert!(cf.fully_connected);
    }

    #[test]
    fn banding_is_monotone_in_the_deadline() {
        let f = InstanceFeatures::of(&example_instance());
        let p = f.predicted_exact_ms();
        assert!(p >= 1);
        assert_eq!(DeadlineBand::of(None, p), DeadlineBand::Generous);
        assert_eq!(DeadlineBand::of(Some(p * GENEROUS_FACTOR), p), DeadlineBand::Generous);
        assert_eq!(DeadlineBand::of(Some(p), p), DeadlineBand::Mid);
        assert_eq!(DeadlineBand::of(Some(0), p), DeadlineBand::Tight, "0 ms is always tight");
    }

    #[test]
    fn auto_resolves_per_band_and_never_keeps_the_literal() {
        let config = ServiceConfig::default();
        let mut req = Request::new(example_instance());
        req.algorithm = Some("auto".to_string());

        let generous = resolve(&req, &config).unwrap();
        assert_eq!(generous.mode, PlanMode::AutoExact);
        assert_ne!(generous.algorithm, "auto");
        assert_eq!(generous.param_bits, 0, "exact auto interns with direct exact entries");

        req.deadline_ms = Some(0);
        let tight = resolve(&req, &config).unwrap();
        assert_eq!(tight.mode, PlanMode::AutoAnytime);
        assert_eq!(tight.algorithm, "wastar");
        assert_eq!(tight.param_bits, tight.weight.to_bits());

        let p = InstanceFeatures::of(&req.instance).predicted_exact_ms();
        req.deadline_ms = Some(p.saturating_mul(2));
        let mid = resolve(&req, &config).unwrap();
        assert_eq!(mid.mode, PlanMode::AutoRace);
        assert_ne!(mid.algorithm, "auto");
    }

    /// On small instances (≤ 10 nodes) the calibrated weight equals the
    /// base weight, so auto-tight is bit-identical to plain `wastar` — the
    /// property the service's dominance test relies on.
    #[test]
    fn small_instances_keep_the_base_weight() {
        let f = InstanceFeatures::of(&example_instance());
        assert_eq!(f.calibrated_weight(1.5), 1.5);
        let big = InstanceFeatures { nodes: 24, ..f };
        assert_eq!(big.calibrated_weight(1.5), 2.0);
        assert_eq!(big.calibrated_weight(3.0), 3.0, "a larger explicit weight is kept");
    }

    #[test]
    fn invalid_parameters_fail_at_resolution() {
        let config = ServiceConfig::default();
        let mut req = Request::new(example_instance());
        req.epsilon = Some(-0.5);
        assert!(resolve(&req, &config).unwrap_err().contains("epsilon"));
        let mut req = Request::new(example_instance());
        req.weight = Some(0.2);
        assert!(resolve(&req, &config).unwrap_err().contains("weight"));
        let mut req = Request::new(example_instance());
        req.algorithm = Some("quantum".to_string());
        assert!(resolve(&req, &config).unwrap_err().contains("unknown algorithm `quantum`"));
    }

    #[test]
    fn direct_requests_pass_through_untouched() {
        let config = ServiceConfig::default();
        let mut req = Request::new(example_instance());
        req.algorithm = Some("aeps".to_string());
        req.epsilon = Some(0.5);
        let plan = resolve(&req, &config).unwrap();
        assert_eq!(plan.mode, PlanMode::Direct);
        assert_eq!(plan.algorithm, "aeps");
        assert_eq!(plan.param_bits, 0.5f64.to_bits());
        assert!(plan.mode.plan_tag().is_none());
    }
}
