//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs of
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("expanded_per_s", "1/s"),
    ("deadline_overshoot_ms", "ms"),
    ("bytes_per_state", "B"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs of every
/// workload.  A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("problem.build_ms", "ms"),
    ("eval.candidates_ns", "ns"),
    ("eval.peek_child_ns", "ns"),
    ("eval.policy_ns", "ns"),
    ("eval.children_per_expansion", "count"),
    ("dup.signature_ns", "ns"),
    ("dup.admit_ns", "ns"),
    ("dup.hit_ratio", "ratio"),
    ("dup.seen_entries", "count"),
    ("store.insert_ns", "ns"),
    ("store.materialise_ns", "ns"),
    ("store.release_ns", "ns"),
    ("store.replay_per_materialise", "count"),
    ("store.path_cache_hit_rate", "ratio"),
    ("store.peak_live_records", "count"),
    ("open.push_ns", "ns"),
    ("open.pop_ns", "ns"),
    ("open.max_size", "count"),
    ("teardown.total_ms", "ms"),
    ("teardown.store_ms", "ms"),
    ("teardown.seen_ms", "ms"),
    ("teardown.open_ms", "ms"),
    ("engine.clock_overshoot_ms", "ms"),
    ("engine.expanded", "count"),
    ("engine.generated", "count"),
    ("schedule.validate_us", "us"),
    ("parallel.expanded", "count"),
    ("parallel.redundant_avoided", "count"),
    ("parallel.election_transfers", "count"),
    ("parallel.closed_hit_rate", "ratio"),
    ("parallel.load_imbalance", "ratio"),
    ("parallel.peak_in_flight", "count"),
    ("parallel.teardown_ms", "ms"),
    ("service.parse_us", "us"),
    ("service.resolve_us", "us"),
    ("service.canon_us", "us"),
    ("service.hit_us", "us"),
    ("service.serialise_us", "us"),
    ("service.miss_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.peak_pending", "count"),
    ("service.cache_hit_rate", "ratio"),
    ("service.generator_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (solves or requests).
    pub attempted: u64,
    /// Operations that failed (a shed or `ok: false` response counts).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Report {
    /// A report with no checks failed yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed output check: the run stays measurable but is not
    /// correct.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// Checks `cond`, recording `problem` when it does not hold.
    pub fn check(&mut self, cond: bool, problem: impl FnOnce() -> String) {
        if !cond {
            self.fail(problem());
        }
    }

    /// The result line: the metrics of `catalogue`, in catalogue order.  A
    /// metric the workload did not set reads 0 (a layer it does not
    /// exercise); a non-finite value fails the run.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() {
                value
            } else {
                self.fail(format!("{name} is not finite"));
                0.0
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the catalogue above.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = crate::repeat::parse(&text).expect("valid JSON");
        let field = |v: &serde_json::Value, key: &str| -> serde_json::Value {
            crate::repeat::field(v, key).cloned().expect(key)
        };
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = field(&doc, key)
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    let name = field(m, "name").as_str().expect("name").to_string();
                    let unit = field(m, "unit").as_str().expect("unit").to_string();
                    (name, unit)
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("setup_s", 0.5);
        let line = r.result_line(&[("setup_s", "s"), ("solve_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"solve_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        r.set("setup_s", f64::NAN);
        let line = r.result_line(&[("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
