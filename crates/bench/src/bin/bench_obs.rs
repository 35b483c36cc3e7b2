//! Disabled-overhead regression guard for the `optsched-obs` event/span
//! layer (the PR 10 observability contract).
//!
//! The contract: with collection *disabled* (the default — no `--trace-out`,
//! no `trace_path`), every instrumentation site costs one relaxed atomic
//! load, so an instrumented build must run the paper workload at the same
//! speed as an uninstrumented one.  This binary measures the same seeded
//! serial A\* search (v = 10, CCR = 1 — the tier-1 reference cell) best-of-N
//! twice in one process — collection disabled, then enabled — and asserts:
//!
//! * disabled: the ring drains **zero** events (nothing was recorded);
//! * enabled: the same search records events (the sites actually fire);
//! * `disabled_ms <= 1.05 × enabled_ms` — tracing-disabled wall-clock within
//!   5% of the instrumented-and-collecting run (the CI regression bound:
//!   disabled collection must not be the slower mode);
//! * `enabled_ms <= 1.5 × disabled_ms` — even *enabled* collection stays
//!   cheap (ring writes are two relaxed stores and an index bump).
//!
//! One JSON row goes to `results/BENCH_obs.json`; assertion failures exit
//! non-zero, so CI runs the binary directly.
//!
//! Usage: `cargo run --release -p optsched-bench --bin bench_obs --
//!         [--sizes 10] [--tpes 3] [--seed N]`

use std::time::Instant;

use optsched::registry::SchedulerSpec;
use optsched_bench::{workload_problem, write_json_rows, ExperimentOptions};
use optsched_core::{SchedulingProblem, SearchConfig};

/// Best-of-N wall-clock of the seeded exact A\* search, plus the result's
/// schedule length (asserted identical across modes: instrumentation must
/// never change the search).
fn best_of(problem: &SchedulingProblem, reps: usize) -> (f64, u64) {
    let search = SearchConfig { seed_incumbent: true, ..Default::default() };
    let spec = SchedulerSpec { search, ..Default::default() };
    let mut best_ms = f64::INFINITY;
    let mut length = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let r = spec.run("astar", problem).expect("astar").result;
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        length = r.schedule_length;
    }
    (best_ms, length)
}

fn main() {
    let mut opts = ExperimentOptions::parse(std::env::args().skip(1));
    if opts.sizes == ExperimentOptions::default().sizes {
        opts.sizes = vec![10];
    }
    let size = opts.sizes[0];
    let ccr = 1.0;
    let reps = 8;
    let problem = workload_problem(size, ccr, &opts);

    // Disabled first (the process default), so the enabled run cannot leave
    // stragglers behind: the disabled drain must come up empty *after* a
    // full search ran with collection off.
    assert!(!optsched_obs::enabled(), "collection must start disabled");
    let (disabled_ms, disabled_len) = best_of(&problem, reps);
    let disabled_events = optsched_obs::drain();
    assert!(
        disabled_events.is_empty(),
        "disabled collection recorded {} event(s); the enable flag must gate every site",
        disabled_events.len()
    );

    optsched_obs::set_enabled(true);
    let (enabled_ms, enabled_len) = best_of(&problem, reps);
    optsched_obs::set_enabled(false);
    let enabled_events = optsched_obs::drain();

    assert_eq!(disabled_len, enabled_len, "instrumentation must not change the search");
    assert!(
        !enabled_events.is_empty(),
        "enabled collection recorded nothing; the run_search sites are dead"
    );

    let disabled_over_enabled = disabled_ms / enabled_ms.max(1e-9);
    let enabled_over_disabled = enabled_ms / disabled_ms.max(1e-9);
    println!(
        "v = {size}, CCR = {ccr}, seeded exact astar, best of {reps}: \
         disabled {disabled_ms:.2} ms, enabled {enabled_ms:.2} ms \
         ({} events), disabled/enabled {disabled_over_enabled:.3}",
        enabled_events.len()
    );

    let row = format!(
        "{{\"size\": {size}, \"ccr\": {ccr}, \"reps\": {reps}, \
         \"disabled_ms\": {disabled_ms:.3}, \"enabled_ms\": {enabled_ms:.3}, \
         \"enabled_events\": {}, \"schedule_length\": {disabled_len}}}",
        enabled_events.len()
    );
    match write_json_rows("BENCH_obs.json", &[row]) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write BENCH_obs.json: {e}");
            std::process::exit(1);
        }
    }

    // The regression bounds, after the measurement row is safely written.
    if disabled_over_enabled > 1.05 {
        eprintln!(
            "bench_obs: FAILED: disabled {disabled_ms:.2} ms > 1.05 x enabled {enabled_ms:.2} ms \
             — the disabled path must cost one relaxed load, not more than the collecting run"
        );
        std::process::exit(1);
    }
    if enabled_over_disabled > 1.5 {
        eprintln!(
            "bench_obs: FAILED: enabled {enabled_ms:.2} ms > 1.5 x disabled {disabled_ms:.2} ms \
             — ring-buffer collection has become a hot-path cost"
        );
        std::process::exit(1);
    }
}
