//! Cost profile of the arena-backed state store on the serial schedulers.
//!
//! Every serial family (A*, Aε*, Chen & Yu, exhaustive) is dispatched
//! through the facade's scheduler registry once per instance and recorded
//! as wall-clock time, the peak number of live fully materialised states
//! (the allocation proxy) and the record-lifecycle counters: peak live arena
//! records, records reclaimed by the chain GC, deltas replayed during
//! materialisation, and the replay path-cache hits that cut those replays
//! short.
//!
//! Since the `seed_incumbent` knob exists (the scheduling service's
//! default), the A* and Chen & Yu rows are additionally measured *seeded*:
//! the list-heuristic schedule is an attained incumbent, so the upper-bound
//! rule prunes strictly and the branch-and-bound elimination starts from the
//! list bound instead of infinity.  Seeded rows carry `"seeded": true`;
//! they remain exact (asserted) but are **not** count-comparable to the
//! unseeded rows — that is the point being measured.  Results go to
//! `results/BENCH_serial.json` and `results/ablation_serial.csv`.
//!
//! Usage: `cargo run --release -p optsched-bench --bin ablation_serial -- [--sizes 10,12] [--budget-ms N]`

use optsched::registry::SchedulerSpec;
use optsched_bench::{workload_problem, write_json_rows, CsvWriter, ExperimentOptions};
use optsched_core::{SearchLimits, SearchOutcome};

const FAMILIES: [&str; 4] = ["astar", "aeps", "chenyu", "exhaustive"];
/// Families measured a second time with the seeded incumbent (the service
/// path): the ones the satellite task names — A* and the Chen & Yu baseline.
const SEEDED_FAMILIES: [&str; 2] = ["astar", "chenyu"];

fn main() {
    let mut opts = ExperimentOptions::parse(std::env::args().skip(1));
    if opts.sizes == ExperimentOptions::default().sizes {
        // v = 12 is the largest ablation instance that the exact serial
        // searches finish in seconds on a single core; the exponential
        // baselines (Chen & Yu, exhaustive) are cut by the budget and
        // recorded as such.
        opts.sizes = vec![10, 12];
    }
    let ccr = 1.0;
    let limits = SearchLimits { max_millis: opts.budget_ms, ..Default::default() };
    let mut csv = CsvWriter::new(
        "size,ccr,scheduler,seeded,schedule_length,optimal,expanded,generated,peak_live_states,peak_live_records,reclaimed_records,replayed_deltas,path_cache_hits,max_open_size,time_ms,timed_out",
    );
    let mut json_rows: Vec<String> = Vec::new();

    println!("Serial schedulers on the delta arena (CCR = {ccr})");
    for &size in &opts.sizes {
        let problem = workload_problem(size, ccr, &opts);
        println!(
            "\nv = {size} (lower bound {}, list upper bound {})",
            problem.lower_bound(),
            problem.upper_bound()
        );
        println!(
            "{:<12} {:>7} | {:>10} {:>12} {:>12} {:>16} {:>12} {:>10} {:>12}",
            "scheduler", "seeded", "length", "expanded", "generated",
            "peak live states", "peak recs", "reclaimed", "time ms"
        );

        // The seeded variant rides along for the service-path families.
        let runs = FAMILIES
            .iter()
            .map(|&f| (f, false))
            .chain(SEEDED_FAMILIES.iter().map(|&f| (f, true)));
        let mut optimum: Option<u64> = None;
        for (family, seeded) in runs {
            let spec = SchedulerSpec { limits, seed_incumbent: seeded, ..Default::default() };
            let r = spec.run(family, &problem).expect(family).result;
            let mut ms = r.elapsed.as_secs_f64() * 1e3;
            let timed_out = r.outcome == SearchOutcome::LimitReached;
            // Fast completed runs are re-measured best-of-N (the faster the
            // run, the more repetitions): at that scale the timing would
            // otherwise drown in scheduling noise.  The searches are
            // deterministic, so only the clock varies between repetitions.
            let reps = if timed_out {
                0
            } else if ms < 50.0 {
                12
            } else if ms < 1000.0 {
                4
            } else {
                0
            };
            for _ in 0..reps {
                let rep = spec.run(family, &problem).expect(family).result;
                ms = ms.min(rep.elapsed.as_secs_f64() * 1e3);
            }
            println!(
                "{:<12} {:>7} | {:>10} {:>12} {:>12} {:>16} {:>12} {:>10} {:>12}",
                family,
                seeded,
                r.schedule_length,
                r.stats.expanded,
                r.stats.generated,
                r.stats.peak_live_states,
                r.stats.peak_live_records,
                r.stats.reclaimed_records,
                if timed_out {
                    format!(">{}", opts.budget_ms.unwrap_or(0))
                } else {
                    format!("{ms:.1}")
                }
            );
            csv.row(&[
                size.to_string(),
                ccr.to_string(),
                family.to_string(),
                seeded.to_string(),
                r.schedule_length.to_string(),
                r.is_optimal().to_string(),
                r.stats.expanded.to_string(),
                r.stats.generated.to_string(),
                r.stats.peak_live_states.to_string(),
                r.stats.peak_live_records.to_string(),
                r.stats.reclaimed_records.to_string(),
                r.stats.replayed_deltas.to_string(),
                r.stats.path_cache_hits.to_string(),
                r.stats.max_open_size.to_string(),
                format!("{ms:.3}"),
                timed_out.to_string(),
            ]);
            json_rows.push(format!(
                "{{\"size\": {size}, \"ccr\": {ccr}, \"scheduler\": \"{family}\", \
                 \"seeded\": {seeded}, \"schedule_length\": {}, \"optimal\": {}, \
                 \"expanded\": {}, \"generated\": {}, \"peak_live_states\": {}, \
                 \"peak_live_records\": {}, \"reclaimed_records\": {}, \
                 \"replayed_deltas\": {}, \"path_cache_hits\": {}, \
                 \"max_open_size\": {}, \"time_ms\": {ms:.3}, \"timed_out\": {timed_out}}}",
                r.schedule_length,
                r.is_optimal(),
                r.stats.expanded,
                r.stats.generated,
                r.stats.peak_live_states,
                r.stats.peak_live_records,
                r.stats.reclaimed_records,
                r.stats.replayed_deltas,
                r.stats.path_cache_hits,
                r.stats.max_open_size,
            ));
            // Seeding must never change the answer, only the work (aeps is
            // excluded: ε > 0 may legitimately return a within-bound,
            // non-optimal length).
            if !timed_out && family != "aeps" {
                match optimum {
                    None => optimum = Some(r.schedule_length),
                    Some(len) => assert_eq!(
                        len, r.schedule_length,
                        "{family} (seeded={seeded}): optimum changed"
                    ),
                }
            }
        }
    }

    match csv.write("ablation_serial.csv") {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write results CSV: {e}"),
    }
    match write_json_rows("BENCH_serial.json", &json_rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
