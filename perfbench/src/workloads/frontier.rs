//! `budget_frontier`: A* on graphs it cannot finish, each call under a fixed
//! wall-clock budget.  The state store only grows, the seen-set resizes,
//! and teardown of millions of records lands after the engine's clock
//! stops: this is where memory per state, teardown and deadline overshoot
//! show.

use optsched_core::{SchedulingProblem, SearchOutcome};
use optsched_taskgraph::Cost;

use super::solve::{check_schedule, repeat_passes, run_serial, EngineLayers, Family};
use super::Measured;
use crate::instances::{instances, FRONTIER_POOL};
use crate::report::Report;

/// The per-call budget, ms.
pub const BUDGET_MS: u64 = 1500;

/// `budget_frontier`.
pub fn budget_frontier(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let setup = || {
        let pool = instances(FRONTIER_POOL, seed);
        let list_bounds: Vec<Cost> = pool
            .iter()
            .map(|i| SchedulingProblem::new(i.graph.clone(), i.network.clone()).upper_bound())
            .collect();
        run_serial(&pool[0], Family::AStar, Some(20));
        (pool, list_bounds)
    };
    let mut measured = Measured::default();
    let (pool, list_bounds) = measured.set_up(setup);
    if trace {
        let mut layers = EngineLayers::default();
        for inst in &pool {
            layers.trace(report, inst, Family::AStar, Some(BUDGET_MS));
        }
        layers.report(report);
        return;
    }
    repeat_passes(&mut measured, seconds, 3, setup, |out| {
        for (inst, &list_bound) in pool.iter().zip(&list_bounds) {
            let run = run_serial(inst, Family::AStar, Some(BUDGET_MS));
            let mut ok = check_schedule(report, inst, "budgeted A*", run.schedule.as_ref(), None);
            if run.outcome != SearchOutcome::LimitReached {
                report.fail(format!(
                    "{}: finished ({:?}) inside its budget",
                    inst.name, run.outcome
                ));
                ok = false;
            }
            if let Some(s) = &run.schedule {
                if s.makespan() > list_bound {
                    report.fail(format!(
                        "{}: anytime makespan {} is worse than the list schedule's {list_bound}",
                        inst.name,
                        s.makespan()
                    ));
                    ok = false;
                }
            }
            out.push(super::Op {
                ok: run.op.ok && ok,
                ..run.op
            });
        }
    });
    measured.end_to_end(report);
}
