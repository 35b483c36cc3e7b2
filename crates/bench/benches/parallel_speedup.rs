//! Criterion micro-version of Figure 6: wall-clock time of the serial A*
//! versus the parallel A* on 2, 4 and 8 PPE threads for one medium random
//! graph (CCR = 1), in both duplicate-detection modes (the paper's private
//! CLOSED lists vs. the sharded global table).
//! The experiment binary `figure6` produces the full speedup curves per CCR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use optsched_bench::{workload_problem, ExperimentOptions};
use optsched_core::AStarScheduler;
use optsched_parallel::{DuplicateDetection, ParallelAStarScheduler, ParallelConfig};

fn bench_parallel(c: &mut Criterion) {
    let opts = ExperimentOptions::default();
    let problem = workload_problem(11, 1.0, &opts);

    let mut group = c.benchmark_group("parallel_speedup");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("serial", |b| {
        b.iter(|| black_box(AStarScheduler::new(&problem).run().schedule_length))
    });
    for (label, mode) in [
        ("parallel", DuplicateDetection::ShardedGlobal),
        ("parallel_local_closed", DuplicateDetection::Local),
    ] {
        for q in [2usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new(label, q), &q, |b, &q| {
                b.iter(|| {
                    let cfg = ParallelConfig::exact(q).with_duplicate_detection(mode);
                    black_box(
                        ParallelAStarScheduler::new(&problem, cfg).run().schedule_length(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
