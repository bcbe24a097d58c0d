//! Perf-tracking bench for the pair-orbit sweep planner: the symm-sweep
//! workload — **all** `(u, v)` ordered pairs × δ ∈ {0..4} on
//! `oriented_torus(16, 16)` (327 680 STICs) — answered by a
//! `PlannedSweep` that collapses the 65 536 ordered pairs onto their 256
//! automorphism-orbit representatives and merges only those, versus the
//! PR 2 batch path, which merges every pair.  The planner's cost includes
//! computing the orbit partition from scratch each iteration (planning is
//! part of the measured pipeline).
//!
//! End-to-end planned-sweep timings, including the million-node streamed
//! sweep, come from the repository's benchmark (`ladder/`, declared in
//! `BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anonrv_bench::{sweep_batch_engine, sweep_planned_engine, SweepWalker};
use anonrv_graph::generators::oriented_torus;
use anonrv_plan::PairOrbits;
use anonrv_sim::Round;

const HORIZON: Round = 256;
const DELTAS: u32 = 5;

fn bench_planned(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_planned");
    group.sample_size(10);
    let torus = oriented_torus(16, 16).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    group.bench_function("planned sweep torus-16x16 (256 orbit classes)", |b| {
        b.iter(|| sweep_planned_engine(black_box(&torus), &program, DELTAS, HORIZON))
    });

    group.bench_function("pair-orbit partition torus-16x16 (planning only)", |b| {
        b.iter(|| PairOrbits::compute(black_box(&torus)))
    });

    group.bench_function("batch engine torus-16x16 (65536 pair merges)", |b| {
        b.iter(|| sweep_batch_engine(black_box(&torus), &program, DELTAS, HORIZON))
    });
    group.finish();
}

criterion_group!(benches, bench_planned);
criterion_main!(benches);
