//! Perf-tracking bench for the batch simulation engine: the symm-sweep
//! workload — **all** `(u, v)` ordered pairs × δ ∈ {0..4} on
//! `oriented_torus(16, 16)` (327 680 STICs) — answered by one
//! `SweepEngine` whose trajectory cache records each of the 256 start
//! nodes' walks exactly once, versus per-call lockstep simulation, which
//! re-executes both agents' programs on every STIC.
//!
//! The lockstep baseline is timed on a 4 096-STIC sample (the full
//! workload takes seconds per iteration — which is the point); the batch
//! engine is timed on the *full* workload.  End-to-end sweep timings come
//! from the repository's benchmark (`ladder/`, declared in
//! `BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anonrv_bench::{sweep_batch_engine, sweep_per_call_lockstep, sweep_stics, SweepWalker};
use anonrv_graph::generators::oriented_torus;
use anonrv_sim::Round;

const HORIZON: Round = 256;
const DELTAS: u32 = 5;

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_batch");
    group.sample_size(10);
    let torus = oriented_torus(16, 16).unwrap();
    let n = torus.num_nodes();
    let program = SweepWalker { seed: 0x5EED };

    let stics = sweep_stics(n, DELTAS);
    group.bench_function("batch engine torus-16x16 (327680 STICs)", |b| {
        b.iter(|| sweep_batch_engine(black_box(&torus), &program, DELTAS, HORIZON))
    });

    // deterministic sample of the workload for the per-call baseline;
    // scale by 327680/4096 = 80 for the honest full-sweep comparison
    let sample: Vec<_> = stics.iter().step_by(80).copied().collect();
    group.bench_function("per-call lockstep torus-16x16 (4096-STIC sample)", |b| {
        b.iter(|| sweep_per_call_lockstep(black_box(&torus), &program, &sample, HORIZON))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
