//! Criterion micro-benchmarks for raw traversal speed: level-0 scan cost
//! per element, tower-descent latency, range-collect throughput on both
//! range paths, and the vCAS/bundle baseline arms for an apples-to-apples
//! per-hop comparison.  The cases themselves are
//! `skiphash_bench::trajectory::traversal_cases`, which the committed
//! trajectory also measures.  Gated in CI via `bench_gate` (see
//! docs/BENCHMARKS.md).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use skiphash_bench::trajectory::traversal_cases;

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    traversal_cases(|id, op| {
        group.bench_function(id, |b| b.iter(&mut *op));
    });
    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
