//! Criterion micro-benchmarks for raw traversal speed: level-0 scan cost
//! per element, tower-descent latency, range-collect throughput on both
//! range paths, and the vCAS/bundle baseline arms for an apples-to-apples
//! per-hop comparison.  Gated in CI via `bench_gate --prefix traversal/`
//! (see docs/BENCHMARKS.md).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash::{RangePolicy, SkipHash, SkipHashBuilder};
use skiphash_harness::MapKind;

const POPULATION: u64 = 20_000;
const UNIVERSE: u64 = 40_000;
const RANGE_LEN: u64 = 1_024;

fn prefilled_skiphash(policy: RangePolicy) -> SkipHash<u64, u64> {
    let map = SkipHashBuilder::new()
        .buckets(28_657)
        .max_level(16)
        .range_policy(policy)
        .build();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut inserted = 0;
    while inserted < POPULATION {
        if map.insert(rng.gen_range(0..UNIVERSE), 1) {
            inserted += 1;
        }
    }
    map
}

fn prefilled_kind(kind: MapKind) -> std::sync::Arc<dyn skiphash_harness::BenchMap> {
    let map = kind.build(UNIVERSE);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut inserted = 0;
    while inserted < POPULATION {
        if map.insert(rng.gen_range(0..UNIVERSE), 1) {
            inserted += 1;
        }
    }
    map
}

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    // Baseline arms: the same range workload over the versioned-link
    // baselines, so the traversal win is comparable across figure series.
    // They go first, while the process's heap is still clean: a baseline
    // list built *after* a skip hash lands its small nodes in the free
    // fragments building the skip hash leaves in the heap, scattered instead
    // of packed, and collects ~40% slower for it — a property of the
    // allocator's leftovers, not of the baseline (docs/BENCHMARKS.md).
    for (kind, label) in [
        (MapKind::VcasSkipList, "vcas"),
        (MapKind::BundledSkipList, "bundle"),
    ] {
        let map = prefilled_kind(kind);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut buffer = Vec::with_capacity(RANGE_LEN as usize);
        group.bench_function(BenchmarkId::new("range_collect", label), |b| {
            b.iter(|| {
                let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
                let bounds = (
                    std::ops::Bound::Included(low),
                    std::ops::Bound::Excluded(low + RANGE_LEN),
                );
                map.range(bounds, &mut buffer)
            })
        });
    }

    // Level-0 scan: one full materialization walks ~POPULATION nodes, so
    // the per-element cost is the reported time divided by the population.
    let map = prefilled_skiphash(RangePolicy::FastOnly);
    group.bench_function(BenchmarkId::new("level0_scan", "skiphash"), |b| {
        b.iter(|| map.to_vec().len())
    });

    // The same full scan through a pinned MVCC snapshot (read_pinned_with
    // hops instead of transactional reads).
    let snap = map.snapshot();
    group.bench_function(BenchmarkId::new("level0_scan", "snapshot"), |b| {
        b.iter(|| snap.to_vec().len())
    });
    drop(snap);

    // Descent latency: the tower walk down to a random key.
    let mut rng = SmallRng::seed_from_u64(7);
    group.bench_function(BenchmarkId::new("descent", "ceil"), |b| {
        b.iter(|| map.ceil(&rng.gen_range(0..UNIVERSE)))
    });

    // Range-collect throughput, fast path (single optimistic transaction).
    let mut rng = SmallRng::seed_from_u64(11);
    group.bench_function(BenchmarkId::new("range_collect", "fast"), |b| {
        b.iter(|| {
            let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
            map.range(low..low + RANGE_LEN).count()
        })
    });

    // Range-collect throughput, RQC custody slow path.
    let slow = prefilled_skiphash(RangePolicy::SlowOnly);
    let mut rng = SmallRng::seed_from_u64(13);
    group.bench_function(BenchmarkId::new("range_collect", "slow"), |b| {
        b.iter(|| {
            let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
            slow.range(low..low + RANGE_LEN).count()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
