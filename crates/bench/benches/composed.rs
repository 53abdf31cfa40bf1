//! Criterion micro-benchmarks for *composed* transactions: the multi-map
//! transfer scenario and the atomic read-modify-write entries.
//!
//! These measure the cost of the capability no baseline offers — a single
//! transaction spanning two maps, and `update`/`compute` entries that fold a
//! caller's read-modify-write retry loop into one committed transaction.
//! They put the overhead of composition on the perf trajectory: a transfer
//! should cost roughly one `take` plus one `insert` plus one commit, not
//! more.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash::SkipHash;
use skiphash_bench::transfer::TransferPair;

const UNIVERSE: u64 = 20_000;

fn prefilled_pair() -> Arc<TransferPair> {
    let pair = Arc::new(TransferPair::new(UNIVERSE));
    pair.prefill(UNIVERSE / 2);
    pair
}

fn bench_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("composed_txn");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    // Single-thread latency of one atomic cross-map transfer.
    {
        let pair = prefilled_pair();
        let mut rng = SmallRng::seed_from_u64(11);
        group.bench_function("transfer", |b| {
            b.iter(|| pair.transfer(rng.gen_range(0..UNIVERSE / 2)))
        });
    }

    // Single-thread latency of one atomic both-map audit (read-only).
    {
        let pair = prefilled_pair();
        let mut rng = SmallRng::seed_from_u64(12);
        group.bench_function("audit", |b| {
            b.iter(|| pair.audit(rng.gen_range(0..UNIVERSE)))
        });
    }

    // Contended throughput smoke: one "iteration" is a whole batch of
    // transfers spread over the worker threads, all hammering the same pair.
    const OPS_PER_THREAD: u64 = 2_000;
    let max_threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [2usize, 4] {
        if threads > 2 * max_threads {
            continue;
        }
        let pair = prefilled_pair();
        group.bench_function(
            BenchmarkId::new(format!("transfer_contended_{OPS_PER_THREAD}ops"), threads),
            |b| {
                b.iter(|| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let pair = Arc::clone(&pair);
                            thread::spawn(move || {
                                let mut rng = SmallRng::seed_from_u64(0xBEEF ^ t as u64);
                                for _ in 0..OPS_PER_THREAD {
                                    pair.transfer(rng.gen_range(0..UNIVERSE / 2));
                                }
                            })
                        })
                        .collect();
                    for handle in handles {
                        handle.join().unwrap();
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_rmw_entries(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmw_entry");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    let map: SkipHash<u64, u64> = SkipHash::<u64, u64>::builder().buckets(16_381).build();
    for key in 0..UNIVERSE / 2 {
        map.insert(key, key);
    }
    let mut rng = SmallRng::seed_from_u64(21);

    // The atomic entry...
    group.bench_function("update", |b| {
        b.iter(|| {
            let key = rng.gen_range(0..UNIVERSE / 2);
            map.update(&key, |v| v + 1)
        })
    });

    // ...versus the non-atomic two-transaction shape it replaces (which a
    // caller would additionally have to wrap in a retry loop for atomicity).
    group.bench_function("get_then_upsert", |b| {
        b.iter(|| {
            let key = rng.gen_range(0..UNIVERSE / 2);
            if let Some(v) = map.get(&key) {
                map.upsert(key, v + 1);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transfers, bench_rmw_entries);
criterion_main!(benches);
