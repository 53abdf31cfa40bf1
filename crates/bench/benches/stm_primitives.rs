//! Criterion micro-benchmarks for the STM substrate itself: the
//! epoch-reclamation primitives underneath every transactional write, the
//! writer commit path under both clocks, the structure arena, and MVCC
//! snapshots.
//!
//! These support the paper's premise (§2.2) that a well-engineered STM makes
//! multi-word atomic operations cheap enough to build data structures on, and
//! the ablation between logical and hardware clocks discussed in §5.1.  The
//! `epoch` group exists because `pin()`/`defer_with` sit on the hottest
//! path in the system: the multi-threaded churn case demonstrates that the
//! epoch shim no longer serializes threads on a global lock — per-batch time
//! should stay roughly flat as the thread count grows (up to the core
//! count), where the seed's mutex-backed shim degraded linearly.  The
//! `commit_path` group is the second CI-gated group: it times the writer
//! hot path the allocation-free redesign targets (see `docs/PERF.md` and
//! docs/BENCHMARKS.md for the gate wiring).

use skiphash_stm::sync::{AtomicPtr, Ordering};
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crossbeam_epoch as epoch;
use skiphash_stm::{ClockKind, Stm, TCell};

/// Reclamation glue for a word made by `Box::into_raw::<u64>`.
///
/// # Safety
///
/// `ptr` came from `Box::into_raw::<u64>` and is freed exactly once.
unsafe fn drop_box(ptr: *mut ()) {
    // SAFETY: per the contract above.
    drop(unsafe { Box::from_raw(ptr.cast::<u64>()) });
}

/// One retirement as the STM makes it: allocate a fresh box, swap it into
/// `cell`, and defer the displaced box's drop under `guard`.
fn swap_and_retire(cell: &AtomicPtr<u64>, value: u64, guard: &epoch::Guard) {
    let old = cell.swap(Box::into_raw(Box::new(value)), Ordering::AcqRel);
    // SAFETY: `old` became unreachable at the swap, under `guard`'s pin.
    unsafe { guard.defer_with(old.cast(), drop_box) };
}

/// Free the box `cell` still holds once no thread uses it.
fn free_last(cell: AtomicPtr<u64>) {
    // SAFETY: the caller owns `cell` outright; its word is a live box.
    drop(unsafe { Box::from_raw(cell.into_inner()) });
}

/// Epoch primitives: single-thread latency plus a multi-thread scalability
/// smoke.  `swap_defer_destroy` keeps its id from before `defer_with` was the
/// only retirement call: one box allocation, one pointer swap, one deferred
/// box drop.  One "iteration" of a churn case is a whole batch: every thread
/// performs [`CHURN_OPS_PER_THREAD`] such pin + swap + defer cycles on its
/// own pointer, so the only shared state touched is the reclamation
/// machinery itself — exactly what must not serialize.
fn bench_epoch(c: &mut Criterion) {
    const CHURN_OPS_PER_THREAD: usize = 10_000;

    let mut group = c.benchmark_group("epoch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    group.bench_function("pin_unpin", |b| b.iter(epoch::pin));

    group.bench_function("swap_defer_destroy", |b| {
        let cell = AtomicPtr::new(Box::into_raw(Box::new(0u64)));
        b.iter(|| swap_and_retire(&cell, 1, &epoch::pin()));
        free_last(cell);
    });

    let max_threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [1usize, 2, 4, 8] {
        if threads > 1 && threads > 2 * max_threads {
            // Far beyond the core count the numbers measure the scheduler,
            // not the reclamation machinery.
            continue;
        }
        group.bench_function(
            BenchmarkId::new(
                format!("churn_{CHURN_OPS_PER_THREAD}ops_per_thread"),
                threads,
            ),
            |b| {
                b.iter(|| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            thread::spawn(move || {
                                let cell = AtomicPtr::new(Box::into_raw(Box::new(0u64)));
                                for i in 0..CHURN_OPS_PER_THREAD as u64 {
                                    swap_and_retire(&cell, i, &epoch::pin());
                                }
                                free_last(cell);
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

/// The writer-commit hot path end to end, the group the allocation-free
/// redesign is gated on in CI (alongside `epoch`): pooled scratch, the
/// unboxed write log, slab-recycled payloads, read-set dedup, and the
/// sampled clock's skip-validation fast path all sit under these timings.
///
/// * `rmw_1` — the canonical read-modify-write transaction (one read, one
///   write), per clock: the sampled clock commits without validation, the
///   hardware clock shows the price of always validating.
/// * `write_8` — a write-only transaction logging eight cells: the cost of
///   the write log and the batched epoch hand-off.
/// * `scan_rmw` — reads 64 cells *twice* (the dedup filter halves the read
///   set) and updates two of them: a skip-list-traversal-shaped commit.
/// * `skiphash_insert_remove` — the end-to-end client: one key churned
///   through a `SkipHash` insert + remove pair, the workload whose `Link`
///   towers dominate slab traffic.
/// * `rewrite_own_4k` — one transaction writes 4,096 cells, then re-reads
///   and re-writes each: its read-after-writes and rewrites find their
///   entries through the write log's index, so the case stays linear in
///   the writes (a search of the log made it quadratic).
fn bench_commit_path(c: &mut Criterion) {
    use skiphash::SkipHash;

    let mut group = c.benchmark_group("commit_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    for clock in [ClockKind::Sampled, ClockKind::Hardware] {
        let stm = Stm::with_clock(clock);
        let cells: Vec<TCell<u64>> = (0..64).map(TCell::new).collect();

        group.bench_function(BenchmarkId::new("rmw_1", format!("{clock}")), |b| {
            b.iter(|| {
                stm.run(|tx| {
                    let v = cells[0].read(tx)?;
                    cells[0].write(tx, v + 1)
                })
            })
        });

        group.bench_function(BenchmarkId::new("write_8", format!("{clock}")), |b| {
            b.iter(|| {
                stm.run(|tx| {
                    for cell in cells.iter().take(8) {
                        cell.write(tx, 1)?;
                    }
                    Ok(())
                })
            })
        });

        group.bench_function(BenchmarkId::new("scan_rmw", format!("{clock}")), |b| {
            b.iter(|| {
                stm.run(|tx| {
                    let mut sum = 0;
                    for _ in 0..2 {
                        for cell in &cells {
                            sum += cell.read(tx)?;
                        }
                    }
                    cells[0].write(tx, sum)?;
                    cells[63].write(tx, sum)
                })
            })
        });
    }

    let map: SkipHash<u64, u64> = SkipHash::new();
    for key in 0..1024u64 {
        map.insert(key, key);
    }
    group.bench_function("skiphash_insert_remove", |b| {
        b.iter(|| {
            map.insert(2048, 1);
            map.remove(&2048)
        })
    });

    let stm = Stm::new();
    let cells: Vec<TCell<u64>> = (0..4096).map(TCell::new).collect();
    group.bench_function("rewrite_own_4k", |b| {
        b.iter(|| {
            stm.run(|tx| {
                for cell in &cells {
                    cell.write(tx, 1)?;
                }
                for cell in &cells {
                    let v = cell.read(tx)?;
                    cell.write(tx, v + 1)?;
                }
                Ok(())
            })
        })
    });
    group.finish();
}

/// The structure arena's own latency, the third CI-gated group: node blocks
/// (inline tower, hash link) cycling through the size-classed pools.
///
/// * `node_alloc_retire` — allocate a height-4 node and drop its owner: the
///   arena pop, block initialization (header + tower cells), and the free
///   straight back into the magazine (a node no structure ever held needs no
///   epoch).  Steady state serves every block from a recycled magazine.
fn bench_arena(c: &mut Criterion) {
    use skiphash::node::Node;

    let mut group = c.benchmark_group("arena");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    group.bench_function("node_alloc_retire", |b| {
        b.iter(|| criterion::black_box(Node::<u64, u64>::new(1, 1, 4, 0, 0)))
    });
    group.finish();
}

/// MVCC snapshot costs, the fourth CI-gated group (see docs/BENCHMARKS.md):
/// the pin/unpin protocol, the pinned borrowed-hop scan, and the price
/// writers pay for preservation while a snapshot is live.
///
/// * `create_drop` — `SkipHash::snapshot()` + drop: one pin-slot CAS, a
///   clock read, and the release-side custody sweep (empty here).
/// * `pinned_full_scan` / `live_full_scan` — a full scan of 1k keys through
///   a long-lived snapshot vs the transactional `to_vec`: the pinned walk
///   skips all transaction machinery but pays a history-table lookup for
///   every cell a writer displaced since the pin, so the pair brackets the
///   snapshot read path from both sides.
/// * `pinned_get` / `pinned_range` — a point read and a 200-key range
///   through the same snapshot, cycling over the keys: each query's reads
///   share the one epoch pin its reader takes, so a pin per read would show
///   here first.
/// * `scans_vs_writers` — one iteration = one snapshot scan audited for the
///   transfer-conservation invariant while two writer threads commit
///   transfers continuously (the `snapshot_scan` scenario's writer step):
///   the end-to-end number its trial reports over longer horizons.
/// * `scans_vs_writers_bundle` — the baseline arm: the bundled skip list's
///   timestamped range scan under equivalent single-key writer churn.
fn bench_snapshot(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use skiphash::SkipHash;
    use skiphash_baselines::{BundledSkipList, TimestampMode};
    use skiphash_bench::snapshot_scan::{churn_key, prefill_accounts, transfer_unit};
    use skiphash_bench::trial::{self, Stop};

    let mut group = c.benchmark_group("snapshot");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    let map: SkipHash<u64, u64> = SkipHash::new();
    for key in 0..1024u64 {
        map.insert(key, key);
    }

    group.bench_function("create_drop", |b| b.iter(|| map.snapshot()));

    let snap = map.snapshot();
    // Displace some payloads so the pinned scan exercises the history path,
    // not just validated in-place reads.
    for key in (0..1024u64).step_by(4) {
        map.upsert(key, key + 1);
    }
    group.bench_function("pinned_full_scan", |b| {
        b.iter(|| criterion::black_box(snap.to_vec().len()))
    });
    group.bench_function("live_full_scan", |b| {
        b.iter(|| criterion::black_box(map.to_vec().len()))
    });
    let mut key = 0u64;
    group.bench_function("pinned_get", |b| {
        b.iter(|| {
            key = (key + 389) % 1024;
            criterion::black_box(snap.get(&key))
        })
    });
    let mut start = 0u64;
    group.bench_function("pinned_range", |b| {
        b.iter(|| {
            start = (start + 97) % (1024 - 200);
            criterion::black_box(snap.range(start..start + 200).count())
        })
    });
    drop(snap);

    const ACCOUNTS: u64 = 1024;
    const INITIAL: u64 = 100;
    let shared: SkipHash<u64, u64> = SkipHash::new();
    prefill_accounts(&shared, ACCOUNTS, INITIAL);
    let transfers = |t: usize, stop: &Stop| {
        let mut rng = SmallRng::seed_from_u64(0xBE4C ^ t as u64);
        while !stop.requested() {
            transfer_unit(&shared, ACCOUNTS, &mut rng);
        }
    };
    trial::run(2, transfers, || {
        group.bench_function("scans_vs_writers", |b| {
            b.iter(|| {
                let snap = shared.snapshot();
                let pairs = snap.to_vec();
                let total: u64 = pairs.iter().map(|(_, v)| v).sum();
                assert_eq!(pairs.len() as u64, ACCOUNTS, "pinned scan lost a key");
                assert_eq!(total, ACCOUNTS * INITIAL, "pinned scan tore a transfer");
                criterion::black_box(total)
            })
        });
    });

    // The baseline arm: the bundled skip list's timestamped range scan under
    // the same writer pressure (single-key remove + reinsert churn — the
    // strongest update the baseline can express; it has no multi-key
    // transactions to tear in the first place).
    let bundle = BundledSkipList::new(16, TimestampMode::Rdtscp);
    for key in 0..ACCOUNTS {
        bundle.insert(key, INITIAL);
    }
    let churn = |t: usize, stop: &Stop| {
        let mut rng = SmallRng::seed_from_u64(0xD15C ^ t as u64);
        let mut version = 0;
        while !stop.requested() {
            version += u64::from(churn_key(&bundle, ACCOUNTS, version, &mut rng));
        }
    };
    trial::run(2, churn, || {
        group.bench_function("scans_vs_writers_bundle", |b| {
            b.iter(|| criterion::black_box(bundle.range(&0, &(ACCOUNTS - 1)).len()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_epoch,
    bench_commit_path,
    bench_arena,
    bench_snapshot
);
criterion_main!(benches);
