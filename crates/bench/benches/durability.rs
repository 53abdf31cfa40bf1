//! Criterion micro-benchmarks for the durability tier.
//!
//! The gated `durability/` group runs entirely on the in-memory storage
//! backend, so it measures the software cost the tier adds to a commit —
//! record encoding, the per-thread lease buffers, the submit queue, the
//! group-commit writer, the sync barrier, and a full checkpoint — with no
//! device noise.  That
//! makes it stable enough for the perf gate alongside `commit_path/`.
//!
//! The `durability_sync/` group hits the real filesystem and pays actual
//! fsync cost.  It is informational (NOT in the gate's prefix list): fsync
//! latency varies by orders of magnitude across machines and would make the
//! gate flaky.  Use it to size `WalConfig::flush_interval` for a device.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use skiphash_durability::{DurableMap, DurableMapBuilder, MemStorage, WalConfig};

const UNIVERSE: u64 = 8_192;

fn fast_wal() -> WalConfig {
    WalConfig {
        flush_interval: Duration::from_micros(100),
        ..WalConfig::default()
    }
}

fn mem_map(dir: &str) -> Arc<DurableMap<u64, u64>> {
    let map = DurableMapBuilder::new(dir)
        .storage(Arc::new(MemStorage::new()))
        .wal_config(fast_wal())
        .open::<u64, u64>()
        .expect("open in-memory durable map");
    for key in 0..UNIVERSE / 2 {
        map.upsert(key, key);
    }
    map.sync().expect("prefill sync");
    Arc::new(map)
}

fn bench_logged_commits(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    // Fire-and-forget logged upsert: the commit returns once the record is
    // leased into the submit queue; the writer thread drains it later.
    {
        let map = mem_map("/bench-logged");
        let mut key = 0u64;
        group.bench_function("upsert_logged", |b| {
            b.iter(|| {
                key = (key + 1) % UNIVERSE;
                map.upsert(key, key)
            })
        });
    }

    // Synchronous durable upsert: commit + wait for the group-commit
    // barrier.  On MemStorage the "fsync" is free, so the delta over
    // `upsert_logged` is pure coordination cost (queue, batch, wakeup).
    {
        let map = mem_map("/bench-durable");
        let mut key = 0u64;
        group.bench_function("upsert_durable", |b| {
            b.iter(|| {
                key = (key + 1) % UNIVERSE;
                map.upsert_durable(key, key).expect("durable ack")
            })
        });
    }

    // A composed three-op transaction produces one commit record with three
    // ops — encoding cost scales with ops, queue cost does not.
    {
        let map = mem_map("/bench-composed");
        let mut key = 0u64;
        group.bench_function("transact_logged_3ops", |b| {
            b.iter(|| {
                key = (key + 3) % UNIVERSE;
                map.transact(|view| {
                    view.upsert(key, key)?;
                    view.upsert(key + 1, key)?;
                    view.remove(&(key + 2))?;
                    Ok(())
                })
            })
        });
    }
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    // Replay cost of a pure-WAL log: 8k single-op records, no checkpoint.
    let storage = MemStorage::new();
    {
        let map = DurableMapBuilder::new("/bench-recover")
            .storage(Arc::new(storage.clone()))
            .wal_config(fast_wal())
            .open::<u64, u64>()
            .expect("open map to log");
        for key in 0..UNIVERSE {
            map.upsert(key, key);
        }
        map.sync().expect("log sync");
    }
    group.bench_function("recover_8k_records", |b| {
        b.iter(|| {
            skiphash_durability::recover::<u64, u64>(
                &storage,
                std::path::Path::new("/bench-recover"),
            )
            .expect("recovery")
        })
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    // A full checkpoint of 65,536 keys: the pinned scan, the image's
    // encoding and CRC, and its write, rename and truncation on MemStorage.
    // Keys are inserted in a scattered order, so level 0's nodes do not sit
    // in allocation order and the scan pays the cache misses a long-lived
    // map's does.
    const KEYS: u64 = 65_536;
    let map = DurableMapBuilder::new("/bench-checkpoint")
        .storage(Arc::new(MemStorage::new()))
        .wal_config(fast_wal())
        .open::<u64, u64>()
        .expect("open in-memory durable map");
    for i in 0..KEYS {
        let key = (i * 40_503) % KEYS;
        map.upsert(key, i);
    }
    map.sync().expect("prefill sync");
    group.bench_function("checkpoint_64k", |b| {
        b.iter(|| map.checkpoint().expect("checkpoint to MemStorage"))
    });
    group.finish();
}

fn bench_real_fsync(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_sync");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));

    let dir = std::env::temp_dir().join(format!("skh-bench-sync-{}", std::process::id()));
    let map = DurableMapBuilder::new(&dir)
        .wal_config(fast_wal())
        .open::<u64, u64>()
        .expect("open on-disk durable map");
    let mut key = 0u64;
    group.bench_function("upsert_durable_fs", |b| {
        b.iter(|| {
            key = (key + 1) % UNIVERSE;
            map.upsert_durable(key, key).expect("durable ack")
        })
    });
    group.finish();
    drop(map);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_logged_commits,
    bench_recovery,
    bench_checkpoint,
    bench_real_fsync
);
criterion_main!(benches);
