//! The per-layer ledger of the traced run.
//!
//! *Counts* are differences of the layers' public counters over the measured
//! windows.  *Probes* time calls into the public functions of `crates/stm`,
//! `crates/skiphash` and `crates/durability` from outside: one thread, the
//! populated and now quiescent map (or a side structure of fixed size),
//! fixed operation counts, after the measured phase.  Each probe leaves the
//! map as it found it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use skiphash::rqc::Rqc;
use skiphash::{RangePolicy, SkipHash, SkipHashBuilder, TxHashMap};
use skiphash_baselines::{TimestampMode, VcasSkipList};
use skiphash_stm::{ClockKind, Stm, TCell};

use crate::oracle::{value_of, Bitset};
use crate::rng::{mix, Rng};
use crate::runner::{open_durable, Counters, RunConfig, STRIDE};
use crate::stats::median;
use crate::storage::CrashStorage;
use crate::worker::{OpCounts, WorkerOut};
use crate::workload::Scale;

type Row = (&'static str, f64);

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Ledger rows that are differences of public counters over the measured
/// windows.  `counts` are the operations the workers completed in them.
pub fn count_metrics(
    counters: &[Counters; 2],
    counts: OpCounts,
    outs: &[WorkerOut],
    measured_s: f64,
) -> Vec<Row> {
    let [before, after] = counters;
    let stm = after.stm.since(&before.stm);
    let device = after.device.since(&before.device);
    let fast_ok = after.range.fast_path_successes - before.range.fast_path_successes;
    let fast_aborts = after.range.fast_path_aborts - before.range.fast_path_aborts;
    let slow = after.range.slow_path_completions - before.range.slow_path_completions;
    let wrote = counts.puts + counts.removes;
    let checkpoints: Vec<f64> = outs
        .iter()
        .flat_map(|o| &o.checkpoints)
        .map(|&(a, b)| (b - a) as f64 / 1e9)
        .collect();
    let user_bytes = 16 * counts.puts + 8 * counts.removes;
    vec![
        ("stm.commits", stm.commits as f64),
        (
            "stm.ro_commit_share",
            ratio(stm.read_only_commits, stm.commits),
        ),
        (
            "stm.aborts_per_commit",
            ratio(stm.total_aborts(), stm.commits),
        ),
        ("stm.aborts_read_conflict", stm.aborts_read_conflict as f64),
        (
            "stm.aborts_write_conflict",
            stm.aborts_write_conflict as f64,
        ),
        ("stm.aborts_validation", stm.aborts_validation as f64),
        (
            "stm.validation_skipped_share",
            ratio(
                stm.validation_skipped_commits,
                stm.commits - stm.read_only_commits,
            ),
        ),
        (
            "stm.read_dedup_hits_per_commit",
            ratio(stm.read_dedup_hits, stm.commits),
        ),
        (
            "stm.slab.recycle_per_update",
            ratio(stm.slab_recycle_hits, wrote),
        ),
        (
            "stm.arena.node_recycle_per_insert",
            ratio(stm.node_recycle_hits, counts.puts),
        ),
        (
            "stm.arena.chain_recycle_per_update",
            ratio(stm.chain_recycle_hits, wrote),
        ),
        (
            "stm.snapshot.preserved_per_update",
            ratio(stm.snapshot_preserved, wrote),
        ),
        (
            "stm.snapshot.live_history_peak",
            outs.iter().map(|o| o.live_history_peak).max().unwrap_or(0) as f64,
        ),
        (
            "skiphash.range.fast_aborts_per_success",
            ratio(fast_aborts, fast_ok),
        ),
        ("skiphash.range.slow_share", ratio(slow, fast_ok + slow)),
        ("durability.wal.records", stm.wal_records_appended as f64),
        ("durability.wal.batches", stm.group_commit_flushes as f64),
        (
            "durability.wal.records_per_batch",
            ratio(stm.wal_records_appended, stm.group_commit_flushes),
        ),
        (
            "durability.wal.bytes_per_user_byte",
            ratio(device.wal_bytes, user_bytes),
        ),
        ("durability.checkpoint.count", checkpoints.len() as f64),
        (
            "durability.checkpoint.s",
            if checkpoints.is_empty() {
                0.0
            } else {
                median(&checkpoints)
            },
        ),
        (
            "durability.checkpoint.bytes",
            ratio(device.checkpoint_bytes, checkpoints.len() as u64),
        ),
        (
            "durability.checkpoint.stall_share",
            checkpoints.iter().fold(0.0, |a, s| a + s) / measured_s,
        ),
        ("durability.storage.appends", device.appends as f64),
        ("durability.storage.bytes", device.bytes as f64),
        ("durability.storage.syncs", device.syncs as f64),
    ]
}

/// Nanoseconds per iteration of `body`, run `iterations` times.
fn per_iteration(iterations: u64, mut body: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iterations {
        body(i);
    }
    t.elapsed().as_nanos() as f64 / iterations as f64
}

/// Nanoseconds per returned pair of `collect`, called once per start key.
fn ns_per_pair(starts: &[u64], mut collect: impl FnMut(u64) -> usize) -> f64 {
    let mut pairs = 0usize;
    let t = Instant::now();
    for &lo in starts {
        pairs += collect(lo);
    }
    t.elapsed().as_nanos() as f64 / pairs as f64
}

/// `count` distinct keys with the wanted membership, in an order that is
/// neither sorted nor clustered (a prime stride from a random offset).
fn pick_keys(
    expected: &Bitset,
    universe: u64,
    present: bool,
    count: u64,
    rng: &mut Rng,
) -> Vec<u64> {
    let offset = rng.below(universe);
    let keys: Vec<u64> = (0..universe)
        .map(|i| (offset + i * STRIDE) % universe)
        .filter(|&k| expected.get(k) == present)
        .take(count as usize)
        .collect();
    assert!(!keys.is_empty(), "no key with membership {present}");
    keys
}

/// Time the public functions of every layer.  `expected` is the map's
/// membership (the union of the workers' sets).
pub fn run_probes(map: &SkipHash<u64, u64>, expected: &Bitset, cfg: &RunConfig) -> Vec<Row> {
    let n = |full: u64| (full / cfg.scale.divisor).max(64);
    let universe = cfg.scale.universe;
    let mut rng = Rng::new(cfg.seed, 0xB0BE);
    let mut rows = Vec::new();

    // --- crates/stm, on a runtime and cells of the probe's own -----------
    let stm = Arc::new(Stm::with_clock(ClockKind::Sampled));
    let cells: Vec<TCell<u64>> = (0..64).map(TCell::new).collect();
    let ro_empty = per_iteration(n(2_000_000), |_| stm.run(|_| Ok(())));
    rows.push(("stm.txn.ro_empty_ns", ro_empty));
    let read64 = per_iteration(n(200_000), |_| {
        let sum = stm.run(|tx| {
            let mut sum = 0u64;
            for c in &cells {
                sum = sum.wrapping_add(c.read_with(tx, |v| *v)?);
            }
            Ok(sum)
        });
        black_box(sum);
    });
    rows.push(("stm.tcell.read_ns", (read64 - ro_empty) / 64.0));
    rows.push((
        "stm.txn.rmw1_ns",
        per_iteration(n(1_000_000), |_| {
            stm.run(|tx| {
                let v = cells[0].read(tx)?;
                cells[0].write(tx, v + 1)
            })
        }),
    ));
    rows.push((
        "stm.txn.write8_ns",
        per_iteration(n(400_000), |i| {
            stm.run(|tx| {
                for c in &cells[..8] {
                    c.write(tx, i)?;
                }
                Ok(())
            })
        }),
    ));
    rows.push((
        "stm.snapshot.pin_drop_ns",
        per_iteration(n(400_000), |_| drop(black_box(stm.pin_snapshot()))),
    ));

    // --- crates/skiphash: hash routing and tower descent ------------------
    let hits = pick_keys(expected, universe, true, n(200_000), &mut rng);
    let misses = pick_keys(expected, universe, false, n(200_000), &mut rng);
    let lookups = |keys: &[u64]| {
        per_iteration(keys.len() as u64, |i| {
            black_box(map.get(&keys[i as usize]));
        })
    };
    rows.push(("skiphash.hashmap.get_hit_ns", lookups(&hits)));
    rows.push(("skiphash.hashmap.get_miss_ns", lookups(&misses)));
    {
        // The index alone: same bucket count, same keys, no skip list.
        let index: TxHashMap<u64, u64> = TxHashMap::new(cfg.scale.buckets);
        for k in expected.keys() {
            stm.run(|tx| index.insert(tx, k, value_of(k)));
        }
        let probe = per_iteration(hits.len() as u64, |i| {
            black_box(stm.run(|tx| index.get(tx, &hits[i as usize])));
        });
        rows.push(("skiphash.hashmap.probe_ns", probe - ro_empty));
    }
    rows.push((
        // `ceil` of an absent key cannot be answered by the hash index.
        "skiphash.skiplist.descent_ns",
        per_iteration(misses.len() as u64, |i| {
            black_box(map.ceil(&misses[i as usize]));
        }),
    ));

    // --- crates/skiphash: elemental updates, as quiescent pairs -----------
    let fresh = &misses[..misses.len() / 2];
    rows.push((
        "skiphash.map.insert_ns",
        per_iteration(fresh.len() as u64, |i| {
            let k = fresh[i as usize];
            black_box(map.insert(k, value_of(k)));
        }),
    ));
    rows.push((
        "skiphash.map.remove_ns",
        per_iteration(fresh.len() as u64, |i| {
            black_box(map.remove(&fresh[i as usize]));
        }),
    ));
    rows.push((
        "skiphash.map.update_ns",
        per_iteration(hits.len() as u64 / 2, |i| {
            black_box(map.update(&hits[i as usize], |v| *v));
        }),
    ));

    // --- crates/skiphash: range paths -------------------------------------
    // Intervals wide enough to hold about 1,024 pairs at the map's density.
    let density = expected.count() as f64 / universe as f64;
    let width = ((1024.0 / density) as u64).min(universe);
    let starts: Vec<u64> = (0..n(4_000))
        .map(|_| rng.below(universe - width + 1))
        .collect();
    rows.push((
        "skiphash.range.fast_ns_per_pair",
        ns_per_pair(&starts, |lo| {
            // Quiescent: a single attempt cannot abort.
            map.range_attempt_fast(lo..lo + width)
                .map_or(0, |r| r.len())
        }),
    ));
    {
        let side_keys = 65_536u64.min(universe);
        let side: SkipHash<u64, u64> = SkipHashBuilder::new()
            .buckets(side_keys as usize)
            .range_policy(RangePolicy::SlowOnly)
            .build();
        for i in 0..side_keys {
            let k = (i * 40_503) % side_keys;
            side.insert(k, value_of(k));
        }
        let mut turn = Rng::new(cfg.seed, 0x510);
        let t = Instant::now();
        let mut pairs = 0usize;
        for _ in 0..n(4_000) {
            let lo = turn.below(side_keys - 1024 + 1);
            pairs += side.range_copied(lo..lo + 1024).len();
        }
        rows.push((
            "skiphash.range.slow_ns_per_pair",
            t.elapsed().as_nanos() as f64 / pairs as f64,
        ));
    }
    {
        let rqc: Rqc<u64, u64> = Rqc::new();
        rows.push((
            "skiphash.rqc.on_update_ns",
            per_iteration(n(1_000_000), |_| {
                black_box(stm.run(|tx| rqc.on_update(tx)));
            }),
        ));
        rows.push((
            "skiphash.rqc.range_bracket_ns",
            per_iteration(n(400_000), |_| {
                let ver = stm.run(|tx| rqc.on_range(tx));
                black_box(stm.run(|tx| rqc.after_range(tx, ver)));
            }),
        ));
    }

    // --- crates/skiphash: snapshots, one pin at a time ---------------------
    rows.push((
        "skiphash.snapshot.create_drop_ns",
        per_iteration(n(200_000), |_| drop(black_box(map.snapshot()))),
    ));
    {
        let snap = map.snapshot();
        rows.push((
            "skiphash.snapshot.get_ns",
            per_iteration(hits.len() as u64 / 2, |i| {
                black_box(snap.get(&hits[i as usize]));
            }),
        ));
        rows.push((
            "skiphash.snapshot.scan_ns_per_pair",
            ns_per_pair(&starts, |lo| snap.range_copied(lo..lo + width).len()),
        ));
        // 100,000 updates behind the pin's back: the scan now resolves
        // displaced links and values through the history side table.
        for &k in &hits[..(n(50_000) as usize).min(hits.len())] {
            map.remove(&k);
            map.insert(k, value_of(k));
        }
        rows.push((
            "skiphash.snapshot.scan_churned_ns_per_pair",
            ns_per_pair(&starts, |lo| snap.range_copied(lo..lo + width).len()),
        ));
    }

    // --- crates/durability: what logging adds to an upsert -----------------
    {
        let side_keys = 65_536u64.min(universe);
        let side_scale = Scale {
            buckets: side_keys as usize,
            ..cfg.scale
        };
        let device = CrashStorage::new();
        let durable = open_durable(&device, side_scale).expect("open an empty in-memory directory");
        for k in 0..side_keys {
            durable.unlogged().insert(k, value_of(k));
        }
        let keys: Vec<u64> = (0..n(400_000)).map(|_| rng.below(side_keys)).collect();
        let plain = per_iteration(keys.len() as u64, |i| {
            let k = keys[i as usize];
            black_box(durable.unlogged().upsert(k, value_of(k)));
        });
        let logged = per_iteration(keys.len() as u64, |i| {
            let k = keys[i as usize];
            black_box(durable.upsert(k, value_of(k)));
        });
        durable.sync().expect("sync to in-memory storage");
        rows.push(("durability.wal.submit_ns", logged - plain));
    }

    // --- crates/baselines: the same collect on the vCAS skip list ----------
    {
        let vcas: VcasSkipList<u64, u64> = VcasSkipList::new(20, TimestampMode::Rdtscp);
        let mut order: Vec<u64> = expected.keys().collect();
        // Insert in the map's own populate order, not sorted.
        order.sort_unstable_by_key(|&k| mix(k));
        for k in order {
            vcas.insert(k, value_of(k));
        }
        rows.push((
            "baselines.vcas.range_ns_per_pair",
            ns_per_pair(&starts, |lo| vcas.range(&lo, &(lo + width - 1)).len()),
        ));
    }
    rows
}
