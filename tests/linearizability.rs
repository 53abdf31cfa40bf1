//! Concurrent stress tests checking linearizability-style invariants of the
//! skip hash under each range-query policy, and agreement between the skip
//! hash and the baselines under identical concurrent histories where the
//! outcome is deterministic.

use skiphash_stm::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use skiphash_repro::skiphash::SkipHashBuilder;
use skiphash_repro::{RangePolicy, SkipHash};

fn build(policy: RangePolicy) -> Arc<SkipHash<u64, u64>> {
    Arc::new(
        SkipHashBuilder::new()
            .buckets(4_099)
            .max_level(14)
            .range_policy(policy)
            .build(),
    )
}

/// Writers toggle odd keys while even keys stay untouched; every range query
/// must observe *all* even keys exactly once and never a duplicate key.
fn stable_evens_scenario(policy: RangePolicy) {
    const UNIVERSE: u64 = 2_000;
    let map = build(policy);
    for key in (0..UNIVERSE).step_by(2) {
        assert!(map.insert(key, key));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..3u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut i = w;
            while !stop.load(Ordering::Relaxed) {
                let key = (i * 2 + 1) % UNIVERSE;
                if !map.insert(key, key) {
                    map.remove(&key);
                }
                i = i.wrapping_add(7);
            }
        }));
    }

    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut queries = 0;
    while std::time::Instant::now() < deadline {
        let low = (queries * 37) % (UNIVERSE / 2);
        let high = low + 500;
        let window: Vec<(u64, u64)> = map.range(low..=high).collect();
        // All even keys in the window must be present exactly once.
        let expected_evens = (low..=high).filter(|k| k % 2 == 0).count();
        let observed_evens = window.iter().filter(|(k, _)| k % 2 == 0).count();
        assert_eq!(observed_evens, expected_evens, "policy {policy:?}");
        // Sorted, no duplicates.
        assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
        // Every reported value matches its key (writers always store v == k).
        assert!(window.iter().all(|(k, v)| k == v));
        queries += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }
    assert!(queries > 0);
    map.check_invariants().expect("invariants after stress");
}

#[test]
fn two_path_ranges_are_linearizable_under_updates() {
    stable_evens_scenario(RangePolicy::TwoPath { tries: 3 });
}

#[test]
fn fast_only_ranges_are_linearizable_under_updates() {
    stable_evens_scenario(RangePolicy::FastOnly);
}

/// The slow path is where removals park nodes in the per-thread buffers and
/// hand them to in-flight queries (§4.5).
#[test]
fn slow_only_ranges_are_linearizable_under_updates() {
    stable_evens_scenario(RangePolicy::SlowOnly);
}

/// A value moved between two keys must never be observed in both or neither.
#[test]
fn atomic_key_migration_is_never_partially_visible() {
    let map = build(RangePolicy::TwoPath { tries: 3 });
    const TOKEN: u64 = 4242;
    assert!(map.insert(0, TOKEN));
    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut at = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let next = (at + 1) % 64;
                // Not atomic as a pair — but each range query linearizes, so
                // it must see the token under exactly one key or be ordered
                // entirely before/after this two-step move; the observer
                // below accounts for the transient where the token is absent
                // (between remove and insert), but must never see two copies.
                map.remove(&at);
                map.insert(next, TOKEN);
                at = next;
            }
        })
    };
    for _ in 0..2_000 {
        let snapshot: Vec<(u64, u64)> = map.range(0..=63).collect();
        let copies = snapshot.iter().filter(|(_, v)| *v == TOKEN).count();
        assert!(copies <= 1, "token duplicated: {snapshot:?}");
    }
    stop.store(true, Ordering::Relaxed);
    mover.join().unwrap();
}

/// Concurrent inserts of disjoint key sets must all land, and the final
/// contents must be identical across every policy and baseline.
#[test]
fn disjoint_concurrent_inserts_land_exactly_once() {
    for policy in [
        RangePolicy::FastOnly,
        RangePolicy::SlowOnly,
        RangePolicy::TwoPath { tries: 3 },
    ] {
        let map = build(policy);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                for i in 0..500u64 {
                    assert!(map.insert(t * 10_000 + i, i));
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(map.len(), 2_000);
        let snapshot: Vec<(u64, u64)> = map.range(..).collect();
        assert_eq!(snapshot.len(), 2_000);
        map.check_invariants().expect("invariants");
    }
}

/// Snapshots pin exact states: a controller thread mutates its own keyspace,
/// checkpoints a `BTreeMap` reference, and takes a snapshot after every
/// batch — while four writer threads storm a disjoint keyspace the whole
/// time.  Every snapshot, verified both mid-storm and long after later
/// batches have overwritten everything, must equal its reference model
/// replayed to the pinned version: same gets, same ranges, same full scan.
#[test]
fn snapshots_equal_the_reference_model_replayed_to_their_version() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use skiphash_repro::skiphash::Snapshot;
    use std::collections::BTreeMap;

    const MODEL_KEYS: u64 = 128; // controller's keyspace: 0..MODEL_KEYS
    const STORM_BASE: u64 = 1_000_000; // writers churn STORM_BASE..
    const BATCHES: usize = 40;

    let map = build(RangePolicy::TwoPath { tries: 3 });
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = STORM_BASE + w * 100_000 + (i % 512);
                if !map.insert(key, i) {
                    map.remove(&key);
                }
                i = i.wrapping_add(1);
            }
        }));
    }

    let mut rng = SmallRng::seed_from_u64(0x5AA9_0001);
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pinned: Vec<(Snapshot<u64, u64>, BTreeMap<u64, u64>)> = Vec::new();
    for batch in 0..BATCHES {
        for _ in 0..24 {
            let key = rng.gen_range(0..MODEL_KEYS);
            if rng.gen::<bool>() {
                let value = rng.gen::<u32>() as u64;
                map.upsert(key, value);
                reference.insert(key, value);
            } else {
                assert_eq!(map.remove(&key), reference.remove(&key).is_some());
            }
        }
        let snap = map.snapshot();
        // Mid-storm spot check: a probe right away, while writers race.
        let probe = rng.gen_range(0..MODEL_KEYS);
        assert_eq!(
            snap.get(&probe),
            reference.get(&probe).copied(),
            "batch {batch} probe {probe}"
        );
        pinned.push((snap, reference.clone()));
    }

    // Every snapshot — including the earliest, pinned dozens of committed
    // batches ago — must still replay exactly to its checkpoint.
    for (i, (snap, model)) in pinned.iter().enumerate() {
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            snap.range(0..MODEL_KEYS).collect::<Vec<_>>(),
            expected,
            "snapshot {i} diverged from its checkpoint"
        );
        for key in 0..MODEL_KEYS {
            assert_eq!(snap.get(&key), model.get(&key).copied(), "snapshot {i}");
        }
        // Version order matches checkpoint order.
        if i > 0 {
            assert!(pinned[i - 1].0.version() <= snap.version());
        }
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }
    drop(pinned);
    map.check_invariants().expect("invariants after stress");
}

/// No tearing: four writer threads shuffle value between 64 accounts with
/// atomic two-key transfers, so *every* committed state sums to exactly the
/// initial total.  Any snapshot — however it interleaves with the transfer
/// storm — must observe one such state: the full scan sums to the total, the
/// population never changes, and re-reading a key through `get` agrees with
/// what the scan reported.
#[test]
fn snapshot_reads_never_tear_under_atomic_transfers() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const ACCOUNTS: u64 = 64;
    const INITIAL: u64 = 1_000;

    let map = build(RangePolicy::TwoPath { tries: 3 });
    for key in 0..ACCOUNTS {
        assert!(map.insert(key, INITIAL));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0xBA1A_0000 + w);
            while !stop.load(Ordering::Relaxed) {
                let from = rng.gen_range(0..ACCOUNTS);
                let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                let amount = rng.gen_range(1..50u64);
                map.transact(|v| {
                    let balance = v.get(&from)?.expect("accounts are never removed");
                    if balance >= amount {
                        v.upsert(from, balance - amount)?;
                        let target = v.get(&to)?.expect("accounts are never removed");
                        v.upsert(to, target + amount)?;
                    }
                    Ok(())
                });
            }
        }));
    }

    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut audited = 0u64;
    let mut previous_version = 0u64;
    while std::time::Instant::now() < deadline {
        let snap = map.snapshot();
        assert!(snap.version() >= previous_version, "clock went backwards");
        previous_version = snap.version();
        let scan = snap.to_vec();
        assert_eq!(scan.len() as u64, ACCOUNTS);
        assert_eq!(snap.len() as u64, ACCOUNTS);
        let total: u64 = scan.iter().map(|(_, v)| v).sum();
        assert_eq!(
            total,
            ACCOUNTS * INITIAL,
            "snapshot at version {} observed a torn transfer",
            snap.version()
        );
        // Re-reads through a different access path must agree with the scan.
        for (key, value) in scan.iter().step_by(7) {
            assert_eq!(snap.get(key), Some(*value), "tearing within one snapshot");
        }
        audited += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }
    assert!(audited > 0);
    let final_total: u64 = map.to_vec().iter().map(|(_, v)| v).sum();
    assert_eq!(final_total, ACCOUNTS * INITIAL);
    map.check_invariants().expect("invariants after stress");
}

/// Removals racing with lookups: a lookup must never return a value for a key
/// that was removed before the lookup began (monotonic reads through the
/// hash-map invariant).
#[test]
fn lookups_never_resurrect_removed_keys() {
    let map = build(RangePolicy::TwoPath { tries: 3 });
    for key in 0..1_000u64 {
        map.insert(key, key);
    }
    let map2 = Arc::clone(&map);
    let remover = thread::spawn(move || {
        for key in 0..1_000u64 {
            assert!(map2.remove(&key));
        }
    });
    // Concurrently look keys up in the same order; once a lookup misses, all
    // later lookups of *that same key* must also miss.
    let mut missed = vec![false; 1_000];
    for _ in 0..20 {
        for key in 0..1_000u64 {
            let found = map.get(&key).is_some();
            if missed[key as usize] {
                assert!(!found, "key {key} reappeared after being observed absent");
            }
            if !found {
                missed[key as usize] = true;
            }
        }
    }
    remover.join().unwrap();
    assert_eq!(map.len(), 0);
    map.check_invariants().expect("invariants");
}
