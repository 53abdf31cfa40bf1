//! Randomized equivalence tests: every evaluated map must behave exactly
//! like `std::collections::BTreeMap` under arbitrary operation sequences
//! (sequential, so the reference semantics are unambiguous).
//!
//! Operation sequences are generated from a seeded [`SmallRng`], so every
//! case is deterministic and a failure reports the seed that produced it
//! (originally written against `proptest`, which is not available in this
//! offline build environment).

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash_repro::baselines::skiplist::{BundledSkipList, VcasSkipList};
use skiphash_repro::baselines::stm_maps::{StmHashMap, StmSkipListMap};
use skiphash_repro::baselines::timestamp::TimestampMode;
use skiphash_repro::baselines::VcasBst;
use skiphash_repro::skiphash::SkipHashBuilder;
use skiphash_repro::{RangePolicy, SkipHash};

const CASES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Range(u16, u16),
    /// `range_rev` (the forward query, reversed) plus `range_copied`, the
    /// forward kept for the repo benchmark, over the same bounds.
    RangeRev(u16, u16),
    /// Full scans: `to_vec` and its `to_vec_copied` forward against the
    /// whole model.
    ToVec,
    Ceil(u16),
    Floor(u16),
    Succ(u16),
    Pred(u16),
    /// Pin a snapshot and checkpoint the reference model alongside it.
    Snapshot,
    /// `get` on every live snapshot, checked against its checkpoint.
    SnapshotGet(u16),
    /// `range` on every live snapshot, checked against its checkpoint.
    SnapshotRange(u16, u16),
    /// Drop the oldest live snapshot (releasing its version custody).
    DropSnapshot,
}

fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..14u32) {
        0 => Op::Insert(rng.gen::<u32>() as u16 % 512, rng.gen::<u32>()),
        1 => Op::Remove(rng.gen::<u32>() as u16 % 512),
        2 => Op::Get(rng.gen::<u32>() as u16 % 512),
        3 => Op::Range(rng.gen::<u32>() as u16 % 512, rng.gen::<u32>() as u16 % 64),
        4 => Op::RangeRev(rng.gen::<u32>() as u16 % 512, rng.gen::<u32>() as u16 % 64),
        5 => Op::ToVec,
        6 => Op::Ceil(rng.gen::<u32>() as u16 % 512),
        7 => Op::Floor(rng.gen::<u32>() as u16 % 512),
        8 => Op::Succ(rng.gen::<u32>() as u16 % 512),
        9 => Op::Pred(rng.gen::<u32>() as u16 % 512),
        10 => Op::Snapshot,
        11 => Op::SnapshotGet(rng.gen::<u32>() as u16 % 512),
        12 => Op::SnapshotRange(rng.gen::<u32>() as u16 % 512, rng.gen::<u32>() as u16 % 64),
        _ => Op::DropSnapshot,
    }
}

/// Run `check` on `CASES` random operation sequences of length `1..max_len`,
/// reporting the failing seed on panic.
fn for_each_case(max_len: usize, check: impl Fn(&[Op])) {
    for case in 0..CASES {
        let seed = 0xE9_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(1..max_len);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&ops)));
        if let Err(payload) = result {
            eprintln!("equivalence case failed for seed {seed} ({len} ops)");
            std::panic::resume_unwind(payload);
        }
    }
}

fn skiphash_with(policy: RangePolicy) -> SkipHash<u64, u64> {
    SkipHashBuilder::new()
        .buckets(257)
        .max_level(10)
        .range_policy(policy)
        .build()
}

fn check_skiphash_against_btreemap(policy: RangePolicy, ops: &[Op]) {
    let map = skiphash_with(policy);
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    // The versioned reference model: each live snapshot paired with the
    // checkpoint of the reference taken at its pin.  Every snapshot query
    // must replay to its checkpoint no matter how far the live map has
    // moved on since.
    let mut snapshots: Vec<(
        skiphash_repro::skiphash::Snapshot<u64, u64>,
        BTreeMap<u64, u64>,
    )> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let k = k as u64;
                let v = v as u64;
                let expected = !reference.contains_key(&k);
                if expected {
                    reference.insert(k, v);
                }
                assert_eq!(map.insert(k, v), expected, "insert({k})");
            }
            Op::Remove(k) => {
                let k = k as u64;
                let expected = reference.remove(&k).is_some();
                assert_eq!(map.remove(&k), expected, "remove({k})");
            }
            Op::Get(k) => {
                let k = k as u64;
                assert_eq!(map.get(&k), reference.get(&k).copied(), "get({k})");
            }
            Op::Range(low, len) => {
                let low = low as u64;
                let high = low + len as u64;
                let expected: Vec<(u64, u64)> =
                    reference.range(low..=high).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(
                    map.range(low..=high).collect::<Vec<_>>(),
                    expected,
                    "range({low},{high})"
                );
            }
            Op::RangeRev(low, len) => {
                let low = low as u64;
                let high = low + len as u64;
                let expected_rev: Vec<(u64, u64)> = reference
                    .range(low..=high)
                    .rev()
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(
                    map.range_rev(low..=high).collect::<Vec<_>>(),
                    expected_rev,
                    "range_rev({low},{high})"
                );
                let expected_fwd: Vec<(u64, u64)> =
                    reference.range(low..=high).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(
                    map.range_copied(low..=high).collect::<Vec<_>>(),
                    expected_fwd,
                    "range_copied({low},{high})"
                );
            }
            Op::ToVec => {
                let all: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(map.to_vec(), all, "to_vec");
                assert_eq!(map.to_vec_copied(), all, "to_vec_copied");
            }
            Op::Ceil(k) => {
                let k = k as u64;
                let expected = reference.range(k..).next().map(|(k, _)| *k);
                assert_eq!(map.ceil(&k), expected, "ceil({k})");
            }
            Op::Floor(k) => {
                let k = k as u64;
                let expected = reference.range(..=k).next_back().map(|(k, _)| *k);
                assert_eq!(map.floor(&k), expected, "floor({k})");
            }
            Op::Succ(k) => {
                let k = k as u64;
                let expected = reference.range(k + 1..).next().map(|(k, _)| *k);
                assert_eq!(map.succ(&k), expected, "succ({k})");
            }
            Op::Pred(k) => {
                let k = k as u64;
                let expected = reference.range(..k).next_back().map(|(k, _)| *k);
                assert_eq!(map.pred(&k), expected, "pred({k})");
            }
            Op::Snapshot => {
                let snap = map.snapshot();
                assert_eq!(snap.len(), reference.len(), "len at the pin");
                snapshots.push((snap, reference.clone()));
            }
            Op::SnapshotGet(k) => {
                let k = k as u64;
                for (i, (snap, model)) in snapshots.iter().enumerate() {
                    assert_eq!(
                        snap.get(&k),
                        model.get(&k).copied(),
                        "snapshot {i} get({k})"
                    );
                }
            }
            Op::SnapshotRange(low, len) => {
                let low = low as u64;
                let high = low + len as u64;
                for (i, (snap, model)) in snapshots.iter().enumerate() {
                    let expected: Vec<(u64, u64)> =
                        model.range(low..=high).map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(
                        snap.range(low..=high).collect::<Vec<_>>(),
                        expected,
                        "snapshot {i} range({low},{high})"
                    );
                    assert_eq!(
                        snap.range_copied(low..=high).collect::<Vec<_>>(),
                        expected,
                        "snapshot {i} range_copied({low},{high})"
                    );
                }
            }
            Op::DropSnapshot => {
                if !snapshots.is_empty() {
                    snapshots.remove(0);
                }
            }
        }
    }
    // Surviving snapshots replay to their checkpoints in full before they
    // release custody.
    for (i, (snap, model)) in snapshots.iter().enumerate() {
        assert_eq!(snap.len(), model.len(), "snapshot {i} final len");
        let all: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(snap.to_vec(), all, "snapshot {i} final scan");
    }
    drop(snapshots);
    assert_eq!(map.len(), reference.len());
    let all: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(map.to_vec(), all);
    map.check_invariants().expect("internal invariants");
}

/// Replay `ops` against a baseline map exposing get/insert/remove/range and
/// compare with `BTreeMap` (point queries are not part of the baseline
/// interface and are skipped).
fn check_baseline_against_btreemap(
    ops: &[Op],
    insert: impl Fn(u64, u64) -> bool,
    remove: impl Fn(u64) -> bool,
    get: impl Fn(u64) -> Option<u64>,
    range: impl Fn(u64, u64) -> Vec<(u64, u64)>,
    len: impl Fn() -> usize,
) {
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let (k, v) = (k as u64, v as u64);
                let expected = !reference.contains_key(&k);
                if expected {
                    reference.insert(k, v);
                }
                assert_eq!(insert(k, v), expected, "insert({k})");
            }
            Op::Remove(k) => {
                let k = k as u64;
                assert_eq!(remove(k), reference.remove(&k).is_some(), "remove({k})");
            }
            Op::Get(k) => {
                let k = k as u64;
                assert_eq!(get(k), reference.get(&k).copied(), "get({k})");
            }
            Op::Range(low, rlen) => {
                let (low, high) = (low as u64, low as u64 + rlen as u64);
                let expected: Vec<(u64, u64)> =
                    reference.range(low..=high).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(range(low, high), expected, "range({low},{high})");
            }
            _ => {}
        }
    }
    assert_eq!(len(), reference.len());
}

#[test]
fn skiphash_two_path_matches_btreemap() {
    for_each_case(120, |ops| {
        check_skiphash_against_btreemap(RangePolicy::TwoPath { tries: 3 }, ops);
    });
}

#[test]
fn skiphash_fast_only_matches_btreemap() {
    for_each_case(120, |ops| {
        check_skiphash_against_btreemap(RangePolicy::FastOnly, ops);
    });
}

#[test]
fn skiphash_slow_only_matches_btreemap() {
    for_each_case(80, |ops| {
        check_skiphash_against_btreemap(RangePolicy::SlowOnly, ops);
    });
}

/// Every scan entry point — `range` under each policy (fast path, RQC
/// custody slow path), its `range_rev` mirror, full `to_vec` scans, a
/// caller-owned `TxView::range`, and `Snapshot::range` at a pin taken
/// mid-churn — under concurrent insert/remove churn.
///
/// Under churn there is no single reference sequence, but every scan runs
/// at one consistent version (one transaction, one RQC-registered version,
/// or one pin), so three invariants must hold for every result: strict key
/// ordering (ascending forward, descending reverse), the value law
/// `v == k * 10` that every writer maintains, and the presence of every
/// never-touched "stable" key inside the bounds.  After the writers join,
/// all paths must agree exactly.
#[test]
fn scan_paths_stay_coherent_under_concurrent_churn() {
    // FACADE-EXEMPT: test-only stop flag; this integration test runs real
    // threads outside the model checker, so there is nothing to instrument.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const STABLE_STEP: u64 = 4; // keys 0, 4, 8, ... are never touched
    const UNIVERSE: u64 = 400;
    const LOW: u64 = 50;
    const HIGH: u64 = 350;
    let scans: usize = if cfg!(debug_assertions) { 40 } else { 150 };

    for policy in [
        RangePolicy::FastOnly,
        RangePolicy::SlowOnly,
        RangePolicy::TwoPath { tries: 3 },
    ] {
        let map = Arc::new(skiphash_with(policy));
        for k in (0..UNIVERSE).step_by(STABLE_STEP as usize) {
            assert!(map.insert(k, k * 10));
        }
        let stable_in_bounds: Vec<u64> = (0..UNIVERSE)
            .step_by(STABLE_STEP as usize)
            .filter(|k| (LOW..HIGH).contains(k))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC0_0000 + w);
                    while !stop.load(Ordering::Relaxed) {
                        // Odd keys only: writer w churns keys ≡ 2w+1 mod 4,
                        // so writers never collide with stable keys or each
                        // other, and the value law always holds.
                        let k = rng.gen_range(0..UNIVERSE / 4) * 4 + 2 * w + 1;
                        if !map.insert(k, k * 10) {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();

        let check = |pairs: &[(u64, u64)], descending: bool, label: &str| {
            for pair in pairs.windows(2) {
                if descending {
                    assert!(pair[0].0 > pair[1].0, "{label}: descending order");
                } else {
                    assert!(pair[0].0 < pair[1].0, "{label}: ascending order");
                }
            }
            for &(k, v) in pairs {
                assert_eq!(v, k * 10, "{label}: value law for key {k}");
            }
            let keys: Vec<u64> = pairs.iter().map(|(k, _)| *k).collect();
            for stable in &stable_in_bounds {
                assert!(
                    keys.binary_search_by(|k| if descending {
                        stable.cmp(k)
                    } else {
                        k.cmp(stable)
                    })
                    .is_ok(),
                    "{label}: stable key {stable} missing"
                );
            }
        };
        for _ in 0..scans {
            check(&map.range(LOW..HIGH).collect::<Vec<_>>(), false, "range");
            check(
                &map.range_rev(LOW..HIGH).collect::<Vec<_>>(),
                true,
                "range_rev",
            );
            check(&map.to_vec(), false, "to_vec");
            let in_txn = map.transact(|v| v.range(LOW..HIGH));
            check(&in_txn.collect::<Vec<_>>(), false, "TxView::range");
            let pinned = map.snapshot().range(LOW..HIGH);
            check(&pinned.collect::<Vec<_>>(), false, "Snapshot::range");
        }
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().expect("writer thread");
        }
        // Quiescent: every path agrees exactly.
        let fwd: Vec<(u64, u64)> = map.range(LOW..HIGH).collect();
        let mut rev: Vec<(u64, u64)> = map.range_rev(LOW..HIGH).collect();
        rev.reverse();
        assert_eq!(rev, fwd, "the reverse query is the exact mirror");
        let in_txn = map.transact(|v| v.range(LOW..HIGH));
        assert_eq!(in_txn.collect::<Vec<_>>(), fwd);
        assert_eq!(map.snapshot().range(LOW..HIGH).collect::<Vec<_>>(), fwd);
        let all = map.to_vec();
        let within = all.iter().filter(|(k, _)| (LOW..HIGH).contains(k));
        assert_eq!(within.copied().collect::<Vec<_>>(), fwd);
        map.check_invariants().expect("internal invariants");
    }
}

#[test]
fn vcas_skiplist_matches_btreemap() {
    for_each_case(100, |ops| {
        let map: VcasSkipList<u64, u64> = VcasSkipList::new(10, TimestampMode::Rdtscp);
        check_baseline_against_btreemap(
            ops,
            |k, v| map.insert(k, v),
            |k| map.remove(&k),
            |k| map.get(&k),
            |low, high| map.range(&low, &high),
            || map.len(),
        );
    });
}

#[test]
fn bundled_skiplist_matches_btreemap() {
    for_each_case(100, |ops| {
        let map: BundledSkipList<u64, u64> = BundledSkipList::new(10, TimestampMode::Rdtscp);
        check_baseline_against_btreemap(
            ops,
            |k, v| map.insert(k, v),
            |k| map.remove(&k),
            |k| map.get(&k),
            |low, high| map.range(&low, &high),
            || map.len(),
        );
    });
}

#[test]
fn vcas_bst_matches_btreemap() {
    for_each_case(100, |ops| {
        let map: VcasBst<u64, u64> = VcasBst::new(TimestampMode::Rdtscp);
        check_baseline_against_btreemap(
            ops,
            |k, v| map.insert(k, v),
            |k| map.remove(&k),
            |k| map.get(&k),
            |low, high| map.range(&low, &high),
            || map.len(),
        );
    });
}

#[test]
fn stm_only_maps_match_hashmap_semantics() {
    for_each_case(100, |ops| {
        let hash: StmHashMap<u64, u64> = StmHashMap::new(64);
        let list: StmSkipListMap<u64, u64> = StmSkipListMap::new(10);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match *op {
                Op::Insert(k, v) => {
                    let (k, v) = (k as u64, v as u64);
                    let expected = !reference.contains_key(&k);
                    if expected {
                        reference.insert(k, v);
                    }
                    assert_eq!(hash.insert(k, v), expected);
                    assert_eq!(list.insert(k, v), expected);
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    let expected = reference.remove(&k).is_some();
                    assert_eq!(hash.remove(&k), expected);
                    assert_eq!(list.remove(&k), expected);
                }
                Op::Get(k) => {
                    let k = k as u64;
                    assert_eq!(hash.get(&k), reference.get(&k).copied());
                    assert_eq!(list.get(&k), reference.get(&k).copied());
                }
                _ => {}
            }
        }
        assert_eq!(hash.len(), reference.len());
        assert_eq!(list.len(), reference.len());
    });
}
