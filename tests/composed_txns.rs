//! Composed-transaction guarantees: multi-map transfers are atomic under
//! concurrent readers, the read-modify-write entries lose no updates under
//! contention, and an aborted `TxView` operation leaves every touched
//! structure untouched.
//!
//! These are the integration-level checks for the `TxView` tier: the paper's
//! claim is that building on STM makes cross-structure composition *correct
//! by construction*, and this suite is where that claim is allowed to fail.

use skiphash_stm::sync::{AtomicBool, Ordering};
use std::cell::Cell;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use skiphash_repro::skiphash::SkipHashBuilder;
use skiphash_repro::stm::{ClockKind, Stm, TxAbort, TxResult};
use skiphash_repro::{Compute, SkipHash, TxView};

type SharedMap = Arc<SkipHash<u64, u64>>;

fn shared_pair() -> (Arc<Stm>, SharedMap, SharedMap) {
    let stm = Arc::new(Stm::new());
    let map = |stm: &Arc<Stm>| {
        Arc::new(
            SkipHashBuilder::new()
                .buckets(1_021)
                .stm(Arc::clone(stm))
                .build::<u64, u64>(),
        )
    };
    (Arc::clone(&stm), map(&stm), map(&stm))
}

/// (a) Multi-key transfers between two maps never expose intermediate states
/// to concurrent readers: every atomically-read snapshot sees each token in
/// exactly one map, and the total token count is conserved.
#[test]
fn transfers_between_maps_are_invisible_in_flight() {
    const TOKENS: u64 = 32;
    const READ_ROUNDS: u64 = 1_500;

    let (stm, left, right) = shared_pair();
    for token in 0..TOKENS {
        assert!(left.insert(token, token + 1_000));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let moves = Arc::new(skiphash_stm::sync::AtomicU64::new(0));
    let movers: Vec<_> = (0..2u64)
        .map(|m| {
            let stm = Arc::clone(&stm);
            let left = Arc::clone(&left);
            let right = Arc::clone(&right);
            let stop = Arc::clone(&stop);
            let moves = Arc::clone(&moves);
            thread::spawn(move || {
                let mut i = m;
                while !stop.load(Ordering::Relaxed) {
                    let token = i % TOKENS;
                    // Move the token to whichever map does not hold it, in
                    // one transaction; both the take and the insert commit
                    // together or not at all.
                    stm.run(|tx| {
                        if let Some(value) = left.view(tx).take(&token)? {
                            right.view(tx).insert(token, value)?;
                        } else if let Some(value) = right.view(tx).take(&token)? {
                            left.view(tx).insert(token, value)?;
                        }
                        Ok(())
                    });
                    moves.fetch_add(1, Ordering::Relaxed);
                    i = i.wrapping_add(3);
                }
            })
        })
        .collect();

    // Audit for at least READ_ROUNDS snapshots AND until the movers have
    // demonstrably raced us (scheduling on a loaded machine can otherwise
    // finish a fixed round count before the movers even start).
    let mut exactly_one = 0u64;
    let mut round = 0u64;
    while round < READ_ROUNDS || moves.load(Ordering::Relaxed) < 200 {
        let token = round % TOKENS;
        // One transaction reads both maps: the linearizable snapshot.
        let (in_left, in_right) =
            stm.run(|tx| Ok((left.view(tx).get(&token)?, right.view(tx).get(&token)?)));
        match (in_left, in_right) {
            (Some(v), None) | (None, Some(v)) => {
                assert_eq!(v, token + 1_000, "token value corrupted in flight");
                exactly_one += 1;
            }
            (Some(_), Some(_)) => panic!("token {token} observed in BOTH maps"),
            (None, None) => panic!("token {token} observed in NEITHER map"),
        }
        // Conservation of the whole population, atomically across both maps.
        if round.is_multiple_of(250) {
            let total = stm.run(|tx| Ok(left.view(tx).len()? + right.view(tx).len()?));
            assert_eq!(total as u64, TOKENS, "tokens duplicated or lost");
        }
        round += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for mover in movers {
        mover.join().unwrap();
    }
    assert!(moves.load(Ordering::Relaxed) >= 200);
    assert_eq!(exactly_one, round);
    assert_eq!(left.len() + right.len(), TOKENS as usize);
    left.check_invariants().expect("left invariants");
    right.check_invariants().expect("right invariants");
}

/// (b) `update` is atomic under contention: concurrent increments through it
/// never lose updates, unlike a naive get-then-upsert pair.
#[test]
fn update_loses_no_increments_under_contention() {
    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 2_000;

    let map: Arc<SkipHash<u64, u64>> = Arc::new(SkipHash::new());
    assert!(map.insert(7, 0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let map = Arc::clone(&map);
            thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    let updated = map.update(&7, |v| v + 1);
                    assert!(updated.is_some(), "key vanished mid-test");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(map.get(&7), Some(THREADS * INCREMENTS), "lost updates");
}

/// (b) `compute` is atomic under contention: concurrent token bounces via
/// conditional remove/insert conserve the token count.
#[test]
fn compute_conserves_tokens_under_contention() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 1_500;

    let map: Arc<SkipHash<u64, u64>> = Arc::new(SkipHash::new());
    // One counter per thread-pair slot; threads all hammer every key.
    for key in 0..THREADS {
        assert!(map.insert(key, 1));
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = Arc::clone(&map);
            thread::spawn(move || {
                for i in 0..ROUNDS {
                    let key = (t + i) % THREADS;
                    // Collatz-flavoured churn: increment odd counts, halve
                    // even ones, never below 1 — the verdict depends on the
                    // value read in the same transaction.
                    map.compute(key, |current| match current {
                        None => Compute::Put(1),
                        Some(&v) if v % 2 == 1 => Compute::Put(v + 1),
                        Some(&v) if v > 2 => Compute::Put(v / 2),
                        Some(_) => Compute::Keep,
                    });
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Every key must still be present with a positive value: a torn
    // read-then-write would have been able to resurrect or destroy entries.
    for key in 0..THREADS {
        let v = map.get(&key).expect("key lost under contention");
        assert!(v >= 1);
    }
    assert_eq!(map.len(), THREADS as usize);
    map.check_invariants().expect("invariants");
}

/// (b) `get_or_insert_with` races resolve to a single winner whose value
/// everyone then agrees on.
#[test]
fn get_or_insert_with_has_one_winner() {
    const THREADS: u64 = 4;
    let map: Arc<SkipHash<u64, u64>> = Arc::new(SkipHash::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = Arc::clone(&map);
            thread::spawn(move || map.get_or_insert_with(42, || 1_000 + t))
        })
        .collect();
    let observed: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let committed = map.get(&42).expect("key must exist");
    assert!(
        observed.iter().all(|&v| v == committed),
        "threads observed different initializations: {observed:?} vs committed {committed}"
    );
    assert_eq!(map.len(), 1);
}

/// (c) Aborting a transaction that performed `TxView` operations leaves both
/// structures untouched: values, membership, population counters, and
/// structural invariants all roll back.
#[test]
fn aborted_view_operations_leave_no_trace() {
    let (stm, left, right) = shared_pair();
    assert!(left.insert(1, 10));
    assert!(left.insert(2, 20));
    assert!(right.insert(50, 500));
    let left_before = left.to_vec();
    let right_before = right.to_vec();

    // A transaction that mutates both maps through views, then aborts.
    let outcome = stm.try_once(|tx| -> skiphash_repro::stm::TxResult<()> {
        // Mutate left: remove, overwrite, fresh insert.
        assert_eq!(left.view(tx).take(&1)?, Some(10));
        assert_eq!(left.view(tx).upsert(2, 2_222)?, Some(20));
        assert!(left.view(tx).insert(3, 30)?);
        // Mutate right: transfer-style insert plus an RMW.
        assert!(right.view(tx).insert(1, 10)?);
        right.view(tx).update(&50, |v| v + 1)?;
        // The transaction's own reads see the speculative state...
        assert_eq!(left.view(tx).get(&3)?, Some(30));
        assert_eq!(right.view(tx).get(&50)?, Some(501));
        // ...and then the whole thing aborts.
        Err(TxAbort::Explicit)
    });
    assert!(outcome.is_err());

    // Nothing happened, anywhere.
    assert_eq!(left.to_vec(), left_before, "left map must be untouched");
    assert_eq!(right.to_vec(), right_before, "right map must be untouched");
    assert_eq!(left.len(), 2, "population counter must not drift on abort");
    assert_eq!(right.len(), 1);
    left.check_invariants().expect("left invariants");
    right.check_invariants().expect("right invariants");

    // The same operations, committed, do take effect (the abort above was
    // the only thing holding them back).
    stm.run(|tx| {
        left.view(tx).take(&1)?;
        right.view(tx).insert(1, 10)?;
        Ok(())
    });
    assert_eq!(left.get(&1), None);
    assert_eq!(right.get(&1), Some(10));
}

/// Mixing runtimes must fail fast: a transaction from one `Stm` may not
/// operate on a map owned by another.
#[test]
fn view_rejects_foreign_transactions() {
    let foreign: SkipHash<u64, u64> = SkipHash::new();
    let (stm, _, _) = shared_pair();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(|tx| {
            let mut v = foreign.view(tx);
            v.insert(1, 1)
        })
    }));
    assert!(result.is_err(), "foreign-runtime view must panic");
    assert!(foreign.is_empty());
}

/// (f) `TxView::len` reads the transactional sharded counter, so a count
/// taken inside a transaction is linearizable with concurrent updates: with
/// writers that only ever insert or remove keys *in pairs* atomically, no
/// reader transaction may ever observe an odd population.
#[test]
fn txview_len_is_transactionally_consistent() {
    let map: SharedMap = Arc::new(SkipHash::new());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let a = 2 * t;
                let b = 2 * t + 1;
                while !stop.load(Ordering::Relaxed) {
                    map.transact(|v| {
                        v.insert(a, t)?;
                        v.insert(b, t)?;
                        Ok(())
                    });
                    map.transact(|v| {
                        v.remove(&a)?;
                        v.remove(&b)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();

    for _ in 0..2_000 {
        let len = map.transact(|v| v.len());
        assert!(
            len.is_multiple_of(2),
            "len must never observe a half-applied pair (saw {len})"
        );
        let (len2, empty) = map.transact(|v| Ok((v.len()?, v.is_empty()?)));
        assert_eq!(empty, len2 == 0, "is_empty must agree with len");
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }

    // Quiescent cross-checks: the counter agrees with the sealed tier and
    // the level-0 walk (check_invariants re-walks internally).
    assert_eq!(map.transact(|v| v.len()), map.len());
    map.check_invariants()
        .expect("counter consistent after churn");
}

/// (g) The tower descent hops on unvalidated hints, and must still never
/// report a node linked after its attempt's read version.  11 is inserted
/// by a commit in the middle of the attempt; with the sampled clock and no
/// other commit in between, 11's own cells carry this attempt's read
/// version, so only its neighbours' links, which that commit wrote, show
/// that it is too new.  Each query bypasses the hash index (`ceil` would be
/// stopped at 11's bucket first): `succ(10)` lands on 11, `pred(12)` lands
/// behind it, and the range spans it.
#[test]
fn a_descent_never_lands_past_the_read_version() {
    type Query = fn(&mut TxView<'_, '_, u64, u64>) -> TxResult<Vec<u64>>;
    let queries: [(&str, Query); 3] = [
        ("succ(10)", |v| Ok(v.succ(&10)?.into_iter().collect())),
        ("pred(12)", |v| Ok(v.pred(&12)?.into_iter().collect())),
        ("range(10..=12)", |v| {
            Ok(v.range(10..=12)?.map(|(key, _)| key).collect())
        }),
    ];
    let outcomes = queries.map(|(name, query)| {
        let map: SkipHash<u64, u64> = SkipHash::new();
        assert_eq!(map.config().clock, ClockKind::Sampled);
        assert!(map.insert(10, 10) && map.insert(12, 12));
        let outcome = map.stm().try_once(|tx| {
            assert!(!map.view(tx).contains_key(&11)?);
            thread::scope(|s| {
                s.spawn(|| assert!(map.insert(11, 11)));
            });
            query(&mut map.view(tx))
        });
        (name, outcome.map_err(|failed| failed.cause))
    });
    // All three at once, so a failure shows which queries saw 11.
    assert_eq!(
        outcomes,
        queries.map(|(name, _)| (name, Err(TxAbort::ReadConflict))),
        "every query must abort the attempt, never report 11"
    );
}

/// (h) Hints show committed words only, so a body whose own inserts and
/// removals sit at each bound it descends to misses every hinted confirm.
/// The descent must then re-run with validated reads, not abort: aborting
/// would retry the body forever.  The body runs on a thread of its own, so
/// a livelock fails the test instead of hanging the suite.
#[test]
fn own_writes_take_the_validated_descent_without_aborting() {
    let map: SharedMap = Arc::new(SkipHash::new());
    assert!(map.insert(0, 0) && map.insert(1_000, 0));
    let before = map.stm_stats();
    // Ascending up to a gap, then descending down to it: every insert but
    // the first of each run lands next to one of this body's own.
    let keys = || (100..132).chain((132..164).rev());

    let (done, finished) = mpsc::channel();
    let worker = {
        let map = Arc::clone(&map);
        thread::spawn(move || {
            let runs = Cell::new(0);
            map.transact(|v| {
                runs.set(runs.get() + 1);
                for key in keys() {
                    assert!(v.insert(key, key)?);
                }
                assert!(v.remove(&120)?);
                assert!(v.insert(120, 1_200)?);
                Ok(())
            });
            done.send(runs.get()).unwrap();
        })
    };
    let runs = finished.recv_timeout(Duration::from_secs(30));
    if let Err(RecvTimeoutError::Timeout) = runs {
        panic!("the body was still being retried after 30 s");
    }
    // A disconnect means the worker panicked: join re-raises it.
    worker.join().unwrap();
    assert_eq!(runs, Ok(1), "the body ran once");

    let value = |key| if key == 120 { 1_200 } else { key };
    let mut expected: Vec<(u64, u64)> = keys().map(|key| (key, value(key))).collect();
    expected.extend([(0, 0), (1_000, 0)]);
    expected.sort_unstable();
    assert_eq!(map.to_vec(), expected);
    assert_eq!(map.stm_stats().since(&before).total_aborts(), 0);
    map.check_invariants()
        .expect("invariants after the composed body");
}

/// (i) A composed transaction's cost grows linearly with its writes.  It
/// re-reads and re-writes cells it wrote long before (the population shard,
/// and the tail's `pred` links on every ascending insert), and registers
/// every fresh node's owner with the attempt, so a write log searched end
/// to end on each read-after-write, or an owner list grown at its head,
/// makes the body quadratic.  Timed as a ratio, so the box's speed cancels
/// out: 8× the inserts should take ~8× as long, where a quadratic body
/// takes ~64×.
#[test]
fn one_transaction_scales_linearly_with_its_inserts() {
    const SMALL: u64 = 2_000;
    let time = |keys: u64| {
        let map: SkipHash<u64, u64> = SkipHashBuilder::new().buckets(16_381).build();
        let started = std::time::Instant::now();
        map.transact(|v| {
            for key in 0..keys {
                assert!(v.insert(key, key)?);
            }
            Ok(())
        });
        let took = started.elapsed();
        assert_eq!(map.len(), keys as usize);
        took
    };
    // The fastest of three each, taken in turn, so a stall elsewhere on the
    // box slows at most some timings of each size.
    let (small, large) = (0..3)
        .map(|_| (time(SMALL), time(8 * SMALL)))
        .reduce(|(s, l), (s2, l2)| (s.min(s2), l.min(l2)))
        .expect("three rounds");
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 24.0,
        "8x the inserts took {ratio:.1}x as long ({small:?} -> {large:?}): quadratic"
    );
}
