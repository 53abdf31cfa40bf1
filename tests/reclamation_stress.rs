//! Stress tests for epoch-based reclamation under contention.
//!
//! The epoch shim's hot path is lock-free (per-thread pinned slots,
//! per-thread garbage bags sealed into a global stack on flush), which means
//! its failure modes are silent: a leak shows up as memory growth, a
//! double-free or premature free as corruption.  These tests make both loud
//! with drop-counting payloads — every allocation carries a counter bumped
//! exactly once on drop plus a flag that panics on a second drop — and are
//! the designated targets for the AddressSanitizer CI job.

use skiphash_stm::sync::{AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_epoch as epoch;
use skiphash::{RangePolicy, SkipHash, SkipHashBuilder};
use skiphash_stm::{Stm, TCell, TxAbort, TxResult};

/// A payload whose drop is observable and must happen exactly once.
struct Tracked {
    drops: Arc<AtomicUsize>,
    dropped: AtomicBool,
}

impl Tracked {
    fn new(drops: &Arc<AtomicUsize>) -> Self {
        Self {
            drops: Arc::clone(drops),
            dropped: AtomicBool::new(false),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        // SC: drop bookkeeping — strongest ordering so the double-free flag
        // and the counter agree across whichever thread runs the destructor.
        assert!(
            !self.dropped.swap(true, Ordering::SeqCst),
            "double free: payload dropped twice"
        );
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// The snapshot history table and its `live_history_entries` gauge are
/// process-wide.  A test that asserts on the gauge, and one that puts
/// entries in the table (removes under a pin), take this lock, so that the
/// one's entries cannot shift the other's counts mid-assertion.
fn history_lock() -> MutexGuard<'static, ()> {
    static HISTORY: Mutex<()> = Mutex::new(());
    HISTORY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Drive pins (and therefore collection cycles) until `drops` reaches
/// `expected` or the deadline passes.  Other tests in this process may hold
/// pins transiently, so collection timing is not deterministic.
fn drive_reclamation(drops: &AtomicUsize, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the drop counter in the same total order the destructors use.
    while drops.load(Ordering::SeqCst) < expected && Instant::now() < deadline {
        drop(epoch::pin());
    }
}

/// Reclamation glue for a word made by `Box::into_raw::<T>`.
///
/// # Safety
///
/// `ptr` came from `Box::into_raw::<T>` and is freed exactly once.
unsafe fn drop_box<T>(ptr: *mut ()) {
    // SAFETY: per the contract above.
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

fn boxed<T>(value: T) -> *mut T {
    Box::into_raw(Box::new(value))
}

/// Many threads swapping boxed payloads into shared pointers under
/// contention and retiring the displaced ones with `defer_with`: every
/// retired payload must be freed exactly once, and the live payloads must
/// survive until teardown.
#[test]
fn concurrent_defer_with_frees_everything_exactly_once() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 2_000;
    const CELLS: usize = 16;

    let drops = Arc::new(AtomicUsize::new(0));
    let cells: Arc<Vec<AtomicPtr<Tracked>>> = Arc::new(
        (0..CELLS)
            .map(|_| AtomicPtr::new(boxed(Tracked::new(&drops))))
            .collect(),
    );

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cells = Arc::clone(&cells);
            let drops = Arc::clone(&drops);
            thread::spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let guard = epoch::pin();
                    let cell = &cells[(t + i) % CELLS];
                    let old = cell.swap(boxed(Tracked::new(&drops)), Ordering::AcqRel);
                    // SAFETY: `old` became unreachable at the swap; any
                    // thread that loaded it is still pinned.
                    unsafe { guard.defer_with(old.cast(), drop_box::<Tracked>) };
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Every swap retired one payload; the CELLS current payloads are live.
    let retired = THREADS * OPS_PER_THREAD;
    drive_reclamation(&drops, retired);
    // SC: drop-balance assertions read the counters post-join.
    assert_eq!(
        drops.load(Ordering::SeqCst),
        retired,
        "leak: not every retired payload was freed"
    );

    // Tear down the survivors with exclusive access.
    for cell in cells.iter() {
        // SAFETY: every worker has joined, so nothing else reaches the
        // payload, and it came from `Box::into_raw`.
        drop(unsafe { Box::from_raw(cell.load(Ordering::Relaxed)) });
    }
    // SC: final drop-balance read.
    assert_eq!(drops.load(Ordering::SeqCst), retired + CELLS);
}

/// A value whose clones and drops are tallied, so any imbalance (leak or
/// double free) at the STM layer is observable as a nonzero live count.
#[derive(Debug)]
struct Balanced {
    live: Arc<AtomicIsize>,
    value: u64,
}

impl Balanced {
    fn new(live: &Arc<AtomicIsize>, value: u64) -> Self {
        // SC: live-count bookkeeping — strongest ordering so construction,
        // clone, and drop tallies agree across threads.
        live.fetch_add(1, Ordering::SeqCst);
        Self {
            live: Arc::clone(live),
            value,
        }
    }
}

impl Clone for Balanced {
    fn clone(&self) -> Self {
        // SC: live-count bookkeeping (see `Balanced::new`).
        self.live.fetch_add(1, Ordering::SeqCst);
        Self {
            live: Arc::clone(&self.live),
            value: self.value,
        }
    }
}

impl Drop for Balanced {
    fn drop(&mut self) {
        // SC: live-count bookkeeping (see `Balanced::new`).
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Writer transactions batching several retirements per commit (the `Txn`
/// bag) race readers; once everything quiesces and the cells are dropped,
/// every clone ever made must have been dropped exactly once.
#[test]
fn stm_commit_batches_balance_allocations_and_drops() {
    const THREADS: usize = 6;
    const TXNS_PER_THREAD: usize = 400;
    const CELLS: usize = 8;

    let live = Arc::new(AtomicIsize::new(0));
    let stm = Arc::new(Stm::new());
    let cells: Arc<Vec<TCell<Balanced>>> = Arc::new(
        (0..CELLS as u64)
            .map(|i| TCell::new(Balanced::new(&live, i)))
            .collect(),
    );

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = Arc::clone(&stm);
            let cells = Arc::clone(&cells);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    if (t + i) % 3 == 0 {
                        // Reader: clone a couple of values.
                        stm.run(|tx| {
                            let a = cells[i % CELLS].read(tx)?;
                            let b = cells[(i + 1) % CELLS].read(tx)?;
                            Ok(a.value + b.value)
                        });
                    } else {
                        // Writer: retire two old values per commit, one of
                        // them twice (exercising the same-cell overwrite
                        // branch of the transaction's retirement bag).
                        stm.run(|tx| {
                            let target = &cells[i % CELLS];
                            target.write(tx, Balanced::new(&live, i as u64))?;
                            target.write(tx, Balanced::new(&live, i as u64 + 1))?;
                            cells[(i + 2) % CELLS].write(tx, Balanced::new(&live, i as u64))?;
                            Ok(())
                        });
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Drop the cells (freeing the current values), then drive the epoch
    // until every retired clone has been reclaimed.
    drop(Arc::try_unwrap(cells).unwrap_or_else(|_| panic!("all worker handles joined")));
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "allocation/drop imbalance after quiescence (positive = leak, negative = double free)"
    );
}

/// Regression for the PR-1 use-after-free: objects allocated through
/// `Txn::alloc` must survive the rollback that follows an abort — the
/// aborting attempt releases the orecs *of the object's cells* after the
/// body's own `Arc` is gone — and must be released afterwards.
#[test]
fn txn_alloc_objects_survive_abort_and_rollback() {
    struct Widget {
        live: Arc<AtomicIsize>,
        a: TCell<u64>,
        b: TCell<u64>,
    }
    impl Drop for Widget {
        fn drop(&mut self) {
            // SC: live-count bookkeeping (see `Balanced::new`).
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    let stm = Stm::new();
    let live = Arc::new(AtomicIsize::new(0));

    for round in 0..50u64 {
        let outcome: Result<_, _> = stm.try_once(|tx| -> TxResult<()> {
            // SC: live-count bookkeeping (see `Balanced::new`).
            live.fetch_add(1, Ordering::SeqCst);
            let widget = tx.alloc(Widget {
                live: Arc::clone(&live),
                a: TCell::new(0),
                b: TCell::new(0),
            });
            widget.a.write(tx, round)?;
            widget.b.write(tx, round + 1)?;
            // Abort after writing the fresh object's cells: rollback must
            // release their orecs, which is only safe because `alloc`
            // registered the object with the transaction.
            Err(TxAbort::Explicit)
        });
        assert!(outcome.is_err());
    }

    // Aborted attempts must not leak the registered objects.
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "aborted Txn::alloc objects were never released"
    );
}

/// The slab under churn: contended writers recycle payload blocks across
/// threads (a block retired by one thread's commit is freed by whichever
/// thread drives collection and reused by *its* next write), aborted
/// attempts free their buffered payloads at once, non-transactional
/// `store_atomic` shares the same blocks, and an oversized payload exercises
/// the `Box` fallback side by side.  Every clone ever made must be dropped
/// exactly once — a double free into the slab free list would surface here
/// (and under ASan) as an imbalance or corruption.
#[test]
fn slab_recycling_balances_drops_under_cross_thread_churn() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 2_000;
    const CELLS: usize = 8;

    let live = Arc::new(AtomicIsize::new(0));
    let stm = Arc::new(Stm::new());
    // 24-byte `Balanced` payloads ride the slab; the 1 KiB array cells take
    // the Box fallback (ineligible size) in the same transactions.  The
    // `store_cells` are dedicated to non-transactional `store_atomic` /
    // `load_atomic` traffic (mixing those with transactional writes on one
    // cell is outside `store_atomic`'s init/teardown contract) — they churn
    // the same slab classes from a different entry point.
    let cells: Arc<Vec<TCell<Balanced>>> = Arc::new(
        (0..CELLS as u64)
            .map(|i| TCell::new(Balanced::new(&live, i)))
            .collect(),
    );
    let store_cells: Arc<Vec<TCell<Balanced>>> = Arc::new(
        (0..CELLS as u64)
            .map(|i| TCell::new(Balanced::new(&live, i)))
            .collect(),
    );
    let big: Arc<TCell<[u8; 1024]>> = Arc::new(TCell::new([0; 1024]));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = Arc::clone(&stm);
            let cells = Arc::clone(&cells);
            let store_cells = Arc::clone(&store_cells);
            let big = Arc::clone(&big);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    match (t + i) % 4 {
                        // Contended transactional writer (conflicts free the
                        // buffered payloads on the abort path).
                        0 | 1 => {
                            stm.run(|tx| {
                                let cell = &cells[(t + i) % CELLS];
                                let current = cell.read(tx)?;
                                cell.write(tx, Balanced::new(&live, current.value + 1))?;
                                big.write(tx, [i as u8; 1024])
                            });
                        }
                        // Non-transactional store sharing the same slab.
                        2 => {
                            store_cells[(t + i) % CELLS]
                                .store_atomic(Balanced::new(&live, i as u64));
                        }
                        // Reader cloning values out of recycled blocks.
                        _ => {
                            let value = store_cells[(t + i) % CELLS].load_atomic();
                            // SC: live-count bookkeeping read.
                            assert!(value.live.load(Ordering::SeqCst) > 0);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    assert!(
        stm.stats().slab_recycle_hits > 0,
        "the churn must actually recycle slab blocks"
    );

    drop(big);
    drop(Arc::try_unwrap(cells).unwrap_or_else(|_| panic!("all worker handles joined")));
    drop(Arc::try_unwrap(store_cells).unwrap_or_else(|_| panic!("all worker handles joined")));
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "allocation/drop imbalance after slab churn (positive = leak, negative = double free)"
    );
}

/// End-to-end churn through the skip hash: removals retire nodes through
/// the batched transaction bags while range queries hold pins; the map must
/// stay consistent throughout.  (Memory errors here are the ASan job's
/// concern.)
#[test]
fn skiphash_churn_under_concurrent_range_queries() {
    let map: Arc<SkipHash<u64, u64>> = Arc::new(
        SkipHash::<u64, u64>::builder()
            .range_policy(RangePolicy::TwoPath { tries: 3 })
            .build(),
    );
    for key in 0..512u64 {
        map.insert(key, key);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = (t * 997 + i * 13) % 1024;
                if i.is_multiple_of(2) {
                    map.insert(key, i);
                } else {
                    map.remove(&key);
                }
                i += 1;
            }
        }));
    }
    for _ in 0..200 {
        let snapshot: Vec<(u64, u64)> = map.range(0..=1023).collect();
        // Range results are sorted and duplicate-free.
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
    }
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().unwrap();
    }
    map.check_invariants().expect("invariants after churn");
}

/// Bounded custody: churn the map while N snapshots are live and watch the
/// history backlog.  The registry preserves at most one displaced payload
/// per cell per pin window — so the backlog must *plateau* well below the
/// number of displacements the churn performs — and dropping the last
/// snapshot must drain it entirely, rebalance every drop counter, and let
/// the node arena resume recycling.  A designated ASan target: the
/// snapshot reads resolve payloads out of the history table while the
/// writers that displaced them keep committing.
#[test]
fn snapshot_custody_plateaus_and_drains_after_last_drop() {
    let _history = history_lock();
    const WRITERS: u64 = 4;
    const KEYS_PER_WRITER: u64 = 64;
    const OPS_PER_WRITER: u64 = 2_000;
    const SNAPSHOTS: usize = 4;

    let live = Arc::new(AtomicIsize::new(0));
    let map: Arc<SkipHash<u64, Balanced>> = Arc::new(SkipHash::new());
    let universe = WRITERS * KEYS_PER_WRITER;
    for key in 0..universe {
        assert!(map.insert(key, Balanced::new(&live, key)));
    }

    let backlog_baseline = skiphash_stm::snapshot::live_history_entries();
    let snaps: Vec<_> = (0..SNAPSHOTS).map(|_| map.snapshot()).collect();

    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let map = Arc::clone(&map);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                // Each writer owns a disjoint key slice, so every take and
                // reinsert succeeds and keeps displacing payloads the
                // snapshots still need.
                let base = t * KEYS_PER_WRITER;
                for i in 0..OPS_PER_WRITER {
                    let key = base + (i % KEYS_PER_WRITER);
                    assert!(map.take(&key).is_some());
                    assert!(map.insert(key, Balanced::new(&live, i + 1_000_000)));
                }
            })
        })
        .collect();

    // Audit the pinned state while the storm runs: original values resolve
    // out of the history table, and the population is frozen at the pin.
    let mut max_backlog = 0usize;
    for round in 0..50u64 {
        let snap = &snaps[(round as usize) % SNAPSHOTS];
        let key = (round * 13) % universe;
        let value = snap.get(&key).expect("prefilled key visible at the pin");
        assert_eq!(value.value, key, "snapshot must see the pre-churn value");
        assert_eq!(snap.len() as u64, universe);
        max_backlog = max_backlog.max(skiphash_stm::snapshot::live_history_entries());
    }
    for handle in handles {
        handle.join().unwrap();
    }
    max_backlog = max_backlog.max(skiphash_stm::snapshot::live_history_entries());

    // Boundedness: the churn displaced payloads across ~8000 take+insert
    // pairs (each touching several cells), but custody holds at most one
    // entry per cell per pin window — nodes created after the pins
    // contribute nothing.  A leaky keep-everything policy would push the
    // backlog toward the displacement count; the plateau stays an order of
    // magnitude under it.
    let displacement_floor = (WRITERS * OPS_PER_WRITER * 2) as usize;
    assert!(
        max_backlog - backlog_baseline < displacement_floor / 2,
        "custody backlog {max_backlog} (baseline {backlog_baseline}) is not \
         bounded by the pin windows"
    );
    assert!(
        skiphash_stm::snapshot::live_history_entries() > backlog_baseline,
        "the churn must actually route displaced payloads into custody"
    );

    // Snapshots still replay their pinned state after the storm.
    for snap in &snaps {
        assert_eq!(snap.len() as u64, universe);
    }

    // Dropping the last snapshot releases custody synchronously: the
    // backlog gauge returns to baseline (writers are joined, so no racing
    // commit can repopulate it).
    drop(snaps);
    assert_eq!(
        skiphash_stm::snapshot::live_history_entries(),
        backlog_baseline,
        "history backlog must drain when the last snapshot drops"
    );

    // With custody released, continued churn recycles node blocks again (the
    // freed history payloads returned their node references).
    let stats_mid = map.stm_stats();
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let map = Arc::clone(&map);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                let base = t * KEYS_PER_WRITER;
                for i in 0..OPS_PER_WRITER {
                    let key = base + (i % KEYS_PER_WRITER);
                    assert!(map.take(&key).is_some());
                    assert!(map.insert(key, Balanced::new(&live, i + 2_000_000)));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let resumed = map.stm_stats().since(&stats_mid);
    assert!(
        resumed.node_recycle_hits > 0,
        "node recycling must resume once custody is released (saw {resumed})"
    );

    map.check_invariants()
        .expect("invariants after custody churn");

    // Teardown rebalances every drop counter: nothing the snapshots kept
    // alive may leak, and nothing may be freed twice.
    drop(map);
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "drop imbalance after snapshot custody churn (positive = leak, \
         negative = double free)"
    );
}

/// Cross-thread structural churn through the node arena: every node block
/// (header, hash link and inline tower) retired by one thread may be
/// recycled by another (whoever drives epoch collection).  Drop-counting
/// values prove the arena's reclamation glue runs exactly once per node —
/// a leak or double free shows up as a nonzero live count — and the recycle
/// counters prove the blocks actually came back through the pools rather
/// than the global allocator.  This is a designated ASan target; note that
/// recycling hides use-after-free *within* a reused block from ASan, which
/// is exactly why the drop balance is asserted here.
#[test]
fn node_arena_balances_drops_under_cross_thread_churn() {
    const THREADS: u64 = 6;
    const OPS_PER_THREAD: u64 = 2_000;

    let live = Arc::new(AtomicIsize::new(0));
    let map: Arc<SkipHash<u64, Balanced>> = Arc::new(SkipHash::new());
    let stats_before = map.stm_stats();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let map = Arc::clone(&map);
            let live = Arc::clone(&live);
            thread::spawn(move || {
                // Disjoint key ranges: every insert succeeds, so the
                // node-per-insert accounting below is exact.
                let base = t * 1_000_000;
                for i in 0..OPS_PER_THREAD {
                    let key = base + (i % 64);
                    map.insert(key, Balanced::new(&live, i));
                    if let Some(value) = map.take(&key) {
                        drop(value);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    map.check_invariants().expect("invariants after churn");
    let stats = map.stm_stats().since(&stats_before);
    assert!(
        stats.node_recycle_hits > 0,
        "cross-thread churn must serve node blocks from recycled arena memory \
         (saw {stats})"
    );

    // Tear the map down and drive collection until every Balanced the test
    // ever created has been dropped exactly once: node blocks hold values in
    // their cells, so a leaked (or double-freed) block breaks the balance.
    drop(map);
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "every value must be dropped exactly once after arena reclamation"
    );
}

/// The intrusive hash index under churn: with three buckets every key shares
/// a chain with a third of the others, so two writers inserting and removing
/// the same colliding keys unlink heads, middles and tails of chains that
/// readers are walking to keys that are never removed.  The readers must
/// always find those keys; afterwards the map must be consistent, and once
/// it drops every value must have been dropped exactly once — a cycle in the
/// hash links would leak the nodes on it, an unlink that gave a count back
/// twice would free one early.  `String` keys and values put heap memory
/// behind every node for the ASan job.
#[test]
fn hash_chains_stay_walkable_under_colliding_churn() {
    const STABLE: u64 = 24;
    const CHURNED: u64 = 48;
    const OPS_PER_WRITER: u64 = 4_000;

    let live = Arc::new(AtomicIsize::new(0));
    let map: Arc<SkipHash<String, (String, Balanced)>> =
        Arc::new(SkipHashBuilder::new().buckets(3).build());
    let value = |i: u64| (format!("value-{i}"), Balanced::new(&live, i));
    for i in 0..STABLE {
        assert!(map.insert(format!("stable-{i}"), value(i)));
    }

    let writers_done = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let map = Arc::clone(&map);
            let live = Arc::clone(&live);
            let writers_done = Arc::clone(&writers_done);
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    let key = format!("churned-{}", (i * 7 + w * 13) % CHURNED);
                    let value = (format!("value-{i}"), Balanced::new(&live, i));
                    if !map.insert(key.clone(), value) {
                        map.remove(&key);
                    }
                }
                // SC: completion flag read by the readers' loop condition.
                writers_done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let map = Arc::clone(&map);
            let writers_done = Arc::clone(&writers_done);
            thread::spawn(move || {
                let mut lookups = 0u64;
                // SC: see the writers' completion flag.
                while writers_done.load(Ordering::SeqCst) < 2 || lookups < STABLE {
                    let i = (lookups + r) % STABLE;
                    let key = format!("stable-{i}");
                    let (label, balanced) = map.get(&key).expect("stable keys are never removed");
                    assert_eq!(
                        (label.as_str(), balanced.value),
                        (format!("value-{i}").as_str(), i)
                    );
                    assert!(map.contains_key(&key));
                    lookups += 1;
                }
            })
        })
        .collect();
    for handle in writers.into_iter().chain(readers) {
        handle.join().unwrap();
    }

    map.check_invariants()
        .expect("invariants after colliding churn");
    drop(map);
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "drop imbalance after hash-chain churn (positive = leak, negative = double free)"
    );
}

/// Parks the first thread to clone a [`Gated`] value after [`Gate::arm`]
/// until the test releases it.  A slow-path range query clones the values
/// it collects, so parking one holds the query in flight: the window in
/// which a removal is deferred (left stitched, in the remover's buffer)
/// instead of unstitched.
struct Gate {
    armed: AtomicBool,
    entered: Barrier,
    released: Barrier,
}

impl Gate {
    fn arm(&self) {
        // SC: handed to whichever thread clones next.
        self.armed.store(true, Ordering::SeqCst);
    }
}

struct Gated {
    balanced: Balanced,
    gate: Arc<Gate>,
}

impl Clone for Gated {
    fn clone(&self) -> Self {
        // SC: exactly one clone per `arm` may park.
        if self.gate.armed.swap(false, Ordering::SeqCst) {
            self.gate.entered.wait();
            self.gate.released.wait();
        }
        Self {
            balanced: self.balanced.clone(),
            gate: Arc::clone(&self.gate),
        }
    }
}

/// Teardown frees every node once, whichever owner holds it.  Two adjacent
/// keys share the only bucket; one is removed while a slow-path range query
/// is in flight (deferred, so it stays stitched, its handle parked in the
/// remover's buffer, and the list still owns it), the other after the query
/// ends (unstitched at once, and retired at that commit, while its tower
/// keeps pointing at the deferred neighbour).  All four orders of insertion
/// and removal run; after each map drops, every value must have been dropped
/// exactly once: a node teardown missed would leak, one freed by both
/// teardown and a retirement would count twice.
#[test]
fn deferred_removals_in_one_chain_leave_no_cycle() {
    let live = Arc::new(AtomicIsize::new(0));
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        entered: Barrier::new(2),
        released: Barrier::new(2),
    });
    for (older, newer) in [(1u64, 2u64), (2, 1)] {
        for deferred in [older, newer] {
            let map: Arc<SkipHash<u64, Gated>> = Arc::new(
                SkipHashBuilder::new()
                    .buckets(1)
                    .range_policy(RangePolicy::SlowOnly)
                    .build(),
            );
            for key in [0, older, newer] {
                let value = Gated {
                    balanced: Balanced::new(&live, key),
                    gate: Arc::clone(&gate),
                };
                assert!(map.insert(key, value));
            }

            gate.arm();
            let query = {
                let map = Arc::clone(&map);
                thread::spawn(move || map.range(0..=0).count())
            };
            gate.entered.wait();
            assert!(map.remove(&deferred));
            gate.released.wait();
            assert_eq!(query.join().unwrap(), 1);
            assert!(map.remove(&(older + newer - deferred)));
            map.check_invariants()
                .expect("invariants after deferred removal");

            drop(map);
            let deadline = Instant::now() + Duration::from_secs(60);
            // SC: poll the live count in the same total order the tallies use.
            while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
                drop(epoch::pin());
            }
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "inserted {older} then {newer}, deferred {deferred}: removed \
                 nodes leaked (positive) or were freed twice (negative)"
            );
        }
    }
}

/// Node retirement under a snapshot pin.  With no slow-path range query in
/// flight, removing a key unstitches its node at once, and the unstitching
/// commit retires the node; the pinned version still reaches it, so the
/// commit must hand it to the pin's custody rather than the epoch.  No value
/// may drop while the snapshot lives, however far epoch collection runs, and
/// the snapshot must still read every pair; dropping it must free each node
/// exactly once.  This is the ASan job's use-after-free wall for node
/// retirement: a node freed under the pin would be read by `to_vec` after
/// its free.
#[test]
fn a_pinned_snapshot_keeps_unstitched_nodes_until_it_drops() {
    let _history = history_lock();
    const N: u64 = 512;
    let drops = Arc::new(AtomicUsize::new(0));
    let map: SkipHash<u64, (u64, Arc<Tracked>)> = SkipHash::new();
    for key in 0..N {
        assert!(map.insert(key, (key * 10, Arc::new(Tracked::new(&drops)))));
    }
    let snap = map.snapshot();
    for key in 0..N {
        assert!(map.remove(&key));
    }
    assert!(map.is_empty());
    assert_eq!(map.range_stats().slow_path_completions, 0);
    for _ in 0..16 * 4_096 {
        drop(epoch::pin());
    }
    // SC: poll the drop counter in the same total order the destructors use.
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "a node the pin reaches was freed"
    );
    let pairs: Vec<(u64, u64)> = snap
        .to_vec()
        .into_iter()
        .map(|(k, (v, _))| (k, v))
        .collect();
    assert_eq!(pairs, (0..N).map(|k| (k, k * 10)).collect::<Vec<_>>());

    drop(snap);
    drive_reclamation(&drops, N as usize);
    for _ in 0..4_096 {
        drop(epoch::pin());
    }
    // SC: as above.
    assert_eq!(drops.load(Ordering::SeqCst), N as usize);
}

/// An insert whose attempt aborts frees its fresh node at once: the node
/// was never published, so the rollback owns it.  Through a `TxView` and
/// through a standalone `TxHashMap`, each explicitly aborted attempt must
/// drop its value exactly once before the next attempt starts, the key must
/// be absent afterwards, and nothing may be left once the maps drop.
#[test]
fn an_aborted_insert_frees_its_fresh_node_once_per_attempt() {
    const ATTEMPTS: usize = 64;
    let live = Arc::new(AtomicIsize::new(0));
    let map: SkipHash<u64, Balanced> = SkipHash::new();
    let stm = Stm::new();
    let standalone: skiphash::TxHashMap<u64, Balanced> = skiphash::TxHashMap::new(8);
    assert!(map.insert(1, Balanced::new(&live, 1)));
    assert!(stm.run(|tx| standalone.insert(tx, 1, Balanced::new(&live, 1))));
    // SC: live-count bookkeeping (see `Balanced::new`).
    let before = live.load(Ordering::SeqCst);

    for attempt in 0..ATTEMPTS as u64 {
        let aborted = map.stm().try_once(|tx| -> TxResult<()> {
            assert!(map.view(tx).insert(7, Balanced::new(&live, attempt))?);
            Err(TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        // SC: as above.
        assert_eq!(
            live.load(Ordering::SeqCst),
            before,
            "view attempt {attempt}"
        );

        let aborted = stm.try_once(|tx| -> TxResult<()> {
            assert!(standalone.insert(tx, 7, Balanced::new(&live, attempt))?);
            Err(TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        // SC: as above.
        assert_eq!(live.load(Ordering::SeqCst), before, "map attempt {attempt}");
    }
    assert_eq!(map.get(&7).map(|v| v.value), None);
    assert_eq!(map.len(), 1);
    map.check_invariants()
        .expect("invariants after aborted inserts");
    assert!(stm.run(|tx| standalone.get(tx, &7)).is_none());
    assert_eq!(stm.run(|tx| standalone.len(tx)), 1);

    drop(map);
    drop(standalone);
    let deadline = Instant::now() + Duration::from_secs(60);
    // SC: poll the live count in the same total order the tallies use.
    while live.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
        drop(epoch::pin());
    }
    // SC: as above.
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "aborted inserts leaked or double-freed"
    );
}
