//! Hot-path allocation discipline regression tests.
//!
//! The STM's steady-state commit path is supposed to be allocation-free:
//! transaction scratch is pooled per thread, the write log is unboxed,
//! word-sized values live in their cells and wider payloads and node blocks
//! come from the block recycler (`stm::arena`), and the epoch shim recycles
//! its sealed bags.  These tests install a counting global
//! allocator and prove it, so a future change that sneaks a `Box` or a fresh
//! `Vec` back onto the hot path fails CI instead of quietly regressing
//! throughput.  The last two sections bound what a *cold* recycler and an
//! empty hash index may ask of the allocator: fresh blocks are carved from
//! chunks, never minted one by one, and buckets cost nothing apiece.
//!
//! Everything runs in ONE `#[test]` so no concurrent test thread can
//! attribute its allocations to the measured windows.

use skiphash_stm::sync::{AtomicU64, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

use crossbeam_epoch as epoch;
use skiphash::{SkipHash, SkipHashBuilder, TxHashMap};
use skiphash_stm::{Stm, TCell};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run `body` and return how many global-allocator hits it performed.
fn count_allocs(body: impl FnOnce()) -> u64 {
    let before = allocations();
    body();
    allocations() - before
}

/// Take three measured windows (each call of `window` returns one window's
/// global-allocator hits) and require the steady state to be clean: at least
/// two windows with exactly zero.
///
/// One window may be dirty because the counter is process-wide and some
/// costs are once-ever rather than per-operation: the epoch returns retired
/// blocks in batches, so a window is phase-sensitive; a rare tall tower's
/// size class may see its first chunk minted; the test harness's own thread
/// allocates while it waits.  A per-operation allocation dirties all three.
fn assert_steady_state_is_allocation_free(what: &str, mut window: impl FnMut() -> u64) {
    let measured: Vec<u64> = (0..3).map(|_| window()).collect();
    assert!(
        measured.iter().filter(|&&allocs| allocs == 0).count() >= 2,
        "steady-state {what} must be allocation-free \
         (allocations per window: {measured:?})"
    );
}

#[test]
fn steady_state_hot_paths_do_not_touch_the_global_allocator() {
    // ---- 0. Word-sized values: ZERO allocations, and no payload either.
    //
    // A `u64` is the cell's data word: a write swaps the word, and there is
    // no payload to allocate, recycle or retire — so nothing to warm beyond
    // the one transaction that leases this thread's scratch.
    let word_stm = Stm::new();
    let words: Vec<TCell<u64>> = (0..8).map(TCell::new).collect();
    let word_write8 = || {
        word_stm.run(|tx| {
            for cell in &words {
                let v = cell.read(tx)?;
                cell.write(tx, v + 1)?;
            }
            Ok(())
        });
    };
    word_write8();
    assert_steady_state_is_allocation_free("word-sized read-modify-writes", || {
        count_allocs(|| {
            for _ in 0..5_000 {
                word_write8();
            }
        })
    });
    assert_eq!(words[0].load_atomic(), 15_001);
    assert_eq!(
        word_stm.stats().slab_recycle_hits,
        0,
        "a word-sized value never reaches the recycler"
    );

    // ---- 1. The canonical read-modify-write transaction: ZERO allocations.
    //
    // The value is wider than a word, so every write installs a payload:
    // after warmup the scratch pool holds the transaction buffers, the
    // recycler's magazines hold enough payload blocks to cover the epoch's
    // in-flight window, and the epoch's bag pool covers the seal/collect
    // cycle.
    let stm = Stm::new();
    let cell = TCell::new([0u64; 2]);
    let rmw = |stm: &Stm, cell: &TCell<[u64; 2]>| {
        stm.run(|tx| {
            let [v, _] = cell.read(tx)?;
            cell.write(tx, [v + 1; 2])
        });
    };
    for _ in 0..20_000 {
        rmw(&stm, &cell);
    }
    assert_steady_state_is_allocation_free("read-modify-write transactions", || {
        count_allocs(|| {
            for _ in 0..10_000 {
                rmw(&stm, &cell);
            }
        })
    });
    assert!(
        stm.stats().slab_recycle_hits > 0,
        "the recycler must be serving the write path"
    );
    assert!(
        stm.stats().validation_skipped_commits > 0,
        "the sampled clock's no-validation fast path must be firing"
    );

    // ---- 2. Write-only transactions over several cells: still zero.
    let cells: Vec<TCell<[u64; 2]>> = (0..8).map(|i| TCell::new([i; 2])).collect();
    let write8 = |stm: &Stm, cells: &[TCell<[u64; 2]>]| {
        stm.run(|tx| {
            for cell in cells {
                cell.write(tx, [7; 2])?;
            }
            Ok(())
        });
    };
    for _ in 0..20_000 {
        write8(&stm, &cells);
    }
    assert_steady_state_is_allocation_free("multi-cell write transactions", || {
        count_allocs(|| {
            for _ in 0..5_000 {
                write8(&stm, &cells);
            }
        })
    });

    // ---- 3. End-to-end skip hash insert/remove churn: ZERO allocations.
    //
    // Node blocks — header, the value and the tower inline — are
    // height-classed arena blocks recycled through the epoch, and the hash
    // index is link words in the buckets and the nodes, so a steady-state
    // insert/remove pair must not touch the global allocator at all.  Nor
    // may it take a payload block: a `u64` value is its cell's data word, and
    // the range query coordinator's `Vec` cells are written only while a
    // slow-path range query is in flight, which none is here.
    //
    // Windows are assessed like the RMW section: tower heights are sampled
    // geometrically, so a rare tall-tower *size class* may see its very first
    // chunk minted inside a measured window (a once-ever event per class, not
    // a leak).  Requiring 2 of 3 windows to be exactly zero admits that
    // one-off while still failing on any per-pair allocation that grows back.
    // Steady state is defined by warm pools, so warm them deterministically
    // (a production service does the same at startup): tower heights are
    // sampled geometrically at run time, so cycle blocks of every height
    // class through the epoch once — otherwise a rare tall tower's
    // *first-ever* chunk can legitimately mint mid-measurement.
    for height in 1..=20 {
        let nodes: Vec<_> = (0..32)
            .map(|i| skiphash::node::Node::<u64, u64>::new(i, 0, height, 0, 0))
            .collect();
        drop(nodes);
    }
    for _ in 0..64 * 64 {
        drop(epoch::pin());
    }

    let map: SkipHash<u64, u64> = SkipHash::new();
    for key in 0..1_024u64 {
        map.insert(key, key);
    }
    let churn = |map: &SkipHash<u64, u64>| {
        map.insert(4_096, 1);
        map.remove(&4_096);
    };
    for _ in 0..8_000 {
        churn(&map);
    }
    let payloads_before = map.stm_stats().slab_recycle_hits;
    assert_steady_state_is_allocation_free("skip-hash insert/remove churn", || {
        count_allocs(|| {
            for _ in 0..2_000 {
                churn(&map);
            }
        })
    });
    let stats = map.stm_stats();
    assert!(
        stats.node_recycle_hits > 0,
        "the arena must be serving node blocks from recycled memory"
    );
    assert_eq!(
        stats.slab_recycle_hits, payloads_before,
        "a u64 insert/remove pair must take no payload block"
    );

    // ---- 3b. Read-only attempts: a get allocates nothing, and a fast-path
    // range allocates its result and nothing more.
    //
    // Both run in read-only mode and keep no read set.  The range's result
    // `Vec` grows by doubling, so its own calls are priced by building the
    // same `Vec` outside the map; every call beyond that is machinery.
    let gets = |map: &SkipHash<u64, u64>| {
        for key in (0..1_024u64).step_by(7) {
            assert_eq!(map.get(&key), Some(key));
        }
        assert_eq!(map.get(&4_096), None);
    };
    for _ in 0..200 {
        gets(&map);
    }
    assert_steady_state_is_allocation_free("read-only gets", || {
        count_allocs(|| {
            for _ in 0..500 {
                gets(&map);
            }
        })
    });
    let result_allocs = count_allocs(|| {
        let mut pairs = Vec::new();
        for key in 100..164u64 {
            pairs.push((key, key));
        }
        std::hint::black_box(pairs);
    });
    let range64 = |map: &SkipHash<u64, u64>| {
        let range = map.range_attempt_fast(100..164u64);
        assert_eq!(range.map(|pairs| pairs.len()), Some(64));
    };
    for _ in 0..200 {
        range64(&map);
    }
    assert_steady_state_is_allocation_free("read-only fast-path ranges", || {
        count_allocs(|| {
            for _ in 0..500 {
                range64(&map);
            }
        }) - 500 * result_allocs
    });
    assert_eq!(map.stm_stats().read_only_upgrades, 0);

    // ---- 3c. A list judged too large for the cache is walked with
    // interleaved cursors, which stage handles in buffers their thread
    // reuses: a fast-path range and a pinned range over it allocate their
    // result and nothing more.  Six levels make its ~32 full-height nodes
    // count as the tall nodes of a large list.
    let wide: SkipHash<u64, u64> = SkipHashBuilder::new().max_level(6).build();
    for key in 0..1_024u64 {
        wide.insert(key, key);
    }
    let wide_snap = wide.snapshot();
    let wide_ranges = |map: &SkipHash<u64, u64>, snap: &skiphash::Snapshot<u64, u64>| {
        let range = map.range_attempt_fast(100..164u64);
        assert_eq!(range.map(|pairs| pairs.len()), Some(64));
        assert_eq!(snap.range(100..164u64).len(), 64);
    };
    for _ in 0..200 {
        wide_ranges(&wide, &wide_snap);
    }
    assert_steady_state_is_allocation_free("interleaved ranges", || {
        count_allocs(|| {
            for _ in 0..500 {
                wide_ranges(&wide, &wide_snap);
            }
        }) - 1_000 * result_allocs
    });
    drop(wide_snap);

    // ---- 4. Pinned snapshot reads: ZERO allocations.
    //
    // A pinned read resolves each cell either against its current payload
    // (a validated in-place borrow) or against the history side table (a
    // lookup under a shard lock) — neither path clones into fresh heap
    // memory for `Copy` values, and no transaction machinery is involved at
    // all.  Churn *between* the measured windows keeps displacing payloads
    // the snapshot needs, so the windows exercise the history path (the
    // commit side pays the preservation cost, outside the windows), and the
    // population sum below always resolves post-pin shard bumps through it.
    let snap = map.snapshot();
    for _ in 0..500 {
        churn(&map);
    }
    let pinned_reads = |snap: &skiphash::Snapshot<u64, u64>| {
        assert_eq!(snap.get(&7), Some(7));
        assert_eq!(snap.get(&4_096), None);
        assert_eq!(snap.len(), 1_024);
    };
    for _ in 0..4_000 {
        pinned_reads(&snap);
    }
    assert_steady_state_is_allocation_free("pinned snapshot reads", || {
        let allocs = count_allocs(|| {
            for _ in 0..2_000 {
                pinned_reads(&snap);
            }
        });
        for _ in 0..200 {
            churn(&map);
        }
        allocs
    });
    drop(snap);

    // ---- 5. A cold recycler mints by the chunk, not by the block.
    //
    // Fresh keys need fresh memory: per key a node block.  The recycler
    // carves them from 32 KiB chunks, so the populate reaches the global
    // allocator 285 times for 50,000 keys (Vec growth in the magazines and
    // pools included), where one `alloc` per block made 2.2 calls per key
    // (110,087).
    let fresh: SkipHash<u64, u64> = SkipHash::new();
    let populate = count_allocs(|| {
        for key in 0..50_000u64 {
            fresh.insert(key, key);
        }
    });
    assert!(
        populate < 400,
        "50,000 fresh keys must not cost an allocator call per block ({populate} calls)"
    );

    // ---- 6. An empty hash index is its bucket array and nothing else: a
    // bucket is one link word in its cell.
    let buckets = count_allocs(|| drop(TxHashMap::<u64, u64>::new(65_536)));
    assert!(
        buckets <= 1,
        "65,536 buckets must not cost an allocator call per bucket ({buckets} calls)"
    );
}
