//! The block recycler: every block the STM and the structures built on it
//! allocate per operation — a wide [`crate::TCell`] payload, a skip-hash node
//! block — comes from here, and none of them reaches the global allocator in
//! steady state.
//!
//! Callers describe a block by `(size, align)` and get back anonymous memory
//! of the smallest size class that fits both.  The module knows nothing about
//! *what* lives in a block; the typed glue (payloads in the private `slab`
//! module, node layout in the `skiphash` crate) lives with the client.
//!
//! # Where a block comes from
//!
//! 1. the calling thread's **magazine** for the class (a `Vec` of block
//!    addresses, LIFO);
//! 2. the class's mutex-protected **global pool**, half a magazine at a time;
//! 3. the thread's **chunk** for the class: a bump cursor over a
//!    cache-line-aligned region of `CHUNK_BYTES`, minted from the global
//!    allocator only when the previous chunk is spent.
//!
//! A free pushes onto the magazine; a full magazine spills its upper half to
//! the pool, and a thread's exit pools its magazines and the uncarved tails
//! of its chunks.  Chunks are never returned to the operating system, so
//! pooled memory is bounded by peak live blocks plus at most one partly
//! carved chunk per thread per class.
//!
//! Blocks sit back to back inside a chunk, so a block's address is a multiple
//! of the largest power of two dividing its class size, capped at a cache
//! line.  Every class from 128 bytes up is a whole number of lines: a block
//! that asks for line alignment gets it without a `memalign` of its own.
//! Nothing separates neighbours — no header, no redzone; an overflow past a
//! class size lands in another live block (see `docs/VERIFICATION.md`).
//!
//! # Contract
//!
//! [`alloc_raw`] and [`free_raw`] must be called with the **same**
//! `(size, align)` pair for a given block.  The class — or the
//! global-allocator fallback for oversized, over-aligned and zero-sized
//! requests — is a pure function of that pair, so both sides always agree
//! about a pointer's provenance and blocks never need a header.
//!
//! # Lifetime rule
//!
//! `free_raw` recycles immediately.  A block that was ever reachable by
//! concurrent readers must therefore be retired **through the epoch** (the
//! shim's `defer_with`, with reclamation glue that ends in `free_raw`), so it
//! re-enters a magazine only after every thread pinned at retirement time has
//! unpinned.  Blocks are process-global for the same reason: a retired block
//! sits in an epoch bag that can outlive the cell, the `Stm` and the thread
//! that produced it.
//!
//! # Recycle counters
//!
//! A block popped from a magazine counts as a recycle hit of the caller's
//! [`BlockKind`]; [`crate::StatsSnapshot`] reports the two process-wide
//! totals.  A hit is counted in the thread-local the allocation already
//! holds and folded into the totals in batches — after `HIT_BATCH` hits,
//! whenever the thread takes a pool lock anyway, at thread exit, and for the
//! calling thread whenever it reads a total — so counting never puts a shared
//! cache line on the allocation path.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
// FACADE-EXEMPT: allocator internals run inside real `Mutex` critical
// sections and epoch callbacks; `stm::sync`'s module docs name this module
// as deliberately uninstrumented (schedule-space blowup + parking hazard).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Block sizes, one free list per class.  Consecutive classes differ by at
/// most 50%: a skip-hash node block grows by one `Level` (two cells) per
/// tower height, and coarser classes would strand more of a block's tail.
const CLASS_SIZES: [usize; 16] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];
const NUM_CLASSES: usize = CLASS_SIZES.len();

/// The strictest alignment a pooled block can have (one cache line, which is
/// what makes a node block's "scan-hot fields in the first line" rule mean an
/// actual line — docs/PERF.md); stricter requests use the global allocator.
const MAX_ALIGN: usize = 64;

/// Magazine length at which the upper half is spilled to the global pool;
/// half of it is also what a refill takes.
const MAGAZINE_CAP: usize = 64;

/// Bytes per chunk, rounded down to a whole number of blocks (eight of the
/// largest class).
const CHUNK_BYTES: usize = 32 * 1024;

/// Recycle hits a thread may hold back before folding them into the totals.
const HIT_BATCH: u64 = 64;

/// What a block is for — which of the two recycle counters a hit moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// The payload of a [`crate::TCell`] whose value is wider than a word.
    Payload,
    /// A skip-hash node block.
    Node,
}

impl BlockKind {
    /// Every kind, in counter-index order (`kind as usize`).
    pub const ALL: [BlockKind; 2] = [BlockKind::Payload, BlockKind::Node];
}

/// One counter per [`BlockKind`], indexed by `kind as usize`.
type PerKind<T> = [T; BlockKind::ALL.len()];

/// The alignment every block of `class` has: blocks are carved back to back
/// from a `MAX_ALIGN`-aligned chunk, so it is the largest power of two that
/// divides the class size, capped there.
const fn class_align(class: usize) -> usize {
    let size = CLASS_SIZES[class];
    let pow2 = size & size.wrapping_neg();
    if pow2 < MAX_ALIGN {
        pow2
    } else {
        MAX_ALIGN
    }
}

/// The smallest class that is big enough and aligned enough for the request,
/// or `None` when it must use the global allocator (zero-sized, oversized or
/// over-aligned).  A pure function of the pair, so alloc and free always
/// agree.
pub(crate) const fn class_of(size: usize, align: usize) -> Option<usize> {
    let mut class = 0;
    while size > 0 && class < NUM_CLASSES {
        if size <= CLASS_SIZES[class] && align <= class_align(class) {
            return Some(class);
        }
        class += 1;
    }
    None
}

/// Global overflow pools, one per class; block addresses stored as `usize`
/// so the `static` is trivially `Sync`.
static GLOBAL_POOLS: [Mutex<Vec<usize>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

/// Process-wide recycle hits.
static RECYCLE_HITS: PerKind<AtomicU64> = [const { AtomicU64::new(0) }; BlockKind::ALL.len()];

fn lock_pool(class: usize) -> MutexGuard<'static, Vec<usize>> {
    // A pool is a list of free blocks, valid after every push and pop, so a
    // panic elsewhere under the lock leaves nothing to repair.
    GLOBAL_POOLS[class]
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One class's share of a thread's state: the magazine, and the uncarved
/// rest `[cursor, end)` of the chunk the thread is carving.
struct ClassLocal {
    magazine: Vec<usize>,
    cursor: usize,
    end: usize,
}

/// Per-thread recycler state; pooled on thread exit.
struct Local {
    classes: [ClassLocal; NUM_CLASSES],
    /// Recycle hits this thread has counted.
    hits: PerKind<u64>,
    /// How many of `hits` the process-wide totals already hold.
    folded: PerKind<u64>,
}

impl Local {
    const fn new() -> Self {
        const EMPTY: ClassLocal = ClassLocal {
            magazine: Vec::new(),
            cursor: 0,
            end: 0,
        };
        Self {
            classes: [EMPTY; NUM_CLASSES],
            hits: [0; BlockKind::ALL.len()],
            folded: [0; BlockKind::ALL.len()],
        }
    }

    fn fold_hits(&mut self) {
        for (kind, total) in RECYCLE_HITS.iter().enumerate() {
            let unfolded = self.hits[kind] - self.folded[kind];
            if unfolded > 0 {
                total.fetch_add(unfolded, Ordering::Relaxed);
                self.folded[kind] = self.hits[kind];
            }
        }
    }

    fn alloc(&mut self, class: usize, kind: BlockKind) -> *mut u8 {
        if self.classes[class].magazine.is_empty() {
            let mut pool = lock_pool(class);
            let keep = pool.len().saturating_sub(MAGAZINE_CAP / 2);
            self.classes[class].magazine.extend(pool.drain(keep..));
            drop(pool);
            self.fold_hits();
        }
        let local = &mut self.classes[class];
        if let Some(addr) = local.magazine.pop() {
            let kind = kind as usize;
            self.hits[kind] += 1;
            if self.hits[kind] - self.folded[kind] >= HIT_BATCH {
                self.fold_hits();
            }
            return addr as *mut u8;
        }
        let size = CLASS_SIZES[class];
        if local.cursor == local.end {
            let bytes = CHUNK_BYTES / size * size;
            let chunk = Layout::from_size_align(bytes, MAX_ALIGN).expect("valid chunk layout");
            local.cursor = mint(chunk) as usize;
            local.end = local.cursor + bytes;
        }
        let block = local.cursor;
        local.cursor += size;
        block as *mut u8
    }

    fn free(&mut self, class: usize, addr: usize) {
        let magazine = &mut self.classes[class].magazine;
        magazine.push(addr);
        if magazine.len() >= MAGAZINE_CAP {
            lock_pool(class).extend(magazine.drain(MAGAZINE_CAP / 2..));
            self.fold_hits();
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        for (class, local) in self.classes.iter_mut().enumerate() {
            if local.magazine.is_empty() && local.cursor == local.end {
                continue;
            }
            let mut pool = lock_pool(class);
            pool.append(&mut local.magazine);
            pool.extend((local.cursor..local.end).step_by(CLASS_SIZES[class]));
        }
        self.fold_hits();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// Process-wide total of `kind` blocks served from recycled memory.  Folds
/// the calling thread's own unfolded hits in first, so a thread always sees
/// its own allocations in the total.
pub fn recycle_hits(kind: BlockKind) -> u64 {
    // Err: the thread-local is gone, and folded itself on the way out.
    let _ = LOCAL.try_with(|local| local.borrow_mut().fold_hits());
    RECYCLE_HITS[kind as usize].load(Ordering::Relaxed)
}

/// The calling thread's own recycle hits of `kind`: a count no other thread
/// can move, for tests that run beside other tests.
#[cfg(test)]
pub(crate) fn thread_recycle_hits(kind: BlockKind) -> u64 {
    LOCAL.with(|local| local.borrow().hits[kind as usize])
}

#[cold]
fn mint(layout: Layout) -> *mut u8 {
    // SAFETY: every caller passes a non-zero-size layout (chunks and classes
    // are non-empty; the fallback rounds a zero size up to one byte).
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    ptr
}

/// The global-allocator layout of a request the pools do not serve.
fn fallback_layout(size: usize, align: usize) -> Layout {
    Layout::from_size_align(size.max(1), align).expect("valid fallback layout")
}

/// Allocate a block of at least `size` bytes aligned to `align`, counting a
/// recycle hit of `kind` when it is served from recycled memory.
///
/// Free with [`free_raw`] and the **same** `(size, align)` pair.
///
/// # Panics
///
/// Panics when the fallback path cannot form a valid `Layout` from the
/// request — `align` not a power of two, or `size` overflowing when rounded
/// up to `align`.  Pooled requests never panic, and zero-size fallback
/// requests are served as one byte rather than rejected.
pub fn alloc_raw(size: usize, align: usize, kind: BlockKind) -> *mut u8 {
    let Some(class) = class_of(size, align) else {
        return mint(fallback_layout(size, align));
    };
    LOCAL
        .try_with(|local| local.borrow_mut().alloc(class, kind))
        // Thread-local teardown: go straight to the global pool, and to the
        // global allocator for one block of the class when it is empty.
        .unwrap_or_else(|_| match lock_pool(class).pop() {
            Some(addr) => {
                RECYCLE_HITS[kind as usize].fetch_add(1, Ordering::Relaxed);
                addr as *mut u8
            }
            None => {
                let block = Layout::from_size_align(CLASS_SIZES[class], class_align(class));
                mint(block.expect("valid class layout"))
            }
        })
}

/// Return a block obtained from [`alloc_raw`] with the same `(size, align)`.
///
/// Pooled blocks go to the calling thread's magazine (overflow drains to the
/// global pool in a batch); fallback blocks go back to the global allocator.
///
/// # Safety
///
/// `ptr` must have come from `alloc_raw(size, align, _)` with exactly these
/// arguments, the caller must have exclusive access to the block, and the
/// block must not be used afterwards.  If the block was ever visible to
/// concurrent readers, the call must be sequenced after their quiescence
/// (epoch retirement — see the module docs).
pub unsafe fn free_raw(ptr: *mut u8, size: usize, align: usize) {
    let Some(class) = class_of(size, align) else {
        // SAFETY: per the contract, `ptr` came from `alloc_raw`'s fallback
        // path with this exact layout.
        unsafe { dealloc(ptr, fallback_layout(size, align)) };
        return;
    };
    let addr = ptr as usize;
    if LOCAL
        .try_with(|local| local.borrow_mut().free(class, addr))
        .is_err()
    {
        // Thread-local teardown.
        lock_pool(class).push(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BlockKind::{Node, Payload};

    /// The tests below assert on what a global pool holds; they take turns.
    /// (Tests of other modules allocate too, but none uses a class this
    /// module's tests depend on being undisturbed.)
    static POOLS: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        POOLS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Every `(size, align)` the sweeps probe: exhaustive on native runs;
    /// Miri strides the sizes to keep the interpreted run fast while still
    /// probing every class boundary region.
    fn requests() -> impl Iterator<Item = (usize, usize)> {
        let step = if cfg!(miri) { 7 } else { 1 };
        (1..=4096usize)
            .step_by(step)
            .flat_map(|size| [1, 2, 4, 8, 16, 32, 64].map(|align| (size, align)))
    }

    /// `(class, smallest size it serves at align 1, full size, alignment)`.
    fn classes() -> impl Iterator<Item = (usize, usize, usize, usize)> {
        (0..NUM_CLASSES).map(|class| {
            let smallest = if class == 0 {
                1
            } else {
                CLASS_SIZES[class - 1] + 1
            };
            (class, smallest, CLASS_SIZES[class], class_align(class))
        })
    }

    #[test]
    fn classes_cover_sizes_and_reject_extremes() {
        let served = |size, align| class_of(size, align).map(|class| CLASS_SIZES[class]);
        assert_eq!(served(1, 1), Some(16));
        assert_eq!(served(4096, 64), Some(4096));
        assert_eq!(served(48, 16), Some(48));
        assert_eq!(served(48, 64), Some(64), "a 48-byte block is 16-aligned");
        assert_eq!(served(96, 64), Some(128), "a 96-byte block is 32-aligned");
        assert_eq!(served(4097, 8), None, "oversized blocks fall back");
        assert_eq!(served(0, 8), None, "zero-size requests fall back");
        assert_eq!(served(64, 128), None, "over-aligned blocks fall back");
        for (size, align) in requests() {
            let class = class_of(size, align).expect("covered");
            assert!(CLASS_SIZES[class] >= size && class_align(class) >= align);
            assert!(
                (0..class).all(|below| CLASS_SIZES[below] < size || class_align(below) < align),
                "({size}, {align}) fits a class below its class {class}"
            );
        }
        for (class, _, size, align) in classes() {
            assert!(align.is_power_of_two() && size % align == 0);
            assert!(
                size < 128 || align == MAX_ALIGN,
                "whole cache lines from 128 B"
            );
            assert!(
                CHUNK_BYTES / size >= 8,
                "a chunk of class {class} is 8+ blocks"
            );
        }
    }

    #[test]
    fn blocks_are_aligned() {
        let _serial = serial();
        for (_, smallest, size, align) in classes() {
            // Two blocks, so at least one is not the first of its chunk.
            let blocks = [alloc_raw(size, align, Node), alloc_raw(smallest, 1, Node)];
            for block in blocks {
                assert_eq!(block as usize % align, 0, "class of {size} bytes");
            }
            // SAFETY: each block came from `alloc_raw` with the same size/align and is not used again.
            unsafe {
                free_raw(blocks[0], size, align);
                free_raw(blocks[1], smallest, 1);
            }
        }
    }

    #[test]
    fn freed_blocks_are_recycled_lifo() {
        let _serial = serial();
        for (_, _, size, align) in classes() {
            let first = alloc_raw(size, align, Payload);
            // SAFETY: `first` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(first, size, align) };
            let before = thread_recycle_hits(Payload);
            let second = alloc_raw(size, align, Payload);
            assert_eq!(first, second, "LIFO magazine returns the same block");
            assert_eq!(thread_recycle_hits(Payload), before + 1, "and counts it");
            // SAFETY: `second` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(second, size, align) };
        }
    }

    #[test]
    fn different_sizes_in_one_class_share_blocks() {
        let _serial = serial();
        // The free/alloc pair must agree on the class through `(size, align)`
        // alone: the smallest and the largest request of a class trade blocks.
        for (_, smallest, size, align) in classes() {
            let a = alloc_raw(smallest, 1, Node);
            // SAFETY: `a` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(a, smallest, 1) };
            let b = alloc_raw(size, align, Node);
            assert_eq!(a, b, "{smallest} and {size} bytes share a class");
            // SAFETY: `b` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(b, size, align) };
        }
    }

    #[test]
    fn fallback_blocks_round_trip() {
        let before = thread_recycle_hits(Node);
        for (size, align) in [(8192, 8), (128, 128), (0, 8)] {
            let block = alloc_raw(size, align, Node);
            assert_eq!(block as usize % align, 0);
            // SAFETY: `block` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(block, size, align) };
            let again = alloc_raw(size, align, Node);
            // SAFETY: as above.
            unsafe { free_raw(again, size, align) };
        }
        assert_eq!(thread_recycle_hits(Node), before, "never recycled");
    }

    #[test]
    fn recycle_counters_accumulate() {
        let _serial = serial();
        let rounds = 3 * HIT_BATCH;
        for kind in BlockKind::ALL {
            // One block in the magazine, wherever it came from.
            let block = alloc_raw(200, 8, kind);
            // SAFETY: `block` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(block, 200, 8) };
            let (mine, total) = (thread_recycle_hits(kind), recycle_hits(kind));
            for _ in 0..rounds {
                let block = alloc_raw(200, 8, kind);
                // SAFETY: as above.
                unsafe { free_raw(block, 200, 8) };
            }
            assert_eq!(thread_recycle_hits(kind), mine + rounds);
            // Folded in batches on the way, without a pool lock to prompt it...
            LOCAL.with(|local| {
                let local = local.borrow();
                let unfolded = local.hits[kind as usize] - local.folded[kind as usize];
                assert!(unfolded < HIT_BATCH, "{unfolded} hits held back");
            });
            // ...and in full for a thread that reads the total.
            assert!(recycle_hits(kind) >= total + rounds);
        }
    }

    #[test]
    fn thread_exit_pools_the_magazine_and_the_uncarved_tail() {
        let _serial = serial();
        // A class only this module's tests allocate from (and they take
        // turns): ten blocks to the chunk.
        const SIZE: usize = 3072;
        // Empty this thread's magazine and the pool: allocate until a block
        // comes fresh off a chunk.
        let mut held = Vec::new();
        loop {
            let before = thread_recycle_hits(Node);
            held.push(alloc_raw(SIZE, 8, Node));
            if thread_recycle_hits(Node) == before {
                break;
            }
        }
        // The child finds nothing to recycle either, carves the first block
        // of a chunk of its own, frees that one block and exits.
        std::thread::spawn(|| {
            let block = alloc_raw(SIZE, 8, Node);
            // SAFETY: `block` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(block, SIZE, 8) };
        })
        .join()
        .expect("child exits cleanly");
        // Its one freed block and the nine it never carved are in the pool.
        let before = thread_recycle_hits(Node);
        held.extend((0..4).map(|_| alloc_raw(SIZE, 8, Node)));
        assert_eq!(
            thread_recycle_hits(Node),
            before + 4,
            "served from the child's chunk: more blocks than it ever freed"
        );
        for block in held {
            // SAFETY: `block` came from `alloc_raw` with the same size/align and is not used again.
            unsafe { free_raw(block, SIZE, 8) };
        }
    }
}
