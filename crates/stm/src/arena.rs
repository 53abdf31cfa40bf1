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
//! 3. the thread's **chunk** for the class: a bump cursor over `CHUNK_BYTES`,
//!    carved when the previous chunk is spent from the one process-wide
//!    **region** being carved.  A region is `REGION_BYTES` (2 MiB), aligned
//!    to its size and advised to huge pages before its first touch; it is
//!    minted from the global allocator when the previous one is spent.
//!
//! A free pushes onto the magazine; a full magazine spills its upper half to
//! the pool, and a thread's exit pools its magazines and the uncarved tails
//! of its chunks.  Chunks and regions are never returned to the operating
//! system, so pooled memory is bounded by peak live blocks plus at most one
//! partly carved chunk per thread per class, and one partly carved region.
//!
//! Where the kernel takes the advice (Linux with transparent huge pages in
//! `madvise` or `always` mode), a region is one huge page, so a dependent
//! miss into a node block is not also a TLB miss.  A [`Table`] of a region or
//! more, such as the skip hash's bucket array, comes from the same advised
//! path.  Where the advice is refused or ignored, the same carving runs on
//! ordinary pages.
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
use std::ops::Deref;
use std::ptr::{self, NonNull};
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

/// Bytes per chunk, of which a class uses a whole number of blocks (eight
/// of the largest class).  A chunk per class per thread stays small: a
/// region-sized chunk would fault up to 2 MiB per class per thread.
const CHUNK_BYTES: usize = 32 * 1024;

/// Bytes per region, and its alignment: one huge page on x86-64 and on
/// aarch64 with 4 KiB base pages.  Holds a whole number of chunks.
const REGION_BYTES: usize = 2 * 1024 * 1024;
const _: () = assert!(REGION_BYTES.is_multiple_of(CHUNK_BYTES));

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
        if local.cursor == local.end {
            (local.cursor, local.end) = carve(class);
        }
        let block = local.cursor;
        local.cursor += CLASS_SIZES[class];
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

/// The region being carved into chunks: `[next, end)` is its uncarved rest.
struct Region {
    next: usize,
    end: usize,
}

static REGION: Mutex<Region> = Mutex::new(Region { next: 0, end: 0 });

/// A fresh chunk for `class`: the span `[start, end)` of the whole blocks it
/// holds, carved from the region, and the region from a fresh mint when it
/// is spent.
#[cold]
fn carve(class: usize) -> (usize, usize) {
    // A region is valid after every step, so a poisoned lock leaves nothing
    // to repair.
    let mut region = REGION
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if region.next == region.end {
        let start = mint_advised(region_layout(REGION_BYTES, MAX_ALIGN)) as usize;
        *region = Region {
            next: start,
            end: start + REGION_BYTES,
        };
    }
    let start = region.next;
    region.next += CHUNK_BYTES;
    let size = CLASS_SIZES[class];
    (start, start + CHUNK_BYTES / size * size)
}

/// Fresh memory from the global allocator: the one place the recycler, its
/// regions and its tables get memory from the system.
#[cold]
fn mint(layout: Layout) -> *mut u8 {
    // SAFETY: every caller passes a non-zero-size layout (regions are
    // non-empty, tables are checked, the fallback rounds a zero size up to
    // one byte).
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    ptr
}

/// The layout of `size` bytes on whole regions: rounded up to a multiple of
/// `REGION_BYTES` and aligned to a region, so that every huge page under it
/// is the layout's alone.
fn region_layout(size: usize, align: usize) -> Layout {
    let size = size
        .checked_next_multiple_of(REGION_BYTES)
        .expect("a region-rounded size fits the address space");
    Layout::from_size_align(size, align.max(REGION_BYTES)).expect("valid region layout")
}

/// [`mint`] a [`region_layout`], advised to huge pages before anything
/// touches it.  The advice is best effort: refused, or ignored with
/// transparent huge pages off, it leaves ordinary pages, which is all a
/// region is then.
fn mint_advised(layout: Layout) -> *mut u8 {
    let ptr = mint(layout);
    advise_huge_pages(ptr, layout.size());
    ptr
}

/// Ask the kernel to back `[ptr, ptr + len)` with transparent huge pages,
/// returning whether it took the advice (`madvise` returned 0).
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(ptr: *mut u8, len: usize) -> bool {
    use std::ffi::{c_int, c_void};
    /// `MADV_HUGEPAGE` in the kernel's generic `mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `[ptr, ptr + len)` is a whole allocation this module minted
    // and owns; the advice changes which pages back it, never what it holds
    // or whether it is mapped.
    unsafe { madvise(ptr.cast(), len, MADV_HUGEPAGE) == 0 }
}

/// Elsewhere there is no advice to give, and regions are ordinary memory.
#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_ptr: *mut u8, _len: usize) -> bool {
    false
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
        // Thread-local teardown: go straight to the global pool, and carve a
        // chunk into it when it is empty.
        .unwrap_or_else(|_| {
            // Popped first: the pool's lock is not held while a chunk is
            // carved into it.
            let pooled = lock_pool(class).pop();
            match pooled {
                Some(addr) => {
                    RECYCLE_HITS[kind as usize].fetch_add(1, Ordering::Relaxed);
                    addr as *mut u8
                }
                None => {
                    let (block, end) = carve(class);
                    let size = CLASS_SIZES[class];
                    lock_pool(class).extend((block + size..end).step_by(size));
                    block as *mut u8
                }
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

/// A fixed-length array on memory of its own that the recycler never
/// carves: a hash index's buckets.
///
/// A table of a region or more is whole regions, region-aligned and advised
/// to huge pages before its first touch, by the path regions are minted on.
/// A smaller table is allocated at its own size: a huge page backs only a
/// whole aligned region, so rounding it up would fault 2 MiB for a few KiB.
/// Either way the layout is a pure function of the length, and the drop
/// frees with the layout the table was built with.
pub struct Table<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: a table owns its elements as a `Box<[T]>` would: moving it to
// another thread moves them, and a shared table lends out only `&T`.
unsafe impl<T: Send> Send for Table<T> {}
// SAFETY: as above; `&Table<T>` gives out nothing but `&T`.
unsafe impl<T: Sync> Sync for Table<T> {}

impl<T> Table<T> {
    /// A table of `len` elements, the `i`-th built by `init(i)`.  A panic in
    /// `init` leaks what was built so far.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold no bytes (`len` zero or `T`
    /// zero-sized), or more than the address space.
    pub fn new(len: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let layout = Self::layout(len);
        let block = if layout.size() >= REGION_BYTES {
            mint_advised(layout)
        } else {
            mint(layout)
        };
        let ptr = NonNull::new(block.cast::<T>()).expect("mint never returns null");
        for i in 0..len {
            // SAFETY: the block holds `len` elements of `T` (`Self::layout`),
            // and element `i` is written once, here, before anything reads it.
            unsafe { ptr.as_ptr().add(i).write(init(i)) };
        }
        Self { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        let layout = Layout::array::<T>(len).expect("a table fits the address space");
        assert!(layout.size() > 0, "a table holds at least one byte");
        if layout.size() < REGION_BYTES {
            layout
        } else {
            region_layout(layout.size(), layout.align())
        }
    }
}

impl<T> Deref for Table<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `new` initialised all `len` elements, and only `drop`
        // ends them.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for Table<T> {
    fn drop(&mut self) {
        // SAFETY: the `len` elements are initialised and dropped once, here;
        // the block came from `mint` with `Self::layout(len)`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len));
            dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len));
        }
    }
}

impl<T> std::fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table").field("len", &self.len).finish()
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

    #[test]
    fn teardown_allocations_carve_a_chunk_into_the_pool() {
        let _serial = serial();
        // The class `thread_exit_pools_the_magazine_and_the_uncarved_tail`
        // uses, and only this module's tests allocate from.
        const SIZE: usize = 3072;
        const CLASS: usize = class_of(SIZE, 8).expect("pooled");
        /// Allocates, once the thread's recycler state is gone, every pooled
        /// block and one more, and sends back what it got.
        struct AtExit(std::sync::mpsc::Sender<(bool, Vec<usize>)>);
        impl Drop for AtExit {
            fn drop(&mut self) {
                let torn_down = LOCAL.try_with(|_| ()).is_err();
                let wanted = lock_pool(CLASS).len() + 1;
                let blocks = (0..wanted)
                    .map(|_| alloc_raw(SIZE, 8, Node) as usize)
                    .collect();
                let _ = self.0.send((torn_down, blocks));
            }
        }
        thread_local! {
            static AT_EXIT: RefCell<Option<AtExit>> = const { RefCell::new(None) };
        }
        let (send, receive) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            AT_EXIT.with(|at_exit| *at_exit.borrow_mut() = Some(AtExit(send)));
            // `LOCAL` comes to life after `AT_EXIT`, so it is torn down first.
            thread_recycle_hits(Node);
        })
        .join()
        .expect("child exits cleanly");
        let (torn_down, blocks) = receive.recv().expect("the destructor ran");
        assert!(torn_down, "the thread's recycler state was gone");
        // The pool ran dry, so the last block is the first of a fresh chunk,
        // and the rest of that chunk is pooled.
        let fresh = *blocks.last().expect("at least one block");
        assert_eq!(fresh % CHUNK_BYTES, 0, "{fresh:#x} starts a chunk");
        let mut pool = lock_pool(CLASS);
        for rest in (1..CHUNK_BYTES / SIZE).map(|i| fresh + i * SIZE) {
            assert!(pool.contains(&rest), "{rest:#x} is pooled");
        }
        // Returned as a teardown free returns them.
        pool.extend(blocks);
    }

    #[test]
    fn every_chunk_lies_inside_one_region() {
        // Enough chunks to spend a region or two, whatever other tests carve
        // meanwhile.  Carving touches nothing, so the chunks cost no memory.
        let chunks = if cfg!(miri) {
            80
        } else {
            3 * REGION_BYTES / CHUNK_BYTES
        };
        for round in 0..chunks {
            let class = round % NUM_CLASSES;
            let (start, end) = carve(class);
            let size = CLASS_SIZES[class];
            assert_eq!(start % CHUNK_BYTES, 0, "chunks sit back to back");
            assert_eq!((end - start) % size, 0, "a chunk is whole blocks");
            assert!(end - start > CHUNK_BYTES - size, "and as many as fit");
            assert_eq!(
                start / REGION_BYTES,
                (end - 1) / REGION_BYTES,
                "chunk {start:#x}..{end:#x} crosses a region boundary"
            );
        }
    }

    #[test]
    fn a_table_round_trips() {
        // Below a region a table is allocated at its own size; from a region
        // up it is whole regions, minted and advised like the chunks' ones.
        let drops = std::sync::Arc::new(());
        let small = Table::new(1_000, |i| (i, std::sync::Arc::clone(&drops)));
        assert_eq!(std::sync::Arc::strong_count(&drops), 1_001);
        assert!(small.iter().enumerate().all(|(i, (at, _))| *at == i));
        drop(small);
        assert_eq!(std::sync::Arc::strong_count(&drops), 1, "each dropped once");

        let len = REGION_BYTES / std::mem::size_of::<u64>() + 3;
        let large = Table::new(len, |i| i as u64 * 7);
        assert_eq!(large.len(), len);
        assert_eq!(large.as_ptr() as usize % REGION_BYTES, 0, "region-aligned");
        assert!(large.iter().enumerate().all(|(i, &v)| v == i as u64 * 7));
        assert_eq!(large[len - 1], (len - 1) as u64 * 7);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn an_empty_table_is_refused() {
        let _ = Table::new(0, |_| 0u64);
    }

    /// The `VmFlags` of the mapping that holds `addr`, from
    /// `/proc/self/smaps`.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn vm_flags(addr: usize) -> String {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        let mut holds = false;
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            if let Some((start, end)) = range {
                if let (Ok(start), Ok(end)) = (
                    usize::from_str_radix(start, 16),
                    usize::from_str_radix(end, 16),
                ) {
                    holds = (start..end).contains(&addr);
                    continue;
                }
            }
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if holds {
                    return flags.trim().to_string();
                }
            }
        }
        panic!("no mapping holds {addr:#x}");
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn advised_memory_is_flagged_for_huge_pages() {
        let (chunk, _) = carve(0);
        let table = Table::new(REGION_BYTES / std::mem::size_of::<u64>(), |_| 0u64);
        // Whether this kernel takes the advice at all (one built without
        // transparent huge pages refuses it): ask once more, for memory of
        // the test's own.  The `hg` flag is the advice itself, whatever the
        // THP mode; `AnonHugePages` would depend on fragmentation too.
        let probe = Table::new(REGION_BYTES / std::mem::size_of::<u64>(), |_| 0u64);
        if !advise_huge_pages(probe.as_ptr().cast_mut().cast(), REGION_BYTES) {
            return;
        }
        for (what, addr) in [
            ("a chunk's region", chunk),
            ("a table", table.as_ptr() as usize),
        ] {
            let flags = vm_flags(addr);
            assert!(
                flags.split_whitespace().any(|flag| flag == "hg"),
                "{what} at {addr:#x} is not advised: VmFlags {flags}"
            );
        }
    }
}
