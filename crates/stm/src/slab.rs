//! Size-classed slab recycling for the [`crate::TCell`] payloads that live
//! behind a pointer.
//!
//! A cell whose value is wider than a machine word keeps it in a separately
//! allocated payload: every transactional write installs a fresh payload and
//! retires the displaced one through the epoch.  Payloads are carved from
//! size-classed blocks, and reclamation returns the *block* to a free list
//! instead of the operating system, so a steady-state workload recycles the
//! same handful of blocks forever and neither end of the exchange reaches
//! the global allocator (the skip hash's `Option<V>` value cells and bucket
//! chains are the main clients).
//!
//! A value that fits the cell's data word never comes here: [`inline`]
//! decides that, per type, and such a cell has no payload to allocate,
//! recycle or retire.  The one exception is snapshot custody — a displaced
//! word that a live pin still needs is moved into a slab payload at
//! preservation time, so history entries are always pointers.
//!
//! # Design
//!
//! * **Eligibility is decided per type, at compile time.**  A `T` with
//!   `1 <= size_of::<T>() <= 256` and `align_of::<T>() <= 16` always uses the
//!   slab; anything else (zero-sized types, huge or over-aligned values)
//!   always uses plain `Box`es.  Because the decision is a pure function of
//!   the type, the reclamation glue ([`drop_glue`]) never needs a per-block
//!   header to know how to free a pointer.
//! * **Blocks are process-global, not per-`Stm`.**  Retired payloads live in
//!   epoch garbage bags that can outlive the `Stm` (and the `TCell`) that
//!   produced them, so block ownership must not be tied to any shorter-lived
//!   object; a block is just anonymous size-classed memory and may be reused
//!   by any cell of any runtime.  (The issue sketch said "per-`Stm`"; this is
//!   the lifetime-safe refinement of it.)
//! * **Per-thread magazines over a global overflow pool.**  Allocation and
//!   free touch only a thread-local `Vec` of block addresses; the global
//!   mutex-protected pool is touched in batches of [`REFILL_BATCH`] when a
//!   magazine runs dry or overflows, and when a thread exits.  Blocks freed
//!   by the epoch collector land in the collector thread's magazine and are
//!   reused by its next writes.
//!
//! Pooled blocks are intentionally never returned to the operating system
//! (the pool is bounded by peak live payloads, the same policy as the epoch
//! shim's slot registry).  Note for sanitizer runs: recycling means ASan
//! cannot observe use-after-free *within* a reused block; the logical
//! equivalence and linearizability suites are the backstop for slab clients.

use std::alloc::{alloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::sync::Mutex;

/// Block payload sizes, one free list per class.
const CLASS_SIZES: [usize; 8] = [16, 32, 48, 64, 96, 128, 192, 256];
const NUM_CLASSES: usize = CLASS_SIZES.len();

/// Every block is aligned to this; types with stricter alignment fall back
/// to `Box`.
const BLOCK_ALIGN: usize = 16;

/// Magazine size at which half the blocks are flushed to the global pool.
const MAGAZINE_CAP: usize = 64;

/// Blocks moved from the global pool per magazine refill.
const REFILL_BATCH: usize = 32;

/// Fresh blocks minted per allocator miss (one returned, the rest pooled).
///
/// Epoch reclamation returns blocks in bursts, ~2 collection cycles after
/// they were retired, so instantaneous demand fluctuates around the mean —
/// especially for the skip hash, whose per-operation cell count follows the
/// random tower height.  Minting a batch per miss converges the pool's
/// capacity to the workload's high-water mark in a handful of misses instead
/// of one miss per block, which is what lets the steady state reach *zero*
/// allocator hits rather than a trickle.
const MINT_BATCH: usize = 8;

/// True when values of `T` are carved from the slab; false when they use
/// plain `Box`es.  A compile-time function of the type, so allocation and
/// reclamation can never disagree about a pointer's provenance.
pub(crate) const fn eligible<T>() -> bool {
    let size = std::mem::size_of::<T>();
    size >= 1 && size <= CLASS_SIZES[NUM_CLASSES - 1] && std::mem::align_of::<T>() <= BLOCK_ALIGN
}

/// True when a `TCell<T>` stores its value **in** the data word instead of
/// behind it.  Like [`eligible`], a compile-time function of the type, so
/// every site that touches a cell's data word agrees on what the word means.
///
/// # The rule
///
/// `T` is stored inline when `size_of::<T>()` is a power of two no larger
/// than a pointer and `align_of::<T>()` equals that size.  The cell moves
/// the value's bytes through an integer-typed atomic, and reading an
/// uninitialised byte (padding, or the unused payload of a tag-carrying
/// `enum`) as an integer is undefined behaviour — so the rule has to admit
/// only types whose every byte is initialised in every value.  Size equal to
/// alignment is what proves it: such a type has a field as aligned as the
/// whole, and that field, being at least as large as its alignment, fills
/// the whole — down to a scalar (integer, `bool`, `char`, float, pointer) or
/// a niche-encoded `enum` over one (`Option<NonZeroU64>`, `Option<Box<_>>`,
/// `Option<Arc<_>>`, a link's `Option<NodeRef>`), which have no spare byte.
/// Anything with compiler-inserted padding or a separate tag is wider than
/// it is aligned — `(u32, u8)` and `Option<u32>` are 8 bytes aligned to 4 —
/// and stays behind a pointer, as does everything wider than a word
/// (`Option<u64>`, 16 bytes).
///
/// The constructs that can hold an uninitialised byte and still pass are the
/// ones that ask for it by name: a `union` (`MaybeUninit<u64>`), and a type
/// that raises its alignment without filling it — `#[repr(align(N))]` over a
/// smaller field, or a zero-length array of a more-aligned type beside one.
/// No type in this workspace puts any of them in a cell; Miri flags the
/// integer read if one ever does.
pub(crate) const fn inline<T>() -> bool {
    let size = std::mem::size_of::<T>();
    size.is_power_of_two()
        && size <= std::mem::size_of::<*mut ()>()
        && std::mem::align_of::<T>() == size
}

const fn class_of_size(size: usize) -> usize {
    let mut class = 0;
    while class < NUM_CLASSES {
        if size <= CLASS_SIZES[class] {
            return class;
        }
        class += 1;
    }
    // Unreachable for eligible types; keeps the const fn total.
    usize::MAX
}

const fn class_of<T>() -> usize {
    class_of_size(std::mem::size_of::<T>())
}

/// Global overflow pools, one per class; block addresses stored as `usize`
/// so the `static` is trivially `Sync`.
static GLOBAL_POOLS: [Mutex<Vec<usize>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

/// Per-thread block magazines; flushed to the global pools on thread exit.
struct Magazines {
    classes: [Vec<usize>; NUM_CLASSES],
}

impl Magazines {
    fn new() -> Self {
        Self {
            classes: [const { Vec::new() }; NUM_CLASSES],
        }
    }
}

impl Drop for Magazines {
    fn drop(&mut self) {
        for (class, magazine) in self.classes.iter_mut().enumerate() {
            if !magazine.is_empty() {
                GLOBAL_POOLS[class]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .append(magazine);
            }
        }
    }
}

thread_local! {
    static MAGAZINES: RefCell<Magazines> = RefCell::new(Magazines::new());
}

fn class_layout(class: usize) -> Layout {
    // SAFETY-adjacent invariant: sizes are small powers-of-16 multiples and
    // BLOCK_ALIGN is a power of two, so the layout is always valid.
    Layout::from_size_align(CLASS_SIZES[class], BLOCK_ALIGN).expect("valid class layout")
}

#[cold]
fn mint_block(class: usize) -> *mut u8 {
    let layout = class_layout(class);
    // SAFETY: the layout has non-zero size for every class.
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    ptr
}

/// Pop a block for `class`, refilling the magazine from the global pool when
/// dry and minting a fresh block only when both are empty.  The flag reports
/// whether the block was recycled (false = fresh mint from the allocator).
fn alloc_block(class: usize) -> (*mut u8, bool) {
    MAGAZINES
        .try_with(|magazines| {
            let mut magazines = magazines.borrow_mut();
            let magazine = &mut magazines.classes[class];
            if let Some(addr) = magazine.pop() {
                return (addr as *mut u8, true);
            }
            {
                let mut pool = GLOBAL_POOLS[class]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let keep = pool.len().saturating_sub(REFILL_BATCH);
                magazine.extend(pool.drain(keep..));
            }
            match magazine.pop() {
                Some(addr) => (addr as *mut u8, true),
                None => {
                    for _ in 0..MINT_BATCH - 1 {
                        magazine.push(mint_block(class) as usize);
                    }
                    (mint_block(class), false)
                }
            }
        })
        // Thread-local teardown: go straight to the global pool.
        .unwrap_or_else(|_| {
            let recycled = GLOBAL_POOLS[class]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .pop();
            match recycled {
                Some(addr) => (addr as *mut u8, true),
                None => (mint_block(class), false),
            }
        })
}

/// Return a block to the calling thread's magazine (overflow goes to the
/// global pool in a batch).
fn free_block(ptr: *mut u8, class: usize) {
    let addr = ptr as usize;
    let stored = MAGAZINES.try_with(|magazines| {
        let mut magazines = magazines.borrow_mut();
        let magazine = &mut magazines.classes[class];
        magazine.push(addr);
        if magazine.len() >= MAGAZINE_CAP {
            GLOBAL_POOLS[class]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .extend(magazine.drain(MAGAZINE_CAP / 2..));
        }
    });
    if stored.is_err() {
        GLOBAL_POOLS[class]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(addr);
    }
}

/// Allocate storage for `value` (slab block or `Box`, per [`eligible`]) and
/// move it in.  The flag reports whether a recycled slab block served the
/// request.
pub(crate) fn alloc_value<T>(value: T) -> (*mut T, bool) {
    if eligible::<T>() {
        let (block, recycled) = alloc_block(class_of::<T>());
        let ptr = block.cast::<T>();
        // SAFETY: the block is exclusively ours, at least `size_of::<T>()`
        // bytes, and `BLOCK_ALIGN`-aligned (eligibility checked the type's
        // alignment fits).
        unsafe { ptr.write(value) };
        (ptr, recycled)
    } else {
        (Box::into_raw(Box::new(value)), false)
    }
}

/// Drop the pointee and release its storage immediately.
///
/// # Safety
///
/// `ptr` must have come from [`alloc_value::<T>`], the caller must have
/// exclusive access to it, and it must not be used afterwards.
pub(crate) unsafe fn free_value_now<T>(ptr: *mut T) {
    if eligible::<T>() {
        // SAFETY: per the contract, `ptr` holds a live `T` in a slab block.
        unsafe {
            ptr.drop_in_place();
            free_block(ptr.cast::<u8>(), class_of::<T>());
        }
    } else {
        // SAFETY: ineligible types are always boxed by `alloc_value`.
        drop(unsafe { Box::from_raw(ptr) });
    }
}

/// The type-erased reclamation glue for `T` payloads, for use with the epoch
/// shim's `defer_with`: drops the value and returns its block to the slab
/// (or frees the `Box` for ineligible types).
pub(crate) fn drop_glue<T>() -> unsafe fn(*mut ()) {
    // SAFETY: contract — forwarded verbatim from `free_value_now`.
    unsafe fn glue<T>(ptr: *mut ()) {
        // SAFETY: forwarded from `free_value_now`'s contract via the epoch
        // retirement protocol (called exactly once, after unreachability).
        unsafe { free_value_now(ptr.cast::<T>()) }
    }
    glue::<T>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_matches_size_and_alignment() {
        assert!(eligible::<u64>());
        assert!(eligible::<[u8; 256]>());
        assert!(!eligible::<[u8; 257]>(), "oversized values are boxed");
        assert!(!eligible::<()>(), "zero-sized values are boxed");
        #[repr(align(64))]
        struct Overaligned(#[allow(dead_code)] u8);
        assert!(!eligible::<Overaligned>(), "over-aligned values are boxed");
    }

    #[test]
    fn inline_rule_admits_only_fully_initialised_words() {
        use std::num::NonZeroU64;
        use std::sync::Arc;
        assert!(inline::<u64>());
        assert!(inline::<i64>());
        assert!(inline::<u8>());
        assert!(inline::<bool>());
        assert!(inline::<char>());
        assert!(inline::<Option<NonZeroU64>>());
        assert!(inline::<Option<Box<u32>>>());
        assert!(inline::<Option<Arc<u32>>>());
        assert!(inline::<*mut ()>());
        assert!(!inline::<(u32, u8)>(), "three bytes of padding");
        assert!(!inline::<Option<u32>>(), "`None` leaves the u32 unwritten");
        assert!(!inline::<Option<u64>>(), "two words");
        assert!(!inline::<[u64; 2]>(), "two words");
        assert!(!inline::<[u8; 3]>(), "not a power of two");
        assert!(!inline::<String>());
        assert!(!inline::<()>(), "nothing to store");
    }

    #[test]
    fn classes_cover_the_eligible_range() {
        assert_eq!(class_of::<u64>(), 0);
        assert_eq!(class_of::<[u8; 17]>(), 1);
        assert_eq!(class_of::<[u8; 256]>(), NUM_CLASSES - 1);
        for size in 1..=CLASS_SIZES[NUM_CLASSES - 1] {
            let class = class_of_size(size);
            assert!(class < NUM_CLASSES);
            assert!(CLASS_SIZES[class] >= size);
        }
    }

    #[test]
    fn freed_blocks_are_recycled() {
        // Use a distinctive size class to avoid interference from the rest
        // of the test process.
        type Block = [u64; 24]; // 192-byte class
        let (first, _) = alloc_value::<Block>([7; 24]);
        // SAFETY: `first` came from `alloc_value::<Block>` and is not reused.
        unsafe { free_value_now(first) };
        let (second, recycled) = alloc_value::<Block>([9; 24]);
        assert!(recycled, "the freed block must be served from the magazine");
        assert_eq!(first, second, "LIFO magazine returns the same block");
        // SAFETY: `second` came from `alloc_value::<Block>` and is not reused.
        unsafe { free_value_now(second) };
    }

    #[test]
    fn drop_glue_runs_destructors() {
        use crate::sync::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                // SC: test drop counter — strongest ordering, not perf-sensitive.
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (ptr, _) = alloc_value(Counted(1));
        // SAFETY: `ptr` came from `alloc_value::<Counted>`; freed exactly once.
        unsafe { drop_glue::<Counted>()(ptr.cast()) };
        // SC: test drop counter read.
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn ineligible_values_round_trip_through_boxes() {
        let (ptr, recycled) = alloc_value([0u8; 1024]);
        assert!(!recycled);
        // SAFETY: `ptr` came from `alloc_value` with the same type; not reused.
        unsafe { free_value_now(ptr) };
    }
}
