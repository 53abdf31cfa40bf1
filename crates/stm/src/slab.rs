//! How a [`crate::TCell`] stores a value of type `T`: [`inline`] decides, per
//! type, whether the value *is* the cell's data word or lives behind it, and
//! the rest of this module is the typed glue that keeps a value behind the
//! word in a block of the recycler ([`crate::arena`]).
//!
//! A cell whose value is wider than a machine word keeps it in a separately
//! allocated payload: every transactional write allocates a fresh payload,
//! and its commit installs it and retires the displaced one through the
//! epoch, whose glue ([`drop_glue`]) drops the value and hands the block
//! straight back to the recycler (an aborted write's payload takes the same
//! glue at once), so a steady-state workload cycles the same handful of
//! blocks and neither end of the exchange reaches the global allocator.  A value that fits the data
//! word never comes here.  The one exception is snapshot custody — a
//! displaced word that a live pin still needs is moved into a payload at
//! preservation time, so history entries are always pointers.
//!
//! The block's class is the recycler's function of `(size_of::<T>(),
//! align_of::<T>())`, and a type no class serves (zero-sized, wider than the
//! largest class, aligned beyond a cache line) gets the recycler's
//! global-allocator fallback on both sides; allocation and reclamation are
//! monomorphised over the same `T`, so they cannot disagree about a
//! pointer's provenance.

use std::mem::{align_of, size_of};

use crate::arena::{self, BlockKind};

/// True when a `TCell<T>` stores its value **in** the data word instead of
/// behind it.  A compile-time function of the type, so every site
/// that touches a cell's data word agrees on what the word means.
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
/// `Option<Arc<_>>`, a skip-list link's `Option<RawNode>`), which have no
/// spare byte.
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
    let size = size_of::<T>();
    size.is_power_of_two() && size <= size_of::<*mut ()>() && align_of::<T>() == size
}

/// Move `value` into a fresh payload block.
pub(crate) fn alloc_value<T>(value: T) -> *mut T {
    let ptr = arena::alloc_raw(size_of::<T>(), align_of::<T>(), BlockKind::Payload).cast::<T>();
    // SAFETY: the block is exclusively ours, and at least as large and as
    // aligned as the `(size, align)` of `T` it was requested with.
    unsafe { ptr.write(value) };
    ptr
}

/// Drop the pointee and release its block immediately.
///
/// # Safety
///
/// `ptr` must have come from [`alloc_value::<T>`], the caller must have
/// exclusive access to it, and it must not be used afterwards.
pub(crate) unsafe fn free_value_now<T>(ptr: *mut T) {
    // SAFETY: per the contract `ptr` holds a live `T` in a block that
    // `alloc_raw` served for exactly this `(size, align)`.
    unsafe {
        ptr.drop_in_place();
        arena::free_raw(ptr.cast::<u8>(), size_of::<T>(), align_of::<T>());
    }
}

/// The type-erased reclamation glue for `T` payloads, for use with the epoch
/// shim's `defer_with`: drops the value and recycles its block.
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

    /// The calling thread's own payload recycle hits.
    fn hits() -> u64 {
        arena::thread_recycle_hits(BlockKind::Payload)
    }

    #[test]
    fn eligibility_matches_size_and_alignment() {
        fn pooled<T>() -> bool {
            arena::class_of(size_of::<T>(), align_of::<T>()).is_some()
        }
        assert!(pooled::<u64>());
        assert!(pooled::<[u8; 4096]>());
        assert!(!pooled::<[u8; 4097]>(), "oversized values fall back");
        assert!(!pooled::<()>(), "zero-sized values fall back");
        #[repr(align(64))]
        struct Line(#[allow(dead_code)] u8);
        assert!(
            pooled::<Line>(),
            "a cache line is the strictest pooled alignment"
        );
        #[repr(align(128))]
        struct Overaligned(#[allow(dead_code)] u8);
        assert!(!pooled::<Overaligned>(), "over-aligned values fall back");
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
    fn drop_glue_runs_destructors() {
        use crate::sync::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] [u64; 3]);
        impl Drop for Counted {
            fn drop(&mut self) {
                // SC: test drop counter — strongest ordering, not perf-sensitive.
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let first = alloc_value(Counted([1; 3]));
        // SAFETY: `first` came from `alloc_value::<Counted>`; freed exactly once.
        unsafe { drop_glue::<Counted>()(first.cast()) };
        // SC: test drop counter read.
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        let before = hits();
        let second = alloc_value(Counted([2; 3]));
        assert_eq!(first, second, "the glue handed the block to the magazine");
        assert_eq!(hits(), before + 1);
        // SAFETY: `second` came from `alloc_value::<Counted>` and is not reused.
        unsafe { free_value_now(second) };
    }

    #[test]
    fn ineligible_values_round_trip_through_boxes() {
        let before = hits();
        for _ in 0..2 {
            let ptr = alloc_value([0u8; 8192]);
            // SAFETY: `ptr` came from `alloc_value` with the same type; not reused.
            unsafe { free_value_now(ptr) };
            let unit = alloc_value(());
            // SAFETY: as above.
            unsafe { free_value_now(unit) };
        }
        assert_eq!(hits(), before, "the fallback never recycles");
    }
}
