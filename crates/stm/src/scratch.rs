//! Pooled per-thread transaction scratch.
//!
//! A transaction attempt needs several growable buffers: the read set, the
//! write log, the retirement bag, the keep-alive list, and the post-commit
//! action queue.  Allocating them per attempt put the global allocator on the
//! hot path of *every* transaction — including each retry of an aborted one.
//! This module leases a [`TxnScratch`] from a small per-thread pool instead:
//! the buffers are cleared (not freed) when the attempt finishes, so
//! steady-state transactions reuse whatever capacity earlier ones grew.
//!
//! The pool is keyed by thread, not by [`crate::Stm`]: scratch holds no
//! runtime-specific state, so one pool serves every runtime in the process,
//! and nested transactions (e.g. started from a post-commit action) simply
//! lease a second scratch.
//!
//! Two further allocation sinks live here because they belong to the scratch
//! lifecycle:
//!
//! * [`ReadFilter`] — a generation-stamped open-addressed table of orec
//!   addresses that dedupes read-set entries on insertion, so a skip-list
//!   traversal that re-reads the same cells stops growing the read set (and
//!   commit-time validation stops re-checking them).  Clearing is O(1): the
//!   generation stamp is bumped and stale slots are simply ignored.
//! * [`PostCommit`] — a type-erased `FnOnce(u64)` whose closure is stored
//!   *inline* when it fits three words (all the closures the skip hash
//!   registers do), falling back to a box only for large captures.

use std::any::Any;
use std::cell::RefCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::Arc;

use crossbeam_epoch::Bag;

use crate::orec::Orec;
use crate::tcell::WriteEntry;

/// One read-set entry: the orec's address and the raw word observed when the
/// read validated.
pub(crate) struct ReadEntry {
    pub(crate) orec: *const Orec,
    pub(crate) observed: u64,
}

/// Open-addressed, generation-stamped set of orec addresses.
///
/// Linear probing over a power-of-two table; a slot is live only when its
/// stamp matches the filter's current generation, so [`ReadFilter::clear`]
/// never touches the table.  The table doubles when half full, which keeps
/// probe chains short; growth allocates, but the capacity persists across
/// transactions via the scratch pool.
pub(crate) struct ReadFilter {
    slots: Vec<FilterSlot>,
    stamp: u64,
    len: usize,
}

#[derive(Clone, Copy)]
struct FilterSlot {
    ptr: usize,
    stamp: u64,
}

const FILTER_INITIAL_CAPACITY: usize = 64;

#[inline]
fn filter_hash(ptr: usize) -> usize {
    // Orecs are word-aligned fields of larger structs; shift the dead low
    // bits out and mix with the Fibonacci constant.  Hash in u64 so the
    // 64-bit constant also compiles on 32-bit targets.
    (((ptr as u64) >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize
}

impl ReadFilter {
    fn new() -> Self {
        Self {
            slots: vec![FilterSlot { ptr: 0, stamp: 0 }; FILTER_INITIAL_CAPACITY],
            stamp: 1,
            len: 0,
        }
    }

    /// Insert `ptr`; returns false when it was already present (a dedup hit).
    pub(crate) fn insert(&mut self, ptr: usize) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut index = filter_hash(ptr) & mask;
        loop {
            let slot = &mut self.slots[index];
            if slot.stamp != self.stamp {
                *slot = FilterSlot {
                    ptr,
                    stamp: self.stamp,
                };
                self.len += 1;
                return true;
            }
            if slot.ptr == ptr {
                return false;
            }
            index = (index + 1) & mask;
        }
    }

    /// Forget every entry in O(1) by advancing the generation stamp.
    pub(crate) fn clear(&mut self) {
        self.stamp += 1;
        self.len = 0;
    }

    #[cold]
    fn grow(&mut self) {
        let live: Vec<usize> = self
            .slots
            .iter()
            .filter(|slot| slot.stamp == self.stamp)
            .map(|slot| slot.ptr)
            .collect();
        let new_capacity = self.slots.len() * 2;
        self.slots.clear();
        self.slots
            .resize(new_capacity, FilterSlot { ptr: 0, stamp: 0 });
        self.stamp += 1;
        self.len = 0;
        for ptr in live {
            self.insert(ptr);
        }
    }
}

/// Inline closure payload: three words covers every post-commit action the
/// skip hash registers (an `Arc` or two plus a small discriminant).
const POST_COMMIT_INLINE_WORDS: usize = 3;

/// A type-erased post-commit action, stored inline when small.
///
/// Every action receives the attempt's commit stamp; `Txn::on_commit` wraps
/// its `FnOnce()` as `move |_| action()`, which is the size of the closure it
/// wraps, so it boxes exactly when the bare closure would.
pub(crate) struct PostCommit {
    data: [MaybeUninit<usize>; POST_COMMIT_INLINE_WORDS],
    call_fn: unsafe fn(*mut u8, u64),
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: contract — `slot` must hold a live inline `F`; called at most once.
unsafe fn call_inline<F: FnOnce(u64)>(slot: *mut u8, stamp: u64) {
    // SAFETY: the slot holds a live `F`, consumed exactly once.
    let action = unsafe { slot.cast::<F>().read() };
    action(stamp);
}

// SAFETY: contract — `slot` must hold a live inline `F`; called at most once.
unsafe fn drop_inline<F>(slot: *mut u8) {
    // SAFETY: the slot holds a live `F` that is never used again.
    unsafe { slot.cast::<F>().drop_in_place() }
}

// SAFETY: contract — `slot` must hold a live `Box<F>`; called at most once.
unsafe fn call_boxed<F: FnOnce(u64)>(slot: *mut u8, stamp: u64) {
    // SAFETY: the slot holds a live `Box<F>`, consumed exactly once.
    let action = unsafe { slot.cast::<Box<F>>().read() };
    (*action)(stamp);
}

// SAFETY: contract — `slot` must hold a live `Box<F>`; called at most once.
unsafe fn drop_boxed<F>(slot: *mut u8) {
    // SAFETY: the slot holds a live `Box<F>` that is never used again.
    drop(unsafe { slot.cast::<Box<F>>().read() });
}

impl PostCommit {
    /// Write `action` inline when it fits, boxing otherwise.
    pub(crate) fn new<F: FnOnce(u64) + 'static>(action: F) -> Self {
        let mut data = [MaybeUninit::uninit(); POST_COMMIT_INLINE_WORDS];
        if std::mem::size_of::<F>() <= std::mem::size_of_val(&data)
            && std::mem::align_of::<F>() <= std::mem::align_of::<usize>()
        {
            // SAFETY: size and alignment were just checked.
            unsafe { data.as_mut_ptr().cast::<F>().write(action) };
            Self {
                data,
                call_fn: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            // SAFETY: a thin `Box<F>` pointer always fits one word.
            unsafe { data.as_mut_ptr().cast::<Box<F>>().write(Box::new(action)) };
            Self {
                data,
                call_fn: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// Consume the action and run it, handing it the commit stamp.
    pub(crate) fn invoke(self, stamp: u64) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: ManuallyDrop suppresses `drop_fn`, so the closure is
        // consumed exactly once (by `call_fn`).
        unsafe { (this.call_fn)(this.data.as_mut_ptr().cast(), stamp) }
    }
}

impl Drop for PostCommit {
    fn drop(&mut self) {
        // An unrun action (aborted attempt, or unwinding) drops its closure
        // without calling it.
        // SAFETY: the slot still holds the closure (`invoke` suppresses this
        // drop via ManuallyDrop), so `drop_fn` consumes it exactly once.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr().cast()) }
    }
}

/// The growable buffers of one transaction attempt, reused across attempts.
pub(crate) struct TxnScratch {
    pub(crate) read_set: Vec<ReadEntry>,
    pub(crate) filter: ReadFilter,
    pub(crate) writes: Vec<WriteEntry>,
    /// Values displaced by this attempt's commit, retired through the epoch
    /// in one batch — a commit with `k` writes pins once and flushes once.
    pub(crate) retired: Bag,
    pub(crate) keepalive: Vec<Arc<dyn Any + Send + Sync>>,
    pub(crate) post_commit: Vec<PostCommit>,
    /// Commit-sequenced actions: run at the serialization point, after the
    /// attempt can no longer abort but before its writes publish (see
    /// `Txn::on_commit_sequenced`).  Same inline-storage representation as
    /// the post-commit queue.
    pub(crate) sequenced: Vec<PostCommit>,
    /// Snapshot pin versions collected at commit time (only when pins are
    /// live); reused so pin collection never allocates in steady state.
    pub(crate) pins: Vec<u64>,
}

impl TxnScratch {
    fn new() -> Self {
        Self {
            read_set: Vec::new(),
            filter: ReadFilter::new(),
            writes: Vec::new(),
            retired: Bag::new(),
            keepalive: Vec::new(),
            post_commit: Vec::new(),
            sequenced: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Clear every buffer, retaining capacity for the next lease.
    fn reset(&mut self) {
        debug_assert!(
            self.retired.is_empty() || std::thread::panicking(),
            "scratch returned with unflushed retirements"
        );
        self.read_set.clear();
        self.filter.clear();
        self.writes.clear();
        self.keepalive.clear();
        self.post_commit.clear();
        self.sequenced.clear();
        self.pins.clear();
    }
}

/// How many scratches a thread parks; nesting deeper than this (transactions
/// started from post-commit actions of transactions started from ...) just
/// allocates.
const POOL_CAP: usize = 8;

thread_local! {
    // Boxed deliberately (not `clippy::vec_box`'s advice): a lease moves one
    // pointer in and out of the pool instead of the ~200-byte scratch struct,
    // and the box is what lets `ScratchLease` stay a thin handle.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<TxnScratch>>> = const { RefCell::new(Vec::new()) };
}

/// A leased [`TxnScratch`]; returns it to the thread's pool when dropped.
pub(crate) struct ScratchLease {
    scratch: ManuallyDrop<Box<TxnScratch>>,
}

pub(crate) fn lease() -> ScratchLease {
    let scratch = POOL
        .try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_else(|| Box::new(TxnScratch::new()));
    ScratchLease {
        scratch: ManuallyDrop::new(scratch),
    }
}

impl std::ops::Deref for ScratchLease {
    type Target = TxnScratch;
    fn deref(&self) -> &TxnScratch {
        &self.scratch
    }
}

impl std::ops::DerefMut for ScratchLease {
    fn deref_mut(&mut self) -> &mut TxnScratch {
        &mut self.scratch
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        // SAFETY: `scratch` is taken exactly once, here.
        let mut scratch = unsafe { ManuallyDrop::take(&mut self.scratch) };
        scratch.reset();
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(scratch);
            }
            // Beyond the cap (or during thread teardown) the scratch is
            // simply dropped.
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn filter_dedupes_and_clears_in_o1() {
        let mut filter = ReadFilter::new();
        assert!(filter.insert(0x1000));
        assert!(!filter.insert(0x1000), "second insert is a dedup hit");
        assert!(filter.insert(0x2000));
        filter.clear();
        assert!(filter.insert(0x1000), "cleared filters forget everything");
    }

    #[test]
    fn filter_grows_past_initial_capacity() {
        // Miri runs a scaled-down count (interpretation is ~1000x slower);
        // 2048 still forces several capacity doublings.
        let n: usize = if cfg!(miri) { 2048 } else { 10_000 };
        let mut filter = ReadFilter::new();
        for i in 0..n {
            assert!(filter.insert(0x8000 + i * 8));
        }
        for i in 0..n {
            assert!(!filter.insert(0x8000 + i * 8));
        }
    }

    #[test]
    fn post_commit_inline_actions_run_once() {
        let fired = Rc::new(Cell::new(0));
        let action = {
            let fired = Rc::clone(&fired);
            PostCommit::new(move |_| fired.set(fired.get() + 1))
        };
        action.invoke(0);
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn post_commit_stamped_actions_receive_the_stamp() {
        let seen = Rc::new(Cell::new(0u64));
        let action = {
            let seen = Rc::clone(&seen);
            PostCommit::new(move |stamp| seen.set(stamp))
        };
        action.invoke(42);
        assert_eq!(seen.get(), 42);

        // The boxed fallback must forward the stamp too.
        let payload = [3u64; 16]; // too big for inline storage
        let seen_boxed = Rc::new(Cell::new(0u64));
        let action = {
            let seen_boxed = Rc::clone(&seen_boxed);
            PostCommit::new(move |stamp| seen_boxed.set(stamp + payload[0]))
        };
        action.invoke(10);
        assert_eq!(seen_boxed.get(), 13);
    }

    #[test]
    fn post_commit_unrun_actions_drop_their_captures() {
        let fired = Rc::new(Cell::new(0));
        let action = {
            let fired = Rc::clone(&fired);
            PostCommit::new(move |_| fired.set(fired.get() + 1))
        };
        drop(action);
        assert_eq!(fired.get(), 0, "dropped actions never fire");
        assert_eq!(Rc::strong_count(&fired), 1, "captures are released");
    }

    #[test]
    fn post_commit_large_captures_fall_back_to_boxes() {
        let payload = [7u64; 16]; // 128 bytes: too big for inline storage
        let fired = Rc::new(Cell::new(0u64));
        let action = {
            let fired = Rc::clone(&fired);
            PostCommit::new(move |_| fired.set(payload.iter().sum()))
        };
        action.invoke(0);
        assert_eq!(fired.get(), 7 * 16);
    }

    #[test]
    fn leases_recycle_capacity() {
        {
            let mut lease = lease();
            lease.read_set.reserve(1024);
            lease.writes.reserve(1024);
        }
        let lease = lease();
        assert!(lease.read_set.capacity() >= 1024);
        assert!(lease.writes.capacity() >= 1024);
    }
}
