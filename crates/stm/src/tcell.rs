//! Transactional memory cells.

use crate::sync::{AtomicPtr, Ordering, ShadowSlot};
use std::fmt;
use std::marker::PhantomData;
use std::mem::{needs_drop, ManuallyDrop};
use std::ptr;

use crossbeam_epoch as epoch;

use crate::error::TxResult;
use crate::orec::{Orec, OrecState};
use crate::scratch::TxnScratch;
use crate::slab;
use crate::snapshot::{self, CommitCtx};
use crate::txn::Txn;

/// A transactionally managed memory location holding a value of type `T`.
///
/// Each cell is two words: its own ownership record (orec), following the
/// paper's guidance that orecs be co-located with the data they protect, and
/// one **data word** that readers load and committing writers swap
/// atomically, so an optimistic reader can never observe a torn value, and
/// the word only ever holds a committed value.
///
/// What the data word holds is a compile-time function of `T`:
///
/// * A value that fits a machine word — an integer, a `bool`, an
///   `Option<NonZeroU64>`, an `Option<Box<_>>` / `Option<Arc<_>>` or any other
///   niche-encoded handle — is stored **in** the word.  A read is the orec
///   sample, one load and the orec re-check; a write allocates nothing.  When
///   such a value owns something (an `Arc`'s reference count), a displaced
///   word is dropped through epoch-based reclamation, because a concurrent
///   reader may still be looking through its copy of the word; a word that
///   owns nothing (a skip-list link, a plain pointer) has nothing to retire.
/// * Every other value lives behind the word, in a payload the word points
///   at: a write allocates a fresh payload, and its commit installs it and
///   retires the displaced one through the epoch.  Payloads are blocks of
///   the size-classed recycler (`crate::arena`, see `docs/PERF.md`), so
///   steady-state write churn performs no heap allocation; types too large
///   or over-aligned for its classes fall back to the global allocator
///   transparently.
///
/// Neither the protocol nor the API differs between the two; the exact rule
/// is documented on `slab::inline`.
///
/// Cells are accessed inside transactions via [`TCell::read`] and
/// [`TCell::write`].  Outside of transactions, [`TCell::load_atomic`]
/// provides a consistent single-location snapshot (used by tests, statistics,
/// and destructors — never on the concurrent hot path).
///
/// # Example
///
/// ```
/// use skiphash_stm::{Stm, TCell};
///
/// let stm = Stm::new();
/// let cell = TCell::new(vec![1, 2, 3]);
/// stm.run(|tx| {
///     let mut v = cell.read(tx)?;
///     v.push(4);
///     cell.write(tx, v)
/// });
/// assert_eq!(cell.load_atomic(), vec![1, 2, 3, 4]);
/// ```
pub struct TCell<T> {
    pub(crate) orec: Orec,
    /// The data word: the value itself when `slab::inline::<T>()`, otherwise
    /// a never-null pointer to the payload `slab::alloc_value::<T>` made.
    /// A std atomic outside the `sync` facade on purpose — the model checker
    /// schedules the orec protocol around it, not the word itself.
    data: AtomicPtr<()>,
    /// Race-detector shadow for the data word; zero-sized no-op outside
    /// model builds.  Writers mark installs, readers mark *validated* reads
    /// (after the orec recheck), and the model checker verifies each kept
    /// read is happens-after the install that produced its value.
    pub(crate) shadow: ShadowSlot,
    /// The cell owns a `T` and hands out `T`s: invariant, like the
    /// `AtomicPtr<T>` it stands for.
    _value: PhantomData<fn(T) -> T>,
}

/// Move `value` into a data word.
///
/// # Safety
///
/// `slab::inline::<T>()` must hold.
#[inline]
unsafe fn word_of<T>(value: T) -> *mut () {
    let mut word: *mut () = ptr::null_mut();
    // SAFETY: by the inline rule `T` is no larger and no more aligned than
    // the word, so the word's storage takes a `T`.  The bytes `T` does not
    // cover keep their zero, and by the same rule `T` has no uninitialised
    // byte of its own, so `word` reads back fully initialised.  A `T` that
    // is a pointer keeps its provenance (pointer bytes read as a pointer).
    unsafe { ptr::addr_of_mut!(word).cast::<T>().write(value) };
    word
}

/// A bitwise copy of the `T` a data word holds.
///
/// # Safety
///
/// `word` must have come from [`word_of::<T>`].  The result aliases whatever
/// the word owns: the caller either owns the word (and the word is not used
/// again) or wraps the result in `ManuallyDrop` and only lends it out.
#[inline]
unsafe fn value_of<T>(word: *mut ()) -> T {
    // SAFETY: `word_of::<T>` wrote a `T` at the start of the word.
    unsafe { ptr::addr_of!(word).cast::<T>().read() }
}

/// Wrap `value` as a data word: the value itself, or a pointer to a fresh
/// payload.
#[inline]
pub(crate) fn to_word<T>(value: T) -> *mut () {
    if slab::inline::<T>() {
        // SAFETY: `T` is inline, checked on the line above.
        unsafe { word_of(value) }
    } else {
        slab::alloc_value(value).cast()
    }
}

// SAFETY: contract — `word` is an inline `T`'s data word that no cell holds
// any more, and no thread can still be reading through a copy of it; called
// exactly once.
unsafe fn drop_word<T>(word: *mut ()) {
    // SAFETY: per the contract this is the word's one owner.
    drop(unsafe { value_of::<T>(word) });
}

/// Reclamation glue in the shape the epoch shim's `defer_with` takes.
pub(crate) type ReclaimGlue = unsafe fn(*mut ());

/// The glue that reclaims a data word of a `TCell<T>` no thread can still
/// read through, matching the representation [`to_word::<T>`] chose.
/// `None` when there is nothing to reclaim: an inline word that owns
/// nothing.  (A word that does own something is handed to its glue whatever
/// its bits — all-zero is a value like any other, `None` or `0`, never "no
/// payload".)
#[inline]
pub(crate) fn reclaim_glue<T>() -> Option<ReclaimGlue> {
    if !slab::inline::<T>() {
        Some(slab::drop_glue::<T>())
    } else if needs_drop::<T>() {
        Some(drop_word::<T>)
    } else {
        None
    }
}

/// Drop `value` once every thread pinned now has unpinned: for a handle
/// that owns something a concurrent reader may still be looking at.
///
/// Word-sized values that need no drop glue cost nothing; any other value is
/// one epoch retirement (a wider one in a payload block, as a cell would hold
/// it).
pub fn defer_drop<T: Send + 'static>(value: T) {
    if let Some(glue) = reclaim_glue::<T>() {
        // SAFETY: the word is the value's one owner and nothing else can reach
        // it; `T: Send` lets the collector drop it on any thread.
        unsafe { epoch::pin().defer_with(to_word(value), glue) };
    }
}

/// Map the value a data word designates through `f`.
///
/// A cell's word may be displaced while `f` runs; it is never torn (it is
/// loaded whole), and the caller's orec re-check discards the result.
///
/// # Safety
///
/// `word` must have come from [`to_word::<T>`] and stay alive until this
/// returns: a cell's word loaded under an epoch guard that is pinned until
/// then (that keeps a displaced payload, or whatever a displaced inline word
/// owns, from being reclaimed under `f`), or a buffered word the caller's
/// write log owns.
#[inline]
pub(crate) unsafe fn peek_word<T, R>(word: *mut (), f: impl FnOnce(&T) -> R) -> R {
    if slab::inline::<T>() {
        // SAFETY: the word came from `word_of::<T>`; the copy is only lent
        // to `f`, never dropped, and what it owns outlives the call.
        let value = ManuallyDrop::new(unsafe { value_of::<T>(word) });
        f(&value)
    } else {
        // SAFETY: a boxed word always points at a payload that outlives the
        // call, per the contract.
        f(unsafe { &*word.cast::<T>() })
    }
}

impl<T> TCell<T> {
    /// Create a new cell holding `value`, with version 0.
    pub fn new(value: T) -> Self {
        Self::new_at(value, 0)
    }

    /// Create a new cell holding `value`, with its ownership record already
    /// at `version` — its *birth version*.
    ///
    /// For cells allocated at a runtime's birth, [`TCell::new`] (version 0)
    /// is always right.  Cells allocated **mid-lifetime** — a fresh node
    /// spliced into a long-lived structure — should instead be stamped with
    /// the creating attempt's [`read version`](crate::Txn::read_version):
    /// the snapshot registry decides whether a displaced payload is still
    /// needed by comparing pinned versions against the payload's start
    /// version, and a birth version of 0 makes every later-born cell look
    /// old enough to matter to *every* live snapshot, turning bounded
    /// custody into custody that grows with allocation churn.
    ///
    /// # Contract
    ///
    /// `version` must have been issued by the clock of the
    /// [`Stm`](crate::Stm) runtime that will manage this cell (any value at
    /// or below the clock's current reading, such as a transaction's read
    /// version).  A made-up version breaks snapshot validation: readers
    /// abort on any version above their read version, so a cell stamped
    /// ahead of the clock conflicts with every transaction until the clock
    /// catches up.
    pub fn new_at(value: T, version: u64) -> Self {
        Self {
            orec: Orec::new(version),
            data: AtomicPtr::new(to_word(value)),
            shadow: ShadowSlot::new("tcell.payload"),
            _value: PhantomData,
        }
    }

    /// The data word's current value, for [`peek_word`].
    #[inline]
    pub(crate) fn word(&self) -> *mut () {
        self.data.load(Ordering::Acquire)
    }

    /// The word this attempt's write log buffers for the cell, found through
    /// the log's index.  Only called for a cell whose orec the attempt owns,
    /// which has exactly one entry.
    fn buffered<'a>(&self, scratch: &'a mut TxnScratch) -> &'a mut *mut () {
        let index = scratch
            .write_entry(self as *const Self as usize)
            .expect("a cell whose orec the attempt owns is in its write log");
        &mut scratch.writes[index].new_data
    }

    /// Map the value this attempt's write log buffers for the cell through
    /// `f`: a read-after-write.
    pub(crate) fn peek_buffered<R>(&self, scratch: &mut TxnScratch, f: impl FnOnce(&T) -> R) -> R {
        // SAFETY: the entry for this cell was made by `WriteEntry::new` from
        // a `T`, and the log owns its word until the attempt ends.
        unsafe { peek_word(*self.buffered(scratch), f) }
    }

    /// Replace the value this attempt's write log buffers for the cell with
    /// `value`: a second write to the same cell.
    pub(crate) fn rewrite_buffered(&self, scratch: &mut TxnScratch, value: T) {
        let replaced = std::mem::replace(self.buffered(scratch), to_word(value));
        if let Some(glue) = reclaim_glue::<T>() {
            // SAFETY: as in `peek_buffered`; the replaced word was never
            // installed and no other thread ever saw it, and the log held its
            // only copy, so it goes at once, not through the epoch.
            unsafe { glue(replaced) }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TCell<T> {
    /// Transactionally read the cell, returning a clone of its value.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TxAbort::ReadConflict`] if the location is owned by a
    /// concurrent writer or has been written since the transaction began; the
    /// enclosing [`crate::Stm::run`] loop will retry the transaction.
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn read(&self, tx: &mut Txn<'_>) -> TxResult<T> {
        tx.read_cell(self)
    }

    /// Transactionally overwrite the cell with `value`.
    ///
    /// The ownership record is acquired eagerly (on first write), and the
    /// transaction's own subsequent reads see the new value at once.  Other
    /// threads see it only once the transaction commits, which is when it
    /// reaches the cell; an aborted transaction never changes the cell.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TxAbort::WriteConflict`] if the location is owned by
    /// a concurrent writer.
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn write(&self, tx: &mut Txn<'_>, value: T) -> TxResult<()> {
        tx.write_cell(self, value)
    }

    /// Transactionally read the cell, mapping the committed value through
    /// `f` by reference instead of returning a clone.
    ///
    /// This is the zero-copy sibling of [`TCell::read`] for values that are
    /// expensive to clone or whose clone has side effects (reference-counted
    /// handles, buffers).  The value reference is only valid inside `f`;
    /// `f` **must be a pure function of its argument** — the orec is
    /// re-validated after `f` returns, and on a conflict the result is
    /// discarded and the transaction aborts, so `f` may observe a value
    /// that never validates.
    ///
    /// # Errors
    ///
    /// Same contract as [`TCell::read`].
    #[inline]
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn read_with<R>(&self, tx: &mut Txn<'_>, f: impl FnOnce(&T) -> R) -> TxResult<R> {
        tx.read_cell_with(self, f)
    }

    /// Overwrite the cell outside of any transaction.
    ///
    /// Spin-acquires the ownership record, installs the new value, and
    /// releases the orec at its **unchanged** version.  Intended for
    /// initialization (before the cell is shared) and single-threaded
    /// teardown; concurrent algorithms should use transactions.
    ///
    /// The store is atomic per location (one swap of the data word — no
    /// reader ever observes a torn value), but it is *not* a committed
    /// transactional write: the version does not change, so a concurrent
    /// transaction's snapshot validation cannot order itself against it.
    /// The version deliberately must not be bumped here — orec versions are
    /// commit timestamps, and inventing one the clock never issued breaks
    /// the logical clock: a fresh `Sampled` runtime sits at 0, so a cell
    /// stamped `1` by initialization would make every transaction abort with
    /// `ReadConflict` forever (the clock only advances on commits, and no
    /// transaction can commit).  The old `Hardware` default masked exactly
    /// that livelock.
    pub fn store_atomic(&self, value: T) {
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let o1 = self.orec.raw();
            if let OrecState::Unlocked { version } = Orec::decode_raw(o1) {
                // Use a reserved owner id (u64::MAX >> 1) for non-transactional
                // stores; transaction attempt ids start at 1 and increment, so
                // they can never collide with it in practice.
                const STORE_OWNER: u64 = (1 << 62) - 1;
                if self.orec.try_acquire(version, STORE_OWNER) {
                    let guard = epoch::pin();
                    let old = self.data.swap(to_word(value), Ordering::AcqRel);
                    self.shadow.on_write();
                    if let Some(glue) = reclaim_glue::<T>() {
                        // SAFETY: `old` is unreachable once swapped out, and
                        // the swap happened under `guard`.
                        unsafe { guard.defer_with(old, glue) };
                    }
                    self.orec.release(version);
                    return;
                }
            }
            backoff.snooze();
        }
    }

    /// Read the cell outside of any transaction.
    ///
    /// Spins until it observes the location unlocked with an unchanged
    /// version before and after copying the value, so the returned value is
    /// always a committed one.  Intended for tests, reporting, and
    /// single-threaded teardown; concurrent algorithms should use
    /// transactions.
    pub fn load_atomic(&self) -> T {
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let _guard = epoch::pin();
            let o1 = self.orec.raw();
            if let OrecState::Unlocked { .. } = Orec::decode_raw(o1) {
                // SAFETY: the word is loaded under `_guard`, pinned across
                // the call; a clone of a displaced value fails the re-check
                // below and is dropped.
                let value = unsafe { peek_word(self.word(), T::clone) };
                if self.orec.raw() == o1 {
                    self.shadow.on_read_confirmed();
                    return value;
                }
            }
            backoff.snooze();
        }
    }
}

impl<T> Drop for TCell<T> {
    fn drop(&mut self) {
        // Snapshot custody may still hold payloads this cell displaced; they
        // are dead now (no pinned reader can reach a cell being torn down)
        // and the chain must not survive the address being reused.  Gated so
        // snapshot-free workloads never touch the table.
        if snapshot::any_history() {
            snapshot::purge_cell(self as *const Self as usize);
        }
        let word = *self.data.get_mut();
        // SAFETY: `&mut self` guarantees no concurrent access, and the cell
        // is the one owner of its current word: drop an inline value in
        // place, hand a payload (value and block) back to the recycler.
        unsafe {
            if slab::inline::<T>() {
                drop_word::<T>(word);
            } else {
                slab::free_value_now(word.cast::<T>());
            }
        }
    }
}

impl<T: Clone + Send + Sync + fmt::Debug + 'static> fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TCell")
            .field("value", &self.load_atomic())
            .finish()
    }
}

impl<T: Clone + Send + Sync + Default + 'static> Default for TCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

// SAFETY: all shared-state mutation goes through the orec protocol plus
// atomic swaps of the data word; values are only dropped through epoch-based
// reclamation or with exclusive access.  Values cross threads both ways
// (written by one, read, cloned and eventually dropped by another), hence
// both bounds on both impls.
unsafe impl<T: Send + Sync> Send for TCell<T> {}
unsafe impl<T: Send + Sync> Sync for TCell<T> {}

/// One write-log entry: a pending transactional write, type-erased through
/// monomorphic function pointers instead of a `Box<dyn ...>` object.
///
/// The record is plain data that lives in the pooled write log, so logging a
/// write costs a `Vec` push.  It owns the data word the write will install:
/// commit swaps it into the cell, abort drops it, and until then the cell
/// keeps its committed word, so no other thread ever sees an uncommitted
/// value.  Displaced values are not retired through the epoch one at a time
/// either: they are collected into the transaction's [`epoch::Bag`] and
/// flushed in a single thread-local access when the commit finishes, so a
/// commit with `k` writes pins once and flushes once.
pub(crate) struct WriteEntry {
    pub(crate) cell: *const (),
    old_version: u64,
    /// The data word this attempt's latest write to the cell made.
    new_data: *mut (),
    commit_fn: unsafe fn(*const (), *mut (), u64, &mut epoch::Bag, u64, &CommitCtx<'_>),
    abort_fn: unsafe fn(*const (), *mut (), u64),
}

// SAFETY: contract — `cell` must point at the live `TCell<T>` recorded by
// `WriteEntry::new`, with this transaction owning its orec, and `new_data`
// be the entry's word; called exactly once per entry, from the committing
// transaction, with its guard pinned.
unsafe fn commit_write<T: Send + Sync + 'static>(
    cell: *const (),
    new_data: *mut (),
    old_version: u64,
    retired: &mut epoch::Bag,
    version: u64,
    ctx: &CommitCtx<'_>,
) {
    // SAFETY: forwarded from `WriteEntry::commit`'s contract.  The orec is
    // ours, so nobody else swaps the word; the displaced word is unreachable
    // to new readers, and readers already looking through it are pinned.
    unsafe {
        let cell = &*(cell as *const TCell<T>);
        let old_data = cell.data.swap(new_data, Ordering::AcqRel);
        cell.shadow.on_write();
        if ctx.covers(old_version, version) {
            // A live snapshot pin resolves inside this value's validity
            // window `[old_version, version)`: preserve it in the history
            // table instead of retiring it.  History entries are pointers to
            // a `T`, so an inline word moves into a payload here — the only
            // time one is ever boxed.  The push must precede the orec
            // release below — a pinned reader that observes the new version
            // must find the entry.
            let preserved = if slab::inline::<T>() {
                slab::alloc_value(value_of::<T>(old_data)).cast::<()>()
            } else {
                old_data
            };
            snapshot::push_history(
                cell as *const TCell<T> as usize,
                ctx.tag,
                old_version,
                version,
                preserved,
                slab::drop_glue::<T>(),
            );
        } else if let Some(glue) = reclaim_glue::<T>() {
            retired.defer_with(old_data, glue);
        }
        cell.orec.release(version);
    }
}

// SAFETY: contract — same as `commit_write`, from the aborting transaction
// while it still owns the orec.
unsafe fn abort_write<T: Send + Sync + 'static>(
    cell: *const (),
    new_data: *mut (),
    old_version: u64,
) {
    // SAFETY: forwarded from `WriteEntry::abort`'s contract.  The cell's
    // word never changed, so releasing at the old version restores the orec
    // word readers sampled, with the value they loaded beside it.  The
    // buffered word was never installed and no other thread ever saw it, so
    // it goes at once: released first, so a panicking destructor cannot
    // leave the orec held.
    unsafe {
        (*(cell as *const TCell<T>)).orec.release(old_version);
        if let Some(glue) = reclaim_glue::<T>() {
            glue(new_data);
        }
    }
}

impl WriteEntry {
    pub(crate) fn new<T: Send + Sync + 'static>(
        cell: &TCell<T>,
        old_version: u64,
        value: T,
    ) -> Self {
        Self {
            cell: cell as *const TCell<T> as *const (),
            old_version,
            new_data: to_word(value),
            commit_fn: commit_write::<T>,
            abort_fn: abort_write::<T>,
        }
    }

    /// Install the buffered value, park the displaced one in `retired` (or
    /// preserve it for a live snapshot pin per `ctx`) and release the orec
    /// at `version`.  Called on commit.
    ///
    /// # Safety
    ///
    /// Must only be called by the owning transaction, with the transaction's
    /// epoch guard still pinned; `retired` must be flushed through that
    /// guard before it is unpinned.
    pub(crate) unsafe fn commit(self, retired: &mut epoch::Bag, version: u64, ctx: &CommitCtx<'_>) {
        // SAFETY: forwarded to the monomorphic glue under the same contract.
        unsafe {
            (self.commit_fn)(
                self.cell,
                self.new_data,
                self.old_version,
                retired,
                version,
                ctx,
            )
        }
    }

    /// Release the orec at its old version and drop the buffered value.
    /// Called on abort.
    ///
    /// # Safety
    ///
    /// Must only be called by the owning transaction, while the cell is
    /// alive.
    pub(crate) unsafe fn abort(self) {
        // SAFETY: forwarded to the monomorphic glue under the same contract.
        unsafe { (self.abort_fn)(self.cell, self.new_data, self.old_version) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stm, TxAbort};

    #[test]
    fn new_cell_holds_initial_value() {
        let cell = TCell::new(41u32);
        assert_eq!(cell.load_atomic(), 41);
    }

    #[test]
    fn default_cell_is_default_value() {
        let cell: TCell<u64> = TCell::default();
        assert_eq!(cell.load_atomic(), 0);
    }

    #[test]
    fn debug_includes_value() {
        let cell = TCell::new(7u8);
        assert!(format!("{cell:?}").contains('7'));
    }

    #[test]
    fn write_is_visible_after_commit() {
        let stm = Stm::new();
        let cell = TCell::new(String::from("a"));
        stm.run(|tx| cell.write(tx, String::from("b")));
        assert_eq!(cell.load_atomic(), "b");
    }

    #[test]
    fn read_after_write_sees_own_update() {
        let stm = Stm::new();
        let cell = TCell::new(1u64);
        let observed = stm.run(|tx| {
            cell.write(tx, 2)?;
            cell.read(tx)
        });
        assert_eq!(observed, 2);
    }

    #[test]
    fn multiple_writes_in_one_txn_keep_last() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        stm.run(|tx| {
            for i in 1..=10u64 {
                cell.write(tx, i)?;
            }
            Ok(())
        });
        assert_eq!(cell.load_atomic(), 10);
    }

    #[test]
    fn dropping_cell_reclaims_value() {
        // Mostly a miri/asan target: construct and drop cells holding heap
        // data and ensure no double free / leak panics.
        for _ in 0..100 {
            let cell = TCell::new(vec![1u8; 128]);
            drop(cell);
        }
    }

    #[test]
    fn slab_ineligible_values_still_round_trip() {
        // 8 KiB payloads exceed every block class, exercising the
        // global-allocator fallback across write, overwrite, and
        // store_atomic.
        let stm = Stm::new();
        let cell = TCell::new([1u8; 8192]);
        stm.run(|tx| {
            cell.write(tx, [2u8; 8192])?;
            cell.write(tx, [3u8; 8192])
        });
        assert_eq!(cell.load_atomic()[0], 3);
        cell.store_atomic([4u8; 8192]);
        assert_eq!(cell.load_atomic()[0], 4);
    }

    #[test]
    fn heap_values_survive_slab_round_trips() {
        // Values owning heap data (String) exercise the drop glue: the value
        // must be dropped exactly once when its block is recycled.
        let stm = Stm::new();
        let cell = TCell::new(String::from("start"));
        // Enough churn to cycle blocks through the slab several times; Miri
        // runs a scaled-down count (interpreted execution is ~1000x slower).
        let rounds: usize = if cfg!(miri) { 64 } else { 1000 };
        for i in 0..rounds {
            stm.run(|tx| cell.write(tx, format!("value-{i}")));
        }
        assert_eq!(cell.load_atomic(), format!("value-{}", rounds - 1));
    }

    // ---- Word-sized values: stored in the data word --------------------

    use crate::sync::AtomicUsize;
    use std::num::NonZeroU64;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Every way a value enters and leaves a cell, for one type: `new`,
    /// `load_atomic`, a committed write, read-after-write, two writes in one
    /// transaction, an aborted write, and `store_atomic`.
    fn round_trip<T>(a: T, b: T, c: T)
    where
        T: Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
    {
        let stm = Stm::new();
        let cell = TCell::new(a.clone());
        assert_eq!(cell.load_atomic(), a);
        let seen = stm.run(|tx| {
            let before = cell.read(tx)?;
            cell.write(tx, b.clone())?;
            Ok((before, cell.read(tx)?))
        });
        assert_eq!(seen, (a.clone(), b.clone()));
        assert_eq!(cell.load_atomic(), b);
        stm.run(|tx| {
            cell.write(tx, c.clone())?;
            cell.write(tx, a.clone())
        });
        assert_eq!(cell.load_atomic(), a);
        let aborted = stm.try_once(|tx| -> TxResult<()> {
            cell.write(tx, b.clone())?;
            cell.write(tx, c.clone())?;
            Err(crate::TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        assert_eq!(cell.load_atomic(), a, "an abort leaves the cell unchanged");
        cell.store_atomic(c.clone());
        assert_eq!(cell.load_atomic(), c);
        assert!(stm.run(|tx| cell.read_with(tx, |v| v == &c)));
    }

    #[test]
    fn values_round_trip_in_either_representation() {
        // Inline by the rule (asserted in `slab::tests`)...
        round_trip(0u64, u64::MAX, 7);
        round_trip(-1i64, 0, i64::MIN);
        round_trip(0u8, 255, 1);
        round_trip(false, true, false);
        round_trip(None, NonZeroU64::new(1), NonZeroU64::new(u64::MAX));
        round_trip(None, Some(Box::new(5u32)), Some(Box::new(6u32)));
        round_trip(None, Some(Arc::new(5u32)), Some(Arc::new(6u32)));
        // ...and behind a pointer: padding, a separate tag, two words.
        round_trip((0u32, 0u8), (u32::MAX, 255u8), (1, 1));
        round_trip(None, Some(0u32), Some(u32::MAX));
        round_trip(None, Some(0u64), Some(u64::MAX));
    }

    #[test]
    fn the_all_zero_word_is_a_value() {
        // `None` and `0` are all-zero data words.  A pin that covers one
        // must get it back from history, not a "no payload" shortcut.
        let _serial = crate::snapshot::tests::counter_lock();
        let stm = Arc::new(Stm::new());
        let mark: Box<TCell<Option<NonZeroU64>>> = Box::new(TCell::new(None));
        let count = Box::new(TCell::new(0u64));
        let pin = stm.pin_snapshot();
        stm.run(|tx| {
            mark.write(tx, NonZeroU64::new(9))?;
            count.write(tx, 9)
        });
        assert_eq!(pin.reader().read(&mark, |v| *v), None);
        assert_eq!(pin.reader().read(&count, |v| *v), 0);
        drop(pin);
        assert_eq!(mark.load_atomic(), NonZeroU64::new(9));
        assert_eq!(count.load_atomic(), 9);
    }

    /// An owned thing that counts its drops, for cells whose inline word
    /// owns something: `TCell<Option<Arc<Counted>>>`.
    struct Counted {
        id: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    type Handle = Option<Arc<Counted>>;

    fn handle(id: u64, drops: &Arc<AtomicUsize>) -> Handle {
        Some(Arc::new(Counted {
            id,
            drops: Arc::clone(drops),
        }))
    }

    /// Drive the epoch until `drops` reaches `expected` (displaced words
    /// are dropped by the collector), then some more: it must stop there.
    fn assert_settles_at(drops: &AtomicUsize, expected: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::Relaxed) < expected && Instant::now() < deadline {
            drop(epoch::pin());
        }
        for _ in 0..512 {
            drop(epoch::pin());
        }
        assert_eq!(drops.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn inline_handles_drop_exactly_once_on_every_path() {
        assert!(slab::inline::<Handle>() && needs_drop::<Handle>());
        let stm = Stm::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = TCell::new(handle(0, &drops));

        // Commit: the displaced handle goes, the installed one stays.
        stm.run(|tx| cell.write(tx, handle(1, &drops)));
        assert_settles_at(&drops, 1);

        // Abort: no other thread ever saw the attempt's own handle, so it
        // is gone before `try_once` returns; the cell still holds the old.
        let aborted = stm.try_once(|tx| -> TxResult<()> {
            cell.write(tx, handle(2, &drops))?;
            Err(TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        assert_eq!(cell.load_atomic().map(|c| c.id), Some(1));

        // Two writes in one transaction: the intermediate handle goes too.
        stm.run(|tx| {
            cell.write(tx, handle(3, &drops))?;
            cell.write(tx, handle(4, &drops))
        });
        assert_settles_at(&drops, 4);

        // The same, aborted: both of the attempt's handles go at once.
        let aborted = stm.try_once(|tx| -> TxResult<()> {
            cell.write(tx, handle(5, &drops))?;
            cell.write(tx, handle(6, &drops))?;
            Err(TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        assert_eq!(drops.load(Ordering::Relaxed), 6);
        assert_eq!(cell.load_atomic().map(|c| c.id), Some(4));

        // A body that panics after its write: unwinding rolls it back, and
        // the handle is gone by the time the panic is caught.
        panic_after_body(&stm, |tx| cell.write(tx, handle(7, &drops)));
        assert_eq!(drops.load(Ordering::Relaxed), 7);
        assert_eq!(cell.load_atomic().map(|c| c.id), Some(4));

        // `store_atomic`, to `None` and back.
        cell.store_atomic(None);
        assert_settles_at(&drops, 8);
        cell.store_atomic(handle(8, &drops));
        assert_settles_at(&drops, 8);

        // Dropping the cell drops what it holds, at once.
        drop(cell);
        assert_eq!(drops.load(Ordering::Relaxed), 9);
        assert_settles_at(&drops, 9);
    }

    /// The payload of every panic these tests raise on purpose.
    const DELIBERATE: &str = "deliberate panic in a transaction body";

    /// Run `body` under [`Stm::run`] and panic after it: unwinding drops the
    /// attempt, whose `Drop` rolls it back.  The panic hook stays quiet
    /// about this panic, and only this one.
    fn panic_after_body(stm: &Stm, body: impl Fn(&mut Txn<'_>) -> TxResult<()>) {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<&str>() != Some(&DELIBERATE) {
                    previous(info);
                }
            }));
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.run(|tx| -> TxResult<()> {
                body(tx)?;
                std::panic::panic_any(DELIBERATE)
            })
        }));
        assert!(unwound.is_err());
    }

    /// One writer aborts, over and over, after writing `1` into a cell
    /// committed at `0`, beside three read-only `try_once` readers that run
    /// for up to 3 s and stop at the first sighting of the `1`.  None may
    /// come: a write reaches the data word only at commit, so no read, kept
    /// or discarded, can load an aborted value.  (A write installed in place
    /// and rolled back would return the orec to the word readers sampled,
    /// so a load inside the window would pass the re-check: an orec ABA.)
    fn readers_never_see_an_aborted_write(abort_one: impl Fn(&Stm, &TCell<u64>)) {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let glimpsed = AtomicUsize::new(0);
        let committed = AtomicUsize::new(0);
        let readers_left = AtomicUsize::new(3);
        let deadline = Instant::now() + Duration::from_secs(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while Instant::now() < deadline
                        && glimpsed.load(Ordering::Relaxed) + committed.load(Ordering::Relaxed) == 0
                    {
                        let read = stm.try_once(|tx| {
                            cell.read_with(tx, |&v| {
                                if v == 1 {
                                    glimpsed.fetch_add(1, Ordering::Relaxed);
                                }
                                v
                            })
                        });
                        if matches!(read, Ok(1)) {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    readers_left.fetch_sub(1, Ordering::Relaxed);
                });
            }
            while readers_left.load(Ordering::Relaxed) > 0 {
                abort_one(&stm, &cell);
            }
        });
        let seen = (glimpsed.into_inner(), committed.into_inner());
        assert_eq!(
            seen,
            (0, 0),
            "(closure calls, committed reads) that saw the aborted 1"
        );
        assert_eq!(cell.load_atomic(), 0);
    }

    #[test]
    fn readers_never_see_an_explicitly_aborted_write() {
        readers_never_see_an_aborted_write(|stm, cell| {
            let aborted = stm.try_once(|tx| -> TxResult<()> {
                cell.write(tx, 1)?;
                Err(TxAbort::Explicit)
            });
            assert!(aborted.is_err());
        });
    }

    #[test]
    fn readers_never_see_the_write_of_a_panicking_body() {
        readers_never_see_an_aborted_write(|stm, cell| {
            panic_after_body(stm, |tx| cell.write(tx, 1))
        });
    }

    #[test]
    fn an_attempt_reads_its_latest_buffered_writes() {
        // 1,000 distinct cells written, half of them written again, all read
        // back: each read finds the attempt's newest value in its write log.
        let stm = Stm::new();
        let cells: Vec<TCell<String>> = (0..1_000).map(|i| TCell::new(format!("{i}"))).collect();
        let latest = |i: usize| format!("{i}-{}", ["second", "first"][i % 2]);
        let body = |tx: &mut Txn<'_>| -> TxResult<()> {
            for (i, cell) in cells.iter().enumerate() {
                cell.write(tx, format!("{i}-first"))?;
            }
            for (i, cell) in cells.iter().enumerate().step_by(2) {
                cell.write(tx, format!("{i}-second"))?;
            }
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(cell.read(tx)?, latest(i));
            }
            Ok(())
        };
        let aborted = stm.try_once(|tx| -> TxResult<()> {
            body(tx)?;
            Err(TxAbort::Explicit)
        });
        assert!(aborted.is_err());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.load_atomic(),
                format!("{i}"),
                "an abort changes no cell"
            );
        }
        stm.try_once(body).expect("the next attempt commits");
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.load_atomic(), latest(i));
        }
    }

    #[test]
    fn inline_handle_displaced_under_a_pin_lives_until_the_pin_drops() {
        let _serial = crate::snapshot::tests::counter_lock();
        let stm = Arc::new(Stm::new());
        let drops = Arc::new(AtomicUsize::new(0));
        // Boxed: history is keyed by the cell's address.
        let cell = Box::new(TCell::new(handle(0, &drops)));
        let pin = stm.pin_snapshot();
        let overwrites = 5;
        for id in 1..=overwrites {
            stm.run(|tx| cell.write(tx, handle(id, &drops)));
            let pinned = pin.reader().read(&cell, |v| v.as_ref().map(|c| c.id));
            assert_eq!(pinned, Some(0), "the pin reads the value it covers");
        }
        // Handles 1..overwrites-1 are gone; 0 is in custody, the last in
        // the cell.
        assert_settles_at(&drops, overwrites as usize - 1);
        assert_eq!(cell.load_atomic().map(|c| c.id), Some(overwrites));
        drop(pin);
        assert_settles_at(&drops, overwrites as usize);
        drop(cell);
        assert_settles_at(&drops, overwrites as usize + 1);
    }

    #[test]
    fn inline_handle_churn_balances() {
        // Two writers replace the handle while two readers clone it out of
        // whatever word they load — which may already be displaced.  Every
        // handle ever made must be dropped exactly once: one short and a
        // count leaked, one over and this is a double free.
        let stm = Stm::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = TCell::new(handle(0, &drops));
        let rounds: u64 = if cfg!(miri) { 20 } else { 5_000 };
        // Counted where they are made: a retried attempt makes another.
        let made = AtomicUsize::new(1);
        let writers_left = AtomicUsize::new(2);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let (stm, cell, drops, made) = (&stm, &cell, &drops, &made);
                let (start, writers_left) = (&start, &writers_left);
                scope.spawn(move || {
                    start.wait();
                    for round in 1..=rounds {
                        let id = writer * rounds + round;
                        if round % 7 == 0 {
                            stm.run(|tx| cell.write(tx, None));
                        } else {
                            stm.run(|tx| {
                                made.fetch_add(1, Ordering::Relaxed);
                                cell.write(tx, handle(id, drops))
                            });
                        }
                    }
                    writers_left.fetch_sub(1, Ordering::Relaxed);
                });
            }
            for _ in 0..2 {
                let (stm, cell) = (&stm, &cell);
                let (start, writers_left) = (&start, &writers_left);
                scope.spawn(move || {
                    start.wait();
                    while writers_left.load(Ordering::Relaxed) > 0 {
                        let seen: Handle = stm.run(|tx| cell.read(tx));
                        if let Some(counted) = seen {
                            assert!(counted.id <= 2 * rounds);
                        }
                    }
                });
            }
        });
        let made = made.into_inner();
        let held = usize::from(cell.load_atomic().is_some());
        assert_settles_at(&drops, made - held);
        drop(cell);
        assert_settles_at(&drops, made);
    }
}
