//! MVCC snapshot pins: version custody for time-travel reads.
//!
//! A [`SnapshotPin`] pins one clock version `p` on an [`Stm`]
//! runtime.  While the pin is live, every value a transaction *displaces*
//! whose validity window `[old_version, wv)` contains a pinned version is
//! **preserved** in a process-global history side table instead of being
//! retired through the epoch, and the pin's [`PinnedReader`] resolves any
//! cell at exactly version `p`: the current payload when the cell's orec
//! version is `<= p`, otherwise the newest preserved payload whose start
//! version is `<= p`.  Dropping a pin trims the history entries no remaining
//! pin can reach, so retention is **bounded by live pins, not leaked**.
//!
//! # Why the preservation rule is a window test, not a min-pin horizon
//!
//! Preserving "everything newer than the oldest pin" (the bundled-reference
//! baseline's horizon rule) lets one long-lived snapshot accumulate an
//! unbounded chain per cell under churn.  The window rule preserves a
//! displaced payload only when some pin actually sits inside its validity
//! window — after a pin `p`, the *first* commit displacing a payload with
//! `old_version <= p` preserves it, and every later commit on that cell has
//! `old_version > p` (old versions are prior commit stamps), so each live
//! pin costs **at most one** history entry per cell, no matter how hot the
//! cell is.
//!
//! # The pin / collect protocol
//!
//! Registration uses a grow-only chain of version slots: the first slot is
//! inline in the registry, and a pinner that finds every slot taken appends
//! one more, so any number of pins may be live and pinning never waits.
//! Pinning is two-phase: a slot is first claimed with a `FREE -> PENDING`
//! CAS and the live count is raised, *then* the clock is sampled and the
//! version published.  A committer collects pins **after** its clock tick
//! (with a `SeqCst` fence in between) by walking the whole chain; a slot
//! still `PENDING` is treated as covering every window.  This closes the
//! store-buffer race: if a committer misses a pin entirely, the pinner's
//! clock sample is ordered after the committer's tick, so the pinned version
//! is `>= wv` and outside every window the commit displaces.  (For the
//! sampled clock this follows from the `SeqCst` ordering of its shared
//! counter; for [`ClockKind::Hardware`](crate::ClockKind) it additionally
//! relies on the invariant-TSC monotonicity assumption the STM already makes
//! for TL2 itself.)  An appended slot's `OnceLock` init is sequenced before
//! the pinner's fence, so the same fence pair covers a slot appended while a
//! collect walks the chain.
//!
//! # Custody and reclamation
//!
//! History entries are freed on three paths:
//!
//! * **Drop-trim** — dropping a pin samples the clock (the sweep's
//!   *horizon*), re-collects the surviving pins and frees every entry whose
//!   validity window `[start, end)` ends at or below the horizon and holds
//!   no surviving pin.  The horizon stands for the pins the collect cannot
//!   see: one registered after it has a version at or above the horizon, and
//!   the sweep — which takes a while — must not free what a commit preserves
//!   for such a pin in the meantime.  Frees are routed through the epoch
//!   (`defer_with`): an epoch-pinned reader on the *current-value* path may
//!   still hold a payload that a concurrent commit just moved into history.
//! * **Cell teardown** — [`TCell`]'s destructor purges its own chain
//!   immediately (the cell is provably unreachable), which also protects the
//!   table against address reuse.
//! * **Full drain** — when the last pin of a runtime drops, its drop-trim
//!   has no survivor to keep anything for, so every chain tagged with that
//!   runtime is freed wholesale.
//!
//! A commit that collected a pin may push its entry *after* a concurrent
//! drop-trim ran, or tick past the trim's horizon while it runs; such an
//! entry is retained transiently and reclaimed by the next trim or by cell
//! teardown — bounded by the number of in-flight commits at drop time.
//!
//! Chains are keyed by cell address, so custody requires cells to be
//! **address-stable** between a preserving commit and their teardown.  This
//! is automatic for every real cell (they live inside heap-allocated nodes,
//! and a cell shared with other threads cannot be moved at all); only
//! single-threaded code that moves an exclusively-owned cell while a pin
//! holds its history could violate it.

use crate::sync::{fence, AtomicU64, AtomicUsize, Ordering};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crossbeam_epoch::{self as epoch, Guard};

use crate::orec::{Orec, OrecState};
use crate::tcell::{peek_word, TCell};
use crate::txn::Stm;

/// Slot value: no pin registered here.
const FREE: u64 = u64::MAX;
/// Slot value: a pin is being registered; its version is not yet known, so
/// collectors must treat it as covering every window.
const PENDING: u64 = u64::MAX - 1;

/// One pin slot (`FREE`, `PENDING` or a published version) and the link to
/// the next; a link, once set, is never changed.
struct Slot {
    version: AtomicU64,
    next: OnceLock<Box<Slot>>,
}

impl Slot {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(FREE),
            next: OnceLock::new(),
        }
    }
}

/// The per-runtime registry of pinned snapshot versions.
pub(crate) struct SnapshotRegistry {
    /// Head of the grow-only slot chain.
    first: Slot,
    /// Fast gate for the commit path: number of live pins (including ones
    /// still `PENDING`).  Writers skip pin collection entirely when zero.
    live: AtomicUsize,
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        Self {
            first: Slot::new(),
            live: AtomicUsize::new(0),
        }
    }

    /// Every slot, in chain order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        std::iter::successors(Some(&self.first), |slot| slot.next.get().map(Box::as_ref))
    }

    /// The version word of the slot at `index` in the chain.
    fn slot(&self, index: usize) -> &AtomicU64 {
        let slot = self.slots().nth(index);
        &slot.expect("slots are never unlinked").version
    }

    /// Claim a slot and mark it `PENDING`, appending one when all are taken;
    /// returns the slot's index and version word.
    fn acquire_slot(&self) -> (usize, &AtomicU64) {
        let mut slot = &self.first;
        let mut index = 0;
        loop {
            // SC: slot claims and committer collects must sit in one total
            // order — a committer that misses a claimed slot must be able to
            // prove it via the fence protocol.
            if slot
                .version
                .compare_exchange(FREE, PENDING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return (index, &slot.version);
            }
            slot = slot.next.get_or_init(|| Box::new(Slot::new()));
            index += 1;
        }
    }

    /// Number of live pins (commit-path gate).
    #[inline]
    pub(crate) fn live(&self) -> usize {
        // SC: the commit-path gate must not be reorderable around the
        // committer's clock tick (see the fence discipline in `txn.rs`).
        self.live.load(Ordering::SeqCst)
    }

    /// Collect the currently registered pin versions into `pins`, returning
    /// `true` when a `PENDING` slot was seen (the caller must then treat
    /// every window as covered).  Callers must issue a `SeqCst` fence after
    /// the event they order against (clock tick, slot release) and before
    /// calling this.
    pub(crate) fn collect_into(&self, pins: &mut Vec<u64>) -> bool {
        let mut pending = false;
        for slot in self.slots() {
            // SC: paired with the pinner's slot-claim/publish stores; the
            // caller's fence plus these loads make missed-pin proofs sound.
            match slot.version.load(Ordering::SeqCst) {
                FREE => {}
                PENDING => pending = true,
                version => pins.push(version),
            }
        }
        pending
    }
}

impl Drop for SnapshotRegistry {
    fn drop(&mut self) {
        // Unlink slot by slot: dropping the chain whole would recurse once
        // per slot.
        let mut next = self.first.next.take();
        while let Some(mut slot) = next {
            next = slot.next.take();
        }
    }
}

impl fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("live", &self.live())
            .finish()
    }
}

/// Everything a commit needs to decide preservation, collected once per
/// commit (between the clock tick and the write-log drain).
pub(crate) struct CommitCtx<'a> {
    /// Pin versions collected after the tick.
    pub(crate) pins: &'a [u64],
    /// A `PENDING` slot was seen: conservatively cover every window.
    pub(crate) pending: bool,
    /// Identifies the committing runtime (chains are tagged so one runtime's
    /// trims never touch another's custody).
    pub(crate) tag: usize,
}

impl CommitCtx<'_> {
    /// An empty context: nothing is preserved (the pre-snapshot fast path).
    pub(crate) const NONE: CommitCtx<'static> = CommitCtx {
        pins: &[],
        pending: false,
        tag: 0,
    };

    /// True when some collected pin lies inside the displaced payload's
    /// validity window `[old_version, wv)`.
    #[inline]
    pub(crate) fn covers(&self, old_version: u64, wv: u64) -> bool {
        self.pending || self.pins.iter().any(|&p| p >= old_version && p < wv)
    }
}

// ---------------------------------------------------------------------------
// The history side table.
//
// Process-global and keyed by cell address, so `TCell` stays two words: a
// per-cell history pointer would double the footprint of the skip hash's
// link cells for a feature that is idle in most workloads.  All access is
// under a shard mutex; the snapshot read path takes it only on the
// (orec-version > p) history branch.
// ---------------------------------------------------------------------------

/// One preserved payload and its validity window `[start, end)`: installed
/// by the commit at `start`, displaced by the commit at `end`.
struct HistoryEntry {
    start: u64,
    end: u64,
    data: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: entries hold exclusively-owned displaced payloads of `Send + Sync`
// cell types; the table hands out only shared references under its lock.
unsafe impl Send for HistoryEntry {}

/// Per-cell chain of preserved payloads, newest first (strictly decreasing
/// `start`), tagged with the owning runtime.
struct Chain {
    tag: usize,
    entries: Vec<HistoryEntry>,
}

const SHARD_COUNT: usize = 16;

struct Shard {
    chains: Mutex<HashMap<usize, Chain>>,
}

fn shards() -> &'static [Shard; SHARD_COUNT] {
    static TABLE: std::sync::OnceLock<[Shard; SHARD_COUNT]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|_| Shard {
            chains: Mutex::new(HashMap::new()),
        })
    })
}

#[inline]
fn shard_for(cell: usize) -> &'static Shard {
    // Cells are at least 16-byte blocks; drop the dead low bits before
    // folding into the shard index.
    &shards()[(cell >> 4) % SHARD_COUNT]
}

#[inline]
fn lock_shard(shard: &Shard) -> std::sync::MutexGuard<'_, HashMap<usize, Chain>> {
    shard.chains.lock().unwrap_or_else(|e| e.into_inner())
}

/// Total history entries alive in the process (gates the `TCell::drop`
/// purge so teardown of snapshot-free maps never touches the table).
///
/// FACADE-EXEMPT: these three are deliberately plain `std` atomics, not
/// `crate::sync` ones: they are process-global bookkeeping whose values
/// survive across model executions (an aborted execution can leak entries),
/// so instrumenting them would make the checker's schedule-point sequence
/// depend on cross-run state and break replay determinism.  They
/// synchronize nothing.
static LIVE_ENTRIES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// Displaced payloads preserved for snapshots (process-wide counter; see the
/// baseline note in `stm::stats`).
static PRESERVED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Preserved payloads freed back (trim, drain, or cell teardown).
static FREED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of payloads preserved for snapshots.
pub(crate) fn preserved_total() -> u64 {
    PRESERVED.load(Ordering::Relaxed)
}

/// Process-wide count of preserved payloads freed again.
pub(crate) fn freed_total() -> u64 {
    FREED.load(Ordering::Relaxed)
}

/// Current number of live history entries (the custody backlog gauge).
pub fn live_history_entries() -> usize {
    LIVE_ENTRIES.load(Ordering::Relaxed)
}

/// True when any history entry exists (the cheap gate for teardown purges).
#[inline]
pub(crate) fn any_history() -> bool {
    LIVE_ENTRIES.load(Ordering::Relaxed) > 0
}

/// Preserve `data` (displaced at commit version `end`, valid since `start`)
/// for the cell at `cell`.  Called by the commit glue *before* the orec is
/// released at `end`, so any reader that observes the new version finds the
/// entry.
pub(crate) fn push_history(
    cell: usize,
    tag: usize,
    start: u64,
    end: u64,
    data: *mut (),
    drop_fn: unsafe fn(*mut ()),
) {
    let mut chains = lock_shard(shard_for(cell));
    let chain = chains.entry(cell).or_insert_with(|| Chain {
        tag,
        entries: Vec::new(),
    });
    chain.tag = tag;
    debug_assert!(
        chain
            .entries
            .first()
            .is_none_or(|newest| newest.start < start),
        "history entries must be pushed in commit order"
    );
    chain.entries.insert(
        0,
        HistoryEntry {
            start,
            end,
            data,
            drop_fn,
        },
    );
    drop(chains);
    LIVE_ENTRIES.fetch_add(1, Ordering::Relaxed);
    PRESERVED.fetch_add(1, Ordering::Relaxed);
}

/// Resolve the cell at `cell` at pinned version `p` from history: applies
/// `f` to the newest preserved payload with `start <= p`, under the shard
/// lock (the entry cannot be trimmed mid-read).  Returns `None` when the
/// chain holds no entry old enough.
///
/// # Safety
///
/// `cell` must be the address of a live `TCell<T>` and every entry pushed
/// for it must hold a `T` payload (guaranteed by keying on the cell address).
unsafe fn read_history<T, R>(cell: usize, p: u64, f: impl FnOnce(&T) -> R) -> Option<R> {
    let chains = lock_shard(shard_for(cell));
    let chain = chains.get(&cell)?;
    let entry = chain.entries.iter().find(|entry| entry.start <= p)?;
    // SAFETY: per the function contract the payload is a live `T`; the shard
    // lock keeps the entry alive for the duration of `f`.
    Some(f(unsafe { &*(entry.data as *const T) }))
}

/// Entry count and oldest `start` of the history chain of the cell at `cell`
/// (what a failed [`read_history`] reports, to tell a chain trimmed too far
/// from one that never existed).
fn history_shape(cell: usize) -> (usize, Option<u64>) {
    let chains = lock_shard(shard_for(cell));
    let entries = chains.get(&cell).map_or(&[][..], |chain| &chain.entries);
    (entries.len(), entries.last().map(|entry| entry.start))
}

/// Free every history entry belonging to the cell at `cell` immediately.
/// Called from `TCell::drop`: exclusive access means no pinned reader can
/// reach the cell, so its history is dead regardless of live pins — and the
/// address may be reused by a future cell, so the chain *must* go now.
pub(crate) fn purge_cell(cell: usize) {
    let chain = lock_shard(shard_for(cell)).remove(&cell);
    if let Some(chain) = chain {
        let count = chain.entries.len();
        for entry in chain.entries {
            // SAFETY: the destructor's exclusive access guarantees no reader
            // holds this payload.
            unsafe { (entry.drop_fn)(entry.data) };
        }
        LIVE_ENTRIES.fetch_sub(count, Ordering::Relaxed);
        FREED.fetch_add(count as u64, Ordering::Relaxed);
    }
}

/// Trim the history chains tagged `tag`, keeping only entries that some pin
/// in `pins` resolves through or that outlive `horizon` — the clock reading
/// taken before `pins` was collected, at or below the version of every pin
/// the collect could not see.  `pending` keeps everything (a pin of unknown
/// version is mid-registration).  Frees ride the epoch: a pinned
/// current-path reader may hold a payload that just transitioned into
/// history.
fn trim_tagged(tag: usize, pins: &[u64], pending: bool, horizon: u64) {
    if pending {
        return;
    }
    let guard = epoch::pin();
    let mut freed = 0usize;
    for shard in shards() {
        let mut chains = lock_shard(shard);
        chains.retain(|_, chain| {
            if chain.tag != tag {
                return true;
            }
            chain.entries.retain(|entry| {
                let needed =
                    entry.end > horizon || pins.iter().any(|&p| p >= entry.start && p < entry.end);
                if !needed {
                    freed += 1;
                    // SAFETY: no live pin resolves through this entry, and
                    // current-path readers are covered by the epoch defer.
                    unsafe { guard.defer_with(entry.data, entry.drop_fn) };
                }
                needed
            });
            !chain.entries.is_empty()
        });
    }
    if freed > 0 {
        LIVE_ENTRIES.fetch_sub(freed, Ordering::Relaxed);
        FREED.fetch_add(freed as u64, Ordering::Relaxed);
    }
}

/// An RAII pin holding one snapshot version live on an [`Stm`] runtime.
///
/// Created by [`Stm::pin_snapshot`]; cells resolve at the pinned version
/// through the pin's [`reader`](SnapshotPin::reader).  While the pin is
/// live, displaced values whose validity window contains the pinned version
/// are preserved; dropping the pin releases custody and trims whatever no
/// other pin needs.
pub struct SnapshotPin {
    stm: Arc<Stm>,
    slot: usize,
    version: u64,
}

impl SnapshotPin {
    /// Register a pin on `stm` at the clock's current version.
    pub(crate) fn new(stm: Arc<Stm>) -> Self {
        let registry = stm.snapshot_registry();
        let (slot, word) = registry.acquire_slot();
        // SC: the live-count raise must join the registry/clock total order.
        #[cfg(not(model_mutation))]
        registry.live.fetch_add(1, Ordering::SeqCst);
        // SC: order the slot claim and live-count raise before the clock
        // sample: a committer that misses this pin must have ticked after
        // the sample below, putting its windows entirely above our version.
        fence(Ordering::SeqCst);
        let version = stm.clock_now();
        // SC: `model_mutation` builds re-seed the publish/tick race by
        // raising the live count only after the clock sample: a committer
        // can now tick between our sample and the raise, see `live() == 0`,
        // and skip preserving a payload whose window contains our version
        // (see docs/VERIFICATION.md).
        #[cfg(model_mutation)]
        registry.live.fetch_add(1, Ordering::SeqCst);
        word.store(version, Ordering::SeqCst);
        Self { stm, slot, version }
    }

    /// The pinned clock version: reads through this pin observe exactly the
    /// state at this version.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True when this pin belongs to `stm`'s clock domain.  Resolving a cell
    /// through a foreign runtime's pin compares incomparable clocks.
    pub fn belongs_to(&self, stm: &Stm) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.stm), stm)
    }

    /// A reader of cells at this pin's version: the one way to make a
    /// pinned read.  Take one per query; it pins the calling thread's epoch
    /// until dropped, re-pinning as it goes (see [`PinnedReader`]).
    pub fn reader(&self) -> PinnedReader<'_> {
        PinnedReader {
            pin: self,
            guard: epoch::pin(),
            left: READS_PER_GUARD,
        }
    }
}

impl fmt::Debug for SnapshotPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotPin")
            .field("version", &self.version)
            .finish()
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let registry = self.stm.snapshot_registry();
        // SC: unpin in the registry's total order, then re-collect the
        // survivors and release everything only we needed; the fence pairs
        // with the committer's collect-side fence.
        registry.slot(self.slot).store(FREE, Ordering::SeqCst);
        registry.live.fetch_sub(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Sampled before the collect: a pin the collect misses claims its
        // slot after the collect's load of it, and samples its version after
        // that — at or above this reading.
        let horizon = self.stm.clock_now();
        let mut pins = Vec::new();
        let pending = registry.collect_into(&mut pins);
        trim_tagged(Arc::as_ptr(&self.stm) as usize, &pins, pending, horizon);
    }
}

/// Reads a [`PinnedReader`] makes under one epoch guard before it re-pins.
/// A full snapshot scan reads a link, a mark and a value per node, so this
/// re-pins every 256 nodes; a 500k-key scan read the same with these
/// re-pins as with none (docs/PERF.md, "One pinned reader").
const READS_PER_GUARD: u32 = 768;

/// Reads cells at a [`SnapshotPin`]'s version, made by
/// [`SnapshotPin::reader`].
///
/// The reader holds one epoch guard across its reads, so a walk of
/// thousands of them pins its thread once rather than once per read (each
/// pin is a `SeqCst` fence), and re-pins every few hundred reads so that a
/// long walk never holds reclamation back for longer.  The guard covers
/// the read in progress only: a handle a walk keeps from one read to the
/// next must be kept alive by the pin's custody, never by the guard.
///
/// A guard pins the thread that took it, so the reader is neither `Send`
/// nor `Sync`.
pub struct PinnedReader<'a> {
    pin: &'a SnapshotPin,
    guard: Guard,
    /// Reads left before the next re-pin.
    left: u32,
}

impl fmt::Debug for PinnedReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinnedReader")
            .field("version", &self.pin.version)
            .finish()
    }
}

impl PinnedReader<'_> {
    /// Resolve `cell` at the pinned version, mapping the value through `f`
    /// by reference.
    ///
    /// Returns exactly the value that was committed at the pin's version:
    /// the current value when the cell has not been written since the pin,
    /// otherwise the value preserved for the pin by the displacing commit
    /// (see the [module docs](self) for the custody protocol).  Never
    /// aborts and never conflicts with writers — at worst it spins briefly
    /// while the location is locked by an in-flight commit.
    ///
    /// `f` must be a pure function of its argument: on the current-value
    /// path the orec is re-validated after `f` runs and a concurrent change
    /// retries, so `f` may observe a value that is then discarded.
    ///
    /// # Panics
    ///
    /// Panics when the cell was written after the pin and the history table
    /// holds no entry old enough for it — custody was broken, or the pin
    /// belongs to a different [`Stm`] runtime than the one whose
    /// transactions version this cell (clock domains are incomparable, and
    /// nothing was ever preserved for a foreign pin).  The message carries
    /// what is needed to tell which: the cell's address, both versions, and
    /// the shape of the cell's history chain.
    //
    // `inline(always)`: the body of a full pinned scan's loop, made once per
    // link, mark and value.  Left to the inliner it stayed a call there, and
    // `Snapshot::to_vec` of ~20,000 pairs went from ~0.21 to ~0.26 ms
    // (2-vCPU x86-64 VM).
    #[inline(always)]
    pub fn read<T, R>(&mut self, cell: &TCell<T>, f: impl Fn(&T) -> R) -> R {
        self.left -= 1;
        if self.left == 0 {
            self.repin();
        }
        let p = self.pin.version;
        let backoff = crossbeam_utils::Backoff::new();
        loop {
            let o1 = cell.orec.raw();
            match Orec::decode_raw(o1) {
                OrecState::Unlocked { version } if version <= p => {
                    // Not written since the pin: the current value *is* the
                    // value at version `p`.  Same validated optimistic read
                    // as `load_atomic`, minus the clone.
                    // SAFETY: the word is loaded while `self.guard` pins this
                    // thread, across the call; a result computed from a
                    // displaced value fails the re-check below and is
                    // discarded.
                    let result = unsafe { peek_word(cell.word(), &f) };
                    if cell.orec.raw() == o1 {
                        cell.shadow.on_read_confirmed();
                        return result;
                    }
                }
                OrecState::Unlocked { version } => {
                    // Written after the pin: the value at `p` was displaced
                    // and — because the displacing commit either collected
                    // this pin or its stamp precedes it — preserved in the
                    // history table (push precedes the orec release we just
                    // observed, so the entry is visible).
                    let address = cell as *const TCell<T> as usize;
                    // SAFETY: `cell` is a live `TCell<T>`, so every history
                    // entry keyed on its address holds a `T`.
                    match unsafe { read_history::<T, R>(address, p, &f) } {
                        Some(result) => return result,
                        None => {
                            let (entries, oldest) = history_shape(address);
                            panic!(
                                "snapshot pin at version {p} found no history for cell \
                                 {address:#x} at version {version}: its chain holds \
                                 {entries} entries, oldest start {oldest:?}"
                            )
                        }
                    }
                }
                OrecState::Locked { .. } => {}
            }
            backoff.snooze();
        }
    }

    #[cold]
    fn repin(&mut self) {
        self.guard.repin();
        self.left = READS_PER_GUARD;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sync::AtomicBool;
    use std::sync::mpsc::RecvTimeoutError;

    /// The history table and its gauges are process-global; tests that
    /// create entries and assert on [`live_history_entries`] serialize here
    /// so parallel test threads cannot shift the counts mid-assertion, and
    /// so does every test of another module that displaces a value under a
    /// pin.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn registry_collects_published_pins_and_flags_pending() {
        let registry = SnapshotRegistry::new();
        assert_eq!(registry.live(), 0);
        let (_, word) = registry.acquire_slot();
        // SC: mirror the pin path's registry ordering in the test driver.
        registry.live.fetch_add(1, Ordering::SeqCst);
        let mut pins = Vec::new();
        assert!(
            registry.collect_into(&mut pins),
            "a claimed-but-unpublished slot must read as pending"
        );
        assert!(pins.is_empty());
        // SC: publish and unpin with the same orderings the real paths use.
        word.store(41, Ordering::SeqCst);
        pins.clear();
        assert!(!registry.collect_into(&mut pins));
        assert_eq!(pins, vec![41]);
        word.store(FREE, Ordering::SeqCst);
        registry.live.fetch_sub(1, Ordering::SeqCst);
        pins.clear();
        assert!(!registry.collect_into(&mut pins));
        assert!(pins.is_empty());
    }

    #[test]
    fn pinning_never_waits_for_a_slot() {
        let _serial = counter_lock();
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let stm = Arc::new(Stm::new());
            let cell = Box::new(TCell::new(0u64));
            let baseline = live_history_entries();
            let pins: Vec<SnapshotPin> = (0..1_000u64)
                .map(|i| {
                    stm.run(|tx| cell.write(tx, i));
                    stm.pin_snapshot()
                })
                .collect();
            for (i, pin) in pins.iter().enumerate() {
                assert_eq!(pin.reader().read(&cell, |v| *v), i as u64);
            }
            drop(pins);
            assert_eq!(live_history_entries(), baseline);

            let threads = 8;
            let barrier = Arc::new(std::sync::Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let stm = Arc::clone(&stm);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let pins: Vec<SnapshotPin> =
                            (0..1_000).map(|_| stm.pin_snapshot()).collect();
                        // Every thread holds all its pins at once.
                        barrier.wait();
                        drop(pins);
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            assert_eq!(stm.snapshot_registry().live(), 0);
            done.send(()).unwrap();
        });
        // A pin that spins for a free slot would hang the suite; time out
        // instead.  A disconnect means the worker panicked: join re-raises it.
        if let Err(RecvTimeoutError::Timeout) =
            finished.recv_timeout(std::time::Duration::from_secs(30))
        {
            panic!("pinning waited for a slot");
        }
        worker.join().unwrap();
    }

    #[test]
    fn commit_ctx_window_test() {
        let ctx = CommitCtx {
            pins: &[10],
            pending: false,
            tag: 0,
        };
        assert!(ctx.covers(10, 11), "pin at the window's start is inside");
        assert!(ctx.covers(5, 11));
        assert!(!ctx.covers(11, 20), "pin below the window is outside");
        assert!(!ctx.covers(5, 10), "pin at wv is outside (half-open)");
        assert!(CommitCtx::NONE.pins.is_empty());
        assert!(!CommitCtx::NONE.covers(0, u64::MAX >> 2));
        let pending = CommitCtx {
            pins: &[],
            pending: true,
            tag: 0,
        };
        assert!(pending.covers(100, 101), "pending covers every window");
    }

    #[test]
    fn pin_resolves_old_values_and_drop_drains_history() {
        let _serial = counter_lock();
        let stm = Arc::new(Stm::new());
        let cell = TCell::new(1u64);
        stm.run(|tx| cell.write(tx, 2));

        let backlog_before = live_history_entries();
        let pin = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 3));
        stm.run(|tx| cell.write(tx, 4));

        assert_eq!(pin.reader().read(&cell, |v| *v), 2);
        assert_eq!(cell.load_atomic(), 4);
        assert!(
            live_history_entries() > backlog_before,
            "a covered displacement must be preserved"
        );
        // Only the first post-pin displacement is preserved; the second's
        // window starts above the pin.
        drop(pin);
        assert_eq!(
            live_history_entries(),
            backlog_before,
            "dropping the last pin must drain this runtime's custody"
        );
        assert_eq!(cell.load_atomic(), 4);
    }

    #[test]
    fn two_pins_resolve_their_own_versions() {
        let _serial = counter_lock();
        let stm = Arc::new(Stm::new());
        let cell = TCell::new(10u64);
        let p1 = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 20));
        let p2 = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 30));

        assert_eq!(p1.reader().read(&cell, |v| *v), 10);
        assert_eq!(p2.reader().read(&cell, |v| *v), 20);
        assert_eq!(cell.load_atomic(), 30);

        drop(p1);
        // p2's entry must survive p1's trim.
        assert_eq!(p2.reader().read(&cell, |v| *v), 20);
        drop(p2);
    }

    #[test]
    fn a_sweep_spares_what_was_preserved_for_a_pin_it_never_saw() {
        // A dropping pin collects its survivors, then sweeps the table —
        // and the sweep takes a while.  A pin registered in between, and a
        // commit preserving a value for it, must not lose that value to the
        // sweep's out-of-date survivor list.
        let _serial = counter_lock();
        let stm = Arc::new(Stm::new());
        let cell = Box::new(TCell::new(1u64));
        // The dropper's collect: nobody else is pinned.
        let horizon = stm.clock_now();
        let late = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 2));
        // The dropper's sweep arrives at the cell's shard only now.
        trim_tagged(Arc::as_ptr(&stm) as usize, &[], false, horizon);
        assert_eq!(late.reader().read(&cell, |v| *v), 1);
        drop(late);
    }

    #[test]
    fn cell_teardown_purges_its_history() {
        let _serial = counter_lock();
        let stm = Arc::new(Stm::new());
        // Boxed: history chains are keyed by cell address, so custody
        // requires the cell not move between the preserving commit and its
        // teardown (`drop(cell)` of a stack local would relocate it).  Every
        // real cell lives inside a heap-allocated node and a shared cell
        // cannot be moved at all.
        let cell = Box::new(TCell::new(String::from("old")));
        let pin = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, String::from("new")));
        let backlog = live_history_entries();
        assert!(backlog > 0);
        drop(cell);
        assert!(
            live_history_entries() < backlog,
            "dropping the cell must purge its preserved entries"
        );
        drop(pin);
    }

    #[test]
    fn pin_sees_values_committed_before_it() {
        let stm = Arc::new(Stm::new());
        let cell = TCell::new(7u64);
        let pin = stm.pin_snapshot();
        // No writes since the pin: resolution takes the current-value path.
        assert_eq!(pin.reader().read(&cell, |v| *v), 7);
        drop(pin);
    }

    #[test]
    fn belongs_to_distinguishes_runtimes() {
        let a = Arc::new(Stm::new());
        let b = Arc::new(Stm::new());
        let pin = a.pin_snapshot();
        assert!(pin.belongs_to(&a));
        assert!(!pin.belongs_to(&b));
    }
    /// A reader's guard holds back the reclamation of what is retired while
    /// it is held, and lets it go once the reader re-pins: a long walk holds
    /// the epoch back by one guard's worth of reads, never for the walk.
    #[test]
    fn a_reader_holds_reclamation_back_only_until_it_re_pins() {
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        // Collection cycles run on pins of threads not pinned already; a
        // fresh thread runs one every 64 of them.
        let collect_elsewhere = || {
            std::thread::spawn(|| (0..256).for_each(|_| drop(epoch::pin())))
                .join()
                .expect("the collecting thread")
        };
        let stm = Arc::new(Stm::new());
        let counter = TCell::new(0u64);
        let pin = stm.pin_snapshot();
        let mut reader = pin.reader();

        // Retired through the epoch, not the pin's custody: the cell belongs
        // to a runtime with no pins.  Written on a thread that then exits,
        // so its retirements are published at once.
        let freed = Arc::new(AtomicBool::new(false));
        let cell = TCell::new(Arc::new(Flag(Arc::clone(&freed))));
        std::thread::scope(|s| {
            s.spawn(|| {
                let other = Stm::new();
                let fresh = Arc::new(Flag(Arc::new(AtomicBool::new(false))));
                other.run(|tx| cell.write(tx, Arc::clone(&fresh)));
            });
        });
        for _ in 0..8 {
            collect_elsewhere();
        }
        assert!(
            !freed.load(Ordering::Relaxed),
            "freed while a reader's guard was held"
        );

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !freed.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
            for _ in 0..READS_PER_GUARD {
                assert_eq!(reader.read(&counter, |v| *v), 0);
            }
            collect_elsewhere();
        }
        assert!(
            freed.load(Ordering::Relaxed),
            "still held after the reader re-pinned"
        );
    }
}
