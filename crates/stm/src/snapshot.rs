//! MVCC snapshot pins: version custody for time-travel reads.
//!
//! A [`SnapshotPin`] pins one clock version `p` on an [`Stm`]
//! runtime.  While the pin is live, every value a transaction *displaces*
//! whose validity window `[old_version, wv)` contains a pinned version is
//! **preserved** in a process-global history side table instead of being
//! retired through the epoch, and [`TCell::read_pinned_with`](crate::TCell::read_pinned_with) resolves any
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
//! Registration uses a fixed slot array of versions.  Pinning is two-phase:
//! the slot is first claimed with a `FREE -> PENDING` CAS and the live count
//! is raised, *then* the clock is sampled and the version published.  A
//! committer collects pins **after** its clock tick (with a `SeqCst` fence in
//! between); a slot still `PENDING` is treated as covering every window.
//! This closes the store-buffer race: if a committer misses a pin entirely,
//! the pinner's clock sample is ordered after the committer's tick, so the
//! pinned version is `>= wv` and outside every window the commit displaces.
//! (For the counter clocks this follows from the `SeqCst` ordering of the
//! shared counter; for [`ClockKind::Hardware`](crate::ClockKind) it
//! additionally relies on the invariant-TSC monotonicity assumption the STM
//! already makes for TL2 itself.)
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
//! * **Cell teardown** — [`TCell`](crate::TCell)'s destructor purges its own chain
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
use std::sync::{Arc, Mutex};

use crossbeam_epoch as epoch;
use crossbeam_utils::Backoff;

use crate::txn::Stm;

/// Slot value: no pin registered here.
const FREE: u64 = u64::MAX;
/// Slot value: a pin is being registered; its version is not yet known, so
/// collectors must treat it as covering every window.
const PENDING: u64 = u64::MAX - 1;

/// Number of pin slots per runtime; pinning spins when all are taken.
const SLOTS: usize = 128;

/// The per-runtime registry of pinned snapshot versions.
pub(crate) struct SnapshotRegistry {
    slots: Box<[AtomicU64]>,
    /// Fast gate for the commit path: number of live pins (including ones
    /// still `PENDING`).  Writers skip pin collection entirely when zero.
    live: AtomicUsize,
    /// One past the highest slot index ever used, so collection scans only
    /// the prefix that can hold pins.
    watermark: AtomicUsize,
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| AtomicU64::new(FREE)).collect(),
            live: AtomicUsize::new(0),
            watermark: AtomicUsize::new(0),
        }
    }

    /// Claim a slot and mark it `PENDING`; spins when all slots are taken.
    fn acquire_slot(&self) -> usize {
        let backoff = Backoff::new();
        loop {
            // SC: slot claims, the watermark raise, and committer collects
            // must all sit in one total order — a committer that misses a
            // claimed slot must be able to prove it via the fence protocol.
            for (index, slot) in self.slots.iter().enumerate() {
                if slot
                    .compare_exchange(FREE, PENDING, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.watermark.fetch_max(index + 1, Ordering::SeqCst);
                    return index;
                }
            }
            backoff.snooze();
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
        // SC: paired with the pinner's slot-claim/publish stores; the
        // caller's fence plus these loads make missed-pin proofs sound.
        let limit = self.watermark.load(Ordering::SeqCst).min(self.slots.len());
        for slot in &self.slots[..limit] {
            match slot.load(Ordering::SeqCst) {
                FREE => {}
                PENDING => pending = true,
                version => pins.push(version),
            }
        }
        pending
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
pub(crate) unsafe fn read_history<T, R>(cell: usize, p: u64, f: impl FnOnce(&T) -> R) -> Option<R> {
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
pub(crate) fn history_shape(cell: usize) -> (usize, Option<u64>) {
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
/// Created by [`Stm::pin_snapshot`]; readers resolve cells at the pinned
/// version with [`TCell::read_pinned_with`](crate::TCell::read_pinned_with)(crate::TCell::read_pinned_with).
/// While the pin is live, displaced values whose validity window contains
/// the pinned version are preserved; dropping the pin releases custody and
/// trims whatever no other pin needs.
pub struct SnapshotPin {
    stm: Arc<Stm>,
    slot: usize,
    version: u64,
}

impl SnapshotPin {
    /// Register a pin on `stm` at the clock's current version.
    pub(crate) fn new(stm: Arc<Stm>) -> Self {
        let registry = stm.snapshot_registry();
        let slot = registry.acquire_slot();
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
        registry.slots[slot].store(version, Ordering::SeqCst);
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
        registry.slots[self.slot].store(FREE, Ordering::SeqCst);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TCell;

    /// The history table and its gauges are process-global; tests that
    /// create entries and assert on [`live_history_entries`] serialize here
    /// so parallel test threads cannot shift the counts mid-assertion.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn registry_collects_published_pins_and_flags_pending() {
        let registry = SnapshotRegistry::new();
        assert_eq!(registry.live(), 0);
        let slot = registry.acquire_slot();
        // SC: mirror the pin path's registry ordering in the test driver.
        registry.live.fetch_add(1, Ordering::SeqCst);
        let mut pins = Vec::new();
        assert!(
            registry.collect_into(&mut pins),
            "a claimed-but-unpublished slot must read as pending"
        );
        assert!(pins.is_empty());
        // SC: publish and unpin with the same orderings the real paths use.
        registry.slots[slot].store(41, Ordering::SeqCst);
        pins.clear();
        assert!(!registry.collect_into(&mut pins));
        assert_eq!(pins, vec![41]);
        registry.slots[slot].store(FREE, Ordering::SeqCst);
        registry.live.fetch_sub(1, Ordering::SeqCst);
        pins.clear();
        assert!(!registry.collect_into(&mut pins));
        assert!(pins.is_empty());
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
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let stm = Arc::new(Stm::new());
        let cell = TCell::new(1u64);
        stm.run(|tx| cell.write(tx, 2));

        let backlog_before = live_history_entries();
        let pin = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 3));
        stm.run(|tx| cell.write(tx, 4));

        assert_eq!(cell.read_pinned_with(&pin, |v| *v), 2);
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
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let stm = Arc::new(Stm::new());
        let cell = TCell::new(10u64);
        let p1 = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 20));
        let p2 = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 30));

        assert_eq!(cell.read_pinned_with(&p1, |v| *v), 10);
        assert_eq!(cell.read_pinned_with(&p2, |v| *v), 20);
        assert_eq!(cell.load_atomic(), 30);

        drop(p1);
        // p2's entry must survive p1's trim.
        assert_eq!(cell.read_pinned_with(&p2, |v| *v), 20);
        drop(p2);
    }

    #[test]
    fn a_sweep_spares_what_was_preserved_for_a_pin_it_never_saw() {
        // A dropping pin collects its survivors, then sweeps the table —
        // and the sweep takes a while.  A pin registered in between, and a
        // commit preserving a value for it, must not lose that value to the
        // sweep's out-of-date survivor list.
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let stm = Arc::new(Stm::new());
        let cell = Box::new(TCell::new(1u64));
        // The dropper's collect: nobody else is pinned.
        let horizon = stm.clock_now();
        let late = stm.pin_snapshot();
        stm.run(|tx| cell.write(tx, 2));
        // The dropper's sweep arrives at the cell's shard only now.
        trim_tagged(Arc::as_ptr(&stm) as usize, &[], false, horizon);
        assert_eq!(cell.read_pinned_with(&late, |v| *v), 1);
        drop(late);
    }

    #[test]
    fn cell_teardown_purges_its_history() {
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
        assert_eq!(cell.read_pinned_with(&pin, |v| *v), 7);
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
}
