//! Transactions and the STM runtime.

use crate::sync::{fence, AtomicU64, Ordering};
use std::fmt;

use crossbeam_epoch::{self as epoch, Guard};
use crossbeam_utils::Backoff;

use crate::clock::{Clock, ClockKind};
use crate::error::{SingleAttemptFailed, TxAbort, TxResult};
use crate::orec::{Orec, OrecState};
use crate::scratch::{self, PostCommit, ReadEntry, ScratchLease, TxnScratch};
use crate::snapshot::{CommitCtx, SnapshotPin, SnapshotRegistry};
use crate::stats::{StatsSnapshot, StmStats};
use crate::tcell::{self, TCell, WriteEntry};

/// A software transactional memory runtime.
///
/// All [`TCell`]s accessed by transactions of one logical data structure
/// should be managed by the same `Stm` instance (they share its clock and
/// statistics).  The runtime itself is stateless apart from the clock, so it
/// is cheap and `Sync`; a data structure typically embeds one.
pub struct Stm {
    clock: Clock,
    stats: StmStats,
    attempt_ids: AtomicU64,
    snapshots: SnapshotRegistry,
}

impl fmt::Debug for Stm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stm")
            .field("clock", &self.clock_name())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl Default for Stm {
    fn default() -> Self {
        Self::new()
    }
}

impl Stm {
    /// Create an STM runtime with the default ([`ClockKind::Sampled`]) clock,
    /// whose quiescence fast path lets uncontended writer commits skip
    /// read-set validation (see the `clock` module docs).
    pub fn new() -> Self {
        Self::with_clock(ClockKind::Sampled)
    }

    /// Create an STM runtime with the given clock: the sampled `gv5`-style
    /// counter or the hardware TSC.
    ///
    /// ```
    /// use skiphash_stm::{ClockKind, Stm};
    ///
    /// let stm = Stm::with_clock(ClockKind::Hardware);
    /// assert_eq!(stm.clock_name(), "hardware-tsc");
    /// ```
    pub fn with_clock(kind: ClockKind) -> Self {
        Stm {
            clock: Clock::new(kind),
            stats: StmStats::new(),
            attempt_ids: AtomicU64::new(1),
            snapshots: SnapshotRegistry::new(),
        }
    }

    /// Name of the configured clock source.
    pub fn clock_name(&self) -> &'static str {
        self.clock.kind().name()
    }

    /// The configured clock kind.
    pub fn clock_kind(&self) -> ClockKind {
        self.clock.kind()
    }

    /// Statistics accumulated by this runtime.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the statistics counters (e.g. between benchmark trials).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    fn begin(&self) -> Txn<'_> {
        let id = self.attempt_ids.fetch_add(1, Ordering::Relaxed);
        Txn {
            stm: self,
            id,
            rv: self.clock.now(),
            guard: Some(epoch::pin()),
            scratch: scratch::lease(),
            dedup_hits: 0,
            commit_stamp: 0,
            finished: false,
        }
    }

    /// Run `body` as a transaction, retrying until it commits, and return its
    /// result.
    ///
    /// The body is re-executed from the top after every abort; because it is
    /// an ordinary Rust closure, any `&mut` locals it captures keep their
    /// values across retries.  This is exactly the paper's
    /// `atomic(no_local_undo)` execution mode and is what the slow-path range
    /// query uses to turn aborts into "early commits".
    ///
    /// Contention is managed with bounded exponential backoff between
    /// attempts.
    pub fn run<T, F>(&self, mut body: F) -> T
    where
        F: FnMut(&mut Txn<'_>) -> TxResult<T>,
    {
        let backoff = Backoff::new();
        loop {
            let mut tx = self.begin();
            let outcome = body(&mut tx).and_then(|value| tx.commit().map(|()| value));
            match outcome {
                Ok(value) => {
                    tx.run_post_commit();
                    return value;
                }
                Err(cause) => {
                    tx.rollback();
                    self.stats.record_abort(cause);
                    drop(tx);
                    if backoff.is_completed() {
                        crate::sync::yield_now();
                    } else {
                        backoff.snooze();
                    }
                }
            }
        }
    }

    /// Attempt `body` as a transaction exactly once, without retrying.
    ///
    /// This is the paper's `atomic(try_once)` mode, used by the fast-path
    /// range query: if the single attempt aborts, the caller decides whether
    /// to try again or fall back to the slow path.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the attempt could not commit.
    pub fn try_once<T, F>(&self, body: F) -> Result<T, SingleAttemptFailed>
    where
        F: FnOnce(&mut Txn<'_>) -> TxResult<T>,
    {
        let mut tx = self.begin();
        let outcome = body(&mut tx).and_then(|value| tx.commit().map(|()| value));
        match outcome {
            Ok(value) => {
                tx.run_post_commit();
                Ok(value)
            }
            Err(cause) => {
                tx.rollback();
                self.stats.record_abort(cause);
                Err(SingleAttemptFailed { cause })
            }
        }
    }

    /// Pin the clock's current version for MVCC time-travel reads.
    ///
    /// While the returned [`SnapshotPin`] is live, any value displaced by a
    /// later commit whose validity window contains the pinned version is
    /// preserved, and [`TCell::read_pinned_with`] resolves every cell of
    /// this runtime at exactly that version — arbitrarily long after the
    /// pin, while writers commit freely.  Dropping the pin releases custody;
    /// retention is bounded by live pins (at most one preserved payload per
    /// pin per cell), never leaked.  See the [`crate::snapshot`] module docs
    /// for the full protocol.
    pub fn pin_snapshot(self: &std::sync::Arc<Self>) -> SnapshotPin {
        SnapshotPin::new(std::sync::Arc::clone(self))
    }

    pub(crate) fn snapshot_registry(&self) -> &SnapshotRegistry {
        &self.snapshots
    }

    /// The clock's current version (used by snapshot pinning and by
    /// durability layers checkpointing at a known version).
    pub fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    /// Advance the version clock so every future commit stamp exceeds
    /// `version`; returns `false` when this clock cannot be advanced.
    ///
    /// This is the recovery hook for durability layers: after replaying a
    /// write-ahead log whose records carry commit stamps from a *previous*
    /// process, the new runtime's clock must move past the highest replayed
    /// stamp, or fresh commits would mint stamps that compare as "already
    /// durable".  The logical [`ClockKind::Sampled`] clock supports this;
    /// the hardware TSC clock does not (its values are not assignable), so
    /// callers that depend on advancing must check the return value — see
    /// [`Clock::advance_to`].
    pub fn advance_clock_to(&self, version: u64) -> bool {
        self.clock.advance_to(version)
    }
}

/// An in-flight transaction attempt.
///
/// Handed to transaction bodies by [`Stm::run`] and [`Stm::try_once`]; use it
/// with [`TCell::read`] and [`TCell::write`].
///
/// The attempt's growable state (read set, write log, retirement bag,
/// keep-alive list, post-commit queue) lives in a per-thread pooled scratch:
/// retries and successive transactions reuse capacity instead of
/// re-allocating, which is what makes the steady-state commit path
/// allocation-free (see `docs/PERF.md`).
pub struct Txn<'stm> {
    stm: &'stm Stm,
    id: u64,
    rv: u64,
    /// `Some` until the attempt finishes; released before post-commit actions
    /// run so they observe a fully committed, unpinned world.
    guard: Option<Guard>,
    scratch: ScratchLease,
    /// Reads served from the dedup filter instead of growing the read set.
    dedup_hits: u32,
    /// The version this attempt committed at (writers: the clock tick's
    /// `wv`; read-only commits: the read version, at which every read is
    /// consistent).  Zero until [`Txn::commit`] succeeds; handed to the
    /// actions registered with [`Txn::on_commit_sequenced`].
    commit_stamp: u64,
    finished: bool,
}

impl fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("rv", &self.rv)
            .field("reads", &self.scratch.read_set.len())
            .field("writes", &self.scratch.writes.len())
            .finish()
    }
}

impl<'stm> Txn<'stm> {
    /// The read version (clock sample) this attempt started with.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// True if this attempt has performed at least one write.
    pub fn is_writer(&self) -> bool {
        !self.scratch.writes.is_empty()
    }

    /// Explicitly abort this attempt; the enclosing [`Stm::run`] will retry.
    #[must_use = "the abort must be propagated with `?` (or returned) so the transaction actually aborts"]
    pub fn abort<T>(&self) -> TxResult<T> {
        Err(TxAbort::Explicit)
    }

    /// True if this transaction was started by `stm` (pointer identity).
    ///
    /// Data structures that expose transactional views use this to reject a
    /// transaction from a *different* runtime: version timestamps from two
    /// unrelated clocks are incomparable, so mixing runtimes would silently
    /// break opacity.  Structures that should be composable within one
    /// transaction must share a single [`Stm`] (see `SkipHashBuilder::stm`
    /// in the `skiphash` crate).
    pub fn belongs_to(&self, stm: &Stm) -> bool {
        std::ptr::eq(self.stm, stm)
    }

    /// Register an action to run after — and only if — this transaction
    /// attempt commits.
    ///
    /// Actions run in registration order, after the attempt's epoch guard is
    /// released; an aborted attempt drops its registered actions without
    /// running them, and the retry registers fresh ones.  This is how
    /// transactional data structures schedule non-transactional side effects
    /// (statistics counters, deferred physical cleanup) from inside a
    /// caller-owned transaction: the effect must not happen per *attempt*,
    /// only per *commit*.
    ///
    /// Closures up to three words are stored inline in the pooled action
    /// queue (no allocation); larger captures are boxed.
    ///
    /// The action may itself start new transactions (the registering
    /// transaction is finished by the time it runs), but must not assume any
    /// particular thread-local state beyond running on the committing thread.
    pub fn on_commit<F: FnOnce() + 'static>(&mut self, action: F) {
        self.scratch
            .post_commit
            .push(PostCommit::new(move |_| action()));
    }

    /// Like [`Txn::on_commit`], but the action receives the attempt's
    /// **commit stamp** — for a writer commit, the write version `wv` the
    /// clock issued at commit (the version stamped on every orec this
    /// transaction released); for a read-only commit, the attempt's read
    /// version (the version at which all of its reads are consistent) — and
    /// runs at the commit's **serialization point**: after the attempt has
    /// passed its last abort point (stamp minted, validation passed — the
    /// commit is certain), yet *before* any of its writes are published to
    /// other transactions.
    ///
    /// This ordering is what a write-ahead log needs for its durability
    /// barrier: a record enqueued here is registered with the log **before**
    /// any other thread can observe the commit's effects, so a later commit
    /// that read those effects necessarily registers after it, and a
    /// "wait for everything registered so far" barrier covers every commit
    /// the caller could have observed.  A plain post-commit action cannot
    /// give this guarantee — it runs after the writes are globally visible,
    /// leaving a window where a dependent commit's record can overtake this
    /// one.
    ///
    /// Constraints, stricter than [`Txn::on_commit`]: the action runs with
    /// the attempt's orecs still held and its epoch guard still pinned, so
    /// it must **not** start transactions on any runtime (a transaction
    /// touching this commit's cells would spin on the held orecs) and
    /// should only do brief, non-transactional work (enqueue bytes, bump a
    /// counter).  It may block briefly (e.g. log backpressure) — writers
    /// contending on this commit's cells wait exactly as long.
    ///
    /// Exactly-once semantics match [`Txn::on_commit`]: aborted attempts
    /// drop the action unrun; the committing attempt runs it once.
    /// Sequenced actions run before every post-commit action, in
    /// registration order.
    /// The same inline-storage rule applies: closures up to three words are
    /// stored in the pooled action queue without boxing.
    pub fn on_commit_sequenced<F: FnOnce(u64) + 'static>(&mut self, action: F) {
        self.scratch.sequenced.push(PostCommit::new(action));
    }

    /// Allocate `value` on the heap and register the allocation with this
    /// transaction attempt, returning the shared handle.
    ///
    /// Any heap object allocated *inside* a transaction body whose [`TCell`]s
    /// are written in that same transaction must outlive a potential
    /// rollback: the write log refers to written cells by raw pointer (a
    /// rollback releases their orecs), and the body's own handle to a
    /// freshly allocated object is dropped when the closure returns —
    /// *before* the rollback runs.  `alloc` makes forgetting that
    /// impossible: the only handle the caller ever sees is already
    /// registered with the attempt, which keeps the object alive until the
    /// attempt (commit or rollback) is over.
    pub fn alloc<T: Send + Sync + 'static>(&mut self, value: T) -> std::sync::Arc<T> {
        let arc = std::sync::Arc::new(value);
        self.scratch
            .keepalive
            .push(std::sync::Arc::clone(&arc) as _);
        arc
    }

    /// The cloning read is the mapping read with `f = Clone::clone`; one
    /// implementation of the TL2 read protocol serves both.
    #[inline]
    pub(crate) fn read_cell<T: Clone + Send + Sync + 'static>(
        &mut self,
        cell: &TCell<T>,
    ) -> TxResult<T> {
        self.read_cell_with(cell, T::clone)
    }

    /// Like [`Txn::read_cell`], but maps the committed value through `f` by
    /// reference instead of cloning it.  Same validation protocol: the orec
    /// is re-checked *after* `f` runs, and a concurrent change discards the
    /// result and aborts.  `f` must therefore be a pure function of its
    /// argument — it can observe a value whose read subsequently fails
    /// validation.
    ///
    /// `inline(always)`: this is the body of every traversal loop built on
    /// the STM.  As a call it costs a skip-list hop ~10% (three reads per
    /// level-0 element, one per descent hop), and whether the inliner takes
    /// it depended on how the caller's loops happened to be nested.
    #[inline(always)]
    pub(crate) fn read_cell_with<T: Send + Sync + 'static, R>(
        &mut self,
        cell: &TCell<T>,
        f: impl FnOnce(&T) -> R,
    ) -> TxResult<R> {
        let o1 = cell.orec.raw();
        if Orec::raw_is_owned_by(o1, self.id) {
            // Read-after-write: the value is our own buffered write, which
            // only the write log holds until commit.
            return Ok(cell.peek_buffered(&mut self.scratch.writes, f));
        }
        match Orec::decode_raw(o1) {
            OrecState::Locked { .. } => return Err(TxAbort::ReadConflict),
            OrecState::Unlocked { version } => {
                if version > self.rv {
                    return Err(TxAbort::ReadConflict);
                }
            }
        }
        // SAFETY: our guard is pinned for the whole attempt; even if a
        // concurrent commit displaces the value, reclamation is deferred
        // past our guard, and the post-read orec check below rejects the
        // result.
        let result = unsafe { tcell::peek_word(cell.word(), f) };
        if cell.orec.raw() != o1 {
            return Err(TxAbort::ReadConflict);
        }
        // The recheck passed, so `result` is kept: tell the model build's
        // race detector this read must be happens-after the payload install.
        cell.shadow.on_read_confirmed();
        // Dedup on insertion: a re-read of a cell this attempt already
        // validated cannot have a different orec word (any post-begin commit
        // carries a version above rv and would have aborted above), so the
        // read set and the commit-time validation walk stay proportional to
        // the number of *distinct* cells read, not the number of reads.
        let orec = &cell.orec as *const Orec;
        if self.scratch.filter.insert(orec as usize) {
            self.scratch.read_set.push(ReadEntry { orec, observed: o1 });
        } else {
            self.dedup_hits += 1;
        }
        Ok(result)
    }

    #[inline]
    pub(crate) fn write_cell<T: Send + Sync + 'static>(
        &mut self,
        cell: &TCell<T>,
        value: T,
    ) -> TxResult<()> {
        let o1 = cell.orec.raw();
        if Orec::raw_is_owned_by(o1, self.id) {
            // Already acquired earlier in this transaction: replace the value
            // we buffered.
            cell.rewrite_buffered(&mut self.scratch.writes, value);
            return Ok(());
        }
        let old_version = match Orec::decode_raw(o1) {
            OrecState::Locked { .. } => return Err(TxAbort::WriteConflict),
            OrecState::Unlocked { version } => version,
        };
        // TL2 acquire rule: a location written since this attempt's read
        // version cannot be acquired — commit-time validation skips orecs we
        // own, so admitting it here would let a concurrent update be lost.
        // `model_mutation` builds revert this guard so the model checker can
        // prove it re-finds the lost update (see docs/VERIFICATION.md).
        if cfg!(not(model_mutation)) && old_version > self.rv {
            return Err(TxAbort::WriteConflict);
        }
        if !cell.orec.try_acquire(old_version, self.id) {
            return Err(TxAbort::WriteConflict);
        }
        self.scratch
            .writes
            .push(WriteEntry::new(cell, old_version, value));
        Ok(())
    }

    fn commit(&mut self) -> TxResult<()> {
        if self.scratch.writes.is_empty() {
            // Read-only transactions: every read was validated against the
            // read version at the time it executed, so the read set already
            // forms a consistent snapshot and no further work is required.
            self.commit_stamp = self.rv;
            self.run_sequenced();
            self.stm.stats.record_commit(true);
            self.flush_hot_path_stats();
            self.finished = true;
            return Ok(());
        }
        let stamp = self.stm.clock.tick(self.rv);
        self.commit_stamp = stamp.wv;
        if stamp.quiescent {
            // The clock proved no transaction committed between our read
            // sample and our tick, so nothing we read can have changed.
            self.stm.stats.record_validation_skipped();
        } else {
            for entry in &self.scratch.read_set {
                // SAFETY: read-set orecs belong to cells kept alive by the
                // data structure for at least the duration of the enclosing
                // transaction closure.
                let orec = unsafe { &*entry.orec };
                let current = orec.raw();
                if current != entry.observed && !Orec::raw_is_owned_by(current, self.id) {
                    return Err(TxAbort::ValidationFailed);
                }
            }
        }
        // Serialization point: validation passed, so this attempt can no
        // longer abort — but its writes are not yet published (the orecs are
        // still held).  Commit-sequenced actions run exactly here.
        self.run_sequenced();
        let TxnScratch {
            writes,
            retired,
            pins,
            ..
        } = &mut *self.scratch;
        // SC: snapshot custody — collect the pinned versions *after* the
        // tick (a pin missed here necessarily sampled the clock after our
        // stamp, so it sits outside every window this commit displaces — see
        // the `snapshot` module docs); the fence pairs with the pinner's
        // claim-side fence.  The `live` gate keeps the snapshot-free commit
        // path at one load.
        pins.clear();
        let ctx = if self.stm.snapshots.live() > 0 {
            fence(Ordering::SeqCst);
            let pending = self.stm.snapshots.collect_into(pins);
            CommitCtx {
                pins,
                pending,
                tag: self.stm as *const Stm as usize,
            }
        } else {
            CommitCtx::NONE
        };
        for write in writes.drain(..) {
            // SAFETY: we are the owning transaction, with our guard pinned.
            unsafe { write.commit(retired, stamp.wv, &ctx) };
        }
        // One batched hand-off to the epoch for the whole commit.
        let guard = self
            .guard
            .as_ref()
            .expect("committing transaction holds its guard");
        guard.flush_batch(&mut self.scratch.retired);
        self.stm.stats.record_commit(false);
        self.flush_hot_path_stats();
        self.finished = true;
        Ok(())
    }

    /// Run the attempt's commit-sequenced actions at the serialization
    /// point.  Called from [`Txn::commit`] after the last abort point, with
    /// the commit stamp already assigned.
    fn run_sequenced(&mut self) {
        let stamp = self.commit_stamp;
        for action in self.scratch.sequenced.drain(..) {
            action.invoke(stamp);
        }
    }

    /// Release the epoch pin and run the attempt's post-commit actions.
    /// Called only after [`Txn::commit`] succeeded.
    fn run_post_commit(&mut self) {
        debug_assert!(self.finished, "post-commit before commit");
        // Post-commit actions must observe a finished transaction: orecs
        // released (commit did that) and the epoch pin gone — an action may
        // run arbitrary code, including new transactions on this runtime.
        self.guard = None;
        let stamp = self.commit_stamp;
        for action in self.scratch.post_commit.drain(..) {
            action.invoke(stamp);
        }
    }

    fn rollback(&mut self) {
        for write in self.scratch.writes.drain(..) {
            // SAFETY: we are the owning transaction, and the body kept the
            // cells it wrote alive (see `Txn::alloc`).
            unsafe { write.abort() };
        }
        // The remaining buffers — read set, dedup filter, unrun post-commit
        // actions (commit-only side effects die with the attempt) — are
        // cleared in one place: the scratch lease's reset when this attempt
        // is dropped.
        self.flush_hot_path_stats();
        self.finished = true;
    }

    /// Fold this attempt's locally accumulated dedup hits into the runtime
    /// statistics (one relaxed add per attempt that has any, never one per
    /// read).
    fn flush_hot_path_stats(&mut self) {
        self.stm.stats.record_hot_path(self.dedup_hits);
        self.dedup_hits = 0;
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        // Defensive: if the transaction body panicked (or was otherwise
        // abandoned) while holding orecs, release them so other threads are
        // not blocked forever.
        if !self.finished && !self.scratch.writes.is_empty() {
            self.rollback();
        }
        // The scratch lease returns the (cleared) buffers to the thread pool
        // when it drops, after the guard.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn builder_default_uses_sampled_clock() {
        let stm = Stm::new();
        assert_eq!(stm.clock_name(), "gv5-sampled");
        assert_eq!(stm.clock_kind(), ClockKind::Sampled);
    }

    #[test]
    fn read_only_transactions_do_not_tick_the_clock() {
        let stm = Stm::new();
        let cell = TCell::new(5u64);
        for _ in 0..10 {
            let v = stm.run(|tx| cell.read(tx));
            assert_eq!(v, 5);
        }
        let snap = stm.stats();
        assert_eq!(snap.commits, 10);
        assert_eq!(snap.read_only_commits, 10);
        assert_eq!(stm.clock_now(), 0);
    }

    #[test]
    fn aborted_writes_are_rolled_back() {
        let stm = Stm::new();
        let cell = TCell::new(1u64);
        let result = stm.try_once(|tx| -> TxResult<()> {
            cell.write(tx, 99)?;
            // Force an abort after the write took effect inside the txn.
            Err(TxAbort::Explicit)
        });
        assert!(result.is_err());
        assert_eq!(cell.load_atomic(), 1, "an abort leaves the cell unchanged");
        assert_eq!(stm.stats().aborts_explicit, 1);
    }

    #[test]
    fn try_once_success_commits() {
        let stm = Stm::new();
        let cell = TCell::new(1u64);
        let out = stm.try_once(|tx| {
            cell.write(tx, 2)?;
            Ok(77)
        });
        assert_eq!(out.unwrap(), 77);
        assert_eq!(cell.load_atomic(), 2);
    }

    #[test]
    fn explicit_abort_in_run_retries_until_ok() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let mut attempts = 0;
        stm.run(|tx| {
            attempts += 1;
            if attempts < 3 {
                return tx.abort();
            }
            cell.write(tx, attempts)
        });
        assert_eq!(attempts, 3);
        assert_eq!(cell.load_atomic(), 3);
    }

    #[test]
    fn locals_survive_aborts_no_local_undo() {
        // Models the slow-path range query: progress recorded in a captured
        // local must not be lost when an attempt aborts.
        let stm = Stm::new();
        let cell = TCell::new(10u64);
        let mut progress: Vec<u64> = Vec::new();
        let mut first = true;
        stm.run(|tx| {
            let v = cell.read(tx)?;
            if first {
                first = false;
                progress.push(v);
                return Err(TxAbort::Explicit);
            }
            Ok(())
        });
        assert_eq!(progress, vec![10], "local progress survived the abort");
    }

    #[test]
    fn conflicting_writers_serialize() {
        let stm = Arc::new(Stm::new());
        let a = Arc::new(TCell::new(0u64));
        let b = Arc::new(TCell::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            handles.push(thread::spawn(move || {
                for _ in 0..250 {
                    stm.run(|tx| {
                        let av = a.read(tx)?;
                        b.write(tx, av + 1)?;
                        a.write(tx, av + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_atomic(), 1000);
        assert_eq!(b.load_atomic(), 1000);
    }

    #[test]
    fn writer_stats_count_commits() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        stm.run(|tx| cell.write(tx, 1));
        let snap = stm.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.read_only_commits, 0);
        stm.reset_stats();
        assert_eq!(stm.stats().commits, 0);
    }

    #[test]
    fn uncontended_writers_skip_validation() {
        let stm = Stm::new(); // sampled clock
        let cell = TCell::new(0u64);
        for i in 0..50u64 {
            stm.run(|tx| {
                let v = cell.read(tx)?;
                cell.write(tx, v + i)
            });
        }
        let snap = stm.stats();
        assert_eq!(
            snap.validation_skipped_commits, 50,
            "every uncontended sampled-clock commit proves quiescence"
        );
    }

    #[test]
    fn hardware_clock_never_skips_validation() {
        let stm = Stm::with_clock(ClockKind::Hardware);
        let cell = TCell::new(0u64);
        for _ in 0..10 {
            stm.run(|tx| cell.write(tx, 1));
        }
        assert_eq!(stm.stats().validation_skipped_commits, 0);
    }

    #[test]
    fn repeated_reads_are_deduped() {
        let stm = Stm::new();
        let cell = TCell::new(7u64);
        let total = stm.run(|tx| {
            let mut sum = 0;
            for _ in 0..100 {
                sum += cell.read(tx)?;
            }
            Ok(sum)
        });
        assert_eq!(total, 700);
        let snap = stm.stats();
        assert_eq!(
            snap.read_dedup_hits, 99,
            "99 of the 100 reads hit the dedup filter"
        );
    }

    /// The calling thread's own payload recycle hits: `slab_recycle_hits`
    /// is process-wide, and the tests beside this one move it.
    fn payload_hits() -> u64 {
        crate::arena::thread_recycle_hits(crate::arena::BlockKind::Payload)
    }

    #[test]
    fn slab_recycle_hits_accumulate_under_write_churn() {
        let stm = Stm::new();
        // Wider than a word, so the value lives in a payload block.
        let cell = TCell::new([0u64; 2]);
        let before = payload_hits();
        // Enough commits to cycle retired payloads through the epoch and
        // back into this thread's magazine.
        for i in 0..2_000u64 {
            stm.run(|tx| cell.write(tx, [i; 2]));
        }
        let mine = payload_hits() - before;
        assert!(mine > 0, "steady-state write churn must reuse blocks");
        assert!(
            stm.stats().slab_recycle_hits >= mine,
            "the runtime's process-wide count includes this thread's"
        );
    }

    #[test]
    fn word_sized_writes_never_reach_the_slab() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let before = payload_hits();
        for i in 0..2_000u64 {
            stm.run(|tx| cell.write(tx, i));
        }
        assert_eq!(cell.load_atomic(), 1_999);
        assert_eq!(
            payload_hits(),
            before,
            "a word-sized value is stored in the cell: no payload, no block"
        );
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let stm = Stm::new();
        assert!(format!("{stm:?}").contains("Stm"));
        let cell = TCell::new(0u64);
        stm.run(|tx| {
            let _ = cell.read(tx)?;
            assert!(format!("{tx:?}").contains("Txn"));
            Ok(())
        });
    }

    #[test]
    fn alloc_registers_objects_across_abort() {
        struct Pair {
            a: TCell<u64>,
            b: TCell<u64>,
        }
        let stm = Stm::new();
        let mut first = true;
        let survivor = stm.run(|tx| {
            // The Arc returned by `alloc` is dropped at the end of the body
            // on the aborting attempt; the registration must keep the cells
            // alive through the rollback that follows.
            let pair = tx.alloc(Pair {
                a: TCell::new(0),
                b: TCell::new(0),
            });
            pair.a.write(tx, 1)?;
            pair.b.write(tx, 2)?;
            if first {
                first = false;
                return Err(TxAbort::Explicit);
            }
            Ok(pair)
        });
        assert_eq!(survivor.a.load_atomic(), 1);
        assert_eq!(survivor.b.load_atomic(), 2);
    }

    #[test]
    fn on_commit_runs_exactly_once_per_commit() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let fired = Rc::new(Cell::new(0u32));
        let mut attempts = 0;
        stm.run(|tx| {
            attempts += 1;
            let fired = Rc::clone(&fired);
            tx.on_commit(move || fired.set(fired.get() + 1));
            if attempts < 3 {
                // Aborted attempts must drop their registered actions.
                return Err(TxAbort::Explicit);
            }
            cell.write(tx, attempts)
        });
        assert_eq!(attempts, 3);
        assert_eq!(fired.get(), 1, "only the committing attempt may fire");
    }

    #[test]
    fn on_commit_does_not_run_for_failed_try_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let fired = Rc::new(Cell::new(false));
        let result = stm.try_once(|tx| -> TxResult<()> {
            let fired = Rc::clone(&fired);
            tx.on_commit(move || fired.set(true));
            Err(TxAbort::Explicit)
        });
        assert!(result.is_err());
        assert!(!fired.get());
    }

    #[test]
    fn on_commit_runs_for_read_only_transactions() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(7u64);
        let fired = Rc::new(Cell::new(false));
        let v = stm.run(|tx| {
            let fired = Rc::clone(&fired);
            tx.on_commit(move || fired.set(true));
            cell.read(tx)
        });
        assert_eq!(v, 7);
        assert!(fired.get());
    }

    #[test]
    fn on_commit_sequenced_fires_once_with_the_commit_stamp() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let seen = Rc::new(Cell::new((0u32, 0u64)));
        let mut attempts = 0;
        stm.run(|tx| {
            attempts += 1;
            let seen = Rc::clone(&seen);
            tx.on_commit_sequenced(move |wv| {
                let (count, _) = seen.get();
                seen.set((count + 1, wv));
            });
            if attempts < 3 {
                // Aborted attempts must drop their sequenced actions unrun.
                return Err(TxAbort::Explicit);
            }
            cell.write(tx, attempts)
        });
        let (count, stamp) = seen.get();
        assert_eq!(count, 1, "only the committing attempt may fire");
        assert_eq!(stamp, 1, "the sequenced action sees the ticked wv");
        assert_eq!(stm.clock_now(), stamp);
    }

    #[test]
    fn on_commit_sequenced_stamps_advance_per_writer_commit() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let seen = Rc::new(Cell::new(0u64));
        for expected in 1..=3u64 {
            stm.run(|tx| {
                let seen = Rc::clone(&seen);
                tx.on_commit_sequenced(move |wv| seen.set(wv));
                let v = cell.read(tx)?;
                cell.write(tx, v + 1)
            });
            assert_eq!(seen.get(), expected);
        }
    }

    #[test]
    fn on_commit_sequenced_runs_before_post_commit_actions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let order = Rc::new(RefCell::new(Vec::new()));
        stm.run(|tx| {
            let a = Rc::clone(&order);
            // Registered first, but post-commit: must still run last.
            tx.on_commit(move || a.borrow_mut().push("post"));
            let b = Rc::clone(&order);
            tx.on_commit_sequenced(move |_| b.borrow_mut().push("sequenced"));
            cell.write(tx, 1)
        });
        let order = order.borrow();
        assert_eq!(&*order, &["sequenced", "post"]);
    }

    #[test]
    fn on_commit_sequenced_read_only_sees_its_read_version() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(5u64);
        stm.run(|tx| cell.write(tx, 6));
        let rv_now = stm.clock_now();
        let seen = Rc::new(Cell::new(u64::MAX));
        let seen_in = Rc::clone(&seen);
        stm.run(|tx| {
            let seen = Rc::clone(&seen_in);
            tx.on_commit_sequenced(move |wv| seen.set(wv));
            cell.read(tx)
        });
        assert_eq!(seen.get(), rv_now);
        assert_eq!(stm.clock_now(), rv_now);
    }

    #[test]
    fn on_commit_sequenced_does_not_run_for_failed_try_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let fired = Rc::new(Cell::new(false));
        let result = stm.try_once(|tx| -> TxResult<()> {
            let fired = Rc::clone(&fired);
            tx.on_commit_sequenced(move |_| fired.set(true));
            Err(TxAbort::Explicit)
        });
        assert!(result.is_err());
        assert!(!fired.get());
    }

    #[test]
    fn on_commit_sequenced_registration_precedes_visibility() {
        // The property the WAL's durability barrier rides: by the time any
        // other thread can observe a commit's writes, its sequenced action
        // has already run.  A writer registers each commit's payload in a
        // shared registry from the sequenced hook; a reader that observes
        // value `k` in the cell must always find `k` already registered —
        // if the action ran post-publication instead, this would race.
        use std::sync::{Arc, Mutex};
        let stm = Arc::new(Stm::new());
        let cell = Arc::new(TCell::new(0u64));
        let registry: Arc<Mutex<Vec<u64>>> = Arc::default();
        let rounds: u64 = if cfg!(miri) { 20 } else { 2000 };
        let writer = {
            let stm = Arc::clone(&stm);
            let cell = Arc::clone(&cell);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for k in 1..=rounds {
                    stm.run(|tx| {
                        let registry = Arc::clone(&registry);
                        tx.on_commit_sequenced(move |_| registry.lock().unwrap().push(k));
                        cell.write(tx, k)
                    });
                }
            })
        };
        let mut last = 0u64;
        while last < rounds {
            let v = cell.load_atomic();
            if v != last {
                assert!(
                    registry.lock().unwrap().contains(&v),
                    "observed commit {v} before its sequenced action ran"
                );
                last = v;
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn advance_clock_to_reseeds_future_stamps() {
        use std::cell::Cell;
        use std::rc::Rc;
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        assert!(stm.advance_clock_to(1000));
        // Advancing backwards is a no-op, never a rollback.
        assert!(stm.advance_clock_to(3));
        assert!(stm.clock_now() >= 1000);
        let seen = Rc::new(Cell::new(0u64));
        let seen_in = Rc::clone(&seen);
        stm.run(|tx| {
            let seen = Rc::clone(&seen_in);
            tx.on_commit_sequenced(move |wv| seen.set(wv));
            cell.write(tx, 1)
        });
        assert!(
            seen.get() > 1000,
            "stamps after recovery must exceed the replayed maximum, got {}",
            seen.get()
        );
    }

    #[test]
    fn on_commit_may_start_a_new_transaction() {
        // The action runs after the registering transaction is fully over
        // (guard released, orecs free), so starting a fresh transaction on
        // the same runtime from inside it must work — this is how deferred
        // physical cleanup runs after a caller-owned transaction commits.
        let stm = Arc::new(Stm::new());
        let cell = Arc::new(TCell::new(0u64));
        let stm_for_hook = Arc::clone(&stm);
        let cell_for_hook = Arc::clone(&cell);
        stm.run(|tx| {
            cell.write(tx, 1)?;
            let stm = Arc::clone(&stm_for_hook);
            let cell = Arc::clone(&cell_for_hook);
            tx.on_commit(move || {
                stm.run(|tx| {
                    let v = cell.read(tx)?;
                    cell.write(tx, v + 98)
                });
            });
            Ok(())
        });
        assert_eq!(cell.load_atomic(), 99);
    }

    #[test]
    fn belongs_to_distinguishes_runtimes() {
        let stm_a = Stm::new();
        let stm_b = Stm::new();
        stm_a.run(|tx| {
            assert!(tx.belongs_to(&stm_a));
            assert!(!tx.belongs_to(&stm_b));
            Ok(())
        });
    }

    #[test]
    fn read_version_is_monotonic_across_transactions() {
        let stm = Stm::new();
        let cell = TCell::new(0u64);
        let mut last = 0;
        for i in 0..5u64 {
            let rv = stm.run(|tx| {
                cell.write(tx, i)?;
                Ok(tx.read_version())
            });
            assert!(rv >= last);
            last = rv;
        }
    }
}
