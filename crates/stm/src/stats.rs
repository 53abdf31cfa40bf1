//! Transaction statistics.
//!
//! The paper's Table 1 reports aborts per successful range query, and §5.2
//! attributes slow-path overheads to specific conflict sources.  To regenerate
//! those numbers the STM keeps cheap, always-on counters of commits and
//! aborts, broken down by abort cause.  Counters are updated with relaxed
//! atomics; they are for reporting only and never synchronize anything.
//!
//! Deliberately *not* routed through the `crate::sync` facade: these
//! counters synchronize nothing, and instrumenting them would put
//! reporting-only operations into the model checker's schedule-point
//! sequence — the recycle counters, folded in by `crate::arena` at moments
//! that depend on process-global allocator state, would make that sequence
//! differ between an exploring run and its replay.

use std::fmt;
// FACADE-EXEMPT: reporting-only counters; see the module docs above for why
// instrumenting them would break replay-token determinism.
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{self, BlockKind};
use crate::error::TxAbort;
use crate::snapshot;

/// Process-global durability counters.
///
/// The durability layer (WAL writer, checkpointer, recovery) lives in a
/// separate crate and its writer thread is not tied to any one `Stm`
/// instance, so — like the recycle and snapshot-custody counters — the live
/// totals are process-global and each [`StmStats`] keeps only a baseline.
/// The durability crate batches its updates (one RMW per flushed batch /
/// replay pass, not one per record) to keep the log hot path off these
/// cache lines.
mod durability {
    use super::AtomicU64;

    pub(super) static WAL_RECORDS_APPENDED: AtomicU64 = AtomicU64::new(0);
    pub(super) static GROUP_COMMIT_FLUSHES: AtomicU64 = AtomicU64::new(0);
    pub(super) static RECOVERY_RECORDS_REPLAYED: AtomicU64 = AtomicU64::new(0);
    pub(super) static CHECKPOINTS_WRITTEN: AtomicU64 = AtomicU64::new(0);
}

/// Record `n` commit records appended to the write-ahead log (one call per
/// flushed batch, not per record).
pub fn note_wal_records_appended(n: u64) {
    if n > 0 {
        durability::WAL_RECORDS_APPENDED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one group-commit flush (a batch made durable by a single fsync).
pub fn note_group_commit_flush() {
    durability::GROUP_COMMIT_FLUSHES.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` WAL records replayed during recovery (one call per replay
/// pass).
pub fn note_recovery_records_replayed(n: u64) {
    if n > 0 {
        durability::RECOVERY_RECORDS_REPLAYED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one checkpoint image made durable.
pub fn note_checkpoint_written() {
    durability::CHECKPOINTS_WRITTEN.fetch_add(1, Ordering::Relaxed);
}

/// Current process-wide totals, for callers that want the raw counters
/// rather than a per-[`StmStats`] delta.
pub fn wal_records_appended_total() -> u64 {
    durability::WAL_RECORDS_APPENDED.load(Ordering::Relaxed)
}

/// See [`wal_records_appended_total`].
pub fn group_commit_flushes_total() -> u64 {
    durability::GROUP_COMMIT_FLUSHES.load(Ordering::Relaxed)
}

/// See [`wal_records_appended_total`].
pub fn recovery_records_replayed_total() -> u64 {
    durability::RECOVERY_RECORDS_REPLAYED.load(Ordering::Relaxed)
}

/// See [`wal_records_appended_total`].
pub fn checkpoints_written_total() -> u64 {
    durability::CHECKPOINTS_WRITTEN.load(Ordering::Relaxed)
}

/// Shared, concurrently updated statistics for one [`crate::Stm`] instance.
///
/// The two recycle counters (`slab_` / `node_recycle_hits`) are special: the block recycler is process-global (a block is recycled by
/// whichever thread drives epoch collection and reused by whichever thread
/// allocates next, regardless of which `Stm` it served), so the live totals
/// live in [`crate::arena`] and this struct only keeps the *baseline*
/// captured at construction / reset, letting [`StmStats::snapshot`] report
/// per-trial deltas like every other counter.  The snapshot-custody counters
/// (`snapshot_preserved` / `snapshot_freed`) follow the same scheme: the
/// history side table is process-global, so the live totals live in
/// [`crate::snapshot`] and only the baselines are per-instance.
#[derive(Debug, Default)]
pub struct StmStats {
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    aborts_read_conflict: AtomicU64,
    aborts_write_conflict: AtomicU64,
    aborts_validation: AtomicU64,
    aborts_explicit: AtomicU64,
    validation_skipped_commits: AtomicU64,
    read_dedup_hits: AtomicU64,
    /// Indexed by `BlockKind as usize`.
    recycle_baseline: [AtomicU64; BlockKind::ALL.len()],
    snapshot_preserved_baseline: AtomicU64,
    snapshot_freed_baseline: AtomicU64,
    wal_appended_baseline: AtomicU64,
    group_flush_baseline: AtomicU64,
    recovery_replayed_baseline: AtomicU64,
    checkpoints_baseline: AtomicU64,
}

impl StmStats {
    /// Create zeroed statistics.
    ///
    /// The baselines of the process-global counters are captured *now*, so a
    /// fresh instance reports only what happens after its construction (the
    /// totals may already be far along).
    pub fn new() -> Self {
        let stats = Self::default();
        stats.rebase();
        stats
    }

    /// Capture the current process-global totals as this instance's
    /// baselines.
    fn rebase(&self) {
        for kind in BlockKind::ALL {
            self.recycle_baseline[kind as usize]
                .store(arena::recycle_hits(kind), Ordering::Relaxed);
        }
        self.snapshot_preserved_baseline
            .store(snapshot::preserved_total(), Ordering::Relaxed);
        self.snapshot_freed_baseline
            .store(snapshot::freed_total(), Ordering::Relaxed);
        self.wal_appended_baseline
            .store(wal_records_appended_total(), Ordering::Relaxed);
        self.group_flush_baseline
            .store(group_commit_flushes_total(), Ordering::Relaxed);
        self.recovery_replayed_baseline
            .store(recovery_records_replayed_total(), Ordering::Relaxed);
        self.checkpoints_baseline
            .store(checkpoints_written_total(), Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self, read_only: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if read_only {
            self.read_only_commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_validation_skipped(&self) {
        self.validation_skipped_commits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one attempt's locally accumulated dedup hits in (the transaction
    /// batches them so the shared cache line is touched once per attempt,
    /// not once per read).
    pub(crate) fn record_hot_path(&self, dedup_hits: u32) {
        if dedup_hits > 0 {
            self.read_dedup_hits
                .fetch_add(u64::from(dedup_hits), Ordering::Relaxed);
        }
    }

    pub(crate) fn record_abort(&self, cause: TxAbort) {
        let counter = match cause {
            TxAbort::ReadConflict => &self.aborts_read_conflict,
            TxAbort::WriteConflict => &self.aborts_write_conflict,
            TxAbort::ValidationFailed => &self.aborts_validation,
            TxAbort::Explicit => &self.aborts_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let recycled = |kind: BlockKind| {
            arena::recycle_hits(kind)
                .saturating_sub(self.recycle_baseline[kind as usize].load(Ordering::Relaxed))
        };
        StatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            aborts_read_conflict: self.aborts_read_conflict.load(Ordering::Relaxed),
            aborts_write_conflict: self.aborts_write_conflict.load(Ordering::Relaxed),
            aborts_validation: self.aborts_validation.load(Ordering::Relaxed),
            aborts_explicit: self.aborts_explicit.load(Ordering::Relaxed),
            validation_skipped_commits: self.validation_skipped_commits.load(Ordering::Relaxed),
            read_dedup_hits: self.read_dedup_hits.load(Ordering::Relaxed),
            slab_recycle_hits: recycled(BlockKind::Payload),
            node_recycle_hits: recycled(BlockKind::Node),
            chain_recycle_hits: 0,
            snapshot_preserved: snapshot::preserved_total()
                .saturating_sub(self.snapshot_preserved_baseline.load(Ordering::Relaxed)),
            snapshot_freed: snapshot::freed_total()
                .saturating_sub(self.snapshot_freed_baseline.load(Ordering::Relaxed)),
            wal_records_appended: wal_records_appended_total()
                .saturating_sub(self.wal_appended_baseline.load(Ordering::Relaxed)),
            group_commit_flushes: group_commit_flushes_total()
                .saturating_sub(self.group_flush_baseline.load(Ordering::Relaxed)),
            recovery_records_replayed: recovery_records_replayed_total()
                .saturating_sub(self.recovery_replayed_baseline.load(Ordering::Relaxed)),
            checkpoints_written: checkpoints_written_total()
                .saturating_sub(self.checkpoints_baseline.load(Ordering::Relaxed)),
        }
    }

    /// Reset all counters to zero (used between benchmark trials).
    ///
    /// The process-global counters cannot be zeroed (other runtimes may be
    /// mid-trial); instead the current totals become this instance's new
    /// baselines, so subsequent snapshots report the delta.
    pub fn reset(&self) {
        self.commits.store(0, Ordering::Relaxed);
        self.read_only_commits.store(0, Ordering::Relaxed);
        self.aborts_read_conflict.store(0, Ordering::Relaxed);
        self.aborts_write_conflict.store(0, Ordering::Relaxed);
        self.aborts_validation.store(0, Ordering::Relaxed);
        self.aborts_explicit.store(0, Ordering::Relaxed);
        self.validation_skipped_commits.store(0, Ordering::Relaxed);
        self.read_dedup_hits.store(0, Ordering::Relaxed);
        self.rebase();
    }
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of committed transactions.
    pub commits: u64,
    /// Number of committed transactions that performed no writes.
    pub read_only_commits: u64,
    /// Aborts caused by reading a locked or too-new location.
    pub aborts_read_conflict: u64,
    /// Aborts caused by failing to acquire an orec for writing.
    pub aborts_write_conflict: u64,
    /// Aborts caused by commit-time read-set validation.
    pub aborts_validation: u64,
    /// Aborts requested explicitly by the transaction body.
    pub aborts_explicit: u64,
    /// Writer commits that skipped read-set validation because the clock
    /// proved quiescence (see the `clock` module docs).
    pub validation_skipped_commits: u64,
    /// Reads answered by the read-set dedup filter instead of growing the
    /// read set (re-reads of already-validated cells).
    pub read_dedup_hits: u64,
    /// Payload blocks — the storage behind a [`crate::TCell`] whose value is
    /// wider than a word — served from recycled memory rather than a fresh
    /// chunk, by any path: a transactional write, `TCell::new`,
    /// `store_atomic`, or a commit preserving a displaced value for a
    /// snapshot pin.  A word-sized value has no payload (it is the cell's
    /// data word) and never counts.  Process-wide, relative to this
    /// instance's construction/reset baseline — see [`StmStats`].
    pub slab_recycle_hits: u64,
    /// Skip-hash node blocks served from recycled memory (same process-wide
    /// baseline semantics as `slab_recycle_hits`).
    pub node_recycle_hits: u64,
    /// Always 0: hash chains run through the nodes and have no buffers of
    /// their own.  Kept only because the frozen repo benchmark
    /// (`benchmark/`) reads the field.
    pub chain_recycle_hits: u64,
    /// Displaced values preserved for live snapshot pins instead of being
    /// retired (process-wide, relative to this instance's baseline — see
    /// [`StmStats`]).
    pub snapshot_preserved: u64,
    /// Preserved values freed again after the pins needing them dropped
    /// (same baseline semantics as `snapshot_preserved`).
    pub snapshot_freed: u64,
    /// Commit records appended to the write-ahead log (process-wide,
    /// relative to this instance's baseline — see [`StmStats`]).
    pub wal_records_appended: u64,
    /// Group-commit flushes — batches made durable by a single fsync (same
    /// baseline semantics as `wal_records_appended`).
    pub group_commit_flushes: u64,
    /// WAL records replayed by recovery (same baseline semantics).
    pub recovery_records_replayed: u64,
    /// Checkpoint images made durable (same baseline semantics).
    pub checkpoints_written: u64,
}

impl StatsSnapshot {
    /// Total aborts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_read_conflict
            + self.aborts_write_conflict
            + self.aborts_validation
            + self.aborts_explicit
    }

    /// Aborts per commit; `0.0` when no transaction has committed.
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.commits as f64
        }
    }

    /// Pointwise difference `self - earlier`, for per-trial deltas.  A field
    /// that went *down* — [`StmStats::reset`] ran between the two snapshots —
    /// reads zero rather than wrapping.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let delta = |field: fn(&StatsSnapshot) -> u64| field(self).saturating_sub(field(earlier));
        StatsSnapshot {
            commits: delta(|s| s.commits),
            read_only_commits: delta(|s| s.read_only_commits),
            aborts_read_conflict: delta(|s| s.aborts_read_conflict),
            aborts_write_conflict: delta(|s| s.aborts_write_conflict),
            aborts_validation: delta(|s| s.aborts_validation),
            aborts_explicit: delta(|s| s.aborts_explicit),
            validation_skipped_commits: delta(|s| s.validation_skipped_commits),
            read_dedup_hits: delta(|s| s.read_dedup_hits),
            slab_recycle_hits: delta(|s| s.slab_recycle_hits),
            node_recycle_hits: delta(|s| s.node_recycle_hits),
            chain_recycle_hits: delta(|s| s.chain_recycle_hits),
            snapshot_preserved: delta(|s| s.snapshot_preserved),
            snapshot_freed: delta(|s| s.snapshot_freed),
            wal_records_appended: delta(|s| s.wal_records_appended),
            group_commit_flushes: delta(|s| s.group_commit_flushes),
            recovery_records_replayed: delta(|s| s.recovery_records_replayed),
            checkpoints_written: delta(|s| s.checkpoints_written),
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} (ro={}, noval={}) aborts={} [read={} write={} validation={} explicit={}] \
             dedup={} slab={} node={} snap={}/{} wal={}+{}fl ckpt={} replay={}",
            self.commits,
            self.read_only_commits,
            self.validation_skipped_commits,
            self.total_aborts(),
            self.aborts_read_conflict,
            self.aborts_write_conflict,
            self.aborts_validation,
            self.aborts_explicit,
            self.read_dedup_hits,
            self.slab_recycle_hits,
            self.node_recycle_hits,
            self.snapshot_preserved,
            self.snapshot_freed,
            self.wal_records_appended,
            self.group_commit_flushes,
            self.checkpoints_written,
            self.recovery_records_replayed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_counters() {
        let stats = StmStats::new();
        stats.record_commit(true);
        stats.record_commit(false);
        stats.record_abort(TxAbort::ReadConflict);
        stats.record_abort(TxAbort::WriteConflict);
        stats.record_abort(TxAbort::WriteConflict);
        let snap = stats.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.read_only_commits, 1);
        assert_eq!(snap.aborts_read_conflict, 1);
        assert_eq!(snap.aborts_write_conflict, 2);
        assert_eq!(snap.total_aborts(), 3);
        assert!((snap.abort_rate() - 1.5).abs() < 1e-9);
    }

    /// Zero the process-global fields (block recycling, snapshot custody,
    /// durability): concurrently running tests may recycle blocks or move
    /// history entries between a `reset` and the `snapshot` under assertion,
    /// and those deltas are legitimate.
    fn without_arena_counters(mut snap: StatsSnapshot) -> StatsSnapshot {
        snap.slab_recycle_hits = 0;
        snap.node_recycle_hits = 0;
        snap.snapshot_preserved = 0;
        snap.snapshot_freed = 0;
        snap.wal_records_appended = 0;
        snap.group_commit_flushes = 0;
        snap.recovery_records_replayed = 0;
        snap.checkpoints_written = 0;
        snap
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = StmStats::new();
        stats.record_commit(false);
        stats.record_abort(TxAbort::Explicit);
        stats.reset();
        assert_eq!(
            without_arena_counters(stats.snapshot()),
            StatsSnapshot::default()
        );
    }

    #[test]
    fn since_computes_deltas() {
        let stats = StmStats::new();
        stats.record_commit(false);
        let first = stats.snapshot();
        stats.record_commit(false);
        stats.record_abort(TxAbort::ValidationFailed);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.aborts_validation, 1);
    }

    #[test]
    fn since_across_a_reset_saturates_at_zero() {
        // The documented per-trial idiom, used together: every field of the
        // later snapshot is below the earlier one's.
        let stats = StmStats::new();
        stats.record_commit(true);
        stats.record_abort(TxAbort::Explicit);
        stats.record_hot_path(5);
        let before = stats.snapshot();
        stats.reset();
        let delta = stats.snapshot().since(&before);
        assert_eq!(without_arena_counters(delta), StatsSnapshot::default());
    }

    #[test]
    fn hot_path_counters_accumulate_and_reset() {
        let stats = StmStats::new();
        stats.record_validation_skipped();
        stats.record_hot_path(3);
        stats.record_hot_path(0); // a zero batch must not touch the line
        let snap = stats.snapshot();
        assert_eq!(snap.validation_skipped_commits, 1);
        assert_eq!(snap.read_dedup_hits, 3);
        let display = snap.to_string();
        assert!(display.contains("noval=1"));
        assert!(display.contains("dedup=3"));
        assert!(display.contains("slab="));
        stats.reset();
        assert_eq!(
            without_arena_counters(stats.snapshot()),
            StatsSnapshot::default()
        );
    }

    #[test]
    fn arena_counters_report_deltas_from_the_baseline() {
        /// One block of `kind` served from this thread's magazine.
        fn recycle_one(kind: BlockKind) {
            for _ in 0..2 {
                let block = arena::alloc_raw(40, 8, kind);
                // SAFETY: `block` came from `alloc_raw` with the same size/align and is not used again.
                unsafe { arena::free_raw(block, 40, 8) };
            }
        }
        let stats = StmStats::new();
        let before = stats.snapshot();
        BlockKind::ALL.into_iter().for_each(recycle_one);
        // A snapshot folds the calling thread's unfolded hits in first.
        let after = stats.snapshot();
        assert!(after.slab_recycle_hits > before.slab_recycle_hits);
        assert!(after.node_recycle_hits > before.node_recycle_hits);
        assert_eq!(after.chain_recycle_hits, 0);
        // A freshly constructed instance baselines at the current totals and
        // reports only recycling from here on.
        let fresh = StmStats::new();
        let fresh_before = fresh.snapshot().node_recycle_hits;
        recycle_one(BlockKind::Node);
        assert!(fresh.snapshot().node_recycle_hits > fresh_before);
    }

    #[test]
    fn durability_counters_report_deltas_from_the_baseline() {
        let stats = StmStats::new();
        let before = stats.snapshot();
        note_wal_records_appended(3);
        note_wal_records_appended(0); // zero batches must not touch the line
        note_group_commit_flush();
        note_recovery_records_replayed(2);
        note_checkpoint_written();
        let delta = stats.snapshot().since(&before);
        // Other tests may note durability events concurrently, so assert a
        // floor, not equality.
        assert!(delta.wal_records_appended >= 3);
        assert!(delta.group_commit_flushes >= 1);
        assert!(delta.recovery_records_replayed >= 2);
        assert!(delta.checkpoints_written >= 1);
        let display = stats.snapshot().to_string();
        assert!(display.contains("wal="));
        assert!(display.contains("ckpt="));
        // Reset re-baselines at the current global totals.
        stats.reset();
        let fresh = stats.snapshot();
        assert_eq!(without_arena_counters(fresh), StatsSnapshot::default());
        note_checkpoint_written();
        assert!(stats.snapshot().checkpoints_written >= 1);
    }

    #[test]
    fn abort_rate_of_empty_stats_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StmStats::new().snapshot().to_string();
        assert!(s.contains("commits=0"));
    }
}
