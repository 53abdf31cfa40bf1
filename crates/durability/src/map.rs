//! [`DurableMap`]: a skip hash with a write-ahead log and checkpoints.
//!
//! The map layer ties the pieces together.  Opening a map recovers
//! whatever survived in its directory (checkpoint + WAL suffix), re-seeds
//! the STM clock past the highest recovered stamp, and starts a fresh log
//! segment.  After that, every *effectful* operation that goes through
//! [`DurableMap::transact`] (or the sealed conveniences built on it) is
//! recorded: the body gets the ordinary [`TxView`], journaled into a leased
//! [`RecordBuf`](crate::wal::RecordBuf) (see [`skiphash::Journal`]), so
//! each write logs itself as it runs, and the STM's commit-sequenced hook
//! hands the buffer — stamped with the real commit version — to the
//! group-commit writer *at the serialization point*, before the commit's
//! writes are visible to other transactions.  Aborted attempts drop their
//! buffer; nothing is logged for them.
//!
//! Reads are never logged, and read-only transactions cost the durability
//! layer nothing.
//!
//! # The acknowledged-durable contract
//!
//! A commit is durable once [`DurableMap::sync`] returns `Ok` after it
//! (the `*_durable` conveniences bundle the barrier).  The barrier is
//! *causal*: because records are enqueued before their commit becomes
//! visible, any commit whose effects the `sync` caller observed — its
//! own, or one it read on any thread — was enqueued before `sync`
//! sampled the queue, so an `Ok` covers it.
//!
//! Commits not yet synced may or may not survive a crash — group commit
//! writes them within a flush interval, or sooner if anyone syncs — but
//! recovery always
//! reconstructs a *causally consistent prefix of the log order*: records
//! reach the file in submission order and a torn tail only ever removes a
//! suffix, so if commit `B` survived, so did every commit `B` could have
//! observed (in particular every earlier write to any key `B` touched).
//! Two *independent* unsynced commits from the same flush window may
//! survive out of stamp order — the suffix past the durable barrier is
//! causally closed, not necessarily a stamp-exact snapshot; everything at
//! or below an acknowledged `sync` is.
//!
//! # Caveats
//!
//! * The map must use the logical clock
//!   ([`skiphash_stm::ClockKind::Sampled`]); [`DurableMap::open`] fails on
//!   the hardware clock, which cannot be re-seeded after recovery.
//! * Writes that bypass the durable layer (via [`DurableMap::unlogged`])
//!   are invisible to the log and will not survive a crash.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use skiphash_stm::sync::{AtomicU64, Ordering};

use skiphash::{Config, SkipHash, Snapshot, TxView};
use skiphash::{MapKey, MapValue};
use skiphash_stm::{Stm, TxResult};

use crate::checkpoint::write_checkpoint;
use crate::codec::Codec;
use crate::lock::DirLock;
use crate::recovery::recover;
use crate::storage::{StdStorage, Storage};
use crate::wal::{Wal, WalConfig};

/// What [`DurableMap::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Version of the checkpoint that seeded the state (0 = none).
    pub checkpoint_version: u64,
    /// WAL records replayed on top of it.
    pub records_replayed: u64,
    /// Highest commit stamp recovered; the clock resumed past this.
    pub max_stamp: u64,
    /// Whether a torn/corrupt tail had to be truncated.
    pub truncated_tail: bool,
}

/// Configuration for opening a [`DurableMap`].
pub struct DurableMapBuilder {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    wal: WalConfig,
    map_config: Config,
    checkpoint_every_ops: Option<u64>,
}

impl DurableMapBuilder {
    /// Start from defaults: real file system, default WAL tuning, default
    /// map configuration, manual checkpoints only.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            storage: Arc::new(StdStorage),
            wal: WalConfig::default(),
            map_config: Config::default(),
            checkpoint_every_ops: None,
        }
    }

    /// Use a custom [`Storage`] (in-memory, fault-injecting, ...).
    pub fn storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Tune the group-commit writer.
    pub fn wal_config(mut self, config: WalConfig) -> Self {
        self.wal = config;
        self
    }

    /// Configure the underlying map (clock kind, index geometry, ...).
    pub fn map_config(mut self, config: Config) -> Self {
        self.map_config = config;
        self
    }

    /// Take a checkpoint automatically after roughly this many logged
    /// operations (best-effort: a failing automatic checkpoint is retried
    /// at the next threshold and reported through
    /// [`DurableMap::take_checkpoint_error`]).
    pub fn checkpoint_every_ops(mut self, ops: u64) -> Self {
        self.checkpoint_every_ops = Some(ops.max(1));
        self
    }

    /// Recover (or create) the map.
    pub fn open<K, V>(self) -> io::Result<DurableMap<K, V>>
    where
        K: MapKey + Codec,
        V: MapValue + Codec,
    {
        DurableMap::open_with(self)
    }
}

/// A crash-safe ordered map: a [`SkipHash`] plus WAL and checkpoints.
pub struct DurableMap<K: MapKey + Codec, V: MapValue + Codec> {
    map: SkipHash<K, V>,
    wal: Wal,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    recovery: RecoveryInfo,
    /// Serializes checkpoints (snapshot → write → truncate).
    checkpoint_lock: Mutex<()>,
    ops_since_checkpoint: AtomicU64,
    checkpoint_every_ops: Option<u64>,
    checkpoint_error: Mutex<Option<io::Error>>,
    /// Exclusive ownership of `dir`; released (lock file removed) on drop.
    _dir_lock: DirLock,
}

impl<K: MapKey + Codec, V: MapValue + Codec> std::fmt::Debug for DurableMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableMap")
            .field("dir", &self.dir)
            .field("len", &self.map.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl<K: MapKey + Codec, V: MapValue + Codec> DurableMap<K, V> {
    /// Open (recovering if necessary) a durable map in `dir` with default
    /// settings.  See [`DurableMapBuilder`] for knobs.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        DurableMapBuilder::new(dir).open()
    }

    /// Builder-style open.
    pub fn builder(dir: impl Into<PathBuf>) -> DurableMapBuilder {
        DurableMapBuilder::new(dir)
    }

    fn open_with(builder: DurableMapBuilder) -> io::Result<Self> {
        let DurableMapBuilder {
            dir,
            storage,
            wal,
            map_config,
            checkpoint_every_ops,
        } = builder;
        storage.create_dir_all(&dir)?;
        // Fail fast before touching any WAL/checkpoint file: two maps on
        // one directory would replay and truncate each other's log.
        let dir_lock = DirLock::acquire(Arc::clone(&storage), &dir)?;
        let recovered = recover::<K, V>(&*storage, &dir)?;
        let map = SkipHash::with_config(map_config);
        for (key, value) in &recovered.entries {
            map.insert(key.clone(), value.clone());
        }
        // New commits must mint stamps strictly above everything the log
        // already contains, or the next recovery would treat them as
        // already-covered duplicates.
        if !map.stm().advance_clock_to(recovered.max_stamp) {
            return Err(io::Error::other(
                "durable maps need the logical clock (Sampled): \
                 the hardware clock cannot be re-seeded after recovery",
            ));
        }
        let info = RecoveryInfo {
            checkpoint_version: recovered.checkpoint_version,
            records_replayed: recovered.records_replayed,
            max_stamp: recovered.max_stamp,
            truncated_tail: recovered.truncated_tail,
        };
        let wal = Wal::open(
            Arc::clone(&storage),
            &dir,
            wal,
            recovered.next_segment_seq,
            recovered.surviving_segments,
        )?;
        Ok(Self {
            map,
            wal,
            storage,
            dir,
            recovery: info,
            checkpoint_lock: Mutex::new(()),
            ops_since_checkpoint: AtomicU64::new(0),
            checkpoint_every_ops,
            checkpoint_error: Mutex::new(None),
            _dir_lock: dir_lock,
        })
    }

    /// What opening this map recovered.
    pub fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Run a transaction whose effectful operations are logged.
    ///
    /// The body sees the ordinary [`TxView`], journaled: every write it
    /// makes is recorded and, if the attempt commits, appended to the WAL
    /// under the commit's real stamp.  Retried attempts re-lease a fresh
    /// record buffer, so aborted work never reaches the log.
    pub fn transact<T, F>(&self, mut body: F) -> T
    where
        F: FnMut(&mut TxView<'_, '_, K, V>) -> TxResult<T>,
    {
        let committed_ops = Cell::new(0u64);
        let out = self.map.stm().run(|tx| {
            let mut buf = self.wal.lease();
            let out = body(&mut self.map.view(tx).journaled(&mut buf))?;
            committed_ops.set(u64::from(buf.op_count()));
            if !buf.is_empty() {
                // Sequenced, not post-commit: the record must be queued
                // before the commit is visible, or a dependent commit could
                // overtake it past the sync barrier (and past a tear).
                tx.on_commit_sequenced(move |stamp| buf.submit(stamp));
            }
            Ok(out)
        });
        // `run` returned, so the attempt that set `committed_ops` is the
        // one that committed.
        if committed_ops.get() > 0 {
            self.note_logged_ops(committed_ops.get());
        }
        out
    }

    fn note_logged_ops(&self, n: u64) {
        let Some(every) = self.checkpoint_every_ops else {
            return;
        };
        let before = self.ops_since_checkpoint.fetch_add(n, Ordering::Relaxed);
        if before < every && before + n >= every {
            self.ops_since_checkpoint.store(0, Ordering::Relaxed);
            if let Err(e) = self.checkpoint() {
                let mut slot = self
                    .checkpoint_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *slot = Some(e);
            }
        }
    }

    /// The error from the most recent failed *automatic* checkpoint, if
    /// any (explicit [`DurableMap::checkpoint`] calls report directly).
    pub fn take_checkpoint_error(&self) -> Option<io::Error> {
        self.checkpoint_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Insert `key` → `value` if absent; logged when effective.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.transact(|view| view.insert(key.clone(), value.clone()))
    }

    /// Insert or replace; returns the previous value.  Always logged.
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        self.transact(|view| view.upsert(key.clone(), value.clone()))
    }

    /// Remove `key`; logged when it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.transact(|view| view.remove(key))
    }

    /// Remove and return `key`'s value; logged when it was present.
    pub fn take(&self, key: &K) -> Option<V> {
        self.transact(|view| view.take(key))
    }

    /// Point lookup (reads are never logged).
    pub fn get(&self, key: &K) -> Option<V> {
        self.map.get(key)
    }

    /// Membership test.
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All entries in key order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.map.to_vec()
    }

    /// A consistent point-in-time snapshot (see `SkipHash::snapshot`).
    pub fn snapshot(&self) -> Snapshot<K, V> {
        self.map.snapshot()
    }

    /// Durability barrier: block until every commit submitted before this
    /// call is fsynced, or report the log's sticky failure.
    ///
    /// Coverage is causal: records are queued at the commit's
    /// serialization point (before its writes are visible), so `Ok` covers
    /// every logged commit whose effects this thread performed *or
    /// observed* before calling — there is no window where a commit you
    /// read can be acknowledged around while an earlier one it depended on
    /// is still un-queued.
    pub fn sync(&self) -> io::Result<()> {
        self.wal.sync()
    }

    /// [`DurableMap::upsert`], then wait for it to reach disk.
    pub fn upsert_durable(&self, key: K, value: V) -> io::Result<Option<V>> {
        let prev = self.upsert(key, value);
        self.sync()?;
        Ok(prev)
    }

    /// [`DurableMap::remove`], then wait for it to reach disk.
    pub fn remove_durable(&self, key: &K) -> io::Result<bool> {
        let removed = self.remove(key);
        self.sync()?;
        Ok(removed)
    }

    /// Write a checkpoint of the current state and truncate WAL segments
    /// it covers.  Returns the checkpointed version.
    pub fn checkpoint(&self) -> io::Result<u64> {
        let _guard = self
            .checkpoint_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let snap = self.map.snapshot();
        let at = snap.version();
        let entries = snap.to_vec();
        write_checkpoint(&*self.storage, &self.dir, &entries, at)?;
        // Seal the active segment so its records become truncatable by the
        // *next* checkpoint, then drop everything this one already covers.
        self.wal.request_rotation();
        self.wal.truncate_covered(at)?;
        Ok(at)
    }

    /// The underlying STM runtime (stats, clock).
    pub fn stm(&self) -> &Stm {
        self.map.stm()
    }

    /// The raw in-memory map.
    ///
    /// Writes made through this reference bypass the WAL and will NOT
    /// survive a crash; use it for reads, stats, and invariant checks.
    pub fn unlogged(&self) -> &SkipHash<K, V> {
        &self.map
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultPlan, FaultStorage, MemStorage};
    use std::time::Duration;

    fn fast_wal() -> WalConfig {
        WalConfig {
            flush_interval: Duration::from_micros(100),
            ..WalConfig::default()
        }
    }

    fn open_mem(storage: &MemStorage) -> DurableMap<u64, u64> {
        DurableMapBuilder::new("/db")
            .storage(Arc::new(storage.clone()))
            .wal_config(fast_wal())
            .open()
            .unwrap()
    }

    #[test]
    fn write_sync_reopen_recovers_everything() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            assert_eq!(map.recovery_info(), RecoveryInfo::default());
            assert!(map.insert(1, 10));
            assert_eq!(map.upsert(1, 11), Some(10));
            assert!(map.insert(2, 20));
            assert!(map.remove(&2));
            map.sync().unwrap();
        }
        let map = open_mem(&storage);
        assert_eq!(map.to_vec(), vec![(1, 11)]);
        let info = map.recovery_info();
        assert!(
            info.records_replayed >= 3,
            "replayed {}",
            info.records_replayed
        );
        assert!(!info.truncated_tail);
        // New commits mint stamps above everything recovered.
        assert!(map.stm().clock_now() >= info.max_stamp);
    }

    #[test]
    fn aborted_transactions_log_nothing() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            map.insert(1, 10);
            // A durable transact that aborts explicitly on its first two
            // attempts: only the committing attempt's effects may log.
            let mut attempts = 0;
            map.transact(|view| {
                attempts += 1;
                view.upsert(9, 99)?;
                view.remove(&9)?;
                view.upsert(5, attempts)?;
                if attempts < 3 {
                    return Err(skiphash_stm::TxAbort::Explicit);
                }
                Ok(())
            });
            map.sync().unwrap();
        }
        let map = open_mem(&storage);
        assert_eq!(
            map.to_vec(),
            vec![(1, 10), (5, 3)],
            "only committed effects recover; retried attempts log once"
        );
    }

    #[test]
    fn insert_noop_and_absent_remove_are_not_logged() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            assert!(map.insert(1, 10));
            assert!(!map.insert(1, 999), "second insert is a no-op");
            assert!(!map.remove(&42), "removing an absent key is a no-op");
            map.sync().unwrap();
        }
        let map = open_mem(&storage);
        assert_eq!(map.to_vec(), vec![(1, 10)]);
        // Exactly one record (the effective insert) was ever appended.
        assert_eq!(map.recovery_info().records_replayed, 1);
    }

    #[test]
    fn every_view_write_op_replays_to_the_live_state() {
        use skiphash::Compute;
        let storage = MemStorage::new();
        let live = {
            let map = open_mem(&storage);
            // Each write op along its effective and its no-op path, in one
            // logged commit.
            map.transact(|v| {
                assert!(v.insert(1, 10)?);
                assert!(!v.insert(1, 11)?);
                assert_eq!(v.upsert(2, 20)?, None);
                assert_eq!(v.update(&1, |c| c + 1)?, Some(11));
                assert_eq!(v.update(&9, |c| c + 1)?, None);
                assert_eq!(v.get_or_insert_with(3, || 30)?, 30);
                assert_eq!(v.get_or_insert_with(3, || 99)?, 30);
                let bump = |c: Option<&u64>| Compute::Put(c.map_or(40, |c| c + 1));
                assert_eq!(v.compute(3, bump)?, Some(31));
                assert_eq!(v.compute(4, bump)?, Some(40));
                assert_eq!(v.compute(3, |_| Compute::Keep)?, Some(31));
                assert_eq!(v.compute(3, |_| Compute::Remove)?, None);
                assert_eq!(v.compute(3, |_| Compute::Remove)?, None);
                assert_eq!(v.take(&1)?, Some(11));
                assert!(!v.remove(&1)?);
                Ok(())
            });
            map.transact(|v| {
                v.update(&2, |c| c + 1)?;
                v.update(&4, |c| c * 2)
            });
            map.sync().unwrap();
            map.to_vec()
        };
        assert_eq!(live, vec![(2, 21), (4, 80)]);
        let map = open_mem(&storage);
        assert_eq!(map.to_vec(), live);
        assert_eq!(map.recovery_info().records_replayed, 2);
    }

    #[test]
    fn checkpoint_bounds_recovery_and_truncates() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            for i in 0..50u64 {
                map.upsert(i, i * 10);
            }
            map.sync().unwrap();
            let at = map.checkpoint().unwrap();
            assert!(at >= 50);
            for i in 50..60u64 {
                map.upsert(i, i * 10);
            }
            map.sync().unwrap();
        }
        let map = open_mem(&storage);
        let info = map.recovery_info();
        assert!(info.checkpoint_version >= 50);
        assert_eq!(
            info.records_replayed, 10,
            "only the post-checkpoint suffix replays"
        );
        assert_eq!(map.len(), 60);
        assert_eq!(map.get(&59), Some(590));
    }

    #[test]
    fn composed_transactions_replay_atomically() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            map.insert(1, 100);
            map.insert(2, 0);
            // A transfer: both effects in one commit record.
            map.transact(|view| {
                let a = view.get(&1)?.unwrap_or(0);
                view.upsert(1, a - 60)?;
                let b = view.get(&2)?.unwrap_or(0);
                view.upsert(2, b + 60)?;
                Ok(())
            });
            map.sync().unwrap();
        }
        let map = open_mem(&storage);
        assert_eq!(map.get(&1), Some(40));
        assert_eq!(map.get(&2), Some(60));
    }

    #[test]
    fn hardware_clock_is_rejected() {
        use skiphash_stm::ClockKind;
        let config = Config {
            clock: ClockKind::Hardware,
            ..Config::default()
        };
        let err = DurableMapBuilder::new("/db")
            .storage(Arc::new(MemStorage::new()))
            .map_config(config)
            .open::<u64, u64>()
            .unwrap_err();
        assert!(err.to_string().contains("logical clock"), "{err}");
    }

    #[test]
    fn failed_log_surfaces_through_sync_not_panic() {
        let fault = FaultStorage::new(FaultPlan {
            // Lock-file and header syncs ok, first batch sync fails.
            fail_sync_at: Some(3),
            ..FaultPlan::default()
        });
        let map: DurableMap<u64, u64> = DurableMapBuilder::new("/db")
            .storage(Arc::new(fault.clone()))
            .wal_config(fast_wal())
            .open()
            .unwrap();
        map.upsert(1, 1);
        assert!(map.sync().is_err());
        // The in-memory map still works; durability is what failed.
        assert_eq!(map.get(&1), Some(1));
        map.upsert(2, 2);
        assert!(map.sync().is_err(), "failure is sticky");
        // Recovery from the surviving bytes must not panic and must not
        // contain unacknowledged data beyond what reached the disk.
        let rec = crate::recovery::recover::<u64, u64>(&fault.mem(), Path::new("/db")).unwrap();
        assert!(rec.entries.len() <= 2);
    }

    #[test]
    fn oversized_commit_is_never_acknowledged() {
        use crate::wal::MAX_FRAME_BYTES;
        let storage = MemStorage::new();
        let open = || -> DurableMap<u64, Vec<u8>> {
            DurableMapBuilder::new("/db")
                .storage(Arc::new(storage.clone()))
                .wal_config(fast_wal())
                .open()
                .unwrap()
        };
        {
            let map = open();
            map.upsert(1, vec![1u8]);
            map.sync().unwrap();
            // A single value past the frame limit poisons the log: the
            // commit stands in memory but can never be acknowledged.
            map.upsert(2, vec![0u8; MAX_FRAME_BYTES as usize]);
            let err = map.sync().unwrap_err();
            assert!(err.to_string().contains("frame limit"), "{err}");
            assert_eq!(
                map.get(&2).map(|v| v.len()),
                Some(MAX_FRAME_BYTES as usize),
                "the in-memory commit stands; durability is what failed"
            );
            map.upsert(3, vec![3u8]);
            assert!(map.sync().is_err(), "the poison is sticky");
        }
        // Recovery sees exactly the acknowledged prefix — the oversized
        // record was refused at submit, not appended-then-unreadable.
        let map = open();
        assert_eq!(map.to_vec(), vec![(1, vec![1u8])]);
        assert!(!map.recovery_info().truncated_tail);
    }

    #[test]
    fn second_open_on_a_locked_directory_fails_fast() {
        let storage = MemStorage::new();
        let held = open_mem(&storage);
        held.insert(1, 10);
        let err = DurableMapBuilder::new("/db")
            .storage(Arc::new(storage.clone()))
            .wal_config(fast_wal())
            .open::<u64, u64>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            err.to_string().contains("locked by a live durable map"),
            "contended open explains itself: {err}"
        );
        // The loser must not have disturbed the winner's files: the held
        // map keeps working and a post-release reopen recovers its data.
        held.insert(2, 20);
        held.sync().unwrap();
        drop(held);
        let map = open_mem(&storage);
        assert_eq!(map.to_vec(), vec![(1, 10), (2, 20)]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stale_lock_from_a_crashed_process_is_broken() {
        let storage = MemStorage::new();
        {
            let map = open_mem(&storage);
            map.insert(1, 10);
            map.sync().unwrap();
        }
        // Forge the scar a SIGKILLed holder leaves: a lock file naming a
        // PID that no longer exists (u32::MAX is above pid_max).
        storage.put(
            Path::new("/db/LOCK"),
            format!("{}\n", u32::MAX).into_bytes(),
        );
        let map = open_mem(&storage);
        assert_eq!(
            map.to_vec(),
            vec![(1, 10)],
            "stale lock broken, data intact"
        );
    }

    #[test]
    fn automatic_checkpoints_fire_on_threshold() {
        let storage = MemStorage::new();
        let map: DurableMap<u64, u64> = DurableMapBuilder::new("/db")
            .storage(Arc::new(storage.clone()))
            .wal_config(fast_wal())
            .checkpoint_every_ops(10)
            .open()
            .unwrap();
        for i in 0..25u64 {
            map.upsert(i, i);
        }
        map.sync().unwrap();
        assert!(map.take_checkpoint_error().is_none());
        let images: Vec<String> = storage
            .list(Path::new("/db"))
            .unwrap()
            .into_iter()
            .filter(|n| crate::checkpoint::parse_checkpoint_name(n).is_some())
            .collect();
        assert_eq!(images.len(), 1, "old images are pruned: {images:?}");
    }
}
