//! The skip hash ordered map: sealed single-operation API.
//!
//! Every method on [`SkipHash`] runs as its own internal transaction ("sealed"
//! operations).  The operation bodies themselves live in [`crate::view`] on
//! [`TxView`]: a sealed call is literally
//! `stm.run(|tx| self.view(tx).op(..))`, so the sealed and composable tiers
//! can never drift apart.

use skiphash_stm::sync::{AtomicU64, Ordering};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use skiphash_stm::{StatsSnapshot, Stm, TCell, Txn};

use crate::config::{Config, SkipHashBuilder, DEFAULT_REMOVAL_BUFFER};
use crate::hashmap::Index;
use crate::node::RawNode;
use crate::range;
use crate::rqc::{DeferralBuffer, Rqc};
use crate::skiplist::SkipList;
use crate::snapshot::Snapshot;
use crate::view::{Compute, TxView};
use crate::{MapKey, MapValue};

/// Counters describing how range queries executed (fast path vs slow path).
///
/// `fast_path_aborts / fast_path_successes` reproduces the paper's Table 1
/// metric ("aborts per successful range query").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Fast-path attempts that committed.
    pub fast_path_successes: u64,
    /// Fast-path attempts that aborted.
    pub fast_path_aborts: u64,
    /// Range queries that completed on the slow path.
    pub slow_path_completions: u64,
}

impl RangeStats {
    /// Aborted fast-path attempts per successful fast-path range query;
    /// `f64::INFINITY` when nothing succeeded but something aborted.
    pub fn aborts_per_success(&self) -> f64 {
        if self.fast_path_successes == 0 {
            if self.fast_path_aborts == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.fast_path_aborts as f64 / self.fast_path_successes as f64
        }
    }
}

pub(crate) struct RangeCounters {
    pub(crate) fast_success: AtomicU64,
    pub(crate) fast_abort: AtomicU64,
    pub(crate) slow_complete: AtomicU64,
}

impl RangeCounters {
    fn new() -> Self {
        Self {
            fast_success: AtomicU64::new(0),
            fast_abort: AtomicU64::new(0),
            slow_complete: AtomicU64::new(0),
        }
    }
}

/// The sharded population counter behind every `len`.
///
/// One cache-line-padded [`TCell`] per thread slot, bumped *inside* the
/// inserting or removing transaction, so a transaction reads a linearizable
/// count in `O(shards)` instead of walking level 0 in `O(n)`, and a snapshot
/// reads the count at its pinned version.  Sharding keeps updates apart — a
/// single shared counter cell would conflict every pair of them.  The costs,
/// by design:
///
/// * every update carries one extra read + write (its own thread's shard) in
///   its sets — two live threads conflict only if the slot table folds them
///   onto one shard;
/// * a `len` reads every shard, so it conflicts with any concurrent update —
///   inherent to a linearizable count.
///
/// Shards may individually go negative (a thread can remove keys another
/// thread inserted); only the transactionally consistent sum is meaningful,
/// and that sum is always the true population.
pub(crate) struct Population {
    shards: Box<[CachePadded<TCell<i64>>]>,
}

impl Population {
    fn new() -> Self {
        Self {
            shards: (0..crate::thread_table_size())
                .map(|_| CachePadded::new(TCell::new(0)))
                .collect(),
        }
    }

    /// Add `delta` to the calling thread's shard, inside `tx`.
    pub(crate) fn bump(&self, tx: &mut Txn<'_>, delta: i64) -> skiphash_stm::TxResult<()> {
        let cell = &self.shards[crossbeam_epoch::thread_index() & (self.shards.len() - 1)];
        let current = cell.read(tx)?;
        cell.write(tx, current + delta)
    }

    /// The transactionally consistent population, in `O(shards)` reads.
    pub(crate) fn sum(&self, tx: &mut Txn<'_>) -> skiphash_stm::TxResult<i64> {
        let mut total = 0i64;
        for shard in self.shards.iter() {
            total += shard.read(tx)?;
        }
        Ok(total)
    }

    /// The population as the committed shards show it now, for a choice
    /// that steers speed only (a range collect's walk): each shard read
    /// with `peek_unvalidated`, so nothing joins the read set and a
    /// concurrent insert or remove never makes `tx` abort, as the
    /// validated [`Population::sum`] would.  A racing commit can leave the
    /// sum off by its own bumps, negative included.
    pub(crate) fn hint(&self, tx: &Txn<'_>) -> i64 {
        self.shards
            .iter()
            .map(|shard| tx.peek_unvalidated(shard, |v| *v))
            .sum()
    }

    /// The population as of `reader`'s pinned version, in `O(shards)`
    /// pinned reads.
    ///
    /// Exact without a transaction: each shard resolves to its value at the
    /// pinned version, and a commit stamps all its writes (shard bump
    /// included) with one timestamp, so the sum reflects precisely the
    /// updates committed at or before the pin.
    pub(crate) fn sum_pinned(&self, reader: &mut skiphash_stm::PinnedReader<'_>) -> i64 {
        self.shards
            .iter()
            .map(|shard| reader.read(shard, |v| *v))
            .sum()
    }
}

/// The skip hash's state, shared between the public handle, transactional
/// views, and post-commit actions (which capture an `Arc` of it so deferred
/// effects stay valid however long the caller's transaction lives).
pub(crate) struct Inner<K: MapKey, V: MapValue> {
    pub(crate) stm: Arc<Stm>,
    pub(crate) skiplist: SkipList<K, V>,
    pub(crate) index: Index<K, V>,
    pub(crate) rqc: Rqc<K, V>,
    pub(crate) buffer: DeferralBuffer<K, V>,
    pub(crate) config: Config,
    pub(crate) range_counters: RangeCounters,
    pub(crate) population: Population,
}

impl<K: MapKey, V: MapValue> Inner<K, V> {
    /// `after_remove` from Figure 4: either unstitch `node`, inserted at
    /// `i_time` and just unlinked from the index by `tx`, immediately (inside
    /// the removing transaction) or arrange for deferral.  The deferral
    /// itself is §4.5's: it happens after the transaction commits, via the
    /// per-thread buffer, so this returns the node to be buffered.
    pub(crate) fn after_remove(
        &self,
        tx: &mut Txn<'_>,
        node: RawNode<K, V>,
        i_time: u64,
    ) -> skiphash_stm::TxResult<Option<RawNode<K, V>>> {
        if self.rqc.can_unstitch_now(tx, i_time)? {
            // SAFETY: the index holds only nodes on the list, and `tx` took
            // this one out of it, so any other remover conflicts with `tx`.
            unsafe { self.skiplist.unstitch(tx, node) }?;
            return Ok(None);
        }
        Ok(Some(node))
    }

    /// Push a node whose unstitching must be deferred into the calling
    /// thread's buffer, flushing the buffer to the RQC when it fills up.
    /// Runs *outside* any transaction (from a post-commit action).
    pub(crate) fn buffer_deferred_node(&self, node: RawNode<K, V>) {
        if let Some(batch) = self.buffer.push(node) {
            self.flush_deferred_batch(batch);
        }
    }

    pub(crate) fn flush_deferred_batch(&self, batch: Vec<RawNode<K, V>>) {
        if batch.is_empty() {
            return;
        }
        let accepted = self
            .stm
            .run(|tx| self.rqc.defer_batch_to_latest(tx, &batch));
        if !accepted {
            // No slow-path range query is in flight: unstitch the whole batch
            // ourselves.
            self.unstitch_all(&batch);
        }
    }

    /// Unstitch removed nodes whose unstitching was deferred, one small
    /// transaction per node.
    pub(crate) fn unstitch_all(&self, nodes: &[RawNode<K, V>]) {
        let list = &self.skiplist;
        for &node in nodes {
            // SAFETY: a deferred node stays on the list until this unstitch:
            // it left the index when it was removed, and the one batch or RQC
            // list that held it since was handed to this caller alone.
            self.stm.run(|tx| unsafe { list.unstitch(tx, node) });
        }
    }
}

/// A concurrent, linearizable ordered map composing a hash map and a doubly
/// linked skip list behind software transactional memory.
///
/// All operations take `&self`; share the map across threads with
/// [`std::sync::Arc`].
///
/// # Two API tiers
///
/// * **Sealed operations** (this page): every method runs as its own
///   internal transaction.  `insert`, `get`, `remove`, `range`, …
/// * **Composable transactions** ([`SkipHash::view`] /
///   [`SkipHash::transact`]): the same operations inside a *caller-owned*
///   transaction, so several of them — possibly on several maps sharing an
///   [`Stm`] — commit or abort as one atomic unit.  See [`TxView`].
///
/// # Complexity
///
/// | operation | key present | key absent |
/// |-----------|-------------|------------|
/// | `get`     | `O(1)`      | `O(1)`     |
/// | `insert`  | `O(1)` (fails) | `O(log n)` |
/// | `remove`  | expected `O(1)` | `O(1)` (fails) |
/// | `ceil`/`floor`/`succ`/`pred` | `O(1)` | `O(log n)` |
/// | `range`   | `O(log n + k)` | — |
///
/// # Example
///
/// ```
/// use skiphash::SkipHash;
///
/// let map: SkipHash<u64, u64> = SkipHash::new();
/// for k in [4, 2, 9, 7] {
///     map.insert(k, k * 100);
/// }
/// assert_eq!(map.succ(&4), Some(7));
/// let pairs: Vec<_> = map.range(2..=7).collect();
/// assert_eq!(pairs, vec![(2, 200), (4, 400), (7, 700)]);
/// ```
pub struct SkipHash<K: MapKey, V: MapValue> {
    pub(crate) inner: Arc<Inner<K, V>>,
}

impl<K: MapKey, V: MapValue> fmt::Debug for SkipHash<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipHash")
            .field("config", &self.inner.config)
            .finish()
    }
}

impl<K: MapKey, V: MapValue> Default for SkipHash<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MapKey, V: MapValue> SkipHash<K, V> {
    /// Create a skip hash with the default configuration.
    pub fn new() -> Self {
        Self::with_config(Config::default())
    }

    /// Start configuring a skip hash.
    pub fn builder() -> SkipHashBuilder {
        SkipHashBuilder::new()
    }

    /// Create a skip hash with an explicit configuration (and its own private
    /// STM runtime derived from `config.clock`).
    pub fn with_config(config: Config) -> Self {
        Self::with_config_and_stm(config, Arc::new(Stm::with_clock(config.clock)))
    }

    /// Create a skip hash over an explicit, possibly shared, STM runtime.
    ///
    /// Maps sharing one runtime can be touched by a single transaction (see
    /// [`SkipHash::view`]); `config.clock` is overridden by the runtime's
    /// actual clock so the recorded configuration never lies.
    pub(crate) fn with_config_and_stm(mut config: Config, stm: Arc<Stm>) -> Self {
        config.clock = stm.clock_kind();
        Self {
            inner: Arc::new(Inner {
                stm,
                skiplist: SkipList::new(config.max_level),
                index: Index::new(config.bucket_count),
                rqc: Rqc::new(),
                buffer: DeferralBuffer::new(DEFAULT_REMOVAL_BUFFER),
                config,
                range_counters: RangeCounters::new(),
                population: Population::new(),
            }),
        }
    }

    /// The map's configuration.
    pub fn config(&self) -> Config {
        self.inner.config
    }

    /// The STM runtime this map's transactions run on.
    ///
    /// Use it to start caller-owned transactions for [`SkipHash::view`]:
    /// `map.stm().run(|tx| { let mut v = map.view(tx); ... })`.  Two maps
    /// built over the same runtime (via [`SkipHashBuilder::stm`]) can be
    /// composed inside one such transaction.
    pub fn stm(&self) -> &Stm {
        &self.inner.stm
    }

    /// Statistics from the underlying STM: commits and aborts by cause, plus
    /// the hot-path counters — `validation_skipped_commits` (writer commits
    /// whose clock proved quiescence), `read_dedup_hits` (re-reads absorbed
    /// by the read-set filter; skip-list traversals generate many), and
    /// `slab_` / `node_recycle_hits` (payloads of wider-than-a-word cells
    /// and node blocks served from recycled memory; process-wide).  See
    /// `docs/PERF.md`.
    pub fn stm_stats(&self) -> StatsSnapshot {
        self.inner.stm.stats()
    }

    /// Reset STM and range statistics (between benchmark trials).
    pub fn reset_stats(&self) {
        self.inner.stm.reset_stats();
        self.inner
            .range_counters
            .fast_success
            .store(0, Ordering::Relaxed);
        self.inner
            .range_counters
            .fast_abort
            .store(0, Ordering::Relaxed);
        self.inner
            .range_counters
            .slow_complete
            .store(0, Ordering::Relaxed);
    }

    /// Range query execution statistics.
    pub fn range_stats(&self) -> RangeStats {
        RangeStats {
            fast_path_successes: self
                .inner
                .range_counters
                .fast_success
                .load(Ordering::Relaxed),
            fast_path_aborts: self.inner.range_counters.fast_abort.load(Ordering::Relaxed),
            slow_path_completions: self
                .inner
                .range_counters
                .slow_complete
                .load(Ordering::Relaxed),
        }
    }

    /// Pin the map's current version and return a read-only [`Snapshot`]
    /// frozen at it.
    ///
    /// The snapshot serves `get` / `range` / `to_vec` / `len` exactly as the
    /// map stood at the pin, for as long as the handle lives, while writers
    /// commit freely — an MVCC time-travel read.  Superseded payloads the
    /// snapshot still needs are retained by the STM's snapshot registry and
    /// released when the last snapshot covering them is dropped, so
    /// retention is bounded by live snapshots (see `docs/PERF.md`).
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// map.insert(1, 10);
    /// let snap = map.snapshot();
    /// map.insert(2, 20);
    /// assert_eq!(snap.len(), 1, "later inserts are invisible");
    /// assert_eq!(map.len(), 2);
    /// ```
    pub fn snapshot(&self) -> Snapshot<K, V> {
        Snapshot::new(Arc::clone(&self.inner), self.inner.stm.pin_snapshot())
    }

    /// Open a transactional view of this map inside the caller-owned
    /// transaction `tx`.
    ///
    /// All [`TxView`] operations become part of `tx`: they commit or abort
    /// together with everything else the transaction does, including views of
    /// *other* maps built over the same [`Stm`] runtime.  This is the
    /// composition tier the sealed methods are built on.
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// map.insert(1, 10);
    /// // Atomic read-modify-write across two keys.
    /// map.stm().run(|tx| {
    ///     let mut v = map.view(tx);
    ///     let taken = v.take(&1)?.unwrap_or(0);
    ///     v.insert(2, taken + 5)?;
    ///     Ok(())
    /// });
    /// assert_eq!(map.get(&2), Some(15));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `tx` was started by a different [`Stm`] runtime than this
    /// map's — timestamps from two unrelated clocks are incomparable, so the
    /// composition would be unsound.  Build the maps you want to compose over
    /// one shared runtime with [`SkipHashBuilder::stm`].
    pub fn view<'a, 't>(&'a self, tx: &'a mut Txn<'t>) -> TxView<'a, 't, K, V> {
        TxView::new(&self.inner, tx)
    }

    /// Run `body` as one atomic transaction over this map.
    ///
    /// Convenience over [`SkipHash::view`] for single-map composition: the
    /// body receives a ready-made [`TxView`] and is retried until it commits,
    /// under the [`TxResult`](skiphash_stm::TxResult) contract.
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// map.transact(|v| {
    ///     v.insert(1, 10)?;
    ///     v.insert(2, 20)?;
    ///     Ok(())
    /// });
    /// assert_eq!(map.len(), 2);
    /// ```
    pub fn transact<T, F>(&self, mut body: F) -> T
    where
        F: FnMut(&mut TxView<'_, '_, K, V>) -> skiphash_stm::TxResult<T>,
    {
        self.inner.stm.run(|tx| {
            let mut view = TxView::new(&self.inner, tx);
            body(&mut view)
        })
    }

    /// [`SkipHash::transact`] for the sealed reads: the body never writes,
    /// so it runs as a read-only attempt and keeps no read set (see
    /// [`Stm::run_read_only`]).
    fn transact_read<T, F>(&self, mut body: F) -> T
    where
        F: FnMut(&mut TxView<'_, '_, K, V>) -> skiphash_stm::TxResult<T>,
    {
        self.inner
            .stm
            .run_read_only(|tx| body(&mut TxView::new(&self.inner, tx)))
    }

    /// Look up `key`, returning a clone of its value.
    ///
    /// `O(1)`: a hash map lookup plus one value read.
    pub fn get(&self, key: &K) -> Option<V> {
        self.transact_read(|v| v.get(key))
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.transact_read(|v| v.contains_key(key))
    }

    /// Insert `key -> value` **only if `key` is absent**, returning whether
    /// the insertion happened.
    ///
    /// # This never overwrites
    ///
    /// `insert` follows the paper's *set-style* semantics: when the key is
    /// already present it returns `false` and the map is **unchanged** — the
    /// existing value is *not* replaced and the new value is dropped.  This
    /// differs from `std::collections` maps, whose `insert` overwrites and
    /// returns the previous value.  If you want overwrite-and-return
    /// semantics, use [`SkipHash::upsert`]; if you want to modify an existing
    /// value atomically, use [`SkipHash::update`] or [`SkipHash::compute`].
    pub fn insert(&self, key: K, value: V) -> bool {
        self.transact(|v| v.insert(key.clone(), value.clone()))
    }

    /// Insert or overwrite, returning the displaced value when the key was
    /// present.
    ///
    /// This is the `std`-style counterpart to the set-style
    /// [`SkipHash::insert`]: it *always* stores `value`, and tells you what
    /// it replaced.  (A convenience beyond the paper's interface; an
    /// overwrite is a value update on the existing node and costs `O(1)`.)
    pub fn upsert(&self, key: K, value: V) -> Option<V> {
        self.transact(|v| v.upsert(key.clone(), value.clone()))
    }

    /// Remove `key`.  Returns `true` if the key was present.
    pub fn remove(&self, key: &K) -> bool {
        self.take(key).is_some()
    }

    /// Remove `key` and return its value if it was present.
    pub fn take(&self, key: &K) -> Option<V> {
        self.transact(|v| v.take(key))
    }

    /// Atomically replace the value under `key` with `f(&current)`, returning
    /// the new value, or `None` (without calling `f`) when the key is absent.
    ///
    /// The read and the write happen in one transaction, so concurrent
    /// `update`s to the same key never lose increments the way a
    /// `get` + `upsert` pair would.  `f` may be called once per retry; it
    /// must be a pure function of its argument.
    pub fn update<F>(&self, key: &K, f: F) -> Option<V>
    where
        F: Fn(&V) -> V,
    {
        self.transact(|v| v.update(key, &f))
    }

    /// Return the value under `key`, atomically inserting `f()` first if the
    /// key is absent.
    ///
    /// `f` may be called once per retry; only the committing attempt's value
    /// is ever observable.
    pub fn get_or_insert_with<F>(&self, key: K, f: F) -> V
    where
        F: Fn() -> V,
    {
        self.transact(|v| v.get_or_insert_with(key.clone(), &f))
    }

    /// Atomically decide the fate of `key`: `f` sees the current value (if
    /// any) and returns a [`Compute`] verdict — keep it, replace it, or
    /// remove it.  Returns the value present after the operation.
    ///
    /// This single entry point expresses conditional insert, conditional
    /// remove, and read-modify-write without any caller-side retry loop.
    /// `f` may be called once per retry; it must be a pure function of its
    /// argument.
    pub fn compute<F>(&self, key: K, f: F) -> Option<V>
    where
        F: Fn(Option<&V>) -> Compute<V>,
    {
        self.transact(|v| v.compute(key.clone(), &f))
    }

    /// Smallest key `>= key`, if any (`O(1)` when `key` itself is present).
    pub fn ceil(&self, key: &K) -> Option<K> {
        self.transact_read(|v| v.ceil(key))
    }

    /// Smallest key strictly `> key`, if any.
    pub fn succ(&self, key: &K) -> Option<K> {
        self.transact_read(|v| v.succ(key))
    }

    /// Largest key `<= key`, if any (`O(1)` when `key` itself is present).
    pub fn floor(&self, key: &K) -> Option<K> {
        self.transact_read(|v| v.floor(key))
    }

    /// Largest key strictly `< key`, if any.
    pub fn pred(&self, key: &K) -> Option<K> {
        self.transact_read(|v| v.pred(key))
    }

    /// Number of keys currently present, as of one linearization point.
    ///
    /// `O(shards)`: sums the sharded population counter the insert and remove
    /// paths bump inside their own transactions (see [`TxView::len`]).
    pub fn len(&self) -> usize {
        self.transact_read(|v| v.len())
    }

    /// True when the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.transact_read(|v| v.is_empty())
    }

    /// Every `(key, value)` pair in ascending key order, as of a single
    /// linearization point: [`SkipHash::range`] over `..`, so the configured
    /// [`RangePolicy`](crate::RangePolicy) applies — under `TwoPath` a scan
    /// that keeps losing to writers falls back to the slow path instead of
    /// retrying a whole-map transaction forever.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.range_pairs(Bound::Unbounded, Bound::Unbounded)
    }

    /// Remove every key.  Runs as a sequence of individual removals (there is
    /// no `O(1)` bulk clear in the paper's interface).
    pub fn clear(&self) {
        loop {
            let pairs = self.to_vec();
            if pairs.is_empty() {
                return;
            }
            for (key, _) in pairs {
                self.take(&key);
            }
        }
    }

    /// Validate internal invariants (test/debug helper): the hash map and the
    /// skip list agree on the set of present keys, the skip list's structure
    /// is well formed, and the sharded population counter matches the number
    /// of present keys — all read in one read-only transaction, which keeps
    /// no read set however large the map.
    pub fn check_invariants(&self) -> Result<(), String> {
        let inner = &self.inner;
        inner.stm.run_read_only(|tx| {
            let structural = inner.skiplist.check_invariants(tx)?;
            if let Err(e) = structural {
                return Ok(Err(e));
            }
            let (all, population) = (Bound::Unbounded, inner.population.hint(tx));
            let mut from_list: Vec<K> =
                range::collect(tx, &inner.skiplist, population, all, all, Vec::new())?
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
            let mut from_map: Vec<K> = inner.index.keys(tx)?.into_iter().collect();
            from_list.sort();
            from_map.sort();
            if from_list != from_map {
                return Ok(Err(format!(
                    "hash map has {} keys but skip list has {} present keys",
                    from_map.len(),
                    from_list.len()
                )));
            }
            let counted = inner.population.sum(tx)?;
            if counted < 0 || counted as usize != from_list.len() {
                return Ok(Err(format!(
                    "population counter reports {counted} keys but {} are present",
                    from_list.len()
                )));
            }
            Ok(Ok(()))
        })
    }
}

impl<K: MapKey, V: MapValue> FromIterator<(K, V)> for SkipHash<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = SkipHash::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: MapKey, V: MapValue> Extend<(K, V)> for SkipHash<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}
