//! Composable transactions: [`TxView`], the caller-owned-transaction tier of
//! the skip hash API.
//!
//! The paper's core argument is that building the skip hash *on STM* makes
//! cross-structure composition simple: one transaction can atomically touch
//! the hash map, the skip list, and the deletion timestamps.  `TxView` hands
//! that power to callers.  Obtain one with
//! [`SkipHash::view`](crate::SkipHash::view) inside a
//! transaction you own:
//!
//! ```
//! use std::sync::Arc;
//! use skiphash::SkipHashBuilder;
//! use skiphash_stm::Stm;
//!
//! // Two maps over ONE shared STM runtime => composable.
//! let stm = Arc::new(Stm::new());
//! let bids = SkipHashBuilder::new().stm(Arc::clone(&stm)).build::<u64, u64>();
//! let asks = SkipHashBuilder::new().stm(Arc::clone(&stm)).build::<u64, u64>();
//! bids.insert(100, 7);
//!
//! // Atomically move the order from one book to the other: no concurrent
//! // reader can ever observe it in both maps or in neither.
//! stm.run(|tx| {
//!     if let Some(qty) = bids.view(tx).take(&100)? {
//!         asks.view(tx).insert(100, qty)?;
//!     }
//!     Ok(())
//! });
//! assert_eq!((bids.get(&100), asks.get(&100)), (None, Some(7)));
//! ```
//!
//! Every operation returns a [`TxResult`]; propagate aborts with `?` so the
//! enclosing [`Stm::run`](skiphash_stm::Stm::run) retries the whole
//! composition.  The one side effect the map needs per *commit* (buffering
//! a removed node whose physical unstitching must wait) is registered on the
//! transaction via [`Txn::on_commit`](skiphash_stm::Txn::on_commit), so an
//! aborted attempt leaves no trace of it.

use std::ops::Bound;
use std::ops::RangeBounds;
use std::sync::Arc;

use skiphash_stm::{TCell, TxResult, Txn};

use crate::hashmap::Slot;
use crate::map::Inner;
use crate::node::{Link, Node};
use crate::range::{self, Range};
use crate::{MapKey, MapValue};

/// The verdict a [`TxView::compute`] closure passes back: what should happen
/// to the key it was shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compute<V> {
    /// Leave the entry exactly as it is (present or absent).
    Keep,
    /// Store this value (inserting the key if it was absent).
    Put(V),
    /// Remove the key (a no-op if it was absent).
    Remove,
}

/// Where a [`TxView`] reports the writes it makes, for a caller that keeps a
/// log of them (the durable tier's write-ahead log is one).
///
/// A journaled view calls `put` for every key it inserts or overwrites and
/// `remove` for every key it removes, once per effective write, in the order
/// the writes happen.  No-ops record nothing: an `insert` of a present key,
/// an `update` or `remove` of an absent one, `compute` returning
/// [`Compute::Keep`].  The journal sees an attempt's writes before it
/// commits, so an aborted attempt must drop whatever its journal received;
/// a journal leased per attempt, like the view itself, does so by going out
/// of scope.
pub trait Journal<K, V> {
    /// `key` now holds `value`.
    fn put(&mut self, key: &K, value: &V);
    /// `key` is now absent.
    fn remove(&mut self, key: &K);
}

/// A transactional view of one [`SkipHash`](crate::SkipHash), scoped to a
/// caller-owned transaction.
///
/// Created by [`SkipHash::view`](crate::SkipHash::view); every method joins
/// the transaction it was created in, so any number of operations — across
/// any number of maps sharing an [`Stm`](skiphash_stm::Stm) — form one atomic
/// unit.  The sealed single-op methods on `SkipHash` are thin wrappers that
/// run exactly these methods inside an internal transaction.
///
/// Methods take `&mut self` because they advance the underlying transaction;
/// a view is typically a short-lived temporary (`map.view(tx).get(&k)?`).
/// [`TxView::journaled`] makes it report every write to a [`Journal`].
#[must_use = "a TxView does nothing until its operations are called (and their TxResults propagated)"]
pub struct TxView<'a, 't, K: MapKey, V: MapValue> {
    inner: &'a Arc<Inner<K, V>>,
    tx: &'a mut Txn<'t>,
    journal: Option<&'a mut dyn Journal<K, V>>,
}

impl<'a, 't, K: MapKey, V: MapValue> TxView<'a, 't, K, V> {
    pub(crate) fn new(inner: &'a Arc<Inner<K, V>>, tx: &'a mut Txn<'t>) -> Self {
        assert!(
            tx.belongs_to(&inner.stm),
            "TxView: the transaction was started by a different Stm runtime than this map's; \
             maps composed in one transaction must share a runtime \
             (build them with SkipHashBuilder::stm)"
        );
        Self {
            inner,
            tx,
            journal: None,
        }
    }

    /// Report every write this view makes to `journal` (see [`Journal`] for
    /// what is reported and when).
    pub fn journaled(self, journal: &'a mut dyn Journal<K, V>) -> Self {
        Self {
            journal: Some(journal),
            ..self
        }
    }

    /// Look up `key`, returning a clone of its value.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn get(&mut self, key: &K) -> TxResult<Option<V>> {
        match self.node(key)? {
            None => Ok(None),
            Some(node) => Ok(Some(node.read_value(self.tx)?)),
        }
    }

    /// True if `key` is present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn contains_key(&mut self, key: &K) -> TxResult<bool> {
        Ok(self.inner.index.find(self.tx, key)?.is_some())
    }

    /// Insert `key -> value` **only if `key` is absent**, returning whether
    /// the insertion happened.
    ///
    /// # This never overwrites
    ///
    /// Set-style semantics, identical to the sealed
    /// [`SkipHash::insert`](crate::SkipHash::insert): a present key makes
    /// this return `false` and drop `value` without touching the map.  Reach
    /// for [`TxView::upsert`] (overwrite), [`TxView::update`] (modify), or
    /// [`TxView::compute`] (decide) when that is not what you want.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn insert(&mut self, key: K, value: V) -> TxResult<bool> {
        let Slot::Vacant(bucket) = self.slot(&key)? else {
            return Ok(false);
        };
        self.insert_fresh(bucket, key, value)?;
        Ok(true)
    }

    /// Insert or overwrite, returning the displaced value when the key was
    /// present (the `std`-style counterpart to the set-style
    /// [`TxView::insert`]).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn upsert(&mut self, key: K, value: V) -> TxResult<Option<V>> {
        match self.slot(&key)? {
            Slot::Present(node) => {
                let previous = node.read_value(self.tx)?;
                self.write_value(node, value)?;
                Ok(Some(previous))
            }
            Slot::Vacant(bucket) => self.insert_fresh(bucket, key, value).map(|()| None),
        }
    }

    /// Remove `key`, returning whether it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn remove(&mut self, key: &K) -> TxResult<bool> {
        Ok(self.take(key)?.is_some())
    }

    /// Remove `key` and return its value if it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn take(&mut self, key: &K) -> TxResult<Option<V>> {
        let Some((_, node, raw)) = self.inner.index.unlink(self.tx, key)? else {
            return Ok(None);
        };
        if let Some(journal) = self.journal.as_mut() {
            journal.remove(key);
        }
        let value = node.read_value(self.tx)?;
        let r_time = self.inner.rqc.on_update(self.tx)?;
        node.mark_removed(self.tx, r_time)?;
        self.inner.population.bump(self.tx, -1)?;
        if let Some(node) = self.inner.after_remove(self.tx, raw, node.i_time)? {
            let inner = Arc::clone(self.inner);
            self.tx.on_commit(move || inner.buffer_deferred_node(node));
        }
        Ok(Some(value))
    }

    /// Atomically replace the value under `key` with `f(&current)`, returning
    /// the new value, or `None` (without calling `f`) when the key is absent.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn update<F>(&mut self, key: &K, f: F) -> TxResult<Option<V>>
    where
        F: FnOnce(&V) -> V,
    {
        match self.node(key)? {
            None => Ok(None),
            Some(node) => {
                let current = node.read_value(self.tx)?;
                let next = f(&current);
                self.write_value(node, next.clone())?;
                Ok(Some(next))
            }
        }
    }

    /// Return the value under `key`, inserting `f()` first if the key is
    /// absent.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn get_or_insert_with<F>(&mut self, key: K, f: F) -> TxResult<V>
    where
        F: FnOnce() -> V,
    {
        match self.slot(&key)? {
            Slot::Present(node) => node.read_value(self.tx),
            Slot::Vacant(bucket) => {
                let value = f();
                self.insert_fresh(bucket, key, value.clone())?;
                Ok(value)
            }
        }
    }

    /// Decide the fate of `key`: `f` sees the current value (if any) and
    /// returns a [`Compute`] verdict — keep, replace, or remove.  Returns the
    /// value present after the operation.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn compute<F>(&mut self, key: K, f: F) -> TxResult<Option<V>>
    where
        F: FnOnce(Option<&V>) -> Compute<V>,
    {
        let slot = self.slot(&key)?;
        let current = match slot {
            Slot::Vacant(_) => None,
            Slot::Present(node) => Some(node.read_value(self.tx)?),
        };
        match f(current.as_ref()) {
            Compute::Keep => Ok(current),
            Compute::Put(value) => {
                match slot {
                    Slot::Present(node) => self.write_value(node, value.clone())?,
                    Slot::Vacant(bucket) => self.insert_fresh(bucket, key, value.clone())?,
                }
                Ok(Some(value))
            }
            Compute::Remove => {
                if let Slot::Present(_) = slot {
                    self.take(&key)?;
                }
                Ok(None)
            }
        }
    }

    /// Smallest key `>= key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn ceil(&mut self, key: &K) -> TxResult<Option<K>> {
        if self.contains_key(key)? {
            return Ok(Some(key.clone()));
        }
        self.inner
            .skiplist
            .first_present(self.tx, Bound::Included(key))
    }

    /// Smallest key strictly `> key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn succ(&mut self, key: &K) -> TxResult<Option<K>> {
        self.inner
            .skiplist
            .first_present(self.tx, Bound::Excluded(key))
    }

    /// Largest key `<= key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn floor(&mut self, key: &K) -> TxResult<Option<K>> {
        if self.contains_key(key)? {
            return Ok(Some(key.clone()));
        }
        self.inner.skiplist.floor_present(self.tx, key)
    }

    /// Largest key strictly `< key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn pred(&mut self, key: &K) -> TxResult<Option<K>> {
        self.inner.skiplist.pred_present(self.tx, key)
    }

    /// Collect every pair whose key lies in `range`, in ascending key order,
    /// as part of this transaction.
    ///
    /// Unlike the sealed [`SkipHash::range`](crate::SkipHash::range), this
    /// never falls back to the slow path — it *is* the caller's transaction,
    /// so the scan is atomic with everything else the transaction does (and
    /// proportionally widens its conflict window; keep in-transaction scans
    /// short under contention).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn range<R: RangeBounds<K>>(&mut self, range: R) -> TxResult<Range<K, V>> {
        let (list, population) = (&self.inner.skiplist, self.inner.population.hint(self.tx));
        let (start, end) = (range.start_bound(), range.end_bound());
        range::collect(self.tx, list, population, start, end, Vec::new()).map(Range::new)
    }

    /// Number of keys currently present.
    ///
    /// `O(shards)`: sums the sharded population counter that the insert and
    /// remove paths bump inside their own transactions, so the count is
    /// linearizable with everything else this transaction does without
    /// walking level 0 in `O(n)`.  Reading every shard conflicts with
    /// concurrent updates — inherent to a linearizable count; debug builds
    /// additionally cross-check the level-0 walk.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn len(&mut self) -> TxResult<usize> {
        let total = self.inner.population.sum(self.tx)?;
        #[cfg(debug_assertions)]
        {
            let walked = self.inner.skiplist.count_present(self.tx)?;
            debug_assert_eq!(
                walked,
                total.max(0) as usize,
                "population counter diverged from the level-0 walk"
            );
        }
        debug_assert!(total >= 0, "population counter went negative");
        Ok(total.max(0) as usize)
    }

    /// True when the map holds no keys (`O(shards)`, via [`TxView::len`]'s
    /// sharded counter).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn is_empty(&mut self) -> TxResult<bool> {
        Ok(self.len()? == 0)
    }

    /// `key`'s node, borrowed for as long as this view: read through
    /// `self.tx`, which the view borrows mutably for `'a`, so the attempt
    /// cannot commit, roll back or unpin within `'a` (the borrowed-handle
    /// contract of `crate::traverse`).
    fn node(&mut self, key: &K) -> TxResult<Option<&'a Node<K, V>>> {
        self.inner.index.find(self.tx, key)
    }

    /// `key`'s node or, when it is absent, its bucket, borrowed as
    /// [`TxView::node`] borrows the node.
    fn slot(&mut self, key: &K) -> TxResult<Slot<'a, K, V>> {
        self.inner.index.slot(self.tx, key)
    }

    /// Overwrite a present key's value: the one place a view writes a value
    /// cell.
    fn write_value(&mut self, node: &Node<K, V>, value: V) -> TxResult<()> {
        if let Some(journal) = self.journal.as_mut() {
            journal.put(node.key(), &value);
        }
        node.value().write(self.tx, value)
    }

    /// Shared insert path for a key its `bucket`'s chain does not hold:
    /// stitch a fresh node into the skip list, push it at the head of the
    /// bucket, and count it.
    fn insert_fresh(&mut self, bucket: &TCell<Link<K, V>>, key: K, value: V) -> TxResult<()> {
        if let Some(journal) = self.journal.as_mut() {
            journal.put(&key, &value);
        }
        let height = {
            let mut rng = rand::thread_rng();
            self.inner.skiplist.random_height(&mut rng)
        };
        let i_time = self.inner.rqc.on_update(self.tx)?;
        let next = bucket.read(self.tx)?;
        let node = self
            .inner
            .skiplist
            .insert_after_logical_deletes(self.tx, key, value, height, i_time, next)?;
        bucket.write(self.tx, Some(node))?;
        self.inner.population.bump(self.tx, 1)
    }
}

impl<K: MapKey, V: MapValue> std::fmt::Debug for TxView<'_, '_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxView")
            .field("config", &self.inner.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipHash;

    #[derive(Debug, PartialEq, Eq)]
    enum Effect {
        Put(u64, u64),
        Remove(u64),
    }

    impl Journal<u64, u64> for Vec<Effect> {
        fn put(&mut self, key: &u64, value: &u64) {
            self.push(Effect::Put(*key, *value));
        }

        fn remove(&mut self, key: &u64) {
            self.push(Effect::Remove(*key));
        }
    }

    type Op = fn(&mut TxView<'_, '_, u64, u64>) -> TxResult<()>;

    /// Every write op along its effective and its no-op path, in one
    /// transaction, each with the effects it must report.  Replay cannot
    /// check this: it is idempotent, so a doubled `put` recovers the same
    /// state.
    #[test]
    fn a_journaled_view_reports_each_effective_write_once() {
        use Effect::{Put, Remove};
        let steps: [(&str, Op, Vec<Effect>); 16] = [
            (
                "insert absent",
                |v| v.insert(1, 10).map(|done| assert!(done)),
                vec![Put(1, 10)],
            ),
            (
                "insert present",
                |v| v.insert(1, 11).map(|done| assert!(!done)),
                vec![],
            ),
            (
                "upsert absent",
                |v| v.upsert(2, 20).map(|old| assert_eq!(old, None)),
                vec![Put(2, 20)],
            ),
            (
                "upsert present",
                |v| v.upsert(2, 21).map(|old| assert_eq!(old, Some(20))),
                vec![Put(2, 21)],
            ),
            (
                "update present",
                |v| v.update(&1, |c| c + 1).map(|new| assert_eq!(new, Some(11))),
                vec![Put(1, 11)],
            ),
            (
                "update absent",
                |v| v.update(&9, |c| c + 1).map(|new| assert_eq!(new, None)),
                vec![],
            ),
            (
                "get_or_insert_with absent",
                |v| {
                    v.get_or_insert_with(3, || 30)
                        .map(|got| assert_eq!(got, 30))
                },
                vec![Put(3, 30)],
            ),
            (
                "get_or_insert_with present",
                |v| {
                    v.get_or_insert_with(3, || 99)
                        .map(|got| assert_eq!(got, 30))
                },
                vec![],
            ),
            (
                "compute Put present",
                |v| {
                    v.compute(3, |c| Compute::Put(c.map_or(0, |c| c + 1)))
                        .map(|now| assert_eq!(now, Some(31)))
                },
                vec![Put(3, 31)],
            ),
            (
                "compute Put absent",
                |v| {
                    v.compute(4, |c| Compute::Put(c.map_or(40, |c| c + 1)))
                        .map(|now| assert_eq!(now, Some(40)))
                },
                vec![Put(4, 40)],
            ),
            (
                "compute Keep",
                |v| {
                    v.compute(3, |_| Compute::Keep)
                        .map(|now| assert_eq!(now, Some(31)))
                },
                vec![],
            ),
            (
                "compute Remove present",
                |v| {
                    v.compute(3, |_| Compute::Remove)
                        .map(|now| assert_eq!(now, None))
                },
                vec![Remove(3)],
            ),
            (
                "compute Remove absent",
                |v| {
                    v.compute(3, |_| Compute::Remove)
                        .map(|now| assert_eq!(now, None))
                },
                vec![],
            ),
            (
                "take present",
                |v| v.take(&1).map(|old| assert_eq!(old, Some(11))),
                vec![Remove(1)],
            ),
            (
                "remove absent",
                |v| v.remove(&1).map(|done| assert!(!done)),
                vec![],
            ),
            (
                "reads",
                |v| {
                    v.get(&2)?;
                    v.contains_key(&4)?;
                    v.range(..)?;
                    v.floor(&9)?;
                    v.len().map(drop)
                },
                vec![],
            ),
        ];
        let map: SkipHash<u64, u64> = SkipHash::new();
        let effects = map.stm().run(|tx| {
            let mut effects = Vec::new();
            for (_, op, _) in &steps {
                let mut journal = Vec::new();
                op(&mut map.view(tx).journaled(&mut journal))?;
                effects.push(journal);
            }
            Ok(effects)
        });
        for ((name, _, expected), got) in steps.iter().zip(&effects) {
            assert_eq!(got, expected, "{name}");
        }
        assert_eq!(map.to_vec(), vec![(2, 21), (4, 40)]);
    }
}
