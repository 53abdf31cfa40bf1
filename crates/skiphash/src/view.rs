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

use skiphash_stm::{TxResult, Txn};

use crate::map::Inner;
use crate::node::{Node, NodeRef};
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
#[must_use = "a TxView does nothing until its operations are called (and their TxResults propagated)"]
pub struct TxView<'a, 't, K: MapKey, V: MapValue> {
    inner: &'a Arc<Inner<K, V>>,
    tx: &'a mut Txn<'t>,
}

impl<'a, 't, K: MapKey, V: MapValue> TxView<'a, 't, K, V> {
    pub(crate) fn new(inner: &'a Arc<Inner<K, V>>, tx: &'a mut Txn<'t>) -> Self {
        assert!(
            tx.belongs_to(&inner.stm),
            "TxView: the transaction was started by a different Stm runtime than this map's; \
             maps composed in one transaction must share a runtime \
             (build them with SkipHashBuilder::stm)"
        );
        Self { inner, tx }
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
        if self.contains_key(&key)? {
            return Ok(false);
        }
        self.insert_fresh(key, value)?;
        Ok(true)
    }

    /// Insert or overwrite, returning the displaced value when the key was
    /// present (the `std`-style counterpart to the set-style
    /// [`TxView::insert`]).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn upsert(&mut self, key: K, value: V) -> TxResult<Option<V>> {
        if let Some(node) = self.node(&key)? {
            let previous = node.read_value(self.tx)?;
            node.value.write(self.tx, Some(value))?;
            return Ok(Some(previous));
        }
        self.insert_fresh(key, value)?;
        Ok(None)
    }

    /// Remove `key`, returning whether it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn remove(&mut self, key: &K) -> TxResult<bool> {
        Ok(self.take(key)?.is_some())
    }

    /// Remove `key` and return its value if it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn take(&mut self, key: &K) -> TxResult<Option<V>> {
        let Some(node) = self.inner.index.unlink(self.tx, key)? else {
            return Ok(None);
        };
        let value = node.read_value(self.tx)?;
        let r_time = self.inner.rqc.on_update(self.tx)?;
        node.mark_removed(self.tx, r_time)?;
        self.inner.population.bump(self.tx, -1)?;
        if let Some(node) = self.inner.after_remove(self.tx, node)? {
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
                node.value.write(self.tx, Some(next.clone()))?;
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
        if let Some(node) = self.node(&key)? {
            return node.read_value(self.tx);
        }
        let value = f();
        self.insert_fresh(key, value.clone())?;
        Ok(value)
    }

    /// Decide the fate of `key`: `f` sees the current value (if any) and
    /// returns a [`Compute`] verdict — keep, replace, or remove.  Returns the
    /// value present after the operation.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn compute<F>(&mut self, key: K, f: F) -> TxResult<Option<V>>
    where
        F: FnOnce(Option<&V>) -> Compute<V>,
    {
        let node = self.node(&key)?;
        let current = match node {
            None => None,
            Some(node) => Some(node.read_value(self.tx)?),
        };
        match f(current.as_ref()) {
            Compute::Keep => Ok(current),
            Compute::Put(value) => {
                match node {
                    Some(node) => node.value.write(self.tx, Some(value.clone()))?,
                    None => self.insert_fresh(key, value.clone())?,
                }
                Ok(Some(value))
            }
            Compute::Remove => {
                if node.is_some() {
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
        let node = self
            .inner
            .skiplist
            .first_present(self.tx, Bound::Included(key))?;
        Ok(key_of(&node))
    }

    /// Smallest key strictly `> key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn succ(&mut self, key: &K) -> TxResult<Option<K>> {
        let node = self
            .inner
            .skiplist
            .first_present(self.tx, Bound::Excluded(key))?;
        Ok(key_of(&node))
    }

    /// Largest key `<= key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn floor(&mut self, key: &K) -> TxResult<Option<K>> {
        if self.contains_key(key)? {
            return Ok(Some(key.clone()));
        }
        Ok(key_of(&self.inner.skiplist.floor_present(self.tx, key)?))
    }

    /// Largest key strictly `< key`, if any.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn pred(&mut self, key: &K) -> TxResult<Option<K>> {
        Ok(key_of(&self.inner.skiplist.pred_present(self.tx, key)?))
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
        let list = &self.inner.skiplist;
        range::collect(self.tx, list, range.start_bound(), range.end_bound()).map(Range::new)
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

    /// `key`'s node, borrowed for as long as this view: a point operation
    /// takes no reference count.
    fn node(&mut self, key: &K) -> TxResult<Option<&'a Node<K, V>>> {
        let found = self.inner.index.find(self.tx, key)?;
        // SAFETY: read through `self.tx`, which this view borrows mutably
        // for `'a`, so the attempt cannot commit, roll back or unpin within
        // `'a` (the borrowed-handle contract of `crate::traverse`).
        Ok(found.map(|raw| unsafe { raw.node() }))
    }

    /// Shared insert path for a key known to be absent: stitch a fresh node
    /// into the skip list, index it, and count it.
    fn insert_fresh(&mut self, key: K, value: V) -> TxResult<()> {
        let height = {
            let mut rng = rand::thread_rng();
            self.inner.skiplist.random_height(&mut rng)
        };
        let i_time = self.inner.rqc.on_update(self.tx)?;
        let node = self
            .inner
            .skiplist
            .insert_after_logical_deletes(self.tx, key, value, height, i_time)?;
        self.inner.index.link(self.tx, &node)?;
        self.inner.population.bump(self.tx, 1)
    }
}

/// The key of a node a point query landed on; `None` for a sentinel (nothing
/// on that side of the probe).
fn key_of<K: MapKey, V: MapValue>(node: &NodeRef<K, V>) -> Option<K> {
    (!node.is_sentinel()).then(|| node.key().clone())
}

impl<K: MapKey, V: MapValue> std::fmt::Debug for TxView<'_, '_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxView")
            .field("config", &self.inner.config)
            .finish()
    }
}
