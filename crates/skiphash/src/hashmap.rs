//! A transactional closed-addressing hash map whose chains run through the
//! nodes themselves.
//!
//! The skip hash uses this map to route from a key directly to its skip list
//! node, which is what makes `lookup`, successful `remove`, and point queries
//! on present keys `O(1)`.  It is also exposed publicly because the paper's
//! evaluation includes a plain "STM hash map" baseline for workloads without
//! range queries.
//!
//! # The intrusive layout
//!
//! The table is a fixed array of buckets, and a bucket is one [`TCell`]
//! holding a [`Link`] — the newest node of the bucket's chain, or `None`.
//! Every [`Node`] carries the rest of the chain in its own `hash_next` link
//! cell, so the index is the nodes: a lookup reads the bucket word, compares
//! the node's key, and hops on through `hash_next`.  The skip hash indexes
//! its skip-list nodes, which its list owns; a standalone [`TxHashMap`]
//! allocates height-1 nodes of its own, owns them while they are on its
//! chains, and retires each at the commit that unlinks it (see
//! [`crate::node`]).  Either way building a map allocates the bucket array
//! (an `arena::Table` of the STM crate, on huge pages where it spans one)
//! and nothing per bucket, and an update writes link words only: an insert
//! builds its node with the bucket's head as its `hash_next` and writes the
//! bucket, and an unlink rewrites the one link that points at the node.  Two
//! updates conflict only when they write the same link word.
//!
//! The hop is sound by the argument that covers the skip-list traversal —
//! the borrowed-handle contract in `crate::traverse`: a bucket word and a
//! `hash_next` word are link words like any other, read through the running
//! attempt, so the node each designates stays allocated for the rest of the
//! attempt.  Chains are acyclic: a node is linked in front of the nodes
//! already in its bucket, and unlinking a node makes its predecessor point
//! past it, so a link only ever points from a newer node to an older one.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use skiphash_stm::arena::Table;
use skiphash_stm::{TCell, TxResult, Txn};

use crate::node::{Link, Node, OwnedNode, RawNode};
use crate::{MapKey, MapValue};

/// A node a chain walk stopped on: the link cell that designates it, the
/// node, and its handle.
pub(crate) type Found<'c, K, V> = (&'c TCell<Link<K, V>>, &'c Node<K, V>, RawNode<K, V>);

/// Where a key's chain walk ended: on its node, or, the key being absent,
/// with the bucket a fresh node for it heads.
pub(crate) enum Slot<'c, K, V> {
    Present(&'c Node<K, V>),
    Vacant(&'c TCell<Link<K, V>>),
}

/// The bucket array of a chained index: the chains, and no ownership of the
/// nodes on them.  The skip hash's index is one; a [`TxHashMap`] is one that
/// owns its nodes.
pub(crate) struct Index<K, V> {
    buckets: Table<TCell<Link<K, V>>>,
    hasher: RandomState,
}

impl<K: MapKey, V: MapValue> Index<K, V> {
    pub(crate) fn new(bucket_count: usize) -> Self {
        assert!(bucket_count > 0, "bucket count must be positive");
        Self {
            buckets: Table::new(bucket_count, |_| TCell::new(None)),
            hasher: RandomState::new(),
        }
    }

    /// The bucket `key` hashes to.
    fn bucket_for(&self, key: &K) -> &TCell<Link<K, V>> {
        let hash = self.hasher.hash_one(key);
        let index = (hash % self.buckets.len() as u64) as usize;
        &self.buckets[index]
    }

    /// Walk the chain that starts at `cell` until `hit` accepts a node, and
    /// return the link cell that designates it, the node, and its handle.
    ///
    /// The references are valid for the rest of the attempt `tx` (the
    /// borrowed-handle contract of `crate::traverse`), not for `'c`: every
    /// caller, here and in [`crate::TxView`], is done with them before the
    /// attempt ends.
    fn walk<'c>(
        tx: &mut Txn<'_>,
        mut cell: &'c TCell<Link<K, V>>,
        mut hit: impl FnMut(&Node<K, V>) -> bool,
    ) -> TxResult<Option<Found<'c, K, V>>> {
        while let Some(raw) = cell.read_with(tx, |link| *link)? {
            // SAFETY: read through the running attempt `tx`.
            let node = unsafe { raw.node() };
            if hit(node) {
                return Ok(Some((cell, node, raw)));
            }
            cell = &node.hash_next;
        }
        Ok(None)
    }

    /// [`Index::walk`] `key`'s chain to its node.
    fn locate(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<Found<'_, K, V>>> {
        Self::walk(tx, self.bucket_for(key), |node| node.key() == key)
    }

    /// `key`'s node, valid for the rest of the attempt `tx` (see
    /// [`Index::walk`]).
    pub(crate) fn find(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<&Node<K, V>>> {
        Ok(self.locate(tx, key)?.map(|(_, node, _)| node))
    }

    /// `key`'s node or, when it is absent, its bucket, which an insert
    /// reads into the fresh node's `hash_next` and then points at the node:
    /// the key is hashed once either way.  Valid for the rest of the attempt
    /// `tx` (see [`Index::walk`]).
    pub(crate) fn slot(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Slot<'_, K, V>> {
        let bucket = self.bucket_for(key);
        Ok(match Self::walk(tx, bucket, |node| node.key() == key)? {
            Some((_, node, _)) => Slot::Present(node),
            None => Slot::Vacant(bucket),
        })
    }

    /// Unlink `key`'s node from its chain, returning where the walk found
    /// it, valid for the rest of the attempt `tx` (see [`Index::walk`]).
    /// The node keeps its own `hash_next`, which nothing walks to any more.
    pub(crate) fn unlink(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<Found<'_, K, V>>> {
        let Some((cell, node, raw)) = self.locate(tx, key)? else {
            return Ok(None);
        };
        let next = node.hash_next.read(tx)?;
        cell.write(tx, next)?;
        Ok(Some((cell, node, raw)))
    }

    /// Transactionally collect every key (test helper; `O(buckets + n)`).
    pub(crate) fn keys(&self, tx: &mut Txn<'_>) -> TxResult<Vec<K>> {
        let mut out = Vec::new();
        for bucket in self.buckets.iter() {
            Self::walk(tx, bucket, |node| {
                out.push(node.key().clone());
                false
            })?;
        }
        Ok(out)
    }
}

/// A fixed-capacity, closed-addressing (chained) transactional hash map.
///
/// Every transaction on one map must come from one [`skiphash_stm::Stm`]
/// (the STM's one-runtime rule): a node is freed by the commit that unlinks
/// it, so the map's memory, not only its contents, rests on the conflicts
/// one runtime detects.
pub struct TxHashMap<K: MapKey, V: MapValue>(Index<K, V>);

impl<K: MapKey, V: MapValue> fmt::Debug for TxHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxHashMap {{ buckets: {} }}", self.bucket_count())
    }
}

impl<K: MapKey, V: MapValue> TxHashMap<K, V> {
    /// Create a map with `bucket_count` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is zero.
    pub fn new(bucket_count: usize) -> Self {
        Self(Index::new(bucket_count))
    }

    /// Number of buckets (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.0.buckets.len()
    }

    /// Transactionally look up `key`, returning a clone of its value.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn get(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<V>> {
        let node = self.0.find(tx, key)?;
        node.map(|node| node.read_value(tx)).transpose()
    }

    /// Transactionally check for `key` without cloning anything.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn contains(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<bool> {
        Ok(self.0.find(tx, key)?.is_some())
    }

    /// Transactionally collect every key (test helper; `O(buckets + n)`).
    pub fn keys(&self, tx: &mut Txn<'_>) -> TxResult<Vec<K>> {
        self.0.keys(tx)
    }

    /// Transactionally insert `key -> value` **only if `key` is absent**,
    /// returning whether the insertion happened.
    ///
    /// # This never overwrites
    ///
    /// Consistent with [`crate::SkipHash::insert`]'s set-style contract: a
    /// present key makes this return `false` and drop `value`, leaving the
    /// stored value untouched.  Use [`TxHashMap::upsert`] for the
    /// `std`-style overwrite-and-return-displaced behaviour.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn insert(&self, tx: &mut Txn<'_>, key: K, value: V) -> TxResult<bool> {
        let Slot::Vacant(bucket) = self.0.slot(tx, &key)? else {
            return Ok(false);
        };
        Self::link(tx, bucket, key, value)?;
        Ok(true)
    }

    /// Transactionally insert or overwrite `key -> value`, returning the
    /// displaced value if the key was already present (`std`-style
    /// semantics; contrast with the set-style [`TxHashMap::insert`]).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn upsert(&self, tx: &mut Txn<'_>, key: K, value: V) -> TxResult<Option<V>> {
        match self.0.slot(tx, &key)? {
            Slot::Present(node) => {
                let previous = node.read_value(tx)?;
                node.value().write(tx, value)?;
                Ok(Some(previous))
            }
            Slot::Vacant(bucket) => Self::link(tx, bucket, key, value).map(|()| None),
        }
    }

    /// Push a fresh node for the absent `key` at the head of its `bucket`;
    /// the attempt frees it if it aborts.
    fn link(tx: &mut Txn<'_>, bucket: &TCell<Link<K, V>>, key: K, value: V) -> TxResult<()> {
        let next = bucket.read(tx)?;
        let node = Node::linked_in(tx, key, value, 1, 0, next, |_| (None, None));
        bucket.write(tx, Some(node))
    }

    /// Transactionally remove `key`, returning its value if it was present.
    /// The node is retired when the attempt commits.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn remove(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<V>> {
        let Some((_, node, raw)) = self.0.unlink(tx, key)? else {
            return Ok(None);
        };
        let value = node.read_value(tx)?;
        // SAFETY: the unlink replaced the map's one link to the node, and
        // another attempt that unlinks it writes the same link.
        unsafe { raw.retire(tx, node.born) };
        Ok(Some(value))
    }

    /// Transactionally count entries by walking every chain.
    ///
    /// This is `O(buckets + n)`, collects the keys, and is intended for
    /// tests and reporting.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        Ok(self.keys(tx)?.len())
    }

    /// Entries per bucket, over all buckets, empty ones included: [`len`]
    /// divided by [`bucket_count`] (reporting helper used to sanity-check the
    /// 70%-utilization guidance the paper follows).
    ///
    /// [`len`]: TxHashMap::len
    /// [`bucket_count`]: TxHashMap::bucket_count
    pub fn load_factor(&self, tx: &mut Txn<'_>) -> TxResult<f64> {
        Ok(self.len(tx)? as f64 / self.bucket_count() as f64)
    }
}

impl<K: MapKey, V: MapValue> Drop for TxHashMap<K, V> {
    fn drop(&mut self) {
        // The chains hold every node the map owns, each once (removed ones
        // are the retirement's); `&mut self` means no attempt is running.
        for bucket in self.0.buckets.iter() {
            let mut next = bucket.load_atomic();
            while let Some(at) = next {
                // SAFETY: `at` is on a chain, so the map owns it, and nothing
                // reaches it any more; its successor is read before it goes.
                unsafe {
                    next = at.node().hash_next.load_atomic();
                    drop(OwnedNode::from_raw(at));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiphash_stm::Stm;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_remove_round_trip() {
        let stm = Stm::new();
        let map: TxHashMap<u64, String> = TxHashMap::new(16);
        assert!(stm.run(|tx| map.insert(tx, 1, "one".to_string())));
        assert_eq!(stm.run(|tx| map.get(tx, &1)), Some("one".to_string()));
        assert!(stm.run(|tx| map.contains(tx, &1)));
        assert!(!stm.run(|tx| map.contains(tx, &2)));
        // Set-style: a second insert refuses to overwrite...
        assert!(!stm.run(|tx| map.insert(tx, 1, "uno".to_string())));
        assert_eq!(stm.run(|tx| map.get(tx, &1)), Some("one".to_string()));
        // ...while upsert overwrites and reports what it displaced.
        let prev = stm.run(|tx| map.upsert(tx, 1, "uno".to_string()));
        assert_eq!(prev, Some("one".to_string()));
        let fresh = stm.run(|tx| map.upsert(tx, 2, "two".to_string()));
        assert_eq!(fresh, None);
        assert_eq!(stm.run(|tx| map.remove(tx, &1)), Some("uno".to_string()));
        assert_eq!(stm.run(|tx| map.get(tx, &1)), None);
        assert_eq!(stm.run(|tx| map.remove(tx, &1)), None);
    }

    #[test]
    fn many_keys_in_few_buckets_chain_correctly() {
        let stm = Stm::new();
        let map: TxHashMap<u64, u64> = TxHashMap::new(3);
        for k in 0..100 {
            stm.run(|tx| map.insert(tx, k, k * 2).map(|_| ()));
        }
        assert_eq!(stm.run(|tx| map.len(tx)), 100);
        for k in 0..100 {
            assert_eq!(stm.run(|tx| map.get(tx, &k)), Some(k * 2));
        }
        let mut keys = stm.run(|tx| map.keys(tx));
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        assert!(stm.run(|tx| map.load_factor(tx)) > 30.0);
    }

    #[test]
    fn len_matches_operations() {
        let stm = Stm::new();
        let map: TxHashMap<u64, u64> = TxHashMap::new(8);
        stm.run(|tx| map.insert(tx, 1, 1).map(|_| ()));
        stm.run(|tx| map.insert(tx, 2, 2).map(|_| ()));
        stm.run(|tx| map.remove(tx, &1).map(|_| ()));
        assert_eq!(stm.run(|tx| map.len(tx)), 1);
    }

    #[test]
    fn unlinking_the_head_a_middle_and_the_tail_keeps_the_rest_reachable() {
        use crate::SkipHashBuilder;
        // One bucket, so the chain holds every key, newest first.
        let skiphash = SkipHashBuilder::new().buckets(1).build::<u64, u64>();
        let inner = &skiphash.inner;
        let standalone: TxHashMap<u64, u64> = TxHashMap::new(1);
        let stm = Stm::new();
        let keys = [10u64, 20, 30, 40, 50];
        for key in keys {
            assert!(skiphash.insert(key, key));
            assert!(stm.run(|tx| standalone.insert(tx, key, key)));
        }
        let chain: Vec<u64> = keys.into_iter().rev().collect();
        assert_eq!(inner.stm.run(|tx| inner.index.keys(tx)), chain);
        assert_eq!(stm.run(|tx| standalone.keys(tx)), chain);

        let mut present = chain;
        for (gone, position) in [(50, "head"), (30, "middle"), (10, "tail")] {
            assert!(skiphash.remove(&gone), "{position}");
            assert_eq!(stm.run(|tx| standalone.remove(tx, &gone)), Some(gone));
            present.retain(|&key| key != gone);
            for &key in &present {
                assert_eq!(skiphash.get(&key), Some(key), "{position}");
                assert_eq!(stm.run(|tx| standalone.get(tx, &key)), Some(key));
            }
            assert_eq!(skiphash.get(&gone), None, "{position}");
            assert!(!stm.run(|tx| standalone.contains(tx, &gone)));
            assert_eq!(inner.stm.run(|tx| inner.index.keys(tx)), present);
            assert_eq!(stm.run(|tx| standalone.keys(tx)), present);
            assert_eq!(
                inner.stm.run(|tx| inner.index.keys(tx)).len(),
                present.len()
            );
            assert_eq!(stm.run(|tx| standalone.len(tx)), present.len());
            assert_eq!(skiphash.len(), present.len());
            skiphash.check_invariants().expect(position);
        }
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_panics() {
        let _: TxHashMap<u64, u64> = TxHashMap::new(0);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let stm = Arc::new(Stm::new());
        let map: Arc<TxHashMap<u64, u64>> = Arc::new(TxHashMap::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let stm = Arc::clone(&stm);
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let key = t * 1000 + i;
                    stm.run(|tx| map.insert(tx, key, key).map(|_| ()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stm.run(|tx| map.len(tx)), 800);
    }

    #[test]
    fn atomic_transfer_between_keys() {
        // Exercises multi-bucket transactions: move a value from one key to
        // another atomically and assert no intermediate state is observable.
        let stm = Arc::new(Stm::new());
        let map: Arc<TxHashMap<u64, u64>> = Arc::new(TxHashMap::new(32));
        stm.run(|tx| map.insert(tx, 0, 1000).map(|_| ()));
        let writer = {
            let stm = Arc::clone(&stm);
            let map = Arc::clone(&map);
            thread::spawn(move || {
                for i in 0..200u64 {
                    stm.run(|tx| {
                        let v = map.remove(tx, &i)?.expect("source key present");
                        map.insert(tx, i + 1, v)?;
                        Ok(())
                    });
                }
            })
        };
        let reader = {
            let stm = Arc::clone(&stm);
            let map = Arc::clone(&map);
            thread::spawn(move || {
                for _ in 0..500 {
                    let total = stm.run(|tx| {
                        let mut sum = 0;
                        for k in 0..=200u64 {
                            if let Some(v) = map.get(tx, &k)? {
                                sum += v;
                            }
                        }
                        Ok(sum)
                    });
                    assert_eq!(total, 1000, "value must never be duplicated or lost");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(stm.run(|tx| map.get(tx, &200)), Some(1000));
    }
}
