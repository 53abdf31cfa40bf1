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
//! its skip-list nodes; a standalone map allocates height-1 nodes of its own.
//! Either way building a map allocates the bucket array and nothing per
//! bucket, and an update writes link words only: `link` pushes a node at its
//! bucket's head, `unlink` rewrites the one link that points at the node and
//! clears the node's own.  Two updates conflict only when they write the
//! same link word.
//!
//! The hop is sound by the argument that covers the skip-list traversal —
//! the borrowed-handle contract in `crate::traverse`: a bucket word and a
//! `hash_next` word are link words like any other, read through the running
//! attempt, so the node each designates stays allocated for the rest of the
//! attempt.
//!
//! Chains are acyclic: a node is linked in front of the nodes already in its
//! bucket, and unlinking a node makes its predecessor point past it, so a
//! link only ever points from a newer node to an older one.  Unlinking also
//! clears the node's own link, so a hash link only ever leaves a node that
//! is still in a chain.  That second rule is what keeps hash links and tower
//! links from closing a cycle together: a removed node keeps its tower links
//! (unstitching leaves them for readers still on it), and if it kept its
//! hash link too, a newer node removed while a range query defers its
//! unstitching would keep pointing at an older chain neighbour whose tower,
//! unstitched meanwhile, points back — two nodes that no teardown reaches.
//! So dropping a bucket word releases its whole chain, and teardown severs
//! the skip list's tower links and nothing else.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use skiphash_stm::{TCell, TxResult, Txn};

use crate::node::{Link, Node, NodeRef, RawNode};
use crate::{MapKey, MapValue};

/// A node a chain walk stopped on: the link cell that designates it, the
/// node, and its handle.
type Found<'c, K, V> = (&'c TCell<Link<K, V>>, &'c Node<K, V>, RawNode<K, V>);

/// A fixed-capacity, closed-addressing (chained) transactional hash map.
pub struct TxHashMap<K, V> {
    buckets: Box<[TCell<Link<K, V>>]>,
    hasher: RandomState,
}

impl<K, V> fmt::Debug for TxHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxHashMap")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<K: MapKey, V: MapValue> TxHashMap<K, V> {
    /// Create a map with `bucket_count` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is zero.
    pub fn new(bucket_count: usize) -> Self {
        assert!(bucket_count > 0, "bucket count must be positive");
        Self {
            buckets: (0..bucket_count).map(|_| TCell::new(None)).collect(),
            hasher: RandomState::new(),
        }
    }

    /// Number of buckets (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_for(&self, key: &K) -> &TCell<Link<K, V>> {
        let hash = self.hasher.hash_one(key);
        let index = (hash % self.buckets.len() as u64) as usize;
        &self.buckets[index]
    }

    /// Walk the chain that starts at `cell` until `hit` accepts a node, and
    /// return the link cell that designates it, the node, and its handle.
    ///
    /// The references are valid for the rest of the attempt `tx` (the
    /// borrowed-handle contract of `crate::traverse`), not for `'c`: callers
    /// in this module use them before the attempt ends and hand out only the
    /// handle, whose dereference is `unsafe`.
    fn walk<'c>(
        tx: &mut Txn<'_>,
        mut cell: &'c TCell<Link<K, V>>,
        mut hit: impl FnMut(&Node<K, V>) -> bool,
    ) -> TxResult<Option<Found<'c, K, V>>> {
        while let Some(raw) = cell.read_with(tx, RawNode::from_link)? {
            // SAFETY: read through the running attempt `tx`.
            let node = unsafe { raw.node() };
            if hit(node) {
                return Ok(Some((cell, node, raw)));
            }
            cell = &node.hash_next;
        }
        Ok(None)
    }

    /// [`TxHashMap::walk`] `key`'s chain to its node.
    fn locate(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<Found<'_, K, V>>> {
        Self::walk(tx, self.bucket_for(key), |node| node.key() == key)
    }

    /// `key`'s node, as a handle that borrows the running attempt `tx`.
    pub(crate) fn find(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<RawNode<K, V>>> {
        Ok(self.locate(tx, key)?.map(|(_, _, raw)| raw))
    }

    /// Push `node` — fresh, and not yet reachable by anyone else — at the
    /// head of its key's bucket.
    pub(crate) fn link(&self, tx: &mut Txn<'_>, node: &NodeRef<K, V>) -> TxResult<()> {
        let bucket = self.bucket_for(node.key());
        // Like the fresh node's tower links (see `SkipList::insert_after_
        // logical_deletes`), its chain link needs no instrumentation: the
        // bucket write below publishes the node at commit.
        node.hash_next.store_atomic(bucket.read(tx)?);
        bucket.write(tx, Some(node.clone()))
    }

    /// Unlink `key`'s node from its chain, returning it.
    ///
    /// The node's own `hash_next` is cleared too: a removed node keeps its
    /// tower links (see `crate::skiplist::SkipList::unstitch`), and a hash
    /// link kept beside them could close a cycle with a neighbour's tower
    /// (see the module docs).
    pub(crate) fn unlink(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<NodeRef<K, V>>> {
        let Some((cell, node, _)) = self.locate(tx, key)? else {
            return Ok(None);
        };
        let unlinked = cell.read(tx)?;
        let next = node.hash_next.read(tx)?;
        cell.write(tx, next)?;
        node.hash_next.write(tx, None)?;
        Ok(unlinked)
    }

    /// Transactionally look up `key`, returning a clone of its value.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn get(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<V>> {
        match self.locate(tx, key)? {
            None => Ok(None),
            Some((_, node, _)) => node.read_value(tx).map(Some),
        }
    }

    /// Transactionally check for `key` without cloning anything.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn contains(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<bool> {
        Ok(self.locate(tx, key)?.is_some())
    }

    /// Transactionally collect every key (test helper; `O(buckets + n)`).
    pub fn keys(&self, tx: &mut Txn<'_>) -> TxResult<Vec<K>> {
        let mut out = Vec::new();
        for bucket in self.buckets.iter() {
            Self::walk(tx, bucket, |node| {
                out.push(node.key().clone());
                false
            })?;
        }
        Ok(out)
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
        if self.contains(tx, &key)? {
            return Ok(false);
        }
        self.link(tx, &Node::new(key, value, 1, 0, tx.read_version()))?;
        Ok(true)
    }

    /// Transactionally insert or overwrite `key -> value`, returning the
    /// displaced value if the key was already present (`std`-style
    /// semantics; contrast with the set-style [`TxHashMap::insert`]).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn upsert(&self, tx: &mut Txn<'_>, key: K, value: V) -> TxResult<Option<V>> {
        if let Some((_, node, _)) = self.locate(tx, &key)? {
            let previous = node.read_value(tx)?;
            node.value.write(tx, Some(value))?;
            return Ok(Some(previous));
        }
        self.link(tx, &Node::new(key, value, 1, 0, tx.read_version()))?;
        Ok(None)
    }

    /// Transactionally remove `key`, returning its value if it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn remove(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<V>> {
        match self.unlink(tx, key)? {
            None => Ok(None),
            Some(node) => node.read_value(tx).map(Some),
        }
    }

    /// Transactionally count entries by walking every chain.
    ///
    /// This is `O(buckets + n)` and intended for tests and reporting.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut total = 0;
        for bucket in self.buckets.iter() {
            Self::walk(tx, bucket, |_| {
                total += 1;
                false
            })?;
        }
        Ok(total)
    }

    /// Entries per bucket, over all buckets, empty ones included: [`len`]
    /// divided by [`bucket_count`] (reporting helper used to sanity-check the
    /// 70%-utilization guidance the paper follows).
    ///
    /// [`len`]: TxHashMap::len
    /// [`bucket_count`]: TxHashMap::bucket_count
    pub fn load_factor(&self, tx: &mut Txn<'_>) -> TxResult<f64> {
        Ok(self.len(tx)? as f64 / self.buckets.len() as f64)
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
            assert_eq!(inner.stm.run(|tx| inner.index.len(tx)), present.len());
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
