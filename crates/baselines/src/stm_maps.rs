//! The STM-only baselines from the paper's evaluation.
//!
//! For workloads consisting entirely of elemental operations, the paper also
//! measures a hash map and a doubly linked skip list implemented directly on
//! the STM, without range-query support.  Comparing the skip hash against
//! them isolates the benefit of the composition: the STM skip list shows what
//! `O(log n)` traversals cost, the STM hash map shows the `O(1)` ceiling an
//! unordered structure achieves.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use skiphash::hashmap::TxHashMap;
use skiphash::skiplist::SkipList;
use skiphash::{MapKey, MapValue};
use skiphash_stm::Stm;

/// An STM-backed hash map without range-query support ("Hash Map (STM)" in
/// the paper's figures).
pub struct StmHashMap<K: MapKey, V: MapValue> {
    stm: Stm,
    map: TxHashMap<K, V>,
}

impl<K: MapKey, V: MapValue> fmt::Debug for StmHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StmHashMap").finish()
    }
}

impl<K: MapKey, V: MapValue> StmHashMap<K, V> {
    /// Create a map with `buckets` closed-addressing buckets.
    pub fn new(buckets: usize) -> Self {
        Self {
            stm: Stm::new(),
            map: TxHashMap::new(buckets),
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.stm.run(|tx| self.map.get(tx, key))
    }

    /// Insert `key -> value` if absent; returns `false` when already present.
    /// (Set-style, matching [`TxHashMap::insert`]'s never-overwrites
    /// contract.)
    pub fn insert(&self, key: K, value: V) -> bool {
        self.stm
            .run(|tx| self.map.insert(tx, key.clone(), value.clone()))
    }

    /// Remove `key`; returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.stm.run(|tx| Ok(self.map.remove(tx, key)?.is_some()))
    }

    /// Number of entries (scans all buckets).
    pub fn len(&self) -> usize {
        self.stm.run(|tx| self.map.len(tx))
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An STM-backed doubly linked skip list without hash acceleration and
/// without range-query support ("Skip List (STM)" in the paper's figures).
///
/// Every operation pays the `O(log n)` traversal the skip hash avoids, which
/// is exactly the comparison the paper draws in Figures 5a–5b.
pub struct StmSkipListMap<K: MapKey, V: MapValue> {
    stm: Stm,
    list: Arc<SkipList<K, V>>,
}

impl<K: MapKey, V: MapValue> fmt::Debug for StmSkipListMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StmSkipListMap").finish()
    }
}

impl<K: MapKey, V: MapValue> StmSkipListMap<K, V> {
    /// Create a skip list with `max_level` levels.
    pub fn new(max_level: usize) -> Self {
        Self {
            stm: Stm::new(),
            list: Arc::new(SkipList::new(max_level)),
        }
    }

    /// Look up `key`, by skip list traversal (`O(log n)`).
    pub fn get(&self, key: &K) -> Option<V> {
        self.stm.run(|tx| self.list.get(tx, key))
    }

    /// Insert `key -> value` if absent; returns `false` when already present.
    pub fn insert(&self, key: K, value: V) -> bool {
        let height = {
            let mut rng = rand::thread_rng();
            self.list.random_height(&mut rng)
        };
        self.stm.run(|tx| {
            if self.list.first_present(tx, Bound::Included(&key))? == Some(key.clone()) {
                return Ok(false);
            }
            self.list.insert_after_logical_deletes(
                tx,
                key.clone(),
                value.clone(),
                height,
                0,
                None,
            )?;
            Ok(true)
        })
    }

    /// Remove `key`; returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.stm.run(|tx| self.list.remove(tx, key))
    }

    /// Number of present keys (walks level 0).
    pub fn len(&self) -> usize {
        self.stm.run(|tx| self.list.count_present(tx))
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stm_hashmap_basic_operations() {
        let map: StmHashMap<u64, u64> = StmHashMap::new(64);
        assert!(map.is_empty());
        assert!(map.insert(1, 10));
        assert!(!map.insert(1, 11));
        assert_eq!(map.get(&1), Some(10));
        assert_eq!(map.len(), 1);
        assert!(map.remove(&1));
        assert!(!map.remove(&1));
        assert!(map.is_empty());
    }

    #[test]
    fn stm_skiplist_basic_operations() {
        let map: StmSkipListMap<u64, u64> = StmSkipListMap::new(12);
        assert!(map.is_empty());
        for k in [7u64, 3, 9, 1] {
            assert!(map.insert(k, k * 2));
        }
        assert!(!map.insert(7, 0));
        assert_eq!(map.get(&9), Some(18));
        assert_eq!(map.get(&2), None);
        assert_eq!(map.len(), 4);
        assert!(map.remove(&7));
        assert_eq!(map.get(&7), None);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn stm_skiplist_concurrent_inserts() {
        use std::thread;
        let map = Arc::new(StmSkipListMap::<u64, u64>::new(14));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    assert!(map.insert(t * 1000 + i, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), 400);
    }
}
