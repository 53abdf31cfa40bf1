//! A transactional closed-addressing hash map.
//!
//! The skip hash uses this map to route from a key directly to its skip list
//! node, which is what makes `lookup`, successful `remove`, and point queries
//! on present keys `O(1)`.  It is also exposed publicly because the paper's
//! evaluation includes a plain "STM hash map" baseline for workloads without
//! range queries.
//!
//! The table is a fixed array of buckets; each bucket is a single [`TCell`]
//! holding the bucket's chain.  Updates copy the (short) chain, which keeps
//! conflicts at bucket granularity — two updates conflict only when they hash
//! to the same bucket.
//!
//! Chains are `Chain`s (see the private `chain` module), not `Vec`s: the
//! copy-on-write discipline clones a chain and retires the displaced one on
//! every update, and with `Vec` buffers each of those paid the global
//! allocator.  `Chain` buffers are blocks of the STM's size-classed
//! recycler, so steady-state map operations recycle the same blocks instead
//! (`chain_recycle_hits` in `Stm::stats()` shows the effect).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};

use skiphash_stm::{TCell, TxResult, Txn};

use crate::chain::Chain;
use crate::MapValue;

/// A fixed-capacity, closed-addressing (chained) transactional hash map.
pub struct TxHashMap<K, T> {
    buckets: Vec<TCell<Chain<K, T>>>,
    hasher: RandomState,
}

impl<K, T> fmt::Debug for TxHashMap<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxHashMap")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<K, T> TxHashMap<K, T>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    T: MapValue,
{
    /// Create a map with `bucket_count` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is zero.
    pub fn new(bucket_count: usize) -> Self {
        assert!(bucket_count > 0, "bucket count must be positive");
        Self {
            buckets: (0..bucket_count)
                .map(|_| TCell::new(Chain::new()))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    /// Number of buckets (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_for(&self, key: &K) -> &TCell<Chain<K, T>> {
        let hash = self.hasher.hash_one(key);
        let index = (hash % self.buckets.len() as u64) as usize;
        &self.buckets[index]
    }

    /// Transactionally look up `key`.
    ///
    /// Reads the bucket through `read_with`, so only the matching value is
    /// cloned — never the chain buffer.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn get(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<T>> {
        self.bucket_for(key).read_with(tx, |chain| {
            chain
                .probe(key)
                .map(|index| chain.as_slice()[index].1.clone())
        })
    }

    /// Transactionally check for `key` without cloning anything.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn contains(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<bool> {
        self.bucket_for(key)
            .read_with(tx, |chain| chain.probe(key).is_some())
    }

    /// Transactionally collect every key (test helper; `O(buckets + n)`).
    pub fn keys(&self, tx: &mut Txn<'_>) -> TxResult<Vec<K>> {
        let mut out = Vec::new();
        for bucket in &self.buckets {
            let keys: Vec<K> =
                bucket.read_with(tx, |chain| chain.iter().map(|(k, _)| k.clone()).collect())?;
            out.extend(keys);
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
    pub fn insert(&self, tx: &mut Txn<'_>, key: K, value: T) -> TxResult<bool> {
        let cell = self.bucket_for(&key);
        let mut chain = cell.read(tx)?;
        if chain.probe(&key).is_some() {
            return Ok(false);
        }
        chain.push((key, value));
        cell.write(tx, chain)?;
        Ok(true)
    }

    /// Transactionally insert or overwrite `key -> value`, returning the
    /// displaced value if the key was already present (`std`-style
    /// semantics; contrast with the set-style [`TxHashMap::insert`]).
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn upsert(&self, tx: &mut Txn<'_>, key: K, value: T) -> TxResult<Option<T>> {
        let cell = self.bucket_for(&key);
        let mut chain = cell.read(tx)?;
        let previous = if let Some(index) = chain.probe(&key) {
            Some(std::mem::replace(chain.value_mut(index), value))
        } else {
            chain.push((key, value));
            None
        };
        cell.write(tx, chain)?;
        Ok(previous)
    }

    /// Transactionally remove `key`, returning its value if it was present.
    #[must_use = "a TxAbort must be propagated with `?` so the enclosing transaction retries"]
    pub fn remove(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<T>> {
        let cell = self.bucket_for(key);
        let mut chain = cell.read(tx)?;
        match chain.probe(key) {
            None => Ok(None),
            Some(index) => {
                let (_, value) = chain.swap_remove(index);
                cell.write(tx, chain)?;
                Ok(Some(value))
            }
        }
    }

    /// Transactionally count entries by scanning every bucket.
    ///
    /// This is `O(buckets)` and intended for tests and reporting.
    pub fn len(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut total = 0;
        for bucket in &self.buckets {
            total += bucket.read(tx)?.len();
        }
        Ok(total)
    }

    /// Average chain length over non-empty buckets (reporting helper used to
    /// sanity-check the 70%-utilization guidance the paper follows).
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
