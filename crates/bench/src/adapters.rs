//! Adapters wiring every evaluated map behind one benchmark-facing trait.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use skiphash::{RangePolicy, SkipHash, SkipHashBuilder};
use skiphash_baselines::skiplist::{BundledSkipList, VcasSkipList};
use skiphash_baselines::stm_maps::{StmHashMap, StmSkipListMap};
use skiphash_baselines::timestamp::TimestampMode;
use skiphash_baselines::VcasBst;

/// A pair of std-style range bounds over `u64` keys, the dyn-safe spelling of
/// `impl RangeBounds<u64>` (a `(Bound, Bound)` tuple itself implements
/// `RangeBounds`, so it forwards to [`SkipHash::range`] unchanged).
pub type KeyBounds = (Bound<u64>, Bound<u64>);

/// Convert std-style bounds to the inclusive `[low, high]` pair the baseline
/// implementations take; `None` when no key can satisfy the bounds.
pub fn bounds_to_inclusive(bounds: KeyBounds) -> Option<(u64, u64)> {
    let low = match bounds.0 {
        Bound::Unbounded => 0,
        Bound::Included(low) => low,
        Bound::Excluded(low) => low.checked_add(1)?,
    };
    let high = match bounds.1 {
        Bound::Unbounded => u64::MAX,
        Bound::Included(high) => high,
        Bound::Excluded(high) => high.checked_sub(1)?,
    };
    (low <= high).then_some((low, high))
}

/// The interface the benchmark driver uses for every evaluated map.
///
/// Keys and values are `u64`, as in the paper's evaluation.
pub trait BenchMap: Send + Sync {
    /// Look up a key.
    fn get(&self, key: u64) -> Option<u64>;
    /// Insert a key/value pair; `false` if the key was already present.
    fn insert(&self, key: u64, value: u64) -> bool;
    /// Remove a key; `false` if it was absent.
    fn remove(&self, key: u64) -> bool;
    /// Collect all pairs whose keys satisfy `bounds` into `buffer` (cleared
    /// first) and return how many were found.  Maps that do not support range
    /// queries return `None`.
    fn range(&self, bounds: KeyBounds, buffer: &mut Vec<(u64, u64)>) -> Option<usize>;
    /// True if the map supports linearizable range queries.
    fn supports_range(&self) -> bool {
        true
    }
    /// Number of keys currently present (used to verify pre-fill).
    fn population(&self) -> usize;
}

/// Which map implementation to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Skip hash, range queries always on the fast path.
    SkipHashFastOnly,
    /// Skip hash, range queries always on the slow path.
    SkipHashSlowOnly,
    /// Skip hash, fast path with slow-path fallback (the default, 3 tries).
    SkipHashTwoPath,
    /// External BST with vCAS snapshots (rdtscp timestamps).
    VcasBst,
    /// Skip list with vCAS snapshots (rdtscp timestamps).
    VcasSkipList,
    /// Skip list with bundled references (rdtscp timestamps).
    BundledSkipList,
    /// STM skip list without range-query support.
    StmSkipList,
    /// STM hash map without range-query support (and without ordered
    /// operations).
    StmHashMap,
}

impl MapKind {
    /// All map kinds, in the order the paper's legends list them.
    pub fn all() -> &'static [MapKind] {
        &[
            MapKind::SkipHashFastOnly,
            MapKind::SkipHashSlowOnly,
            MapKind::SkipHashTwoPath,
            MapKind::VcasBst,
            MapKind::VcasSkipList,
            MapKind::BundledSkipList,
            MapKind::StmSkipList,
            MapKind::StmHashMap,
        ]
    }

    /// The maps that support range queries (used by range-heavy workloads).
    pub fn range_capable() -> &'static [MapKind] {
        &[
            MapKind::SkipHashFastOnly,
            MapKind::SkipHashSlowOnly,
            MapKind::SkipHashTwoPath,
            MapKind::VcasBst,
            MapKind::VcasSkipList,
            MapKind::BundledSkipList,
        ]
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            MapKind::SkipHashFastOnly => "Skip-hash (Fast Only)",
            MapKind::SkipHashSlowOnly => "Skip-hash (Slow Only)",
            MapKind::SkipHashTwoPath => "Skip-hash (Two-Path)",
            MapKind::VcasBst => "BST (vCAS, RDTSCP)",
            MapKind::VcasSkipList => "Skip list (vCAS, RDTSCP)",
            MapKind::BundledSkipList => "Skip list (Bundled, RDTSCP)",
            MapKind::StmSkipList => "Skip List (STM)",
            MapKind::StmHashMap => "Hash Map (STM)",
        }
    }

    /// Construct the map, sized for a key universe of `key_universe` keys of
    /// which roughly half will be present.
    pub fn build(&self, key_universe: u64) -> Arc<dyn BenchMap> {
        let skiphash = |policy| Arc::new(SkipHashAdapter(skiphash_for(key_universe, policy)));
        let levels = level_count_for(key_universe);
        match self {
            MapKind::SkipHashFastOnly => skiphash(RangePolicy::FastOnly),
            MapKind::SkipHashSlowOnly => skiphash(RangePolicy::SlowOnly),
            MapKind::SkipHashTwoPath => skiphash(RangePolicy::TwoPath { tries: 3 }),
            MapKind::VcasBst => Arc::new(VcasBstAdapter(VcasBst::new(TimestampMode::Rdtscp))),
            MapKind::VcasSkipList => Arc::new(VcasSkipListAdapter(VcasSkipList::new(
                levels,
                TimestampMode::Rdtscp,
            ))),
            MapKind::BundledSkipList => Arc::new(BundledSkipListAdapter(BundledSkipList::new(
                levels,
                TimestampMode::Rdtscp,
            ))),
            MapKind::StmSkipList => Arc::new(StmSkipListAdapter(StmSkipListMap::new(levels))),
            MapKind::StmHashMap => Arc::new(StmHashMapAdapter(StmHashMap::new(bucket_count_for(
                key_universe,
            )))),
        }
    }
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper sizes the hash table as the smallest prime keeping utilization
/// at or below 70% for the expected population (half the universe).
pub fn bucket_count_for(key_universe: u64) -> usize {
    let target = ((key_universe / 2) as f64 / 0.7).ceil() as usize;
    smallest_prime_at_least(target.max(16))
}

/// Skip-list levels for a key universe: enough that `2^levels` covers it
/// (between 4 and 30).
pub fn level_count_for(key_universe: u64) -> usize {
    let mut levels = 1;
    while (1u64 << levels) < key_universe && levels < 30 {
        levels += 1;
    }
    levels.max(4)
}

fn smallest_prime_at_least(mut n: usize) -> usize {
    fn is_prime(n: usize) -> bool {
        if n < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
    while !is_prime(n) {
        n += 1;
    }
    n
}

/// A skip hash sized for `key_universe` by [`bucket_count_for`] and
/// [`level_count_for`], with the given range policy.
pub fn skiphash_for(key_universe: u64, policy: RangePolicy) -> SkipHash<u64, u64> {
    SkipHashBuilder::new()
        .buckets(bucket_count_for(key_universe))
        .max_level(level_count_for(key_universe))
        .range_policy(policy)
        .build()
}

struct SkipHashAdapter(SkipHash<u64, u64>);

impl BenchMap for SkipHashAdapter {
    fn get(&self, key: u64) -> Option<u64> {
        self.0.get(&key)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.insert(key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.remove(&key)
    }
    fn range(&self, bounds: KeyBounds, buffer: &mut Vec<(u64, u64)>) -> Option<usize> {
        buffer.clear();
        buffer.extend(self.0.range(bounds));
        Some(buffer.len())
    }
    fn population(&self) -> usize {
        self.0.len()
    }
}

/// A [`BenchMap`] adapter over a baseline's own `get` / `insert` / `remove`
/// / `len`.  A `ranged` baseline collects through its inclusive
/// `range(&low, &high)`; an `unranged` one has no range query.
macro_rules! baseline_adapter {
    ($adapter:ident($map:ty), $kind:ident) => {
        struct $adapter($map);

        impl BenchMap for $adapter {
            fn get(&self, key: u64) -> Option<u64> {
                self.0.get(&key)
            }
            fn insert(&self, key: u64, value: u64) -> bool {
                self.0.insert(key, value)
            }
            fn remove(&self, key: u64) -> bool {
                self.0.remove(&key)
            }
            fn population(&self) -> usize {
                self.0.len()
            }
            baseline_adapter!(@$kind);
        }
    };
    (@ranged) => {
        fn range(&self, bounds: KeyBounds, buffer: &mut Vec<(u64, u64)>) -> Option<usize> {
            buffer.clear();
            if let Some((low, high)) = bounds_to_inclusive(bounds) {
                buffer.extend(self.0.range(&low, &high));
            }
            Some(buffer.len())
        }
    };
    (@unranged) => {
        fn range(&self, _bounds: KeyBounds, _buffer: &mut Vec<(u64, u64)>) -> Option<usize> {
            None
        }
        fn supports_range(&self) -> bool {
            false
        }
    };
}

baseline_adapter!(VcasBstAdapter(VcasBst<u64, u64>), ranged);
baseline_adapter!(VcasSkipListAdapter(VcasSkipList<u64, u64>), ranged);
baseline_adapter!(BundledSkipListAdapter(BundledSkipList<u64, u64>), ranged);
baseline_adapter!(StmSkipListAdapter(StmSkipListMap<u64, u64>), unranged);
baseline_adapter!(StmHashMapAdapter(StmHashMap<u64, u64>), unranged);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_map_kind_builds_and_round_trips() {
        for kind in MapKind::all() {
            let map = kind.build(1024);
            assert!(map.insert(10, 100), "{kind}: insert");
            assert!(!map.insert(10, 100), "{kind}: duplicate insert");
            assert_eq!(map.get(10), Some(100), "{kind}: get");
            assert_eq!(map.get(11), None, "{kind}: missing get");
            assert_eq!(map.population(), 1, "{kind}: population");
            assert!(map.remove(10), "{kind}: remove");
            assert!(!map.remove(10), "{kind}: double remove");
        }
    }

    #[test]
    fn range_capable_maps_agree_on_a_range() {
        for kind in MapKind::range_capable() {
            let map = kind.build(1024);
            for k in 0..50u64 {
                assert!(map.insert(k, k + 1));
            }
            let mut buffer = Vec::new();
            let count = map
                .range((Bound::Included(10), Bound::Included(19)), &mut buffer)
                .expect("supports ranges");
            assert_eq!(count, 10, "{kind}");
            assert_eq!(buffer[0], (10, 11), "{kind}");
            assert_eq!(buffer[9], (19, 20), "{kind}");
            assert!(map.supports_range());
            // Exclusive and unbounded bounds must agree across adapters.
            let count = map
                .range((Bound::Excluded(10), Bound::Excluded(19)), &mut buffer)
                .expect("supports ranges");
            assert_eq!(count, 8, "{kind}");
            assert_eq!(buffer[0], (11, 12), "{kind}");
            let count = map
                .range((Bound::Unbounded, Bound::Unbounded), &mut buffer)
                .expect("supports ranges");
            assert_eq!(count, 50, "{kind}");
            // Unsatisfiable bounds are empty, not an error.
            let count = map
                .range((Bound::Excluded(5), Bound::Excluded(6)), &mut buffer)
                .expect("supports ranges");
            assert_eq!(count, 0, "{kind}");
        }
    }

    #[test]
    fn non_range_maps_report_no_support() {
        for kind in [MapKind::StmSkipList, MapKind::StmHashMap] {
            let map = kind.build(1024);
            let mut buffer = Vec::new();
            assert!(map
                .range((Bound::Included(0), Bound::Included(10)), &mut buffer)
                .is_none());
            assert!(!map.supports_range());
        }
    }

    #[test]
    fn bucket_sizing_matches_the_papers_rule() {
        // For the paper's universe of 10^6 keys the bucket count must be the
        // prime 714,341.
        assert_eq!(bucket_count_for(1_000_000), 714_341);
        assert_eq!(level_count_for(1_000_000), 20);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = MapKind::all().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MapKind::all().len());
    }
}
