//! MVCC time-travel snapshots: arbitrarily long reads at one pinned version.
//!
//! [`SkipHash::snapshot`](crate::SkipHash::snapshot) pins the STM clock at
//! its current version `p` and
//! returns a [`Snapshot`] that answers `get` / `range` / full-scan / `len`
//! queries *exactly as the map stood at version `p`* — no matter how many
//! writers commit while the snapshot is alive, and no matter how long the
//! caller holds it.  Writers are never blocked: they commit at full speed,
//! and the STM's [`snapshot registry`](skiphash_stm::SnapshotPin) preserves
//! each payload a live snapshot still needs (and only those) until the last
//! snapshot pinned inside its validity window is dropped.
//!
//! # How a pinned read works
//!
//! Every [`TCell`](skiphash_stm::TCell) carries an ownership record whose
//! version is the commit timestamp of its last write.  A pinned read of a
//! cell at version `p` therefore has two cases:
//!
//! * orec version `<= p`: the current payload *is* the payload at `p` — read
//!   it in place (a validated optimistic read, no clone, no allocation);
//! * orec version `> p`: the payload at `p` was displaced after the pin — it
//!   lives in the runtime's history side table, kept there precisely because
//!   this pin's window covers it.
//!
//! Structural consistency follows from per-cell exactness: a commit stamps
//! *all* of its writes with one timestamp, so either every write of that
//! commit is visible at `p` or none is.  A traversal that resolves each hop
//! at `p` walks the very linked structure that existed at `p` — nodes
//! inserted later are bypassed (their predecessors' links at `p` predate the
//! stitch), nodes unstitched later are still reachable (the pre-unstitch
//! links are preserved in history).
//!
//! # One traversal, another reader
//!
//! A snapshot read runs the very descent and level-0 walk the transactional
//! paths run (the crate's `traverse` module), with `&`[`SnapshotPin`] as the reader:
//! links, marks and values resolve at `p`, nothing can abort, and the
//! borrowed handles the traversal hops on stay valid because of the pin's
//! custody — a link visible at `p` is either still in its cell or preserved
//! in the history table, and wherever it sits it is a **strong**
//! [`NodeRef`](crate::node::NodeRef), so every node reachable at `p` keeps a
//! positive reference count for the snapshot's whole lifetime.
//!
//! Dropping the [`Snapshot`] releases the pin; the history entries it alone
//! kept alive are trimmed and their node references dropped, so retention is
//! bounded by live snapshots rather than leaked (see `docs/PERF.md`).
//!
//! # Example
//!
//! ```
//! use skiphash::SkipHash;
//!
//! let map: SkipHash<u64, u64> = SkipHash::new();
//! for k in [1, 2, 3] {
//!     map.insert(k, k * 10);
//! }
//! let snap = map.snapshot();
//! map.insert(4, 40);
//! map.remove(&1);
//! // The snapshot still sees the pre-mutation state...
//! assert_eq!(snap.get(&1), Some(10));
//! assert_eq!(snap.get(&4), None);
//! assert_eq!(snap.len(), 3);
//! // ...while the live map has moved on.
//! assert_eq!(map.get(&1), None);
//! assert_eq!(map.len(), 3);
//! drop(snap); // releases custody of the displaced payloads
//! ```

use std::fmt;
use std::ops::Bound as StdBound;
use std::ops::RangeBounds;
use std::sync::Arc;

use skiphash_stm::SnapshotPin;

use crate::map::Inner;
use crate::node::Node;
use crate::range::{self, Range};
use crate::traverse::{self, Reader};
use crate::{MapKey, MapValue};

/// A read-only view of a [`SkipHash`](crate::SkipHash) frozen at one clock
/// version, created by [`SkipHash::snapshot`](crate::SkipHash::snapshot).
///
/// Every query on this handle — [`get`](Snapshot::get),
/// [`range`](Snapshot::range), [`to_vec`](Snapshot::to_vec),
/// [`len`](Snapshot::len) — observes the map exactly as it stood at
/// [`version()`](Snapshot::version), regardless of concurrent writers and of
/// how long ago the snapshot was taken.  Two reads from the same snapshot
/// can never disagree.
///
/// Reads run outside any transaction: they cannot abort, retry, or conflict
/// with writers, and they perform no steady-state allocation beyond the
/// values they return.  The handle owns a pin on the STM's snapshot
/// registry; drop it to release custody of the superseded payloads it keeps
/// alive.  See the [module docs](self) for the mechanism.
pub struct Snapshot<K: MapKey, V: MapValue> {
    inner: Arc<Inner<K, V>>,
    pin: SnapshotPin,
}

impl<K: MapKey, V: MapValue> fmt::Debug for Snapshot<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.pin.version())
            .finish()
    }
}

impl<K: MapKey, V: MapValue> Snapshot<K, V> {
    pub(crate) fn new(inner: Arc<Inner<K, V>>, pin: SnapshotPin) -> Self {
        debug_assert!(pin.belongs_to(&inner.stm));
        Self { inner, pin }
    }

    /// The clock version this snapshot is pinned at.
    ///
    /// Every commit stamped at or before this version is visible; every
    /// later commit is not.
    pub fn version(&self) -> u64 {
        self.pin.version()
    }

    /// The first node at or after `key` that was logically present at the
    /// pinned version, if any.
    fn ceil_node(&self, key: &K) -> Option<&Node<K, V>> {
        let list = &self.inner.skiplist;
        let Ok(found) = traverse::first_present(&mut &self.pin, list, StdBound::Included(key));
        // SAFETY: read through `self.pin`, whose custody keeps every node
        // reachable at its version allocated while `self` is alive (the
        // traversal module's borrowed-handle contract).
        let node = unsafe { found.node() };
        (!node.is_tail()).then_some(node)
    }

    /// The value under `key` at the pinned version, if the key was present.
    ///
    /// `O(log n)` — a tower descent resolved at the snapshot's version; no
    /// transaction, no retry, no allocation beyond the returned clone.
    /// Logically deleted duplicates of `key` may linger in front of the node
    /// that was live at the pin (a remove + reinsert whose unstitching was
    /// deferred); the walk passes over them.
    pub fn get(&self, key: &K) -> Option<V> {
        let node = self.ceil_node(key).filter(|node| node.key() == key)?;
        let Ok(value) = (&self.pin).value(node);
        Some(value)
    }

    /// True if `key` was present at the pinned version.
    pub fn contains_key(&self, key: &K) -> bool {
        self.ceil_node(key).is_some_and(|node| node.key() == key)
    }

    /// Smallest present key `>= key` at the pinned version, if any.
    pub fn ceil_key(&self, key: &K) -> Option<K> {
        self.ceil_node(key).map(|node| node.key().clone())
    }

    /// Every `(key, value)` pair whose key lies in `range`, in ascending key
    /// order, as of the pinned version.
    ///
    /// Accepts any [`RangeBounds`] expression, like
    /// [`SkipHash::range`](crate::SkipHash::range); inverted ranges yield an
    /// empty iterator.  Unlike the live-map query there is no fast/slow path
    /// split and no abort accounting — a pinned walk cannot conflict with
    /// anything.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        Range::new(self.pairs(range.start_bound(), range.end_bound()))
    }

    /// The pairs within the bounds at the pinned version.
    fn pairs(&self, start: StdBound<&K>, end: StdBound<&K>) -> Vec<(K, V)> {
        let Ok(pairs) = range::collect(&mut &self.pin, &self.inner.skiplist, start, end);
        pairs
    }

    /// [`Snapshot::range`] under its historical name for `Copy` keys; kept
    /// because the frozen repo benchmark calls it (see
    /// [`SkipHash::range_copied`](crate::SkipHash::range_copied)).
    #[inline]
    pub fn range_copied<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range(range)
    }

    /// Every `(key, value)` pair at the pinned version, in ascending key
    /// order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.pairs(StdBound::Unbounded, StdBound::Unbounded)
    }

    /// Number of keys present at the pinned version.
    ///
    /// `O(shards)`: sums the sharded population counter at the pinned
    /// version.  Per-cell resolution at one version is exact and a commit
    /// stamps all its writes with one timestamp, so the sum is the true
    /// population at `version()` — it always equals `self.to_vec().len()`
    /// without walking the list.
    pub fn len(&self) -> usize {
        let total = self.inner.population.sum_pinned(&self.pin);
        debug_assert!(total >= 0, "pinned population sum went negative: {total}");
        total.max(0) as usize
    }

    /// True when no key was present at the pinned version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SkipHashBuilder;
    use crate::{traverse, SkipHash};
    use std::ops::Bound::Included;

    fn map() -> SkipHash<u64, u64> {
        SkipHashBuilder::new().buckets(64).max_level(8).build()
    }

    #[test]
    fn snapshot_ignores_later_inserts_removes_and_updates() {
        let map = map();
        for k in [2, 4, 6] {
            assert!(map.insert(k, k * 10));
        }
        let snap = map.snapshot();
        assert!(map.insert(3, 30));
        assert!(map.remove(&4));
        assert_eq!(map.upsert(6, 6666), Some(60));

        assert_eq!(snap.get(&2), Some(20));
        assert_eq!(snap.get(&3), None, "insert after the pin is invisible");
        assert_eq!(snap.get(&4), Some(40), "remove after the pin is invisible");
        assert_eq!(snap.get(&6), Some(60), "update after the pin is invisible");
        assert_eq!(snap.to_vec(), vec![(2, 20), (4, 40), (6, 60)]);
        assert_eq!(snap.len(), 3);
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&6), Some(6666));
    }

    #[test]
    fn snapshot_range_bounds_match_btreemap_at_the_pin() {
        use std::collections::BTreeMap;
        use std::ops::Bound::*;
        let map = map();
        for k in [1u64, 3, 5, 7, 9] {
            assert!(map.insert(k, k * 10));
        }
        let reference: BTreeMap<u64, u64> = [1u64, 3, 5, 7, 9].map(|k| (k, k * 10)).into();
        let snap = map.snapshot();
        // Mutate heavily after the pin; the snapshot must not notice.
        map.clear();
        for k in 0..20u64 {
            map.insert(k, k + 1000);
        }
        let cases = [
            (Unbounded, Unbounded),
            (Unbounded, Included(5)),
            (Included(3), Excluded(7)),
            (Excluded(3), Included(7)),
            (Excluded(0), Excluded(100)),
        ];
        for (start, end) in cases {
            let expected: Vec<(u64, u64)> = reference
                .range((start, end))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(
                snap.range((start, end)).collect::<Vec<_>>(),
                expected,
                "bounds ({start:?}, {end:?})"
            );
        }
        #[allow(clippy::reversed_empty_ranges)] // inverted ranges ARE the subject
        let inverted = snap.range(5..2).count();
        assert_eq!(inverted, 0, "inverted range is empty");
    }

    #[test]
    fn snapshot_sees_through_remove_reinsert_of_the_same_key() {
        let map = map();
        assert!(map.insert(5, 50));
        let before = map.snapshot();
        assert!(map.remove(&5));
        let between = map.snapshot();
        assert!(map.insert(5, 5555));

        assert_eq!(before.get(&5), Some(50));
        assert_eq!(between.get(&5), None);
        assert_eq!(map.get(&5), Some(5555));
        assert_eq!(before.len(), 1);
        assert_eq!(between.len(), 0);
        assert!(between.is_empty());
    }

    #[test]
    fn snapshot_survives_unstitch_deferral_policies() {
        // Buffered removal defers unstitching, so deleted duplicates linger
        // at level 0 — the snapshot walk must skip them at its version.
        let map = map();
        for k in 0..32u64 {
            assert!(map.insert(k, k));
        }
        let snap = map.snapshot();
        for k in 0..32u64 {
            assert!(map.remove(&k));
        }
        for k in 0..32u64 {
            assert!(map.insert(k, k + 100));
        }
        assert_eq!(snap.len(), 32);
        let pairs = snap.to_vec();
        assert_eq!(pairs, (0..32u64).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(snap.ceil_key(&10), Some(10));
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn node_handle_upgraded_from_snapshot_outlives_it() {
        let map = map();
        assert!(map.insert(7, 70));
        let snap = map.snapshot();
        assert!(map.remove(&7));
        let Ok(found) = traverse::first_present(&mut &snap.pin, &snap.inner.skiplist, Included(&7));
        // SAFETY: read through the pin of the still-live `snap`.
        let node = unsafe { found.upgrade() };
        drop(snap);
        // The counted handle keeps the node alive past the pin's custody.
        assert_eq!(*node.key(), 7);
    }

    #[test]
    fn snapshot_debug_names_its_version() {
        let map = map();
        map.insert(1, 1);
        let snap = map.snapshot();
        let dbg = format!("{snap:?}");
        assert!(dbg.contains("Snapshot"), "{dbg}");
        assert!(dbg.contains("version"), "{dbg}");
    }
}
