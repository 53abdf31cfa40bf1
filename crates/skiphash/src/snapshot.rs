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
//! # Why borrowed hops stay valid
//!
//! The traversal reuses the borrowed-`RawNode` recipe of the transactional
//! fast paths: links are read in place and only final results are upgraded
//! to counted handles.  Between hops nothing pins an epoch guard, so the
//! validity argument is different from the transactional one — it rests on
//! the pin's custody:
//!
//! * A link value visible at `p` is either still in its cell or preserved in
//!   the history table; either way it is not dropped while this pin is live
//!   (displacing commits see the pin — published before the traversal began
//!   — and move the displaced link into history instead of the reclamation
//!   queue).
//! * A link is a **strong** [`NodeRef`](crate::node::NodeRef) wherever it
//!   sits — the cell's data word or a history entry owns one count — so
//!   every node reachable at
//!   `p` keeps a positive reference count for the snapshot's whole lifetime;
//!   the node arena cannot recycle it.
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
use crate::node::RawNode;
use crate::range::{bound_as_ref, clone_bound, end_allows, range_is_empty, Range};
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

    /// Read `cell`'s successor link at the pinned version, as a borrowed
    /// handle.
    ///
    /// # Safety
    ///
    /// The returned handle is valid while `self` is alive: the link it was
    /// copied from is custody-protected by `self.pin` (see the module
    /// docs), and that link is a strong `NodeRef` keeping the node
    /// allocated.
    fn hop(&self, node: RawNode<K, V>, level: usize) -> RawNode<K, V> {
        // SAFETY: `node` obeys this snapshot's validity contract (it is the
        // head sentinel or came out of a previous `hop`).
        unsafe { node.node() }
            .level(level)
            .succ
            .read_pinned_with(&self.pin, RawNode::from_link)
            .expect("levels are always terminated by the tail sentinel")
    }

    /// True when `node` was logically present at the pinned version.
    fn present_at(&self, node: RawNode<K, V>) -> bool {
        // SAFETY: as in `hop`.
        unsafe { node.node() }
            .r_time
            .read_pinned_with(&self.pin, Option::is_none)
    }

    /// Clone `node`'s value as of the pinned version.
    fn value_at(&self, node: RawNode<K, V>) -> V {
        // SAFETY: as in `hop`.
        unsafe { node.node() }
            .value
            .read_pinned_with(&self.pin, Clone::clone)
            .expect("a non-sentinel node always carries a value")
    }

    /// Borrowed tower descent at the pinned version: the first node at level
    /// 0 (possibly the tail sentinel) whose key is `>= key`, exactly as the
    /// list was linked at `version()`.
    fn ceil_at(&self, key: &K) -> RawNode<K, V> {
        let list = &self.inner.skiplist;
        let mut pred = RawNode::from_ref(list.head());
        for level in (1..list.max_level()).rev() {
            loop {
                let next = self.hop(pred, level);
                // SAFETY: as in `hop`.
                if unsafe { next.node() }.bound.is_before(key) {
                    pred = next;
                } else {
                    break;
                }
            }
        }
        let mut curr = self.hop(pred, 0);
        // SAFETY: as in `hop`.
        while unsafe { curr.node() }.bound.is_before(key) {
            curr = self.hop(curr, 0);
        }
        curr
    }

    /// The value under `key` at the pinned version, if the key was present.
    ///
    /// `O(log n)` — a borrowed tower descent resolved at the snapshot's
    /// version; no transaction, no retry, no allocation beyond the returned
    /// clone.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut node = self.ceil_at(key);
        // Logically deleted duplicates of `key` may linger before the live
        // node (a remove + reinsert where the old node's unstitching was
        // deferred); scan every equal-key node for the one present at `p`.
        loop {
            // SAFETY: `node` obeys this snapshot's validity contract.
            let n = unsafe { node.node() };
            if n.is_tail() || n.bound.cmp_key(key) != std::cmp::Ordering::Equal {
                return None;
            }
            if self.present_at(node) {
                return Some(self.value_at(node));
            }
            node = self.hop(node, 0);
        }
    }

    /// True if `key` was present at the pinned version.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
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
        self.range_with(range, &K::clone)
    }

    /// Collection walk shared by [`Snapshot::range`] (keys cloned out) and
    /// [`Snapshot::range_copied`] (keys copied out), hopping on borrowed
    /// handles with the same successor prefetch as the live-map scan.
    fn range_with<R: RangeBounds<K>>(&self, range: R, extract: &impl Fn(&K) -> K) -> Range<K, V> {
        let start = clone_bound(range.start_bound());
        let end = clone_bound(range.end_bound());
        if range_is_empty(&start, &end) {
            return Range::new(Vec::new());
        }
        let mut node = match bound_as_ref(&start) {
            StdBound::Unbounded => self.hop(RawNode::from_ref(self.inner.skiplist.head()), 0),
            StdBound::Included(low) => self.ceil_at(low),
            StdBound::Excluded(low) => {
                // Skip every node carrying the excluded key, including
                // logically deleted duplicates lingering before the live one.
                let mut node = self.ceil_at(low);
                // SAFETY: as in `hop`.
                while !unsafe { node.node() }.is_tail()
                    && unsafe { node.node() }.bound.cmp_key(low) == std::cmp::Ordering::Equal
                {
                    node = self.hop(node, 0);
                }
                node
            }
        };
        let mut out = Vec::new();
        loop {
            // SAFETY: as in `hop`.
            let n = unsafe { node.node() };
            if n.is_tail() || !end_allows(&n.bound, bound_as_ref(&end)) {
                break;
            }
            let next = self.hop(node, 0);
            // Overlap the successor's cache miss with this element's
            // mark/value reads, exactly as in the transactional scan
            // (docs/PERF.md, Mechanism 6).
            next.prefetch();
            if self.present_at(node) {
                out.push((extract(n.key()), self.value_at(node)));
            }
            node = next;
        }
        Range::new(out)
    }

    /// Every `(key, value)` pair at the pinned version, in ascending key
    /// order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.range(..).collect()
    }

    /// Number of keys present at the pinned version.
    ///
    /// `O(shards)`: sums the transactional sharded population counter at the
    /// pinned version.  Per-cell resolution at one version is exact and a
    /// commit stamps all its writes with one timestamp, so the sum is the
    /// true population at `version()` — it always equals
    /// `self.to_vec().len()` without walking the list.
    pub fn len(&self) -> usize {
        let total = self.inner.tx_population.sum_pinned(&self.pin);
        debug_assert!(total >= 0, "pinned population sum went negative: {total}");
        total.max(0) as usize
    }

    /// True when no key was present at the pinned version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest present key `>= key` at the pinned version, if any.
    pub fn ceil_key(&self, key: &K) -> Option<K> {
        let mut node = self.ceil_at(key);
        loop {
            // SAFETY: as in `hop`.
            let n = unsafe { node.node() };
            if n.is_tail() {
                return None;
            }
            if self.present_at(node) {
                return Some(n.key().clone());
            }
            node = self.hop(node, 0);
        }
    }

    /// Upgrade the first present node at or after `key` to a counted handle
    /// (test support: lets assertions hold a node across snapshot drops).
    #[cfg(test)]
    fn ceil_node(&self, key: &K) -> Option<crate::node::NodeRef<K, V>> {
        let mut node = self.ceil_at(key);
        loop {
            // SAFETY: as in `hop`; upgrading inside the snapshot's lifetime.
            let n = unsafe { node.node() };
            if n.is_tail() {
                return None;
            }
            if self.present_at(node) {
                // SAFETY: handle read under the pinned guard of this scan.
                return Some(unsafe { node.upgrade() });
            }
            node = self.hop(node, 0);
        }
    }
}

impl<K: MapKey + Copy, V: MapValue> Snapshot<K, V> {
    /// [`Snapshot::range`] for `Copy` keys: keys are copied out of the node
    /// instead of cloned (see
    /// [`SkipHash::range_copied`](crate::SkipHash::range_copied) for why
    /// this is a separate method).
    pub fn range_copied<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range_with(range, &|k: &K| *k)
    }

    /// [`Snapshot::to_vec`] for `Copy` keys (see [`Snapshot::range_copied`]).
    pub fn to_vec_copied(&self) -> Vec<(K, V)> {
        self.range_copied(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{RemovalPolicy, SkipHashBuilder};
    use crate::SkipHash;

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
        let map: SkipHash<u64, u64> = SkipHashBuilder::new()
            .buckets(64)
            .max_level(8)
            .removal_policy(RemovalPolicy::Buffered(16))
            .build();
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
        let node = snap.ceil_node(&7).expect("present at the pin");
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
