//! Linearizable range queries, with std-style [`RangeBounds`] arguments.
//!
//! Implements §4.4 of the paper: a **fast path** that runs the whole range
//! query as a single `try_once` transaction, and a **slow path** that
//! registers with the [range query coordinator](crate::rqc::Rqc), acquires a
//! version number, and walks the range in many small transactions, pausing
//! only on *safe nodes* — nodes guaranteed not to be unstitched before the
//! query finishes.  Both paths, and the pinned reads of
//! [`Snapshot`](crate::Snapshot), are the same descent and the same level-0
//! walk (the crate's `traverse` module); a path is a choice of reader and of
//! what to do at each node.
//!
//! [`SkipHash::range`] accepts any `RangeBounds<K>` (`1..=5`, `..`, `3..`,
//! `(Bound::Excluded(a), Bound::Included(b))`, …) and returns an owned
//! [`Range`] iterator over the snapshot.  An inverted range (start above
//! end) yields an empty iterator rather than panicking like
//! `BTreeMap::range` — a concurrent map should not turn a stale bound pair
//! into a crash.

use skiphash_stm::sync::Ordering;
use std::fmt;
use std::iter::FusedIterator;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;
use std::ops::RangeBounds;

use skiphash_stm::{TxResult, Txn};

use crate::config::RangePolicy;
use crate::map::SkipHash;
use crate::node::{Bound as NodeBound, Node, NodeRef, RawNode};
use crate::skiplist::SkipList;
use crate::traverse::{self, Reader};
use crate::{MapKey, MapValue};

/// An owned iterator over one linearizable range-query result, in key
/// order — ascending from [`SkipHash::range`], descending from
/// [`SkipHash::range_rev`].
///
/// Returned by [`SkipHash::range`], [`SkipHash::range_rev`],
/// [`SkipHash::range_attempt_fast`], [`TxView::range`](crate::TxView::range)
/// and [`Snapshot::range`](crate::Snapshot::range).  The pairs are
/// materialized at the query's linearization point; iterating them performs
/// no further synchronization.
#[derive(Clone)]
pub struct Range<K, V> {
    pairs: std::vec::IntoIter<(K, V)>,
}

impl<K, V> Range<K, V> {
    pub(crate) fn new(pairs: Vec<(K, V)>) -> Self {
        Self {
            pairs: pairs.into_iter(),
        }
    }

    /// The pairs not yet yielded, as a slice (in iteration order).
    pub fn as_slice(&self) -> &[(K, V)] {
        self.pairs.as_slice()
    }
}

impl<K, V> Iterator for Range<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        self.pairs.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pairs.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Range<K, V> {
    fn next_back(&mut self) -> Option<(K, V)> {
        self.pairs.next_back()
    }
}

impl<K, V> ExactSizeIterator for Range<K, V> {}
impl<K, V> FusedIterator for Range<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for Range<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Range")
            .field("remaining", &self.pairs.as_slice())
            .finish()
    }
}

/// True when no key can satisfy the pair of bounds (start above end).
/// `BTreeMap::range` panics here; a concurrent map yields emptiness instead.
pub(crate) fn range_is_empty<K: Ord>(start: &StdBound<K>, end: &StdBound<K>) -> bool {
    match (start, end) {
        (StdBound::Included(l), StdBound::Included(h)) => l > h,
        (StdBound::Included(l), StdBound::Excluded(h))
        | (StdBound::Excluded(l), StdBound::Included(h))
        | (StdBound::Excluded(l), StdBound::Excluded(h)) => l >= h,
        (StdBound::Unbounded, _) | (_, StdBound::Unbounded) => false,
    }
}

/// True when a node at `position` still lies at or below the end bound.
pub(crate) fn end_allows<K: Ord>(position: &NodeBound<K>, end: StdBound<&K>) -> bool {
    match end {
        StdBound::Unbounded => true,
        StdBound::Included(h) => position.is_at_most(h),
        StdBound::Excluded(h) => position.is_before(h),
    }
}

/// Every logically present `(key, value)` pair within the bounds, in
/// ascending key order, as `reader` sees the list: one descent to the lower
/// bound, one level-0 walk to the upper.  This is the whole range query of
/// the fast path and [`TxView::range`](crate::TxView::range) (`reader` a
/// transaction) and of [`Snapshot::range`](crate::Snapshot::range) (`reader`
/// a pin).
pub(crate) fn collect<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
    end: StdBound<&K>,
) -> Result<Vec<(K, V)>, R::Abort> {
    let mut out = Vec::new();
    if range_is_empty(&start, &end) {
        return Ok(out);
    }
    traverse::scan(reader, list, start, |reader, _, node| {
        if !end_allows(&node.bound, end) {
            return Ok(ControlFlow::Break(()));
        }
        if !reader.removed(node)? {
            out.push((node.key().clone(), reader.value(node)?));
        }
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out)
}

impl<K: MapKey, V: MapValue> SkipHash<K, V> {
    /// Collect every `(key, value)` pair whose key lies in `range`, in
    /// ascending key order, as of a single linearization point.
    ///
    /// Accepts any [`RangeBounds`] expression, like `BTreeMap::range`:
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// for k in [1, 3, 5, 7] {
    ///     map.insert(k, k * 10);
    /// }
    /// assert_eq!(map.range(3..=7).collect::<Vec<_>>(), vec![(3, 30), (5, 50), (7, 70)]);
    /// assert_eq!(map.range(..4).count(), 2);
    /// assert_eq!(map.range(..).count(), 4);
    /// assert_eq!(map.range(5..2).count(), 0, "inverted ranges are empty, not a panic");
    /// ```
    ///
    /// The execution strategy (fast path, slow path, or fast-then-slow) is
    /// chosen by the configured [`RangePolicy`].
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        Range::new(self.range_pairs(range.start_bound(), range.end_bound()))
    }

    /// [`SkipHash::range`] in **descending** key order: the same query (same
    /// policy, same linearization guarantee), reversed in place.
    ///
    /// ```
    /// use skiphash::SkipHash;
    ///
    /// let map: SkipHash<u64, u64> = SkipHash::new();
    /// for k in [1, 3, 5, 7] {
    ///     map.insert(k, k * 10);
    /// }
    /// assert_eq!(map.range_rev(3..=7).collect::<Vec<_>>(), vec![(7, 70), (5, 50), (3, 30)]);
    /// assert_eq!(map.range_rev(5..2).count(), 0, "inverted ranges are empty, not a panic");
    /// ```
    pub fn range_rev<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        let mut pairs = self.range_pairs(range.start_bound(), range.end_bound());
        pairs.reverse();
        Range::new(pairs)
    }

    /// The query behind [`SkipHash::range`], [`SkipHash::range_rev`] and
    /// [`SkipHash::to_vec`]: as many fast-path attempts as the policy allows,
    /// then the slow path.
    pub(crate) fn range_pairs(&self, start: StdBound<&K>, end: StdBound<&K>) -> Vec<(K, V)> {
        if range_is_empty(&start, &end) {
            return Vec::new();
        }
        let fast_tries = match self.inner.config.range_policy {
            RangePolicy::FastOnly => usize::MAX, // i.e. until one commits
            RangePolicy::SlowOnly => 0,
            RangePolicy::TwoPath { tries } => tries.max(1),
        };
        (0..fast_tries)
            .find_map(|_| self.range_fast(start, end))
            .unwrap_or_else(|| self.range_slow(start, end))
    }

    /// [`SkipHash::range`] under its historical name for `Copy` keys; kept
    /// because the frozen repo benchmark calls it.  After monomorphisation a
    /// `Copy` key's `clone` *is* the copy, so there is nothing to specialise.
    #[inline]
    pub fn range_copied<R: RangeBounds<K>>(&self, range: R) -> Range<K, V> {
        self.range(range)
    }

    /// [`SkipHash::to_vec`](crate::SkipHash::to_vec) under its historical
    /// name for `Copy` keys (see [`SkipHash::range_copied`]).
    #[inline]
    pub fn to_vec_copied(&self) -> Vec<(K, V)> {
        self.to_vec()
    }

    /// Perform exactly one fast-path attempt of a range query, returning
    /// `None` if the single transaction aborted.
    ///
    /// This exposes the building block [`SkipHash::range`] uses so callers
    /// (and the Table 1 benchmark) can implement custom fallback policies or
    /// measure abort behaviour directly.
    pub fn range_attempt_fast<R: RangeBounds<K>>(&self, range: R) -> Option<Range<K, V>> {
        let (start, end) = (range.start_bound(), range.end_bound());
        if range_is_empty(&start, &end) {
            return Some(Range::new(Vec::new()));
        }
        self.range_fast(start, end).map(Range::new)
    }

    /// One fast-path attempt: the entire query as a single transaction that
    /// does not retry on conflict.  Returns `None` if the attempt aborted.
    fn range_fast(&self, start: StdBound<&K>, end: StdBound<&K>) -> Option<Vec<(K, V)>> {
        let inner = &self.inner;
        let attempt = inner
            .stm
            .try_once(|tx| collect(tx, &inner.skiplist, start, end));
        let counter = match attempt {
            Ok(_) => &inner.range_counters.fast_success,
            Err(_) => &inner.range_counters.fast_abort,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        attempt.ok()
    }

    /// The slow path: register with the RQC, then gather the range across
    /// several transactions, pausing only on safe nodes.
    fn range_slow(&self, start: StdBound<&K>, end: StdBound<&K>) -> Vec<(K, V)> {
        let inner = &self.inner;
        // Setup transaction: find the starting node and acquire a version
        // number atomically, so the start node is a safe node for this query.
        // This commit is the query's linearization point.
        let (start_node, version) = inner.stm.run(|tx| {
            let start_node = inner.skiplist.first_present(tx, start)?;
            Ok((start_node, inner.rqc.on_range(tx)?))
        });

        // Collection phase.  `collected` and `cursor` are plain locals
        // captured by the closure (`no_local_undo`): when an attempt aborts,
        // all pairs gathered so far and the safe node the walk last paused
        // on are retained, so the next attempt resumes exactly there.
        //
        // `cursor` is the query's only counted reference and always a safe
        // node not yet collected (or the node the walk ended on).  It moves —
        // and the element read at the previous safe node joins `collected` —
        // only once the next safe node has been fully read, in two
        // statements that cannot abort: an abort never records a partially
        // read element, and never records one twice.
        let mut collected: Vec<(K, V)> = Vec::new();
        let mut cursor: NodeRef<K, V> = start_node;
        inner.stm.run(|tx| {
            let mut pending: Option<(K, V)> = None;
            let resume = RawNode::from_ref(&cursor);
            let visit = |tx: &mut Txn<'_>, at: RawNode<K, V>, node: &Node<K, V>| {
                if !end_allows(&node.bound, end) {
                    return Ok(ControlFlow::Break(()));
                }
                if Self::is_safe(tx, node, version)? {
                    let value = tx.value(node)?;
                    collected.extend(pending.replace((node.key().clone(), value)));
                    // SAFETY: `at` is the node `cursor` counts or was read
                    // through the still-running attempt `tx`.
                    cursor = unsafe { at.upgrade() };
                }
                Ok(ControlFlow::Continue(()))
            };
            // SAFETY: `resume` is rooted in `cursor`, which keeps counting
            // that node until the walk has moved it to a later one.
            let stop = unsafe { traverse::walk(tx, resume, visit) }?;
            collected.extend(pending);
            // SAFETY: `stop` was reached through the still-running attempt.
            // Parking on the end of the walk makes a re-run of this body a
            // no-op.
            cursor = unsafe { stop.upgrade() };
            Ok(())
        });

        // Finalization: deregister from the RQC and unstitch any nodes whose
        // removal was deferred onto this query.
        let removals = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
        for removed in &removals {
            inner.stm.run(|tx| inner.skiplist.unstitch(tx, removed));
        }
        inner
            .range_counters
            .slow_complete
            .fetch_add(1, Ordering::Relaxed);
        collected
    }

    /// §4.3's safety test: a node is safe for a query with version `version`
    /// iff it was inserted before the query began and was not logically
    /// deleted before the query began.  (The tail sentinel, always safe, is
    /// where the walk ends.)
    fn is_safe(tx: &mut Txn<'_>, node: &Node<K, V>, version: u64) -> TxResult<bool> {
        if node.i_time.read_with(tx, |t| *t)? >= version {
            return Ok(false);
        }
        Ok(node
            .removed_at(tx)?
            .is_none_or(|removed_at| removed_at >= version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkipHashBuilder;

    fn map_with_policy(policy: RangePolicy) -> SkipHash<u64, u64> {
        SkipHashBuilder::new()
            .buckets(512)
            .max_level(12)
            .range_policy(policy)
            .build()
    }

    fn fill(map: &SkipHash<u64, u64>, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            assert!(map.insert(k, k * 10));
        }
    }

    fn collect(map: &SkipHash<u64, u64>, r: impl RangeBounds<u64>) -> Vec<(u64, u64)> {
        map.range(r).collect()
    }

    #[test]
    fn fast_path_range_collects_inclusive_bounds() {
        let map = map_with_policy(RangePolicy::FastOnly);
        fill(&map, [1, 3, 5, 7, 9]);
        assert_eq!(collect(&map, 3..=7), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(collect(&map, 0..=100).len(), 5);
        assert_eq!(collect(&map, 4..=4), vec![]);
        let stats = map.range_stats();
        assert!(stats.fast_path_successes >= 3);
        assert_eq!(stats.slow_path_completions, 0);
    }

    #[test]
    fn all_bound_shapes_agree_with_btreemap() {
        use std::collections::BTreeMap;
        use std::ops::Bound::*;
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [1, 3, 5, 7, 9]);
        let reference: BTreeMap<u64, u64> = [1, 3, 5, 7, 9].map(|k| (k, k * 10)).into();
        let cases: Vec<(StdBound<u64>, StdBound<u64>)> = vec![
            (Unbounded, Unbounded),
            (Unbounded, Included(5)),
            (Unbounded, Excluded(5)),
            (Included(3), Unbounded),
            (Excluded(3), Unbounded),
            (Included(3), Included(7)),
            (Included(3), Excluded(7)),
            (Excluded(3), Included(7)),
            (Excluded(3), Excluded(7)),
            (Excluded(0), Excluded(100)),
        ];
        for (start, end) in cases {
            let expected: Vec<(u64, u64)> = reference
                .range((start, end))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(
                collect(&map, (start, end)),
                expected,
                "bounds ({start:?}, {end:?})"
            );
        }
    }

    #[test]
    fn half_open_and_unbounded_sugar() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [2, 4, 6, 8]);
        assert_eq!(collect(&map, ..), vec![(2, 20), (4, 40), (6, 60), (8, 80)]);
        assert_eq!(collect(&map, 4..), vec![(4, 40), (6, 60), (8, 80)]);
        assert_eq!(collect(&map, ..6), vec![(2, 20), (4, 40)]);
        assert_eq!(collect(&map, 4..8), vec![(4, 40), (6, 60)]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // inverted ranges ARE the subject
    fn inverted_ranges_are_empty_not_a_panic() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [1, 2, 3]);
        assert_eq!(collect(&map, 3..1), vec![]);
        assert_eq!(map.range(3..3).count(), 0);
        assert_eq!(map.range(5..=1).count(), 0);
        // Empty ranges never touch the counters.
        assert_eq!(map.range_stats().fast_path_successes, 0);
    }

    #[test]
    fn range_iterator_is_double_ended_and_exact() {
        let map = map_with_policy(RangePolicy::FastOnly);
        fill(&map, [1, 2, 3, 4]);
        let mut iter = map.range(1..=4);
        assert_eq!(iter.len(), 4);
        assert_eq!(iter.next(), Some((1, 10)));
        assert_eq!(iter.next_back(), Some((4, 40)));
        assert_eq!(iter.as_slice(), &[(2, 20), (3, 30)]);
        assert_eq!(iter.len(), 2);
    }

    #[test]
    fn slow_path_range_matches_fast_path() {
        let slow = map_with_policy(RangePolicy::SlowOnly);
        fill(&slow, 0..200);
        let result = collect(&slow, 10..=20);
        let expected: Vec<(u64, u64)> = (10..=20).map(|k| (k, k * 10)).collect();
        assert_eq!(result, expected);
        assert_eq!(slow.range_stats().slow_path_completions, 1);
        assert_eq!(slow.range_stats().fast_path_successes, 0);
        // The RQC must be left empty after the query finishes.
        assert_eq!(slow.inner.rqc.active_queries(), 0);
        assert!(slow.check_invariants().is_ok());
    }

    #[test]
    fn slow_path_handles_exclusive_and_unbounded_bounds() {
        let slow = map_with_policy(RangePolicy::SlowOnly);
        fill(&slow, [10, 20, 30, 40]);
        assert_eq!(
            collect(&slow, (StdBound::Excluded(10), StdBound::Excluded(40))),
            vec![(20, 200), (30, 300)]
        );
        assert_eq!(collect(&slow, ..).len(), 4);
        assert_eq!(collect(&slow, 21..), vec![(30, 300), (40, 400)]);
        assert_eq!(slow.inner.rqc.active_queries(), 0);
    }

    #[test]
    fn two_path_policy_uses_fast_path_when_uncontended() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [2, 4, 6]);
        assert_eq!(collect(&map, 1..=7), vec![(2, 20), (4, 40), (6, 60)]);
        let stats = map.range_stats();
        assert_eq!(stats.fast_path_successes, 1);
        assert_eq!(stats.slow_path_completions, 0);
    }

    #[test]
    fn empty_range_and_empty_map() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        assert_eq!(collect(&map, 0..=1000), vec![]);
        fill(&map, [100]);
        assert_eq!(collect(&map, 0..=99), vec![]);
        assert_eq!(collect(&map, 101..=1000), vec![]);
        assert_eq!(collect(&map, 100..=100), vec![(100, 1000)]);
    }

    #[test]
    fn slow_path_skips_nodes_logically_deleted_before_it_started() {
        let map = map_with_policy(RangePolicy::SlowOnly);
        fill(&map, [1, 2, 3, 4, 5]);
        assert!(map.remove(&3));
        assert_eq!(
            collect(&map, 1..=5),
            vec![(1, 10), (2, 20), (4, 40), (5, 50)]
        );
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn deferred_nodes_are_unstitched_after_the_query() {
        let map: SkipHash<u64, u64> = SkipHashBuilder::new()
            .buckets(256)
            .range_policy(RangePolicy::SlowOnly)
            .build();
        fill(&map, 0..50);

        // Register a slow-path query manually (setup phase only): a removal
        // that happens while a query is registered must be deferred.
        let inner = &map.inner;
        let version = inner.stm.run(|tx| inner.rqc.on_range(tx));
        assert!(map.remove(&25));
        // The node is logically gone immediately...
        assert_eq!(map.get(&25), None);
        assert_eq!(map.len(), 49);
        // ...but physically deferred while the query is active: parked in
        // this thread's buffer, whose flush hands it to the query.
        assert_eq!(inner.buffer.len(), 1);
        inner.flush_deferred_batch(inner.buffer.drain_all());
        assert_eq!(inner.rqc.active_queries(), 1);
        let removals = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
        assert_eq!(removals.len(), 1, "removal must have been deferred");
        for node in &removals {
            inner.stm.run(|tx| inner.skiplist.unstitch(tx, node));
        }
        assert!(map.check_invariants().is_ok());
    }

    #[test]
    fn reinserted_key_after_remove_is_visible_to_new_ranges() {
        let map = map_with_policy(RangePolicy::TwoPath { tries: 3 });
        fill(&map, [1, 2, 3]);
        assert!(map.remove(&2));
        assert!(map.insert(2, 2222));
        assert_eq!(collect(&map, 1..=3), vec![(1, 10), (2, 2222), (3, 30)]);
        assert_eq!(map.get(&2), Some(2222));
        assert!(map.check_invariants().is_ok());
    }
}
