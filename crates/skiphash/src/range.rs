//! Linearizable range queries, with std-style [`RangeBounds`] arguments.
//!
//! Implements §4.4 of the paper: a **fast path** that runs the whole range
//! query as a single read-only `try_once` transaction, and a **slow path** that
//! registers with the [range query coordinator](crate::rqc::Rqc), acquires a
//! version number, and walks the range in many small transactions, pausing
//! only on *safe nodes* — nodes guaranteed not to be unstitched before the
//! query finishes.  Both paths, and the pinned reads of
//! [`Snapshot`](crate::Snapshot), are the same descent and level-0 walks
//! (the crate's `traverse` module); a path is a choice of reader and of
//! what to do at each node.  The fast path and the pinned range collect a
//! list too large for the cache with several cursors at once, judged from
//! the map's population (`cut_level`); the slow path walks with one,
//! because it resumes from the safe node it last paused on.
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

use skiphash_stm::{TxAbort, TxResult, Txn};

use crate::config::RangePolicy;
use crate::map::SkipHash;
use crate::node::{Bound as NodeBound, Node, RawNode};
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

/// A list holds about four towers taller than level `l` once it holds
/// `4 << l` nodes (tower heights are geometric with p = 1/2), so
/// [`cut_level`] reads a population of `4 << l` as the size where such
/// towers appear: from `4 << WINDOW_LARGE_LEVEL` = 2^17 nodes a window is
/// walked with several cursors, from `4 << SCAN_LARGE_LEVEL` = 2^13 a full
/// scan is.  That is where the crossover probe
/// (`traverse::tests::walk_crossover`; three runs on a 2-vCPU VM, 2 MiB of
/// L2 per core) finds eight cursors stop losing.  100-key windows read
/// 1.34-1.41x one cursor's time at 16k nodes, 0.71-1.14x at 32k-65k and
/// 0.75-0.97x from 2^17; 1,024-key windows 0.42-0.50x from 65k.  Full scans
/// read 1.42-1.85x at 1k-4k nodes and 0.22-0.43x from 16k over scattered
/// nodes; sizes probed by hand in between put the crossover just above 2^13,
/// which read 0.88-1.70x, with 0.34-0.73x from 10k (docs/PERF.md,
/// Mechanism 6).
const WINDOW_LARGE_LEVEL: usize = 15;
const SCAN_LARGE_LEVEL: usize = 11;

/// The level a [`collect`] over a list of `population` nodes and
/// `max_level` levels cuts level 0 at, so that several cursors walk it at
/// once ([`traverse::RANGE_CUT_LEVEL`] for a window,
/// [`traverse::SCAN_CUT_LEVEL`] for a full scan, both bounds unbounded), or
/// `None` for one cursor: the list is large once `population` reaches `4 <<
/// l`, with `l` the large level above, capped below the list's top level.
/// The cap keeps the estimate a count of tall towers, so a list built with
/// few levels reads as large sooner, which is how the tests reach the
/// interleaved walk through the public API on small maps.  A negative
/// population, a racing hint, reads as small.
pub(crate) fn cut_level(population: i64, max_level: usize, full_scan: bool) -> Option<usize> {
    let (large_level, cut) = if full_scan {
        (SCAN_LARGE_LEVEL, traverse::SCAN_CUT_LEVEL)
    } else {
        (WINDOW_LARGE_LEVEL, traverse::RANGE_CUT_LEVEL)
    };
    (population >= 4 << large_level.min(max_level - 1)).then_some(cut)
}

/// Every logically present `(key, value)` pair within the bounds, in
/// ascending key order, as `reader` sees the list, collected into `out` (an
/// empty vector a caller may have sized) and returned: one descent to the
/// lower bound, then level 0 walked to the upper
/// ([`traverse::collect_interleaved`], the one range collector).  This is
/// the whole range query of the fast path and
/// [`TxView::range`](crate::TxView::range) (`reader` a transaction), of
/// [`Snapshot::range`](crate::Snapshot::range) and
/// [`Snapshot::to_vec`](crate::Snapshot::to_vec) (`reader` a pin) and, with
/// both bounds unbounded, of the live full scans ([`SkipHash::to_vec`],
/// `clear`, `check_invariants`).
///
/// `population` picks the walk ([`cut_level`]): the map's population as
/// `reader` has it, a hint in a transaction (`Population::hint`, which
/// joins no read set, so a range never conflicts with an insert or remove
/// through the count) and exact at a pin (`Population::sum_pinned`).  A walk
/// whose hinted cut misses is walked again with one cursor, which cannot
/// miss.
pub(crate) fn collect<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    population: i64,
    start: StdBound<&K>,
    end: StdBound<&K>,
    mut out: Vec<(K, V)>,
) -> Result<Vec<(K, V)>, R::Abort> {
    if range_is_empty(&start, &end) {
        return Ok(out);
    }
    let full_scan = matches!((start, end), (StdBound::Unbounded, StdBound::Unbounded));
    let cut = cut_level(population, list.max_level(), full_scan);
    if !traverse::collect_interleaved(reader, list, start, end, cut, &mut out)? {
        out.clear();
        traverse::collect_interleaved(reader, list, start, end, None, &mut out)?;
    }
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

    /// One fast-path attempt: the entire query as a single read-only
    /// transaction that does not retry on conflict.  Returns `None` if the
    /// attempt aborted.
    fn range_fast(&self, start: StdBound<&K>, end: StdBound<&K>) -> Option<Vec<(K, V)>> {
        let inner = &self.inner;
        let attempt = inner.stm.try_once_read_only(|tx| {
            let population = inner.population.hint(tx);
            collect(tx, &inner.skiplist, population, start, end, Vec::new())
        });
        debug_assert_ne!(
            attempt.as_ref().err().map(|failed| failed.cause),
            Some(TxAbort::Upgrade),
            "the fast path never writes"
        );
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
            let start_node = traverse::first_present(tx, &inner.skiplist, start)?;
            Ok((start_node, inner.rqc.on_range(tx)?))
        });

        // Collection phase.  `collected` and `cursor` are plain locals
        // captured by the closure (`no_local_undo`): when an attempt aborts,
        // all pairs gathered so far and the safe node the walk last paused
        // on are retained, so the next attempt resumes exactly there.
        //
        // `cursor` is always a safe node not yet collected (or the tail).  A
        // safe node stays on the list until this query's finalization: one
        // removed after the query began has its unstitching deferred onto an
        // in-flight query no younger than this one.  The cursor moves — and
        // the element read at the previous safe node joins `collected` —
        // only once the next safe node has been fully read, in two
        // statements that cannot abort: an abort never records a partially
        // read element, and never records one twice.
        //
        // The collection only reads, so its attempts are read-only and keep
        // no read set; the setup and finalization transactions write the
        // RQC and the list, so they stay ordinary.
        let mut collected: Vec<(K, V)> = Vec::new();
        let mut cursor = start_node;
        inner.stm.run_read_only(|tx| {
            let mut pending: Option<(K, V)> = None;
            let resume = cursor;
            let visit = |tx: &mut Txn<'_>, at: RawNode<K, V>, node: &Node<K, V>| {
                if !end_allows(&node.bound, end) {
                    return Ok(ControlFlow::Break(()));
                }
                if Self::is_safe(tx, node, version)? {
                    let value = tx.value(node)?;
                    collected.extend(pending.replace((node.key().clone(), value)));
                    cursor = at;
                }
                Ok(ControlFlow::Continue(()))
            };
            // SAFETY: `resume` is a safe node (or the tail), which stays on
            // the list until the finalization below.
            unsafe { traverse::walk(tx, resume, visit) }?;
            // A read-only attempt that reaches here commits: the body is not
            // run again.
            collected.extend(pending);
            Ok(())
        });

        // Finalization: deregister from the RQC and unstitch any nodes whose
        // removal was deferred onto this query.
        let removals = inner.stm.run(|tx| inner.rqc.after_range(tx, version));
        inner.unstitch_all(&removals);
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
        Ok(node.i_time < version
            && node
                .removed_at(tx)?
                .is_none_or(|removed_at| removed_at >= version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkipHashBuilder;
    use std::sync::Arc;

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
    fn read_only_call_sites_never_write() {
        let map = map_with_policy(RangePolicy::SlowOnly);
        fill(&map, (0..200).map(|k| k * 2));
        map.reset_stats();
        for key in [0, 7, 100, 398, 500] {
            map.get(&key);
            map.contains_key(&key);
            map.ceil(&key);
            map.succ(&key);
            map.floor(&key);
            map.pred(&key);
        }
        assert_eq!((map.len(), map.is_empty()), (200, false));
        assert_eq!(collect(&map, 10..=20).len(), 6);
        assert_eq!(map.range_attempt_fast(10..=20).map(|r| r.len()), Some(6));
        assert!(map.check_invariants().is_ok());
        let stats = map.stm_stats();
        assert_eq!(stats.read_only_upgrades, 0, "no opted-in body wrote");
        // `check_invariants` re-reads cells level by level, which an
        // ordinary attempt would count as dedup hits.
        assert_eq!(stats.read_dedup_hits, 0, "check_invariants ran read-only");
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
        inner.unstitch_all(&removals);
        assert!(map.check_invariants().is_ok());
    }

    /// The one rule that picks a range collect's walk: a window interleaves
    /// from `4 << 15` nodes and a full scan from `4 << 11`, each capped at
    /// `4 << (max_level - 1)` on a list of few levels, and a negative sum
    /// (a racing hint) reads as small.
    #[test]
    fn cut_level_reads_the_population_against_its_thresholds() {
        use crate::traverse::{RANGE_CUT_LEVEL, SCAN_CUT_LEVEL};
        for (max_level, window_from, scan_from) in [
            (20, 1 << 17, 1 << 13),
            (8, 1 << 9, 1 << 9),
            (6, 1 << 7, 1 << 7),
        ] {
            for (full_scan, from, cut) in [
                (false, window_from, RANGE_CUT_LEVEL),
                (true, scan_from, SCAN_CUT_LEVEL),
            ] {
                let at = |population| cut_level(population, max_level, full_scan);
                let label = format!("{max_level} levels, full scan {full_scan}");
                assert_eq!(at(from - 1), None, "{label}: one below");
                assert_eq!(at(from), Some(cut), "{label}: at the threshold");
                assert_eq!(at(-1), None, "{label}: a negative sum");
                assert_eq!(at(i64::MIN), None, "{label}: a negative sum");
            }
        }
        // The maps the tall-node count judged large still interleave: the
        // 8-level map of tests/linearizability.rs (~2.5k-3.75k keys), the
        // 6-level 1,024-key map of tests/alloc_discipline.rs (3c) and the
        // 2^19-key map of the gated `range_collect/fast_large`; its 14-level
        // map stays on one cursor.
        assert_eq!(cut_level(2_500, 8, false), Some(RANGE_CUT_LEVEL));
        assert_eq!(cut_level(1_024, 6, false), Some(RANGE_CUT_LEVEL));
        assert_eq!(cut_level(1 << 19, 20, false), Some(RANGE_CUT_LEVEL));
        assert_eq!(cut_level(3_750, 14, false), None);
    }

    /// A transaction's hint and a pin's exact sum read the same population
    /// off a quiet map, so both readers pick the same walk, also where
    /// single shards are negative (keys removed by a thread that did not
    /// insert them).
    #[test]
    fn both_readers_pick_the_same_walk() {
        let map: SkipHash<u64, u64> = SkipHashBuilder::new().max_level(8).build();
        fill(&map, 0..600);
        std::thread::scope(|s| {
            s.spawn(|| (0..89).for_each(|k| assert!(map.remove(&k))));
        });
        let picks = |map: &SkipHash<u64, u64>| {
            let inner = &map.inner;
            let hinted = inner.stm.run_read_only(|tx| Ok(inner.population.hint(tx)));
            let pin = inner.stm.pin_snapshot();
            let pinned = inner.population.sum_pinned(&mut pin.reader());
            assert_eq!(hinted, pinned, "both readers read one population");
            [false, true].map(|full_scan| cut_level(hinted, 8, full_scan))
        };
        assert_eq!(picks(&map), [None, None], "511 keys, one below 4 << 7");
        fill(&map, [1_000]);
        let large = [
            Some(traverse::RANGE_CUT_LEVEL),
            Some(traverse::SCAN_CUT_LEVEL),
        ];
        assert_eq!(picks(&map), large, "512 keys");
    }

    /// The population steers the walk and nothing else, so a range reads it
    /// as a hint that joins no read set: a writing transaction whose range
    /// runs over a large list while another thread's insert outside the
    /// window bumps a population shard commits on its first attempt.  A
    /// validated read of the shards would abort it once.  The body's write
    /// goes to a second map over the same runtime, so that no hash bucket
    /// the insert writes can be one it read.
    #[test]
    fn a_range_reads_the_population_as_a_hint() {
        let stm = Arc::new(skiphash_stm::Stm::new());
        let on_stm = || SkipHashBuilder::new().stm(Arc::clone(&stm));
        let (map, log): (SkipHash<u64, u64>, SkipHash<u64, u64>) =
            (on_stm().max_level(6).build(), on_stm().build());
        fill(&map, (0..1_024).map(|k| k * 2));
        assert_eq!(
            cut_level(map.len() as i64, 6, false),
            Some(traverse::RANGE_CUT_LEVEL),
            "the rule judges the map large"
        );
        let before = stm.stats();
        let mut attempts = 0;
        let window = stm.run(|tx| {
            attempts += 1;
            let window = map.view(tx).range(100..200)?;
            if attempts == 1 {
                std::thread::scope(|s| {
                    s.spawn(|| assert!(map.insert(1_501, 0)));
                });
            }
            log.view(tx).insert(0, window.len() as u64)?;
            Ok(window.len())
        });
        assert_eq!(window, 50);
        assert_eq!(attempts, 1, "the shard bump must not abort the range");
        assert_eq!(stm.stats().since(&before).total_aborts(), 0);
        assert_eq!((log.get(&0), map.len()), (Some(50), 1_025));
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
