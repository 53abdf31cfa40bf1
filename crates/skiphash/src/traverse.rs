//! The one traversal core: every read of the skip list — tower descent,
//! level-0 walk, point queries, fast-path, slow-path and pinned range
//! queries — is [`descend`] and [`walk`] (or [`scan`], one after the other)
//! driven by a [`Reader`].
//!
//! The paper's claim is that STM leaves the skip hash with one search and
//! one scan, run as one transaction (fast path), as many small ones under
//! the RQC (slow path), or at a pinned version (snapshots).  The two
//! functions here are that search and that scan; what differs between the
//! paths is only *how a cell is read*, which is what [`Reader`] abstracts:
//!
//! | reader | a read is | it can fail with |
//! |--------|-----------|------------------|
//! | [`Txn`] | a validated transactional read (`read_with`) | [`TxAbort`] |
//! | `&`[`SnapshotPin`] | the cell's value at the pinned version (`read_pinned_with`) | nothing ([`Infallible`]) |
//!
//! # The borrowed-handle contract
//!
//! Both functions hop on [`RawNode`]s — bare block pointers that own no
//! reference count — so a hop costs no atomic read-modify-write.  A handle
//! obtained through a reader is valid **for as long as that reader's
//! protection lasts**, and every `unsafe` dereference in this module and in
//! the callers that upgrade a returned handle rests on one of two arguments:
//!
//! * **[`Txn`]**: the attempt's epoch guard stays pinned until the attempt
//!   ends.  A link word read under a pin is either still installed or was
//!   swapped out during the pin, and the drop that gives a displaced word's
//!   count back is deferred past the unpin — so the node it designates keeps
//!   `refs >= 1` for the rest of the attempt (the [`RawNode`] validity rule).
//! * **`&`[`SnapshotPin`]**: commits that displace a link a live pin can
//!   still see move it into the history table instead of the reclamation
//!   queue, and a link is a strong [`NodeRef`](crate::node::NodeRef)
//!   wherever it sits — so every node reachable at the pinned version keeps
//!   `refs >= 1` until the pin is dropped.
//!
//! A walk may also be *rooted* in a counted handle the caller holds (the
//! slow path's resume cursor): the count keeps that node alive, and each hop
//! from it is covered by the reader as above.

use std::convert::Infallible;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;

use skiphash_stm::{SnapshotPin, TCell, TxAbort, Txn};

use crate::node::{Bound, Link, Node, RawNode};
use crate::skiplist::SkipList;
use crate::{MapKey, MapValue};

/// How a traversal reads the three kinds of cell it meets.
pub(crate) trait Reader<K, V> {
    /// What a read can fail with.
    type Abort;

    /// The node a link cell designates.  Links inside the list are never
    /// absent: every level is terminated by the tail sentinel (and, going
    /// backwards, by the head).
    fn link(&mut self, cell: &TCell<Link<K, V>>) -> Result<RawNode<K, V>, Self::Abort>;

    /// True when `node` is logically deleted.
    fn removed(&mut self, node: &Node<K, V>) -> Result<bool, Self::Abort>;

    /// A clone of `node`'s value; `node` is not a sentinel.
    fn value(&mut self, node: &Node<K, V>) -> Result<V, Self::Abort>;
}

// `inline(always)`: these three are the bodies of the descent's and the
// walk's loops.  Left to the inliner's judgement they became calls in some
// instantiations, and a call per read cost the fast path ~10% (probe: range
// of 100 pairs 226 -> 250 ns/pair, `ceil` 2.16 -> 2.36 us at 200k keys).
impl<K: MapKey, V: MapValue> Reader<K, V> for Txn<'_> {
    type Abort = TxAbort;

    #[inline(always)]
    fn link(&mut self, cell: &TCell<Link<K, V>>) -> Result<RawNode<K, V>, TxAbort> {
        Ok(cell
            .read_with(self, RawNode::from_link)?
            .expect("links are terminated by the sentinels"))
    }

    #[inline(always)]
    fn removed(&mut self, node: &Node<K, V>) -> Result<bool, TxAbort> {
        node.r_time.read_with(self, Option::is_some)
    }

    #[inline(always)]
    fn value(&mut self, node: &Node<K, V>) -> Result<V, TxAbort> {
        Ok(node
            .value
            .read_with(self, Option::clone)?
            .expect("regular nodes always carry a value"))
    }
}

impl<K: MapKey, V: MapValue> Reader<K, V> for &SnapshotPin {
    type Abort = Infallible;

    #[inline]
    fn link(&mut self, cell: &TCell<Link<K, V>>) -> Result<RawNode<K, V>, Infallible> {
        Ok(cell
            .read_pinned_with(self, RawNode::from_link)
            .expect("links are terminated by the sentinels"))
    }

    #[inline]
    fn removed(&mut self, node: &Node<K, V>) -> Result<bool, Infallible> {
        Ok(node.r_time.read_pinned_with(self, Option::is_some))
    }

    #[inline]
    fn value(&mut self, node: &Node<K, V>) -> Result<V, Infallible> {
        Ok(node
            .value
            .read_pinned_with(self, Option::clone)
            .expect("regular nodes always carry a value"))
    }
}

/// True while a node at `position` still lies below the lower bound `start`,
/// i.e. while the descent keeps moving right.
fn precedes<K: Ord>(position: &Bound<K>, start: StdBound<&K>) -> bool {
    match start {
        StdBound::Included(low) => position.is_before(low),
        StdBound::Excluded(low) => position.is_at_most(low),
        StdBound::Unbounded => false,
    }
}

/// The tower descent: the first node at level 0 (logically present or
/// deleted, possibly the tail sentinel) that satisfies the lower bound
/// `start`.
///
/// `Excluded(k)` lands after *every* node carrying `k` — logically deleted
/// duplicates of a re-inserted key linger in front of the live node — which
/// is also where an insert of `k` belongs.  `per_level(level, pred, succ)`
/// is called once per level on the way down with the last node below the
/// bound and its successor at that level; an unbounded start has no tower
/// to descend and reports level 0 only.
///
/// The candidate of each hop is prefetched (header line and first tower
/// line) before its key is compared, so the next hop's link read overlaps
/// the comparison.
pub(crate) fn descend<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
    mut per_level: impl FnMut(usize, RawNode<K, V>, RawNode<K, V>),
) -> Result<RawNode<K, V>, R::Abort> {
    let levels = match start {
        StdBound::Unbounded => 1,
        _ => list.max_level(),
    };
    let mut pred = RawNode::from_ref(list.head());
    let mut curr = pred;
    for level in (0..levels).rev() {
        loop {
            // SAFETY: `pred` is the head sentinel (owned by `list`) or was
            // read through `reader` — the module's borrowed-handle contract.
            curr = reader.link(&unsafe { pred.tower() }[level].succ)?;
            curr.prefetch();
            // SAFETY: `curr` was just read through `reader` (same contract).
            if !precedes(&unsafe { curr.node() }.bound, start) {
                break;
            }
            pred = curr;
        }
        per_level(level, pred, curr);
    }
    Ok(curr)
}

/// The forward level-0 walk: call `visit` on `from` and on each successor
/// until it breaks or the tail sentinel is reached, and return the node the
/// walk stopped on.
///
/// The successor's link is read and the successor prefetched *before*
/// `visit` runs, so its cache miss overlaps the mark and value reads the
/// visitor does on the current node — the scan's dominant stall.
///
/// # Safety
///
/// `from` must obey the module's borrowed-handle contract for `reader` (it
/// came out of [`descend`] or a previous walk through the same reader), or be
/// rooted in a counted handle that outlives the call.
pub(crate) unsafe fn walk<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    from: RawNode<K, V>,
    mut visit: impl FnMut(&mut R, RawNode<K, V>, &Node<K, V>) -> Result<ControlFlow<()>, R::Abort>,
) -> Result<RawNode<K, V>, R::Abort> {
    let mut at = from;
    loop {
        // SAFETY: `at` is `from` (the caller's obligation) or was read
        // through `reader` below — the module's borrowed-handle contract.
        let (node, tower) = unsafe { (at.node(), at.tower()) };
        if node.is_tail() {
            return Ok(at);
        }
        let next = reader.link(&tower[0].succ)?;
        next.prefetch();
        if visit(reader, at, node)?.is_break() {
            return Ok(at);
        }
        at = next;
    }
}

/// [`descend`] to the lower bound `start`, then [`walk`] from there: every
/// query that is not resuming an earlier walk.
pub(crate) fn scan<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
    visit: impl FnMut(&mut R, RawNode<K, V>, &Node<K, V>) -> Result<ControlFlow<()>, R::Abort>,
) -> Result<RawNode<K, V>, R::Abort> {
    let from = descend(reader, list, start, |_, _, _| {})?;
    // SAFETY: `from` was just read through `reader`.
    unsafe { walk(reader, from, visit) }
}

/// The first node satisfying the lower bound `start` that `reader` sees as
/// logically present, possibly the tail sentinel.
pub(crate) fn first_present<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
) -> Result<RawNode<K, V>, R::Abort> {
    scan(reader, list, start, |reader, _, node| {
        Ok(if reader.removed(node)? {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeRef;
    use crate::range::{collect, range_is_empty};
    use skiphash_stm::Stm;
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use std::ops::Bound::{Excluded, Included, Unbounded};
    use std::ops::RangeBounds;
    use std::sync::Arc;

    /// A list holding logically deleted nodes that were marked but never
    /// unstitched — among them duplicates of re-inserted keys, which sit in
    /// front of the live node — with what a reader must see of it.
    struct Fixture {
        stm: Arc<Stm>,
        list: SkipList<u64, u64>,
        /// Every node linked at level 0, in order: `(key, logically deleted)`.
        linked: Vec<(u64, bool)>,
        /// The logically present pairs.
        present: BTreeMap<u64, u64>,
    }

    impl Fixture {
        fn build() -> Self {
            let stm = Arc::new(Stm::new());
            let list: SkipList<u64, u64> = SkipList::new(8);
            let mut rng = rand::thread_rng();
            let mut insert = |key: u64, value: u64| {
                let height = list.random_height(&mut rng);
                stm.run(|tx| {
                    list.insert_after_logical_deletes(tx, key, value, height, 0)
                        .map(drop)
                });
            };
            let remove = |key: u64| {
                stm.run(|tx| {
                    let live = list.first_present(tx, Included(&key))?;
                    assert_eq!(*live.key(), key);
                    live.mark_removed(tx, 1)
                })
            };
            for key in [10, 3, 7, 15, 12, 9, 1, 20, 5, 17] {
                insert(key, key);
            }
            for key in [7, 15, 1] {
                remove(key);
            }
            insert(7, 70);
            remove(7);
            insert(7, 700);
            insert(15, 150);
            let linked = vec![
                (1, true),
                (3, false),
                (5, false),
                (7, true),
                (7, true),
                (7, false),
                (9, false),
                (10, false),
                (12, false),
                (15, true),
                (15, false),
                (17, false),
                (20, false),
            ];
            let present = BTreeMap::from([
                (3, 3),
                (5, 5),
                (7, 700),
                (9, 9),
                (10, 10),
                (12, 12),
                (15, 150),
                (17, 17),
                (20, 20),
            ]);
            Self {
                stm,
                list,
                linked,
                present,
            }
        }

        /// The key under a handle taken from this fixture's list; `None` for
        /// a sentinel.
        fn key_of(&self, raw: RawNode<u64, u64>) -> Option<u64> {
            // SAFETY: nothing is ever unstitched from the fixture's list, so
            // every node a reader reached stays linked (and counted) for as
            // long as `self` lives.
            let node = unsafe { raw.node() };
            (!node.is_sentinel()).then(|| *node.key())
        }
    }

    /// `descend`, `walk`, `first_present` and the range collect built on
    /// them, for every shape of bound, against the reference.
    fn check_reader<R: Reader<u64, u64>>(reader: &mut R, fx: &Fixture)
    where
        R::Abort: Debug,
    {
        // The whole of level 0: every linked node once, in order, with the
        // mark the reader sees; the walk ends on the tail.
        let first = descend(reader, &fx.list, Unbounded, |level, pred, _| {
            assert_eq!((level, fx.key_of(pred)), (0, None), "no tower to descend");
        })
        .unwrap();
        let mut seen = Vec::new();
        let visit_all = |reader: &mut R, at, node: &Node<u64, u64>| {
            assert_eq!(fx.key_of(at), Some(*node.key()));
            seen.push((*node.key(), reader.removed(node)?));
            Ok(ControlFlow::Continue(()))
        };
        // SAFETY: `first` was just read through `reader`.
        let end = unsafe { walk(reader, first, visit_all) }.unwrap();
        assert_eq!(seen, fx.linked);
        assert_eq!(fx.key_of(end), None, "an unbroken walk ends on the tail");

        let probes: Vec<StdBound<u64>> = std::iter::once(Unbounded)
            .chain((0..=22).flat_map(|k| [Included(k), Excluded(k)]))
            .collect();
        for start in probes.iter().map(StdBound::as_ref) {
            let from_start = (start, Unbounded::<&u64>);
            let linked_keys = fx.linked.iter().map(|(k, _)| *k);

            // The descent lands on the first linked node the bound admits,
            // deleted or not — so behind *every* node carrying an excluded
            // key — and reports, level by level from the top, the node in
            // front of it.
            let mut levels = Vec::new();
            let mut bottom = None;
            let landed = descend(reader, &fx.list, start, |level, pred, succ| {
                levels.push(level);
                bottom = Some((fx.key_of(pred), fx.key_of(succ)));
            })
            .unwrap();
            let admitted = linked_keys.clone().find(|k| from_start.contains(k));
            let refused = linked_keys.rev().find(|k| !from_start.contains(k));
            assert_eq!(fx.key_of(landed), admitted, "descend({start:?})");
            assert_eq!(bottom, Some((refused, admitted)), "descend({start:?})");
            let top = match start {
                Unbounded => 1,
                _ => fx.list.max_level(),
            };
            assert_eq!(levels, (0..top).rev().collect::<Vec<_>>());

            // A walk that breaks returns the node it broke on.
            let found = first_present(reader, &fx.list, start).unwrap();
            let expected = fx.present.range(from_start).next().map(|(k, _)| *k);
            assert_eq!(fx.key_of(found), expected, "first_present({start:?})");

            for end in probes.iter().map(StdBound::as_ref) {
                let expected: Vec<(u64, u64)> = if range_is_empty(&start, &end) {
                    Vec::new() // where `BTreeMap::range` would panic
                } else {
                    let within = fx.present.range((start, end));
                    within.map(|(k, v)| (*k, *v)).collect()
                };
                let got = collect(reader, &fx.list, start, end).unwrap();
                assert_eq!(got, expected, "collect({start:?}, {end:?})");
            }
        }
    }

    #[test]
    fn both_readers_match_a_btreemap_over_lingering_duplicates() {
        let fx = Fixture::build();
        let key = |node: &NodeRef<u64, u64>| (!node.is_sentinel()).then(|| *node.key());

        fx.stm
            .run(|tx| {
                check_reader(tx, &fx);
                // The back-walking point queries exist for transactions only.
                for probe in 0..=22u64 {
                    let floor = fx.present.range(..=probe).next_back().map(|(k, _)| *k);
                    assert_eq!(key(&fx.list.floor_present(tx, &probe)?), floor);
                    let pred = fx.present.range(..probe).next_back().map(|(k, _)| *k);
                    assert_eq!(key(&fx.list.pred_present(tx, &probe)?), pred);
                }
                fx.list.check_invariants(tx)
            })
            .expect("list invariants");

        // The same list through a pin taken now: same nodes, same marks.
        let pin = fx.stm.pin_snapshot();
        check_reader(&mut &pin, &fx);
    }
}
