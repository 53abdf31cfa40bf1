//! The doubly linked, transactional skip list half of the skip hash.
//!
//! Unlike lock-free skip lists, every structural change here happens inside
//! an STM transaction, so the list can be doubly linked: each node knows its
//! predecessor and successor at every level, which is what lets `remove`
//! unstitch a node in `O(height)` without re-traversing from the head.
//!
//! Nodes are arena-pooled blocks (see [`crate::node`]) that the list owns
//! while they are on its level 0; traversals hop through [`RawNode`]s kept
//! on the stack, so neither inserting a node nor locating one touches the
//! global allocator in the steady state.

use std::fmt;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;

use rand::Rng;
use skiphash_stm::{TxResult, Txn};

use crate::node::{Bound, Level, Link, Node, OwnedNode, RawNode};
use crate::traverse::{self, Reader};
use crate::{MapKey, MapValue};

/// Upper bound on tower heights ([`crate::SkipHashBuilder::max_level`]
/// rejects anything above it).
pub const MAX_LEVEL_LIMIT: usize = 64;

/// A doubly linked skip list whose nodes map keys to values.
///
/// All methods must be called inside a transaction; the enclosing
/// [`crate::SkipHash`] drives them.  The list owns every node on its level
/// 0, sentinels included, and frees each once when it is dropped.  Every
/// transaction on one list must come from one [`skiphash_stm::Stm`] (the
/// STM's one-runtime rule): a node is freed by the commit that unstitches
/// it, so the list's memory, not only its contents, rests on the conflicts
/// one runtime detects.
pub struct SkipList<K: MapKey, V: MapValue> {
    head: RawNode<K, V>,
    tail: RawNode<K, V>,
    max_level: usize,
}

impl<K: MapKey, V: MapValue> fmt::Debug for SkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("max_level", &self.max_level)
            .finish()
    }
}

impl<K: MapKey, V: MapValue> SkipList<K, V> {
    /// Create an empty skip list with `max_level` levels; the sentinels are
    /// stitched together at every level.
    pub fn new(max_level: usize) -> Self {
        assert!(max_level >= 1, "skip list needs at least one level");
        assert!(
            max_level <= MAX_LEVEL_LIMIT,
            "skip list supports at most {MAX_LEVEL_LIMIT} levels"
        );
        let (head, tail) = Node::sentinels(max_level);
        Self {
            head,
            tail,
            max_level,
        }
    }

    /// The head sentinel.
    pub(crate) fn head(&self) -> RawNode<K, V> {
        self.head
    }

    /// The tail sentinel.
    pub(crate) fn tail(&self) -> RawNode<K, V> {
        self.tail
    }

    /// Number of levels.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Sample a tower height from the geometric distribution with p = 1/2,
    /// capped at the list's level count.
    pub fn random_height<R: Rng>(&self, rng: &mut R) -> usize {
        let mut height = 1;
        while height < self.max_level && rng.gen::<bool>() {
            height += 1;
        }
        height
    }

    /// The key of the first *logically present* node satisfying the lower
    /// bound `start` — `Included(k)` is the ceiling of `k`, `Excluded(k)` its
    /// strict successor, `Unbounded` the first key — or `None` past the last.
    pub fn first_present(&self, tx: &mut Txn<'_>, start: StdBound<&K>) -> TxResult<Option<K>> {
        self.at_first_present(tx, start, |_, _, node| Ok(Some(node.key().clone())))
    }

    /// `visit` the first logically present node satisfying `start`, if any,
    /// and return what it returns.
    fn at_first_present<R>(
        &self,
        tx: &mut Txn<'_>,
        start: StdBound<&K>,
        visit: impl FnOnce(&mut Txn<'_>, RawNode<K, V>, &Node<K, V>) -> TxResult<Option<R>>,
    ) -> TxResult<Option<R>> {
        let (mut visit, mut out) = (Some(visit), None);
        traverse::scan(tx, self, start, |tx, at, node| {
            if tx.removed(node)? {
                return Ok(ControlFlow::Continue(()));
            }
            out = visit.take().map_or(Ok(None), |visit| visit(tx, at, node))?;
            Ok(ControlFlow::Break(()))
        })?;
        Ok(out)
    }

    /// The last logically present key `<= key`, if any.
    pub fn floor_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<K>> {
        self.last_present_below(tx, StdBound::Excluded(key))
    }

    /// The last logically present key strictly `< key`, if any.
    pub fn pred_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<K>> {
        self.last_present_below(tx, StdBound::Included(key))
    }

    /// The key of the last logically present node in front of the first
    /// node satisfying the lower bound `rest`: the descent reports that
    /// node's level-0 predecessor, and the predecessor links lead back over
    /// whatever logically deleted nodes linger there (this is where double
    /// linking pays off for point queries).  The live node of a key sits
    /// after its deleted duplicates, so it is the first one the back-walk
    /// meets.
    fn last_present_below(&self, tx: &mut Txn<'_>, rest: StdBound<&K>) -> TxResult<Option<K>> {
        let mut at = self.head;
        traverse::descend(tx, self, rest, 1, |_, pred, _| at = pred)?;
        loop {
            // SAFETY: read through the still-running attempt `tx`.
            let node = unsafe { at.node() };
            if node.is_head() {
                return Ok(None);
            }
            if !tx.removed(node)? {
                return Ok(Some(node.key().clone()));
            }
            at = tx.link(&at.tower(node)[0].pred)?;
        }
    }

    /// The value under `key`'s logically present node, if any.
    pub fn get(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<Option<V>> {
        self.at_first_present(tx, StdBound::Included(key), |tx, _, node| {
            (node.key() == key).then(|| tx.value(node)).transpose()
        })
    }

    /// Insert a new node for `key`, whose hash-chain link starts as
    /// `hash_next` (`None` for a list no index chains through), and return
    /// it.
    ///
    /// The caller (the skip hash) guarantees that no *logically present* node
    /// with this key exists; however, logically deleted nodes with the same
    /// key may still be physically linked, in which case the new node is
    /// inserted after all of them (the paper's
    /// `insert_after_logical_deletes`).
    pub fn insert_after_logical_deletes(
        &self,
        tx: &mut Txn<'_>,
        key: K,
        value: V,
        height: usize,
        i_time: u64,
        hash_next: Link<K, V>,
    ) -> TxResult<RawNode<K, V>> {
        debug_assert!(height >= 1 && height <= self.max_level);
        // `Excluded`: the new node lands after every (logically deleted)
        // node still carrying the key.  Only the positions below `height`
        // are kept — an insert stitches only its own tower.
        let mut preds = [self.head; MAX_LEVEL_LIMIT];
        let mut succs = [self.tail; MAX_LEVEL_LIMIT];
        let keep = |level: usize, pred, succ| (preds[level], succs[level]) = (pred, succ);
        traverse::descend(tx, self, StdBound::Excluded(&key), height, keep)?;

        // Born at this attempt's read version: cells stamped 0 would look
        // older than every pinned snapshot, so the first overwrite of each
        // would be preserved forever-growing custody; stamped at `rv`, a
        // node born after a pin is provably outside its window.  Its own
        // links are written at birth, outside the write log: the node is
        // unreachable until the neighbour writes below commit (the commit's
        // orec releases publish it), so they need no instrumentation, and
        // snapshot custody never preserves `None` placeholders for them.
        // The attempt owns the node until then, and its rollback frees it.
        let links = |level: usize| (Some(preds[level]), Some(succs[level]));
        let node = Node::linked_in(tx, key, value, height, i_time, hash_next, links);
        for level in 0..height {
            let (pred, succ) = (preds[level], succs[level]);
            // SAFETY: both handles were read through the still-running
            // attempt `tx` (the traversal module's borrowed-handle contract).
            let (pred_node, succ_node) = unsafe { (pred.node(), succ.node()) };
            pred.tower(pred_node)[level].succ.write(tx, Some(node))?;
            succ.tower(succ_node)[level].pred.write(tx, Some(node))?;
        }
        Ok(node)
    }

    /// Physically unlink `node` from every level, and retire it when `tx`
    /// commits (see [`crate::node`]).
    ///
    /// Thanks to the predecessor links this is `O(height)`: no traversal from
    /// the head is required.  The node's own links are left intact so that a
    /// slow-path range query paused on it can still move forward.
    ///
    /// # Safety
    ///
    /// `node` must be on this list in `tx`'s snapshot, and `tx` must be its
    /// one unstitcher: the caller took it from the index, or from a batch of
    /// deferred removals handed to it alone, or found it present in `tx`.
    pub(crate) unsafe fn unstitch(&self, tx: &mut Txn<'_>, node: RawNode<K, V>) -> TxResult<()> {
        // SAFETY: `node` is on the list in this attempt's snapshot (the
        // caller's obligation), and so are its neighbours, read through
        // `tx`; the writes below replace every link to it, and this attempt
        // is its one unstitcher, so it is the one to retire it.
        unsafe {
            let removed = node.node();
            debug_assert!(!removed.is_sentinel(), "sentinels are never unstitched");
            for (level, links) in node.tower(removed).iter().enumerate() {
                let pred = tx.link(&links.pred)?;
                let succ = tx.link(&links.succ)?;
                pred.tower(pred.node())[level].succ.write(tx, Some(succ))?;
                succ.tower(succ.node())[level].pred.write(tx, Some(pred))?;
            }
            node.retire(tx, removed.born);
        }
        Ok(())
    }

    /// Unstitch `key`'s logically present node, if any, returning whether
    /// there was one: the removal of a list without range queries, which has
    /// no logical deletion to defer the unstitching behind.
    pub fn remove(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<bool> {
        let visit = |_: &mut Txn<'_>, at, node: &Node<K, V>| Ok((node.key() == key).then_some(at));
        let Some(node) = self.at_first_present(tx, StdBound::Included(key), visit)? else {
            return Ok(false);
        };
        // SAFETY: the node was found present on the list through `tx`, and
        // any other attempt that unstitches it writes the links this one
        // reads, so the two conflict.
        unsafe { self.unstitch(tx, node) }?;
        Ok(true)
    }

    /// Count logically present nodes by walking level 0.
    pub fn count_present(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        let mut count = 0;
        traverse::scan(tx, self, StdBound::Unbounded, |tx, _, node| {
            count += usize::from(!tx.removed(node)?);
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(count)
    }

    /// Validate the structural invariants of the list (test helper):
    ///
    /// 1. keys are non-decreasing along level 0 (duplicates may appear only
    ///    when logically deleted nodes linger);
    /// 2. `pred`/`succ` links are mutually consistent at every level;
    /// 3. every level `l > 0` is a subsequence of level `l - 1`: its nodes
    ///    are linked there too, in the same order.
    ///
    /// One walk per level, plus one of level `l - 1` merged against level
    /// `l`: `O(n)` per level, and nothing is collected.
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<Result<(), String>> {
        /// The node at `at` and its tower.
        fn parts<'a, K, V>(at: RawNode<K, V>) -> (&'a Node<K, V>, &'a [Level<K, V>]) {
            // SAFETY: applied below only to the sentinels and to handles
            // read through the running attempt, which keeps them alive.
            let node = unsafe { at.node() };
            (node, at.tower(node))
        }
        for level in 0..self.max_level {
            let mut prev = self.head;
            let mut curr = tx.link(&parts(prev).1[level].succ)?;
            loop {
                let (node, tower) = parts(curr);
                if tx.link(&tower[level].pred)? != prev {
                    return Ok(Err(format!("level {level}: pred link mismatch")));
                }
                let bounds = (&parts(prev).0.bound, &node.bound);
                if matches!(bounds, (Bound::Key(a), Bound::Key(b)) if a > b) {
                    return Ok(Err(format!("level {level}: keys out of order")));
                }
                if node.is_tail() {
                    break;
                }
                prev = curr;
                curr = tx.link(&tower[level].succ)?;
            }
        }

        // The merge: follow level `l - 1` forward to each level-`l` node in
        // turn.  A node missing below, or out of order there, sends the
        // lower walk past it to the tail.
        for level in 1..self.max_level {
            let below = level - 1;
            let mut upper = self.head;
            let mut lower = self.head;
            while upper != self.tail {
                upper = tx.link(&parts(upper).1[level].succ)?;
                while lower != upper {
                    if lower == self.tail {
                        return Ok(Err(format!(
                            "level {level}: node missing from level {below}"
                        )));
                    }
                    lower = tx.link(&parts(lower).1[below].succ)?;
                }
            }
        }
        Ok(Ok(()))
    }
}

impl<K: MapKey, V: MapValue> Drop for SkipList<K, V> {
    fn drop(&mut self) {
        // Level 0 runs from the head to the tail through every node the list
        // owns, each once (unstitched nodes are the retirement's); `&mut
        // self` means no attempt is running on the list.
        let mut next = Some(self.head);
        while let Some(at) = next {
            // SAFETY: `at` is on level 0, so the list owns it, and nothing
            // reaches it any more; its successor is read before it goes.
            unsafe {
                next = at.tower(at.node())[0].succ.load_atomic();
                drop(OwnedNode::from_raw(at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiphash_stm::Stm;
    use std::ops::Bound::{Excluded, Included, Unbounded};
    use std::sync::Arc;

    /// Every logically present pair, in level-0 order.
    fn present_pairs(stm: &Stm, list: &SkipList<u64, u64>) -> Vec<(u64, u64)> {
        stm.run(|tx| crate::range::collect(tx, list, 0, Unbounded, Unbounded, Vec::new()))
    }

    /// The node `at` designates, on a list no test unstitches from while it
    /// is in use.
    fn node<'a, V>(at: RawNode<u64, V>) -> &'a Node<u64, V> {
        // SAFETY: every handle these tests pass stays on its list (or, once
        // unstitched, is not passed again) until the list drops.
        unsafe { at.node() }
    }

    /// The level-`level` successor of `at`.
    fn next(at: RawNode<u64, u64>, level: usize) -> RawNode<u64, u64> {
        at.tower(node(at))[level]
            .succ
            .load_atomic()
            .expect("linked")
    }

    /// Logically delete the live node of `key` without unstitching it.
    fn mark_removed(stm: &Stm, list: &SkipList<u64, u64>, key: u64) {
        stm.run(|tx| {
            let live = node(traverse::first_present(tx, list, Included(&key))?);
            assert_eq!(*live.key(), key);
            live.mark_removed(tx, 1)
        });
    }

    fn insert(
        stm: &Stm,
        list: &SkipList<u64, u64>,
        key: u64,
        value: u64,
        height: usize,
    ) -> RawNode<u64, u64> {
        stm.run(|tx| list.insert_after_logical_deletes(tx, key, value, height, 0, None))
    }

    fn list_with(stm: &Stm, keys: &[u64]) -> SkipList<u64, u64> {
        let list = SkipList::new(8);
        let mut rng = rand::thread_rng();
        for &k in keys {
            let h = list.random_height(&mut rng);
            insert(stm, &list, k, k * 10, h);
        }
        list
    }

    #[test]
    fn empty_list_has_stitched_sentinels() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(4);
        let ok = stm.run(|tx| list.check_invariants(tx));
        assert_eq!(ok, Ok(()));
        let count = stm.run(|tx| list.count_present(tx));
        assert_eq!(count, 0);
    }

    #[test]
    fn inserted_keys_come_back_in_order() {
        let stm = Stm::new();
        let list = list_with(&stm, &[5, 1, 9, 3, 7]);
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn ceil_and_succ_skip_correctly() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        let first = |start| stm.run(|tx| list.first_present(tx, start));
        assert_eq!(first(Included(&20)), Some(20));
        assert_eq!(first(Excluded(&20)), Some(30));
        assert_eq!(first(Included(&15)), Some(20));
        assert_eq!(first(Included(&31)), None);
    }

    #[test]
    fn floor_and_pred_walk_backwards() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        assert_eq!(stm.run(|tx| list.floor_present(tx, &25)), Some(20));
        assert_eq!(stm.run(|tx| list.floor_present(tx, &20)), Some(20));
        assert_eq!(stm.run(|tx| list.pred_present(tx, &20)), Some(10));
        assert_eq!(stm.run(|tx| list.pred_present(tx, &10)), None);
    }

    #[test]
    fn unstitch_removes_from_every_level() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        insert(&stm, &list, 42, 420, 8);
        assert_eq!(stm.run(|tx| list.count_present(tx)), 1);
        assert!(stm.run(|tx| list.remove(tx, &42)));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 0);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
        assert!(stm.run(|tx| list.get(tx, &42)).is_none());
    }

    #[test]
    fn logically_deleted_nodes_are_skipped_by_present_queries() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        mark_removed(&stm, &list, 20);
        let ceil20 = stm.run(|tx| list.first_present(tx, Included(&20)));
        assert_eq!(ceil20, Some(30), "deleted node must be skipped");
        assert_eq!(stm.run(|tx| list.count_present(tx)), 2);
        assert_eq!(stm.run(|tx| list.get(tx, &20)), None);
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(10, 100), (30, 300)]);
    }

    #[test]
    fn insert_after_logical_deletes_lands_after_duplicates() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let old = insert(&stm, &list, 5, 50, 3);
        // Logically delete the old node, then insert a fresh node for key 5.
        stm.run(|tx| node(old).mark_removed(tx, 1));
        let fresh = insert(&stm, &list, 5, 55, 2);
        // Level-0 order: old (deleted) comes before fresh.
        let first = next(list.head(), 0);
        assert!(first == old && next(first, 0) == fresh);
        // Present view only sees the fresh value.
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(5, 55)]);
        assert_eq!(stm.run(|tx| list.get(tx, &5)), Some(55));
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn random_height_is_within_bounds() {
        let list: SkipList<u64, u64> = SkipList::new(6);
        let mut rng = rand::thread_rng();
        for _ in 0..1000 {
            let h = list.random_height(&mut rng);
            assert!((1..=6).contains(&h));
        }
    }

    #[test]
    fn aborted_insert_rolls_back_without_keepalive() {
        // Abort an insert *after* its link writes: the rollback releases the
        // neighbours' orecs and drops the buffered link words, then frees
        // the node, which nothing else ever pointed at.  The list must be
        // unchanged, and the retry must succeed.
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        insert(&stm, &list, 10, 100, 4);
        let mut first = true;
        stm.run(|tx| {
            list.insert_after_logical_deletes(tx, 20, 200, 8, 0, None)?;
            if first {
                first = false;
                return tx.abort();
            }
            Ok(())
        });
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(10, 100), (20, 200)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn check_invariants_reports_a_node_bypassed_below_its_level() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(4);
        let (ten, twenty, thirty) = (
            insert(&stm, &list, 10, 10, 2),
            insert(&stm, &list, 20, 20, 2),
            insert(&stm, &list, 30, 30, 2),
        );
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));

        // Bypass 20 at level 0 only: level 0 stays doubly linked and in
        // order, level 1 still runs 10 -> 20 -> 30.
        let level0 = |at: RawNode<u64, u64>| &at.tower(node(at))[0];
        level0(ten).succ.store_atomic(Some(thirty));
        level0(thirty).pred.store_atomic(Some(ten));
        assert_eq!(
            stm.run(|tx| list.check_invariants(tx)),
            Err("level 1: node missing from level 0".to_string())
        );
        // Put 20 back on level 0, where teardown frees it.
        level0(ten).succ.store_atomic(Some(twenty));
        level0(thirty).pred.store_atomic(Some(twenty));
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn dropping_a_list_frees_every_node_once() {
        // Present, logically deleted and unstitched nodes: teardown frees
        // the first two kinds once each by walking level 0, the retirement
        // the third, so every value handle comes back exactly once.
        let stm = Stm::new();
        let handle = Arc::new(0u64);
        let list: SkipList<u64, Arc<u64>> = SkipList::new(4);
        for key in 0..8 {
            let value = Arc::clone(&handle);
            stm.run(|tx| list.insert_after_logical_deletes(tx, key, value.clone(), 2, 0, None));
        }
        assert!(stm.run(|tx| list.remove(tx, &3)));
        assert!(!stm.run(|tx| list.remove(tx, &3)));
        stm.run(|tx| node(traverse::first_present(tx, &list, Included(&5))?).mark_removed(tx, 1));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 6);
        drop(list);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while Arc::strong_count(&handle) > 1 && std::time::Instant::now() < deadline {
            drop(crossbeam_epoch::pin());
        }
        assert_eq!(Arc::strong_count(&handle), 1);
    }
}
