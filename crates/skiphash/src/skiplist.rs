//! The doubly linked, transactional skip list half of the skip hash.
//!
//! Unlike lock-free skip lists, every structural change here happens inside
//! an STM transaction, so the list can be doubly linked: each node knows its
//! predecessor and successor at every level, which is what lets `remove`
//! unstitch a node in `O(height)` without re-traversing from the head.
//!
//! Nodes are arena-pooled [`NodeRef`]s (see [`crate::node`]); traversals hop
//! through borrowed handles kept on the stack, so neither inserting a node
//! nor locating one touches the global allocator in the steady state.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;

use rand::Rng;
use skiphash_stm::{TxResult, Txn};

use crate::node::{Bound, Node, NodeRef, RawNode};
use crate::traverse::{self, Reader};
use crate::{MapKey, MapValue};

/// Upper bound on tower heights ([`crate::SkipHashBuilder::max_level`]
/// rejects anything above it).
pub const MAX_LEVEL_LIMIT: usize = 64;

/// A doubly linked skip list whose nodes map keys to values.
///
/// All methods must be called inside a transaction; the enclosing
/// [`crate::SkipHash`] drives them.
pub struct SkipList<K, V> {
    head: NodeRef<K, V>,
    tail: NodeRef<K, V>,
    max_level: usize,
}

impl<K, V> fmt::Debug for SkipList<K, V> {
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
        let head = Node::sentinel(Bound::NegInf, max_level);
        let tail = Node::sentinel(Bound::PosInf, max_level);
        for level in 0..max_level {
            head.level(level).succ.store_atomic(Some(tail.clone()));
            tail.level(level).pred.store_atomic(Some(head.clone()));
        }
        Self {
            head,
            tail,
            max_level,
        }
    }

    /// The head sentinel.
    pub fn head(&self) -> &NodeRef<K, V> {
        &self.head
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

    /// First *logically present* node satisfying the lower bound `start`,
    /// possibly the tail sentinel: `Included(k)` is the ceiling of `k`,
    /// `Excluded(k)` its strict successor, `Unbounded` the first node.
    pub fn first_present(&self, tx: &mut Txn<'_>, start: StdBound<&K>) -> TxResult<NodeRef<K, V>> {
        let node = traverse::first_present(tx, self, start)?;
        // SAFETY: read through the still-running attempt `tx`.
        Ok(unsafe { node.upgrade() })
    }

    /// Last logically present node whose key is `<= key`, possibly the head
    /// sentinel.
    pub fn floor_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        self.last_present_below(tx, StdBound::Excluded(key))
    }

    /// Last logically present node whose key is strictly `< key`, possibly
    /// the head sentinel.
    pub fn pred_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        self.last_present_below(tx, StdBound::Included(key))
    }

    /// Last logically present node in front of the first node satisfying the
    /// lower bound `rest`: the descent reports that node's level-0
    /// predecessor, and the predecessor links lead back over whatever
    /// logically deleted nodes linger there (this is where double linking
    /// pays off for point queries).  The live node of a key sits after its
    /// deleted duplicates, so it is the first one the back-walk meets.
    fn last_present_below(&self, tx: &mut Txn<'_>, rest: StdBound<&K>) -> TxResult<NodeRef<K, V>> {
        let mut at = RawNode::from_ref(&self.head);
        traverse::descend(tx, self, rest, 1, |_, pred, _| at = pred)?;
        loop {
            // SAFETY: read through the still-running attempt `tx`.
            let (node, tower) = unsafe { (at.node(), at.tower()) };
            if node.is_head() || !tx.removed(node)? {
                // SAFETY: as above.
                return Ok(unsafe { at.upgrade() });
            }
            at = tx.link(&tower[0].pred)?;
        }
    }

    /// Insert a new node for `key`.
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
    ) -> TxResult<NodeRef<K, V>> {
        debug_assert!(height >= 1 && height <= self.max_level);
        // `Excluded`: the new node lands after every (logically deleted)
        // node still carrying the key.  Only the positions below `height`
        // are kept — an insert stitches only its own tower — and they stay
        // borrowed: of everything the search finds, the counts taken are the
        // `2 * height` this node's own links hold.  (Upgrading every level's
        // pair was ~80 atomic RMWs per insert, on the header lines of the
        // tallest towers, which every other thread's descent reads.)
        let mut preds = [RawNode::from_ref(&self.head); MAX_LEVEL_LIMIT];
        let mut succs = [RawNode::from_ref(&self.tail); MAX_LEVEL_LIMIT];
        traverse::descend(
            tx,
            self,
            StdBound::Excluded(&key),
            height,
            |level, pred, succ| {
                preds[level] = pred;
                succs[level] = succ;
            },
        )?;

        // Born at this attempt's read version: cells stamped 0 would look
        // older than every pinned snapshot, so the first overwrite of each
        // would be preserved forever-growing custody; stamped at `rv`, a
        // node born after a pin is provably outside its window.
        //
        // If this attempt aborts after the link writes, the link words it
        // buffered for the neighbours still own counts on the node when the
        // body's handle drops; the rollback drops them *under this attempt's
        // pin*, which retires the block through the epoch — see the lifetime
        // rules in `crate::node`.
        let node = Node::new(key, value, height, i_time, tx.read_version());
        for level in 0..height {
            // SAFETY: both handles were read through the still-running
            // attempt `tx` (the traversal module's borrowed-handle contract).
            let (pred, succ) = unsafe { (preds[level].upgrade(), succs[level].upgrade()) };
            pred.level(level).succ.write(tx, Some(node.clone()))?;
            succ.level(level).pred.write(tx, Some(node.clone()))?;
            // The fresh node is unreachable until the neighbour writes above
            // commit, so its own links need no transactional instrumentation:
            // `store_atomic` installs them at the birth version, outside the
            // write log (an abort simply drops the node).
            // Readers still see them initialized — the data swap here is
            // ordered before the neighbour's commit-time orec release, which
            // is what publishes the node.  This also keeps snapshot custody
            // from preserving the `None` placeholders transactional writes
            // would displace on every insert.
            node.level(level).pred.store_atomic(Some(pred));
            node.level(level).succ.store_atomic(Some(succ));
        }
        Ok(node)
    }

    /// Physically unlink `node` from every level.
    ///
    /// Thanks to the predecessor links this is `O(height)`: no traversal from
    /// the head is required.  The node's own links are left intact so that a
    /// slow-path range query paused on it can still move forward.
    pub fn unstitch(&self, tx: &mut Txn<'_>, node: &NodeRef<K, V>) -> TxResult<()> {
        debug_assert!(!node.is_sentinel(), "sentinels are never unstitched");
        for level in 0..node.height {
            let pred = node
                .level(level)
                .pred
                .read(tx)?
                .expect("linked nodes always have predecessors");
            let succ = node
                .level(level)
                .succ
                .read(tx)?
                .expect("linked nodes always have successors");
            pred.level(level).succ.write(tx, Some(succ.clone()))?;
            succ.level(level).pred.write(tx, Some(pred))?;
        }
        Ok(())
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
        let next = |tx: &mut Txn<'_>, node: &NodeRef<K, V>, level: usize| {
            Ok(node
                .level(level)
                .succ
                .read(tx)?
                .expect("levels are always terminated by the tail sentinel"))
        };
        for level in 0..self.max_level {
            let mut prev = self.head.clone();
            let mut curr = next(tx, &prev, level)?;
            loop {
                let back = curr
                    .level(level)
                    .pred
                    .read(tx)?
                    .expect("linked nodes always have predecessors");
                if !NodeRef::ptr_eq(&back, &prev) {
                    return Ok(Err(format!("level {level}: pred link mismatch")));
                }
                if !prev.is_head() && !curr.is_tail() {
                    let ordering = match (&prev.bound, &curr.bound) {
                        (Bound::Key(a), Bound::Key(b)) => a.cmp(b),
                        _ => Ordering::Less,
                    };
                    if ordering == Ordering::Greater {
                        return Ok(Err(format!("level {level}: keys out of order")));
                    }
                }
                if curr.is_tail() {
                    break;
                }
                prev = curr;
                curr = next(tx, &prev, level)?;
            }
        }

        // The merge: follow level `l - 1` forward to each level-`l` node in
        // turn.  A node missing below, or out of order there, sends the
        // lower walk past it to the tail.
        for level in 1..self.max_level {
            let below = level - 1;
            let mut upper = self.head.clone();
            let mut lower = self.head.clone();
            while !upper.is_tail() {
                upper = next(tx, &upper, level)?;
                while !NodeRef::ptr_eq(&lower, &upper) {
                    if lower.is_tail() {
                        return Ok(Err(format!(
                            "level {level}: node missing from level {below}"
                        )));
                    }
                    lower = next(tx, &lower, below)?;
                }
            }
        }
        Ok(Ok(()))
    }

    /// Sever every link in the list (teardown helper used by
    /// [`crate::SkipHash`]'s `Drop` to break reference cycles).
    pub fn sever_all(&self) {
        let mut current = self.head.clone();
        loop {
            let next = current.level(0).succ.load_atomic();
            current.sever_links();
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        self.tail.sever_links();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiphash_stm::Stm;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    /// Every logically present pair, in level-0 order.
    fn present_pairs(stm: &Stm, list: &SkipList<u64, u64>) -> Vec<(u64, u64)> {
        stm.run(|tx| crate::range::collect(tx, list, Unbounded, Unbounded))
    }

    /// Logically delete the live node of `key` without unstitching it.
    fn mark_removed(stm: &Stm, list: &SkipList<u64, u64>, key: u64) {
        stm.run(|tx| {
            let node = list.first_present(tx, Included(&key))?;
            assert_eq!(*node.key(), key);
            node.mark_removed(tx, 1)
        });
    }

    fn list_with(stm: &Stm, keys: &[u64]) -> SkipList<u64, u64> {
        let list = SkipList::new(8);
        let mut rng = rand::thread_rng();
        for &k in keys {
            let h = list.random_height(&mut rng);
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, k, k * 10, h, 0)
                    .map(|_| ())
            });
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
        let ceil20 = stm.run(|tx| {
            let n = list.first_present(tx, Included(&20))?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 20);
        let succ20 = stm.run(|tx| {
            let n = list.first_present(tx, Excluded(&20))?;
            Ok(*n.key())
        });
        assert_eq!(succ20, 30);
        let ceil15 = stm.run(|tx| {
            let n = list.first_present(tx, Included(&15))?;
            Ok(*n.key())
        });
        assert_eq!(ceil15, 20);
        let past_end = stm.run(|tx| Ok(list.first_present(tx, Included(&31))?.is_tail()));
        assert!(past_end);
    }

    #[test]
    fn floor_and_pred_walk_backwards() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        let floor25 = stm.run(|tx| {
            let n = list.floor_present(tx, &25)?;
            Ok(*n.key())
        });
        assert_eq!(floor25, 20);
        let floor20 = stm.run(|tx| {
            let n = list.floor_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(floor20, 20);
        let pred20 = stm.run(|tx| {
            let n = list.pred_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(pred20, 10);
        let before_all = stm.run(|tx| Ok(list.pred_present(tx, &10)?.is_head()));
        assert!(before_all);
    }

    #[test]
    fn unstitch_removes_from_every_level() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let node = stm.run(|tx| list.insert_after_logical_deletes(tx, 42, 420, 8, 0));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 1);
        stm.run(|tx| list.unstitch(tx, &node));
        assert_eq!(stm.run(|tx| list.count_present(tx)), 0);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
        list.sever_all();
    }

    #[test]
    fn logically_deleted_nodes_are_skipped_by_present_queries() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        mark_removed(&stm, &list, 20);
        let ceil20 = stm.run(|tx| {
            let n = list.first_present(tx, Included(&20))?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 30, "deleted node must be skipped");
        assert_eq!(stm.run(|tx| list.count_present(tx)), 2);
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(10, 100), (30, 300)]);
    }

    #[test]
    fn insert_after_logical_deletes_lands_after_duplicates() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let old = stm.run(|tx| list.insert_after_logical_deletes(tx, 5, 50, 3, 0));
        // Logically delete the old node, then insert a fresh node for key 5.
        stm.run(|tx| old.mark_removed(tx, 1));
        let fresh = stm.run(|tx| list.insert_after_logical_deletes(tx, 5, 55, 2, 1));
        // Level-0 order: old (deleted) comes before fresh.
        let first = list.head().level(0).succ.load_atomic().expect("linked");
        let second = first.level(0).succ.load_atomic().expect("linked");
        assert!(NodeRef::ptr_eq(&first, &old) && NodeRef::ptr_eq(&second, &fresh));
        // Present view only sees the fresh value.
        let pairs = present_pairs(&stm, &list);
        assert_eq!(pairs, vec![(5, 55)]);
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
        // The rollback-through-freed-cells hazard: abort an insert *after*
        // its link writes, with the body's handle already dropped, and make
        // sure the rollback (which releases the neighbours' orecs and drops
        // the buffered link words, the last counts on the dead node) is
        // sound and the list is unchanged.
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        stm.run(|tx| {
            list.insert_after_logical_deletes(tx, 10, 100, 4, 0)
                .map(|_| ())
        });
        let mut first = true;
        stm.run(|tx| {
            let _node = list.insert_after_logical_deletes(tx, 20, 200, 8, 0)?;
            if first {
                first = false;
                // `_node` drops at the end of this body, before the
                // rollback runs; the buffered link words hold the rest.
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
        let insert = |key| stm.run(|tx| list.insert_after_logical_deletes(tx, key, key, 2, 0));
        let (ten, twenty, thirty) = (insert(10), insert(20), insert(30));
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));

        // Bypass 20 at level 0 only: level 0 stays doubly linked and in
        // order, level 1 still runs 10 -> 20 -> 30.
        ten.level(0).succ.store_atomic(Some(thirty.clone()));
        thirty.level(0).pred.store_atomic(Some(ten.clone()));
        assert_eq!(
            stm.run(|tx| list.check_invariants(tx)),
            Err("level 1: node missing from level 0".to_string())
        );
        twenty.sever_links();
        list.sever_all();
    }

    #[test]
    fn sever_all_breaks_cycles() {
        let stm = Stm::new();
        let list = list_with(&stm, &[1, 2, 3, 4, 5]);
        list.sever_all();
        assert!(list.head().level(0).succ.load_atomic().is_none());
    }
}
