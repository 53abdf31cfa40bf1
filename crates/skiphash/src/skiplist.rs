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

use rand::Rng;
use skiphash_stm::{TxResult, Txn};

use crate::node::{Bound, Node, NodeRef, RawNode};
use crate::{MapKey, MapValue};

/// Upper bound on tower heights ([`crate::SkipHashBuilder::max_level`]
/// rejects anything above it).
pub const MAX_LEVEL_LIMIT: usize = 64;

/// One borrowed handle per level, indexed by level: what
/// [`SkipList::find_position`] fills in below the new tower's height.  A
/// fixed-capacity stack array, so locating an insert position allocates
/// nothing, and borrowed, so it costs no reference-count traffic either.
type LevelNodes<K, V> = [RawNode<K, V>; MAX_LEVEL_LIMIT];

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

    /// The tail sentinel.
    pub fn tail(&self) -> &NodeRef<K, V> {
        &self.tail
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

    /// Find, at every level below `height`, the last node whose key is
    /// strictly less than `key` (the "predecessor") and its successor at
    /// that level.
    ///
    /// The handles are borrowed: valid within the attempt `tx` (the
    /// [`RawNode`] validity contract).  Only entries below `height` are
    /// meaningful — the descent passes through the taller levels without
    /// recording them, because an insert stitches only its own tower.
    fn find_position(
        &self,
        tx: &mut Txn<'_>,
        key: &K,
        height: usize,
    ) -> TxResult<(LevelNodes<K, V>, LevelNodes<K, V>)> {
        // SAFETY (for every `node()` below): each handle was read through a
        // link cell inside this same attempt `tx`, whose epoch guard stays
        // pinned for the whole function — the RawNode validity contract.
        let mut preds = [RawNode::from_ref(&self.head); MAX_LEVEL_LIMIT];
        let mut succs = [RawNode::from_ref(&self.tail); MAX_LEVEL_LIMIT];

        let mut pred = RawNode::from_ref(&self.head);
        for level in (0..self.max_level).rev() {
            // SAFETY: handle read under this attempt; guard pinned (blanket note above).
            let mut curr = unsafe { pred.node() }
                .level(level)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
            // SAFETY: same contract — read under this attempt.
            while unsafe { curr.node() }.bound.is_before(key) {
                pred = curr;
                // SAFETY: same contract — read under this attempt.
                curr = unsafe { curr.node() }
                    .level(level)
                    .succ
                    .read_with(tx, RawNode::from_link)?
                    .expect("levels are always terminated by the tail sentinel");
            }
            if level < height {
                preds[level] = pred;
                succs[level] = curr;
            }
        }
        Ok((preds, succs))
    }

    /// First node (logically present *or* deleted) whose key is `>= key`,
    /// possibly the tail sentinel.
    pub fn ceil_raw(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        let raw = self.ceil_raw_borrowed(tx, key)?;
        // SAFETY: obtained under the still-running attempt `tx`.
        Ok(unsafe { raw.upgrade() })
    }

    /// Borrowed-handle tower descent: the first node at level 0 whose key is
    /// `>= key` (possibly the tail sentinel), with zero refcount traffic —
    /// the point-query sibling of [`SkipList::find_position`]'s hop recipe.
    ///
    /// The returned handle obeys the [`RawNode`] validity contract (valid
    /// within the attempt `tx`).
    pub(crate) fn ceil_raw_borrowed(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<RawNode<K, V>> {
        // SAFETY (for every `node()` below): each handle was read through a
        // link cell inside this same attempt, whose epoch guard stays pinned
        // for the whole call.
        let mut pred = RawNode::from_ref(&self.head);
        for level in (1..self.max_level).rev() {
            loop {
                // SAFETY: handle read under this attempt; guard pinned (blanket note above).
                let next = unsafe { pred.node() }
                    .level(level)
                    .succ
                    .read_with(tx, RawNode::from_link)?
                    .expect("levels are always terminated by the tail sentinel");
                // Warm the candidate's header and tower lines while the
                // bound comparison below resolves (docs/PERF.md, Mechanism
                // 6: the tower line is the next dependent load on the
                // continue-at-this-level path).
                next.prefetch();
                // SAFETY: same contract — read under this attempt.
                if unsafe { next.node() }.bound.is_before(key) {
                    pred = next;
                } else {
                    break;
                }
            }
        }
        // SAFETY: same contract — read under this attempt.
        let mut curr = unsafe { pred.node() }
            .level(0)
            .succ
            .read_with(tx, RawNode::from_link)?
            .expect("levels are always terminated by the tail sentinel");
        // SAFETY: same contract — read under this attempt.
        while unsafe { curr.node() }.bound.is_before(key) {
            // SAFETY: same contract — read under this attempt.
            curr = unsafe { curr.node() }
                .level(0)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
            curr.prefetch();
        }
        Ok(curr)
    }

    /// Hop forward (level 0) over logically deleted nodes, borrowed.
    pub(crate) fn skip_deleted_forward(
        &self,
        tx: &mut Txn<'_>,
        mut node: RawNode<K, V>,
    ) -> TxResult<RawNode<K, V>> {
        // SAFETY: as in `ceil_raw_borrowed` — same attempt, guard pinned.
        while !unsafe { node.node() }.is_tail()
            && unsafe { node.node() }
                .r_time
                .read_with(tx, Option::is_some)?
        {
            // SAFETY: same contract — read under this attempt.
            node = unsafe { node.node() }
                .level(0)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
        }
        Ok(node)
    }

    /// First *logically present* node whose key is `>= key`, possibly the
    /// tail sentinel.
    pub fn ceil_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        let raw = self.ceil_raw_borrowed(tx, key)?;
        let node = self.skip_deleted_forward(tx, raw)?;
        // SAFETY: obtained under the still-running attempt `tx`.
        Ok(unsafe { node.upgrade() })
    }

    /// First logically present node whose key is strictly `> key`, possibly
    /// the tail sentinel.
    pub fn succ_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        let mut node = self.ceil_raw_borrowed(tx, key)?;
        // SAFETY: as in `ceil_raw_borrowed` — same attempt, guard pinned.
        while !unsafe { node.node() }.is_tail()
            && (unsafe { node.node() }
                .r_time
                .read_with(tx, Option::is_some)?
                // SAFETY: same contract — read under this attempt.
                || unsafe { node.node() }.bound.cmp_key(key) == Ordering::Equal)
        {
            // SAFETY: same contract — read under this attempt.
            node = unsafe { node.node() }
                .level(0)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
        }
        // SAFETY: obtained under the still-running attempt `tx`.
        Ok(unsafe { node.upgrade() })
    }

    /// Last logically present node whose key is `<= key`, possibly the head
    /// sentinel.  Uses the predecessor links (this is where double linking
    /// pays off for `floor`/`pred` point queries).
    pub fn floor_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        // A logically present node with this exact key may sit *after*
        // logically deleted nodes with the same key, so resolve equality via
        // `ceil_present` before falling back to the strict predecessor.
        let node = self.ceil_present(tx, key)?;
        if !node.is_tail() && node.bound.cmp_key(key) == Ordering::Equal {
            return Ok(node);
        }
        self.pred_present(tx, key)
    }

    /// Last logically present node whose key is strictly `< key`, possibly
    /// the head sentinel.
    pub fn pred_present(&self, tx: &mut Txn<'_>, key: &K) -> TxResult<NodeRef<K, V>> {
        let raw = self.ceil_raw_borrowed(tx, key)?;
        // SAFETY: as in `ceil_raw_borrowed` — same attempt, guard pinned.
        let mut node = unsafe { raw.node() }
            .level(0)
            .pred
            .read_with(tx, RawNode::from_link)?
            .expect("interior nodes always have a level-0 predecessor");
        // SAFETY: handle read under this attempt; guard pinned (note above).
        while !unsafe { node.node() }.is_head()
            // SAFETY: same contract — read under this attempt.
            && unsafe { node.node() }
                .r_time
                .read_with(tx, Option::is_some)?
        {
            // SAFETY: same contract — read under this attempt.
            node = unsafe { node.node() }
                .level(0)
                .pred
                .read_with(tx, RawNode::from_link)?
                .expect("interior nodes always have a level-0 predecessor");
        }
        // SAFETY: obtained under the still-running attempt `tx`.
        Ok(unsafe { node.upgrade() })
    }

    /// First logically present node in the list (possibly the tail sentinel).
    pub fn first_present(&self, tx: &mut Txn<'_>) -> TxResult<NodeRef<K, V>> {
        // SAFETY: as in `ceil_raw_borrowed` — same attempt, guard pinned.
        let raw = RawNode::from_ref(&self.head);
        // SAFETY: head handle; the attempt's guard is pinned (note above).
        let first = unsafe { raw.node() }
            .level(0)
            .succ
            .read_with(tx, RawNode::from_link)?
            .expect("levels are always terminated by the tail sentinel");
        let node = self.skip_deleted_forward(tx, first)?;
        // SAFETY: obtained under the still-running attempt `tx`.
        Ok(unsafe { node.upgrade() })
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
        // Everything below works on borrowed handles: of the positions the
        // search finds, an insert keeps only `2 * height` — the counts its
        // own links take — so that is all it pays for.  (Upgrading every
        // level's pair to a counted handle was ~80 atomic RMWs per insert,
        // on the header lines of the tallest towers, which every other
        // thread's descent reads.)
        //
        // SAFETY (for every `node()` and `upgrade()` below): each handle was
        // read through a link cell inside this same attempt `tx`, whose
        // epoch guard stays pinned for the whole function — the RawNode
        // validity contract.
        let (mut preds, mut succs) = self.find_position(tx, &key, height)?;

        // Advance past any logically deleted nodes that share the key so the
        // new node lands after them.
        for level in 0..height {
            loop {
                // SAFETY: handle read under this attempt; guard pinned (blanket note above).
                let succ = unsafe { succs[level].node() };
                if succ.is_tail() || succ.bound.cmp_key(&key) != Ordering::Equal {
                    break;
                }
                preds[level] = succs[level];
                succs[level] = succ
                    .level(level)
                    .succ
                    .read_with(tx, RawNode::from_link)?
                    .expect("levels are always terminated by the tail sentinel");
            }
        }

        // The node's own cells are written below while nothing else
        // references it.  No `Txn::keep_alive` registration is needed (the
        // `Arc` design required one): if this attempt aborts after the link
        // writes, the handle dropped at the end of the body retires the
        // block through the epoch *under this attempt's pin*, so the block
        // provably outlives the rollback that restores these cells — see the
        // lifetime rules in `crate::node`.
        // Born at this attempt's read version: cells stamped 0 would look
        // older than every pinned snapshot, so the first overwrite of each
        // would be preserved forever-growing custody; stamped at `rv`, a
        // node born after a pin is provably outside its window.
        let node = Node::new(key, value, height, i_time, tx.read_version());
        for level in 0..height {
            // The fresh node is unreachable until the neighbour writes below
            // commit, so its own links need no transactional instrumentation:
            // `store_atomic` installs them at the birth version, outside the
            // write set and undo log (an abort simply drops the node).
            // Readers still see them initialized — the data swap here is
            // ordered before the neighbour's commit-time orec release, which
            // is what publishes the node.  This also keeps snapshot custody
            // from preserving the `None` placeholders transactional writes
            // would displace on every insert.
            // SAFETY: same contract — read under this attempt.
            let (pred, succ) = unsafe { (preds[level].upgrade(), succs[level].upgrade()) };
            node.level(level).pred.store_atomic(Some(pred));
            node.level(level).succ.store_atomic(Some(succ));
        }
        for level in 0..height {
            // SAFETY: same contract — read under this attempt.
            let (pred, succ) = unsafe { (preds[level].node(), succs[level].node()) };
            pred.level(level).succ.write(tx, Some(node.clone()))?;
            succ.level(level).pred.write(tx, Some(node.clone()))?;
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

    /// Count logically present nodes by walking level 0 with borrowed hops.
    pub fn count_present(&self, tx: &mut Txn<'_>) -> TxResult<usize> {
        // SAFETY (for every `node()` below): each handle was read through a
        // link cell inside this same attempt, whose epoch guard stays pinned
        // for the whole call.
        let mut count = 0;
        let head = RawNode::from_ref(&self.head);
        // SAFETY: head handle; the attempt's guard is pinned (note above).
        let mut node = unsafe { head.node() }
            .level(0)
            .succ
            .read_with(tx, RawNode::from_link)?
            .expect("levels are always terminated by the tail sentinel");
        // SAFETY: same contract — read under this attempt.
        while !unsafe { node.node() }.is_tail() {
            // SAFETY: same contract — read under this attempt.
            let n = unsafe { node.node() };
            let next = n
                .level(0)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
            // Overlap the successor's cache miss with this node's mark read.
            next.prefetch();
            if !n.r_time.read_with(tx, Option::is_some)? {
                count += 1;
            }
            node = next;
        }
        Ok(count)
    }

    /// Collect every logically present `(key, value)` pair in order by
    /// walking level 0 (borrowed hops; keys copied out via `K::clone`).
    pub fn collect_present(&self, tx: &mut Txn<'_>) -> TxResult<Vec<(K, V)>> {
        self.collect_present_with(tx, &K::clone)
    }

    /// [`SkipList::collect_present`] with a caller-chosen key extractor, so
    /// `Copy` keys can be copied out of the node instead of cloned (the
    /// `*_copied` fast paths; see docs/PERF.md, Mechanism 6).
    pub(crate) fn collect_present_with(
        &self,
        tx: &mut Txn<'_>,
        extract: &impl Fn(&K) -> K,
    ) -> TxResult<Vec<(K, V)>> {
        // SAFETY (for every `node()` below): each handle was read through a
        // link cell inside this same attempt, whose epoch guard stays pinned
        // for the whole call.
        let mut out = Vec::new();
        let head = RawNode::from_ref(&self.head);
        // SAFETY: head handle; the attempt's guard is pinned (note above).
        let mut node = unsafe { head.node() }
            .level(0)
            .succ
            .read_with(tx, RawNode::from_link)?
            .expect("levels are always terminated by the tail sentinel");
        // SAFETY: same contract — read under this attempt.
        while !unsafe { node.node() }.is_tail() {
            // SAFETY: same contract — read under this attempt.
            let n = unsafe { node.node() };
            let next = n
                .level(0)
                .succ
                .read_with(tx, RawNode::from_link)?
                .expect("levels are always terminated by the tail sentinel");
            // Overlap the successor's cache miss with this element's
            // mark/value reads (the scan loop's dominant stall).
            next.prefetch();
            if !n.r_time.read_with(tx, Option::is_some)? {
                let value = n
                    .value
                    .read_with(tx, Option::clone)?
                    .expect("regular nodes always carry a value");
                out.push((extract(n.key()), value));
            }
            node = next;
        }
        Ok(out)
    }

    /// Validate the structural invariants of the list (test helper):
    ///
    /// 1. keys are non-decreasing along level 0 (duplicates may appear only
    ///    when logically deleted nodes linger);
    /// 2. `pred`/`succ` links are mutually consistent at every level;
    /// 3. every node linked at level `l > 0` is also linked at level `l - 1`.
    pub fn check_invariants(&self, tx: &mut Txn<'_>) -> TxResult<Result<(), String>> {
        // Level 0 ordering + doubly-linked consistency on all levels.
        for level in 0..self.max_level {
            let mut prev = self.head.clone();
            let mut curr = prev
                .level(level)
                .succ
                .read(tx)?
                .expect("levels are always terminated by the tail sentinel");
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
                prev = curr.clone();
                curr = curr
                    .level(level)
                    .succ
                    .read(tx)?
                    .expect("levels are always terminated by the tail sentinel");
            }
        }

        // Each node reachable at level l is reachable at level 0.
        let mut level0 = Vec::new();
        let mut node = self.head.succ0(tx)?;
        while !node.is_tail() {
            level0.push(node.clone());
            node = node.succ0(tx)?;
        }
        for level in 1..self.max_level {
            let mut node = self
                .head
                .level(level)
                .succ
                .read(tx)?
                .expect("levels are always terminated by the tail sentinel");
            while !node.is_tail() {
                if !level0.iter().any(|n| NodeRef::ptr_eq(n, &node)) {
                    return Ok(Err(format!("level {level}: node missing from level 0")));
                }
                node = node
                    .level(level)
                    .succ
                    .read(tx)?
                    .expect("levels are always terminated by the tail sentinel");
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
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn ceil_and_succ_skip_correctly() {
        let stm = Stm::new();
        let list = list_with(&stm, &[10, 20, 30]);
        let ceil20 = stm.run(|tx| {
            let n = list.ceil_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 20);
        let succ20 = stm.run(|tx| {
            let n = list.succ_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(succ20, 30);
        let ceil15 = stm.run(|tx| {
            let n = list.ceil_present(tx, &15)?;
            Ok(*n.key())
        });
        assert_eq!(ceil15, 20);
        let past_end = stm.run(|tx| Ok(list.ceil_present(tx, &31)?.is_tail()));
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
        // Logically delete 20 without unstitching it.
        stm.run(|tx| {
            let n = list.ceil_raw(tx, &20)?;
            n.mark_removed(tx, 1)
        });
        let ceil20 = stm.run(|tx| {
            let n = list.ceil_present(tx, &20)?;
            Ok(*n.key())
        });
        assert_eq!(ceil20, 30, "deleted node must be skipped");
        assert_eq!(stm.run(|tx| list.count_present(tx)), 2);
        let pairs = stm.run(|tx| list.collect_present(tx));
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
        let order = stm.run(|tx| {
            let first = list.head().succ0(tx)?;
            let second = first.succ0(tx)?;
            Ok((
                NodeRef::ptr_eq(&first, &old),
                NodeRef::ptr_eq(&second, &fresh),
            ))
        });
        assert_eq!(order, (true, true));
        // Present view only sees the fresh value.
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(5, 55)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn borrowed_point_queries_match_slow_reference() {
        // Regression for the borrowed-hop rewrite of the point queries:
        // ceil/succ/floor/pred/first must agree with the reference answers
        // computed from the full present-key set, including around lingering
        // logically deleted nodes and re-inserted duplicates.
        use std::collections::BTreeSet;
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(8);
        let mut rng = rand::thread_rng();
        let mut present: BTreeSet<u64> = BTreeSet::new();
        for k in [10u64, 3, 7, 15, 12, 9, 1, 20, 5, 17] {
            let h = list.random_height(&mut rng);
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, k, k, h, 0)
                    .map(|_| ())
            });
            present.insert(k);
        }
        // Logically delete a few nodes without unstitching them.
        for k in [7u64, 15, 1] {
            stm.run(|tx| {
                let n = list.ceil_raw(tx, &k)?;
                n.mark_removed(tx, 1)
            });
            present.remove(&k);
        }
        // Re-insert one key so a deleted duplicate precedes a present node.
        let h = list.random_height(&mut rng);
        stm.run(|tx| {
            list.insert_after_logical_deletes(tx, 7, 70, h, 1)
                .map(|_| ())
        });
        present.insert(7);

        let key_of = |n: &NodeRef<u64, u64>| {
            if n.is_sentinel() {
                None
            } else {
                Some(*n.key())
            }
        };
        for probe in 0..=22u64 {
            let ceil = stm.run(|tx| Ok(key_of(&list.ceil_present(tx, &probe)?)));
            assert_eq!(
                ceil,
                present.range(probe..).next().copied(),
                "ceil({probe})"
            );
            let succ = stm.run(|tx| Ok(key_of(&list.succ_present(tx, &probe)?)));
            assert_eq!(
                succ,
                present.range(probe + 1..).next().copied(),
                "succ({probe})"
            );
            let floor = stm.run(|tx| Ok(key_of(&list.floor_present(tx, &probe)?)));
            assert_eq!(
                floor,
                present.range(..=probe).next_back().copied(),
                "floor({probe})"
            );
            let pred = stm.run(|tx| Ok(key_of(&list.pred_present(tx, &probe)?)));
            assert_eq!(
                pred,
                present.range(..probe).next_back().copied(),
                "pred({probe})"
            );
        }
        let first = stm.run(|tx| Ok(key_of(&list.first_present(tx)?)));
        assert_eq!(first, present.iter().next().copied());
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
        // The rollback-through-freed-cells hazard the Arc design guarded
        // against with `Txn::keep_alive`: abort an insert *after* its link
        // writes and make sure the undo walk (which touches the dead node's
        // own cells) is sound and the list is unchanged.
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
                // `_node` (the only handle) drops at the end of this body,
                // before the rollback runs.
                return tx.abort();
            }
            Ok(())
        });
        let pairs = stm.run(|tx| list.collect_present(tx));
        assert_eq!(pairs, vec![(10, 100), (20, 200)]);
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    #[test]
    fn sever_all_breaks_cycles() {
        let stm = Stm::new();
        let list = list_with(&stm, &[1, 2, 3, 4, 5]);
        list.sever_all();
        assert!(list.head().level(0).succ.load_atomic().is_none());
    }
}
