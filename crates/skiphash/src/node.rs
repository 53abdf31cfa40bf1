//! Skip list nodes, allocated from the block recycler.
//!
//! A node stores its key and tower height as plain immutable fields (the
//! paper's `const` optimization: immutable data needs no STM
//! instrumentation), and everything mutable — the value, the range-query
//! timestamps, the hash-chain link and the predecessor/successor links at
//! every level — in [`TCell`]s.
//!
//! # The node block
//!
//! The whole node — reference count, header, and the tower *inline* as a
//! trailing array of exactly `height` levels — lives in one block carved from
//! [`skiphash_stm::arena`]'s size-classed pools.  One block means one
//! allocation per insert and one free per reclamation, and the pools absorb
//! the fact that the free usually lands on a *different* thread than the
//! allocation (epoch collection runs wherever pinning happens), which is the
//! worst case for every general-purpose allocator:
//!
//! ```text
//! NodeBlock { refs: AtomicUsize, node: Node { bound, r_time, value,
//!             i_time, hash_next, height } } [Level; height]
//! ```
//!
//! The tower starts at the same offset for every height (the header is
//! fixed-size), so a handle finds it from its block pointer alone and the
//! header stores no pointer to it.  `hash_next` is the node's link in its
//! hash bucket's chain (see [`crate::hashmap`]): the index is intrusive, a
//! bucket is one link word, and a lookup hops from node to node through the
//! same kind of link cell the tower holds, under the borrowed-handle contract
//! of `crate::traverse`.  Hash links only point from a newer node to an older
//! one, and only from a node still in its chain (unlinking clears a removed
//! node's `hash_next`), so they close no cycle with the tower links a removed
//! node keeps: teardown severs the doubly linked tower and nothing else (the
//! argument is in [`crate::hashmap`]).  The header is 96 bytes for
//! `Node<u64, u64>`, so a block of every tower height is a whole number of
//! cache lines in the same arena class it would take without `hash_next`.
//!
//! [`NodeRef`] is the `Arc` replacement: a pointer-sized handle whose
//! reference count lives inside the block.
//!
//! # Lifetime rules (why release is epoch-deferred)
//!
//! Dropping the last `NodeRef` does **not** free the block; it retires it
//! through the epoch shim's `defer_with`, and the reclamation glue — run only
//! after every thread pinned at retirement time has unpinned — drops the
//! node's fields and returns the block to the arena.  Two hazards force this
//! (see `docs/PERF.md`):
//!
//! * **Read-set orecs.**  A transaction records raw pointers to the orecs of
//!   every cell it read — including cells of nodes it no longer holds a
//!   reference to by the time commit-time validation dereferences them.  The
//!   transaction's epoch pin is what keeps those orecs readable; recycling a
//!   block mid-pin would let validation read a *reused* orec and admit a torn
//!   snapshot.
//! * **Transactional rollback.**  An insert that aborts drops the body's
//!   `NodeRef` (ending the transaction body) *before* the rollback runs.
//!   The write log still holds the neighbours' link words that point at the
//!   node — buffered, never installed — and each owns a count, so the node
//!   lives until the rollback drops them; the last drop retires the block
//!   under the attempt's pin, and the rollback touches only the neighbours'
//!   orecs, never the node's own cells.  This is why the insert path
//!   registers nothing with the transaction to keep its fresh node alive
//!   (see [`crate::skiplist::SkipList::insert_after_logical_deletes`]).
//!
//! The count itself cannot resurrect: references are only ever cloned from
//! live references.  A link cell holds its `Option<NodeRef>` directly in its
//! data word (a link is one machine word, so `TCell` stores it inline), and
//! that word owns one count.  A reader that hops through the link works on a
//! bitwise copy of the word and owns nothing — what keeps the node alive
//! under it is that the drop of a *displaced* link word is epoch-deferred:
//! the count the word owned is given back only after every thread that was
//! pinned when the word was swapped out has unpinned.  So when the count
//! hits zero no thread can produce a new one, and a single deferral
//! suffices.
//!
//! Reclamation glue may run *inside* an epoch collection cycle, and dropping
//! a node's link cells can release the last reference to a neighbour —
//! whose retirement then pins and defers from within the running cycle.  The
//! vendored epoch shim explicitly supports this re-entrancy (destructors
//! execute outside its thread-local borrow); nesting stays depth-one because
//! the neighbour is *deferred*, never freed recursively.

use skiphash_stm::sync::{fence, AtomicUsize, Ordering as AtomicOrdering};
use std::alloc::Layout;
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU64;
use std::ops::Deref;
use std::ptr::{self, addr_of_mut, NonNull};

use crossbeam_epoch as epoch;
use skiphash_stm::arena::{self, BlockKind};
use skiphash_stm::{TCell, TxResult, Txn};

use crate::{MapKey, MapValue};

/// A key position on the skip list axis: either a real key or one of the two
/// sentinels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound<K> {
    /// The head sentinel, smaller than every key.
    NegInf,
    /// A real key.
    Key(K),
    /// The tail sentinel, greater than every key.
    PosInf,
}

impl<K: Ord> Bound<K> {
    /// Compare this bound against a real key.
    pub fn cmp_key(&self, key: &K) -> Ordering {
        match self {
            Bound::NegInf => Ordering::Less,
            Bound::Key(k) => k.cmp(key),
            Bound::PosInf => Ordering::Greater,
        }
    }

    /// True if this bound is strictly less than `key`.
    pub fn is_before(&self, key: &K) -> bool {
        self.cmp_key(key) == Ordering::Less
    }

    /// True if this bound is less than or equal to `key`.
    pub fn is_at_most(&self, key: &K) -> bool {
        self.cmp_key(key) != Ordering::Greater
    }
}

/// A link to a neighbouring node (absent only outside the sentinels).
pub type Link<K, V> = Option<NodeRef<K, V>>;

// A link is one machine word (`None` is the null handle), which is what lets
// a `TCell<Link>` hold it in place beside its orec: one cache miss per hop.
const _: () = assert!(std::mem::size_of::<Link<(), ()>>() == std::mem::size_of::<usize>());

/// Predecessor/successor links for one level of a node's tower.
///
/// `repr(C)` with `succ` first: the descent and the level-0 walk touch
/// only successor links, so keeping `succ` at offset 0 means the tower-line
/// prefetch issued one hop ahead (`RawNode::prefetch`) covers the next hop's
/// link without also paying for the predecessor cell (see docs/PERF.md,
/// Mechanism 6).
#[repr(C)]
pub struct Level<K, V> {
    /// Link to the next node at this level.
    pub succ: TCell<Link<K, V>>,
    /// Link to the previous node at this level.
    pub pred: TCell<Link<K, V>>,
}

impl<K, V> Level<K, V> {
    fn empty_at(born: u64) -> Self {
        Self {
            pred: TCell::new_at(None, born),
            succ: TCell::new_at(None, born),
        }
    }
}

impl<K, V> fmt::Debug for Level<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Level { .. }")
    }
}

/// The arena block backing one node: the reference count, the node header,
/// and (immediately after, in the same allocation, at [`tower_offset`]) the
/// `[Level; height]` tower.
#[repr(C)]
struct NodeBlock<K, V> {
    refs: AtomicUsize,
    node: Node<K, V>,
}

/// Byte layout of a block for a tower of `height` levels, plus the offset of
/// the tower array.  A pure function of the type and the height, so the
/// allocation and reclamation sides always agree (the glue re-derives it from
/// the height stored in the header).
///
/// The block asks for a cache line's alignment: the "scan-hot fields first"
/// order of [`Node`] puts them in one line only if offset 0 is a line
/// boundary.
fn block_layout<K, V>(height: usize) -> (Layout, usize) {
    const LINE_BYTES: usize = 64;
    let header = Layout::new::<NodeBlock<K, V>>();
    let tower = Layout::array::<Level<K, V>>(height).expect("tower layout");
    let (layout, offset) = header.extend(tower).expect("block layout");
    let layout = layout.align_to(LINE_BYTES).expect("block layout");
    (layout.pad_to_align(), offset)
}

/// Where the tower starts inside a block: the same for every height, because
/// `Layout::extend` pads the fixed-size header to the tower's alignment.
fn tower_offset<K, V>() -> usize {
    block_layout::<K, V>(1).1
}

/// A node of the doubly linked skip list.
///
/// Obtained by dereferencing a [`NodeRef`]; never exists outside a node
/// block.
///
/// `repr(C)` with the scan-hot fields first: a level-0 scan reads, per
/// element, the key (`bound`), the deletion mark (`r_time`), and the value
/// cell — so those lead the header and, for small keys, land in the block's
/// first cache line together with `refs` (blocks are cache-line aligned,
/// see `block_layout`).  The colder fields (`i_time`, `hash_next`, `height`)
/// trail; for small keys `hash_next` and `height` share the second line with
/// the tower's level 0, which is the line `RawNode::prefetch` fetches.
/// Layout rules are documented in docs/PERF.md, Mechanism 6.
#[repr(C)]
pub struct Node<K, V> {
    /// The node's position on the key axis (immutable).
    pub bound: Bound<K>,
    /// `None` while the node is logically present; set when the node is
    /// logically deleted, to the most recent range query version **plus
    /// one** — the niche keeps the mark one machine word, which `TCell`
    /// stores in place beside its orec (an `Option<u64>` is two words and
    /// would live behind a pointer).  Written by [`Node::mark_removed`],
    /// decoded by [`Node::removed_at`].
    pub r_time: TCell<Option<NonZeroU64>>,
    /// The associated value (`None` only for sentinels).
    pub value: TCell<Option<V>>,
    /// Version of the most recent slow-path range query that began before
    /// this node was inserted.
    pub i_time: TCell<u64>,
    /// The next older node in this node's hash bucket (see
    /// [`crate::hashmap`]); `None` at the end of the chain.
    pub hash_next: TCell<Link<K, V>>,
    /// Tower height (immutable, at least 1).
    pub height: usize,
}

impl<K, V> fmt::Debug for Node<K, V>
where
    K: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("bound", &self.bound)
            .field("height", &self.height)
            .finish()
    }
}

/// A counted handle to a pooled skip list node — the arena-recycled
/// replacement for `Arc<Node>`.
///
/// Clones bump the count stored inside the node's block; dropping the last
/// handle retires the block through the epoch (see the module docs for the
/// lifetime rules).  Dereferences to [`Node`].
pub struct NodeRef<K, V> {
    block: NonNull<NodeBlock<K, V>>,
}

// SAFETY: a NodeRef is a counted pointer to a block whose shared state is
// all atomics and TCells (themselves Sync for Send + Sync contents); the
// count manipulation follows the Arc protocol and reclamation is
// epoch-deferred.  K/V travel across threads both inside cells and by value
// (reads clone them), hence both bounds on both impls.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for NodeRef<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for NodeRef<K, V> {}

impl<K, V> NodeRef<K, V> {
    /// True when both handles designate the same node (pointer identity,
    /// like `Arc::ptr_eq`).
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.block.as_ptr() == b.block.as_ptr()
    }

    #[inline]
    fn refs(&self) -> &AtomicUsize {
        // SAFETY: the block outlives every handle.
        unsafe { &self.block.as_ref().refs }
    }

    /// Current reference count (test/debug helper; racy by nature).
    #[cfg(test)]
    pub(crate) fn ref_count(&self) -> usize {
        self.refs().load(AtomicOrdering::Relaxed)
    }

    /// The tower as a slice, one [`Level`] per level in `0..height`.
    #[inline]
    pub fn tower(&self) -> &[Level<K, V>] {
        // SAFETY: this handle's count keeps the block alive while `self` is
        // borrowed.
        unsafe { RawNode::from_ref(self).tower() }
    }

    /// The links at `level` (must be `< height`).
    #[inline]
    pub fn level(&self, level: usize) -> &Level<K, V> {
        &self.tower()[level]
    }
}

impl<K: MapKey, V: MapValue> NodeRef<K, V> {
    /// Transactionally read the level-0 successor, which must exist (only the
    /// tail sentinel has none, and callers never walk past the tail).
    pub fn succ0(&self, tx: &mut Txn<'_>) -> TxResult<NodeRef<K, V>> {
        Ok(self
            .level(0)
            .succ
            .read(tx)?
            .expect("interior nodes always have a level-0 successor"))
    }

    /// Sever all of this node's tower links (used only during teardown,
    /// outside of any transaction, to break the doubly linked list's
    /// reference cycles).
    pub fn sever_links(&self) {
        for level in self.tower() {
            level.pred.store_atomic(None);
            level.succ.store_atomic(None);
        }
    }
}

impl<K, V> Deref for NodeRef<K, V> {
    type Target = Node<K, V>;

    #[inline]
    fn deref(&self) -> &Node<K, V> {
        // SAFETY: the block stays allocated (and its header initialized)
        // until after the last handle drops *and* the epoch quiesces.
        unsafe { &self.block.as_ref().node }
    }
}

impl<K, V> Clone for NodeRef<K, V> {
    #[inline]
    fn clone(&self) -> Self {
        // Relaxed suffices: the clone source proves the count is non-zero,
        // and the release/acquire pair on drop orders the final teardown
        // (the Arc protocol).
        self.refs().fetch_add(1, AtomicOrdering::Relaxed);
        Self { block: self.block }
    }
}

impl<K, V> Drop for NodeRef<K, V> {
    fn drop(&mut self) {
        if self.refs().fetch_sub(1, AtomicOrdering::Release) == 1 {
            fence(AtomicOrdering::Acquire);
            // Retire under a pin taken *now*: if this drop runs inside a
            // transaction (the common case — link payloads dropping in the
            // epoch, locals dropping at body end), the enclosing pin keeps
            // the block from being recycled before the attempt finishes; if
            // it runs inside a collection cycle, the shim's re-entrant
            // deferral path picks it up.
            let guard = epoch::pin();
            // SAFETY: count reached zero, so no handle remains and none can
            // be created (see module docs); the glue matches the block's
            // allocation exactly and runs once, after quiescence.
            unsafe {
                guard.defer_with(self.block.as_ptr().cast::<()>(), retire_node_block::<K, V>)
            };
        }
    }
}

impl<K, V> fmt::Debug for NodeRef<K, V>
where
    K: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A borrowed, copyable node handle that does **not** own a reference
/// count — the traversal-speed companion to [`NodeRef`].
///
/// Skip-list searches hop through dozens of links; cloning a counted
/// handle per hop costs two uncontended atomic RMWs (increment now,
/// decrement next hop), which dominates traversal time.  A `RawNode` is
/// just the block pointer.
///
/// # Validity
///
/// A `RawNode` read inside a transaction attempt is valid only **inside
/// that attempt** (equivalently: while the epoch guard it was read under
/// stays pinned).  The argument mirrors the read-set orec rule in the module
/// docs: any node reachable through a link word read under a pin keeps
/// `refs >= 1` until that pin is released — the word the handle was copied
/// from either is still installed or was swapped out *during* the pin, and
/// either way the drop that gives its count back is deferred past the
/// unpin.  For the same reason [`RawNode::upgrade`] (count increment) can
/// never resurrect a dead block when called within the attempt.  One read
/// at a snapshot's pinned version is valid while the snapshot lives, by the
/// pin's custody instead of the epoch; both arguments are stated where the
/// handles are produced, in `crate::traverse`.
pub(crate) struct RawNode<K, V> {
    block: NonNull<NodeBlock<K, V>>,
}

impl<K, V> Clone for RawNode<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for RawNode<K, V> {}

impl<K, V> RawNode<K, V> {
    /// Borrow a counted handle's block.
    pub(crate) fn from_ref(node: &NodeRef<K, V>) -> Self {
        Self { block: node.block }
    }

    /// Borrow the node a link designates, if any.
    pub(crate) fn from_link(link: &Link<K, V>) -> Option<Self> {
        link.as_ref().map(Self::from_ref)
    }

    /// The node itself.
    ///
    /// # Safety
    ///
    /// What this handle was obtained under — the transaction attempt, the
    /// snapshot pin, or the counted handle it borrows — must still be in
    /// force (see the type docs).  The returned lifetime is caller-chosen; it
    /// must not outlive that protection.
    #[inline]
    pub(crate) unsafe fn node<'any>(&self) -> &'any Node<K, V> {
        // SAFETY: per the contract, the block is alive while the protection
        // lasts.
        unsafe { &(*self.block.as_ptr()).node }
    }

    /// The node's tower, found from the block pointer at [`tower_offset`].
    ///
    /// # Safety
    ///
    /// Same contract as [`RawNode::node`].
    #[inline]
    pub(crate) unsafe fn tower<'any>(&self) -> &'any [Level<K, V>] {
        // SAFETY: per the contract the block is alive, and it holds `height`
        // initialized levels at `tower_offset` (written by `alloc_node`); the
        // block pointer carries the whole allocation's provenance.
        unsafe {
            let levels = self.block.as_ptr().cast::<u8>().add(tower_offset::<K, V>());
            std::slice::from_raw_parts(levels.cast(), (*self.block.as_ptr()).node.height)
        }
    }

    /// Hint the prefetcher at this node's header line and its tower's first
    /// line (level 0, and for small keys `hash_next`), without dereferencing
    /// anything.
    ///
    /// Both lines are computable from the bare block pointer (the tower sits
    /// at a height-independent offset), which is what makes it safe to issue
    /// this one hop *ahead* of validation: a prefetch never faults, and the
    /// worst a stale pointer costs is a wasted cache fill.
    #[inline]
    pub(crate) fn prefetch(&self) {
        let base = self.block.as_ptr().cast::<u8>();
        skiphash_stm::sync::prefetch_read(base);
        skiphash_stm::sync::prefetch_read(base.wrapping_add(tower_offset::<K, V>()));
    }

    /// Promote to a counted [`NodeRef`].
    ///
    /// # Safety
    ///
    /// Same contract as [`RawNode::node`]: under that protection the count
    /// is provably at least one (a link word or a history entry still holds
    /// a reference), so the increment cannot revive a block whose retirement
    /// was already scheduled.
    #[inline]
    pub(crate) unsafe fn upgrade(&self) -> NodeRef<K, V> {
        // SAFETY: `refs >= 1` per the contract; this is exactly a clone.
        unsafe {
            (*self.block.as_ptr())
                .refs
                .fetch_add(1, AtomicOrdering::Relaxed)
        };
        NodeRef { block: self.block }
    }
}

/// Epoch reclamation glue: drop the node's fields (header and tower levels)
/// in place and hand the block back to the arena.
///
/// # Safety
///
/// `ptr` must be a fully initialized node block whose reference count has
/// reached zero, unreachable to any thread that is not currently pinned;
/// called exactly once.
unsafe fn retire_node_block<K, V>(ptr: *mut ()) {
    // SAFETY: per the contract the header is initialized and ours alone.
    unsafe {
        let block = ptr.cast::<NodeBlock<K, V>>();
        let height = (*block).node.height;
        let (layout, tower_offset) = block_layout::<K, V>(height);
        let tower = ptr.cast::<u8>().add(tower_offset).cast::<Level<K, V>>();
        // Dropping the tower's and the hash chain's link cells may release
        // the last reference to a neighbour, which re-enters the collector
        // (re-entrancy is part of the shim's contract; see the module docs).
        ptr::drop_in_place(ptr::slice_from_raw_parts_mut(tower, height));
        ptr::drop_in_place(addr_of_mut!((*block).node));
        arena::free_raw(ptr.cast::<u8>(), layout.size(), layout.align());
    }
}

/// Allocate and initialize a node block, returning its first handle.
fn alloc_node<K: MapKey, V: MapValue>(
    bound: Bound<K>,
    value: Option<V>,
    height: usize,
    i_time: u64,
    born: u64,
) -> NodeRef<K, V> {
    assert!(height >= 1, "node height must be at least 1");
    let (layout, tower_offset) = block_layout::<K, V>(height);
    let raw = arena::alloc_raw(layout.size(), layout.align(), BlockKind::Node);
    // SAFETY: the block is exclusively ours, large and aligned enough for
    // the layout just computed; every field is written before the handle
    // escapes.
    unsafe {
        let tower = raw.add(tower_offset).cast::<Level<K, V>>();
        for level in 0..height {
            tower.add(level).write(Level::empty_at(born));
        }
        let block = raw.cast::<NodeBlock<K, V>>();
        addr_of_mut!((*block).refs).write(AtomicUsize::new(1));
        addr_of_mut!((*block).node).write(Node {
            bound,
            r_time: TCell::new_at(None, born),
            value: TCell::new_at(value, born),
            i_time: TCell::new_at(i_time, born),
            hash_next: TCell::new_at(None, born),
            height,
        });
        NodeRef {
            block: NonNull::new_unchecked(block),
        }
    }
}

impl<K: MapKey, V: MapValue> Node<K, V> {
    /// Create a regular node carrying `key`/`value` with the given tower
    /// height and insertion time.
    ///
    /// Safe to call inside a transaction body with no further registration:
    /// the handle's epoch-deferred release keeps the block alive through a
    /// potential rollback (see the module docs).
    /// `born` stamps every cell's initial ownership-record version; pass the
    /// creating attempt's [`read version`](skiphash_stm::Txn::read_version)
    /// so MVCC snapshots pinned *before* the node existed never mistake its
    /// cells for state they must preserve (see [`TCell::new_at`]).
    #[allow(clippy::new_ret_no_self)] // NodeRef is the Arc-style handle to a Node
    pub fn new(key: K, value: V, height: usize, i_time: u64, born: u64) -> NodeRef<K, V> {
        alloc_node(Bound::Key(key), Some(value), height, i_time, born)
    }

    /// Create one of the two sentinel nodes with a full-height tower.
    pub fn sentinel(bound: Bound<K>, height: usize) -> NodeRef<K, V> {
        debug_assert!(matches!(bound, Bound::NegInf | Bound::PosInf));
        alloc_node(bound, None, height, 0, 0)
    }

    /// True for the head or tail sentinel.
    pub fn is_sentinel(&self) -> bool {
        !matches!(self.bound, Bound::Key(_))
    }

    /// True for the tail sentinel.
    pub fn is_tail(&self) -> bool {
        matches!(self.bound, Bound::PosInf)
    }

    /// True for the head sentinel.
    pub fn is_head(&self) -> bool {
        matches!(self.bound, Bound::NegInf)
    }

    /// The node's key.
    ///
    /// # Panics
    ///
    /// Panics when called on a sentinel.
    pub fn key(&self) -> &K {
        match &self.bound {
            Bound::Key(k) => k,
            _ => panic!("sentinel nodes have no key"),
        }
    }

    /// Transactionally read the node's value.
    ///
    /// # Panics
    ///
    /// Panics when called on a sentinel (sentinels never carry values).
    pub fn read_value(&self, tx: &mut Txn<'_>) -> TxResult<V> {
        Ok(self
            .value
            .read(tx)?
            .expect("regular nodes always carry a value"))
    }

    /// True if the node is logically deleted (its `r_time` is set).
    pub fn is_logically_deleted(&self, tx: &mut Txn<'_>) -> TxResult<bool> {
        self.r_time.read_with(tx, Option::is_some)
    }

    /// Logically delete the node, stamping it with `version`, the most
    /// recent range query version.
    pub fn mark_removed(&self, tx: &mut Txn<'_>, version: u64) -> TxResult<()> {
        self.r_time
            .write(tx, Some(NonZeroU64::MIN.saturating_add(version)))
    }

    /// The range query version the node was logically deleted at, or `None`
    /// while it is logically present.
    pub fn removed_at(&self, tx: &mut Txn<'_>) -> TxResult<Option<u64>> {
        self.r_time
            .read_with(tx, |mark| mark.map(|stamp| stamp.get() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiphash_stm::Stm;

    #[test]
    fn bound_ordering_relative_to_keys() {
        let neg: Bound<u64> = Bound::NegInf;
        let pos: Bound<u64> = Bound::PosInf;
        let five = Bound::Key(5u64);
        assert!(neg.is_before(&0));
        assert!(!pos.is_before(&u64::MAX));
        assert_eq!(five.cmp_key(&5), Ordering::Equal);
        assert!(five.is_before(&6));
        assert!(five.is_at_most(&5));
        assert!(!five.is_at_most(&4));
    }

    #[test]
    fn new_node_fields() {
        let n = Node::<u64, String>::new(9, "x".into(), 3, 7, 0);
        assert_eq!(n.height, 3);
        assert_eq!(n.tower().len(), 3);
        assert_eq!(*n.key(), 9);
        assert!(!n.is_sentinel());
        assert_eq!(n.i_time.load_atomic(), 7);
        assert_eq!(n.r_time.load_atomic(), None);
    }

    #[test]
    fn sentinels_report_their_kind() {
        let head = Node::<u64, u64>::sentinel(Bound::NegInf, 4);
        let tail = Node::<u64, u64>::sentinel(Bound::PosInf, 4);
        assert!(head.is_head() && head.is_sentinel() && !head.is_tail());
        assert!(tail.is_tail() && tail.is_sentinel() && !tail.is_head());
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_key_panics() {
        let head = Node::<u64, u64>::sentinel(Bound::NegInf, 1);
        let _ = head.key();
    }

    #[test]
    fn read_value_inside_transaction() {
        let stm = Stm::new();
        let n = Node::<u64, u64>::new(1, 10, 1, 0, 0);
        let v = stm.run(|tx| n.read_value(tx));
        assert_eq!(v, 10);
    }

    #[test]
    fn clone_and_ptr_eq_follow_arc_semantics() {
        let a = Node::<u64, u64>::new(1, 1, 2, 0, 0);
        let b = a.clone();
        assert!(NodeRef::ptr_eq(&a, &b));
        assert_eq!(a.ref_count(), 2);
        let other = Node::<u64, u64>::new(1, 1, 2, 0, 0);
        assert!(!NodeRef::ptr_eq(&a, &other));
        drop(b);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn sever_links_clears_every_level() {
        let a = Node::<u64, u64>::new(1, 1, 2, 0, 0);
        let b = Node::<u64, u64>::new(2, 2, 2, 0, 0);
        for l in 0..2 {
            a.level(l).succ.store_atomic(Some(b.clone()));
            b.level(l).pred.store_atomic(Some(a.clone()));
        }
        a.sever_links();
        b.sever_links();
        for l in 0..2 {
            assert!(a.level(l).succ.load_atomic().is_none());
            assert!(b.level(l).pred.load_atomic().is_none());
        }
    }

    #[test]
    fn blocks_are_line_aligned_with_the_scan_hot_fields_in_the_first_line() {
        // The layout rule of docs/PERF.md, for the benchmarked map type at
        // every tower height the default `max_level` can sample.
        fn in_first_line<T>(block: usize, field: &T) -> bool {
            let at = ptr::from_ref(field) as usize;
            at >= block && at + size_of_val(field) <= block + 64
        }
        let nodes: Vec<_> = (1..=20)
            .map(|height| Node::<u64, u64>::new(7, 7, height, 0, 0))
            .collect();
        for node in &nodes {
            let block = node.block.as_ptr() as usize;
            assert_eq!(block % 64, 0, "height {}", node.height);
            assert!(in_first_line(block, node.refs()));
            assert!(in_first_line(block, &node.bound));
            assert!(in_first_line(block, &node.r_time));
            assert!(in_first_line(block, &node.value));
        }
    }

    #[test]
    fn hash_link_keeps_every_height_in_its_block_class() {
        // `hash_next` took the place of the tower pointer: the header may
        // grow to 96 bytes and no further, so each block stays the whole
        // number of lines it was with the 88-byte header (and with it in the
        // same arena class).  104 bytes would move height 1 — half of all
        // nodes — from 128 to 192.
        assert!(tower_offset::<u64, u64>() <= 96);
        let level = size_of::<Level<u64, u64>>();
        for height in 1..=20 {
            let (layout, _) = block_layout::<u64, u64>(height);
            assert_eq!(
                layout.size(),
                (88 + level * height).next_multiple_of(64),
                "height {height}"
            );
        }
    }

    #[test]
    fn released_blocks_are_recycled_through_the_epoch() {
        // Dropping nodes and driving collection must eventually serve a new
        // node from a recycled block (same height class).
        let before = arena::recycle_hits(BlockKind::Node);
        for _ in 0..2_000u64 {
            let n = Node::<u64, u64>::new(1, 1, 4, 0, 0);
            drop(n);
            drop(epoch::pin());
        }
        assert!(
            arena::recycle_hits(BlockKind::Node) > before,
            "node churn must recycle arena blocks"
        );
    }

    #[test]
    fn node_drop_releases_heap_values() {
        // String keys/values exercise the retire glue's drop_in_place across
        // header and tower; run enough cycles for blocks to recycle so a
        // leak or double free would trip ASan / the drop balance elsewhere.
        for i in 0..500u64 {
            let n = Node::<String, String>::new(format!("k{i}"), format!("v{i}"), 3, 0, 0);
            assert_eq!(*n.key(), format!("k{i}"));
            drop(n);
            drop(epoch::pin());
        }
    }
}
