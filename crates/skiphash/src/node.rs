//! Skip list nodes, allocated from the block recycler.
//!
//! A node stores its key, tower height, insertion version and birth version
//! as plain immutable fields (the paper's `const` optimization: immutable
//! data needs no STM instrumentation), and everything mutable — the value,
//! the deletion mark, the hash-chain link and the predecessor/successor
//! links at every level — in [`TCell`]s.  Every one of those cells holds its
//! value in place, so a word-sized value or link is the cell's data word,
//! beside its orec: a point read costs the bucket word and the node, nothing
//! behind either.  The value cell is a `TCell<V>`; the two sentinels, told
//! apart by `bound`, leave it uninitialised, and [`Node::value`] is the one
//! way to it.
//!
//! # The node block
//!
//! The whole node — header, and the tower *inline* as a trailing array of
//! exactly `height` levels — lives in one block carved from
//! [`skiphash_stm::arena`]'s size-classed pools.  One block means one
//! allocation per insert and one free per reclamation, and the pools absorb
//! the fact that the free usually lands on a *different* thread than the
//! allocation (epoch collection runs wherever pinning happens), which is the
//! worst case for every general-purpose allocator:
//!
//! ```text
//! Node { bound, r_time, value, i_time, born, hash_next, height } [Level; height]
//! ```
//!
//! The tower starts at the same offset for every height (the header is
//! fixed-size), so a handle finds it from its block pointer alone and the
//! header stores no pointer to it.  `hash_next` is the node's link in its
//! hash bucket's chain (see [`crate::hashmap`]): the index is intrusive, a
//! bucket is one link word, and a lookup hops from node to node through the
//! same kind of link cell the tower holds, under the borrowed-handle contract
//! of `crate::traverse`.  The header is 88 bytes for `Node<u64, u64>`, and
//! the tower starts on the next 32-byte boundary, so no level straddles a
//! cache line, at no cost: every block is the whole number of lines the
//! 88-byte header and its tower need anyway.  A node is that one block: an
//! insert allocates nothing else, and a reclamation frees nothing else.
//!
//! # Handles and owners
//!
//! A link is a [`RawNode`]: the block pointer, which counts nothing, so a
//! hop costs no atomic read-modify-write and a link write displaces a word
//! that owns nothing.  A node has one owner at a time, which frees it once:
//!
//! * **Fresh.**  [`Node::new`] returns the [`OwnedNode`] that frees the node
//!   when dropped.  An insert links its node at birth and hands the owner to
//!   its attempt ([`Txn::free_on_abort`]): an abort frees the node at once,
//!   since nothing but the attempt's buffered writes ever pointed at it, and
//!   a commit gives it to the structure it was linked into.
//! * **Linked.**  A [`crate::skiplist::SkipList`] owns the nodes on its
//!   level 0, and a standalone [`crate::TxHashMap`] the nodes on its chains;
//!   the skip hash's index owns none (its nodes are its list's).  Teardown
//!   walks level 0, or the chains, and frees each node once.
//! * **Retired.**  The transaction that unlinks a node — the skip list's
//!   unstitch, a standalone map's remove — hands it to its attempt for
//!   retirement at commit ([`Txn::retire_at_commit`]), under the rule a
//!   displaced value gets: a live snapshot pin whose version lies in the
//!   node's window `[born, wv)` keeps it in custody until the pin drops
//!   (the key is the block address with its low bit set, which no cell
//!   has); otherwise it goes through the epoch.  An aborted unlink retires
//!   nothing.
//!
//! A retired node is freed two grace periods after the commit, not one.  A
//! commit installs its link words one by one and only then retires, so a
//! thread that pins while another commit is still installing can reach that
//! commit's node through a link not yet replaced, and from it, through the
//! links it keeps, a neighbour a third commit unlinked and retired after the
//! first released the neighbour's orecs.  The first grace period outlasts
//! every commit that was installing when the node was retired (a committer
//! stays pinned until it has installed everything); the second starts once
//! no link but those of retired nodes leads to the node.
//!
//! Some handles outlive the attempt that read them, and each names its
//! owner: the slow-path range query's cursor, a safe node whose unstitching
//! the range query coordinator defers until the query finishes; the nodes
//! in a `DeferralBuffer` batch or an RQC record's deferred list, still
//! stitched and so still the list's, unstitched once by whoever takes the
//! batch; and the handles a snapshot walks, whose nodes are the list's or
//! the custody's for as long as the pin lives.

use std::alloc::Layout;
use std::cmp::Ordering;
use std::fmt;
use std::mem::MaybeUninit;
use std::num::NonZeroU64;
use std::ptr::{self, addr_of_mut, NonNull};

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
pub type Link<K, V> = Option<RawNode<K, V>>;

// A link is one machine word (`None` is the null handle), which is what lets
// a `TCell<Link>` hold it in place beside its orec: one cache miss per hop.
const _: () = assert!(std::mem::size_of::<Link<(), ()>>() == std::mem::size_of::<usize>());

/// Predecessor/successor links for one level of a node's tower.
///
/// `repr(C)` with `succ` first: the descent and the level-0 walk touch
/// only successor links, so keeping `succ` at offset 0 means the tower-line
/// prefetch issued one hop ahead (`RawNode::prefetch`) covers the next hop's
/// level-0 link without also paying for the predecessor cell (see
/// docs/PERF.md, Mechanism 6).  Aligned to its own 32 bytes, so that in a
/// line-aligned block no level straddles a cache line.
#[repr(C, align(32))]
pub struct Level<K, V> {
    /// Link to the next node at this level.
    pub succ: TCell<Link<K, V>>,
    /// Link to the previous node at this level.
    pub pred: TCell<Link<K, V>>,
}

impl<K, V> fmt::Debug for Level<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Level { .. }")
    }
}

/// Byte layout of a block for a tower of `height` levels, plus the offset of
/// the tower array.  A pure function of the type and the height, so the
/// allocation and reclamation sides always agree (the free re-derives it from
/// the height stored in the header).
///
/// The block asks for a cache line's alignment: the "scan-hot fields first"
/// order of [`Node`] puts them in one line only if offset 0 is a line
/// boundary.
fn block_layout<K, V>(height: usize) -> (Layout, usize) {
    const LINE_BYTES: usize = 64;
    let header = Layout::new::<Node<K, V>>();
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

/// A node of the doubly linked skip list: the header of its block.
///
/// Reached through a [`RawNode`]; never exists outside a node block.
///
/// `repr(C)` with the scan-hot fields first: a level-0 scan reads, per
/// element, the key (`bound`), the deletion mark (`r_time`), and the value
/// cell — so those lead the header and, for small keys, land in the block's
/// first cache line together (blocks are cache-line aligned, see
/// `block_layout`).  A point read that has compared the key therefore finds
/// a word-sized value in a line it already holds.  The colder fields
/// (`i_time`, `born`, `hash_next`, `height`) trail; for small keys
/// `hash_next` and `height` share the second line with the tower's level 0,
/// which is the line `RawNode::prefetch` fetches.
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
    /// The associated value, in place (see the module docs).  Initialised
    /// for key nodes only; reached through [`Node::value`], which refuses
    /// sentinels, and dropped by the free for key nodes only.
    value: MaybeUninit<TCell<V>>,
    /// Version of the most recent slow-path range query that began before
    /// this node was inserted (immutable).
    pub i_time: u64,
    /// The clock version the node's cells were stamped with at birth: the
    /// inserting attempt's read version, at or below the commit that made
    /// the node reachable, so `[born, wv)` covers every snapshot that can
    /// reach it before the commit at `wv` unlinks it (immutable).
    pub born: u64,
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

/// A copyable node handle that owns nothing: the block pointer, and what
/// every link holds.
///
/// # Validity
///
/// A `RawNode` read inside a transaction attempt is valid only **inside
/// that attempt** (equivalently: while the epoch guard it was read under
/// stays pinned): a node is retired only by the commit that unlinks it, and
/// freed only after every thread pinned then has unpinned (see the module
/// docs).  One read at a snapshot's pinned version is valid while the
/// snapshot lives, by the pin's custody instead of the epoch; both arguments
/// are stated where the handles are produced, in `crate::traverse`.  A
/// handle that outlives its attempt is valid for as long as its owner keeps
/// the node (the module docs list each one).
pub struct RawNode<K, V> {
    block: NonNull<Node<K, V>>,
}

// SAFETY: a handle is a pointer to a block whose shared state is all
// immutable fields and TCells (themselves Sync for Send + Sync contents),
// and dereferencing it is `unsafe`, under the validity rule above.  K/V
// travel across threads both inside cells and by value (reads clone them),
// hence both bounds on both impls.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for RawNode<K, V> {}
// SAFETY: as above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for RawNode<K, V> {}

impl<K, V> Clone for RawNode<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for RawNode<K, V> {}

/// Identity: two handles are equal when they designate the same block.
impl<K, V> PartialEq for RawNode<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.block == other.block
    }
}
impl<K, V> Eq for RawNode<K, V> {}

impl<K, V> RawNode<K, V> {
    /// The node itself.
    ///
    /// # Safety
    ///
    /// The handle must be valid (see the type docs), and the returned
    /// lifetime, which is caller-chosen, must not outlive that validity.
    #[inline]
    pub unsafe fn node<'any>(&self) -> &'any Node<K, V> {
        // SAFETY: per the contract, the block is alive while the protection
        // lasts.
        unsafe { self.block.as_ref() }
    }

    /// The tower of `node`, which must be the node this handle designates,
    /// as a slice of one [`Level`] per level in `0..height`, borrowed for as
    /// long as `node` is.
    ///
    /// # Panics
    ///
    /// Panics when `node` is another node than this handle's.
    #[inline]
    pub fn tower<'n>(&self, node: &'n Node<K, V>) -> &'n [Level<K, V>] {
        assert!(
            ptr::eq(node, self.block.as_ptr()),
            "a tower is read through its own node"
        );
        // SAFETY: `node` is this block's header, alive for `'n`, and the
        // block lives and dies whole, so its `height` levels at
        // `tower_offset` (written by `Vacant::fill`) are alive for `'n` too;
        // the block pointer carries the whole allocation's provenance.
        unsafe {
            let levels = self.block.as_ptr().cast::<u8>().add(tower_offset::<K, V>());
            std::slice::from_raw_parts(levels.cast(), node.height)
        }
    }

    /// The block's address with its types erased, for a buffer that holds
    /// handles of every `K, V` (the range collector's per-thread staging in
    /// `crate::traverse`).
    #[inline]
    pub(crate) fn erase(self) -> NonNull<u8> {
        self.block.cast()
    }

    /// The handle [`RawNode::erase`] turned into `addr`, valid as that
    /// handle was.  `addr` must have been erased from a `RawNode<K, V>` of
    /// these very types; dereferencing the result is what the validity rule
    /// above governs.
    #[inline]
    pub(crate) fn unerase(addr: NonNull<u8>) -> Self {
        Self { block: addr.cast() }
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

    /// [`RawNode::prefetch`], plus the line holding the tower's `level`:
    /// for a node reached along `level`, whose link at that level is read
    /// next — the tower descent and the scan's scout in `crate::traverse`.
    /// For small keys every level from 1 up sits past the line `prefetch`
    /// fetches (levels 1 and 2 on the block's third line).  Safe for the
    /// same reason: the address is computed, not loaded, and a prefetch never
    /// faults.
    #[inline]
    pub(crate) fn prefetch_to(&self, level: usize) {
        self.prefetch();
        let at = tower_offset::<K, V>() + level * std::mem::size_of::<Level<K, V>>();
        skiphash_stm::sync::prefetch_read(self.block.as_ptr().cast::<u8>().wrapping_add(at));
    }
}

impl<K: MapKey, V: MapValue> RawNode<K, V> {
    /// Hand this node, born at `born`, to `tx` for retirement when it
    /// commits (see the module docs).
    ///
    /// # Safety
    ///
    /// `tx` must be the one attempt that unlinks the node from the structure
    /// that owns it: its writes replace every link to the node that
    /// structure holds, and any other attempt that would unlink it conflicts
    /// with them.
    pub(crate) unsafe fn retire(self, tx: &mut Txn<'_>, born: u64) {
        tx.retire_at_commit(born, Retired(self));
    }
}

/// A node its unlinking commit retired.  Dropped one grace period after the
/// commit (or when the custody that kept it lets go), it starts the second.
struct Retired<K: MapKey, V: MapValue>(RawNode<K, V>);

impl<K: MapKey, V: MapValue> Drop for Retired<K, V> {
    fn drop(&mut self) {
        skiphash_stm::defer_drop(OwnedNode { raw: self.0 });
    }
}

/// The one owner of a node no structure holds: dropping it frees the node
/// at once.  Returned by [`Node::new`].
pub struct OwnedNode<K, V> {
    raw: RawNode<K, V>,
}

impl<K, V> OwnedNode<K, V> {
    /// The node's handle, valid while this owner lives.
    pub fn raw(&self) -> RawNode<K, V> {
        self.raw
    }

    /// Give the node to whoever holds the returned handle: the list the
    /// sentinels of [`Node::sentinels`] are for.
    fn into_raw(self) -> RawNode<K, V> {
        std::mem::ManuallyDrop::new(self).raw
    }

    /// Take ownership of the node `raw` designates.
    ///
    /// # Safety
    ///
    /// Nothing else may own the node, and no thread may still reach it once
    /// the owner drops: a structure at teardown, with exclusive access,
    /// freeing what it owns.
    pub(crate) unsafe fn from_raw(raw: RawNode<K, V>) -> Self {
        Self { raw }
    }
}

impl<K, V> Drop for OwnedNode<K, V> {
    fn drop(&mut self) {
        // SAFETY: this is the node's one owner and no thread can reach it
        // (the type's contract), and the block was fully initialised by
        // `Vacant::fill`: drop the tower, the value cell of a key node, and
        // the rest of the header in place, then return the block with the
        // layout it was served with.
        unsafe {
            let node = self.raw.block.as_ptr();
            let height = (*node).height;
            let (layout, tower_offset) = block_layout::<K, V>(height);
            let tower = node.cast::<u8>().add(tower_offset).cast::<Level<K, V>>();
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(tower, height));
            if !(*node).is_sentinel() {
                (*node).value.assume_init_drop();
            }
            ptr::drop_in_place(node);
            arena::free_raw(node.cast::<u8>(), layout.size(), layout.align());
        }
    }
}

/// A block the arena served for a tower of `height` levels, not written yet.
struct Vacant<K, V> {
    block: NonNull<Node<K, V>>,
    height: usize,
}

impl<K, V> Vacant<K, V> {
    fn new(height: usize) -> Self {
        assert!(height >= 1, "node height must be at least 1");
        let (layout, _) = block_layout::<K, V>(height);
        let raw = arena::alloc_raw(layout.size(), layout.align(), BlockKind::Node);
        Self {
            block: NonNull::new(raw.cast()).expect("the arena serves no null block"),
            height,
        }
    }

    /// Write the node: a value exactly for a key, every cell stamped at
    /// `born`, and `links(level)` as each level's `(pred, succ)`.
    fn fill(
        self,
        bound: Bound<K>,
        value: Option<V>,
        i_time: u64,
        born: u64,
        hash_next: Link<K, V>,
        links: impl Fn(usize) -> (Link<K, V>, Link<K, V>),
    ) -> OwnedNode<K, V> {
        assert_eq!(
            value.is_some(),
            matches!(bound, Bound::Key(_)),
            "a key node carries a value and a sentinel none"
        );
        let value = value.map_or(MaybeUninit::uninit(), |value| {
            MaybeUninit::new(TCell::new_at(value, born))
        });
        let node = self.block.as_ptr();
        // SAFETY: the block is exclusively ours, served for `self.height`
        // levels with the layout `block_layout` computes for it, and every
        // field is written before the owner escapes.
        unsafe {
            let tower = node
                .cast::<u8>()
                .add(tower_offset::<K, V>())
                .cast::<Level<K, V>>();
            for level in 0..self.height {
                let (pred, succ) = links(level);
                tower.add(level).write(Level {
                    succ: TCell::new_at(succ, born),
                    pred: TCell::new_at(pred, born),
                });
            }
            addr_of_mut!(*node).write(Node {
                bound,
                r_time: TCell::new_at(None, born),
                value,
                i_time,
                born,
                hash_next: TCell::new_at(hash_next, born),
                height: self.height,
            });
        }
        OwnedNode {
            raw: RawNode { block: self.block },
        }
    }
}

impl<K, V> Node<K, V> {
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

    /// The node's value cell.
    ///
    /// # Panics
    ///
    /// Panics when called on a sentinel, whose cell is uninitialised.
    #[inline]
    pub fn value(&self) -> &TCell<V> {
        assert!(!self.is_sentinel(), "sentinel nodes have no value");
        // SAFETY: `Vacant::fill` initialises the cell of every key node, and
        // only the free, which runs after the last handle is gone, drops it.
        unsafe { self.value.assume_init_ref() }
    }
}

impl<K: MapKey, V: MapValue> Node<K, V> {
    /// Create a node carrying `key`/`value` with the given tower height and
    /// insertion time, linked to nothing, owned by the returned handle.
    ///
    /// `born` stamps every cell's initial ownership-record version and opens
    /// the node's snapshot window; pass the creating attempt's
    /// [`read version`](skiphash_stm::Txn::read_version) so MVCC snapshots
    /// pinned *before* the node existed never mistake its cells for state
    /// they must preserve (see [`TCell::new_at`]).
    #[allow(clippy::new_ret_no_self)] // the owner is the handle to a Node
    pub fn new(key: K, value: V, height: usize, i_time: u64, born: u64) -> OwnedNode<K, V> {
        Vacant::new(height).fill(Bound::Key(key), Some(value), i_time, born, None, |_| {
            (None, None)
        })
    }

    /// Create a key node in `tx`, already linked: `hash_next` and
    /// `links(level)` are written at birth, before anything can reach the
    /// node, so they need no transactional instrumentation, and its cells are
    /// stamped at `tx`'s read version.  `tx` owns the node until it commits,
    /// and frees it if it aborts (see the module docs).
    pub(crate) fn linked_in(
        tx: &mut Txn<'_>,
        key: K,
        value: V,
        height: usize,
        i_time: u64,
        hash_next: Link<K, V>,
        links: impl Fn(usize) -> (Link<K, V>, Link<K, V>),
    ) -> RawNode<K, V> {
        let born = tx.read_version();
        let owner =
            Vacant::new(height).fill(Bound::Key(key), Some(value), i_time, born, hash_next, links);
        let node = owner.raw();
        tx.free_on_abort(owner);
        node
    }

    /// The head and tail sentinels of a list of `height` levels, stitched
    /// to each other at every level.
    pub(crate) fn sentinels(height: usize) -> (RawNode<K, V>, RawNode<K, V>) {
        let tail = Vacant::new(height);
        let to_tail = Some(RawNode { block: tail.block });
        let head = Vacant::new(height).fill(Bound::NegInf, None, 0, 0, None, |_| (None, to_tail));
        let head = head.into_raw();
        let tail = tail.fill(Bound::PosInf, None, 0, 0, None, |_| (Some(head), None));
        (head, tail.into_raw())
    }

    /// Transactionally read the node's value.
    ///
    /// # Panics
    ///
    /// Panics when called on a sentinel (sentinels never carry values).
    pub fn read_value(&self, tx: &mut Txn<'_>) -> TxResult<V> {
        self.value().read(tx)
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
    use crate::skiplist::SkipList;
    use skiphash_stm::sync::{AtomicUsize, Ordering as AtomicOrdering};
    use skiphash_stm::Stm;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The node `at` designates.
    fn node_of<'a, K, V>(at: RawNode<K, V>) -> &'a Node<K, V> {
        // SAFETY: every test keeps what it passes here alive while it looks:
        // an owner it holds, or the sentinels of a list it holds.
        unsafe { at.node() }
    }

    /// The head and tail sentinels of `list`.
    fn sentinels<'a>(list: &SkipList<u64, u64>) -> [&'a Node<u64, u64>; 2] {
        let head = list.head();
        let tail = head.tower(node_of(head))[0].succ.load_atomic();
        [
            node_of(head),
            node_of(tail.expect("the head links to the tail")),
        ]
    }

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
        let owner = Node::<u64, String>::new(9, "x".into(), 3, 7, 0);
        let n = node_of(owner.raw());
        assert_eq!(n.height, 3);
        assert_eq!(owner.raw().tower(n).len(), 3);
        assert_eq!(*n.key(), 9);
        assert!(!n.is_sentinel());
        assert_eq!(n.i_time, 7);
        assert_eq!(n.r_time.load_atomic(), None);
    }

    #[test]
    fn sentinels_report_their_kind() {
        let list = SkipList::new(4);
        let [head, tail] = sentinels(&list);
        assert!(head.is_head() && head.is_sentinel() && !head.is_tail());
        assert!(tail.is_tail() && tail.is_sentinel() && !tail.is_head());
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_key_panics() {
        let list = SkipList::new(1);
        let _ = sentinels(&list)[0].key();
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_value_panics() {
        let list = SkipList::new(1);
        let _ = sentinels(&list)[1].value();
    }

    #[test]
    #[should_panic(expected = "a key node carries a value and a sentinel none")]
    fn a_sentinel_cannot_carry_a_key() {
        let _ = Vacant::<u64, u64>::new(1).fill(Bound::Key(1), None, 0, 0, None, |_| (None, None));
    }

    #[test]
    fn read_value_inside_transaction() {
        let stm = Stm::new();
        let n = Node::<u64, u64>::new(1, 10, 1, 0, 0);
        let v = stm.run(|tx| node_of(n.raw()).read_value(tx));
        assert_eq!(v, 10);
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
        for owner in &nodes {
            let node = node_of(owner.raw());
            let block = owner.raw().block.as_ptr() as usize;
            assert_eq!(block % 64, 0, "height {}", node.height);
            assert!(in_first_line(block, &node.bound));
            assert!(in_first_line(block, &node.r_time));
            assert!(in_first_line(block, node.value()));
        }
    }

    #[test]
    fn hash_link_keeps_every_height_in_its_block_class() {
        // The header holds 88 bytes and no more: a field added past them is
        // an extra word per node even where the tower's 32-byte alignment
        // hides it, and at 104 bytes height 1, half of all nodes, would move
        // from 128 to 192.  Aligning the tower costs no block a line: each
        // is the whole number of lines the 88-byte header and its tower
        // need (and so in the same arena class).
        assert!(size_of::<Node<u64, u64>>() <= 88);
        assert_eq!(tower_offset::<u64, u64>() % 32, 0);
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
        // Retiring nodes through the epoch and driving collection must
        // eventually serve a new node from a recycled block (same height
        // class).
        let before = arena::recycle_hits(BlockKind::Node);
        for _ in 0..2_000u64 {
            skiphash_stm::defer_drop(Node::<u64, u64>::new(1, 1, 4, 0, 0));
            drop(crossbeam_epoch::pin());
        }
        assert!(
            arena::recycle_hits(BlockKind::Node) > before,
            "node churn must recycle arena blocks"
        );
    }

    /// A value that counts its drops.
    #[derive(Clone)]
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Pin until `drops` reaches `expected`, then some more, and check it
    /// settled there exactly.
    fn assert_settles_at(drops: &AtomicUsize, expected: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(AtomicOrdering::Relaxed) < expected && Instant::now() < deadline {
            drop(crossbeam_epoch::pin());
        }
        for _ in 0..512 {
            drop(crossbeam_epoch::pin());
        }
        assert_eq!(drops.load(AtomicOrdering::Relaxed), expected);
    }

    #[test]
    fn value_cells_drop_once_in_key_nodes_and_never_in_sentinels() {
        let drops = Arc::new(AtomicUsize::new(0));
        let counted = || Counted(Arc::clone(&drops));
        let keys: Vec<_> = (1..=8u64)
            .map(|key| Node::new(key, counted(), key as usize, 0, 0))
            .collect();
        drop(keys);
        drop(SkipList::<u64, Counted>::new(8));
        assert_settles_at(&drops, 8);

        // A committed overwrite displaces the old value, which goes once;
        // the new one goes with its node.
        let stm = Stm::new();
        let node = Node::new(9, counted(), 2, 0, 0);
        stm.run(|tx| node_of(node.raw()).value().write(tx, counted()));
        assert_settles_at(&drops, 9);
        drop(node);
        assert_settles_at(&drops, 10);
    }

    #[test]
    fn node_drop_releases_heap_values() {
        // String keys/values exercise the free's drop_in_place across
        // header and tower; run enough cycles for blocks to recycle so a
        // leak or double free would trip ASan / the drop balance elsewhere.
        for i in 0..500u64 {
            let n = Node::<String, String>::new(format!("k{i}"), format!("v{i}"), 3, 0, 0);
            assert_eq!(*node_of(n.raw()).key(), format!("k{i}"));
            drop(n);
        }
    }
}
