//! Recycled buffers for the transactional hash map's bucket chains.
//!
//! The hash map's buckets are copy-on-write: every update clones the
//! bucket's chain, modifies the clone and writes it back, and the displaced
//! chain is dropped through the epoch.  [`Chain`] is a `Vec<(K, T)>`
//! replacement whose buffer is a block of [`skiphash_stm::arena`], the
//! size-classed recycler, so steady-state map operations cycle the same
//! handful of blocks instead of making two global-allocator round trips per
//! update.
//!
//! Capacity is negotiated with the arena up front ([`arena::class_size`])
//! and remembered, so the alloc/free pair is trivially consistent and a
//! chain always owns its class's full capacity.
//! Clones allocate the same number of bytes as their source; per-bucket
//! capacity therefore stabilizes at the chain's historical maximum, which is
//! exactly what keeps clone→retire→clone cycles inside one class's pool.
//!
//! Pairs aligned beyond what the arena pools transparently fall back to the
//! global allocator (the arena makes that call); zero-sized pairs never
//! allocate at all.

use std::fmt;
use std::mem;
use std::ptr::{self, NonNull};

use skiphash_stm::arena::{self, BlockKind};

/// A fixed-capacity-by-class growable buffer of `(K, T)` pairs — the bucket
/// chain representation of [`crate::TxHashMap`].
pub(crate) struct Chain<K, T> {
    ptr: NonNull<(K, T)>,
    len: usize,
    /// Bytes obtained from the arena (0 = nothing allocated).  Passed back
    /// verbatim on free; capacity is derived from it.
    alloc_bytes: usize,
}

// SAFETY: a Chain owns its buffer exclusively, exactly like Vec<(K, T)>.
unsafe impl<K: Send, T: Send> Send for Chain<K, T> {}
unsafe impl<K: Sync, T: Sync> Sync for Chain<K, T> {}

impl<K, T> Chain<K, T> {
    const ELEM: usize = mem::size_of::<(K, T)>();
    const ALIGN: usize = mem::align_of::<(K, T)>();

    /// An empty chain; allocates nothing.
    pub(crate) fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
            alloc_bytes: 0,
        }
    }

    /// Number of pairs in the chain.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the chain holds no pairs.
    #[cfg_attr(not(test), allow(dead_code))] // used by tests and kept for API symmetry
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn capacity(&self) -> usize {
        self.alloc_bytes
            .checked_div(Self::ELEM)
            .unwrap_or(usize::MAX)
    }

    /// The pairs as a slice.
    pub(crate) fn as_slice(&self) -> &[(K, T)] {
        // SAFETY: the first `len` slots are initialized; for ZST pairs the
        // dangling pointer is valid for any length.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [(K, T)] {
        // SAFETY: as `as_slice`, plus `&mut self` grants exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Iterate over the pairs.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (K, T)> {
        self.as_slice().iter()
    }

    /// Iterate mutably over the pairs.
    #[cfg_attr(not(test), allow(dead_code))] // used by tests and kept for API symmetry
    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, (K, T)> {
        self.as_mut_slice().iter_mut()
    }

    /// Allocate a buffer of exactly `bytes` (a value previously produced by
    /// [`arena::class_size`], or any size for the fallback paths).
    fn buffer_for(bytes: usize) -> NonNull<(K, T)> {
        let raw = arena::alloc_raw(bytes, Self::ALIGN, BlockKind::Chain);
        // SAFETY: the arena never returns null (it aborts on OOM).
        unsafe { NonNull::new_unchecked(raw.cast()) }
    }

    #[cold]
    fn grow(&mut self) {
        debug_assert!(Self::ELEM > 0, "ZST chains never grow");
        let needed = Self::ELEM * (self.len + 1);
        // From one class the next request lands in a strictly larger class;
        // beyond the largest class, fall back to doubling for geometric
        // growth.
        let min_bytes = needed.max(self.alloc_bytes.saturating_add(1));
        let new_bytes = arena::class_size(min_bytes, Self::ALIGN)
            .unwrap_or_else(|| needed.max(self.alloc_bytes.saturating_mul(2)));
        let new_ptr = Self::buffer_for(new_bytes);
        if self.alloc_bytes > 0 {
            // SAFETY: both buffers are live and disjoint; the first `len`
            // source slots are initialized and become logically uninitialized
            // (moved) after the copy.
            unsafe {
                ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                arena::free_raw(self.ptr.as_ptr().cast(), self.alloc_bytes, Self::ALIGN);
            }
        }
        self.ptr = new_ptr;
        self.alloc_bytes = new_bytes;
    }

    /// Append a pair.
    pub(crate) fn push(&mut self, pair: (K, T)) {
        if Self::ELEM > 0 && self.len == self.capacity() {
            self.grow();
        }
        // SAFETY: slot `len` is within capacity and uninitialized.
        unsafe { self.ptr.as_ptr().add(self.len).write(pair) };
        self.len += 1;
    }

    /// Mutable access to the value of the pair at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub(crate) fn value_mut(&mut self, index: usize) -> &mut T {
        &mut self.as_mut_slice()[index].1
    }

    /// Remove and return the pair at `index`, replacing it with the last
    /// pair (like `Vec::swap_remove`).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub(crate) fn swap_remove(&mut self, index: usize) -> (K, T) {
        assert!(index < self.len, "swap_remove index out of bounds");
        self.len -= 1;
        // SAFETY: both slots were initialized; after the read/move, slot
        // `len` is logically uninitialized and outside the live prefix.
        unsafe {
            let removed = self.ptr.as_ptr().add(index).read();
            if index != self.len {
                let last = self.ptr.as_ptr().add(self.len).read();
                self.ptr.as_ptr().add(index).write(last);
            }
            removed
        }
    }
}

impl<K: PartialEq, T> Chain<K, T> {
    /// Linear-probe the chain for `key`, returning its slot index.
    ///
    /// This is the one scan loop behind every `TxHashMap` bucket operation
    /// (get/contains/insert/upsert/remove).  Chains keep their pairs in one
    /// dense forward array — grouped, never linked — precisely so this probe
    /// is a streaming scan the hardware prefetcher likes; for chains long
    /// enough to span cache lines we also issue an explicit software
    /// prefetch one line ahead, so the next line's miss overlaps the key
    /// comparisons in the current one (same policy as the skip-list level-0
    /// scan; see docs/PERF.md, Mechanism 6).
    pub(crate) fn probe(&self, key: &K) -> Option<usize> {
        const LINE_BYTES: usize = 64;
        // Pairs per cache line (floor 1 for pairs larger than a line).
        let stride = (LINE_BYTES / Self::ELEM.max(1)).max(1);
        let slice = self.as_slice();
        for (index, (k, _)) in slice.iter().enumerate() {
            if index % stride == 0 && index + stride < slice.len() {
                skiphash_stm::sync::prefetch_read(std::ptr::from_ref(&slice[index + stride]));
            }
            if k == key {
                return Some(index);
            }
        }
        None
    }
}

impl<K: Clone, T: Clone> Clone for Chain<K, T> {
    fn clone(&self) -> Self {
        // `alloc_bytes == 0` means either an empty chain (non-ZST pairs hold
        // no elements without a buffer) or a ZST chain of any length; the
        // element-clone loop below must still run for the latter so `Clone`
        // and `Drop` stay balanced per element.
        let ptr = if self.alloc_bytes == 0 {
            NonNull::dangling()
        } else {
            Self::buffer_for(self.alloc_bytes)
        };
        let mut clone = Self {
            ptr,
            len: 0,
            alloc_bytes: self.alloc_bytes,
        };
        for (index, pair) in self.as_slice().iter().enumerate() {
            // SAFETY: `index` is within the freshly allocated capacity (the
            // clone has the same alloc_bytes as the source); for ZST pairs
            // the dangling pointer is valid for writes at any index.
            unsafe { clone.ptr.as_ptr().add(index).write(pair.clone()) };
            // Track length as we go so a panicking `clone()` drops the pairs
            // already written (and the buffer) instead of leaking them.
            clone.len = index + 1;
        }
        clone
    }
}

impl<K, T> Drop for Chain<K, T> {
    fn drop(&mut self) {
        // SAFETY: the live prefix is initialized; the buffer came from
        // `buffer_for(alloc_bytes)` when alloc_bytes > 0.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len));
            if self.alloc_bytes > 0 {
                arena::free_raw(self.ptr.as_ptr().cast(), self.alloc_bytes, Self::ALIGN);
            }
        }
    }
}

impl<K: fmt::Debug, T: fmt::Debug> fmt::Debug for Chain<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iter_swap_remove_round_trip() {
        let mut chain: Chain<u64, String> = Chain::new();
        assert!(chain.is_empty());
        for i in 0..20u64 {
            chain.push((i, format!("v{i}")));
        }
        assert_eq!(chain.len(), 20);
        let keys: Vec<u64> = chain.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..20).collect::<Vec<_>>());
        let (k, v) = chain.swap_remove(0);
        assert_eq!((k, v.as_str()), (0, "v0"));
        assert_eq!(chain.len(), 19);
        assert_eq!(chain.as_slice()[0].0, 19, "last pair swapped into the hole");
        // Remove everything, in arbitrary order.
        while !chain.is_empty() {
            chain.swap_remove(chain.len() - 1);
        }
    }

    #[test]
    fn clone_is_deep_and_preserves_capacity_class() {
        let mut chain: Chain<u64, u64> = Chain::new();
        for i in 0..10 {
            chain.push((i, i * 2));
        }
        let copy = chain.clone();
        assert_eq!(copy.as_slice(), chain.as_slice());
        assert_eq!(copy.alloc_bytes, chain.alloc_bytes);
        drop(chain);
        assert_eq!(copy.len(), 10, "clone survives the source");
    }

    #[test]
    fn buffers_are_recycled_through_the_arena() {
        let before = arena::recycle_hits(BlockKind::Chain);
        for _ in 0..64 {
            let mut chain: Chain<u64, u64> = Chain::new();
            chain.push((1, 1));
            let copy = chain.clone();
            drop(chain);
            drop(copy);
        }
        assert!(
            arena::recycle_hits(BlockKind::Chain) > before,
            "chain churn must recycle arena blocks"
        );
    }

    #[test]
    fn probe_finds_keys_across_cache_lines() {
        // Pairs of 16 bytes: four per line, so a 40-element chain spans ten
        // lines and exercises the probe's line-ahead prefetch arm.
        let mut chain: Chain<u64, u64> = Chain::new();
        assert_eq!(chain.probe(&0), None, "empty chain probes clean");
        for i in 0..40u64 {
            chain.push((i, i * 3));
        }
        for i in 0..40u64 {
            let index = chain.probe(&i).expect("every pushed key is found");
            assert_eq!(chain.as_slice()[index], (i, i * 3));
        }
        assert_eq!(chain.probe(&999), None);
        // Probe agrees with value_mut: update through the probed slot.
        let index = chain.probe(&7).unwrap();
        *chain.value_mut(index) = 0;
        assert_eq!(chain.as_slice()[index], (7, 0));
    }

    #[test]
    fn iter_mut_updates_in_place() {
        let mut chain: Chain<u64, u64> = Chain::new();
        chain.push((1, 10));
        chain.push((2, 20));
        if let Some(slot) = chain.iter_mut().find(|(k, _)| *k == 2) {
            slot.1 = 99;
        }
        assert_eq!(chain.as_slice()[1], (2, 99));
    }

    #[test]
    fn drop_releases_heap_pairs_exactly_once() {
        use skiphash_stm::sync::{AtomicUsize, Ordering};
        use std::sync::Arc;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct Counted(#[allow(dead_code)] Arc<()>);
        impl Drop for Counted {
            fn drop(&mut self) {
                // SC: test drop counter — strongest ordering, not perf-sensitive.
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let token = Arc::new(());
        let mut chain: Chain<u64, Counted> = Chain::new();
        for i in 0..8 {
            chain.push((i, Counted(Arc::clone(&token))));
        }
        let copy = chain.clone();
        let popped = chain.swap_remove(3);
        drop(popped);
        drop(chain);
        drop(copy);
        // SC: test drop counter read.
        assert_eq!(DROPS.load(Ordering::SeqCst), 16);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn growth_crosses_classes() {
        let mut chain: Chain<u64, [u8; 56]> = Chain::new(); // 64-byte pairs
        for i in 0..200u64 {
            chain.push((i, [0; 56]));
        }
        assert_eq!(chain.len(), 200);
        assert!(chain.alloc_bytes >= 200 * 64, "oversize growth still works");
        let keys: Vec<u64> = chain.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..200).collect::<Vec<_>>());
    }
}
