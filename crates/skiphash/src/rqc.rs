//! The range query coordinator (RQC).
//!
//! Slow-path range queries cannot run as a single transaction, so they need
//! help ignoring nodes inserted after they began and keeping nodes removed
//! after they began alive until they finish.  The RQC provides both:
//!
//! * it hands out monotonically increasing **version numbers** — one per
//!   slow-path range query — and reports the latest version to elemental
//!   operations so they can stamp nodes with `i_time`/`r_time`;
//! * it tracks the set of **in-flight slow-path range queries** and accepts
//!   custody of logically deleted nodes whose physical unstitching must be
//!   deferred until the queries that may still need them have finished.
//!
//! The concrete representation follows Figure 4 of the paper: a counter plus
//! a list of `range_op` records, each carrying its version and a list of
//! deferred nodes.  §4.5's per-thread removal buffer is implemented by
//! [`DeferralBuffer`].

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use skiphash_stm::{TCell, TxResult, Txn};

use crate::node::RawNode;
use crate::{MapKey, MapValue};

/// Metadata for one in-flight slow-path range query.
pub struct RangeOp<K, V> {
    /// The query's version number.
    pub ver: u64,
    /// Logically deleted nodes whose unstitching is deferred until this query
    /// (or one of its predecessors) completes.  They are still on the list,
    /// which owns them; whoever takes them out of here unstitches them.
    pub deferred: TCell<Vec<RawNode<K, V>>>,
}

impl<K, V> fmt::Debug for RangeOp<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeOp").field("ver", &self.ver).finish()
    }
}

/// The range query coordinator.
pub struct Rqc<K, V> {
    counter: TCell<u64>,
    range_ops: TCell<Vec<Arc<RangeOp<K, V>>>>,
}

impl<K, V> fmt::Debug for Rqc<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rqc").finish()
    }
}

impl<K: MapKey, V: MapValue> Default for Rqc<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MapKey, V: MapValue> Rqc<K, V> {
    /// Create a coordinator with no registered range queries.
    pub fn new() -> Self {
        Self {
            counter: TCell::new(0),
            range_ops: TCell::new(Vec::new()),
        }
    }

    /// Register a new slow-path range query and return its unique version
    /// number (`on_range` in the paper).
    pub fn on_range(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        let version = self.counter.read(tx)? + 1;
        self.counter.write(tx, version)?;
        let mut ops = self.range_ops.read(tx)?;
        ops.push(Arc::new(RangeOp {
            ver: version,
            deferred: TCell::new(Vec::new()),
        }));
        self.range_ops.write(tx, ops)?;
        Ok(version)
    }

    /// Report the most recent range query's version number to an elemental
    /// operation (`on_update` in the paper).  Elemental operations reuse this
    /// value rather than incrementing the counter, ordering themselves after
    /// the latest range query.
    pub fn on_update(&self, tx: &mut Txn<'_>) -> TxResult<u64> {
        self.counter.read(tx)
    }

    /// The latest version handed out (non-transactional; for tests and
    /// reporting).
    pub fn current_version(&self) -> u64 {
        self.counter.load_atomic()
    }

    /// Number of in-flight slow-path range queries (non-transactional; for
    /// tests and reporting).
    pub fn active_queries(&self) -> usize {
        self.range_ops.load_atomic().len()
    }

    /// True when a node inserted at `i_time` can be physically unstitched
    /// right away: either no slow-path range query is in flight, or the node
    /// was inserted after the most recent one began (so no in-flight query
    /// treats it as safe).
    pub fn can_unstitch_now(&self, tx: &mut Txn<'_>, i_time: u64) -> TxResult<bool> {
        // Read in place: every remove asks, so the list is not cloned (an
        // allocation and a shared-count RMW per in-flight query) to answer.
        self.range_ops.read_with(tx, |ops| {
            ops.last().is_none_or(|latest| i_time >= latest.ver)
        })
    }

    /// The most recent in-flight range query's record (one handle cloned,
    /// not the list).
    fn latest(&self, tx: &mut Txn<'_>) -> TxResult<Option<Arc<RangeOp<K, V>>>> {
        self.range_ops.read_with(tx, |ops| ops.last().cloned())
    }

    /// Hand an entire batch of nodes to the most recent in-flight range query
    /// (the per-thread buffer transfer from §4.5).  Returns `false` — leaving
    /// the batch untouched — when no query is in flight, in which case the
    /// caller unstitches the batch itself.
    pub fn defer_batch_to_latest(
        &self,
        tx: &mut Txn<'_>,
        batch: &[RawNode<K, V>],
    ) -> TxResult<bool> {
        match self.latest(tx)? {
            None => Ok(false),
            Some(latest) => {
                let mut deferred = latest.deferred.read(tx)?;
                deferred.extend_from_slice(batch);
                latest.deferred.write(tx, deferred)?;
                Ok(true)
            }
        }
    }

    /// Deregister the range query with version `ver` (`after_range` in the
    /// paper) and return the nodes the caller must now unstitch.
    ///
    /// If an older query is still in flight, the finishing query's deferred
    /// nodes are passed *backwards* to that query instead, and the returned
    /// vector is empty; every deferred node is therefore reclaimed
    /// eventually.
    pub fn after_range(&self, tx: &mut Txn<'_>, ver: u64) -> TxResult<Vec<RawNode<K, V>>> {
        let mut ops = self.range_ops.read(tx)?;
        let index = ops
            .iter()
            .position(|op| op.ver == ver)
            .expect("after_range called for an unregistered version");
        let op = ops.remove(index);
        let deferred = op.deferred.read(tx)?;
        let mut to_unstitch = Vec::new();
        if index == 0 {
            // We were the oldest in-flight query: its deferred nodes are no
            // longer needed by anyone.
            to_unstitch = deferred;
        } else if !deferred.is_empty() {
            // An older query remains; push our deferred nodes back to it.
            let predecessor = &ops[index - 1];
            let mut inherited = predecessor.deferred.read(tx)?;
            inherited.extend(deferred);
            predecessor.deferred.write(tx, inherited)?;
        }
        self.range_ops.write(tx, ops)?;
        Ok(to_unstitch)
    }
}

/// §4.5's per-thread buffer of logically deleted nodes awaiting deferral.
///
/// Threads push removed nodes into their own slot; when a slot reaches the
/// configured capacity the whole batch is handed to the RQC (or unstitched
/// directly when no slow-path range query is in flight).  This turns the
/// per-removal write to the RQC's shared `deferred` list into one write per
/// `capacity` removals.
///
/// The slot table is sized by [`crate::thread_table_size`] and indexed by
/// [`crossbeam_epoch::thread_index`], which is dense over live threads, so
/// distinct live threads never contend on the same slot while they fit the
/// table.
pub struct DeferralBuffer<K, V> {
    slots: Vec<Mutex<DeferredBatch<K, V>>>,
    capacity: usize,
}

/// A batch of logically deleted nodes awaiting physical unstitching, still
/// on the list, which owns them.
pub type DeferredBatch<K, V> = Vec<RawNode<K, V>>;

impl<K, V> fmt::Debug for DeferralBuffer<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeferralBuffer")
            .field("slots", &self.slots.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: MapKey, V: MapValue> DeferralBuffer<K, V> {
    /// Create a buffer whose per-thread slots flush at `capacity` nodes.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..crate::thread_table_size())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            capacity,
        }
    }

    /// Flush threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of per-thread slots (a power of two).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Add `node` to the calling thread's slot.  Returns the full batch when
    /// the slot reached capacity and must now be handed to the RQC.
    pub fn push(&self, node: RawNode<K, V>) -> Option<DeferredBatch<K, V>> {
        // Thread indices are dense over live threads, so the mask only folds
        // them when more threads are alive than the table has slots.
        let slot = &self.slots[crossbeam_epoch::thread_index() & (self.slots.len() - 1)];
        let mut pending = slot.lock();
        pending.push(node);
        if pending.len() >= self.capacity {
            Some(std::mem::take(&mut *pending))
        } else {
            None
        }
    }

    /// Remove and return every buffered node from every slot (used at
    /// teardown and by tests).
    pub fn drain_all(&self) -> DeferredBatch<K, V> {
        let mut all = Vec::new();
        for slot in &self.slots {
            all.append(&mut slot.lock());
        }
        all
    }

    /// Total number of buffered nodes across all slots.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no node is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, OwnedNode};
    use skiphash_stm::Stm;
    use std::sync::Mutex;

    /// A node's handle, for lists that only carry it around; its owner lives
    /// until the test process ends.
    fn node(key: u64) -> RawNode<u64, u64> {
        static OWNERS: Mutex<Vec<OwnedNode<u64, u64>>> = Mutex::new(Vec::new());
        let owner = Node::new(key, key, 1, 0, 0);
        let node = owner.raw();
        OWNERS.lock().unwrap().push(owner);
        node
    }

    #[test]
    fn on_range_increments_and_on_update_reuses() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        assert_eq!(stm.run(|tx| rqc.on_update(tx)), 0);
        let v1 = stm.run(|tx| rqc.on_range(tx));
        assert_eq!(v1, 1);
        assert_eq!(stm.run(|tx| rqc.on_update(tx)), 1);
        let v2 = stm.run(|tx| rqc.on_range(tx));
        assert_eq!(v2, 2);
        assert_eq!(rqc.current_version(), 2);
        assert_eq!(rqc.active_queries(), 2);
    }

    #[test]
    fn unstitch_allowed_when_no_query_active() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        assert!(stm.run(|tx| rqc.can_unstitch_now(tx, 0)));
    }

    #[test]
    fn unstitch_deferred_for_older_nodes_while_query_active() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        let ver = stm.run(|tx| rqc.on_range(tx));
        assert!(
            !stm.run(|tx| rqc.can_unstitch_now(tx, 0)),
            "inserted before"
        );
        assert!(
            stm.run(|tx| rqc.can_unstitch_now(tx, ver)),
            "inserted after"
        );
    }

    #[test]
    fn after_range_returns_deferred_nodes_when_oldest() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        let ver = stm.run(|tx| rqc.on_range(tx));
        let n = node(1);
        assert!(stm.run(|tx| rqc.defer_batch_to_latest(tx, &[n])));
        let removals = stm.run(|tx| rqc.after_range(tx, ver));
        assert!(removals == vec![n]);
        assert_eq!(rqc.active_queries(), 0);
    }

    #[test]
    fn after_range_passes_deferred_backwards_to_older_query() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        let v1 = stm.run(|tx| rqc.on_range(tx));
        let v2 = stm.run(|tx| rqc.on_range(tx));
        let n = node(1);
        assert!(stm.run(|tx| rqc.defer_batch_to_latest(tx, &[n])));
        // Finishing the newer query must not release the node...
        let removals = stm.run(|tx| rqc.after_range(tx, v2));
        assert!(removals.is_empty());
        assert_eq!(rqc.active_queries(), 1);
        // ...but finishing the older one must.
        let removals = stm.run(|tx| rqc.after_range(tx, v1));
        assert!(removals == vec![n]);
    }

    #[test]
    fn batch_deferral_prefers_latest_query() {
        let stm = Stm::new();
        let rqc: Rqc<u64, u64> = Rqc::new();
        let batch = vec![node(1), node(2)];
        // Without a query in flight the batch is not accepted.
        assert!(!stm.run(|tx| rqc.defer_batch_to_latest(tx, &batch)));
        let ver = stm.run(|tx| rqc.on_range(tx));
        assert!(stm.run(|tx| rqc.defer_batch_to_latest(tx, &batch)));
        let removals = stm.run(|tx| rqc.after_range(tx, ver));
        assert_eq!(removals.len(), 2);
    }

    #[test]
    fn deferral_buffer_flushes_at_capacity() {
        let buffer: DeferralBuffer<u64, u64> = DeferralBuffer::new(3);
        assert!(buffer.is_empty());
        assert!(buffer.push(node(1)).is_none());
        assert!(buffer.push(node(2)).is_none());
        let batch = buffer.push(node(3)).expect("third push must flush");
        assert_eq!(batch.len(), 3);
        assert!(buffer.is_empty());
        assert!(buffer.push(node(4)).is_none());
        assert_eq!(buffer.drain_all().len(), 1);
    }

    #[test]
    fn live_threads_never_share_a_buffer_slot() {
        use std::sync::Barrier;
        // Capacity 2 turns any slot collision into an observable flush: if
        // two live threads mapped to the same slot, the second push would
        // return a full batch.  All pushes returning `None` proves the slot
        // assignment is collision-free.
        let threads = 16;
        let buffer: Arc<DeferralBuffer<u64, u64>> = Arc::new(DeferralBuffer::new(2));
        assert!(threads <= buffer.slot_count());
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = Arc::clone(&buffer);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let index = crossbeam_epoch::thread_index();
                    let flushed = buffer.push(node(t as u64));
                    // Keep the thread (and its index) alive until every
                    // thread has pushed.
                    barrier.wait();
                    (index, flushed.is_none())
                })
            })
            .collect();
        let results: Vec<(usize, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The no-collision guarantee holds while live indices fit the table;
        // other tests in this process hold indices too, so skip the assertion
        // in the (pathological) case where the process is so oversubscribed
        // that this test's workers were handed indices beyond the table and
        // the mask legitimately folds them.
        if results
            .iter()
            .all(|(index, _)| *index < buffer.slot_count())
        {
            for (index, no_flush) in &results {
                assert!(
                    no_flush,
                    "two live threads were assigned the same deferral slot (index {index})"
                );
            }
        }
        assert_eq!(buffer.drain_all().len(), threads);
    }

    #[test]
    fn buffer_capacity_is_at_least_one() {
        let buffer: DeferralBuffer<u64, u64> = DeferralBuffer::new(0);
        assert_eq!(buffer.capacity(), 1);
        assert!(buffer.push(node(1)).is_some());
    }
}
