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
//! | reader | a read is | it can fail with | hints |
//! |--------|-----------|------------------|-------|
//! | [`Txn`] | a validated transactional read (`read_with`) | [`TxAbort`] | the link's current word, unvalidated and unrecorded (`peek_unvalidated`): the descent hops on it, the scout runs on it |
//! | [`PinnedReader`] | the cell's value at the pinned version, under the epoch guard the reader holds and re-pins itself | nothing ([`Infallible`]) | none: every hop is a read, and the walk has no scout |
//!
//! A *hint* ([`Reader::hint`]) is a link's word read with no validation
//! and no read-set entry.  Hints steer the [`descend`]'s hops (below) and
//! the [`walk`]'s scout, which prefetches along the level-1 list ahead of
//! the walk.  No result of a traversal depends on a hint that validated
//! reads have not confirmed.
//!
//! # The optimistic descent
//!
//! A descent through a reader that gives hints hops on them, and reads
//! through the STM only where it lands at the levels its caller keeps — the
//! unsynchronised search of the lazy skip list (Herlihy, Lev, Luchangco and
//! Shavit, SIROCCO 2007), which elastic transactions (Felber, Gramoli and
//! Guerraoui, DISC 2009) carry into STM.  At each kept level it *confirms*
//! the pair it landed between with two validated reads: `pred`'s link at
//! that level designates `succ`, and `succ`'s designates `pred`.  A
//! confirmed pair is adjacent and linked at that level in the attempt's
//! snapshot (the list at its read version `rv`, plus its own writes), so it
//! is the pair a validated descent lands on:
//!
//! * Keys are immutable, so a bound comparison made on a hinted node holds
//!   whatever its links have done since.
//! * The pred side alone is not enough.  An unstitched node keeps its own
//!   links, because a paused slow-path range query needs them, so
//!   `pred → succ` can still read true for a `pred` that is gone.  Its
//!   successor's `pred` link no longer points back.
//! * The succ side alone is not enough.  A node inserted after `rv` has
//!   cells stamped at its inserter's read version (`Node::new(..,
//!   tx.read_version())`), which can be `<= rv`, so a validated read of the
//!   fresh node's own links passes.
//! * Both sides are.  Of the two links, the one on the *other* node was
//!   written by the commit that linked the pair, so for a pair linked after
//!   `rv` that side carries a version above `rv` and its validated read
//!   aborts.  And an unstitched node never forms a pair again, because it is
//!   never relinked.
//!
//! A *miss* — a confirm that reads another node or would abort, or a hint
//! that finds no link — re-runs the whole descent with validated reads,
//! exactly as a reader without hints descends.  A miss never aborts on its
//! own account: hints show committed words only, so an attempt whose own
//! buffered writes sit at the bound (a composed body inserting adjacent
//! keys, or removing and re-inserting one) misses every confirm, and
//! aborting would retry that body forever.  A real race lands in the
//! validated pass, which aborts where the race is.
//!
//! A hinted pass ends: successor links only point forward, an unstitched
//! node is never relinked (so the links it keeps point forward too), and
//! every level ends at the tail, which no bound precedes.
//!
//! # The borrowed-handle contract
//!
//! Both functions hop on [`RawNode`]s — bare block pointers that count
//! nothing — so a hop costs no atomic read-modify-write.  A handle obtained
//! through a reader is valid **for as long as that reader's protection
//! lasts**, and every `unsafe` dereference in this module and in the callers
//! that keep a returned handle rests on one of two arguments:
//!
//! * **[`Txn`]**: the attempt's epoch guard stays pinned until the attempt
//!   ends, and a node is retired only by the commit that unlinks it, then
//!   freed only two grace periods later (the lifetime rules in
//!   [`crate::node`]).  A link word loaded under the pin, whether read
//!   through [`Reader::link`] or hinted through [`Reader::hint`], designates
//!   a node that was still linked, or retired while the attempt was
//!   already pinned, or reachable only through a commit still installing its
//!   writes — and in each case it outlives the attempt, validated or not:
//!   the descent's hinted hops, the scout's, and the links read from a
//!   hinted node are all covered.  A hinted link at level `l` designates a
//!   node with a level `l` (or the tail, which has every level), just as a
//!   read one does.
//! * **[`PinnedReader`]**: a node the pinned version can reach was linked
//!   at that version, so its unlinking commit's window `[born, wv)` holds
//!   the pin, and the commit hands it to the pin's custody instead of the
//!   epoch; the links that led to it are preserved the same way.  So every
//!   node reachable at the pinned version stays allocated until the pin is
//!   dropped.  That covers what was reachable at the pinned version, not
//!   what the links point to now, and the reader's epoch guard covers only
//!   the read in progress (it re-pins between reads): a pinned reader gives
//!   no hints.
//!
//! A walk may also start from a node whose owner keeps it for the whole
//! walk (the slow path's resume cursor, a safe node whose unstitching the
//! range query coordinator defers until the query ends); each hop from it is
//! covered by the reader as above.
//!
//! # The interleaved pinned walk
//!
//! A full scan at a pinned version ([`collect_interleaved`], behind
//! `Snapshot::to_vec` and so every checkpoint) is a chain of dependent cache
//! misses if one cursor walks it: each hop's address is in the line the
//! previous hop misses on.  The pinned list cannot change and a pinned read
//! cannot abort, so the walk can instead cut level 0 into segments and keep
//! several cursors in flight, one per segment, advancing them round-robin
//! and prefetching each one's next node, so their misses overlap
//! (asynchronous memory access chaining: Kocberber et al., VLDB 2015).
//! Segments are cut at the nodes an upper level links at the pinned
//! version.  Every hop is still a pinned read and every handle is still
//! covered by the pin's custody, as in the plain walk, so the walk needs no
//! hint.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;

use skiphash_stm::{PinnedReader, TCell, TxAbort, Txn};

use crate::node::{Bound, Level, Link, Node, RawNode};
use crate::skiplist::{SkipList, MAX_LEVEL_LIMIT};
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

    /// The node a link cell designates right now, for a prefetch: never
    /// validated, never recorded, never a reason to abort — and `None` where
    /// the reader gives no hints (or the link is absent, past the tail).
    fn hint(&mut self, cell: &TCell<Link<K, V>>) -> Option<RawNode<K, V>>;
}

// `inline(always)`: these are the bodies of the descent's and the walk's
// loops.  Left to the inliner's judgement they became calls in some
// instantiations, and a call per read cost the fast path ~10% (probe: range
// of 100 pairs 226 -> 250 ns/pair, `ceil` 2.16 -> 2.36 us at 200k keys).
impl<K: MapKey, V: MapValue> Reader<K, V> for Txn<'_> {
    type Abort = TxAbort;

    #[inline(always)]
    fn link(&mut self, cell: &TCell<Link<K, V>>) -> Result<RawNode<K, V>, TxAbort> {
        Ok(cell
            .read_with(self, |link| *link)?
            .expect("links are terminated by the sentinels"))
    }

    #[inline(always)]
    fn removed(&mut self, node: &Node<K, V>) -> Result<bool, TxAbort> {
        node.r_time.read_with(self, Option::is_some)
    }

    #[inline(always)]
    fn value(&mut self, node: &Node<K, V>) -> Result<V, TxAbort> {
        node.value().read_with(self, V::clone)
    }

    #[inline(always)]
    fn hint(&mut self, cell: &TCell<Link<K, V>>) -> Option<RawNode<K, V>> {
        self.peek_unvalidated(cell, |link| *link)
    }
}

// `inline(always)` for the same reason: the pinned walks' loop bodies.
impl<K: MapKey, V: MapValue> Reader<K, V> for PinnedReader<'_> {
    type Abort = Infallible;

    #[inline(always)]
    fn link(&mut self, cell: &TCell<Link<K, V>>) -> Result<RawNode<K, V>, Infallible> {
        Ok(self
            .read(cell, |link| *link)
            .expect("links are terminated by the sentinels"))
    }

    #[inline(always)]
    fn removed(&mut self, node: &Node<K, V>) -> Result<bool, Infallible> {
        Ok(self.read(&node.r_time, Option::is_some))
    }

    #[inline(always)]
    fn value(&mut self, node: &Node<K, V>) -> Result<V, Infallible> {
        Ok(self.read(node.value(), V::clone))
    }

    /// None: see the module docs' pinned contract.
    #[inline(always)]
    fn hint(&mut self, _cell: &TCell<Link<K, V>>) -> Option<RawNode<K, V>> {
        None
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
/// is also where an insert of `k` belongs.  The caller keeps the bottom
/// `keep` levels (level 0 always, whose successor is the landing): once the
/// descent is done, `per_level(level, pred, succ)` is called for each of
/// them, from the top one down, with the last node below the bound at that
/// level and its successor there.  An unbounded start has no tower to
/// descend and reports level 0 only.
///
/// Through a reader that gives hints the descent hops on them and confirms
/// the kept levels' pairs with validated reads, re-running with validated
/// hops on a miss (see the module docs); the other levels cost no read-set
/// entry.  Each hop's candidate is prefetched before its key is compared:
/// the header line, which holds the key, the tower's first line, which holds
/// level 0's link, and the line holding the link at the hop's own level,
/// which the next hop at that level reads (for small keys a later line
/// than level 0's from level 1 up).
pub(crate) fn descend<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
    keep: usize,
    mut per_level: impl FnMut(usize, RawNode<K, V>, RawNode<K, V>),
) -> Result<RawNode<K, V>, R::Abort> {
    let levels = match start {
        StdBound::Unbounded => 1,
        _ => list.max_level(),
    };
    let keep = keep.clamp(1, levels);
    let head = list.head();
    let mut kept = [(head, head); MAX_LEVEL_LIMIT];
    let mut hinted = true;
    let landed = 'pass: loop {
        let mut pred = head;
        let mut curr = head;
        for level in (0..levels).rev() {
            loop {
                // SAFETY: `pred` is the head sentinel (owned by `list`) or was
                // reached through `reader`, validated or not — the module's
                // borrowed-handle contract.
                let links = &pred.tower(unsafe { pred.node() })[level];
                let hop = if hinted {
                    reader.hint(&links.succ)
                } else {
                    Some(reader.link(&links.succ)?)
                };
                let Some(next) = hop else {
                    hinted = false;
                    continue 'pass;
                };
                curr = next;
                curr.prefetch_to(level);
                // SAFETY: `curr` was just reached through `reader`, validated
                // or not (same contract).
                let node = unsafe { curr.node() };
                if precedes(&node.bound, start) {
                    pred = curr;
                    continue;
                }
                if level < keep {
                    let back = &curr.tower(node)[level].pred;
                    if hinted && !confirmed(reader, &links.succ, back, pred, curr) {
                        hinted = false;
                        continue 'pass;
                    }
                    kept[level] = (pred, curr);
                }
                break;
            }
        }
        break curr;
    };
    for (level, &(pred, succ)) in kept[..keep].iter().enumerate().rev() {
        per_level(level, pred, succ);
    }
    Ok(landed)
}

/// The confirm of a hinted landing between `pred` and `succ` at one level
/// (see the module docs): `pred`'s link there designates `succ`, and
/// `succ`'s designates `pred`, both as validated reads.  A read that would
/// abort is a miss like any other.  `model_mutation` builds skip the
/// confirm, so the model suite can show that a stale landing is then
/// reported (docs/VERIFICATION.md).
#[inline(always)]
fn confirmed<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    pred_to_succ: &TCell<Link<K, V>>,
    succ_to_pred: &TCell<Link<K, V>>,
    pred: RawNode<K, V>,
    succ: RawNode<K, V>,
) -> bool {
    cfg!(model_mutation)
        || (reader.link(pred_to_succ).is_ok_and(|at| at == succ)
            && reader.link(succ_to_pred).is_ok_and(|at| at == pred))
}

/// The forward level-0 walk: call `visit` on `from` and on each successor
/// until it breaks or the tail sentinel is reached, and return the node the
/// walk stopped on.
///
/// The successor's link is read and the successor prefetched *before*
/// `visit` runs, so its cache miss overlaps the mark and value reads the
/// visitor does on the current node — the scan's dominant stall.  A
/// [`Scout`] runs further ahead along level 1, so the misses of the next
/// several nodes overlap too, instead of queueing one behind another.  It
/// steps only for a node the walk moves past: a walk that stops on its
/// first node — the `first_present` behind `ceil` and `succ` — would pay
/// the scout's start, a chain of dependent misses, for nothing.
///
/// # Safety
///
/// `from` must obey the module's borrowed-handle contract for `reader` (it
/// came out of [`descend`] or a previous walk through the same reader), or be
/// a node its owner keeps for the whole call (the slow path's cursor).
pub(crate) unsafe fn walk<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    from: RawNode<K, V>,
    mut visit: impl FnMut(&mut R, RawNode<K, V>, &Node<K, V>) -> Result<ControlFlow<()>, R::Abort>,
) -> Result<RawNode<K, V>, R::Abort> {
    let mut at = from;
    let mut scout = Scout {
        node: None,
        lead: 0,
    };
    loop {
        // SAFETY: `at` is `from` (the caller's obligation) or was read
        // through `reader` below — the module's borrowed-handle contract.
        let node = unsafe { at.node() };
        let tower = at.tower(node);
        if node.is_tail() {
            return Ok(at);
        }
        let next = reader.link(&tower[0].succ)?;
        next.prefetch();
        if visit(reader, at, node)?.is_break() {
            return Ok(at);
        }
        scout.step(reader, tower);
        at = next;
    }
}

/// How many level-1 nodes the [`Scout`] covers ahead of the walk.  4, 8
/// and 16 tie on 2,048-key windows; on 100-key windows, where a longer lead
/// prefetches past the range's end, 4 is at least as fast as either (see
/// docs/PERF.md, Mechanism 6).
const SCOUT_LEAD: usize = 4;

/// Jump-pointer prefetching for [`walk`] (Roth and Sohi, ISCA 1999), with
/// the skip list's level-1 links as the jump pointers: each time the walk
/// moves past a node, the scout follows the level-1 list until it is
/// [`SCOUT_LEAD`] level-1 nodes ahead, reading through [`Reader::hint`] and
/// prefetching each level-1 node it reaches and that node's level-0
/// successor.
///
/// Everything it loads is a hint: a concurrent commit can lead it astray,
/// which costs wasted cache fills, and it restarts from the walk's own
/// position whenever the walk catches up with it.
struct Scout<K, V> {
    /// The next level-1 node to cover; `None` before the walk's first
    /// level-1 node, past the tail, and for a reader that gives no hints.
    node: Option<RawNode<K, V>>,
    /// Level-1 nodes covered that the walk has not reached yet.
    lead: usize,
}

impl<K: MapKey, V: MapValue> Scout<K, V> {
    /// Step with the tower of the node the walk is on.
    #[inline(always)]
    fn step<R: Reader<K, V>>(&mut self, reader: &mut R, tower: &[Level<K, V>]) {
        if let Some(level1) = tower.get(1) {
            if self.lead == 0 {
                self.node = reader.hint(&level1.succ);
                if let Some(node) = self.node {
                    node.prefetch_to(1);
                }
            } else {
                self.lead -= 1;
            }
        }
        while self.lead < SCOUT_LEAD {
            let Some(node) = self.node else {
                return;
            };
            // SAFETY: `node` came out of `reader.hint` on a level-1 link —
            // the module's borrowed-handle contract — so it is alive and has
            // a level 1 (the tail's level-1 link is absent, which ends the
            // scout).
            let tower = node.tower(unsafe { node.node() });
            if let Some(succ) = reader.hint(&tower[0].succ) {
                succ.prefetch();
            }
            self.node = reader.hint(&tower[1].succ);
            if let Some(node) = self.node {
                node.prefetch_to(1);
            }
            self.lead += 1;
        }
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
    let from = descend(reader, list, start, 1, |_, _, _| {})?;
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

/// Cursors [`collect_interleaved`] keeps in flight.
const CURSORS: usize = 8;

/// The level whose nodes cut level 0 into [`collect_interleaved`]'s
/// segments: tower heights are geometric with p = 1/2, so about one node in
/// 2^6 = 64 reaches it (capped below a shorter list's top level).
const SEGMENT_LEVEL: usize = 6;

/// Segments [`collect_interleaved`] holds staged: the running ones plus the
/// finished ones still waiting for an earlier segment.  A cursor that
/// finishes while this many are held waits instead of starting another, so
/// staging stays bounded when one segment runs long.
const STAGED_SEGMENTS: usize = 4 * CURSORS;

/// One cursor of [`collect_interleaved`]: walking level 0 from `at` until it
/// reaches `end`, the first node of the next segment, staging what it
/// collects in segment number `segment`.  `end` is read on the segment's
/// first hop, from the start's tower.
struct SegmentCursor<K, V> {
    at: RawNode<K, V>,
    end: Option<RawNode<K, V>>,
    segment: usize,
}

/// Append to `out` every logically present `(key, value)` pair of `list` at
/// `reader`'s pinned version, in key order: what [`scan`] from an unbounded
/// start collects through the pin, with [`CURSORS`] segments walked at once
/// (see the module docs).
///
/// The first segment starts at the head.  Each one ends where the next
/// starts: at the node its start links at [`SEGMENT_LEVEL`] at the pin,
/// read on the segment's first hop, which hands that node to the next free
/// cursor; the segment that ends at the tail is the last.  A cursor stops
/// when its hop reaches its end node, which is exact because that node is
/// on level 0 at the pin, after every node of the segment: a tower's links
/// at all its levels are written by one commit (an insert stitches the
/// whole tower, `unstitch` replaces every link to it), a pinned read sees
/// either all of a commit or none of it, and so the node linked at the
/// upper level at the pin was linked at level 0 at the pin too, with the
/// upper level's order.
///
/// Each segment's pairs are staged in a buffer of their own and appended to
/// `out` once every earlier segment has been, so the pairs are copied once
/// more, out of a buffer that a few dozen pairs fill, never the whole scan.
/// Sizing `out` from the pinned population beforehand makes it the only
/// allocation the size of the result.
pub(crate) fn collect_interleaved<K: MapKey, V: MapValue>(
    reader: &mut PinnedReader<'_>,
    list: &SkipList<K, V>,
    out: &mut Vec<(K, V)>,
) {
    let level = SEGMENT_LEVEL.min(list.max_level() - 1);
    let tail = list.tail();
    let mut cursors: [Option<SegmentCursor<K, V>>; CURSORS] = std::array::from_fn(|_| None);
    // `staged[i]` holds segment `first_staged + i`'s pairs and whether its
    // cursor is done; `feed` starts the next segment to hand out.
    let mut staged: VecDeque<(Vec<(K, V)>, bool)> = VecDeque::with_capacity(STAGED_SEGMENTS);
    let mut first_staged = 0;
    let mut spare: Vec<Vec<(K, V)>> = Vec::new();
    let mut feed = Some(list.head());
    loop {
        let mut busy = false;
        for slot in &mut cursors {
            if slot.is_none() && staged.len() < STAGED_SEGMENTS {
                if let Some(start) = feed.take() {
                    *slot = Some(SegmentCursor {
                        at: start,
                        end: None,
                        segment: first_staged + staged.len(),
                    });
                    staged.push_back((spare.pop().unwrap_or_default(), false));
                }
            }
            let Some(cursor) = slot else {
                continue;
            };
            busy = true;
            // SAFETY: `cursor.at` is the head sentinel (owned by `list`) or
            // was read at the pin — the pinned half of the module's
            // borrowed-handle contract.
            let node = unsafe { cursor.at.node() };
            let tower = cursor.at.tower(node);
            let end = match cursor.end {
                Some(end) => end,
                // The segment's first hop: its start is the head or a node
                // linked at `level` at the pin, so its tower reaches `level`.
                None => {
                    let Ok(end) = reader.link(&tower[level].succ);
                    end.prefetch_to(level);
                    feed = (end != tail).then_some(end);
                    *cursor.end.insert(end)
                }
            };
            let Ok(next) = reader.link(&tower[0].succ);
            next.prefetch();
            let index = cursor.segment - first_staged;
            if !node.is_head() && reader.removed(node) == Ok(false) {
                let Ok(value) = reader.value(node);
                staged[index].0.push((node.key().clone(), value));
            }
            cursor.at = next;
            if next == end {
                staged[index].1 = true;
                *slot = None;
                while staged.front().is_some_and(|(_, done)| *done) {
                    let (mut pairs, _) = staged.pop_front().expect("a front segment");
                    out.append(&mut pairs);
                    spare.push(pairs);
                    first_staged += 1;
                }
            }
        }
        if !busy {
            debug_assert!(staged.is_empty() && feed.is_none());
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{collect, range_is_empty};
    use skiphash_stm::{SnapshotPin, Stm};
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use std::ops::Bound::{Excluded, Included, Unbounded};
    use std::ops::RangeBounds;
    use std::sync::Arc;

    /// A list holding logically deleted nodes that were marked but never
    /// unstitched — among them duplicates of re-inserted keys, which sit in
    /// front of the live node — with what a reader must see of it.
    ///
    /// Tower heights are fixed, so that a whole walk takes every branch of
    /// the scout under a transaction: it starts at 1, hits its lead cap at
    /// once, runs through a run of height-1 nodes (3, 5 and the lingering
    /// 7s), reaches the tail from 20 — a level-1 node right before it — and
    /// restarts from any start the probes give it.
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
            let insert = |key: u64, value: u64, height: usize| {
                stm.run(|tx| {
                    list.insert_after_logical_deletes(tx, key, value, height, 0, None)
                        .map(drop)
                });
            };
            let remove = |key: u64| {
                stm.run(|tx| {
                    scan(tx, &list, Included(&key), |tx, _, node| {
                        if tx.removed(node)? {
                            return Ok(ControlFlow::Continue(()));
                        }
                        assert_eq!(*node.key(), key);
                        node.mark_removed(tx, 1)?;
                        Ok(ControlFlow::Break(()))
                    })
                    .map(drop)
                })
            };
            let heights = [
                (10, 4),
                (3, 1),
                (7, 1),
                (15, 2),
                (12, 2),
                (9, 2),
                (1, 2),
                (20, 2),
                (5, 1),
                (17, 3),
            ];
            for (key, height) in heights {
                insert(key, key, height);
            }
            for key in [7, 15, 1] {
                remove(key);
            }
            insert(7, 70, 1);
            remove(7);
            insert(7, 700, 3);
            insert(15, 150, 1);
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
            // every node a reader reached stays on it, and so allocated, for
            // as long as `self` lives.
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
        let top = fx.list.max_level();
        let first = descend(reader, &fx.list, Unbounded, top, |level, pred, _| {
            assert_eq!((level, fx.key_of(pred)), (0, None), "no tower to descend");
        })
        .unwrap();
        assert_eq!(fx.key_of(first), fx.linked.first().map(|(key, _)| *key));
        let mut seen = Vec::new();
        let visit_all = |reader: &mut R, at, node: &Node<u64, u64>| {
            assert_eq!(fx.key_of(at), Some(*node.key()));
            seen.push((*node.key(), reader.removed(node)?));
            Ok(ControlFlow::Continue(()))
        };
        let end = scan(reader, &fx.list, Unbounded, visit_all).unwrap();
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
            let landed = descend(reader, &fx.list, start, top, |level, pred, succ| {
                levels.push(level);
                bottom = Some((fx.key_of(pred), fx.key_of(succ)));
            })
            .unwrap();
            let admitted = linked_keys.clone().find(|k| from_start.contains(k));
            let refused = linked_keys.rev().find(|k| !from_start.contains(k));
            assert_eq!(fx.key_of(landed), admitted, "descend({start:?})");
            assert_eq!(bottom, Some((refused, admitted)), "descend({start:?})");
            let reported = match start {
                Unbounded => 1,
                _ => top,
            };
            assert_eq!(levels, (0..reported).rev().collect::<Vec<_>>());

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
        fx.stm
            .run(|tx| {
                check_reader(tx, &fx);
                // The back-walking point queries exist for transactions only.
                for probe in 0..=22u64 {
                    let floor = fx.present.range(..=probe).next_back().map(|(k, _)| *k);
                    assert_eq!(fx.list.floor_present(tx, &probe)?, floor);
                    let pred = fx.present.range(..probe).next_back().map(|(k, _)| *k);
                    assert_eq!(fx.list.pred_present(tx, &probe)?, pred);
                }
                fx.list.check_invariants(tx)
            })
            .expect("list invariants");

        // The same list through a pin taken now: same nodes, same marks.
        let pin = fx.stm.pin_snapshot();
        check_reader(&mut pin.reader(), &fx);
    }

    /// `collect_interleaved` against the single-cursor pinned walk on shapes
    /// a random map rarely takes: a first segment hundreds of nodes long
    /// followed by a hundred one-node segments (finished cursors stage their
    /// segments and then wait for the first), logically deleted duplicates
    /// still linked, some of them segment boundaries, and lists too short
    /// for the segment level.
    #[test]
    fn interleaved_walk_matches_the_single_cursor_walk() {
        for max_level in [1, 2, 8] {
            let stm = Arc::new(Stm::new());
            let list: SkipList<u64, u64> = SkipList::new(max_level);
            let insert = |key: u64, value: u64, height: usize| {
                let height = height.min(max_level);
                stm.run(|tx| {
                    list.insert_after_logical_deletes(tx, key, value, height, 0, None)
                        .map(drop)
                });
            };
            let mark = |key: u64| {
                stm.run(|tx| {
                    scan(tx, &list, Included(&key), |tx, _, node| {
                        if tx.removed(node)? {
                            return Ok(ControlFlow::Continue(()));
                        }
                        node.mark_removed(tx, 1)?;
                        Ok(ControlFlow::Break(()))
                    })
                    .map(drop)
                })
            };
            let compare = |pin: &SnapshotPin, expected: &BTreeMap<u64, u64>| {
                let mut interleaved = Vec::new();
                collect_interleaved(&mut pin.reader(), &list, &mut interleaved);
                let Ok(single) = collect(&mut pin.reader(), &list, Unbounded, Unbounded);
                assert_eq!(interleaved, single, "max_level {max_level}");
                let expected: Vec<(u64, u64)> = expected.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(interleaved, expected, "max_level {max_level}");
            };

            let mut present = BTreeMap::new();
            compare(&stm.pin_snapshot(), &present);
            for key in 0..1_000u64 {
                let height = match key {
                    0..600 => 1,
                    600..700 => SEGMENT_LEVEL + 1,
                    _ if key % 5 == 0 => SEGMENT_LEVEL + 2,
                    _ => 1 + key as usize % 3,
                };
                insert(key, key, height);
                present.insert(key, key);
            }
            for key in (0..1_000u64).step_by(7) {
                mark(key);
                let height = if key % 2 == 0 { SEGMENT_LEVEL + 1 } else { 1 };
                insert(key, key + 1, height);
                present.insert(key, key + 1);
            }
            let pin = stm.pin_snapshot();
            compare(&pin, &present);
            // Writes after the pin change nothing it reads.
            for key in (3..1_000u64).step_by(11) {
                mark(key);
                insert(key, 0, SEGMENT_LEVEL + 1);
            }
            compare(&pin, &present);
        }
    }

    /// The scout reads ahead of the walk through hints, which never join the
    /// read set: a commit that changes only links the scout read, not the
    /// walk, leaves the scanning attempt free to commit.
    #[test]
    fn scout_hints_never_join_the_read_set() {
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(4);
        for key in 0..64 {
            // Every node has a level 1, so the scout covers four nodes ahead
            // of the walk: by the last node the walk moves past, 9, it has
            // read the links of 10 to 13.
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, key, key, 2, 0, None)
                    .map(drop)
            });
        }
        let unrelated = TCell::new(0u64);
        let before = stm.stats();

        let got = stm.try_once(|tx| {
            let got = collect(tx, &list, Included(&0), Included(&9))?;
            // Unstitch 13: that rewrites the links of 12 and 14, of which
            // only the scout read any.  The walk read 10's level-0 link, which
            // this leaves alone.
            std::thread::scope(|s| {
                s.spawn(|| stm.run(|tx| list.remove(tx, &13).map(|removed| assert!(removed))))
                    .join()
                    .expect("the unstitching thread")
            });
            // A writer commit validates its read set.
            unrelated.write(tx, 1)?;
            Ok(got)
        });

        let expected: Vec<(u64, u64)> = (0..=9).map(|key| (key, key)).collect();
        assert_eq!(got.expect("hints never abort the attempt"), expected);
        assert_eq!(stm.stats().since(&before).total_aborts(), 0);
    }
}
