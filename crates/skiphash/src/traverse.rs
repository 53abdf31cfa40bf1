//! The one traversal core: every read of the skip list — tower descent,
//! level-0 walk, point queries, fast-path, slow-path and pinned range
//! queries — is [`descend`] and [`walk`] (or [`scan`], one after the other)
//! driven by a [`Reader`]; every range collect is [`collect_interleaved`],
//! which walks level 0 of a list too large for the cache with several
//! cursors at once and of any other with one.
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
//! # The interleaved walk
//!
//! A range query or a full scan ([`collect_interleaved`], behind the fast
//! path, `TxView::range`, `Snapshot::range`, `Snapshot::to_vec` and so every
//! checkpoint, and the live full scans) is a chain of dependent cache misses
//! if one cursor walks it: each hop's address is in the line the previous
//! hop misses on.  The walk instead cuts level 0 into segments and keeps
//! several cursors in flight, one per segment, advancing them round-robin
//! and prefetching each one's next node, so their misses overlap
//! (asynchronous memory access chaining: Kocberber et al., VLDB 2015).
//! Every hop is still a read through the reader, and every handle is
//! covered as in the plain walk.
//!
//! On a list the cache holds there are no misses to overlap, and the
//! cursors' bookkeeping costs more than it saves, so the collector takes its
//! cut level as an `Option`.  With none, the one cursor that walks up to the
//! first cut (below) walks the whole range, with its scout: the
//! single-cursor walk is the interleaved walk with no cut, one cursor being
//! the N = 1 case of the interleaving.  `range::cut_level` picks the cut
//! from the map's population, one rule for every caller.
//!
//! The slow path keeps [`walk`].  It resumes each attempt from a safe node,
//! which stays on the list until the query ends, and moves its cursor one
//! safe node at a time, so an aborted attempt keeps every pair it read up to
//! there.  A segment's cursor starts at a cut node that is not safe, so an
//! interleaved attempt could only restart from a descent.
//!
//! A segment ends where the next starts: at the node its start links at the
//! cut level.  That cut is exact if the node it designates is linked at
//! level 0 too, after every node between the two there, so that it lies on
//! the cursor's path.  It is, because the walk reads one consistent list
//! whatever order its reads come in, and in that list a tower's links at all
//! its levels were written together:
//!
//! * **[`PinnedReader`]**: every read resolves at the one pinned version,
//!   which sees a commit whole or not at all, and one commit writes all of a
//!   tower's links: an insert stitches every level of its node, `unstitch`
//!   replaces every link to its node.
//! * **[`Txn`]**: every read is validated against the attempt's one read
//!   version `rv` or aborts (TL2: Dice, Shalev and Shavit, DISC 2006), so an
//!   attempt that reads on sees the list at `rv`, and interleaving changes
//!   only the order of its reads, never what they return.  An ordinary
//!   attempt sees its own buffered writes over that list, and they move
//!   whole towers too: its inserts and unstitches are the ones above, and a
//!   mark writes no link.
//!
//! A hinted cut cannot be taken on trust: a hint shows committed words only,
//! so it can name a node inserted after the attempt's read version, or one
//! the attempt's own writes have unstitched, which the cursor would then
//! never meet.  So a cut taken as a hint is *confirmed* before the segment
//! it starts is walked: the segment's cursor, finding its start inside the
//! end bound, reads the previous start's cut link through [`Reader::link`]
//! and checks that it designates that start.  A confirm that would abort
//! aborts, as the single walk would where the race is; one that reads
//! another node (the attempt's own inserts and unstitches) is a *miss*, and
//! the collect is walked again with no cut, as the descent re-runs with
//! validated reads.  A pinned reader gives no hints, so its cuts are read.
//!
//! The confirm comes after the bound check so that a transaction reads no
//! more than its window: a cut whose node lies past the end bound starts an
//! empty segment and is never read, and the segment before it runs to the
//! bound as the single walk does.  A cut inside the window changes only with
//! a tower between it and its predecessor cut, or with its own unstitching,
//! and either rewrites a level-0 link inside the window, which the single
//! walk reads as well; so the walk conflicts with the commits the single
//! walk conflicts with.
//!
//! Up to the first node tall enough to cut at, one cursor walks ([`walk`],
//! with its scout) and pushes its pairs straight into the result, so a
//! window that ends before that node pays for no segment; with no cut that
//! run is the whole walk.

use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Bound as StdBound;
use std::ops::ControlFlow;
use std::ptr::NonNull;

use skiphash_stm::{PinnedReader, TCell, TxAbort, Txn};

use crate::node::{Bound, Level, Link, Node, RawNode};
use crate::range::end_allows;
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
/// successor.  A range collect over a large list walks with more cursors
/// instead, so the scout serves the slow path's walk, the point queries'
/// short walks, `count_present`, and the first run of [`collect_interleaved`],
/// which is the whole walk where no cut is taken.
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

/// The cut level of a window ([`crate::range::collect`]): about one
/// node in 2^3 = 8 reaches it (tower heights are geometric with p = 1/2), so
/// a window of 100 nodes splits into about a dozen segments.  Level 2 read
/// slower on 1,024-key windows, levels 4 and 5 on 100-key ones (docs/PERF.md,
/// Mechanism 6).
pub(crate) const RANGE_CUT_LEVEL: usize = 3;

/// The cut level of a full scan, both bounds unbounded (`Snapshot::to_vec`
/// and so every checkpoint, and the live full scans): about one node in
/// 2^6 = 64 reaches it, so a long scan starts a segment, a read and a
/// hand-off, once per 64 nodes rather than once per 8 (docs/PERF.md,
/// "Durable writes", for the sweep).
pub(crate) const SCAN_CUT_LEVEL: usize = 6;

/// Segments [`collect_interleaved`] holds staged: the running ones plus the
/// finished ones still waiting for an earlier segment.  A cursor that
/// finishes while this many are held waits instead of starting another, so
/// staging stays bounded when one segment runs long.
const STAGED_SEGMENTS: usize = 4 * CURSORS;

thread_local! {
    /// [`collect_interleaved`]'s staging buffers, one per staged segment,
    /// each holding the erased handles of its segment's present nodes.  A
    /// thread reuses them from call to call, so once they have grown a
    /// range allocates its result and nothing more.
    static STAGING: Cell<Vec<Vec<NonNull<u8>>>> = const { Cell::new(Vec::new()) };
}

/// Run `body` on this thread's staging buffers, empty, and put them back
/// empty whether `body` succeeded or aborted partway.  A nested call (a
/// value's `clone` that runs a range query) finds none and grows its own.
fn with_staging<T>(body: impl FnOnce(&mut [Vec<NonNull<u8>>]) -> T) -> T {
    let mut buffers = STAGING.try_with(Cell::take).unwrap_or_default();
    buffers.resize_with(STAGED_SEGMENTS, Vec::new);
    let result = body(&mut buffers);
    buffers.iter_mut().for_each(Vec::clear);
    // A thread tearing down its locals drops the buffers instead.
    let _ = STAGING.try_with(|staging| staging.set(buffers));
    result
}

/// One cursor of [`collect_interleaved`]: walking level 0 from `at` until it
/// reaches `stop`, the first node of the next segment, staging what it
/// collects in segment number `segment`.  `stop` is taken on the segment's
/// first hop, from the start's tower.
struct SegmentCursor<'n, K, V> {
    at: RawNode<K, V>,
    stop: Option<RawNode<K, V>>,
    segment: usize,
    /// The previous segment's start's cut link, while this segment's start is
    /// a hint of it still to be confirmed.
    hinted_by: Option<&'n TCell<Link<K, V>>>,
}

/// Append to `out` every logically present `(key, value)` pair of `list`
/// within the bounds, in key order, as `reader` sees the list: the one range
/// collector, behind every range collect and full scan but the slow path's
/// (see the module docs, "The interleaved walk").  Returns `false` on a
/// *miss*, a hinted cut its confirm refuted (below); `out` then holds an
/// unusable partial result, and the caller walks again with `cut` `None`.
/// A reader without hints never misses, and neither does a walk with no
/// cut.
///
/// The walk descends to `start` and runs one cursor from there, with its
/// scout, pushing pairs straight into `out`, until it meets the first node
/// whose tower rises above `cut` (capped below the list's top level).  With
/// `cut` `None` it meets none, so that one cursor walks the whole range.
/// From that node on, level 0 is cut into segments at the nodes `cut`
/// links, and up to [`CURSORS`] of them are walked at once.  Each segment
/// ends where the next starts: at the node its start links at `cut`, taken
/// on the segment's first hop, which hands that node to the next free
/// cursor.  A cursor stops when its hop reaches its end node, which is
/// exact because a tower's links at all its levels are written by one
/// commit, so the node a cut link designates in the reader's view is on
/// level 0 there too, after every node of the segment.  A segment that
/// starts past the end bound is empty and feeds no further one; a cursor
/// also stops at the end bound.
///
/// Through a reader that gives hints the cut link is hinted, and the next
/// segment's cursor, once it finds its start inside the end bound, confirms
/// it with a validated read of that link before it walks.  So the walk reads
/// no cut link whose node lies past the end bound, and a hint the reader's
/// view does not bear out (a commit after the attempt's read version, which
/// the confirm aborts on, or the attempt's own insert or unstitch, which it
/// misses on) never steers a cursor.
///
/// Each segment stages the handles of its present nodes in a buffer of its
/// own (this thread's, reused), and once every earlier segment has been
/// flushed the segment is flushed into `out`: key and value read per
/// handle, in order.  A pair is copied once, into `out`.
pub(crate) fn collect_interleaved<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    start: StdBound<&K>,
    end: StdBound<&K>,
    cut: Option<usize>,
    out: &mut Vec<(K, V)>,
) -> Result<bool, R::Abort> {
    let level = cut.map(|cut| cut.min(list.max_level() - 1));
    let mut first_cut = None;
    let first_run = |reader: &mut R, at: RawNode<K, V>, node: &Node<K, V>| {
        if !end_allows(&node.bound, end) {
            return Ok(ControlFlow::Break(()));
        }
        if level.is_some_and(|level| node.height > level) {
            first_cut = Some(at);
            return Ok(ControlFlow::Break(()));
        }
        if !reader.removed(node)? {
            out.push((node.key().clone(), reader.value(node)?));
        }
        Ok(ControlFlow::Continue(()))
    };
    scan(reader, list, start, first_run)?;
    let (Some(first_cut), Some(level)) = (first_cut, level) else {
        return Ok(true);
    };
    with_staging(|staged| interleave(reader, list, first_cut, end, level, staged, out))
}

/// The segments of [`collect_interleaved`], from `first_cut` on: segment
/// `s` stages its handles in `staged[s % STAGED_SEGMENTS]`.
fn interleave<K: MapKey, V: MapValue, R: Reader<K, V>>(
    reader: &mut R,
    list: &SkipList<K, V>,
    first_cut: RawNode<K, V>,
    end: StdBound<&K>,
    level: usize,
    staged: &mut [Vec<NonNull<u8>>],
    out: &mut Vec<(K, V)>,
) -> Result<bool, R::Abort> {
    let tail = list.tail();
    let mut cursors: [Option<SegmentCursor<'_, K, V>>; CURSORS] = std::array::from_fn(|_| None);
    // Segments `first_staged..handed_out` are staged; `done[s %
    // STAGED_SEGMENTS]` tells whether segment `s`'s cursor has finished, and
    // `feed` is the start of the next segment to hand out, with the cut link
    // that hinted it.
    let mut done = [false; STAGED_SEGMENTS];
    let (mut first_staged, mut handed_out) = (0, 0);
    let mut feed = Some((first_cut, None));
    loop {
        let mut busy = false;
        for slot in &mut cursors {
            if slot.is_none() && handed_out - first_staged < STAGED_SEGMENTS {
                if let Some((start, hinted_by)) = feed.take() {
                    *slot = Some(SegmentCursor {
                        at: start,
                        stop: None,
                        segment: handed_out,
                        hinted_by,
                    });
                    handed_out += 1;
                }
            }
            let Some(cursor) = slot else {
                continue;
            };
            busy = true;
            // SAFETY: `cursor.at` was read or hinted through `reader` — the
            // module's borrowed-handle contract.
            let node = unsafe { cursor.at.node() };
            let index = cursor.segment % STAGED_SEGMENTS;
            // The end bound only ever stops the last segment: every later
            // one starts past it, and so stops on its first hop.
            let finished = if end_allows(&node.bound, end) {
                if let Some(cut) = cursor.hinted_by.take() {
                    if reader.link(cut)? != cursor.at {
                        return Ok(false);
                    }
                }
                let tower = cursor.at.tower(node);
                let stop = match cursor.stop {
                    Some(stop) => stop,
                    // The segment's first hop: its start is a node `level`
                    // links, or the first node taller than `level`.
                    None => {
                        let cut = &tower[level].succ;
                        let (stop, hinted_by) = match reader.hint(cut) {
                            Some(stop) => (stop, Some(cut)),
                            None => (reader.link(cut)?, None),
                        };
                        stop.prefetch_to(level);
                        feed = (stop != tail).then_some((stop, hinted_by));
                        *cursor.stop.insert(stop)
                    }
                };
                let next = reader.link(&tower[0].succ)?;
                next.prefetch();
                if !reader.removed(node)? {
                    staged[index].push(cursor.at.erase());
                }
                cursor.at = next;
                next == stop
            } else {
                true
            };
            if !finished {
                continue;
            }
            done[index] = true;
            *slot = None;
            while first_staged < handed_out && done[first_staged % STAGED_SEGMENTS] {
                let front = first_staged % STAGED_SEGMENTS;
                for &addr in &staged[front] {
                    // SAFETY: staged above from a handle read through
                    // `reader` of this very list, whose protection still
                    // holds: the borrowed-handle contract.
                    let node = unsafe { RawNode::<K, V>::unerase(addr).node() };
                    out.push((node.key().clone(), reader.value(node)?));
                }
                staged[front].clear();
                done[front] = false;
                first_staged += 1;
            }
        }
        if !busy {
            debug_assert!(first_staged == handed_out && feed.is_none());
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{collect, range_is_empty};
    use skiphash_stm::sync::{AtomicBool, Ordering};
    use skiphash_stm::{Stm, TxResult};
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
                let population = fx.present.len() as i64;
                let got = collect(reader, &fx.list, population, start, end, Vec::new()).unwrap();
                assert_eq!(got, expected, "collect({start:?}, {end:?})");
                let got = interleaved(reader, &fx.list, start, end).unwrap();
                assert_eq!(got, expected, "interleaved({start:?}, {end:?})");
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

    /// A list for the interleaved walk at one cut level, with tower heights
    /// that make the shapes a random map rarely takes: a first run of
    /// height-1 nodes, a first segment 300 nodes long followed by 100
    /// one-node segments (so finished cursors stage theirs and wait, more of
    /// them than [`STAGED_SEGMENTS`]), dozens of ordinary segments, and a
    /// last run of height-1 nodes after the last cut.  Every seventh key is
    /// marked and re-inserted, so logically deleted duplicates linger in
    /// front of live nodes, some of them cut nodes.  Keys are `100 + 4 * i`.
    struct Segmented {
        stm: Arc<Stm>,
        list: SkipList<u64, u64>,
        /// The cut level the list is shaped for.
        cut: usize,
        /// The height of a cut node: one above the cut level, capped at the
        /// list's top.
        tall: usize,
        present: BTreeMap<u64, u64>,
        /// The keys bounds are probed at: before the first key, on it, around
        /// the first cut node, on lingering duplicates, inside the long
        /// segment, among the one-node segments, around the last cut node,
        /// on the last key and past it.
        probes: Vec<u64>,
    }

    /// The height of a node the window's cut level links: the churn test's
    /// tall nodes.
    const CUT: usize = RANGE_CUT_LEVEL + 1;

    /// The collector at cut level `cut`, whatever the size of the list: what
    /// `range::collect` runs on a large one; `None` on a miss.
    fn try_interleaved<R: Reader<u64, u64>>(
        reader: &mut R,
        list: &SkipList<u64, u64>,
        start: StdBound<&u64>,
        end: StdBound<&u64>,
        cut: Option<usize>,
    ) -> Result<Option<Vec<(u64, u64)>>, R::Abort> {
        let mut out = Vec::new();
        let complete = range_is_empty(&start, &end)
            || collect_interleaved(reader, list, start, end, cut, &mut out)?;
        Ok(complete.then_some(out))
    }

    /// [`try_interleaved`] at the window's cut level, through a reader with
    /// no writes of its own: a hint that a validated read does not bear out
    /// is then a commit after the read version, which aborts, so it never
    /// misses.
    fn interleaved<R: Reader<u64, u64>>(
        reader: &mut R,
        list: &SkipList<u64, u64>,
        start: StdBound<&u64>,
        end: StdBound<&u64>,
    ) -> Result<Vec<(u64, u64)>, R::Abort> {
        let got = try_interleaved(reader, list, start, end, Some(RANGE_CUT_LEVEL))?;
        Ok(got.expect("no own writes, no miss"))
    }

    /// The collector with no cut: one cursor walks the whole range, the
    /// reference the interleaved walk is checked against.
    fn single<R: Reader<u64, u64>>(
        reader: &mut R,
        list: &SkipList<u64, u64>,
        start: StdBound<&u64>,
        end: StdBound<&u64>,
    ) -> Result<Vec<(u64, u64)>, R::Abort> {
        let got = try_interleaved(reader, list, start, end, None)?;
        Ok(got.expect("a walk with no cut never misses"))
    }

    fn mark(tx: &mut Txn<'_>, list: &SkipList<u64, u64>, key: u64) -> TxResult<()> {
        scan(tx, list, Included(&key), |tx, _, node| {
            if tx.removed(node)? {
                return Ok(ControlFlow::Continue(()));
            }
            assert_eq!(*node.key(), key);
            node.mark_removed(tx, 1)?;
            Ok(ControlFlow::Break(()))
        })
        .map(drop)
    }

    fn present(tx: &mut Txn<'_>, list: &SkipList<u64, u64>, key: u64) -> TxResult<bool> {
        Ok(list.first_present(tx, Included(&key))? == Some(key))
    }

    impl Segmented {
        fn build(max_level: usize, cut: usize) -> Self {
            let stm = Arc::new(Stm::new());
            let list: SkipList<u64, u64> = SkipList::new(max_level);
            let tall = (cut + 1).min(max_level);
            let insert = |key: u64, value: u64, height: usize| {
                let height = height.min(max_level);
                stm.run(|tx| {
                    list.insert_after_logical_deletes(tx, key, value, height, 0, None)
                        .map(drop)
                });
            };
            let key = |i: u64| 100 + 4 * i;
            let mut present = BTreeMap::new();
            for i in 0..1_000u64 {
                let height = match i {
                    0..150 | 151..450 | 980.. => 1,
                    150 | 450..550 => cut + 1,
                    _ if i % 5 == 0 => cut + 2,
                    _ => 1 + i as usize % 3,
                };
                insert(key(i), i, height);
                present.insert(key(i), i);
            }
            for i in (0..1_000u64).step_by(7) {
                stm.run(|tx| mark(tx, &list, key(i)));
                // No re-insert cuts the long segment short.
                let height = if i % 2 == 0 && !(151..450).contains(&i) {
                    cut + 1
                } else {
                    1
                };
                insert(key(i), i + 1, height);
                present.insert(key(i), i + 1);
            }
            let probes = vec![
                0,
                key(0),
                key(1),
                key(149),
                key(150),
                key(150) + 1,
                key(154),
                key(300),
                key(455),
                key(500) + 2,
                key(700),
                key(975),
                key(976),
                key(990),
                key(999),
                key(999) + 1,
            ];
            Self {
                stm,
                list,
                cut,
                tall,
                present,
                probes,
            }
        }

        /// Every bound the probes make: unbounded, and each probe key
        /// included and excluded.
        fn bounds(&self) -> Vec<StdBound<u64>> {
            let keys = self.probes.iter();
            std::iter::once(Unbounded)
                .chain(keys.flat_map(|&k| [Included(k), Excluded(k)]))
                .collect()
        }

        /// The collector at the list's cut level against the single-cursor
        /// walk through `reader`, a reader with no writes of its own, for
        /// every pair of `bounds`.
        fn compare<R: Reader<u64, u64>>(
            &self,
            reader: &mut R,
            bounds: &[StdBound<u64>],
            label: &str,
        ) -> Result<(), R::Abort>
        where
            R::Abort: Debug,
        {
            for start in bounds.iter().map(StdBound::as_ref) {
                for end in bounds.iter().map(StdBound::as_ref) {
                    let got = try_interleaved(reader, &self.list, start, end, Some(self.cut))?;
                    let got = got.expect("no own writes, no miss");
                    let single = single(reader, &self.list, start, end)?;
                    assert_eq!(got, single, "{label}: ({start:?}, {end:?})");
                }
            }
            Ok(())
        }

        /// An ordinary attempt's own writes around `key`: the node present
        /// there is marked and the key re-inserted above the cut level, so a
        /// duplicate lingers in front of a cut node; the node before it goes
        /// in tall too; and after it the next present node and the next cut
        /// node are unstitched, one of them put in by this very attempt.
        fn own_writes(&self, tx: &mut Txn<'_>, key: u64) -> TxResult<()> {
            let (list, tall) = (&self.list, self.tall);
            if present(tx, list, key)? {
                mark(tx, list, key)?;
            }
            list.insert_after_logical_deletes(tx, key, 0, tall, 0, None)?;
            if key > 0 && !present(tx, list, key - 1)? {
                list.insert_after_logical_deletes(tx, key - 1, 0, tall, 0, None)?;
            }
            if !present(tx, list, key + 2)? {
                list.insert_after_logical_deletes(tx, key + 2, 0, tall, 0, None)?;
            }
            if let Some(next) = list.first_present(tx, Excluded(&key))? {
                assert!(list.remove(tx, &next)?);
            }
            let mut next_cut = None;
            scan(tx, list, Excluded(&key), |tx, _, node| {
                if node.height < tall || tx.removed(node)? {
                    return Ok(ControlFlow::Continue(()));
                }
                next_cut = Some(*node.key());
                Ok(ControlFlow::Break(()))
            })?;
            if let Some(next_cut) = next_cut {
                assert!(list.remove(tx, &next_cut)?);
            }
            Ok(())
        }
    }

    /// The interleaved collector against the single-cursor reference (the
    /// collector with no cut), for every shape of bound at each end, through
    /// the three kinds of reader: a read-only attempt, an ordinary attempt
    /// whose own buffered writes insert, mark and unstitch cut nodes at and
    /// next to both bounds, and a pin after churn that came after it.  Each
    /// runs at the window's cut level and at the full scan's, on a list
    /// shaped for it; lists too short for the cut level are walked too (at
    /// the window's only: one or two levels cap both cuts, and build the same
    /// list for both).
    #[test]
    fn interleaved_walk_matches_the_single_cursor_walk() {
        let shapes = [
            (RANGE_CUT_LEVEL, 1),
            (RANGE_CUT_LEVEL, 2),
            (RANGE_CUT_LEVEL, 8),
        ];
        for (cut, max_level) in shapes.into_iter().chain([(SCAN_CUT_LEVEL, 8)]) {
            let seg = Segmented::build(max_level, cut);
            let (stm, list) = (&seg.stm, &seg.list);
            let bounds = seg.bounds();
            let expected: Vec<(u64, u64)> = seg.present.iter().map(|(k, v)| (*k, *v)).collect();

            // A read-only attempt, which keeps no read set.
            stm.try_once_read_only(|tx| {
                let population = seg.present.len() as i64;
                let all = collect(tx, list, population, Unbounded, Unbounded, Vec::new())?;
                assert_eq!(all, expected);
                seg.compare(tx, &bounds, "read-only")
            })
            .expect("a read-only attempt alone commits");

            // An ordinary attempt over its own writes at both bounds, rolled
            // back so that every pair of probes sees the same list.  Its own
            // cut nodes make some hinted cuts stale, so some of its collects
            // miss; the others must match the single walk.
            let (mut walked, mut missed) = (0, 0);
            for (i, &low) in seg.probes.iter().enumerate() {
                for &high in &seg.probes[i..] {
                    let attempt = stm.try_once(|tx| {
                        seg.own_writes(tx, low)?;
                        seg.own_writes(tx, high)?;
                        let shapes = |k| [Unbounded, Included(k), Excluded(k)];
                        for start in shapes(low) {
                            for end in shapes(high) {
                                let (start, end) = (start.as_ref(), end.as_ref());
                                let single = single(tx, list, start, end)?;
                                let Some(got) = try_interleaved(tx, list, start, end, Some(cut))?
                                else {
                                    missed += 1;
                                    continue;
                                };
                                walked += 1;
                                let label = format!(
                                    "cut level {cut}, own writes at {low}, {high}: \
                                     ({start:?}, {end:?})"
                                );
                                assert_eq!(got, single, "{label}");
                            }
                        }
                        Err::<(), _>(TxAbort::Explicit)
                    });
                    assert_eq!(
                        attempt.map_err(|failed| failed.cause),
                        Err(TxAbort::Explicit)
                    );
                }
            }
            if max_level > cut {
                assert!(walked > 0 && missed > 0, "{walked} walked, {missed} missed");
            }

            // A pin, read after churn that marks, unstitches and inserts cut
            // nodes behind it.
            let pin = stm.pin_snapshot();
            let tall = seg.tall;
            for key in (100..4_100u64).step_by(44) {
                stm.run(|tx| {
                    if present(tx, list, key)? {
                        mark(tx, list, key)?;
                    }
                    list.insert_after_logical_deletes(tx, key, 0, tall, 0, None)?;
                    if let Some(next) = list.first_present(tx, Excluded(&key))? {
                        list.remove(tx, &next)?;
                    }
                    list.insert_after_logical_deletes(tx, key + 1, 0, tall, 0, None)
                        .map(drop)
                });
            }
            let mut reader = pin.reader();
            let Ok(()) = seg.compare(&mut reader, &bounds, "pinned");
            for level in [RANGE_CUT_LEVEL, SCAN_CUT_LEVEL] {
                let mut all = Vec::new();
                let Ok(complete) = collect_interleaved(
                    &mut reader,
                    list,
                    Unbounded,
                    Unbounded,
                    Some(level),
                    &mut all,
                );
                assert!(complete, "a pinned reader never misses");
                assert_eq!(all, expected, "pinned full scan, cut level {level}");
            }
        }
    }

    /// Interleaved walks, through read-only and ordinary attempts, while two
    /// writers re-insert and unstitch odd keys, a third of them above the
    /// cut level, so cut nodes come and go under the cursors: every even key
    /// in the window is seen exactly once, in order, with its value.
    #[test]
    fn interleaved_walks_see_every_stable_key_under_churn() {
        const UNIVERSE: u64 = 6_000;
        let stm = Stm::new();
        let list: SkipList<u64, u64> = SkipList::new(12);
        for key in (0..UNIVERSE).step_by(2) {
            let height = if key.is_multiple_of(14) {
                CUT + 1
            } else {
                1 + key as usize % 3
            };
            stm.run(|tx| {
                list.insert_after_logical_deletes(tx, key, key, height, 0, None)
                    .map(drop)
            });
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for writer in 0..2u64 {
                let (stm, list, stop) = (&stm, &list, &stop);
                s.spawn(move || {
                    let mut i = writer;
                    while !stop.load(Ordering::Relaxed) {
                        let key = (i * 2 + 1) % UNIVERSE;
                        let height = if key.is_multiple_of(3) { CUT + 1 } else { 1 };
                        stm.run(|tx| {
                            if !list.remove(tx, &key)? {
                                list.insert_after_logical_deletes(tx, key, key, height, 0, None)?;
                            }
                            Ok(())
                        });
                        i = i.wrapping_add(7);
                    }
                });
            }
            // Stops the writers when dropped, so that a failed assertion
            // below ends the test instead of leaving the scope waiting.
            struct StopOnDrop<'a>(&'a AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _writers = StopOnDrop(&stop);
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
            let mut query = 0u64;
            while std::time::Instant::now() < deadline {
                let span = [500, 4_096][query as usize % 2];
                let low = (query * 37) % (UNIVERSE - span);
                let (start, end) = (Included(&low), Excluded(&(low + span)));
                let window = if query.is_multiple_of(3) {
                    stm.run(|tx| interleaved(tx, &list, start, end))
                } else {
                    stm.run_read_only(|tx| interleaved(tx, &list, start, end))
                };
                let evens: Vec<u64> = window
                    .iter()
                    .map(|(k, _)| *k)
                    .filter(|k| k % 2 == 0)
                    .collect();
                let expected: Vec<u64> = (low..low + span).filter(|k| k % 2 == 0).collect();
                assert_eq!(evens, expected, "window {low}..{}", low + span);
                assert!(
                    window.windows(2).all(|w| w[0].0 < w[1].0),
                    "sorted, no duplicates"
                );
                assert!(window.iter().all(|(k, v)| k == v));
                query += 1;
            }
            assert!(query > 0);
        });
        assert_eq!(stm.run(|tx| list.check_invariants(tx)), Ok(()));
    }

    /// The crossover probe behind `range::cut_level`'s two thresholds: how
    /// long the collector takes with its cut over how long it takes with
    /// none, on maps of `n` keys at the default 20 levels, medians of seven
    /// rounds that alternate which walk goes first.
    ///
    /// * Full scans at the full scan's cut, through a pin (`Snapshot::to_vec`
    ///   and every checkpoint), on maps filled in scattered order and in key
    ///   order, 1k-65k keys.
    /// * 100- and 1,024-key windows at the window's cut, through read-only
    ///   attempts (the fast path), on maps of `n` scattered keys of a `2n`
    ///   universe, 16k-512k keys; each round walks the same 256 windows at
    ///   scattered starts with either walk.
    ///
    /// Run with `cargo test --release -p skiphash --lib walk_crossover --
    /// --ignored --nocapture`; a ratio below 1 means the cut pays.
    #[test]
    #[ignore = "a timing probe: run it by hand, in release"]
    fn walk_crossover() {
        use crate::config::SkipHashBuilder;
        use crate::SkipHash;
        use std::time::Instant;

        const ROUNDS: usize = 7;
        const WINDOWS: u64 = 256;
        /// A bijection on `0..n` for a power of two `n` (an odd multiplier
        /// is invertible modulo `n`): scattered order.
        fn scatter(i: u64, n: u64) -> u64 {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (n - 1)
        }
        fn median(mut times: Vec<f64>) -> f64 {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        }
        /// Median microseconds of `walk` with no cut and with `cut`, over
        /// alternating rounds.
        fn race(mut walk: impl FnMut(Option<usize>), cut: usize) -> (f64, f64) {
            let (mut single, mut cut_walk) = (Vec::new(), Vec::new());
            for round in 0..ROUNDS {
                for first in [round % 2 == 0, round % 2 != 0] {
                    let started = Instant::now();
                    walk(if first { None } else { Some(cut) });
                    let micros = started.elapsed().as_secs_f64() * 1e6;
                    if first { &mut single } else { &mut cut_walk }.push(micros);
                }
            }
            (median(single), median(cut_walk))
        }
        let build = |keys: &mut dyn Iterator<Item = u64>| {
            let map: SkipHash<u64, u64> = SkipHashBuilder::new().build();
            keys.for_each(|key| assert!(map.insert(key, key)));
            map
        };

        println!("full scans, pinned, cut level {SCAN_CUT_LEVEL}: single us, cut us, cut/single");
        for shift in 10..=16 {
            let n = 1u64 << shift;
            for (order, map) in [
                ("scattered", build(&mut (0..n).map(|i| scatter(i, n)))),
                ("key order", build(&mut (0..n))),
            ] {
                let (pin, list) = (map.inner.stm.pin_snapshot(), &map.inner.skiplist);
                let (single, cut) = race(
                    |cut| {
                        let mut out = Vec::with_capacity(n as usize);
                        let Ok(complete) = collect_interleaved(
                            &mut pin.reader(),
                            list,
                            Unbounded,
                            Unbounded,
                            cut,
                            &mut out,
                        );
                        assert!(complete && out.len() == n as usize);
                    },
                    SCAN_CUT_LEVEL,
                );
                println!(
                    "  n={n:>6} {order}: {single:9.1} {cut:9.1} {:5.2}",
                    cut / single
                );
            }
        }

        println!("windows, read-only attempts, cut level {RANGE_CUT_LEVEL}: per window");
        for shift in 14..=19 {
            let n = 1u64 << shift;
            let map = build(&mut (0..n).map(|i| 2 * scatter(i, n)));
            let (stm, list) = (&map.inner.stm, &map.inner.skiplist);
            for len in [100u64, 1_024] {
                let (single, cut) = race(
                    |cut| {
                        let mut out = Vec::new();
                        for w in 0..WINDOWS {
                            let low = 2 * scatter(w, n).min(n - len);
                            let (start, end) = (Included(&low), Excluded(&(low + 2 * len)));
                            out.clear();
                            let complete = stm.run_read_only(|tx| {
                                collect_interleaved(tx, list, start, end, cut, &mut out)
                            });
                            assert!(complete && out.len() == len as usize);
                        }
                    },
                    RANGE_CUT_LEVEL,
                );
                let (single, cut) = (single / WINDOWS as f64, cut / WINDOWS as f64);
                println!(
                    "  n={n:>6} {len:>5}-key: {single:9.2} {cut:9.2} {:5.2}",
                    cut / single
                );
            }
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
            // A population of 0 reads as small: one cursor, with its scout.
            let got = collect(tx, &list, 0, Included(&0), Included(&9), Vec::new())?;
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
