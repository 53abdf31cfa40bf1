//! Named model bodies.
//!
//! Each entry is a self-contained closure suitable for
//! `skiphash_model::{explore, replay}`.  The replay-corpus test looks
//! bodies up by name, so a token found during development can be committed
//! as `corpus/<anything>.token` with the model's name on the same line.

use skiphash_model as model;
use skiphash_model::atomic::{fence, AtomicUsize, Ordering};
use skiphash_model::cell::ShadowSlot;
use std::sync::{Arc, Mutex};

/// Which SeqCst fences of the epoch-reclamation protocol are present in an
/// [`ebr_body`] instance.  The clean protocol has all three; deleting any
/// one must yield a use-after-free counterexample (see the fence numbering
/// in `vendor/crossbeam-epoch/src/lib.rs` and `docs/VERIFICATION.md`).
#[derive(Clone, Copy, Debug)]
pub struct EbrFences {
    /// Fence (1): in `pin()`, between the slot-active store and the epoch
    /// re-load.  Publishes the slot so the collector's scan must see it.
    pub pin: bool,
    /// Fence (2): in `seal_local`, between the retirement store and the
    /// epoch-tag load.  Floors the tag so garbage is never tagged with an
    /// epoch older than the one in which it was still reachable.
    pub seal: bool,
    /// The collector-side fence in `try_advance`, between the epoch load
    /// and the slot scan; pairs with fence (1).
    pub scan: bool,
}

impl EbrFences {
    /// All fences present — the protocol as shipped.
    pub const CLEAN: EbrFences = EbrFences {
        pin: true,
        seal: true,
        scan: true,
    };
}

/// A faithful transcription of the vendored epoch shim's reclamation
/// protocol onto fully-instrumented atomics, with each SeqCst fence made
/// deletable.
///
/// The shim itself cannot sit below the `stm::sync` facade (the facade
/// lives above it in the dependency order), and more importantly its slot
/// registry / bag machinery would drown the schedule space; this
/// transcription keeps exactly the ordering skeleton the shim's safety
/// argument rests on:
///
/// * one reader slot (`0` = inactive, `(e << 1) | 1` = active at `e`),
/// * a global epoch counter advanced by `compare_exchange` after a scan,
/// * a single protected pointer (an index into a `freed` table standing in
///   for the heap), unlinked by a `Release` store and retired with the
///   post-fence epoch as its tag,
/// * garbage freed once `tag + 2 <= global_epoch`.
///
/// Crucially the three roles run on three *different* threads, as they do
/// in the real shim under load: the **reader** pins (store slot, fence
/// (1), re-check epoch), reads the pointer with `Acquire`, and asserts the
/// object it read has not been freed; the **writer** unlinks and seals
/// (fence (2), then tag); the **collector** scans and advances (scan
/// fence) and frees expired garbage.  Collapsing writer and collector into
/// one thread would let that thread's own fences/RMWs keep its view fresh
/// and mask the seal/scan fence deletions.
pub fn ebr_body(fences: EbrFences) -> impl Fn() + Send + Sync + 'static {
    move || {
        let epoch = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(AtomicUsize::new(0));
        let data_ptr = Arc::new(AtomicUsize::new(0));
        // Plain state mutated only while holding the scheduler token; the
        // Mutexes keep it honest for the real OS threads underneath (they
        // are never contended, so they add no schedule points).
        let freed = Arc::new(Mutex::new([false; 2]));
        let retired = Arc::new(Mutex::new(Vec::<(usize, usize)>::new()));

        let reader = {
            let (epoch, slot, data_ptr, freed) = (
                Arc::clone(&epoch),
                Arc::clone(&slot),
                Arc::clone(&data_ptr),
                Arc::clone(&freed),
            );
            model::thread::spawn(move || {
                // pin(): advertise an epoch, fence (1), re-check.
                loop {
                    let e = epoch.load(Ordering::Relaxed);
                    slot.store((e << 1) | 1, Ordering::Relaxed);
                    if fences.pin {
                        // SC: pin fence (1) — the slot advertisement must be
                        // visible before the epoch re-check.
                        fence(Ordering::SeqCst);
                    }
                    if epoch.load(Ordering::Relaxed) == e {
                        break;
                    }
                }
                // Guarded read of the protected pointer.
                let v = data_ptr.load(Ordering::Acquire);
                assert!(
                    !freed.lock().unwrap()[v],
                    "use-after-free: reader dereferenced object {v} after reclamation"
                );
                // unpin()
                slot.store(0, Ordering::Release);
            })
        };

        let writer = {
            let (epoch, data_ptr, retired) = (
                Arc::clone(&epoch),
                Arc::clone(&data_ptr),
                Arc::clone(&retired),
            );
            model::thread::spawn(move || {
                // Unlink object 0, install object 1 (`seal_local`'s
                // retirement path: fence (2), then read the epoch tag).
                data_ptr.store(1, Ordering::Release);
                if fences.seal {
                    // SC: seal fence (2) — unlink before the epoch-tag read.
                    fence(Ordering::SeqCst);
                }
                let tag = epoch.load(Ordering::Relaxed);
                retired.lock().unwrap().push((0, tag));
            })
        };

        let collector = {
            let (epoch, slot, freed, retired) = (
                Arc::clone(&epoch),
                Arc::clone(&slot),
                Arc::clone(&freed),
                Arc::clone(&retired),
            );
            model::thread::spawn(move || {
                // try_advance() twice (enough to cross the tag + 2 horizon),
                // freeing anything two epochs old.
                for _ in 0..2 {
                    let e = epoch.load(Ordering::Relaxed);
                    if fences.scan {
                        // SC: scan fence (3) — epoch sample before the slot
                        // scan; only observable at Arm strength.
                        fence(Ordering::SeqCst);
                    }
                    let s = slot.load(Ordering::Relaxed);
                    if s & 1 == 0 || (s >> 1) == e {
                        let _ =
                            epoch.compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Acquire);
                    }
                    let cur = epoch.load(Ordering::Relaxed);
                    retired.lock().unwrap().retain(|&(obj, tag)| {
                        if tag + 2 <= cur {
                            freed.lock().unwrap()[obj] = true;
                            false
                        } else {
                            true
                        }
                    });
                }
            })
        };

        reader.join().unwrap();
        writer.join().unwrap();
        collector.join().unwrap();
    }
}

/// A minimal transcription of the orec/payload publish protocol from
/// `stm::txn` / `stm::tcell`, with the unlock store's `Release` deletable.
///
/// State: `orec` (even = unlocked at that version, odd = locked) and `data`
/// (a payload *generation* counter standing in for the epoch-managed
/// pointer; the writer's `Release` store models `Atomic::swap`'s release
/// half).  A [`ShadowSlot`] mirrors the payload slot exactly as
/// `TCell::shadow` does in model builds of the real crate: the writer marks
/// the install while holding the orec, the reader marks its read only after
/// the orec recheck passes — and only on the path that validated at the
/// *post-commit* version, which is the path whose safety rests on the
/// unlock edge.
///
/// With the `Release` unlock (`release_ok = true`) a reader that validated
/// at the new version is happens-after the install: its acquire load of
/// the released orec joins the writer's published view, which also floors
/// the payload location so the displaced generation is no longer readable.
/// Tearing the unlock down to `Relaxed` severs that edge: the reader can
/// validate at the new version while having read (and kept) the *displaced*
/// generation — a value the commit already handed to reclamation.  The
/// race detector reports the confirmed read as unsynchronized with the
/// install, with a replayable token.
pub fn orec_publish_body(release_ok: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let orec = Arc::new(AtomicUsize::new(0));
        let data = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(ShadowSlot::new("tcell.payload"));

        let writer = {
            let (orec, data, slot) = (Arc::clone(&orec), Arc::clone(&data), Arc::clone(&slot));
            model::thread::spawn(move || {
                // try_acquire: lock version 0 (odd word = locked).
                if orec
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Install a fresh payload generation while owning the
                    // orec (the `data.swap` + `shadow.on_write` pair in
                    // `Txn::write_cell`).
                    slot.on_write();
                    data.store(1, Ordering::Release);
                    // release(): unlock at the commit version.  The
                    // `Release` here is the edge under test.
                    let unlock = if release_ok {
                        Ordering::Release
                    } else {
                        Ordering::Relaxed
                    };
                    orec.store(2, unlock);
                }
            })
        };

        let reader = {
            let (orec, data, slot) = (Arc::clone(&orec), Arc::clone(&data), Arc::clone(&slot));
            model::thread::spawn(move || {
                // Optimistic read validated at the post-commit version
                // (`Txn::read_cell_with`: sample, read payload, recheck).
                let o1 = orec.load(Ordering::Acquire);
                if o1 == 2 {
                    let _generation = data.load(Ordering::Acquire);
                    if orec.load(Ordering::Acquire) == o1 {
                        slot.on_read_confirmed();
                    }
                }
            })
        };

        writer.join().unwrap();
        reader.join().unwrap();
    }
}

/// A minimal transcription of the commit-time snapshot-preserve decision
/// from the MVCC custody protocol (`stm::snapshot`), with the pin check
/// deletable.
///
/// A pinned reader raises the live-pin count, samples the clock, and — when
/// the sample says the original payload generation is still the one its
/// snapshot resolves to — keeps that payload.  A displacing committer ticks
/// the clock and then must consult the pin count before recycling the
/// displaced block: a live pin whose version precedes the tick can still be
/// reading it.  `preserve = false` models the seeded bug of skipping the
/// pin check and recycling unconditionally; the reader's kept payload is
/// then overwritten by an install it was never ordered against, which the
/// race detector reports (the real-code counterpart is custody
/// preservation in `WriteEntry::commit`).
pub fn snapshot_preserve_body(preserve: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let pins = Arc::new(AtomicUsize::new(0));
        let version = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(ShadowSlot::new("snapshot.gen0"));

        let reader = {
            let (pins, version, slot) =
                (Arc::clone(&pins), Arc::clone(&version), Arc::clone(&slot));
            model::thread::spawn(move || {
                // SC: pin-publish must precede the clock sample (the
                // SnapshotPin::new ordering proved by the snapshot suite).
                pins.fetch_add(1, Ordering::SeqCst);
                // SC: pairs with the committer's tick; a sample of 0 means
                // this snapshot resolves to the original generation.
                let rv = version.load(Ordering::SeqCst);
                if rv == 0 {
                    // The payload dereference spans the sample and the
                    // orec recheck (`read_pinned_with`'s current-value
                    // path); the recheck is an Acquire load that can
                    // legitimately observe a stale word, and recycling
                    // does not touch this cell's orec — so a recycle
                    // landing inside the window still validates.
                    if version.load(Ordering::Acquire) == 0 {
                        slot.on_read_confirmed();
                    }
                }
                // SC: unpin releases custody to later committers.
                pins.fetch_sub(1, Ordering::SeqCst);
            })
        };

        let committer = {
            let (pins, version, slot) =
                (Arc::clone(&pins), Arc::clone(&version), Arc::clone(&slot));
            model::thread::spawn(move || {
                // SC: the commit tick displaces generation 0.
                version.fetch_add(1, Ordering::SeqCst);
                // SC: the pin check deciding preserve-vs-recycle; the
                // mutation skips it and recycles unconditionally.
                if !preserve || pins.load(Ordering::SeqCst) == 0 {
                    // Recycling hands the displaced block to the slab: a
                    // fresh install lands in the same storage.
                    slot.on_write();
                }
            })
        };

        reader.join().unwrap();
        committer.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// RQC version handoff (crates/skiphash/src/rqc.rs)
// ---------------------------------------------------------------------------

// One packed state word so every protocol step is a single `fetch_update`
// transaction — the real RQC serializes these steps under the STM, and a
// CAS spin-lock transcription would livelock under the DFS preemption
// bound.  Layout: four 4-bit fields, then flags.
const RQC_CTR: u32 = 0; // version counter (ticks on range registration)
const RQC_Q1: u32 = 4; // Q1's registered version (0 = inactive)
const RQC_Q2: u32 = 8; // Q2's registered version (0 = inactive)
const RQC_UNLINK: u32 = 12; // counter value when the node was unlinked
const RQC_NIBBLE: usize = 0xf;
const RQC_UNLINKED: usize = 1 << 16;
const RQC_FREED: usize = 1 << 17;
const RQC_CUSTODY: u32 = 18; // 2 bits: 0 = none, 1 = Q1, 2 = Q2

fn rqc_field(s: usize, shift: u32) -> usize {
    (s >> shift) & RQC_NIBBLE
}

fn rqc_set(s: usize, shift: u32, v: usize) -> usize {
    debug_assert!(v <= RQC_NIBBLE);
    (s & !(RQC_NIBBLE << shift)) | (v << shift)
}

fn rqc_custody(s: usize) -> usize {
    (s >> RQC_CUSTODY) & 3
}

fn rqc_set_custody(s: usize, who: usize) -> usize {
    (s & !(3 << RQC_CUSTODY)) | (who << RQC_CUSTODY)
}

/// Register a range query: tick the counter, record the version.
fn rqc_register(state: &AtomicUsize, who: u32) {
    // SC: each protocol step is one atomic transaction on the state word.
    let _ = state.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
        let ctr = rqc_field(s, RQC_CTR) + 1;
        Some(rqc_set(rqc_set(s, RQC_CTR, ctr), who, ctr))
    });
}

/// Finish a range query (`Rqc::after_range`): deactivate, and if this query
/// holds custody of the deferred node, either hand it *backwards* to a
/// still-active older query or — when it is the oldest — unstitch it.
/// `correct_handoff = false` seeds the bug of unstitching unconditionally.
fn rqc_finish(state: &AtomicUsize, who: u32, correct_handoff: bool) {
    let my_custody = if who == RQC_Q1 { 1 } else { 2 };
    let other = if who == RQC_Q1 { RQC_Q2 } else { RQC_Q1 };
    let other_custody = if who == RQC_Q1 { 2 } else { 1 };
    // SC: each protocol step is one atomic transaction on the state word.
    let _ = state.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
        let my_ver = rqc_field(s, who);
        let other_ver = rqc_field(s, other);
        let mut next = rqc_set(s, who, 0);
        if rqc_custody(s) == my_custody {
            next = if correct_handoff && other_ver != 0 && other_ver < my_ver {
                // Predecessor handoff: an older query is still running and
                // its traversal may reach the deferred node.
                rqc_set_custody(next, other_custody)
            } else {
                // Oldest holder: safe to unstitch and free.
                rqc_set_custody(next, 0) | RQC_FREED
            };
        }
        Some(next)
    });
}

/// A transcription of the range-query-custody protocol from
/// `skiphash::rqc`: nodes unlinked while range queries are in flight are
/// *deferred* to the latest registered query, and a finishing query must
/// hand its deferred nodes backwards to a still-running older query
/// (`Rqc::after_range`'s predecessor handoff) rather than unstitching
/// them — the older query registered before the unlink, so its traversal
/// can still reach the node.
///
/// Three threads: Q1 (registers, *visits* the node, finishes), Q2
/// (registers and finishes quickly), and a remover that unlinks the node
/// and defers it to the latest active query.  With `handoff_ok = false`
/// the seeded bug makes Q2 unstitch on finish even though Q1 is older and
/// still running; Q1's visit then faults on the freed node and the checker
/// reports the custody violation with a replayable token.
pub fn rqc_handoff_body(handoff_ok: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let state = Arc::new(AtomicUsize::new(0));

        let q1 = {
            let state = Arc::clone(&state);
            model::thread::spawn(move || {
                rqc_register(&state, RQC_Q1);
                // Mid-query visit of the (possibly deferred) node.  The
                // node is reachable to this query iff it was unlinked at or
                // after this query's registered version; visiting it after
                // an unstitch is the use-after-free the custody protocol
                // exists to prevent.
                // SC: validated against the latest protocol state.
                let s = state.load(Ordering::SeqCst);
                let my_ver = rqc_field(s, RQC_Q1);
                let reachable = s & RQC_UNLINKED != 0 && my_ver <= rqc_field(s, RQC_UNLINK);
                assert!(
                    !(reachable && s & RQC_FREED != 0),
                    "custody violation: range query visited an unstitched node"
                );
                rqc_finish(&state, RQC_Q1, true);
            })
        };

        let q2 = {
            let state = Arc::clone(&state);
            model::thread::spawn(move || {
                rqc_register(&state, RQC_Q2);
                rqc_finish(&state, RQC_Q2, handoff_ok);
            })
        };

        let remover = {
            let state = Arc::clone(&state);
            model::thread::spawn(move || {
                // Unlink the node; defer to the latest active query, or
                // free immediately when no query can reach it (the
                // `can_unstitch_now` / `defer_batch_to_latest` pair).
                // SC: each protocol step is one atomic transaction.
                let _ = state.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                    let q1 = rqc_field(s, RQC_Q1);
                    let q2 = rqc_field(s, RQC_Q2);
                    let mut next = rqc_set(s, RQC_UNLINK, rqc_field(s, RQC_CTR)) | RQC_UNLINKED;
                    next = if q1 == 0 && q2 == 0 {
                        next | RQC_FREED
                    } else if q1 > q2 {
                        rqc_set_custody(next, 1)
                    } else {
                        rqc_set_custody(next, 2)
                    };
                    Some(next)
                });
            })
        };

        q1.join().unwrap();
        q2.join().unwrap();
        remover.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Borrowed hops (crates/skiphash/src/node.rs `RawNode` + the range.rs scans)
// ---------------------------------------------------------------------------

/// A transcription of the borrowed-hop scan recipe onto the race detector:
/// the scan loops in `skiphash::range` chase tower links through `RawNode`
/// handles — pointer-only copies whose `unsafe fn node()` contract is
/// "dereference only inside the attempt whose epoch guard pinned you".
/// The pin is the *entire* safety argument: an unstitched node is retired,
/// and retirement frees it as soon as no guard from an earlier epoch is
/// live.  There is no per-hop recheck — the borrowed pointer is used after
/// the link that produced it may already point elsewhere.
///
/// State: `pins` (the epoch guard census), `link` (the predecessor's next
/// pointer: `1` = the node is stitched in, `2` = unstitched), `node_next`
/// (the borrowed node's *own* forward link, which the advance loop chases
/// before the payload is consumed), and a [`ShadowSlot`] for the node's
/// payload.  The **scanner** pins, borrows the link, hops through the
/// node's next pointer, and only then reads the payload — exactly the
/// borrow-then-dereference split the raw loops make, with the next-link
/// load sitting inside the window.  The **remover** unstitches the node
/// and frees it only when the guard census is empty (retirement deferring
/// to live guards); freeing is an install into recycled storage,
/// `on_write`.
///
/// With the pin (`pinned = true`) the remover either observes the
/// scanner's guard (and defers) or the all-SeqCst store-buffering shape
/// forces the scanner's borrow to see the unstitch (and skip) — no
/// schedule lets the free overlap the dereference.  Dropping the pin
/// (`pinned = false`) models dereferencing a `RawNode` outside its guard:
/// the remover's census check passes while the scanner still holds the
/// borrowed pointer, and the free races the payload read — a replayable
/// use-after-free token.
pub fn rawhop_scan_body(pinned: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let pins = Arc::new(AtomicUsize::new(0));
        let link = Arc::new(AtomicUsize::new(1));
        let node_next = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(ShadowSlot::new("rawhop.node"));

        let scanner = {
            let (pins, link, node_next, slot) = (
                Arc::clone(&pins),
                Arc::clone(&link),
                Arc::clone(&node_next),
                Arc::clone(&slot),
            );
            model::thread::spawn(move || {
                if pinned {
                    // SC: guard publication — the census bump must be
                    // ordered against the remover's census read (the
                    // store-buffering pair below).
                    pins.fetch_add(1, Ordering::SeqCst);
                }
                // The borrowed hop: read the link once, keep the handle.
                // SC: pairs with the unstitch store on the same location.
                let hop = link.load(Ordering::SeqCst);
                if hop == 1 {
                    // Advance through the borrowed node: the loop loads
                    // the node's own next pointer before its payload is
                    // consumed, so the dereference sits strictly after the
                    // borrow with nothing revalidated in between.
                    let _succ = node_next.load(Ordering::Acquire);
                    slot.on_read_confirmed();
                }
                if pinned {
                    // SC: guard drop hands custody back to retirement.
                    pins.fetch_sub(1, Ordering::SeqCst);
                }
            })
        };

        let remover = {
            let (pins, link, slot) = (Arc::clone(&pins), Arc::clone(&link), Arc::clone(&slot));
            model::thread::spawn(move || {
                // SC: unstitch — publish before the census read, the other
                // half of the store-buffering pair.
                link.store(2, Ordering::SeqCst);
                // SC: the retirement census; a live guard defers the free.
                if pins.load(Ordering::SeqCst) == 0 {
                    // Reclamation recycles the block: a fresh install
                    // lands in the same storage.
                    slot.on_write();
                }
            })
        };

        scanner.join().unwrap();
        remover.join().unwrap();
    }
}

/// Look up a model body by the name used in the replay corpus.
pub fn by_name(name: &str) -> Option<Box<dyn Fn() + Send + Sync>> {
    match name {
        "ebr-clean" => Some(Box::new(ebr_body(EbrFences::CLEAN))),
        "ebr-no-pin-fence" => Some(Box::new(ebr_body(EbrFences {
            pin: false,
            ..EbrFences::CLEAN
        }))),
        "ebr-no-seal-fence" => Some(Box::new(ebr_body(EbrFences {
            seal: false,
            ..EbrFences::CLEAN
        }))),
        "ebr-no-scan-fence" => Some(Box::new(ebr_body(EbrFences {
            scan: false,
            ..EbrFences::CLEAN
        }))),
        "orec-release-ok" => Some(Box::new(orec_publish_body(true))),
        "orec-release-tear" => Some(Box::new(orec_publish_body(false))),
        "snapshot-preserve" => Some(Box::new(snapshot_preserve_body(true))),
        "snapshot-no-preserve" => Some(Box::new(snapshot_preserve_body(false))),
        "rqc-handoff" => Some(Box::new(rqc_handoff_body(true))),
        "rqc-unstitch-early" => Some(Box::new(rqc_handoff_body(false))),
        "rawhop-pinned" => Some(Box::new(rawhop_scan_body(true))),
        "rawhop-unpinned" => Some(Box::new(rawhop_scan_body(false))),
        _ => None,
    }
}
