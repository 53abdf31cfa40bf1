//! The closed loop one worker thread runs: draw an operation, call the map,
//! wait for the reply, check it, repeat.
//!
//! The worker keeps its own books.  It looks at the clock only around the
//! operations it times (every 64th, and every range query), closes its own
//! windows from those readings, and writes latencies and spans into buffers
//! allocated before the clock starts.  Nobody polls it.

use std::time::Instant;

use skiphash::SkipHash;
use skiphash_durability::DurableMap;

use crate::oracle::{check_get, check_range, value_of, Bitset, Ownership};
use crate::rng::Rng;
use crate::trace::{Span, SpanBuf, ROOT};
use crate::workload::Role;

/// Point operations are timed (and, in a traced window, given spans) when
/// their operation id is a multiple of this.
pub const SAMPLE_EVERY: u64 = 64;
/// `DurableMap::sync()` is called, and timed, after this many logged ops.
pub const SYNC_EVERY: u64 = 1024;

/// Span names of one target's calls.
#[derive(Debug, Clone, Copy)]
pub struct CallNames {
    get: &'static str,
    put: &'static str,
    remove: &'static str,
    range: &'static str,
}

/// The map under test, as the worker sees it.
pub trait Target {
    /// Result of a range query; borrowed as a slice for the oracle.
    type Pairs;
    /// Span names for the four calls.
    const NAMES: CallNames;
    /// Point lookup.
    fn get(&self, key: u64) -> Option<u64>;
    /// Make `key` present; returns whether it was absent.
    fn put(&self, key: u64) -> bool;
    /// Make `key` absent; returns whether it was present.
    fn remove(&self, key: u64) -> bool;
    /// All pairs with `lo <= key < hi`.
    fn range(&self, lo: u64, hi: u64) -> Self::Pairs;
    /// The pairs of a range result.
    fn pairs(pairs: &Self::Pairs) -> &[(u64, u64)];
    /// The durable map behind the target, when updates are logged.
    fn durable(&self) -> Option<&DurableMap<u64, u64>> {
        None
    }
}

impl Target for SkipHash<u64, u64> {
    type Pairs = skiphash::Range<u64, u64>;
    const NAMES: CallNames = CallNames {
        get: "skiphash.get",
        put: "skiphash.insert",
        remove: "skiphash.remove",
        range: "skiphash.range_copied",
    };
    fn get(&self, key: u64) -> Option<u64> {
        SkipHash::get(self, &key)
    }
    fn put(&self, key: u64) -> bool {
        self.insert(key, value_of(key))
    }
    fn remove(&self, key: u64) -> bool {
        SkipHash::remove(self, &key)
    }
    fn range(&self, lo: u64, hi: u64) -> Self::Pairs {
        self.range_copied(lo..hi)
    }
    fn pairs(pairs: &Self::Pairs) -> &[(u64, u64)] {
        pairs.as_slice()
    }
}

impl Target for DurableMap<u64, u64> {
    type Pairs = skiphash::Range<u64, u64>;
    const NAMES: CallNames = CallNames {
        get: "durability.get",
        put: "durability.upsert",
        remove: "durability.remove",
        range: "skiphash.range_copied",
    };
    fn get(&self, key: u64) -> Option<u64> {
        DurableMap::get(self, &key)
    }
    fn put(&self, key: u64) -> bool {
        self.upsert(key, value_of(key)).is_none()
    }
    fn remove(&self, key: u64) -> bool {
        DurableMap::remove(self, &key)
    }
    fn range(&self, lo: u64, hi: u64) -> Self::Pairs {
        // Reads are never logged; `DurableMap` has no range of its own.
        self.unlogged().range_copied(lo..hi)
    }
    fn pairs(pairs: &Self::Pairs) -> &[(u64, u64)] {
        pairs.as_slice()
    }
    fn durable(&self) -> Option<&DurableMap<u64, u64>> {
        Some(self)
    }
}

/// A wrong answer planted by the tests, to prove the oracle counts it and
/// the run fails.  Applied once, by worker 0, to the first suitable
/// operation on a key it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Turn a `get` hit into a miss or a miss into a hit.
    FlipGet,
    /// Drop one pair from a range result.
    DropRangePair,
}

/// When the worker measures.  All times are nanoseconds since `start`.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Shared zero of every worker's clock.
    pub start: Instant,
    /// Discarded warm-up before the first window.
    pub warm_ns: u64,
    /// Length of one window.
    pub window_ns: u64,
    /// Number of windows.
    pub windows: usize,
    /// Record spans in odd-numbered windows (the traced run).
    pub trace: bool,
    /// Logged operations between checkpoints (durable targets).
    pub checkpoint_every: u64,
    /// Wrong answer to plant (tests only).
    pub fault: Option<Fault>,
}

/// Traced operations kept per traced window and thread; further ones are
/// counted as dropped.
const TRACED_OPS_PER_WINDOW: usize = 4096;
/// Latency samples kept per thread and kind.
const SAMPLE_CAP: usize = 1 << 20;

/// Operations completed inside the measured windows, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `get` calls.
    pub gets: u64,
    /// `put` calls; each inserted an absent key.
    pub puts: u64,
    /// `remove` calls; each removed a present key.
    pub removes: u64,
    /// Range queries.
    pub ranges: u64,
    /// Operations appended to the write-ahead log.
    pub logged: u64,
}

impl OpCounts {
    /// Sum of two workers' counts.
    pub fn plus(self, o: OpCounts) -> OpCounts {
        OpCounts {
            gets: self.gets + o.gets,
            puts: self.puts + o.puts,
            removes: self.removes + o.removes,
            ranges: self.ranges + o.ranges,
            logged: self.logged + o.logged,
        }
    }
}

/// A logged operation not yet covered by an acknowledged `sync()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailOp {
    /// Key written.
    pub key: u64,
    /// Membership after the operation (before it: the opposite).
    pub present: bool,
}

/// Everything a worker hands back.
#[derive(Debug)]
pub struct WorkerOut {
    /// Final membership of the worker's keys.
    pub own: Bitset,
    /// Operations completed per window.
    pub win_ops: Vec<u64>,
    /// Pairs returned by range queries per window.
    pub win_pairs: Vec<u64>,
    /// Sampled point-operation latencies, ns.
    pub point_ns: Vec<u32>,
    /// Range-query latencies, ns.
    pub range_ns: Vec<u32>,
    /// `point_ns.len()` at the close of each window.
    pub point_marks: Vec<usize>,
    /// `range_ns.len()` at the close of each window.
    pub range_marks: Vec<usize>,
    /// `sync()` waits, ns.
    pub ack_ns: Vec<u32>,
    /// `(start, end)` of every checkpoint inside the measured windows.
    pub checkpoints: Vec<(u64, u64)>,
    /// Completed operations inside the measured windows.
    pub counts: OpCounts,
    /// Operations attempted over the whole run, warm-up included.
    pub attempted: u64,
    /// Operations whose answer the oracle rejected (or that returned an
    /// I/O error).
    pub failed: u64,
    /// Spans of the traced windows.
    pub spans: SpanBuf,
    /// Logged operations since the last acknowledged `sync()`, oldest first.
    pub tail: Vec<TailOp>,
    /// Highest `stm::snapshot::live_history_entries()` seen at a sync or
    /// checkpoint boundary.
    pub live_history_peak: u64,
    /// Latency samples that did not fit their buffer.
    pub samples_dropped: u64,
}

fn push_sample(buf: &mut Vec<u32>, dropped: &mut u64, ns: u64) {
    if buf.len() < buf.capacity() {
        buf.push(u32::try_from(ns).unwrap_or(u32::MAX));
    } else {
        *dropped += 1;
    }
}

/// What one worker does and to which keys.
#[derive(Debug)]
pub struct Job {
    /// The operation mix.
    pub role: Role,
    /// The keys the worker owns.
    pub who: Ownership,
    /// Initial membership of those keys.
    pub own: Bitset,
    /// The key space all workers share.
    pub universe: u64,
    /// Seed of the op stream.
    pub seed: u64,
}

/// Run `job` against `target` until the plan's last window closes.  A durable
/// worker then runs on, unmeasured, to the middle of its checkpoint cycle, so
/// that every run crashes at the same distance from a checkpoint.
pub fn run_worker<T: Target>(target: &T, job: Job, plan: &Plan) -> WorkerOut {
    let Job {
        role,
        who,
        mut own,
        universe,
        seed,
    } = job;
    let now = || plan.start.elapsed().as_nanos() as u64;
    let mut rng = Rng::new(seed, 1 + who.id);
    let owned_keys = (universe - who.id).div_ceil(who.workers);
    let durable = target.durable();
    let crash_at = plan.checkpoint_every / 2;

    let traced_windows = if plan.trace { plan.windows / 2 } else { 0 };
    let mut out = WorkerOut {
        own: Bitset::new(0),
        win_ops: Vec::with_capacity(plan.windows),
        win_pairs: Vec::with_capacity(plan.windows),
        point_ns: Vec::with_capacity(if role.get + role.update > 0 {
            SAMPLE_CAP
        } else {
            0
        }),
        range_ns: Vec::with_capacity(if role.range > 0 { SAMPLE_CAP } else { 0 }),
        point_marks: Vec::with_capacity(plan.windows),
        range_marks: Vec::with_capacity(plan.windows),
        ack_ns: Vec::with_capacity(if durable.is_some() {
            SAMPLE_CAP / 16
        } else {
            0
        }),
        checkpoints: Vec::with_capacity(256),
        counts: OpCounts::default(),
        attempted: 0,
        failed: 0,
        spans: SpanBuf::with_capacity(3 * TRACED_OPS_PER_WINDOW * traced_windows),
        tail: Vec::with_capacity(SYNC_EVERY as usize + 64),
        live_history_peak: 0,
        samples_dropped: 0,
    };

    // 0 is the warm-up, 1..=windows are measured, windows + 1 is the run-out.
    let mut period = 0usize;
    let run_out = plan.windows + 1;
    let mut boundary = plan.warm_ns;
    let mut counts = OpCounts::default();
    let (mut win_ops, mut win_pairs) = (0u64, 0u64);
    let mut tracing = false;
    let mut traced_in_window = 0usize;
    let mut fault = plan.fault.filter(|_| who.id == 0);
    let mut width_turn = 0usize;
    let mut since_checkpoint = 0u64;
    let mut logged_total = 0u64;
    let mut op_id = 0u64;

    loop {
        let sampled = op_id.is_multiple_of(SAMPLE_EVERY);
        let measuring = (1..run_out).contains(&period);
        let traced = sampled && tracing && traced_in_window < TRACED_OPS_PER_WINDOW;
        let op_start = if traced { now() } else { 0 };

        let pick = rng.below(100);
        // (kind, call start, call end, reply accepted)
        let (op_name, call_name, t0, t1, ok);
        let mut logged = None;
        if pick < role.get {
            let key = rng.below(universe);
            t0 = if sampled { now() } else { 0 };
            let mut got = target.get(key);
            t1 = if sampled { now() } else { 0 };
            if fault == Some(Fault::FlipGet) && who.owns(key) {
                got = if got.is_some() {
                    None
                } else {
                    Some(value_of(key))
                };
                fault = None;
            }
            ok = check_get(&own, who, key, got);
            counts.gets += 1;
            (op_name, call_name) = ("op.get", T::NAMES.get);
            if sampled && measuring {
                push_sample(&mut out.point_ns, &mut out.samples_dropped, t1 - t0);
            }
        } else if pick < role.get + role.update {
            let key = who.id + who.workers * rng.below(owned_keys);
            // Every update changes the map: put the key if it is absent,
            // remove it if present.  A uniformly drawn key is present half
            // the time, so half the updates are puts and the population
            // stays where it started.
            let put = !own.get(key);
            t0 = if sampled { now() } else { 0 };
            ok = if put {
                target.put(key)
            } else {
                target.remove(key)
            };
            t1 = if sampled { now() } else { 0 };
            own.set(key, put);
            if put {
                counts.puts += 1;
                (op_name, call_name) = ("op.put", T::NAMES.put);
            } else {
                counts.removes += 1;
                (op_name, call_name) = ("op.remove", T::NAMES.remove);
            }
            if durable.is_some() {
                logged = Some(TailOp { key, present: put });
            }
            if sampled && measuring {
                push_sample(&mut out.point_ns, &mut out.samples_dropped, t1 - t0);
            }
        } else {
            let width = role.widths[width_turn % role.widths.len()];
            width_turn += 1;
            let lo = rng.below(universe - width + 1);
            t0 = now();
            let pairs = target.range(lo, lo + width);
            t1 = now();
            let mut slice = T::pairs(&pairs);
            let shortened: Vec<(u64, u64)>;
            if fault == Some(Fault::DropRangePair) {
                if let Some(i) = slice.iter().position(|&(k, _)| who.owns(k)) {
                    shortened = [&slice[..i], &slice[i + 1..]].concat();
                    slice = &shortened;
                    fault = None;
                }
            }
            ok = check_range(&own, who, lo, lo + width, slice);
            counts.ranges += 1;
            win_pairs += slice.len() as u64;
            (op_name, call_name) = ("op.range", T::NAMES.range);
            if measuring {
                push_sample(&mut out.range_ns, &mut out.samples_dropped, t1 - t0);
            }
        }
        out.attempted += 1;
        out.failed += u64::from(!ok);
        win_ops += 1;

        if traced {
            let t_end = now();
            traced_in_window += 1;
            let root = out.spans.push(Span {
                name: op_name,
                start_ns: op_start,
                end_ns: t_end,
                parent: ROOT,
                op: op_id,
            });
            for (name, start_ns, end_ns) in [(call_name, t0, t1), ("oracle.check", t1, t_end)] {
                out.spans.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: root,
                    op: op_id,
                });
            }
        }
        op_id += 1;

        // The durability tier's cadence: acknowledge every SYNC_EVERY logged
        // operations, checkpoint every `checkpoint_every`.
        let mut latest = t1;
        if let (Some(map), Some(op)) = (durable, logged) {
            out.tail.push(op);
            counts.logged += 1;
            logged_total += 1;
            since_checkpoint += 1;
            if logged_total.is_multiple_of(SYNC_EVERY) {
                let s0 = now();
                let synced = map.sync();
                latest = now();
                out.attempted += 1;
                out.failed += u64::from(synced.is_err());
                out.tail.clear();
                if measuring {
                    push_sample(&mut out.ack_ns, &mut out.samples_dropped, latest - s0);
                }
                note_history(&mut out.live_history_peak);
            }
            if since_checkpoint == plan.checkpoint_every {
                let c0 = now();
                let written = map.checkpoint();
                latest = now();
                since_checkpoint = 0;
                out.attempted += 1;
                out.failed += u64::from(written.is_err());
                if measuring {
                    out.checkpoints.push((c0, latest));
                }
                note_history(&mut out.live_history_peak);
            }
        }

        // Close windows from the latest clock reading, if this op took one.
        while latest >= boundary && period < run_out {
            if period >= 1 {
                out.win_ops.push(win_ops);
                out.win_pairs.push(win_pairs);
                out.point_marks.push(out.point_ns.len());
                out.range_marks.push(out.range_ns.len());
                out.counts = out.counts.plus(counts);
            }
            (win_ops, win_pairs, counts) = (0, 0, OpCounts::default());
            period += 1;
            // Odd windows (the 2nd, 4th, ... measured second) are traced.
            tracing = plan.trace && period < run_out && period.is_multiple_of(2);
            traced_in_window = 0;
            boundary += plan.window_ns;
        }
        if period == run_out && (durable.is_none() || since_checkpoint == crash_at) {
            break;
        }
    }
    out.own = own;
    out
}

fn note_history(peak: &mut u64) {
    *peak = (*peak).max(skiphash_stm::snapshot::live_history_entries() as u64);
}
