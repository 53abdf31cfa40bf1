//! One benchmark run: set up, warm up, measure, check, (probe,) report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use skiphash::{RangeStats, SkipHash, SkipHashBuilder};
use skiphash_durability::DurableMap;
use skiphash_stm::StatsSnapshot;

use crate::oracle::{value_of, Bitset, Ownership};
use crate::probes;
use crate::rng::{mix, Rng};
use crate::stats::{iqr_share, median, quantile_ns};
use crate::storage::{CrashStorage, DeviceCounts};
use crate::trace::{self, SpanBuf};
use crate::worker::{run_worker, Fault, Job, OpCounts, Plan, TailOp, Target, WorkerOut};
use crate::workload::{Scale, Workload};

/// Measured windows per run; `--seconds` is split into a warm-up of one
/// sixth and this many equal windows (24 s: 4 s + 20 × 1 s).
pub const WINDOWS: usize = 20;
/// Threads that populate the map, whatever the workload's worker count, so
/// that set-up times compare across workloads.
const LOADER_THREADS: u64 = 2;
/// Directory of the durable map inside its in-memory device.
const DURABLE_DIR: &str = "/skh-bench";
/// Stride of the insertion order: a prime, so `i * STRIDE mod universe`
/// visits every key once, in an order that is neither sorted nor clustered.
pub const STRIDE: u64 = 6_700_417;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the initial population and every worker's op stream.
    pub seed: u64,
    /// Warm-up plus measured windows, seconds.
    pub seconds: f64,
    /// The traced run: spans, counts and layer probes.
    pub trace: bool,
    /// Size divisor (1 = the benchmark; tests use 20).
    pub scale: Scale,
    /// Wrong answer to plant (tests only).
    pub fault: Option<Fault>,
}

/// What a run found.
#[derive(Debug)]
pub struct RunOutcome {
    /// No operation failed and every end-of-run check held.
    pub correct: bool,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations with a wrong answer or an I/O error.
    pub failed: u64,
    /// End-to-end metric values, in `metrics::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metric values (traced run only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// What is needed to distrust the numbers.
    pub notes: Notes,
    /// Spans of the traced windows, one buffer per worker.
    pub spans: Vec<SpanBuf>,
}

/// Context recorded beside the metrics; never compared, always printed.
#[derive(Debug, Default)]
pub struct Notes {
    /// Which end-of-run checks failed, if any.
    pub check_failures: Vec<String>,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The STM clock the map runs on.
    pub clock: String,
    /// Worker threads.
    pub workers: usize,
    /// Keys present when the measured phase started.
    pub populated: u64,
    /// Operations per second of a fixed mix on a private
    /// `std::collections::BTreeMap`, right after the measured phase: how fast
    /// the machine computed, by a yardstick no change to this repository can
    /// move.
    pub ref_ops_per_s: f64,
    /// Nanoseconds per dependent load far beyond the caches, at the same
    /// moment: how fast the machine's memory answered.
    pub ref_dram_ns: f64,
    /// Operations per second of every window, all workers.
    pub window_ops: Vec<f64>,
    /// Quartile distance of `window_ops` over their median.
    pub window_iqr_share: f64,
    /// Latency samples behind the point quantiles.
    pub point_samples: usize,
    /// Latency samples behind the range quantiles.
    pub range_samples: usize,
    /// Point p50, point p95, range p50, range p95 of every window, ns.
    pub window_quantiles: [Vec<f64>; 4],
    /// The p99 of all point samples (ns) and of all range samples (us) of
    /// the run, disturbed windows included.  Not a metric: where ~1 % of the
    /// operations are slow ones (a conflict, a reclamation burst) the p99
    /// sits on the edge of that population and flips between runs.
    pub whole_run_p99: [f64; 2],
    /// Latency samples that did not fit a buffer.
    pub samples_dropped: u64,
    /// Cost of one clock reading, included in every latency sample.
    pub clock_read_ns: f64,
    /// Completed operations in the measured windows, by kind.
    pub counts: OpCounts,
    /// `sync()` wait, median and sample count (durable workload).
    pub ack_p50_us: Option<(f64, usize)>,
    /// Reopen from the crash image, seconds (durable workload).
    pub recover_s: Option<f64>,
    /// Checkpoints completed inside the measured windows.
    pub checkpoints: usize,
    /// Per span name: count, total ns, self ns (traced run).
    pub span_totals: Vec<(&'static str, trace::NameTotals)>,
    /// Spans that did not fit their buffer.
    pub spans_dropped: u64,
    /// Wall time of each phase of the run, seconds, in order.
    pub phases_s: Vec<(&'static str, f64)>,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A populated map under test.
enum Built {
    Plain(SkipHash<u64, u64>),
    Durable {
        map: Box<DurableMap<u64, u64>>,
        device: CrashStorage,
    },
}

impl Built {
    /// The in-memory map, for reads, statistics and probes.
    fn plain(&self) -> &SkipHash<u64, u64> {
        match self {
            Built::Plain(map) => map,
            Built::Durable { map, .. } => map.unlogged(),
        }
    }

    fn device_counts(&self) -> DeviceCounts {
        match self {
            Built::Plain(_) => DeviceCounts::default(),
            Built::Durable { device, .. } => device.counts(),
        }
    }
}

/// `SkipHashBuilder` defaults (Sampled clock, `TwoPath{3}`, `Buffered(32)`)
/// with only the bucket count sized to the universe, as the paper does.
fn map_builder(scale: Scale) -> SkipHashBuilder {
    SkipHashBuilder::new().buckets(scale.buckets)
}

/// Open a durable map on `device`.
pub fn open_durable(device: &CrashStorage, scale: Scale) -> std::io::Result<DurableMap<u64, u64>> {
    DurableMap::<u64, u64>::builder(DURABLE_DIR)
        .storage(Arc::new(device.clone()))
        .map_config(map_builder(scale).config())
        .open()
}

/// Insert share `part` of `parts` of the workload's initial population (every
/// `parts`-th key of the insertion order); returns how many keys.
fn populate<T: Target>(target: &T, cfg: &RunConfig, part: u64, parts: u64) -> u64 {
    let universe = cfg.scale.universe;
    assert!(
        !universe.is_multiple_of(STRIDE),
        "stride must not divide the universe"
    );
    let mut inserted = 0;
    for i in (part..universe).step_by(parts as usize) {
        let key = (i * STRIDE) % universe;
        if cfg.workload.initially_present(cfg.seed, key) {
            assert!(target.put(key), "populate: key {key} inserted twice");
            inserted += 1;
        }
    }
    inserted
}

/// Populate with [`LOADER_THREADS`] threads, each taking an equal share of the
/// insertion order; returns how many keys.
fn populate_in_parallel<T: Target + Sync>(target: &T, cfg: &RunConfig) -> u64 {
    thread::scope(|s| {
        let handles: Vec<_> = (0..LOADER_THREADS)
            .map(|part| s.spawn(move || populate(target, cfg, part, LOADER_THREADS)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a populating thread panicked"))
            .sum()
    })
}

/// Build and populate, as a user would before the first operation.  The
/// durable map is opened on an empty device, populated through the log,
/// synced and checkpointed.  Returns the map and its key count.
fn set_up(cfg: &RunConfig) -> (Built, u64) {
    if cfg.workload.durable() {
        let device = CrashStorage::new();
        let map = open_durable(&device, cfg.scale).expect("open an empty in-memory directory");
        let n = populate_in_parallel(&map, cfg);
        map.sync().expect("sync to in-memory storage");
        map.checkpoint().expect("checkpoint to in-memory storage");
        let map = Box::new(map);
        (Built::Durable { map, device }, n)
    } else {
        let map = map_builder(cfg.scale).build::<u64, u64>();
        let n = populate_in_parallel(&map, cfg);
        (Built::Plain(map), n)
    }
}

/// Initial membership of the keys worker `who` owns.
fn initial_bits(workload: Workload, seed: u64, universe: u64, who: Ownership) -> Bitset {
    let mut bits = Bitset::new(universe);
    for key in (who.id..universe).step_by(who.workers as usize) {
        if workload.initially_present(seed, key) {
            bits.set(key, true);
        }
    }
    bits
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

/// `VmRSS` and `VmHWM` of this process, bytes.
fn rss_and_peak() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// How fast the machine computes, now: operations per second of a fixed mix
/// (half gets, a quarter inserts, a quarter removes, uniformly drawn keys) on
/// a private `std::collections::BTreeMap` of about 500,000 keys, one thread.
/// Its ~12 MiB mostly stay in the caches, so it follows the vCPU's speed and
/// barely feels the memory behind it.
fn ref_ops_per_s() -> f64 {
    const KEYS: u64 = 1_000_000;
    const OPS: u64 = 1_000_000;
    let mut map: BTreeMap<u64, u64> = (0..KEYS)
        .map(|i| (i * STRIDE) % KEYS)
        .filter(|k| mix(*k) & 1 == 1)
        .map(|k| (k, k))
        .collect();
    let mut rng = Rng::new(0xCA11B, 0);
    let start = Instant::now();
    for _ in 0..OPS {
        let r = rng.next_u64();
        let key = (r >> 2) % KEYS;
        match r & 3 {
            0 => {
                map.insert(key, r);
            }
            1 => {
                map.remove(&key);
            }
            _ => {
                black_box(map.get(&key));
            }
        }
    }
    OPS as f64 / start.elapsed().as_secs_f64()
}

/// How fast the machine's memory answers, now: nanoseconds per dependent load
/// in a pointer chase through a 256 MiB table, about the footprint of the map
/// under test, far beyond the caches.  Slot `i` holds its successor under a
/// full-period linear congruential step, so the chase visits every slot once
/// in an order no prefetcher follows.  On this shared box this is the number
/// that drifts (see the README), and the maps drift with it.
fn ref_dram_ns() -> f64 {
    const SLOTS: u32 = 1 << 26;
    const HOPS: u32 = 1 << 20;
    let table: Vec<u32> = (0..SLOTS)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % SLOTS)
        .collect();
    let mut at = 0;
    let start = Instant::now();
    for _ in 0..HOPS {
        at = table[at as usize];
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / f64::from(HOPS)
}

/// Cost of one `Instant` reading, ns.
fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

// ---------------------------------------------------------------------------
// The measured phase
// ---------------------------------------------------------------------------

/// Public counters of the layers, read by the main thread when the warm-up
/// ends and when the last window closes.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// `stm_stats()`.
    pub stm: StatsSnapshot,
    /// `range_stats()`.
    pub range: RangeStats,
    /// Requests to the in-memory device.
    pub device: DeviceCounts,
}

fn read_counters(built: &Built) -> Counters {
    Counters {
        stm: built.plain().stm_stats(),
        range: built.plain().range_stats(),
        device: built.device_counts(),
    }
}

/// Run every role of the workload against `target`, one thread each, and
/// collect their books.  The main thread sleeps; it wakes twice, at the two
/// ends of the measured windows, to read the layers' public counters.
fn measure<T: Target + Sync>(
    target: &T,
    built: &Built,
    cfg: &RunConfig,
    plan: &Plan,
) -> (Vec<WorkerOut>, [Counters; 2]) {
    let roles = cfg.workload.roles();
    let universe = cfg.scale.universe;
    let workers = roles.len() as u64;
    let measured_ns = plan.window_ns * plan.windows as u64;
    thread::scope(|s| {
        let handles: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(id, &role)| {
                let who = Ownership {
                    workers,
                    id: id as u64,
                };
                let job = Job {
                    role,
                    who,
                    own: initial_bits(cfg.workload, cfg.seed, universe, who),
                    universe,
                    seed: cfg.seed,
                };
                s.spawn(move || run_worker(target, job, plan))
            })
            .collect();
        let sleep_until = |ns: u64| {
            thread::sleep(Duration::from_nanos(ns).saturating_sub(plan.start.elapsed()));
        };
        sleep_until(plan.warm_ns);
        let before = read_counters(built);
        sleep_until(plan.warm_ns + measured_ns);
        let after = read_counters(built);
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("a worker thread panicked"))
            .collect();
        (outs, [before, after])
    })
}

/// Does the recovered key set equal the worker's op stream cut somewhere
/// between its last acknowledged `sync()` and its last operation?
///
/// `last` is the membership after every operation and `tail` the logged
/// operations since the last acknowledged sync, oldest first.
pub fn recovered_is_a_cut(last: &Bitset, tail: &[TailOp], recovered: &Bitset) -> bool {
    // Undo the tail to get the acknowledged state, then replay it one
    // operation at a time, tracking how many keys still differ.
    let mut state = last.clone();
    for op in tail.iter().rev() {
        state.set(op.key, !op.present);
    }
    let mut differing = state.differing(recovered);
    for op in tail {
        if differing == 0 {
            return true;
        }
        let was_wrong = state.get(op.key) != recovered.get(op.key);
        state.set(op.key, op.present);
        let is_wrong = state.get(op.key) != recovered.get(op.key);
        differing = differing + u64::from(is_wrong) - u64::from(was_wrong);
    }
    differing == 0
}

/// The `q` quantile of each window's latency samples (all workers'), ns; a
/// window without samples is left out.  `pick` gives a worker's samples and
/// their length at the close of each window.
fn window_quantiles(
    outs: &[WorkerOut],
    pick: fn(&WorkerOut) -> (&[u32], &[usize]),
    q: f64,
) -> Vec<f64> {
    let mut scratch = Vec::new();
    let mut per_window = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        scratch.clear();
        for o in outs {
            let (samples, marks) = pick(o);
            let from = if w == 0 { 0 } else { marks[w - 1] };
            scratch.extend_from_slice(&samples[from..marks[w]]);
        }
        if !scratch.is_empty() {
            per_window.push(quantile_ns(&mut scratch, q));
        }
    }
    per_window
}

/// Median of `series`, 0 when it is empty (a role that never runs the
/// operation kind).
fn typical(series: &[f64]) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        median(series)
    }
}

fn point_ns(o: &WorkerOut) -> (&[u32], &[usize]) {
    (&o.point_ns, &o.point_marks)
}

fn range_ns(o: &WorkerOut) -> (&[u32], &[usize]) {
    (&o.range_ns, &o.range_marks)
}

/// Turn the workers' books into the end-to-end metrics (all but `setup_s` and
/// `peak_rss_mb`, which the caller has) and the notes behind them.
///
/// A throughput is the median window; a latency quantile is taken per window,
/// and of those the median — the quantile of a typical window, which like the
/// median window does not move when a few windows are disturbed from outside.
fn tally(outs: &[WorkerOut], window_s: f64, notes: &mut Notes) -> Vec<(&'static str, f64)> {
    let per_window = |pick: fn(&WorkerOut) -> &Vec<u64>| -> Vec<f64> {
        (0..WINDOWS)
            .map(|w| outs.iter().map(|o| pick(o)[w]).sum::<u64>() as f64 / window_s)
            .collect()
    };
    let ops = per_window(|o| &o.win_ops);
    let pairs = per_window(|o| &o.win_pairs);
    let quantiles = [
        window_quantiles(outs, point_ns, 0.50),
        window_quantiles(outs, point_ns, 0.95),
        window_quantiles(outs, range_ns, 0.50),
        window_quantiles(outs, range_ns, 0.95),
    ];
    let whole_run_p99 = |pick: fn(&WorkerOut) -> (&[u32], &[usize]), unit: f64| {
        let mut all: Vec<u32> = outs
            .iter()
            .flat_map(|o| pick(o).0.iter().copied())
            .collect();
        if all.is_empty() {
            0.0
        } else {
            quantile_ns(&mut all, 0.99) / unit
        }
    };

    let metrics = vec![
        ("ops_per_s", median(&ops)),
        ("point_p50_ns", typical(&quantiles[0])),
        ("point_p95_ns", typical(&quantiles[1])),
        ("range_pairs_per_s", median(&pairs)),
        ("range_p50_us", typical(&quantiles[2]) / 1e3),
        ("range_p95_us", typical(&quantiles[3]) / 1e3),
    ];
    notes.whole_run_p99 = [whole_run_p99(point_ns, 1.0), whole_run_p99(range_ns, 1e3)];
    notes.window_quantiles = quantiles;
    notes.window_iqr_share = iqr_share(&ops);
    notes.window_ops = ops;
    notes.point_samples = outs.iter().map(|o| o.point_ns.len()).sum();
    notes.range_samples = outs.iter().map(|o| o.range_ns.len()).sum();
    notes.samples_dropped = outs.iter().map(|o| o.samples_dropped).sum();
    notes.counts = outs
        .iter()
        .fold(OpCounts::default(), |a, o| a.plus(o.counts));
    notes.checkpoints = outs.iter().map(|o| o.checkpoints.len()).sum();
    metrics
}

fn bits_of(pairs: &[(u64, u64)], universe: u64) -> Option<Bitset> {
    let mut bits = Bitset::new(universe);
    for &(k, v) in pairs {
        if k >= universe || v != value_of(k) {
            return None;
        }
        bits.set(k, true);
    }
    Some(bits)
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> RunOutcome {
    let mut notes = Notes {
        nproc: thread::available_parallelism().map_or(0, usize::from),
        cpu_model: cpu_model(),
        workers: cfg.workload.roles().len(),
        clock_read_ns: clock_read_ns(),
        ..Notes::default()
    };
    let universe = cfg.scale.universe;
    let mut phase_start = Instant::now();
    let mut phase_done = |notes: &mut Notes, name| {
        notes
            .phases_s
            .push((name, phase_start.elapsed().as_secs_f64()));
        phase_start = Instant::now();
    };
    let (rss_before, _) = rss_and_peak();
    let t = Instant::now();
    let (built, populated) = set_up(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let bytes_per_key = rss_and_peak().0.saturating_sub(rss_before) as f64 / populated as f64;
    notes.populated = populated;
    phase_done(&mut notes, "set-up");
    notes.clock = built.plain().stm().clock_name().to_owned();

    let total_ns = (cfg.seconds * 1e9) as u64;
    let warm_ns = total_ns / 6;
    let plan = Plan {
        start: Instant::now(),
        warm_ns,
        window_ns: (total_ns - warm_ns) / WINDOWS as u64,
        windows: WINDOWS,
        trace: cfg.trace,
        checkpoint_every: cfg.scale.checkpoint_every,
        fault: cfg.fault,
    };
    let (mut outs, counters) = match &built {
        Built::Plain(map) => measure(map, &built, cfg, &plan),
        Built::Durable { map, .. } => measure(&**map, &built, cfg, &plan),
    };
    let (_, peak_rss) = rss_and_peak();
    phase_done(&mut notes, "measure");
    // The references, neither ever a metric: they tell a reader that two sets
    // of runs were made on a machine in different moods.  Taken here, when
    // the peak has been read and the heap no longer matters, because their
    // memory would otherwise sit in both.
    notes.ref_ops_per_s = ref_ops_per_s();
    notes.ref_dram_ns = ref_dram_ns();
    phase_done(&mut notes, "references");

    let window_s = plan.window_ns as f64 / 1e9;
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let mut end_to_end = vec![("setup_s", setup_s)];
    end_to_end.extend(tally(&outs, window_s, &mut notes));
    end_to_end.push(("peak_rss_mb", peak_rss as f64 / (1 << 20) as f64));
    // The quantiles rest on at least 1,000 samples; a scaled-down test run
    // may fall short, the benchmark proper must not.
    if cfg.scale.divisor == 1 && cfg.seconds >= 10.0 {
        for (kind, n) in [
            ("point", notes.point_samples),
            ("range", notes.range_samples),
        ] {
            if n < 1000 {
                notes
                    .check_failures
                    .push(format!("only {n} {kind} latency samples"));
            }
        }
    }

    // End-of-run checks: the map must hold exactly what the workers' private
    // sets say.  (`check_invariants()` walks the whole map in one
    // transaction and takes minutes at this size; not called.)
    let mut expected = Bitset::new(universe);
    for o in &outs {
        expected.union_with(&o.own);
    }
    let map = built.plain();
    if map.len() as u64 != expected.count() {
        notes.check_failures.push(format!(
            "len() = {}, expected {}",
            map.len(),
            expected.count()
        ));
    }
    if bits_of(&map.to_vec_copied(), universe).as_ref() != Some(&expected) {
        notes
            .check_failures
            .push("to_vec_copied() differs from the workers' key sets".to_owned());
    }

    phase_done(&mut notes, "check");

    // Durable: crash, reopen from what was synced, compare.
    let mut durable_layers = Vec::new();
    if let Built::Durable { map, device } = &built {
        let image = device.crash_image();
        let t = Instant::now();
        let reopened = open_durable(&image, cfg.scale);
        let recover_s = t.elapsed().as_secs_f64();
        notes.recover_s = Some(recover_s);
        match reopened {
            Err(e) => notes.check_failures.push(format!("reopen failed: {e}")),
            Ok(reopened) => {
                let got = bits_of(&reopened.unlogged().to_vec_copied(), universe);
                let tail = &outs[0].tail;
                if !got.is_some_and(|g| recovered_is_a_cut(&expected, tail, &g)) {
                    notes.check_failures.push(
                        "recovered map is not the op stream cut after its last acknowledged sync"
                            .to_owned(),
                    );
                }
                let replayed = reopened.recovery_info().records_replayed as f64;
                durable_layers = vec![
                    ("durability.recovery.records_replayed", replayed),
                    ("durability.recovery.records_per_s", replayed / recover_s),
                    ("durability.recover_s", recover_s),
                ];
            }
        }
        if let Some(e) = map.take_checkpoint_error() {
            notes.check_failures.push(format!("checkpoint failed: {e}"));
        }
        let mut ack_ns: Vec<u32> = outs.iter().flat_map(|o| o.ack_ns.iter().copied()).collect();
        if !ack_ns.is_empty() {
            notes.ack_p50_us = Some((quantile_ns(&mut ack_ns, 0.5) / 1e3, ack_ns.len()));
        }
    }

    phase_done(&mut notes, "recover");

    // The traced run: counts over the measured windows, then the probes.
    let mut per_layer = Vec::new();
    let spans: Vec<SpanBuf> = outs
        .iter_mut()
        .map(|o| std::mem::take(&mut o.spans))
        .collect();
    if cfg.trace {
        let measured_s = window_s * WINDOWS as f64;
        per_layer = probes::count_metrics(&counters, notes.counts, &outs, measured_s);
        per_layer.extend(durable_layers);
        if let Some((p50, _)) = notes.ack_p50_us {
            per_layer.push(("durability.ack_p50_us", p50));
        }
        per_layer.push(("skiphash.bytes_per_key", bytes_per_key));
        let even: Vec<f64> = notes.window_ops.iter().copied().step_by(2).collect();
        let odd: Vec<f64> = notes
            .window_ops
            .iter()
            .copied()
            .skip(1)
            .step_by(2)
            .collect();
        per_layer.push(("trace.overhead_share", 1.0 - median(&odd) / median(&even)));
        per_layer.extend(probes::run_probes(built.plain(), &expected, cfg));
        notes.span_totals = trace::summarize(&spans).into_iter().collect();
        notes.spans_dropped = spans.iter().map(SpanBuf::dropped).sum();
    }
    phase_done(&mut notes, "probes");

    drop(built);
    phase_done(&mut notes, "drop");

    RunOutcome {
        correct: failed == 0 && notes.check_failures.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
        spans,
    }
}

/// Write the spans of a traced run as JSON lines.
pub fn write_spans(spans: &[SpanBuf], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_jsonl(spans, &mut out)?;
    std::io::Write::flush(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(universe: u64, keys: &[u64]) -> Bitset {
        let mut b = Bitset::new(universe);
        for &k in keys {
            b.set(k, true);
        }
        b
    }

    #[test]
    fn recovery_must_be_a_cut_of_the_unacknowledged_tail() {
        // Acknowledged state {1, 2}; then: insert 3, remove 1, insert 4.
        let op = |key, present| TailOp { key, present };
        let tail = [op(3, true), op(1, false), op(4, true)];
        let last = bits(8, &[2, 3, 4]);

        for cut in [&[1, 2][..], &[1, 2, 3], &[2, 3], &[2, 3, 4]] {
            assert!(recovered_is_a_cut(&last, &tail, &bits(8, cut)), "{cut:?}");
        }
        // Not a prefix: the last insert without the remove before it.
        assert!(!recovered_is_a_cut(&last, &tail, &bits(8, &[1, 2, 3, 4])));
        // Lost an acknowledged key / resurrected a never-written one.
        assert!(!recovered_is_a_cut(&last, &tail, &bits(8, &[1])));
        assert!(!recovered_is_a_cut(&last, &tail, &bits(8, &[1, 2, 5])));
        // Nothing unacknowledged: only the final state will do.
        assert!(recovered_is_a_cut(&last, &[], &last));
        assert!(!recovered_is_a_cut(&last, &[], &bits(8, &[2, 3])));
    }

    #[test]
    fn populate_shares_cover_the_population_once() {
        let cfg = RunConfig {
            workload: Workload::ScanVsUpdate,
            seed: 5,
            seconds: 1.0,
            trace: false,
            scale: Scale::new(20),
            fault: None,
        };
        let map = map_builder(cfg.scale).build::<u64, u64>();
        let n = populate(&map, &cfg, 0, 2) + populate(&map, &cfg, 1, 2);
        let all = Ownership { workers: 1, id: 0 };
        let expected = initial_bits(cfg.workload, cfg.seed, cfg.scale.universe, all);
        assert_eq!(n, expected.count());
        assert_eq!(
            bits_of(&map.to_vec_copied(), cfg.scale.universe),
            Some(expected)
        );
    }
}
