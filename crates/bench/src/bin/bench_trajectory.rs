//! Measures and validates the committed perf trajectory
//! (`BENCH_trajectory.json` at the repository root).
//!
//! Two modes:
//!
//! * **Generate** (default): measure a small fixed sweep — quick
//!   figure-5/6/transfer throughput samples plus the `traversal/` latency
//!   group with ids matching the Criterion benchmarks — and write the
//!   document to `--out` (default `BENCH_trajectory.json`).  The sweep is
//!   sized for tens of seconds, not paper-grade rigor: the file tracks the
//!   *trajectory* across pull requests, the figure drivers remain the
//!   source of publishable numbers.
//! * **`--check <path>`**: validate an existing document (schema tag,
//!   well-formed points, all required families present) and exit non-zero
//!   on any defect.  CI runs this against the committed file.
//!
//! Options for generate mode: `--out PATH`, `--duration-ms N` (per mixed
//! trial, default 300), `--reps N` (per traversal point, default 15).

use std::ops::Bound;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash::{RangePolicy, SkipHash, SkipHashBuilder};
use skiphash_bench::trajectory::{render, validate, TrajectoryPoint};
use skiphash_bench::BenchOptions;
use skiphash_harness::driver::{self, run_transfer_trial};
use skiphash_harness::transfer::TransferPair;
use skiphash_harness::workload::TransferWorkload;
use skiphash_harness::{BenchMap, MapKind, Workload};

// Same shape as the Criterion traversal group, so the ids line up.
const POPULATION: u64 = 20_000;
const UNIVERSE: u64 = 40_000;
const RANGE_LEN: u64 = 1_024;

fn prefilled_skiphash(policy: RangePolicy) -> SkipHash<u64, u64> {
    let map = SkipHashBuilder::new()
        .buckets(28_657)
        .max_level(16)
        .range_policy(policy)
        .build();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut inserted = 0;
    while inserted < POPULATION {
        if map.insert(rng.gen_range(0..UNIVERSE), 1) {
            inserted += 1;
        }
    }
    map
}

/// Median wall time of `reps` runs of `op`, in nanoseconds.
fn median_ns(reps: usize, mut op: impl FnMut()) -> f64 {
    // One warm-up rep primes caches and lazy init outside the sample.
    op();
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn traversal_points(reps: usize, points: &mut Vec<TrajectoryPoint>) {
    // The baseline arms are measured first, while the process's heap is
    // still clean, and written last.  A baseline list built *after* a skip
    // hash lands its small nodes in the free fragments building the skip
    // hash leaves in the heap, scattered instead of packed, and collects
    // ~40% slower for it — a property of the allocator's leftovers, not of
    // the baseline (docs/BENCHMARKS.md has the numbers).
    let mut baselines = Vec::new();
    for (kind, label) in [
        (MapKind::VcasSkipList, "vcas"),
        (MapKind::BundledSkipList, "bundle"),
    ] {
        let map = kind.build(UNIVERSE);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut inserted = 0;
        while inserted < POPULATION {
            if map.insert(rng.gen_range(0..UNIVERSE), 1) {
                inserted += 1;
            }
        }
        let mut rng = SmallRng::seed_from_u64(17);
        let mut buffer = Vec::with_capacity(RANGE_LEN as usize);
        baselines.push(TrajectoryPoint::ns(
            format!("traversal/range_collect/{label}"),
            median_ns(reps, || {
                let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
                let bounds = (Bound::Included(low), Bound::Excluded(low + RANGE_LEN));
                std::hint::black_box(map.range(bounds, &mut buffer));
            }),
        ));
    }

    let map = prefilled_skiphash(RangePolicy::FastOnly);
    points.push(TrajectoryPoint::ns(
        "traversal/level0_scan/skiphash",
        median_ns(reps, || {
            std::hint::black_box(map.to_vec().len());
        }),
    ));

    let snap = map.snapshot();
    points.push(TrajectoryPoint::ns(
        "traversal/level0_scan/snapshot",
        median_ns(reps, || {
            std::hint::black_box(snap.to_vec().len());
        }),
    ));
    drop(snap);

    // Descent is ~1µs; batch it so the Instant overhead stays negligible.
    let mut rng = SmallRng::seed_from_u64(7);
    const DESCENT_BATCH: usize = 256;
    points.push(TrajectoryPoint::ns(
        "traversal/descent/ceil",
        median_ns(reps, || {
            for _ in 0..DESCENT_BATCH {
                std::hint::black_box(map.ceil(&rng.gen_range(0..UNIVERSE)));
            }
        }) / DESCENT_BATCH as f64,
    ));

    let mut rng = SmallRng::seed_from_u64(11);
    points.push(TrajectoryPoint::ns(
        "traversal/range_collect/fast",
        median_ns(reps, || {
            let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
            std::hint::black_box(map.range(low..low + RANGE_LEN).count());
        }),
    ));

    let slow = prefilled_skiphash(RangePolicy::SlowOnly);
    let mut rng = SmallRng::seed_from_u64(13);
    points.push(TrajectoryPoint::ns(
        "traversal/range_collect/slow",
        median_ns(reps, || {
            let low = rng.gen_range(0..UNIVERSE - RANGE_LEN);
            std::hint::black_box(slow.range(low..low + RANGE_LEN).count());
        }),
    ));

    points.append(&mut baselines);
}

fn mixed_points(duration: Duration, points: &mut Vec<TrajectoryPoint>) {
    let universe = 100_000;
    let threads = (std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        / 2)
    .clamp(1, 4);

    // Figure-5 samples: one lookup-heavy and one mixed workload, single
    // thread and a small multi-thread point, skip hash only (the committed
    // trajectory tracks *our* map; baselines live in the figure drivers).
    for name in ["a", "d"] {
        let workload =
            Workload::fig5_by_name(name, universe).expect("fig5 workload letters are stable");
        for t in [1usize, threads] {
            let map: Arc<dyn BenchMap> = MapKind::SkipHashTwoPath.build(universe);
            driver::prefill(&map, &workload, 0xF16_5EED);
            let result = driver::run_mixed_trial(&map, &workload, t, duration, 97);
            let mops = result.mops();
            eprintln!("fig5{name} threads={t}: {mops:.3} Mops/s");
            points.push(TrajectoryPoint::mops(
                format!("fig5/{name}/skiphash/threads={t}"),
                mops,
            ));
            if t == threads && threads == 1 {
                break;
            }
        }
    }

    // Figure-6 sample: split update/range roles at the traversal range
    // length.
    let map: Arc<dyn BenchMap> = MapKind::SkipHashTwoPath.build(universe);
    let prefill = Workload::custom(
        "trajectory-fig6",
        skiphash_harness::WorkloadMix::new(0, 100, 0),
        universe,
        RANGE_LEN,
    );
    driver::prefill(&map, &prefill, 0xF16_6EED);
    let split =
        driver::run_split_trial(&map, universe, RANGE_LEN, threads, threads, duration, 1_000);
    eprintln!(
        "fig6 len={RANGE_LEN}: updates {:.3} Mops/s, ranges {:.3} Mpairs/s",
        split.update_mops(),
        split.range_pairs_mops()
    );
    points.push(TrajectoryPoint::mops(
        format!("fig6/len={RANGE_LEN}/skiphash/update"),
        split.update_mops(),
    ));
    points.push(TrajectoryPoint::mops(
        format!("fig6/len={RANGE_LEN}/skiphash/range_pairs"),
        split.range_pairs_mops(),
    ));

    // Transfer sample: the composed-transaction tier.
    let workload = TransferWorkload::transfer_heavy(universe);
    let pair = Arc::new(TransferPair::new(workload.key_universe));
    pair.prefill(workload.prefill_target());
    let result = run_transfer_trial(&pair, &workload, threads, duration, 0x7A_0F);
    assert_eq!(result.audit_violations, 0, "composition audit must hold");
    eprintln!(
        "transfer threads={threads}: {:.3} Mops/s total",
        result.mops()
    );
    points.push(TrajectoryPoint::mops(
        format!("transfer/transfer-heavy/threads={threads}/total"),
        result.mops(),
    ));
}

fn main() -> ExitCode {
    let options = BenchOptions::from_args();

    if let Some(path) = options.get("check") {
        let contents = match std::fs::read_to_string(path) {
            Ok(contents) => contents,
            Err(err) => {
                eprintln!("bench_trajectory: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        return match validate(&contents) {
            Ok(summary) => {
                println!(
                    "bench_trajectory: {path} OK ({} points)",
                    summary.points.len()
                );
                for point in &summary.points {
                    println!("  {:<45} {:>14.1} {}", point.id, point.value, point.unit);
                }
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("bench_trajectory: {path} INVALID: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let out = options.get("out").unwrap_or("BENCH_trajectory.json");
    let duration = options.duration(300);
    let reps = options.get_u64("reps", 15) as usize;

    // Measured first (its baseline arms want a clean heap), written last.
    let mut traversal = Vec::new();
    traversal_points(reps, &mut traversal);
    let mut points = Vec::new();
    mixed_points(duration, &mut points);
    points.append(&mut traversal);

    let doc = render(&points);
    // Validate what we are about to commit; a writer/validator mismatch
    // should fail here, not in CI.
    if let Err(err) = validate(&doc) {
        eprintln!("bench_trajectory: generated document is invalid: {err}");
        return ExitCode::FAILURE;
    }
    if let Err(err) = std::fs::write(out, &doc) {
        eprintln!("bench_trajectory: cannot write {out}: {err}");
        return ExitCode::FAILURE;
    }
    println!("bench_trajectory: wrote {} points to {out}", points.len());
    ExitCode::SUCCESS
}
