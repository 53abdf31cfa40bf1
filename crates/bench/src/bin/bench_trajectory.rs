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
//!   on any defect.  The crate's `tests/drivers.rs` runs this against the
//!   committed file.
//!
//! Options for generate mode: `--out PATH`, `--duration-ms N` (per mixed
//! trial, default 300), `--reps N` (per traversal point, default 15).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use skiphash_bench::trajectory::{
    render, traversal_cases, validate, TrajectoryPoint, TRAVERSAL_BASELINES,
};
use skiphash_bench::transfer::{run_transfer_trial, TransferPair};
use skiphash_bench::trial::{mops, run_mixed_trial, run_split_trial};
use skiphash_bench::workload::{prefill, TransferWorkload};
use skiphash_bench::{default_role_threads, BenchOptions, MapKind, Workload};

/// Median over `reps` samples of the time one call of `op` takes.  Each
/// sample times a batch of calls; the warm-up doubles the batch until one
/// takes 100 µs, so a sub-microsecond case is not dominated by the clock
/// reads.
fn median_ns(reps: usize, op: &mut dyn FnMut()) -> f64 {
    let mut time_batch = |batch: u32| {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        start.elapsed().as_nanos() as f64 / f64::from(batch)
    };
    let mut batch = 1;
    while time_batch(batch) * f64::from(batch) < 100_000.0 {
        batch *= 2;
    }
    let mut samples: Vec<f64> = (0..reps.max(1)).map(|_| time_batch(batch)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn mixed_points(duration: Duration, points: &mut Vec<TrajectoryPoint>) {
    let universe = 100_000;
    let threads = default_role_threads().min(4) as usize;
    let prefilled = |seed| {
        let map = MapKind::SkipHashTwoPath.build(universe);
        prefill(universe, universe / 2, seed, |k| map.insert(k, k));
        map
    };

    // Figure-5 samples: one lookup-heavy and one mixed workload, single
    // thread and a small multi-thread point, skip hash only (the committed
    // trajectory tracks *our* map; baselines live in the figure drivers).
    for name in ["a", "d"] {
        let workload =
            Workload::fig5_by_name(name, universe).expect("fig5 workload letters are stable");
        for t in [1usize, threads] {
            let map = prefilled(0xF16_5EED);
            let result = run_mixed_trial(&*map, &workload, t, duration, 97);
            let rate = mops(result.total_ops, result.elapsed_secs);
            eprintln!("fig5{name} threads={t}: {rate:.3} Mops/s");
            points.push(TrajectoryPoint::mops(
                format!("fig5/{name}/skiphash/threads={t}"),
                rate,
            ));
            if t == threads && threads == 1 {
                break;
            }
        }
    }

    // Figure-6 sample: split update/range roles at the traversal range
    // length.
    let len = 1_024;
    let map = prefilled(0xF16_6EED);
    let split = run_split_trial(&*map, universe, len, threads, threads, duration, 1_000);
    let (updates, pairs) = (
        mops(split.updates, split.elapsed_secs),
        mops(split.range_pairs, split.elapsed_secs),
    );
    eprintln!("fig6 len={len}: updates {updates:.3} Mops/s, ranges {pairs:.3} Mpairs/s");
    points.push(TrajectoryPoint::mops(
        format!("fig6/len={len}/skiphash/update"),
        updates,
    ));
    points.push(TrajectoryPoint::mops(
        format!("fig6/len={len}/skiphash/range_pairs"),
        pairs,
    ));

    // Transfer sample: the composed-transaction tier.
    let workload = TransferWorkload::transfer_heavy(universe);
    let pair = TransferPair::new(workload.key_universe);
    pair.prefill(workload.prefill_target());
    let result = run_transfer_trial(&pair, &workload, threads, duration, 0x7A_0F);
    assert_eq!(result.audit_violations, 0, "composition audit must hold");
    let total = mops(result.total_ops, result.elapsed_secs);
    eprintln!("transfer threads={threads}: {total:.3} Mops/s total");
    points.push(TrajectoryPoint::mops(
        format!("transfer/transfer-heavy/threads={threads}/total"),
        total,
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

    // Measured first (its baseline arms want a clean heap), written last,
    // with the baseline arms at the very end.
    let mut traversal = Vec::new();
    traversal_cases(|id, op| {
        traversal.push(TrajectoryPoint::ns(
            format!("traversal/{id}"),
            median_ns(reps, op),
        ))
    });
    traversal.rotate_left(TRAVERSAL_BASELINES.len());
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
