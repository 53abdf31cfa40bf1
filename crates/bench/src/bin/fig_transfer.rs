//! Sweeps the composed-transaction *transfer* workload across thread counts,
//! putting multi-map transactions on the same scaling plots as the paper's
//! Figure 5/6 reproductions.
//!
//! Two skip hashes share one STM runtime; worker threads sample atomic
//! cross-map transfers, atomic both-map audits, and sealed lookups from the
//! selected mix (see `skiphash_bench::transfer`).  No baseline structure
//! appears because none can express the scenario — the plot shows how the
//! STM's composition tier scales, not a head-to-head.
//!
//! Output is one table/CSV pair per mix (x-axis: threads; y-axis: Mops/s;
//! one column per operation class plus the total), plus a correctness line
//! per point: audit violations (must be zero) and key conservation.
//!
//! Options (all `--key value`):
//!
//! * `--mix transfer-heavy|audit-heavy|all` (default `all`)
//! * `--universe N` key universe (default 100,000)
//! * `--threads 1,2,4,...` thread counts (default: powers of two up to 2x
//!   available parallelism)
//! * `--duration-ms N` per-trial duration (default 500)
//! * `--trials N` trials per point, averaged (default 1)
//! * `--paper` paper-scale parameters (universe 10^6, 3 s, 5 trials)

use std::time::Duration;

use skiphash_bench::report::{Figure, Series};
use skiphash_bench::transfer::{run_transfer_trial, TransferPair};
use skiphash_bench::trial::mops;
use skiphash_bench::workload::TransferWorkload;
use skiphash_bench::{default_thread_grid, BenchOptions};

struct Point {
    total_mops: f64,
    transfer_mops: f64,
    audit_mops: f64,
    lookup_mops: f64,
}

fn measure(workload: &TransferWorkload, threads: usize, duration: Duration, trials: u64) -> Point {
    let mut point = Point {
        total_mops: 0.0,
        transfer_mops: 0.0,
        audit_mops: 0.0,
        lookup_mops: 0.0,
    };
    for trial in 0..trials {
        // A fresh pair per trial: transfers migrate keys between the maps, so
        // reusing one would measure a drifting population.
        let pair = TransferPair::new(workload.key_universe);
        pair.prefill(workload.prefill_target());
        let result = run_transfer_trial(&pair, workload, threads, duration, 0x7A_0F ^ trial);
        assert_eq!(
            result.audit_violations, 0,
            "an audit observed a key in both maps — composition is broken"
        );
        assert_eq!(
            pair.total_population(),
            workload.prefill_target() as usize,
            "transfers must conserve keys"
        );
        let rate = |count| mops(count, result.elapsed_secs);
        point.total_mops += rate(result.total_ops);
        point.transfer_mops += rate(result.transfers + result.empty_transfers);
        point.audit_mops += rate(result.audits);
        point.lookup_mops += rate(result.lookups);
    }
    point.total_mops /= trials as f64;
    point.transfer_mops /= trials as f64;
    point.audit_mops /= trials as f64;
    point.lookup_mops /= trials as f64;
    point
}

fn main() {
    let options = BenchOptions::from_args();
    let paper_mode = options.get_flag("paper");
    let universe = options.get_u64("universe", if paper_mode { 1_000_000 } else { 100_000 });
    let duration = options.duration(if paper_mode { 3_000 } else { 500 });
    let trials = options.get_u64("trials", if paper_mode { 5 } else { 1 });
    let threads = options.get_u64_list("threads", &default_thread_grid());
    let which = options.get("mix").unwrap_or("all");

    let workloads: Vec<TransferWorkload> = match which {
        "all" => vec![
            TransferWorkload::transfer_heavy(universe),
            TransferWorkload::audit_heavy(universe),
        ],
        "transfer-heavy" => vec![TransferWorkload::transfer_heavy(universe)],
        "audit-heavy" => vec![TransferWorkload::audit_heavy(universe)],
        other => {
            eprintln!("error: unknown mix {other:?}; expected transfer-heavy, audit-heavy, or all");
            std::process::exit(2);
        }
    };

    println!(
        "# Transfer scenario sweep: universe={universe}, duration={duration:?}, trials={trials}, threads={threads:?}"
    );

    for workload in &workloads {
        let mut figure = Figure::new(
            format!("Transfer scenario ({}): {}", workload.name, workload.mix),
            "threads",
            "throughput (Mops/s)",
        );
        let mut total = Series::new("total");
        let mut transfers = Series::new("transfers");
        let mut audits = Series::new("audits");
        let mut lookups = Series::new("lookups");
        for &t in &threads {
            let point = measure(workload, t as usize, duration, trials);
            eprintln!(
                "transfer[{}] threads={t}: {:.3} Mops/s total ({:.3} transfer, {:.3} audit, {:.3} lookup)",
                workload.name, point.total_mops, point.transfer_mops, point.audit_mops, point.lookup_mops
            );
            total.push(t as f64, point.total_mops);
            transfers.push(t as f64, point.transfer_mops);
            audits.push(t as f64, point.audit_mops);
            lookups.push(t as f64, point.lookup_mops);
        }
        figure.add_series(total);
        figure.add_series(transfers);
        figure.add_series(audits);
        figure.add_series(lookups);
        println!("{}", figure.to_table());
        println!("{}", figure.to_csv());
    }
}
