//! Regenerates Figure 5: throughput vs. thread count for workloads (a)–(f).
//!
//! For every selected workload, every evaluated map is built, pre-filled to
//! half the key universe, and then measured for the configured duration at
//! each thread count.  The output is one table per workload in the same
//! layout the paper plots (x-axis: threads; y-axis: millions of operations
//! per second; one column per map).
//!
//! Options (all `--key value`):
//!
//! * `--workload a|b|c|d|e|f|all` (default `all`)
//! * `--universe N` key universe (default 100,000; the paper uses 1,000,000)
//! * `--threads 1,2,4,...` thread counts (default: powers of two up to 2x
//!   available parallelism)
//! * `--duration-ms N` per-trial duration (default 500; the paper uses 3000)
//! * `--trials N` trials per point, averaged (default 1; the paper uses 5)
//! * `--paper` use the paper's full parameters (universe 10^6, 3 s, 5 trials)

use std::time::Duration;

use skiphash_bench::report::{Figure, Series};
use skiphash_bench::trial::{mops, run_mixed_trial};
use skiphash_bench::workload::prefill;
use skiphash_bench::{default_thread_grid, BenchOptions, MapKind, Workload};

fn measure(
    kind: MapKind,
    workload: &Workload,
    threads: usize,
    duration: Duration,
    trials: u64,
) -> f64 {
    let map = kind.build(workload.key_universe);
    let (universe, target) = (workload.key_universe, workload.prefill_target());
    prefill(universe, target, 0xF16_5EED, |k| map.insert(k, k));
    let mut total = 0.0;
    for trial in 0..trials {
        let result = run_mixed_trial(&*map, workload, threads, duration, 97 + trial);
        total += mops(result.total_ops, result.elapsed_secs);
    }
    total / trials as f64
}

fn main() {
    let options = BenchOptions::from_args();
    let paper_mode = options.get_flag("paper");
    let universe = options.get_u64(
        "universe",
        if paper_mode {
            Workload::PAPER_UNIVERSE
        } else {
            100_000
        },
    );
    let duration = options.duration(if paper_mode { 3_000 } else { 500 });
    let trials = options.get_u64("trials", if paper_mode { 5 } else { 1 });
    let threads = options.get_u64_list("threads", &default_thread_grid());
    let which = options.get("workload").unwrap_or("all");

    let workloads: Vec<Workload> = if which == "all" {
        Workload::fig5_all(universe)
    } else {
        match Workload::fig5_by_name(which, universe) {
            Some(workload) => vec![workload],
            None => {
                eprintln!("error: unknown workload {which:?}; expected a..f or all");
                std::process::exit(2);
            }
        }
    };

    println!(
        "# Figure 5 reproduction: universe={universe}, duration={duration:?}, trials={trials}, threads={threads:?}"
    );

    for workload in &workloads {
        // Workloads with range queries only make sense for range-capable
        // maps; lookup/update-only workloads also include the STM-only maps,
        // as in the paper.
        let kinds: Vec<MapKind> = if workload.mix.range_pct > 0 {
            MapKind::range_capable().to_vec()
        } else {
            MapKind::all().to_vec()
        };
        let mut figure = Figure::new(
            format!("Figure 5{}: {}", workload.name, workload.mix),
            "threads",
            "throughput (Mops/s)",
        );
        for kind in kinds {
            let mut series = Series::new(kind.label());
            for &t in &threads {
                let mops = measure(kind, workload, t as usize, duration, trials);
                series.push(t as f64, mops);
                eprintln!(
                    "fig5{} {} threads={t}: {mops:.3} Mops/s",
                    workload.name, kind
                );
            }
            figure.add_series(series);
        }
        println!("{}", figure.to_table());
        println!("{}", figure.to_csv());
    }
}
