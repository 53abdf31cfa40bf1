//! Regenerates Figure 6: dedicated update threads and range threads, with the
//! range query length swept from 2^4 to 2^16.
//!
//! The paper runs 24 update-only threads and 24 range-only threads on one
//! socket; this driver defaults to half the available parallelism for each
//! role (minimum one each) and reports, for every range length:
//!
//! * update throughput in millions of operations per second (top chart), and
//! * range throughput in millions of key/value pairs processed per second
//!   (bottom chart).
//!
//! Options: `--universe N`, `--update-threads N`, `--range-threads N`,
//! `--min-exp N`, `--max-exp N`, `--duration-ms N`, `--trials N`, `--paper`.

use std::time::Duration;

use skiphash_bench::report::{Figure, Series};
use skiphash_bench::trial::{mops, run_split_trial};
use skiphash_bench::workload::prefill;
use skiphash_bench::{default_role_threads, BenchOptions, MapKind, Workload};

#[allow(clippy::too_many_arguments)]
fn measure(
    kind: MapKind,
    universe: u64,
    range_len: u64,
    update_threads: usize,
    range_threads: usize,
    duration: Duration,
    trials: u64,
) -> (f64, f64) {
    let map = kind.build(universe);
    prefill(universe, universe / 2, 0xF16_6EED, |k| map.insert(k, k));
    let mut update_mops = 0.0;
    let mut range_pairs = 0.0;
    for trial in 0..trials {
        let result = run_split_trial(
            &*map,
            universe,
            range_len,
            update_threads,
            range_threads,
            duration,
            1_000 + trial,
        );
        update_mops += mops(result.updates, result.elapsed_secs);
        range_pairs += mops(result.range_pairs, result.elapsed_secs);
    }
    (update_mops / trials as f64, range_pairs / trials as f64)
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
    let half = default_role_threads();
    let update_threads = options.get_u64("update-threads", if paper_mode { 24 } else { half });
    let range_threads = options.get_u64("range-threads", if paper_mode { 24 } else { half });
    let min_exp = options.get_u64("min-exp", 4);
    let max_exp = options.get_u64("max-exp", if paper_mode { 16 } else { 12 });

    println!(
        "# Figure 6 reproduction: universe={universe}, update_threads={update_threads}, range_threads={range_threads}, duration={duration:?}, trials={trials}"
    );

    let mut update_figure = Figure::new(
        "Figure 6 (top): update throughput vs range length",
        "range length",
        "update throughput (Mops/s)",
    );
    let mut range_figure = Figure::new(
        "Figure 6 (bottom): range throughput vs range length",
        "range length",
        "range throughput (M pairs/s)",
    );

    for kind in MapKind::range_capable() {
        let mut update_series = Series::new(kind.label());
        let mut range_series = Series::new(kind.label());
        for exp in min_exp..=max_exp {
            let range_len = 1u64 << exp;
            let (update_mops, range_pairs) = measure(
                *kind,
                universe,
                range_len,
                update_threads as usize,
                range_threads as usize,
                duration,
                trials,
            );
            update_series.push(range_len as f64, update_mops);
            range_series.push(range_len as f64, range_pairs);
            eprintln!(
                "fig6 {kind} len=2^{exp}: updates {update_mops:.3} Mops/s, ranges {range_pairs:.3} Mpairs/s"
            );
        }
        update_figure.add_series(update_series);
        range_figure.add_series(range_series);
    }

    println!("{}", update_figure.to_table());
    println!("{}", range_figure.to_table());
    println!("{}", update_figure.to_csv());
    println!("{}", range_figure.to_csv());
}
