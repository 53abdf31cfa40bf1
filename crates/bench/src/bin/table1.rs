//! Regenerates Table 1: aborts per successful range query in a
//! fast-path-only skip hash, as the range length grows.
//!
//! The paper runs the Figure 6 split workload (update-only threads plus
//! range-only threads) with the fast-path-only skip hash and reports, for
//! range lengths 2^10 through 2^14, how many fast-path attempts aborted per
//! successful range query.  At 2^14 no query completes in the paper (reported
//! as ∞); the same starvation appears here once the range is long enough that
//! concurrent updates always invalidate the single-transaction attempt.
//!
//! To keep the driver from hanging when starvation sets in, each range worker
//! gives up on a query after `--max-attempts` fast-path tries (default 200)
//! and counts it as failed; the abort ratio is still reported against
//! successful queries only, so a saturated row prints `inf` exactly like the
//! paper.
//!
//! Options: `--universe N`, `--update-threads N`, `--range-threads N`,
//! `--min-exp N`, `--max-exp N`, `--duration-ms N`, `--max-attempts N`,
//! `--paper`.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash::RangePolicy;
use skiphash_bench::adapters::skiphash_for;
use skiphash_bench::trial::timed;
use skiphash_bench::workload::prefill;
use skiphash_bench::{default_role_threads, BenchOptions, Workload};

#[derive(Default)]
struct Table1Row {
    aborts: u64,
    successes: u64,
    gave_up: u64,
}

impl Table1Row {
    fn ratio(&self) -> f64 {
        if self.successes == 0 {
            f64::INFINITY
        } else {
            self.aborts as f64 / self.successes as f64
        }
    }
}

fn measure(
    universe: u64,
    range_len: u64,
    update_threads: u64,
    range_threads: u64,
    duration: Duration,
    max_attempts: u64,
) -> Table1Row {
    let map = skiphash_for(universe, RangePolicy::FastOnly);
    prefill(universe, universe / 2, 0x7AB1E, |k| map.insert(k, k));
    let threads = (update_threads + range_threads) as usize;
    // Workers below `update_threads` update; the rest run range queries.
    let (rows, _) = timed(threads, duration, |t, stop| {
        let mut row = Table1Row::default();
        let t = t as u64;
        if t < update_threads {
            let mut rng = SmallRng::seed_from_u64(0xBEEF + t);
            while !stop.requested() {
                let key = rng.gen_range(0..universe);
                if rng.gen::<bool>() {
                    let _ = map.insert(key, key);
                } else {
                    let _ = map.remove(&key);
                }
            }
            return row;
        }
        let mut rng = SmallRng::seed_from_u64(0xCAFE + t - update_threads);
        while !stop.requested() {
            let low = rng.gen_range(0..universe);
            let high = low + range_len;
            let mut attempts = 0;
            loop {
                if map.range_attempt_fast(low..=high).is_some() {
                    row.successes += 1;
                    break;
                }
                attempts += 1;
                if attempts >= max_attempts || stop.requested() {
                    row.gave_up += 1;
                    break;
                }
            }
            row.aborts += attempts;
        }
        row
    });
    rows.iter()
        .fold(Table1Row::default(), |sum, row| Table1Row {
            aborts: sum.aborts + row.aborts,
            successes: sum.successes + row.successes,
            gave_up: sum.gave_up + row.gave_up,
        })
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
    let half = default_role_threads();
    let update_threads = options.get_u64("update-threads", if paper_mode { 24 } else { half });
    let range_threads = options.get_u64("range-threads", if paper_mode { 24 } else { half });
    let min_exp = options.get_u64("min-exp", 10);
    let max_exp = options.get_u64("max-exp", 14);
    let max_attempts = options.get_u64("max-attempts", 200);

    println!(
        "# Table 1 reproduction: universe={universe}, update_threads={update_threads}, range_threads={range_threads}, duration={duration:?}"
    );
    println!(
        "{:>14} {:>14} {:>14} {:>14} {:>18}",
        "Range Length", "Aborts", "Successes", "Gave up", "Aborts/Success"
    );
    for exp in min_exp..=max_exp {
        let range_len = 1u64 << exp;
        let row = measure(
            universe,
            range_len,
            update_threads,
            range_threads,
            duration,
            max_attempts,
        );
        let ratio = row.ratio();
        let ratio_text = if ratio.is_finite() {
            format!("{ratio:.2}")
        } else {
            "inf".to_string()
        };
        println!(
            "{:>14} {:>14} {:>14} {:>14} {:>18}",
            format!("2^{exp} ({range_len})"),
            row.aborts,
            row.successes,
            row.gave_up,
            ratio_text
        );
    }
}
