//! Sweeps the durable-writers workload across group-commit flush intervals,
//! plotting the durability tier's central trade-off: acknowledgment latency
//! versus logged throughput as the fsync cadence stretches.
//!
//! Writer threads upsert monotonically increasing values through a
//! [`skiphash_durability::DurableMap`]; every `--ack-every`-th operation
//! waits for the WAL sync
//! barrier and its latency is recorded (see `skiphash_bench::durability`).
//! Each x-axis point reopens a fresh map with a different
//! `WalConfig::flush_interval`, so the plot shows how batching fsyncs
//! shifts the acknowledgment quantiles.
//!
//! By default the map runs on the in-memory storage backend, which isolates
//! the group-commit machinery (batching, stamp ordering, backpressure) from
//! device speed and keeps the numbers comparable across machines.  Pass
//! `--disk DIR` to run against the real filesystem under `DIR` instead and
//! measure actual fsync cost; each point uses a fresh subdirectory.
//!
//! Output is one table/CSV pair for throughput, one for latency and one for
//! batching (x-axis: flush interval in µs; series: total Mops/s, ack
//! p50/p99/max µs, records per group-commit batch), plus a line per point
//! on stderr (acknowledged count, the same quantiles, records per batch).
//! A `sync` flushes the batch it waits for at once, so the interval prices
//! only the records nobody acknowledges; records per batch shows how much
//! batching the syncers still get from each other.
//!
//! Options (all `--key value`):
//!
//! * `--intervals-us 100,500,1000,...` flush intervals to sweep (default
//!   `100,300,1000,3000,10000`)
//! * `--threads N` writer threads (default 4)
//! * `--universe N` key universe (default 65,536)
//! * `--ack-every N` durable acknowledgment modulus (default 8; 1 = every
//!   commit waits for its fsync)
//! * `--duration-ms N` per-point duration (default 400)
//! * `--disk DIR` run on the real filesystem under `DIR`
//! * `--paper` paper-scale parameters (2 s per point, ack-every 4)

use std::sync::Arc;
use std::time::Duration;

use skiphash_bench::durability::run_durable_trial;
use skiphash_bench::report::{Figure, Series};
use skiphash_bench::trial::mops;
use skiphash_bench::BenchOptions;
use skiphash_durability::{DurableMapBuilder, MemStorage, WalConfig};
use skiphash_stm::stats;

fn main() {
    let options = BenchOptions::from_args();
    let paper_mode = options.get_flag("paper");
    let intervals_us = options.get_u64_list("intervals-us", &[100, 300, 1_000, 3_000, 10_000]);
    let threads = options.get_u64("threads", 4) as usize;
    let universe = options.get_u64("universe", 65_536);
    let ack_every = options.get_u64("ack-every", if paper_mode { 4 } else { 8 });
    let duration = options.duration(if paper_mode { 2_000 } else { 400 });
    let disk = options.get("disk").map(str::to_owned);

    println!(
        "# Durable-writers sweep: backend={}, threads={threads}, universe={universe}, \
         ack_every={ack_every}, duration={duration:?}, intervals_us={intervals_us:?}",
        disk.as_deref().unwrap_or("mem"),
    );

    let mut throughput = Figure::new(
        "Durable writers: throughput vs flush interval",
        "flush interval (us)",
        "throughput (Mops/s)",
    );
    let mut latency = Figure::new(
        "Durable writers: ack latency vs flush interval",
        "flush interval (us)",
        "latency (us)",
    );
    let mut batching = Figure::new(
        "Durable writers: records per batch vs flush interval",
        "flush interval (us)",
        "records per fsync",
    );
    let mut total = Series::new("total");
    let mut per_batch = Series::new("records/batch");
    let mut p50 = Series::new("ack p50");
    let mut p99 = Series::new("ack p99");
    let mut worst = Series::new("ack max");

    for &us in &intervals_us {
        let wal = WalConfig {
            flush_interval: Duration::from_micros(us),
            ..WalConfig::default()
        };
        let (result, records_per_batch) = {
            // Fresh map per point: reusing one would replay an ever-longer
            // log into each successive open and measure recovery, not
            // commit latency.
            let (builder, dir) = match &disk {
                Some(root) => {
                    let dir = format!("{root}/fig-durability-{us}us");
                    (DurableMapBuilder::new(&dir), dir)
                }
                None => {
                    let dir = format!("/fig-durability-{us}us");
                    (
                        DurableMapBuilder::new(&dir).storage(Arc::new(MemStorage::new())),
                        dir,
                    )
                }
            };
            let map = Arc::new(
                builder
                    .wal_config(wal)
                    .open::<u64, u64>()
                    .unwrap_or_else(|e| panic!("open {dir}: {e}")),
            );
            let (records, batches) = (
                stats::wal_records_appended_total(),
                stats::group_commit_flushes_total(),
            );
            let result = run_durable_trial(&map, universe, threads, ack_every, duration, 0xD0_0F);
            map.sync().expect("final sync");
            let records = stats::wal_records_appended_total() - records;
            let batches = stats::group_commit_flushes_total() - batches;
            (result, records as f64 / batches.max(1) as f64)
        };
        let throughput_mops = mops(result.ops, result.elapsed_secs);
        eprintln!(
            "durability interval={us}us: {:.3} Mops/s, acked={} (p50 {:.1}us, p99 {:.1}us, \
             max {:.1}us), {records_per_batch:.1} records/batch",
            throughput_mops,
            result.acked,
            result.ack_quantile_us(0.50),
            result.ack_quantile_us(0.99),
            result.ack_max_us(),
        );
        assert!(
            result.acked > 0,
            "no acknowledged commit at interval {us}us"
        );
        total.push(us as f64, throughput_mops);
        p50.push(us as f64, result.ack_quantile_us(0.50));
        p99.push(us as f64, result.ack_quantile_us(0.99));
        worst.push(us as f64, result.ack_max_us());
        per_batch.push(us as f64, records_per_batch);
    }

    throughput.add_series(total);
    latency.add_series(p50);
    latency.add_series(p99);
    latency.add_series(worst);
    println!("{}", throughput.to_table());
    println!("{}", throughput.to_csv());
    println!("{}", latency.to_table());
    println!("{}", latency.to_csv());
    batching.add_series(per_batch);
    println!("{}", batching.to_table());
    println!("{}", batching.to_csv());
}
