//! The *durable-writers* scenario: update transactions whose commit records
//! flow through the group-commit WAL, with a configurable fraction waiting
//! for the fsync acknowledgment.
//!
//! The interesting trade-off in the durability tier is the flush interval:
//! a short interval gives every acknowledged commit a low latency but
//! issues many small fsyncs; a long interval amortises the fsync over a
//! larger batch but stretches the tail of every `upsert_durable`.  This
//! module drives exactly that sweep:
//!
//! * **writers** — each thread owns a key slice and commits monotonically
//!   increasing values, so the trial double-checks the durability contract
//!   for free (an acknowledged value can never regress after reopen);
//! * every `ack_every`-th operation uses [`DurableMap::upsert_durable`] and
//!   its wall-clock latency is recorded; the rest use the fire-and-forget
//!   logged path.
//!
//! The result reports logged throughput plus the p50/p99/max acknowledgment
//! latency — the y-axes of the `fig_durability` driver.

use std::ops::AddAssign;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skiphash_durability::DurableMap;

use crate::trial::{timed, total};

/// Result of one durable-writers trial.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurableTrialResult {
    /// Total update operations committed (logged + acknowledged).
    pub ops: u64,
    /// Operations that waited for the WAL sync barrier before returning.
    pub acked: u64,
    /// Acknowledgment latencies in nanoseconds, sorted ascending.
    pub ack_latencies_ns: Vec<u64>,
    /// Wall-clock duration of the measured phase, in seconds.
    pub elapsed_secs: f64,
}

impl AddAssign for DurableTrialResult {
    fn add_assign(&mut self, part: Self) {
        self.ops += part.ops;
        self.acked += part.acked;
        self.ack_latencies_ns.extend(part.ack_latencies_ns);
    }
}

impl DurableTrialResult {
    /// The `q`-quantile acknowledgment latency in microseconds (`q` in
    /// `0.0..=1.0`); zero if no operation waited for an acknowledgment.
    pub fn ack_quantile_us(&self, q: f64) -> f64 {
        if self.ack_latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((self.ack_latencies_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.ack_latencies_ns[rank] as f64 / 1e3
    }

    /// The worst acknowledgment latency in microseconds.
    pub fn ack_max_us(&self) -> f64 {
        self.ack_latencies_ns
            .last()
            .map_or(0.0, |&ns| ns as f64 / 1e3)
    }
}

/// Run a timed durable-writers trial: `threads` writers each upsert
/// monotonically increasing values over a private slice of
/// `0..key_universe`, acknowledging durably every `ack_every`-th operation.
///
/// `ack_every == 1` makes every commit wait for its fsync (the synchronous
/// extreme); large values approach the fire-and-forget logged path.
pub fn run_durable_trial(
    map: &Arc<DurableMap<u64, u64>>,
    key_universe: u64,
    threads: usize,
    ack_every: u64,
    duration: Duration,
    seed: u64,
) -> DurableTrialResult {
    assert!(threads > 0, "trial needs at least one writer");
    assert!(
        ack_every > 0,
        "ack_every is a modulus; zero would divide by zero"
    );
    let slice = (key_universe / threads as u64).max(1);
    let (parts, elapsed_secs) = timed(threads, duration, |t, stop| {
        let lo = t as u64 * slice;
        let mut key = lo + (seed.wrapping_mul(0x9E37_79B9) % slice);
        let mut partial = DurableTrialResult::default();
        let mut value = 0u64;
        while !stop.requested() {
            value += 1;
            key = lo + (key + 1 - lo) % slice;
            if partial.ops % ack_every == 0 {
                let begin = Instant::now();
                map.upsert_durable(key, value).expect("durable ack failed");
                partial
                    .ack_latencies_ns
                    .push(begin.elapsed().as_nanos() as u64);
                partial.acked += 1;
            } else {
                map.upsert(key, value);
            }
            partial.ops += 1;
        }
        partial
    });
    let mut result = total(parts);
    result.ack_latencies_ns.sort_unstable();
    result.elapsed_secs = elapsed_secs;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::mops;
    use skiphash_durability::{DurableMapBuilder, MemStorage, WalConfig};

    fn mem_map(dir: &str) -> (MemStorage, Arc<DurableMap<u64, u64>>) {
        let storage = MemStorage::new();
        let map = DurableMapBuilder::new(dir)
            .storage(Arc::new(storage.clone()))
            .wal_config(WalConfig {
                flush_interval: Duration::from_micros(200),
                ..WalConfig::default()
            })
            .open::<u64, u64>()
            .unwrap();
        (storage, Arc::new(map))
    }

    #[test]
    fn durable_trial_progresses_and_reports_latencies() {
        let (_storage, map) = mem_map("/durable-trial");
        let result = run_durable_trial(&map, 1024, 2, 4, Duration::from_millis(150), 7);
        assert!(result.ops > 0, "writers made no progress");
        assert!(
            result.acked > 0,
            "no operation waited for an acknowledgment"
        );
        assert!(result.acked <= result.ops);
        assert_eq!(result.acked as usize, result.ack_latencies_ns.len());
        assert!(mops(result.ops, result.elapsed_secs) > 0.0);
        assert!(result.ack_quantile_us(0.5) <= result.ack_quantile_us(0.99));
        assert!(result.ack_quantile_us(0.99) <= result.ack_max_us());
    }

    #[test]
    fn acknowledged_values_survive_reopen() {
        let (storage, map) = mem_map("/durable-reopen");
        let result = run_durable_trial(&map, 64, 2, 1, Duration::from_millis(100), 13);
        assert!(result.ops > 0);
        // Every op was acknowledged, so the reopened map must hold every
        // final value exactly (each thread's last write is its ack).
        let expected = map.to_vec();
        drop(map);
        let reopened = DurableMapBuilder::new("/durable-reopen")
            .storage(Arc::new(storage))
            .open::<u64, u64>()
            .unwrap();
        assert_eq!(reopened.to_vec(), expected);
    }
}
