//! The benchmark's vocabulary: every metric name, its unit, which way is
//! better, and — for the end-to-end ones — the share of the base median by
//! which it may worsen.  `BENCHMARK.json` at the repository root says the
//! same; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.  `bound` is 0 for per-layer metrics, which have
/// none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the base median.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the map feels; reported by every workload with `--trace 0`.
/// `benchmark/README.md` gives the measured spread behind each bound.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("point_p50_ns", "ns", Lower, 0.25),
    e2e("point_p95_ns", "ns", Lower, 0.25),
    e2e("range_pairs_per_s", "pairs/s", Higher, 0.25),
    e2e("range_p50_us", "us", Lower, 0.25),
    e2e("range_p95_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// One ledger row per layer boundary; reported with `--trace 1`.  A value of
/// exactly 0 on a workload means the workload does not reach that layer.
pub const PER_LAYER: &[Metric] = &[
    layer("stm.txn.ro_empty_ns", "ns", Lower),
    layer("stm.tcell.read_ns", "ns", Lower),
    layer("stm.txn.rmw1_ns", "ns", Lower),
    layer("stm.txn.write8_ns", "ns", Lower),
    layer("stm.snapshot.pin_drop_ns", "ns", Lower),
    layer("stm.commits", "count", Higher),
    layer("stm.ro_commit_share", "share", Higher),
    layer("stm.aborts_per_commit", "ratio", Lower),
    layer("stm.aborts_read_conflict", "count", Lower),
    layer("stm.aborts_write_conflict", "count", Lower),
    layer("stm.aborts_validation", "count", Lower),
    layer("stm.validation_skipped_share", "share", Higher),
    layer("stm.read_dedup_hits_per_commit", "ratio", Higher),
    layer("stm.slab.recycle_per_update", "ratio", Higher),
    layer("stm.arena.node_recycle_per_insert", "ratio", Higher),
    layer("stm.arena.chain_recycle_per_update", "ratio", Higher),
    layer("stm.snapshot.preserved_per_update", "ratio", Lower),
    layer("stm.snapshot.live_history_peak", "count", Lower),
    layer("skiphash.hashmap.get_hit_ns", "ns", Lower),
    layer("skiphash.hashmap.get_miss_ns", "ns", Lower),
    layer("skiphash.hashmap.probe_ns", "ns", Lower),
    layer("skiphash.skiplist.descent_ns", "ns", Lower),
    layer("skiphash.map.insert_ns", "ns", Lower),
    layer("skiphash.map.remove_ns", "ns", Lower),
    layer("skiphash.map.update_ns", "ns", Lower),
    layer("skiphash.range.fast_ns_per_pair", "ns", Lower),
    layer("skiphash.range.slow_ns_per_pair", "ns", Lower),
    layer("skiphash.range.fast_aborts_per_success", "ratio", Lower),
    layer("skiphash.range.slow_share", "share", Lower),
    layer("skiphash.rqc.on_update_ns", "ns", Lower),
    layer("skiphash.rqc.range_bracket_ns", "ns", Lower),
    layer("skiphash.snapshot.create_drop_ns", "ns", Lower),
    layer("skiphash.snapshot.get_ns", "ns", Lower),
    layer("skiphash.snapshot.scan_ns_per_pair", "ns", Lower),
    layer("skiphash.snapshot.scan_churned_ns_per_pair", "ns", Lower),
    layer("skiphash.bytes_per_key", "B", Lower),
    layer("durability.wal.submit_ns", "ns", Lower),
    layer("durability.wal.records", "count", Higher),
    layer("durability.wal.batches", "count", Lower),
    layer("durability.wal.records_per_batch", "ratio", Higher),
    layer("durability.wal.bytes_per_user_byte", "ratio", Lower),
    layer("durability.checkpoint.count", "count", Lower),
    layer("durability.checkpoint.s", "s", Lower),
    layer("durability.checkpoint.bytes", "B", Lower),
    layer("durability.checkpoint.stall_share", "share", Lower),
    layer("durability.recovery.records_replayed", "count", Lower),
    layer("durability.recovery.records_per_s", "1/s", Higher),
    layer("durability.storage.appends", "count", Lower),
    layer("durability.storage.bytes", "B", Lower),
    layer("durability.storage.syncs", "count", Lower),
    layer("durability.ack_p50_us", "us", Lower),
    layer("durability.recover_s", "s", Lower),
    layer("baselines.vcas.range_ns_per_pair", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
];
