//! The four workloads: who runs, which operations, over which keys.
//!
//! Shapes follow the paper's evaluation: fig5d (`read_mostly`), fig5f
//! (`update_heavy`), fig6 + table1 (`scan_vs_update`); `durable_writes` is
//! the only load on `crates/durability`.  See `benchmark/README.md` for why
//! each exists and what it leaves out.

use crate::rng::mix;

/// Keys are `0..UNIVERSE` at scale 1.
pub const UNIVERSE: u64 = 1_000_000;
/// Hash buckets at scale 1: the paper's count for a universe of 10^6.
pub const BUCKETS: usize = skiphash::config::PAPER_BUCKET_COUNT;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 80 % get / 10 % update / 10 % range-100, two workers.
    ReadMostly,
    /// 1 % get / 98 % update / 1 % range-100, two workers.
    UpdateHeavy,
    /// One updater on odd keys beside one scanner over untouched even keys.
    ScanVsUpdate,
    /// One worker through `DurableMap`: WAL, sync, checkpoint, recovery.
    DurableWrites,
}

/// What one worker thread does: shares in percent, and the key-interval
/// widths its range queries cycle through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Role {
    /// Share of `get`.
    pub get: u64,
    /// Share of updates (half put, half remove, on keys the worker owns).
    pub update: u64,
    /// Share of range queries.
    pub range: u64,
    /// Interval widths, used in turn.
    pub widths: &'static [u64],
}

const SHORT: &[u64] = &[100];
/// fig6's two regimes in one scanner: seven short ranges that live on the
/// fast path, then one long enough to be aborted into the RQC slow path.
const SCAN: &[u64] = &[1024, 1024, 1024, 1024, 1024, 1024, 1024, 16384];

const fn mixed(get: u64, update: u64, range: u64) -> Role {
    Role {
        get,
        update,
        range,
        widths: SHORT,
    }
}
const READ_MOSTLY: Role = mixed(80, 10, 10);
const UPDATE_HEAVY: Role = mixed(1, 98, 1);
const UPDATER: Role = mixed(0, 100, 0);
const DURABLE: Role = mixed(45, 50, 5);
const SCANNER: Role = Role {
    get: 0,
    update: 0,
    range: 100,
    widths: SCAN,
};

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadMostly,
        Workload::UpdateHeavy,
        Workload::ScanVsUpdate,
        Workload::DurableWrites,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read_mostly",
            Workload::UpdateHeavy => "update_heavy",
            Workload::ScanVsUpdate => "scan_vs_update",
            Workload::DurableWrites => "durable_writes",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One role per worker thread; worker `i` of `n` owns keys `≡ i (mod n)`.
    pub fn roles(self) -> &'static [Role] {
        match self {
            Workload::ReadMostly => &[READ_MOSTLY, READ_MOSTLY],
            Workload::UpdateHeavy => &[UPDATE_HEAVY, UPDATE_HEAVY],
            // Worker 0 owns the even keys and only scans, so they are never
            // touched; worker 1 owns the odd keys and only updates.
            Workload::ScanVsUpdate => &[SCANNER, UPDATER],
            Workload::DurableWrites => &[DURABLE],
        }
    }

    /// Does the workload run through `DurableMap`?
    pub fn durable(self) -> bool {
        self == Workload::DurableWrites
    }

    /// Is `key` in the map when the measured run starts?
    ///
    /// Half the universe, chosen by `seed`, which is where a 50/50
    /// put/remove stream keeps it.  `scan_vs_update` has every even key
    /// (the scanner's completeness check) plus half the odd ones (the
    /// updater's stationary population), 3/4 of the universe.
    pub fn initially_present(self, seed: u64, key: u64) -> bool {
        let coin = mix(seed ^ mix(key)) & 1 == 1;
        match self {
            Workload::ScanVsUpdate => key.is_multiple_of(2) || coin,
            _ => coin,
        }
    }
}

/// Sizes that shrink together under `--scale` (tests run at 1/20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Keys are `0..universe`.
    pub universe: u64,
    /// Hash buckets of the map under test.
    pub buckets: usize,
    /// Logged operations between two checkpoints in `durable_writes`.
    pub checkpoint_every: u64,
    /// Divisor applied to fixed probe operation counts.
    pub divisor: u64,
}

/// Logged operations between checkpoints at scale 1: a cycle of ~1.7 s on the
/// reference box, so the measured windows hold well over five of them.
const CHECKPOINT_EVERY: u64 = 125_000;

impl Scale {
    /// The sizes at `1/divisor` of the full benchmark.
    pub fn new(divisor: u64) -> Self {
        let divisor = divisor.max(1);
        Self {
            universe: (UNIVERSE / divisor).max(1 << 15),
            buckets: (BUCKETS / divisor as usize).max(1),
            checkpoint_every: (CHECKPOINT_EVERY / divisor).max(1024),
            divisor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_hundred_and_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            for r in w.roles() {
                assert_eq!(r.get + r.update + r.range, 100, "{w:?}");
                assert!(!r.widths.is_empty());
            }
        }
        assert_eq!(Workload::from_name("snapshot_audit"), None);
    }

    #[test]
    fn population_is_half_or_three_quarters() {
        let n = 100_000u64;
        let half = (0..n)
            .filter(|&k| Workload::ReadMostly.initially_present(9, k))
            .count() as f64;
        assert!((half / n as f64 - 0.5).abs() < 0.01);
        let scan = |k| Workload::ScanVsUpdate.initially_present(9, k);
        assert!((0..n).step_by(2).all(scan), "every even key");
        let odd = (1..n).step_by(2).filter(|&k| scan(k)).count() as f64;
        assert!((odd / (n / 2) as f64 - 0.5).abs() < 0.01);
    }
}
