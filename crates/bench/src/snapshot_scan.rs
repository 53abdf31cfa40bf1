//! The *scans-vs-writers* scenario: long-running pinned snapshot scans
//! concurrent with transactional writers.
//!
//! The single-map [`BenchMap`](crate::BenchMap) interface measures point
//! operations and transactional range queries, but it cannot express the
//! workload MVCC snapshots exist for: an analytical full scan that must see
//! **one** consistent version of the map while update transactions keep
//! committing at full speed.  This module drives exactly that:
//!
//! * **writers** — transfer transactions moving one unit of value between two
//!   random accounts (debit + credit in one atomic transaction), so the total
//!   value across the map is invariant;
//! * **scanners** — each iteration takes a [`Snapshot`](skiphash::Snapshot),
//!   scans it end to end, and checks the conservation invariant (every pair
//!   present, total value exact).  A torn scan — one that mixes the debit of
//!   one transfer with the credit of another — breaks the sum and is counted
//!   as a violation.
//!
//! Without snapshots the scan would need a transaction over the whole map
//! (aborting against every concurrent writer) or a stop-the-world lock; the
//! pinned scan instead reads at its frozen version while writers proceed, at
//! the cost of the bounded history custody described in `docs/PERF.md`.
//!
//! [`run_bundle_scan_trial`] is the baseline arm of the comparison: the
//! bundled skip list timestamps its links, so its range scans are also
//! linearizable against concurrent writers — but it offers no multi-key
//! atomicity, so its writers churn single keys (remove + reinsert) rather
//! than transfer value, and the scan audit is correspondingly weaker (keys
//! strictly increasing: no duplicate, none out of order) rather than a
//! conservation sum.
//!
//! The writer steps ([`transfer_unit`], [`churn_key`]) are public so the
//! Criterion `snapshot/` group's background writers run the same code.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use skiphash::SkipHash;
use skiphash_baselines::BundledSkipList;

use crate::trial::{add_counters, timed, total};

/// Result of one scans-vs-writers trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SnapshotScanTrialResult {
    /// Full pinned scans completed by the scanner threads (one snapshot
    /// taken and dropped per scan).
    pub scans: u64,
    /// Key/value pairs returned across all pinned scans.
    pub scan_pairs: u64,
    /// Transfer transactions committed by the writer threads.
    pub writer_ops: u64,
    /// Scans whose population or value total broke the conservation
    /// invariant — must stay zero; a snapshot is a consistent cut.
    pub tearing_violations: u64,
    /// Wall-clock duration of the measured phase, in seconds.
    pub elapsed_secs: f64,
}

add_counters!(SnapshotScanTrialResult {
    scans,
    scan_pairs,
    writer_ops,
    tearing_violations
});

/// Pre-fill `map` with accounts `0..accounts`, each holding `initial` units,
/// so every snapshot taken during the trial must total exactly
/// `accounts * initial`.
pub fn prefill_accounts(map: &SkipHash<u64, u64>, accounts: u64, initial: u64) {
    for key in 0..accounts {
        map.insert(key, initial);
    }
}

/// One writer step: move one unit between two random accounts (debit and
/// credit in one transaction).  False when the draw picked one account
/// twice or an empty one, so nothing moved.
pub fn transfer_unit(map: &SkipHash<u64, u64>, accounts: u64, rng: &mut SmallRng) -> bool {
    let from = rng.gen_range(0..accounts);
    let to = rng.gen_range(0..accounts);
    from != to
        && map.transact(|v| {
            let balance = v.get(&from)?.expect("accounts are never removed");
            if balance == 0 {
                return Ok(false);
            }
            let other = v.get(&to)?.expect("accounts are never removed");
            v.upsert(from, balance - 1)?;
            v.upsert(to, other + 1)?;
            Ok(true)
        })
}

/// One baseline writer step: remove a random key and reinsert it with
/// `value`.  False when the key was absent (another writer is between its
/// remove and its reinsert).
pub fn churn_key(
    list: &BundledSkipList<u64, u64>,
    accounts: u64,
    value: u64,
    rng: &mut SmallRng,
) -> bool {
    let key = rng.gen_range(0..accounts);
    if !list.remove(&key) {
        return false;
    }
    list.insert(key, value);
    true
}

/// Whether a scan's keys strictly increase: a linearizable scan returns
/// every key at most once and in order, so a duplicate or an out-of-order
/// pair fails this check.
pub fn strictly_increasing(pairs: &[(u64, u64)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Workers `0..writers` count writes with `write`; the rest scan with `scan`,
/// which returns the scan's length and whether it passed its audit.
fn writers_and_scanners(
    writers: usize,
    scanners: usize,
    duration: Duration,
    seed: u64,
    write: impl Fn(&mut SmallRng, u64) -> bool + Sync,
    scan: impl Fn() -> (usize, bool) + Sync,
) -> SnapshotScanTrialResult {
    let (parts, elapsed_secs) = timed(writers + scanners, duration, |t, stop| {
        let mut partial = SnapshotScanTrialResult::default();
        if t < writers {
            let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64 + 1) * 0xC13F));
            while !stop.requested() {
                partial.writer_ops += u64::from(write(&mut rng, partial.writer_ops));
            }
        } else {
            while !stop.requested() {
                let (pairs, clean) = scan();
                partial.tearing_violations += u64::from(!clean);
                partial.scan_pairs += pairs as u64;
                partial.scans += 1;
            }
        }
        partial
    });
    SnapshotScanTrialResult {
        elapsed_secs,
        ..total(parts)
    }
}

/// Run a timed scans-vs-writers trial against a map pre-filled by
/// [`prefill_accounts`]: `writer_threads` commit random transfers while
/// `scan_threads` repeatedly snapshot the map and audit the full scan.
pub fn run_snapshot_scan_trial(
    map: &SkipHash<u64, u64>,
    accounts: u64,
    initial: u64,
    writer_threads: usize,
    scan_threads: usize,
    duration: Duration,
    seed: u64,
) -> SnapshotScanTrialResult {
    let expected_total = accounts
        .checked_mul(initial)
        .expect("account total overflows u64");
    writers_and_scanners(
        writer_threads,
        scan_threads,
        duration,
        seed,
        |rng, _| transfer_unit(map, accounts, rng),
        || {
            let pairs = map.snapshot().to_vec();
            let sum: u64 = pairs.iter().map(|(_, v)| v).sum();
            (
                pairs.len(),
                pairs.len() as u64 == accounts && sum == expected_total,
            )
        },
    )
}

/// Run the baseline arm: the same scans-vs-writers shape against the
/// bundled skip list.  Writers churn single keys ([`churn_key`], with the
/// writer's count of committed churns as the fresh value — the strongest
/// update the baseline can express atomically); scanners run full
/// timestamped range scans.  A scan whose keys do not strictly increase is
/// counted as a tearing violation; absent keys are legitimate (a writer may
/// be between its remove and its reinsert).
pub fn run_bundle_scan_trial(
    list: &BundledSkipList<u64, u64>,
    accounts: u64,
    writer_threads: usize,
    scan_threads: usize,
    duration: Duration,
    seed: u64,
) -> SnapshotScanTrialResult {
    writers_and_scanners(
        writer_threads,
        scan_threads,
        duration,
        seed,
        |rng, committed| churn_key(list, accounts, committed, rng),
        || {
            let pairs = list.range(&0, &(accounts - 1));
            (pairs.len(), strictly_increasing(&pairs))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::mops;
    use std::sync::Arc;

    #[test]
    fn snapshot_scan_trial_sees_no_tearing() {
        let map: Arc<SkipHash<u64, u64>> = Arc::new(SkipHash::new());
        prefill_accounts(&map, 256, 100);
        let result = run_snapshot_scan_trial(&map, 256, 100, 2, 2, Duration::from_millis(150), 41);
        assert!(result.scans > 0, "scanners made no progress");
        assert!(result.writer_ops > 0, "writers made no progress");
        assert_eq!(result.scan_pairs, result.scans * 256);
        assert_eq!(
            result.tearing_violations, 0,
            "a pinned scan observed a torn transfer"
        );
        assert!(mops(result.scan_pairs, result.elapsed_secs) > 0.0);
        assert!(mops(result.writer_ops, result.elapsed_secs) > 0.0);
        // The trial ends with no snapshot live.  A writer commit that
        // collected the last scanner's pin may still have pushed its entry
        // after that pin's drop-trim drained the runtime (the transient
        // retention the stm `snapshot` module documents), so take and drop
        // one more pin: with the writers joined, its drop-trim is a full
        // drain, after which custody holds nothing.
        drop(map.snapshot());
        assert_eq!(skiphash_stm::snapshot::live_history_entries(), 0);
        map.check_invariants().expect("invariants after trial");
    }

    #[test]
    fn bundle_scan_trial_runs_and_scans_stay_duplicate_free() {
        let list: Arc<BundledSkipList<u64, u64>> = Arc::new(BundledSkipList::new(
            16,
            skiphash_baselines::TimestampMode::Rdtscp,
        ));
        for key in 0..256u64 {
            list.insert(key, 100);
        }
        let result = run_bundle_scan_trial(&list, 256, 2, 2, Duration::from_millis(150), 43);
        assert!(result.scans > 0, "scanners made no progress");
        assert!(result.writer_ops > 0, "writers made no progress");
        assert_eq!(
            result.tearing_violations, 0,
            "a bundled scan returned a duplicate or out-of-order key"
        );
        assert!(mops(result.scan_pairs, result.elapsed_secs) > 0.0);
    }

    #[test]
    fn scan_audit_rejects_duplicates_and_out_of_order_keys() {
        assert!(strictly_increasing(&[]));
        assert!(strictly_increasing(&[(1, 0), (2, 0), (7, 0)]));
        assert!(!strictly_increasing(&[(1, 0), (2, 0), (2, 0)]), "duplicate");
        // No two equal keys are adjacent, so a `dedup` count passes this one.
        assert!(
            !strictly_increasing(&[(1, 0), (3, 0), (2, 0)]),
            "out of order"
        );
    }
}
