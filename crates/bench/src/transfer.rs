//! The multi-map *transfer* scenario: composed transactions as a workload.
//!
//! The single-map [`BenchMap`](crate::BenchMap) interface structurally cannot
//! express what the paper's STM foundation is for — one transaction touching
//! several structures.  This module benchmarks exactly that: a pair of skip
//! hashes sharing one STM runtime, with three operations:
//!
//! * **transfer** — atomically move a key (and its value) from whichever map
//!   holds it to the other, via two [`TxView`](skiphash::TxView)s in one
//!   transaction;
//! * **audit** — atomically read both maps and report which holds the key
//!   (under correct transfers, never both);
//! * **lookup** — a plain sealed `get` against one map, for mix dilution.
//!
//! None of the baseline structures offers an equivalent: without STM, the
//! transfer would need external locking or exhibit intermediate states.
//! [`run_transfer_trial`] samples the three from a [`TransferWorkload`] mix.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use skiphash::{SkipHash, SkipHashBuilder};
use skiphash_stm::Stm;

use crate::adapters::bucket_count_for;
use crate::trial::{add_counters, timed, total};
use crate::workload::{TransferOperation, TransferSampler, TransferWorkload};

/// A pair of skip hashes over one shared STM runtime, plus the composed
/// operations the transfer workload drives.
pub struct TransferPair {
    stm: Arc<Stm>,
    /// The "left" map (pre-filled by [`TransferPair::prefill`]).
    pub left: SkipHash<u64, u64>,
    /// The "right" map (initially empty).
    pub right: SkipHash<u64, u64>,
}

impl std::fmt::Debug for TransferPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferPair").finish()
    }
}

impl TransferPair {
    /// Build a pair sized for `key_universe` keys (roughly half resident),
    /// with the bucket sizing the single-map adapters use.
    pub fn new(key_universe: u64) -> Self {
        let stm = Arc::new(Stm::new());
        let buckets = bucket_count_for(key_universe);
        let map = |stm: &Arc<Stm>| {
            SkipHashBuilder::new()
                .buckets(buckets)
                .stm(Arc::clone(stm))
                .build()
        };
        Self {
            left: map(&stm),
            right: map(&stm),
            stm,
        }
    }

    /// Insert `0..count` into the left map (value = key), so every key in
    /// the universe below `count` is held by exactly one map from the start.
    pub fn prefill(&self, count: u64) {
        for key in 0..count {
            self.left.insert(key, key);
        }
    }

    /// Atomically move `key` to the *other* map: take it from whichever map
    /// holds it and insert it into the opposite one, as one transaction.
    /// Returns `false` when neither map holds the key.
    pub fn transfer(&self, key: u64) -> bool {
        self.stm.run(|tx| {
            if let Some(value) = self.left.view(tx).take(&key)? {
                self.right.view(tx).insert(key, value)?;
                return Ok(true);
            }
            if let Some(value) = self.right.view(tx).take(&key)? {
                self.left.view(tx).insert(key, value)?;
                return Ok(true);
            }
            Ok(false)
        })
    }

    /// Atomically report `(in_left, in_right)` for `key`.
    pub fn audit(&self, key: u64) -> (bool, bool) {
        self.stm.run(|tx| {
            Ok((
                self.left.view(tx).contains_key(&key)?,
                self.right.view(tx).contains_key(&key)?,
            ))
        })
    }

    /// Sealed lookup against the left map (mix dilution / read pressure).
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.left.get(&key)
    }

    /// Total population across both maps (conservation check: transfers must
    /// keep this equal to the pre-filled count).
    pub fn total_population(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Validate both maps' internal invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.left.check_invariants()?;
        self.right.check_invariants()
    }
}

/// Result of one transfer-scenario trial (composed multi-map transactions).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferTrialResult {
    /// Total operations completed by all threads.
    pub total_ops: u64,
    /// Atomic cross-map transfers completed (moves actually performed).
    pub transfers: u64,
    /// Transfer attempts that found the key in neither map (sampled keys
    /// above the pre-filled population).
    pub empty_transfers: u64,
    /// Atomic both-map audits completed.
    pub audits: u64,
    /// Audits that observed the key in *both* maps — must stay zero; composed
    /// transactions make intermediate states unobservable.
    pub audit_violations: u64,
    /// Sealed lookups completed.
    pub lookups: u64,
    /// Wall-clock duration of the measured phase, in seconds.
    pub elapsed_secs: f64,
}

add_counters!(TransferTrialResult {
    total_ops,
    transfers,
    empty_transfers,
    audits,
    audit_violations,
    lookups
});

/// Run a timed transfer-scenario trial: every thread samples transfers,
/// audits, and lookups from the workload's mix against one shared
/// [`TransferPair`].  The pair must already be pre-filled.
pub fn run_transfer_trial(
    pair: &TransferPair,
    workload: &TransferWorkload,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> TransferTrialResult {
    let (parts, elapsed_secs) = timed(threads, duration, |t, stop| {
        let sampler = TransferSampler::new(workload);
        let mut rng = SmallRng::seed_from_u64(seed ^ ((t as u64 + 1) * 0x51_7C));
        let mut result = TransferTrialResult::default();
        while !stop.requested() {
            match sampler.next(&mut rng) {
                TransferOperation::Transfer(key) => {
                    if pair.transfer(key) {
                        result.transfers += 1;
                    } else {
                        result.empty_transfers += 1;
                    }
                }
                TransferOperation::Audit(key) => {
                    let (in_left, in_right) = pair.audit(key);
                    if in_left && in_right {
                        result.audit_violations += 1;
                    }
                    result.audits += 1;
                }
                TransferOperation::Lookup(key) => {
                    let _ = pair.lookup(key);
                    result.lookups += 1;
                }
            }
            result.total_ops += 1;
        }
        result
    });
    TransferTrialResult {
        elapsed_secs,
        ..total(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::mops;

    #[test]
    fn transfer_moves_keys_between_maps() {
        let pair = TransferPair::new(128);
        pair.prefill(64);
        assert_eq!(pair.total_population(), 64);
        assert!(pair.transfer(10));
        assert_eq!(pair.audit(10), (false, true));
        assert!(pair.transfer(10), "transfers back from the right map");
        assert_eq!(pair.audit(10), (true, false));
        assert!(!pair.transfer(1_000), "absent keys transfer nothing");
        assert_eq!(pair.total_population(), 64);
        pair.check_invariants().expect("invariants");
    }

    #[test]
    fn transfer_trial_conserves_keys_and_sees_no_violations() {
        let workload = TransferWorkload::transfer_heavy(2_000);
        let pair = TransferPair::new(workload.key_universe);
        pair.prefill(workload.prefill_target());
        let result = run_transfer_trial(&pair, &workload, 4, Duration::from_millis(150), 5);
        assert!(result.total_ops > 0);
        assert!(result.transfers > 0);
        assert!(result.audits > 0);
        assert_eq!(
            result.total_ops,
            result.transfers + result.empty_transfers + result.audits + result.lookups
        );
        assert_eq!(
            result.audit_violations, 0,
            "an audit observed a key in both maps"
        );
        assert!(mops(result.total_ops, result.elapsed_secs) > 0.0);
        // Conservation: transfers move keys, never duplicate or drop them.
        assert_eq!(
            pair.total_population(),
            workload.prefill_target() as usize,
            "transfer trial leaked or duplicated keys"
        );
        pair.check_invariants().expect("invariants after trial");
    }
}
