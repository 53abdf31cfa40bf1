//! Workload definitions matching the paper's evaluation section.

use std::fmt;

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The operation mix of one workload, in percent.  Update operations are
/// split evenly between insertions and removals (as in the paper) so the
/// population stays near half the key universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Percentage of lookups.
    pub lookup_pct: u32,
    /// Percentage of updates (50/50 insert/remove).
    pub update_pct: u32,
    /// Percentage of range queries.
    pub range_pct: u32,
}

impl WorkloadMix {
    /// Create a mix; the three percentages must sum to 100.
    ///
    /// # Panics
    ///
    /// Panics if they do not.
    pub fn new(lookup_pct: u32, update_pct: u32, range_pct: u32) -> Self {
        assert_eq!(
            lookup_pct + update_pct + range_pct,
            100,
            "operation mix must sum to 100%"
        );
        Self {
            lookup_pct,
            update_pct,
            range_pct,
        }
    }
}

impl fmt::Display for WorkloadMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}% lookup, {}% update, {}% range",
            self.lookup_pct, self.update_pct, self.range_pct
        )
    }
}

/// A complete workload: operation mix plus the key universe and range length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Short identifier ("a".."f" for the Figure 5 workloads).
    pub name: &'static str,
    /// The operation mix.
    pub mix: WorkloadMix,
    /// Size of the key universe; keys are drawn uniformly from `0..universe`.
    pub key_universe: u64,
    /// Length of each range query (`r = l + range_len`).
    pub range_len: u64,
}

impl Workload {
    /// The paper's default key universe (10^6 keys).
    pub const PAPER_UNIVERSE: u64 = 1_000_000;
    /// The paper's default range query length (100 keys, ~50 hits).
    pub const PAPER_RANGE_LEN: u64 = 100;

    /// Figure 5a: 100% lookup.
    pub fn fig5a(universe: u64) -> Self {
        Self {
            name: "a",
            mix: WorkloadMix::new(100, 0, 0),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// Figure 5b: 100% update.
    pub fn fig5b(universe: u64) -> Self {
        Self {
            name: "b",
            mix: WorkloadMix::new(0, 100, 0),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// Figure 5c: 100% range queries.
    pub fn fig5c(universe: u64) -> Self {
        Self {
            name: "c",
            mix: WorkloadMix::new(0, 0, 100),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// Figure 5d: 80% lookup, 10% update, 10% range.
    pub fn fig5d(universe: u64) -> Self {
        Self {
            name: "d",
            mix: WorkloadMix::new(80, 10, 10),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// Figure 5e: 80% update, 20% range.
    pub fn fig5e(universe: u64) -> Self {
        Self {
            name: "e",
            mix: WorkloadMix::new(0, 80, 20),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// Figure 5f: 1% lookup, 98% update, 1% range.
    pub fn fig5f(universe: u64) -> Self {
        Self {
            name: "f",
            mix: WorkloadMix::new(1, 98, 1),
            key_universe: universe,
            range_len: Self::PAPER_RANGE_LEN,
        }
    }

    /// The six Figure 5 workloads in order.
    pub fn fig5_all(universe: u64) -> Vec<Workload> {
        vec![
            Self::fig5a(universe),
            Self::fig5b(universe),
            Self::fig5c(universe),
            Self::fig5d(universe),
            Self::fig5e(universe),
            Self::fig5f(universe),
        ]
    }

    /// Look up a Figure 5 workload by its letter.
    pub fn fig5_by_name(name: &str, universe: u64) -> Option<Workload> {
        Self::fig5_all(universe)
            .into_iter()
            .find(|w| w.name == name)
    }

    /// A custom workload (the two sides of the Figure 6 split trial).
    pub fn custom(name: &'static str, mix: WorkloadMix, universe: u64, range_len: u64) -> Self {
        Self {
            name,
            mix,
            key_universe: universe,
            range_len,
        }
    }

    /// Target pre-fill population (half the universe, as in the paper).
    pub fn prefill_target(&self) -> u64 {
        self.key_universe / 2
    }
}

/// Operation mix for the multi-map *transfer* scenario, in percent.
///
/// This workload class exists because the single-map mixes above cannot
/// express composed transactions; see [`crate::transfer`] for the scenario's
/// operations (atomic cross-map transfer, atomic both-map audit, sealed
/// lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferMix {
    /// Percentage of atomic cross-map transfers.
    pub transfer_pct: u32,
    /// Percentage of atomic both-map audits.
    pub audit_pct: u32,
    /// Percentage of sealed single-map lookups.
    pub lookup_pct: u32,
}

impl TransferMix {
    /// Create a mix; the three percentages must sum to 100.
    ///
    /// # Panics
    ///
    /// Panics if they do not.
    pub fn new(transfer_pct: u32, audit_pct: u32, lookup_pct: u32) -> Self {
        assert_eq!(
            transfer_pct + audit_pct + lookup_pct,
            100,
            "transfer mix must sum to 100%"
        );
        Self {
            transfer_pct,
            audit_pct,
            lookup_pct,
        }
    }
}

impl fmt::Display for TransferMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}% transfer, {}% audit, {}% lookup",
            self.transfer_pct, self.audit_pct, self.lookup_pct
        )
    }
}

/// The complete transfer workload: mix plus key universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferWorkload {
    /// Short identifier.
    pub name: &'static str,
    /// The operation mix.
    pub mix: TransferMix,
    /// Keys are drawn uniformly from `0..universe`; the pair is pre-filled
    /// with `universe / 2` keys, all initially in the left map.
    pub key_universe: u64,
}

impl TransferWorkload {
    /// Transfer-heavy default: 50% transfers, 25% audits, 25% lookups.
    pub fn transfer_heavy(universe: u64) -> Self {
        Self {
            name: "transfer-heavy",
            mix: TransferMix::new(50, 25, 25),
            key_universe: universe,
        }
    }

    /// Audit-heavy variant: 10% transfers, 60% audits, 30% lookups.
    pub fn audit_heavy(universe: u64) -> Self {
        Self {
            name: "audit-heavy",
            mix: TransferMix::new(10, 60, 30),
            key_universe: universe,
        }
    }

    /// Target pre-fill population (half the universe, as in the single-map
    /// workloads).
    pub fn prefill_target(&self) -> u64 {
        self.key_universe / 2
    }
}

/// One sampled transfer-scenario operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOperation {
    /// Atomically move the key to the other map.
    Transfer(u64),
    /// Atomically read the key's membership in both maps.
    Audit(u64),
    /// Sealed lookup of the key in the left map.
    Lookup(u64),
}

/// A uniform key plus one of three operation classes, picked by one percent
/// roll against the first two shares of a mix — the draw both samplers make.
#[derive(Debug)]
struct PercentRoll {
    key_dist: Uniform<u64>,
    pct_dist: Uniform<u32>,
    first: u32,
    second: u32,
}

impl PercentRoll {
    fn new(key_universe: u64, first: u32, second: u32) -> Self {
        Self {
            key_dist: Uniform::new(0, key_universe),
            pct_dist: Uniform::new(0, 100),
            first,
            second,
        }
    }

    /// The key and the class: 0, 1 or 2.
    fn next(&self, rng: &mut SmallRng) -> (u64, u8) {
        let key = self.key_dist.sample(rng);
        let roll = self.pct_dist.sample(rng);
        let class = if roll < self.first {
            0
        } else if roll < self.first + self.second {
            1
        } else {
            2
        };
        (key, class)
    }
}

/// Per-thread sampler for the transfer scenario.
#[derive(Debug)]
pub struct TransferSampler {
    roll: PercentRoll,
}

impl TransferSampler {
    /// Create a sampler for `workload`.
    pub fn new(workload: &TransferWorkload) -> Self {
        let mix = workload.mix;
        Self {
            roll: PercentRoll::new(workload.key_universe, mix.transfer_pct, mix.audit_pct),
        }
    }

    /// Draw the next operation.
    pub fn next(&self, rng: &mut SmallRng) -> TransferOperation {
        match self.roll.next(rng) {
            (key, 0) => TransferOperation::Transfer(key),
            (key, 1) => TransferOperation::Audit(key),
            (key, _) => TransferOperation::Lookup(key),
        }
    }
}

/// One sampled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Look up the key.
    Lookup(u64),
    /// Insert the key.
    Insert(u64),
    /// Remove the key.
    Remove(u64),
    /// Range query over `[low, low + range_len]`.
    Range(u64),
}

/// Per-thread operation sampler.
#[derive(Debug)]
pub struct OperationSampler {
    roll: PercentRoll,
    range_len: u64,
}

impl OperationSampler {
    /// Create a sampler for `workload`.
    pub fn new(workload: &Workload) -> Self {
        let mix = workload.mix;
        Self {
            roll: PercentRoll::new(workload.key_universe, mix.lookup_pct, mix.update_pct),
            range_len: workload.range_len,
        }
    }

    /// Draw the next operation.
    pub fn next(&self, rng: &mut SmallRng) -> Operation {
        match self.roll.next(rng) {
            (key, 0) => Operation::Lookup(key),
            (key, 1) if rng.gen::<bool>() => Operation::Insert(key),
            (key, 1) => Operation::Remove(key),
            (key, _) => Operation::Range(key),
        }
    }

    /// The range length used for [`Operation::Range`].
    pub fn range_len(&self) -> u64 {
        self.range_len
    }
}

/// Insert keys drawn uniformly from `0..key_universe` (a seeded stream)
/// until `target` of them were new — the paper pre-fills every map to half
/// its universe this way.  `insert` stores the key and reports whether it
/// was absent.
pub fn prefill(key_universe: u64, target: u64, seed: u64, mut insert: impl FnMut(u64) -> bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inserted = 0;
    while inserted < target {
        if insert(rng.gen_range(0..key_universe)) {
            inserted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::MapKind;

    #[test]
    fn fig5_mixes_match_the_paper() {
        let u = Workload::PAPER_UNIVERSE;
        assert_eq!(Workload::fig5a(u).mix, WorkloadMix::new(100, 0, 0));
        assert_eq!(Workload::fig5b(u).mix, WorkloadMix::new(0, 100, 0));
        assert_eq!(Workload::fig5c(u).mix, WorkloadMix::new(0, 0, 100));
        assert_eq!(Workload::fig5d(u).mix, WorkloadMix::new(80, 10, 10));
        assert_eq!(Workload::fig5e(u).mix, WorkloadMix::new(0, 80, 20));
        assert_eq!(Workload::fig5f(u).mix, WorkloadMix::new(1, 98, 1));
        assert_eq!(Workload::fig5_all(u).len(), 6);
        assert_eq!(Workload::fig5_by_name("d", u).unwrap().name, "d");
        assert!(Workload::fig5_by_name("z", u).is_none());
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        let _ = WorkloadMix::new(50, 10, 10);
    }

    #[test]
    fn sampler_respects_the_mix() {
        let workload = Workload::fig5d(10_000);
        let sampler = OperationSampler::new(&workload);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut lookups = 0;
        let mut updates = 0;
        let mut ranges = 0;
        let trials = 100_000;
        for _ in 0..trials {
            match sampler.next(&mut rng) {
                Operation::Lookup(_) => lookups += 1,
                Operation::Insert(_) | Operation::Remove(_) => updates += 1,
                Operation::Range(_) => ranges += 1,
            }
        }
        let lookup_frac = lookups as f64 / trials as f64;
        let update_frac = updates as f64 / trials as f64;
        let range_frac = ranges as f64 / trials as f64;
        assert!((lookup_frac - 0.8).abs() < 0.02, "lookups {lookup_frac}");
        assert!((update_frac - 0.1).abs() < 0.02, "updates {update_frac}");
        assert!((range_frac - 0.1).abs() < 0.02, "ranges {range_frac}");
    }

    #[test]
    fn sampled_keys_stay_in_the_universe() {
        let workload = Workload::fig5b(1_000);
        let sampler = OperationSampler::new(&workload);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let key = match sampler.next(&mut rng) {
                Operation::Lookup(k)
                | Operation::Insert(k)
                | Operation::Remove(k)
                | Operation::Range(k) => k,
            };
            assert!(key < 1_000);
        }
    }

    #[test]
    fn prefill_is_half_the_universe() {
        assert_eq!(Workload::fig5a(1_000_000).prefill_target(), 500_000);
        assert_eq!(Workload::PAPER_RANGE_LEN, 100);
    }

    #[test]
    fn prefill_reaches_the_target_population() {
        let workload = Workload::fig5a(2_000);
        let map = MapKind::SkipHashTwoPath.build(workload.key_universe);
        prefill(2_000, workload.prefill_target(), 1, |k| map.insert(k, k));
        assert_eq!(map.population(), workload.prefill_target() as usize);
    }

    #[test]
    fn transfer_sampler_respects_the_mix() {
        let workload = TransferWorkload::transfer_heavy(10_000);
        assert_eq!(workload.prefill_target(), 5_000);
        let sampler = TransferSampler::new(&workload);
        let mut rng = SmallRng::seed_from_u64(9);
        let (mut transfers, mut audits, mut lookups) = (0u32, 0u32, 0u32);
        let trials = 100_000;
        for _ in 0..trials {
            match sampler.next(&mut rng) {
                TransferOperation::Transfer(k) => {
                    assert!(k < 10_000);
                    transfers += 1;
                }
                TransferOperation::Audit(_) => audits += 1,
                TransferOperation::Lookup(_) => lookups += 1,
            }
        }
        let frac = |n: u32| n as f64 / trials as f64;
        assert!((frac(transfers) - 0.5).abs() < 0.02);
        assert!((frac(audits) - 0.25).abs() < 0.02);
        assert!((frac(lookups) - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_transfer_mix_panics() {
        let _ = TransferMix::new(50, 10, 10);
    }
}
