//! Skip hash configuration.

use skiphash_stm::ClockKind;

/// How many buckets the paper's evaluation configures: the smallest prime
/// such that a population of 500,000 keys keeps the table at most 70% full.
pub const PAPER_BUCKET_COUNT: usize = 714_341;

/// Default number of hash buckets for a general-purpose map.
///
/// The benchmarks override this with [`PAPER_BUCKET_COUNT`]; the library
/// default is smaller so that casually constructed maps stay lightweight.
pub const DEFAULT_BUCKET_COUNT: usize = 4_093;

/// Default number of skip list levels (the paper uses 20, since 2^20 exceeds
/// the evaluated key universe of 10^6).
pub const DEFAULT_MAX_LEVEL: usize = 20;

/// Default number of fast-path attempts before a range query falls back to
/// the slow path (the paper sets `FAST_PATH_TRIES` to 3).
pub const DEFAULT_FAST_PATH_TRIES: usize = 3;

/// Capacity of the per-thread deferred-removal buffer of §4.5 (the paper
/// uses 32): a removal whose unstitching must wait for an in-flight slow-path
/// range query parks its node there, and a full buffer hands its batch to the
/// range query coordinator in one transaction.
pub const DEFAULT_REMOVAL_BUFFER: usize = 32;

/// Strategy used by [`crate::SkipHash::range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePolicy {
    /// Keep retrying the single-transaction fast path until it commits
    /// (the paper's "Fast Only" variant).
    FastOnly,
    /// Always use the slow path coordinated by the RQC (the paper's
    /// "Slow Only" variant).
    SlowOnly,
    /// Try the fast path `tries` times, then fall back to the slow path
    /// (the paper's "Two-Path" variant, with `tries = 3`).
    TwoPath {
        /// Number of fast-path attempts before falling back.
        tries: usize,
    },
}

impl Default for RangePolicy {
    fn default() -> Self {
        RangePolicy::TwoPath {
            tries: DEFAULT_FAST_PATH_TRIES,
        }
    }
}

/// Complete configuration of a [`crate::SkipHash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of closed-addressing hash buckets.
    pub bucket_count: usize,
    /// Number of skip list levels.
    pub max_level: usize,
    /// Range query strategy.
    pub range_policy: RangePolicy,
    /// Global clock used by the underlying STM.
    pub clock: ClockKind,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            bucket_count: DEFAULT_BUCKET_COUNT,
            max_level: DEFAULT_MAX_LEVEL,
            range_policy: RangePolicy::default(),
            // The sampled (gv5-style) clock is the library default: its
            // quiescence proof lets uncontended writer commits skip read-set
            // validation entirely (the paper's §5.1 ablation), which a
            // hardware timestamp can never do.  `Config::paper()` still pins
            // the hardware clock the paper's headline experiments use.
            clock: ClockKind::Sampled,
        }
    }
}

impl Config {
    /// The configuration used throughout the paper's evaluation section
    /// (including the hardware `rdtscp` clock; the library default is the
    /// sampled clock — see [`Config::default`]).
    pub fn paper() -> Self {
        Self {
            bucket_count: PAPER_BUCKET_COUNT,
            max_level: DEFAULT_MAX_LEVEL,
            clock: ClockKind::Hardware,
            ..Self::default()
        }
    }
}

/// Builder for [`crate::SkipHash`] instances.
///
/// ```
/// use skiphash::{RangePolicy, SkipHashBuilder};
///
/// let map = SkipHashBuilder::new()
///     .buckets(1024)
///     .max_level(16)
///     .range_policy(RangePolicy::FastOnly)
///     .build::<u64, u64>();
/// assert!(map.insert(1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SkipHashBuilder {
    config: Config,
    stm: Option<std::sync::Arc<skiphash_stm::Stm>>,
}

impl SkipHashBuilder {
    /// Start from the library defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from the paper's evaluation configuration.
    pub fn paper() -> Self {
        Self {
            config: Config::paper(),
            stm: None,
        }
    }

    /// Set the number of hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn buckets(mut self, count: usize) -> Self {
        assert!(count > 0, "bucket count must be positive");
        self.config.bucket_count = count;
        self
    }

    /// Set the number of skip list levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or greater than 63.
    pub fn max_level(mut self, levels: usize) -> Self {
        assert!(levels > 0 && levels < 64, "level count must be in 1..=63");
        self.config.max_level = levels;
        self
    }

    /// Set the range query strategy.
    pub fn range_policy(mut self, policy: RangePolicy) -> Self {
        self.config.range_policy = policy;
        self
    }

    /// Set the STM clock.
    ///
    /// Ignored when [`SkipHashBuilder::stm`] supplies a shared runtime — the
    /// runtime's own clock wins (and is reflected in the built map's
    /// [`Config`]).
    pub fn clock(mut self, clock: ClockKind) -> Self {
        self.config.clock = clock;
        self
    }

    /// Build the map over an explicit, shared STM runtime instead of a
    /// private one.
    ///
    /// Maps that share a runtime can be touched by a *single* transaction —
    /// this is the prerequisite for composing them with
    /// [`SkipHash::view`](crate::SkipHash::view) (e.g. an atomic transfer of
    /// an entry from one map to another).  Version timestamps from different
    /// runtimes' clocks are incomparable, so `view` rejects transactions
    /// started by any other runtime.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use skiphash::SkipHashBuilder;
    /// use skiphash_stm::Stm;
    ///
    /// let stm = Arc::new(Stm::new());
    /// let a = SkipHashBuilder::new().stm(Arc::clone(&stm)).build::<u64, u64>();
    /// let b = SkipHashBuilder::new().stm(Arc::clone(&stm)).build::<u64, u64>();
    /// a.insert(1, 100);
    /// stm.run(|tx| {
    ///     if let Some(v) = a.view(tx).take(&1)? {
    ///         b.view(tx).insert(1, v)?;
    ///     }
    ///     Ok(())
    /// });
    /// assert_eq!((a.get(&1), b.get(&1)), (None, Some(100)));
    /// ```
    pub fn stm(mut self, stm: std::sync::Arc<skiphash_stm::Stm>) -> Self {
        self.stm = Some(stm);
        self
    }

    /// Current configuration value.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Build a skip hash with this configuration.
    pub fn build<K: crate::MapKey, V: crate::MapValue>(self) -> crate::SkipHash<K, V> {
        match self.stm {
            None => crate::SkipHash::with_config(self.config),
            Some(stm) => crate::SkipHash::with_config_and_stm(self.config, stm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = Config::default();
        assert_eq!(c.max_level, 20);
        assert_eq!(
            c.range_policy,
            RangePolicy::TwoPath {
                tries: DEFAULT_FAST_PATH_TRIES
            }
        );
        assert_eq!(DEFAULT_REMOVAL_BUFFER, 32);
        assert_eq!(c.clock, ClockKind::Sampled, "sampled clock is the default");
    }

    #[test]
    fn paper_config_uses_prime_bucket_count() {
        let c = Config::paper();
        assert_eq!(c.bucket_count, 714_341);
        assert_eq!(
            c.clock,
            ClockKind::Hardware,
            "the paper's headline experiments use the hardware clock"
        );
        // Verify primality the slow way; this runs once in tests.
        let n = c.bucket_count as u64;
        let mut d = 2;
        while d * d <= n {
            assert_ne!(n % d, 0, "{n} must be prime");
            d += 1;
        }
    }

    #[test]
    fn builder_round_trips_settings() {
        let b = SkipHashBuilder::new()
            .buckets(77)
            .max_level(9)
            .range_policy(RangePolicy::SlowOnly)
            .clock(ClockKind::Hardware);
        let c = b.config();
        assert_eq!(c.bucket_count, 77);
        assert_eq!(c.max_level, 9);
        assert_eq!(c.range_policy, RangePolicy::SlowOnly);
        assert_eq!(c.clock, ClockKind::Hardware);
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_panics() {
        let _ = SkipHashBuilder::new().buckets(0);
    }

    #[test]
    #[should_panic(expected = "level count")]
    fn zero_levels_panics() {
        let _ = SkipHashBuilder::new().max_level(0);
    }
}
