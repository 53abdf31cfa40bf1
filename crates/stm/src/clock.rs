//! Global version clock sources.
//!
//! The STM orders transactions with a global version clock.  The paper
//! evaluates three flavours:
//!
//! * `gv1` — a single shared counter incremented on every writer commit.
//! * `gv5`-style — a shared counter that a writer first tries to advance from
//!   its *own* read version; when that CAS succeeds the writer has proven no
//!   other transaction committed since it sampled the clock, so it can skip
//!   read-set validation entirely (the §5.1 ablation this workspace defaults
//!   to).
//! * `rdtscp` — the hardware timestamp counter, which provides monotonically
//!   increasing values without any shared cache line.
//!
//! The paper's headline experiments use the hardware clock
//! ([`crate::Stm`]s built from `Config::paper()` still do); this crate
//! defaults to [`ClockKind::Sampled`] because with a timestamp clock the
//! quiescence fast path below can never fire, making every writer commit pay
//! an O(reads) validation walk.
//!
//! # The quiescence fast path, and why `tick` takes the read version
//!
//! TL2 skips commit-time read-set validation when `wv == rv + 1`: if this
//! writer's tick moved the clock directly from its read version to the next
//! value, no other transaction can have committed in between, so nothing the
//! writer read can have changed.  That implication only holds when the clock
//! can *prove* the transition was exclusive — which is why
//! [`ClockSource::tick`] receives the caller's `rv` and reports
//! [`CommitStamp::quiescent`] itself, instead of letting callers compare
//! `wv == rv + 1` after the fact:
//!
//! * a naive "sampled" clock that adopts another writer's tick on CAS failure
//!   would hand two concurrent writers the same `wv = rv + 1`, and the loser —
//!   which very much did race another commit — would wrongly skip validation
//!   (a lost-update bug);
//! * worse, returning an *already published* clock value from `tick` violates
//!   the contract below ("strictly greater than every value `now` has
//!   returned"), and read-only transactions rely on that contract: a reader
//!   with `rv = v` may admit any version `<= v`, so a writer committing *at*
//!   `v` concurrently with that reader can tear its snapshot.
//!
//! [`SampledClock::tick`] therefore claims `rv + 1` with a single CAS and
//! reports `quiescent` only when that claim succeeded; on failure it falls
//! back to a unique `fetch_add` tick, exactly like `gv1`.

use crate::sync::{AtomicU64, Ordering};
use std::fmt;

/// A writer's commit timestamp plus the clock's quiescence verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStamp {
    /// The commit (write) version.
    pub wv: u64,
    /// True only when the clock proves no other transaction committed between
    /// the caller's read-version sample and this tick; the caller may then
    /// skip commit-time read-set validation.
    pub quiescent: bool,
}

/// A source of monotonically non-decreasing timestamps used as transaction
/// read and write versions.
pub trait ClockSource: Send + Sync + fmt::Debug {
    /// Sample the clock without advancing it (used to pick a transaction's
    /// read version).
    fn now(&self) -> u64;

    /// Advance the clock for a writer that sampled `rv` from [`Self::now`],
    /// returning its commit stamp.
    ///
    /// `wv` must be strictly greater than every value returned by `now`
    /// before this call on any thread, and `quiescent` may be `true` only
    /// when no other `tick` completed between the caller's `now` sample and
    /// this call (see the module docs for why this must be decided here).
    fn tick(&self, rv: u64) -> CommitStamp;

    /// Advance the clock so every future [`ClockSource::tick`] returns a
    /// `wv` strictly greater than `version`; return `false` when this clock
    /// cannot be advanced.
    ///
    /// Recovery hook for durability layers (see
    /// [`Stm::advance_clock_to`](crate::Stm::advance_clock_to)): logical
    /// clocks implement it with a saturating maximum, so concurrent callers
    /// and ongoing ticks stay monotonic.  The default declines — a clock
    /// whose values are not assignable (the hardware TSC) must not pretend
    /// to have moved.
    fn advance_to(&self, version: u64) -> bool {
        let _ = version;
        false
    }

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Identifies one of the built-in clock implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockKind {
    /// Shared counter incremented on every writer commit (TL2 `gv1`).
    Counter,
    /// Shared counter that writers first try to advance from their own read
    /// version (`gv5`-style); a successful claim proves quiescence and lets
    /// the commit skip read-set validation.  The default.
    Sampled,
    /// Hardware timestamp counter (`rdtscp`-style).  Falls back to a striped
    /// logical clock on targets without a TSC.  Never quiescent: timestamps
    /// are not consecutive, so every writer commit validates its read set.
    Hardware,
}

impl ClockKind {
    /// Instantiate the clock.
    pub fn build(self) -> Box<dyn ClockSource> {
        match self {
            ClockKind::Counter => Box::new(CounterClock::new()),
            ClockKind::Sampled => Box::new(SampledClock::new()),
            ClockKind::Hardware => Box::new(HardwareClock::new()),
        }
    }
}

impl fmt::Display for ClockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClockKind::Counter => "gv1-counter",
            ClockKind::Sampled => "gv5-sampled",
            ClockKind::Hardware => "hardware-tsc",
        };
        f.write_str(s)
    }
}

/// `gv1`: a single shared counter, incremented on every writer commit.
#[derive(Debug, Default)]
pub struct CounterClock {
    counter: AtomicU64,
}

impl CounterClock {
    /// Create a counter clock starting at zero.
    pub fn new() -> Self {
        Self {
            counter: AtomicU64::new(0),
        }
    }
}

impl ClockSource for CounterClock {
    fn now(&self) -> u64 {
        // SC: the global version clock defines TL2's commit total order; a
        // read-version sample must not be reorderable around commit ticks.
        self.counter.load(Ordering::SeqCst)
    }

    fn tick(&self, rv: u64) -> CommitStamp {
        // SC: commit ticks and read samples must agree on one total order.
        let prev = self.counter.fetch_add(1, Ordering::SeqCst);
        CommitStamp {
            wv: prev + 1,
            // fetch_add hands out unique predecessors, so observing our own
            // read version here proves nobody ticked since we sampled it.
            quiescent: prev == rv,
        }
    }

    fn advance_to(&self, version: u64) -> bool {
        // SC: the adopted version joins the same total order as every
        // sample and tick — a reader must never observe the clock moving
        // backwards past the advance.
        let _ = self
            .counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < version).then_some(version)
            });
        true
    }

    fn name(&self) -> &'static str {
        "gv1-counter"
    }
}

/// `gv5`-style clock: a writer first tries to claim `rv + 1` with a single
/// CAS from its own read version; success proves quiescence (no commit
/// happened since its sample) and skips read-set validation.  On failure it
/// degenerates to a unique `gv1`-style tick.
///
/// Under low contention almost every writer commit takes the quiescent path,
/// which is the ablation the paper discusses in §5.1; under heavy contention
/// the shared counter costs what `gv1` costs.  [`HardwareClock`] avoids the
/// shared cache line entirely but can never prove quiescence.
#[derive(Debug, Default)]
pub struct SampledClock {
    counter: AtomicU64,
}

impl SampledClock {
    /// Create a sampled clock starting at zero.
    pub fn new() -> Self {
        Self {
            counter: AtomicU64::new(0),
        }
    }
}

impl ClockSource for SampledClock {
    fn now(&self) -> u64 {
        // SC: same total-order contract as `CounterClock::now`.
        self.counter.load(Ordering::SeqCst)
    }

    fn tick(&self, rv: u64) -> CommitStamp {
        // SC: claim rv + 1 exclusively in the clock's total order.  Success
        // means the clock has not moved since our read sample, hence no
        // transaction committed in between.
        if self
            .counter
            .compare_exchange(rv, rv + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return CommitStamp {
                wv: rv + 1,
                quiescent: true,
            };
        }
        // Somebody committed since we sampled; take a unique tick so our wv
        // is strictly newer than anything `now` has returned (reusing the
        // winner's value would let a concurrent reader admit our writes
        // mid-flight and tear its snapshot).  Never quiescent: the failed
        // CAS already proved a commit intervened since `rv`.
        //
        // `model_mutation` builds re-seed the original bug — adopting the
        // winner's value instead of taking a fresh tick — so the model
        // checker can demonstrate the resulting snapshot tear (see
        // docs/VERIFICATION.md).
        #[cfg(model_mutation)]
        {
            // SC: seeded bug still reads the clock in its total order.
            let cur = self.counter.load(Ordering::SeqCst);
            return CommitStamp {
                wv: cur,
                quiescent: false,
            };
        }
        #[cfg(not(model_mutation))]
        {
            // SC: unique tick in the same total order as `now` samples.
            let prev = self.counter.fetch_add(1, Ordering::SeqCst);
            CommitStamp {
                wv: prev + 1,
                quiescent: false,
            }
        }
    }

    fn advance_to(&self, version: u64) -> bool {
        // SC: same contract as `CounterClock::advance_to` — the adopted
        // version joins the clock's total order.
        let _ = self
            .counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < version).then_some(version)
            });
        true
    }

    fn name(&self) -> &'static str {
        "gv5-sampled"
    }
}

/// Hardware timestamp clock.
///
/// On `x86_64` this reads the time-stamp counter, which modern CPUs keep
/// synchronized and monotonic across cores ("invariant TSC"), giving
/// transactions timestamps without touching a shared cache line — exactly the
/// `rdtscp` optimization the paper applies to the skip hash and to the vCAS /
/// bundling baselines.  On other targets it falls back to a shared counter
/// advanced with relaxed increments, preserving monotonicity.
///
/// Because two TSC reads are never consecutive integers, a hardware-clocked
/// writer can never prove quiescence and always validates its read set.
#[derive(Debug, Default)]
pub struct HardwareClock {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    fallback: AtomicU64,
}

impl HardwareClock {
    /// Create a hardware clock.
    pub fn new() -> Self {
        Self {
            fallback: AtomicU64::new(1),
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn sample(&self) -> u64 {
        // SAFETY: `_rdtsc` has no preconditions; it merely reads the TSC.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn sample(&self) -> u64 {
        self.fallback.fetch_add(1, Ordering::Relaxed)
    }
}

impl ClockSource for HardwareClock {
    fn now(&self) -> u64 {
        self.sample()
    }

    fn tick(&self, _rv: u64) -> CommitStamp {
        CommitStamp {
            wv: self.sample(),
            quiescent: false,
        }
    }

    fn name(&self) -> &'static str {
        "hardware-tsc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn exercise(clock: &dyn ClockSource) {
        let a = clock.now();
        let stamp = clock.tick(a);
        let c = clock.now();
        assert!(
            stamp.wv >= a,
            "tick must not go backwards: {a} -> {stamp:?}"
        );
        assert!(c >= a, "now must not go backwards: {a} -> {c}");
    }

    #[test]
    fn counter_clock_monotonic() {
        exercise(&CounterClock::new());
    }

    #[test]
    fn sampled_clock_monotonic() {
        exercise(&SampledClock::new());
    }

    #[test]
    fn hardware_clock_monotonic() {
        exercise(&HardwareClock::new());
    }

    #[test]
    fn counter_ticks_are_unique_across_threads() {
        let clock = Arc::new(CounterClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(thread::spawn(move || {
                (0..1000)
                    .map(|_| clock.tick(clock.now()).wv)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "gv1 ticks must be unique");
    }

    #[test]
    fn sampled_ticks_are_unique_across_threads() {
        // The soundness property the STM relies on: even under racing
        // commits, no two writers ever share a commit version (the old
        // adopt-the-winner behaviour violated this).
        let clock = Arc::new(SampledClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(thread::spawn(move || {
                (0..1000)
                    .map(|_| clock.tick(clock.now()).wv)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "gv5 ticks must be unique");
    }

    #[test]
    fn clock_kind_builds_named_clocks() {
        assert_eq!(ClockKind::Counter.build().name(), "gv1-counter");
        assert_eq!(ClockKind::Sampled.build().name(), "gv5-sampled");
        assert_eq!(ClockKind::Hardware.build().name(), "hardware-tsc");
        assert_eq!(ClockKind::Hardware.to_string(), "hardware-tsc");
    }

    #[test]
    fn uncontended_sampled_ticks_are_quiescent() {
        let clock = SampledClock::new();
        for _ in 0..100 {
            let rv = clock.now();
            let stamp = clock.tick(rv);
            assert_eq!(stamp.wv, rv + 1);
            assert!(stamp.quiescent, "an exclusive claim proves quiescence");
        }
        assert_eq!(clock.now(), 100);
    }

    #[test]
    fn stale_read_version_is_never_quiescent() {
        let clock = SampledClock::new();
        let rv = clock.now();
        let _ = clock.tick(clock.now()); // another writer commits
        let stamp = clock.tick(rv);
        assert!(!stamp.quiescent, "a commit intervened since rv was sampled");
        assert!(stamp.wv > rv + 1, "the fallback tick must be unique");

        let counter = CounterClock::new();
        let rv = counter.now();
        let _ = counter.tick(rv);
        assert!(!counter.tick(rv).quiescent);
    }

    #[test]
    fn hardware_clock_never_claims_quiescence() {
        let clock = HardwareClock::new();
        let rv = clock.now();
        assert!(!clock.tick(rv).quiescent);
    }
}
