//! The global version clock.
//!
//! The STM orders transactions with a global version clock.  The paper
//! evaluates two flavours, the two values of [`ClockKind`]:
//!
//! * [`ClockKind::Sampled`] — a shared counter that a writer first tries to
//!   advance from its *own* read version; when that CAS succeeds the writer
//!   has proven no other transaction committed since it sampled the clock,
//!   so it can skip read-set validation entirely (the §5.1 ablation this
//!   workspace defaults to).  When the claim fails it takes a plain
//!   `fetch_add` tick, which is TL2's `gv1` counter — so a `gv1` clock would
//!   hand out exactly the stamps this one does.
//! * [`ClockKind::Hardware`] — the `rdtscp`-style timestamp counter, which
//!   provides monotonically increasing values without any shared cache line.
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
//! can *prove* the transition was exclusive — which is why [`Clock::tick`]
//! receives the caller's `rv` and reports [`CommitStamp::quiescent`] itself,
//! instead of letting callers compare `wv == rv + 1` after the fact:
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
//! The sampled tick therefore claims `rv + 1` with a single CAS and reports
//! `quiescent` only when that claim succeeded; on failure it falls back to a
//! unique `fetch_add` tick.

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

/// Which version clock a [`Clock`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockKind {
    /// Shared counter that writers first try to advance from their own read
    /// version (`gv5`-style); a successful claim proves quiescence and lets
    /// the commit skip read-set validation.  The default.
    Sampled,
    /// Hardware timestamp counter (`rdtscp`-style).  Falls back to a shared
    /// logical counter on targets without a TSC.  Never quiescent:
    /// timestamps are not consecutive, so every writer commit validates its
    /// read set.
    Hardware,
}

impl ClockKind {
    /// A short name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ClockKind::Sampled => "gv5-sampled",
            ClockKind::Hardware => "hardware-tsc",
        }
    }
}

impl fmt::Display for ClockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A source of monotonically non-decreasing timestamps used as transaction
/// read and write versions.
///
/// `counter` is the sampled clock's shared counter, and the hardware clock's
/// fallback on targets without a TSC.
#[derive(Debug)]
pub struct Clock {
    kind: ClockKind,
    counter: AtomicU64,
}

impl Clock {
    /// A clock of `kind`; a logical clock starts at zero.
    pub fn new(kind: ClockKind) -> Self {
        Self {
            kind,
            counter: AtomicU64::new(0),
        }
    }

    /// Which clock this is.
    pub(crate) fn kind(&self) -> ClockKind {
        self.kind
    }

    /// Sample the clock without advancing it (used to pick a transaction's
    /// read version).
    #[inline]
    pub fn now(&self) -> u64 {
        match self.kind {
            // SC: the global version clock defines TL2's commit total order;
            // a read-version sample must not be reorderable around ticks.
            ClockKind::Sampled => self.counter.load(Ordering::SeqCst),
            ClockKind::Hardware => self.timestamp(),
        }
    }

    /// Advance the clock for a writer that sampled `rv` from [`Clock::now`],
    /// returning its commit stamp.
    ///
    /// `wv` is strictly greater than every value returned by `now` before
    /// this call on any thread, and `quiescent` is `true` only when no other
    /// `tick` completed between the caller's `now` sample and this call (see
    /// the module docs for why this must be decided here).
    #[inline]
    pub fn tick(&self, rv: u64) -> CommitStamp {
        if self.kind == ClockKind::Hardware {
            return CommitStamp {
                wv: self.timestamp(),
                quiescent: false,
            };
        }
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

    /// Advance the clock so every future [`Clock::tick`] returns a `wv`
    /// strictly greater than `version`; return `false` when this clock
    /// cannot be advanced.
    ///
    /// Recovery hook for durability layers (see
    /// [`Stm::advance_clock_to`](crate::Stm::advance_clock_to)): the sampled
    /// clock takes a saturating maximum, so concurrent callers and ongoing
    /// ticks stay monotonic.  The hardware clock declines — its values are
    /// not assignable, and it must not pretend to have moved.
    pub fn advance_to(&self, version: u64) -> bool {
        if self.kind == ClockKind::Hardware {
            return false;
        }
        // SC: the adopted version joins the same total order as every sample
        // and tick — a reader must never observe the clock moving backwards
        // past the advance.
        let _ = self
            .counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < version).then_some(version)
            });
        true
    }

    /// The hardware clock's reading.
    ///
    /// On `x86_64` this reads the time-stamp counter, which modern CPUs keep
    /// synchronized and monotonic across cores ("invariant TSC"), giving
    /// transactions timestamps without touching a shared cache line —
    /// exactly the `rdtscp` optimization the paper applies to the skip hash
    /// and to the vCAS / bundling baselines.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn timestamp(&self) -> u64 {
        // SAFETY: `_rdtsc` has no preconditions; it merely reads the TSC.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Elsewhere the counter advances with relaxed increments, preserving
    /// monotonicity; readings start at 1.
    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn timestamp(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const KINDS: [ClockKind; 2] = [ClockKind::Sampled, ClockKind::Hardware];

    fn exercise(clock: &Clock) {
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
    fn sampled_clock_monotonic() {
        exercise(&Clock::new(ClockKind::Sampled));
    }

    #[test]
    fn hardware_clock_monotonic() {
        exercise(&Clock::new(ClockKind::Hardware));
    }

    #[test]
    fn sampled_ticks_are_unique_across_threads() {
        // The soundness property the STM relies on: even under racing
        // commits, no two writers ever share a commit version (the old
        // adopt-the-winner behaviour violated this).
        let clock = Arc::new(Clock::new(ClockKind::Sampled));
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
        for kind in KINDS {
            assert_eq!(Clock::new(kind).kind(), kind);
        }
        assert_eq!(ClockKind::Sampled.to_string(), "gv5-sampled");
        assert_eq!(ClockKind::Hardware.to_string(), "hardware-tsc");
    }

    #[test]
    fn only_the_logical_clock_can_be_advanced() {
        for kind in KINDS {
            let clock = Clock::new(kind);
            let advanced = clock.advance_to(1 << 40);
            assert_eq!(advanced, kind == ClockKind::Sampled, "{kind}");
            if advanced {
                assert!(clock.tick(clock.now()).wv > 1 << 40);
            }
        }
    }

    #[test]
    fn uncontended_sampled_ticks_are_quiescent() {
        let clock = Clock::new(ClockKind::Sampled);
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
        let clock = Clock::new(ClockKind::Sampled);
        let rv = clock.now();
        let _ = clock.tick(clock.now()); // another writer commits
        let stamp = clock.tick(rv);
        assert!(!stamp.quiescent, "a commit intervened since rv was sampled");
        assert!(stamp.wv > rv + 1, "the fallback tick must be unique");
    }

    #[test]
    fn hardware_clock_never_claims_quiescence() {
        let clock = Clock::new(ClockKind::Hardware);
        let rv = clock.now();
        assert!(!clock.tick(rv).quiescent);
    }
}
