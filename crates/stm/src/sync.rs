//! Atomics / fence / thread facade for the whole skiphash stack.
//!
//! Every crate in the workspace imports its atomic primitives from here (or
//! re-exports of here) instead of `std::sync::atomic`:
//!
//! * **Normal builds** (`model` feature off — the default, and what every
//!   tier-1 build uses): straight re-exports of `std::sync::atomic`,
//!   `std::sync::atomic::fence`, and `std::thread::yield_now`.  Zero cost,
//!   zero behavior change.
//! * **Model builds** (`--features model`, used only by
//!   `crates/model-tests`): the same names resolve to the instrumented
//!   types from `skiphash-model`, whose every load/store/RMW/fence is a
//!   schedule point for the deterministic concurrency checker.  Outside a
//!   model execution the instrumented types forward to std, so ordinary
//!   code keeps working even in model builds.
//!
//! Deliberately **not** routed through the facade: `stm::arena` and
//! `stm::scratch`.  Their atomics guard allocator
//! internals that run *inside* real `Mutex` critical sections and epoch
//! callbacks; instrumenting them would (a) blow up the schedule space with
//! uninteresting allocator interleavings and (b) risk scheduler deadlock if
//! a model task parks while holding a real lock another task needs.  The
//! ordering protocols the model checker targets (orec, clock, snapshot,
//! epoch) never span those modules.  `AtomicPtr` is likewise re-exported
//! from std unconditionally — pointer-valued state (a `TCell`'s data word
//! included) is exercised through the epoch-shim transcription in
//! `crates/model-tests` instead.

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

#[cfg(not(feature = "model"))]
pub use std::thread::yield_now;

#[cfg(feature = "model")]
pub use skiphash_model::atomic::{
    fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

#[cfg(feature = "model")]
pub use skiphash_model::thread::yield_now;

pub use std::sync::atomic::AtomicPtr;

// Not part of any modeled protocol (harness/test bookkeeping only); always
// the std type, like `AtomicPtr`.
pub use std::sync::atomic::AtomicIsize;

/// Detector shadow for a swap-on-write data slot (a `TCell`'s data word:
/// the value itself, or the pointer to its payload).  In model builds this
/// is `skiphash_model::cell::ShadowSlot` and feeds the FastTrack race
/// detector: `on_write` marks the install of a fresh value,
/// `on_read_confirmed` marks a read that *passed* the orec recheck.
/// Neither is a schedule point, so replay tokens are unaffected.
#[cfg(feature = "model")]
pub use skiphash_model::cell::ShadowSlot;

/// No-op stand-in for the model build's payload-slot shadow: normal builds
/// carry the field and the hook calls at zero size and zero cost, so the
/// `TCell` layout and call sites do not fork on the feature flag.
#[cfg(not(feature = "model"))]
#[derive(Debug)]
pub struct ShadowSlot {}

#[cfg(not(feature = "model"))]
impl ShadowSlot {
    /// Create a slot shadow; the name only matters in model builds.
    #[inline]
    pub const fn new(_name: &'static str) -> Self {
        ShadowSlot {}
    }

    /// Record a fresh payload install (no-op outside model builds).
    #[inline]
    pub fn on_write(&self) {}

    /// Record a validated payload read (no-op outside model builds).
    #[inline]
    pub fn on_read_confirmed(&self) {}
}

/// Best-effort software prefetch of the cache line holding `ptr`, for a
/// read that is about to happen (all cache levels, temporal locality).
///
/// This is a *hint*: prefetch instructions never fault — even on dangling
/// or unmapped addresses — and have no architectural effect beyond warming
/// the cache, so passing a pointer that is about to be validated (e.g. a
/// borrowed skip-list link before its orec recheck) is fine.  Compiles to
/// nothing on targets without a prefetch instruction and in model builds
/// (the checker schedules no caches, and an extra hint would change
/// nothing it can observe).
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(all(target_arch = "x86_64", not(feature = "model")))]
    // SAFETY: `prefetcht0` is architecturally defined to never fault and
    // to have no effect other than a cache-fill hint, for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(ptr.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(all(target_arch = "aarch64", not(feature = "model")))]
    // SAFETY: `prfm pldl1keep` is a hint instruction: it never faults and
    // has no architectural effect, for any address.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        feature = "model"
    ))]
    let _ = ptr;
}
