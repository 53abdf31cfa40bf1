//! Model checks for the STM's own synchronization protocols, driven through
//! the **real** `skiphash_stm` code compiled with `--features model` (every
//! atomic in `stm::sync` is a schedule point).
//!
//! Each protocol here reproduces a bug this repo actually had and fixed:
//!
//! * the TL2 acquire rule in `Txn::write` (the lost-update fix from the
//!   orec PR),
//! * the sampled `Clock::tick`'s claim-vs-fresh-tick distinction (the
//!   CAS-adopt tear fix from the clock PR),
//! * the pin-publish-before-clock-sample ordering in `SnapshotPin::new`
//!   (the custody protocol from the MVCC snapshot PR).
//!
//! One more guards a rule before any bug: the upgrade that fails a write in
//! a read-only attempt (`Stm::run_read_only`), without which two read-only
//! writers commit a write skew.
//!
//! The clean build (`cfg(not(model_mutation))`) asserts the shipped code
//! admits no counterexample within the budget.  The mutation build
//! (`RUSTFLAGS="--cfg model_mutation"`) re-seeds each original bug inside
//! `skiphash_stm` itself and asserts the checker *finds* it — proving the
//! model tests have teeth, not just green lights.
//!
//! These bodies run full `Stm::run` commits, which mix instrumented facade
//! atomics with real ones (`AtomicPtr` payload pointers, the epoch shim, the
//! scratch allocator).  Stale-load exploration is therefore OFF
//! (`.staleness(false)`): the hybrid would report unreachable stale reads
//! through the uninstrumented pointers.  All four seeded bugs are pure
//! *interleaving* races, observable at sequentially-consistent strength.

use skiphash_model::{explore, Failure, Options, Report};
use skiphash_stm::{Clock, ClockKind, Stm, TCell};
use std::sync::{Arc, Mutex};

/// Bounded-exhaustive search for the small clock model.
fn dfs_opts() -> Options {
    Options::dfs().iterations(200_000).preemptions(Some(3))
}

/// Randomized-priority search for the full-`Stm::run` bodies (their schedule
/// space is far beyond exhaustive reach; PCT gives probabilistic coverage
/// with a fixed seed for reproducibility).
fn pct_opts(seed: u64) -> Options {
    Options::pct(seed).iterations(600).staleness(false)
}

#[cfg_attr(not(model_mutation), allow(dead_code))]
fn expect_counterexample(report: Report, needle: &str, what: &str) -> Failure {
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("{what}: expected a counterexample, found none"));
    assert!(
        failure.message.contains(needle),
        "{what}: unexpected failure kind: {failure:?}"
    );
    failure
}

// ---------------------------------------------------------------------------
// TL2 acquire rule (orec PR): write-acquiring a location whose version is
// newer than the attempt's read version must abort, or a concurrent update
// is silently lost (commit validation skips self-owned orecs).
// ---------------------------------------------------------------------------

fn lost_update_body() -> impl Fn() + Send + Sync + 'static {
    || {
        let stm = Arc::new(Stm::new());
        let cell = Arc::new(TCell::new(0u64));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let stm = Arc::clone(&stm);
                let cell = Arc::clone(&cell);
                skiphash_model::thread::spawn(move || {
                    stm.run(|tx| {
                        let v = cell.read(tx)?;
                        cell.write(tx, v + 1)
                    });
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let total = cell.load_atomic();
        assert_eq!(total, 2, "lost update: two increments yielded {total}");
    }
}

#[cfg(not(model_mutation))]
#[test]
fn tl2_acquire_rule_admits_no_lost_update() {
    let report = explore(&pct_opts(0x7e57_0001), lost_update_body());
    assert!(
        report.failure.is_none(),
        "shipped TL2 acquire rule must not lose updates: {:?}",
        report.failure
    );
}

#[cfg(model_mutation)]
#[test]
fn tl2_acquire_rule_reverted_loses_update() {
    let failure = expect_counterexample(
        explore(&pct_opts(0x7e57_0001), lost_update_body()),
        "lost update",
        "reverted TL2 acquire rule",
    );
    let replayed = skiphash_model::replay(&failure.token, lost_update_body());
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("lost update")),
        "token must replay to the same lost update: {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// Sampled clock tick (clock PR): a loser of the rv -> rv + 1 claim must take
// a *fresh* tick, never adopt the winner's value — commit stamps are unique.
// ---------------------------------------------------------------------------

fn clock_tick_body() -> impl Fn() + Send + Sync + 'static {
    || {
        let clock = Arc::new(Clock::new(ClockKind::Sampled));
        let stamps = Arc::new(Mutex::new(Vec::new()));
        let committers: Vec<_> = (0..2)
            .map(|_| {
                let clock = Arc::clone(&clock);
                let stamps = Arc::clone(&stamps);
                skiphash_model::thread::spawn(move || {
                    let rv = clock.now();
                    let stamp = clock.tick(rv);
                    stamps.lock().unwrap().push((rv, stamp));
                })
            })
            .collect();
        for c in committers {
            c.join().unwrap();
        }
        let stamps = stamps.lock().unwrap();
        let [(rv_a, a), (rv_b, b)] = stamps[..] else {
            unreachable!("exactly two committers");
        };
        assert!(
            a.wv > rv_a && b.wv > rv_b,
            "commit stamp not newer than its read sample: {stamps:?}"
        );
        assert_ne!(
            a.wv, b.wv,
            "duplicate commit stamp: a torn reader could admit a \
             mid-flight writer as already committed"
        );
    }
}

#[cfg(not(model_mutation))]
#[test]
fn sampled_clock_stamps_are_unique() {
    let report = explore(&dfs_opts(), clock_tick_body());
    assert!(
        report.failure.is_none(),
        "shipped sampled clock must hand out unique stamps: {:?}",
        report.failure
    );
    assert!(
        report.exhausted,
        "expected bounded-exhaustive coverage, ran {} iterations",
        report.iterations
    );
}

#[cfg(model_mutation)]
#[test]
fn sampled_clock_cas_adopt_tears() {
    let failure = expect_counterexample(
        explore(&dfs_opts(), clock_tick_body()),
        "duplicate commit stamp",
        "CAS-adopt sampled clock",
    );
    let replayed = skiphash_model::replay(&failure.token, clock_tick_body());
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("duplicate commit stamp")),
        "token must replay to the same duplicate stamp: {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// Snapshot pin custody (MVCC PR): the live-count raise must precede the
// clock sample, so a committer that observed `live() == 0` necessarily
// stamped *after* the pin's version and displaces nothing the pin can reach.
// Mutated builds raise the count after the sample; a commit ticking in
// between skips preservation and the pinned read finds no history.
// ---------------------------------------------------------------------------

fn snapshot_pin_body() -> impl Fn() + Send + Sync + 'static {
    || {
        let stm = Arc::new(Stm::new());
        let cell = Arc::new(TCell::new(0u64));

        let reader = {
            let stm = Arc::clone(&stm);
            let cell = Arc::clone(&cell);
            skiphash_model::thread::spawn(move || {
                let pin = stm.pin_snapshot();
                // Resolves at the pinned version or panics "found no
                // history" when the displacing commit skipped custody —
                // that panic is the counterexample the mutation seeds.
                let v = pin.reader().read(&cell, |x| *x);
                assert!(v == 0 || v == 7, "impossible snapshot value {v}");
            })
        };
        let writer = {
            let stm = Arc::clone(&stm);
            let cell = Arc::clone(&cell);
            skiphash_model::thread::spawn(move || {
                stm.run(|tx| cell.write(tx, 7u64));
            })
        };
        reader.join().unwrap();
        writer.join().unwrap();
    }
}

#[cfg(not(model_mutation))]
#[test]
fn snapshot_pin_always_resolves() {
    let report = explore(&pct_opts(0x7e57_0003), snapshot_pin_body());
    assert!(
        report.failure.is_none(),
        "shipped pin protocol must always preserve reachable payloads: {:?}",
        report.failure
    );
}

#[cfg(model_mutation)]
#[test]
fn snapshot_pin_raise_after_sample_loses_custody() {
    let failure = expect_counterexample(
        explore(&pct_opts(0x7e57_0003), snapshot_pin_body()),
        "found no history",
        "late live-count raise",
    );
    let replayed = skiphash_model::replay(&failure.token, snapshot_pin_body());
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("found no history")),
        "token must replay to the same missing-history panic: {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// Read-only attempts (TL2 read-only transactions): a read-only attempt keeps
// no read set, so a write in one must upgrade the attempt to an ordinary
// one, whose read set commit validates.  Two threads each read X and Y
// through `run_read_only` and, seeing both 0, set their own cell: every
// write forces an upgrade, and at most one cell may end at 1.  Mutated
// builds admit the write without upgrading, so each writer commits an
// empty read set and both cells can end at 1.
// ---------------------------------------------------------------------------

fn write_skew_body() -> impl Fn() + Send + Sync + 'static {
    || {
        let stm = Arc::new(Stm::new());
        let cells = Arc::new([TCell::new(0u64), TCell::new(0u64)]);
        let workers: Vec<_> = (0..2)
            .map(|me| {
                let stm = Arc::clone(&stm);
                let cells = Arc::clone(&cells);
                skiphash_model::thread::spawn(move || {
                    stm.run_read_only(|tx| {
                        let (x, y) = (cells[0].read(tx)?, cells[1].read(tx)?);
                        if (x, y) == (0, 0) {
                            cells[me].write(tx, 1)?;
                        }
                        Ok(())
                    });
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let (x, y) = (cells[0].load_atomic(), cells[1].load_atomic());
        assert!(
            (x, y) != (1, 1),
            "write skew: both writers saw the other's cell at 0"
        );
    }
}

#[cfg(not(model_mutation))]
#[test]
fn read_only_writes_upgrade_and_admit_no_write_skew() {
    let report = explore(&pct_opts(0x7e57_0004), write_skew_body());
    assert!(
        report.failure.is_none(),
        "an upgraded attempt must validate its reads: {:?}",
        report.failure
    );
}

#[cfg(model_mutation)]
#[test]
fn read_only_writes_without_upgrade_skew() {
    let failure = expect_counterexample(
        explore(&pct_opts(0x7e57_0004), write_skew_body()),
        "write skew",
        "read-only write admitted without upgrade",
    );
    let replayed = skiphash_model::replay(&failure.token, write_skew_body());
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("write skew")),
        "token must replay to the same write skew: {replayed:?}"
    );
}
