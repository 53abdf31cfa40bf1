//! The hinted tower descent's confirm, with and without it.
//!
//! `skiphash::traverse::descend` hops on unvalidated hints and confirms,
//! with two validated reads per kept level, that the pair it landed between
//! is adjacent in the attempt's snapshot (the argument is in that module's
//! docs).  The scenario here is a stale landing: 11 is inserted by a commit
//! in the middle of an attempt that has already seen it absent.  With the
//! sampled clock and no other commit in between, 11's own cells carry the
//! attempt's read version, so a search that lands on 11 (`succ(10)`) or
//! behind it (`pred(12)`) through hints alone would report it.
//!
//! The clean build asserts both queries abort the attempt.  The mutation
//! build (`RUSTFLAGS="--cfg model_mutation"`) compiles `skiphash` without the
//! confirm and asserts both queries then report 11 — proof that the clean
//! arm can see the bug.  The scenario is one fixed interleaving, so it runs
//! on plain threads rather than under `explore`.

use skiphash::{SkipHash, TxView};
use skiphash_stm::{ClockKind, TxAbort, TxResult};

/// Run `query` in an attempt that saw 11 absent before a concurrent commit
/// inserted it; the attempt's abort cause, or what the query reported.
fn after_a_stale_insert(
    query: fn(&mut TxView<'_, '_, u64, u64>) -> TxResult<Option<u64>>,
) -> Result<Option<u64>, TxAbort> {
    let map: SkipHash<u64, u64> = SkipHash::new();
    assert_eq!(map.config().clock, ClockKind::Sampled);
    assert!(map.insert(10, 10) && map.insert(12, 12));
    map.stm()
        .try_once(|tx| {
            assert!(!map.view(tx).contains_key(&11)?);
            std::thread::scope(|s| {
                s.spawn(|| assert!(map.insert(11, 11)));
            });
            query(&mut map.view(tx))
        })
        .map_err(|failed| failed.cause)
}

fn succ_of_10(view: &mut TxView<'_, '_, u64, u64>) -> TxResult<Option<u64>> {
    view.succ(&10)
}

fn pred_of_12(view: &mut TxView<'_, '_, u64, u64>) -> TxResult<Option<u64>> {
    view.pred(&12)
}

#[cfg(not(model_mutation))]
#[test]
fn a_confirmed_descent_aborts_on_a_stale_landing() {
    assert_eq!(after_a_stale_insert(succ_of_10), Err(TxAbort::ReadConflict));
    assert_eq!(after_a_stale_insert(pred_of_12), Err(TxAbort::ReadConflict));
}

#[cfg(model_mutation)]
#[test]
fn an_unconfirmed_descent_reports_a_stale_landing() {
    assert_eq!(after_a_stale_insert(succ_of_10), Ok(Some(11)));
    assert_eq!(after_a_stale_insert(pred_of_12), Ok(Some(11)));
}
