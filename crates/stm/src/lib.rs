//! An ownership-record (orec) based software transactional memory.
//!
//! This crate implements the STM substrate that the skip hash (the paper's
//! primary contribution) is built on.  It follows the design principles the
//! paper attributes to modern STM systems such as exoTM, TinySTM, and TL2:
//!
//! * **Orecs co-located with data** — every [`TCell`] carries its own
//!   ownership record, rather than hashing addresses into a shared orec
//!   table.
//! * **Global version clock** — commit timestamps come from one
//!   [`Clock`] of one of two [`ClockKind`]s: a sampled counter (`gv5`-style,
//!   the default: its quiescence proof lets uncontended writer commits skip
//!   read-set validation, and a failed claim falls back to a `gv1` tick) or
//!   a hardware timestamp (`rdtscp`-style).
//! * **Allocation-free steady state** — transaction scratch (read set, write
//!   log, retirement bag, post-commit queue) is pooled per thread, the write
//!   log is a flat array of monomorphic records rather than boxed trait
//!   objects, word-sized values live in their cells and wider payloads are
//!   carved from a recycling size-classed slab; after warmup, a
//!   read-modify-write transaction touches the global allocator zero times
//!   (see `docs/PERF.md`).
//! * **Encounter-time locks, commit-time install** — writers acquire the
//!   orec on first write but keep the new value in the write log; commit
//!   swaps it into the cell, and an abort drops it and releases the orec.  A
//!   cell's data word only ever holds committed values.
//! * **Cheap read-only transactions** — transactions that perform no writes
//!   commit without any shared-memory stores.
//! * **`try_once` and `no_local_undo` execution modes** — the fast-path /
//!   slow-path range query machinery of the skip hash relies on a transaction
//!   mode that does not retry on conflict ([`Stm::try_once`]) and on local
//!   variables surviving an abort (which falls out naturally from running the
//!   transaction body as a Rust closure over `&mut` locals).
//!
//! # Differences from an in-place C++ STM
//!
//! The paper's STM (exoTM) performs in-place writes on raw words and relies
//! on undo logs to repair them after an abort.  Optimistic readers may
//! observe a torn, uncommitted value and discard it after validation.  In
//! Rust that pattern is undefined behaviour for arbitrary `T`, so a
//! [`TCell`] keeps one atomically swapped **data word** beside its orec.  A
//! value that fits the word — a link, a version stamp, a counter, which is
//! what the paper's structures are made of — is the word, read in place
//! exactly as in the C++; a wider value lives behind it, in an epoch-managed
//! payload a write replaces wholesale.  Either way a transactional write
//! logs the word it will install, and commit swaps it in: there is no undo
//! log, because an abort has nothing in the cell to repair, and no reader
//! ever loads an uncommitted value.  The orecs are still acquired at
//! encounter time, so conflict windows, clock interactions, and abort
//! causes — the properties the paper's evaluation depends on — are
//! unchanged; what differs is when the word is written, and the granularity
//! of the copy for wide values.
//!
//! # Writing transactions: the `TxResult` contract
//!
//! [`Stm::run`] hands the body a [`&mut Txn`](Txn); every transactional
//! operation — [`TCell::read`], [`TCell::write`], and anything built on
//! them — returns a [`TxResult<T>`](TxResult).  The contract is:
//!
//! 1. **Propagate, never swallow.**  An `Err(TxAbort)` means the attempt
//!    observed an inconsistent snapshot and *must* die; forward it with `?`.
//!    Catching it and continuing would let the body act on torn data.
//! 2. **Bodies re-execute.**  `Stm::run` retries the body after every abort,
//!    so the body must be safe to run any number of times.  Side effects that
//!    must happen exactly once per *committed* transaction go through
//!    [`Txn::on_commit`], which drops its actions when the attempt aborts.
//! 3. **Locals survive aborts.**  The body is an ordinary closure, so `&mut`
//!    captures keep their values across retries (the paper's `no_local_undo`
//!    mode); [`Stm::try_once`] never retries and surfaces the abort cause.
//! 4. **One runtime per transaction.**  Every `TCell` touched by one
//!    transaction must be managed by the `Stm` that started it — timestamps
//!    from different clocks are incomparable.  Structures that want to be
//!    composable inside a single transaction must share an `Stm`
//!    ([`Txn::belongs_to`] lets a structure enforce this).
//!
//! # Example
//!
//! ```
//! use skiphash_stm::{Stm, TCell};
//!
//! let stm = Stm::new();
//! let balance_a = TCell::new(100u64);
//! let balance_b = TCell::new(0u64);
//!
//! // Atomically move 40 units from A to B.
//! stm.run(|tx| {
//!     let a = balance_a.read(tx)?;
//!     let b = balance_b.read(tx)?;
//!     balance_a.write(tx, a - 40)?;
//!     balance_b.write(tx, b + 40)?;
//!     Ok(())
//! });
//!
//! assert_eq!(balance_a.load_atomic(), 60);
//! assert_eq!(balance_b.load_atomic(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod clock;
pub mod error;
pub mod orec;
mod scratch;
mod slab;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod tcell;
pub mod txn;

pub use clock::{Clock, ClockKind, CommitStamp};
pub use error::{TxAbort, TxResult};
pub use snapshot::SnapshotPin;
pub use stats::{StatsSnapshot, StmStats};
pub use tcell::TCell;
pub use txn::{Stm, Txn};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counter_increment_across_threads() {
        let stm = Arc::new(Stm::new());
        let counter = Arc::new(TCell::new(0u64));
        let threads = 4;
        let per_thread = 500;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stm = Arc::clone(&stm);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..per_thread {
                    stm.run(|tx| {
                        let v = counter.read(tx)?;
                        counter.write(tx, v + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_atomic(), threads * per_thread);
    }

    #[test]
    fn multi_cell_invariant_is_preserved() {
        // Two cells must always sum to 1000 from the point of view of any
        // committed transaction.
        let stm = Arc::new(Stm::new());
        let a = Arc::new(TCell::new(500i64));
        let b = Arc::new(TCell::new(500i64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let stm = Arc::clone(&stm);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            handles.push(thread::spawn(move || {
                for i in 0..400 {
                    if (t + i) % 2 == 0 {
                        stm.run(|tx| {
                            let av = a.read(tx)?;
                            let bv = b.read(tx)?;
                            a.write(tx, av - 1)?;
                            b.write(tx, bv + 1)
                        });
                    } else {
                        let sum = stm.run(|tx| Ok(a.read(tx)? + b.read(tx)?));
                        assert_eq!(sum, 1000);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let sum = stm.run(|tx| Ok(a.read(tx)? + b.read(tx)?));
        assert_eq!(sum, 1000);
    }
}
