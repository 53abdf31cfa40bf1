//! Opt-in crash-safe persistence for the skip hash.
//!
//! The paper's map is an in-memory structure; this crate adds the durability
//! layer a production deployment would wrap around it, built from two pieces
//! of machinery the STM already provides:
//!
//! * **Commit stamps.**  Every committed writer carries a unique write
//!   version from the global clock, and `Txn::on_commit_sequenced` hands it
//!   to an action exactly once per committed attempt — at the serialization
//!   point, before the commit's writes are visible to other transactions,
//!   which is what makes the sync barrier's coverage causal.  The stamps
//!   give write-ahead-log records a natural total order — recovery replays
//!   by stamp, not by file position, so group-commit batching is free to
//!   interleave records from different threads.
//! * **Pinned snapshots.**  `SkipHash::snapshot` materializes the map at a
//!   single clock version without blocking writers, which is exactly the
//!   consistent image a checkpoint needs.
//!
//! The resulting design (see `docs/DURABILITY.md` in the repository root):
//!
//! * [`wal`] — per-thread leased record buffers submitted from the
//!   commit-sequenced hook, drained by a single group-commit writer thread
//!   that frames each record with a CRC32, appends batches in stamp order,
//!   and fsyncs once per batch.
//! * [`checkpoint`] — full-map images written side-by-side with the log
//!   (temp file, fsync, atomic rename), bounding both recovery time and log
//!   growth: sealed segments entirely covered by the newest durable
//!   checkpoint are deleted.
//! * [`recovery`] — loads the newest *valid* checkpoint, replays the WAL
//!   suffix in stamp order, and truncates torn/short/corrupt tails at the
//!   last valid frame.  Recovery returns `Result` and never panics on bad
//!   bytes; mutilated input is data loss at worst, never a crash.
//! * [`storage`] — the file-system seam.  Everything above talks to a
//!   [`storage::Storage`] trait, so tests swap in an in-memory
//!   implementation with programmable faults (torn writes, short writes,
//!   failed fsync, bit flips) and prove the recovery invariants under fire.
//! * [`map`] — [`DurableMap`], the user-facing tie-up: a [`skiphash`] map
//!   plus a WAL.  `transact` hands its body the ordinary
//!   [`TxView`](skiphash::TxView), journaled into a leased
//!   [`RecordBuf`](wal::RecordBuf), so every write is recorded as it runs;
//!   [`DurableMap::sync`] is the acknowledged-durable barrier.
//!
//! The contract: an operation is **acknowledged durable** once `sync` (or a
//! `*_durable` convenience call) returns `Ok` after it — and the barrier is
//! causal, covering every logged commit whose effects the caller observed,
//! on any thread.  Recovery after a crash reconstructs a state that
//! contains every acknowledged-durable commit and is causally closed (a
//! surviving commit's dependencies survive with it) — it never resurrects
//! an aborted transaction and never tears a committed one.  See the [`map`]
//! module docs for the exact guarantee.

pub mod checkpoint;
pub mod codec;
mod lock;
pub mod map;
pub mod recovery;
pub mod storage;
pub mod wal;

pub use codec::Codec;
pub use map::{DurableMap, DurableMapBuilder};
pub use recovery::{recover, Recovered};
pub use storage::{FaultPlan, FaultStorage, MemStorage, StdStorage, Storage, StorageFile};
pub use wal::WalConfig;
