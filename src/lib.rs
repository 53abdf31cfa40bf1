//! Umbrella crate for the Skip Hash reproduction workspace.
//!
//! This crate re-exports the main entry points of the workspace so that
//! examples and integration tests can use a single dependency:
//!
//! * [`skiphash`] — the skip hash ordered map (the paper's contribution).
//! * [`skiphash_stm`] — the software transactional memory substrate.
//! * [`skiphash_baselines`] — the vCAS / bundled / STM baselines used in the
//!   paper's evaluation.
//! * [`skiphash_durability`] — opt-in persistence: commit-record WAL with
//!   group commit, snapshot checkpoints, and crash recovery.
//!
//! The measurement package that regenerates the paper's figures and tables,
//! `skiphash_bench` (`crates/bench`), stands on its own; the integration
//! tests use it as a dev-dependency.
//!
//! # Quick start
//!
//! ```
//! use skiphash_repro::SkipHash;
//!
//! let map: SkipHash<u64, u64> = SkipHash::new();
//! map.insert(1, 10);
//! map.insert(5, 50);
//! map.insert(3, 30);
//! assert_eq!(map.get(&3), Some(30));
//! let pairs: Vec<_> = map.range(1..=4).collect();
//! assert_eq!(pairs, vec![(1, 10), (3, 30)]);
//! ```
//!
//! # Composable transactions
//!
//! Several operations — on one map or on several maps sharing an
//! [`stm::Stm`] runtime — can run as one atomic transaction via
//! [`SkipHash::view`]:
//!
//! ```
//! use skiphash_repro::SkipHash;
//!
//! let map: SkipHash<u64, u64> = SkipHash::new();
//! map.insert(1, 10);
//! // Move the value from key 1 to key 2 atomically.
//! map.stm().run(|tx| {
//!     let v = map.view(tx).take(&1)?.unwrap_or(0);
//!     map.view(tx).insert(2, v)?;
//!     Ok(())
//! });
//! assert_eq!((map.get(&1), map.get(&2)), (None, Some(10)));
//! ```

pub use skiphash;
pub use skiphash_baselines as baselines;
pub use skiphash_durability as durability;
pub use skiphash_stm as stm;

pub use skiphash::{Compute, Range, RangePolicy, SkipHash, SkipHashBuilder, TxView};
pub use skiphash_durability::{DurableMap, DurableMapBuilder};
