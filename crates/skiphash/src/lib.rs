//! The **skip hash**: a fast, linearizable ordered map built on software
//! transactional memory.
//!
//! This crate reproduces the data structure from *"Skip Hash: A Fast Ordered
//! Map Via Software Transactional Memory"*.  A skip hash composes two data
//! structures behind one abstraction:
//!
//! * a **closed-addressing hash map** from keys to skip list nodes, giving
//!   `O(1)` routing for lookups, removals, and point queries on present keys;
//! * a **doubly linked skip list** ordered by key, giving `O(log n)` ordered
//!   operations and range queries.
//!
//! Every operation executes as one or more STM transactions
//! ([`skiphash_stm`]), which is what makes the composition simple: a removal
//! can atomically update the hash map, flip a node's logical-deletion
//! timestamp, and unstitch the node from all levels of the skip list.
//!
//! Range queries are linearizable and use a two-path strategy:
//!
//! * the **fast path** runs the whole query as a single `try_once`
//!   transaction;
//! * the **slow path** registers with the [range query coordinator]
//!   (`rqc::Rqc`), which versions insertions and removals so the query can be
//!   split across many small transactions while still linearizing at the
//!   moment it acquired its version number.
//!
//! # Two API tiers
//!
//! * **Sealed operations** — every [`SkipHash`] method runs as its own
//!   internal transaction: `insert`, `get`, `remove`, `range`, ….
//! * **Composable transactions** — [`SkipHash::view`] opens a [`TxView`]
//!   inside a *caller-owned* transaction, so several operations (possibly on
//!   several maps sharing one [`skiphash_stm::Stm`], see
//!   [`SkipHashBuilder::stm`]) commit or abort as a unit, and atomic
//!   read-modify-write (`update` / `get_or_insert_with` / `compute`) needs no
//!   caller-side retry loop.
//!
//! The sealed methods are thin wrappers over `TxView`, so the two tiers
//! cannot drift apart.  See `docs/API.md` at the repository root for a guided
//! tour and migration notes.
//!
//! # Example
//!
//! ```
//! use skiphash::SkipHash;
//!
//! let map: SkipHash<u64, &'static str> = SkipHash::new();
//! assert!(map.insert(3, "three"));
//! assert!(map.insert(1, "one"));
//! assert!(map.insert(7, "seven"));
//! assert!(!map.insert(3, "again"), "insert does not overwrite");
//!
//! assert_eq!(map.get(&1), Some("one"));
//! assert_eq!(map.ceil(&2), Some(3));
//! let pairs: Vec<_> = map.range(1..=5).collect();
//! assert_eq!(pairs, vec![(1, "one"), (3, "three")]);
//!
//! // Composable tier: a read-modify-write and a dependent insert, atomically.
//! map.stm().run(|tx| {
//!     let mut v = map.view(tx);
//!     let three = v.take(&3)?;
//!     v.insert(4, three.unwrap_or("four"))?;
//!     Ok(())
//! });
//! assert_eq!(map.get(&4), Some("three"));
//!
//! assert!(map.remove(&1));
//! assert_eq!(map.get(&1), None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod hashmap;
pub mod map;
pub mod node;
pub mod range;
pub mod rqc;
pub mod skiplist;
pub mod snapshot;
pub mod thread_slots;
mod traverse;
pub mod view;

pub use config::{Config, RangePolicy, SkipHashBuilder};
pub use hashmap::TxHashMap;
pub use map::{RangeStats, SkipHash};
pub use range::Range;
pub use snapshot::Snapshot;
pub use view::{Compute, TxView};

use std::hash::Hash;

/// Bounds required of skip hash keys.
///
/// Blanket-implemented for every type satisfying the bounds; never implement
/// it manually.
pub trait MapKey: Ord + Hash + Clone + Send + Sync + 'static {}
impl<T: Ord + Hash + Clone + Send + Sync + 'static> MapKey for T {}

/// Bounds required of skip hash values.
///
/// Blanket-implemented for every type satisfying the bounds; never implement
/// it manually.
pub trait MapValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> MapValue for T {}
