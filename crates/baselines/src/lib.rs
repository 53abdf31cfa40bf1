//! Baseline concurrent ordered maps used by the skip hash paper's evaluation.
//!
//! The paper compares the skip hash against:
//!
//! * a binary search tree and a skip list based on **versioned CAS (vCAS)**
//!   snapshots (Wei et al.), with the `rdtscp` hardware-timestamp
//!   optimization of Grimes et al.;
//! * a skip list using **bundled references** (Nelson-Slivon et al.), also
//!   with the `rdtscp` optimization;
//! * an **STM skip list** and an **STM hash map** that do not support range
//!   queries, to isolate the benefit of composing the two structures.
//!
//! # Substitutions relative to the paper's artifacts
//!
//! The original baselines are lock-free C++ data structures.  This crate
//! keeps the parts that the evaluation actually measures — `O(log n)`
//! traversal-bound elemental operations, per-link *version histories* (vCAS)
//! or *bundles* so that range queries read a consistent snapshot at a
//! timestamp, and a pluggable timestamp source (shared counter vs. hardware
//! TSC) — while synchronizing structural updates with fine-grained per-node
//! locks (the classic "lazy" optimistic scheme) instead of multi-word CAS
//! helping protocols.  This section records that substitution; the shapes the
//! paper's figures depend on (who is traversal-bound, who scans snapshots at
//! a timestamp) are preserved.

#![warn(missing_docs)]

pub mod bst;
pub mod bundle;
pub mod ordered;
pub mod skiplist;
pub mod stm_maps;
pub mod timestamp;
pub mod vcas;

pub use bst::VcasBst;
pub use bundle::BundleLink;
pub use ordered::SnapshotRegistry;
pub use skiplist::{BundledSkipList, VcasSkipList, VersionedSkipList};
pub use stm_maps::{StmHashMap, StmSkipListMap};
pub use timestamp::{TimestampMode, TimestampOracle};
pub use vcas::VcasLink;
