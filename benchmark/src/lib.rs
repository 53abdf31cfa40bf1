//! The repo benchmark: four closed-loop workloads on the skip hash, eight
//! end-to-end metrics, and a per-layer ledger filled from outside the
//! crates.  `benchmark/README.md` explains every name; `BENCHMARK.json` at
//! the repository root is the contract the driver reads.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod worker;
pub mod workload;
