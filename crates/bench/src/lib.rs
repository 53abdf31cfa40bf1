//! The measurement package reproducing the skip hash paper's evaluation:
//! the library every figure driver, Criterion group and CI tool is built on.
//!
//! The paper drives every map through the same framework: worker threads
//! repeatedly pick an operation (lookup / insert / remove / range query)
//! according to the workload's mix, keys are drawn uniformly from a fixed
//! universe, the map is pre-filled to half the universe, and throughput is
//! reported in operations per second.  The modules:
//!
//! * [`adapters`] — a common [`BenchMap`] trait, adapters for the skip hash
//!   (fast-only / slow-only / two-path) and every baseline, and the one
//!   sizing rule (buckets and levels for a key universe);
//! * [`workload`] — the operation mixes of Figures 5a–5f, the parameterized
//!   workloads of Figure 6 and Table 1, their samplers, and the one prefill;
//! * [`trial`] — the one timed-worker engine every trial runs on, and the
//!   single-map trials of Figures 5 and 6;
//! * [`transfer`] — the multi-map composed-transaction scenario (atomic
//!   cross-map transfers via `TxView`), which the single-map trait cannot
//!   express;
//! * [`snapshot_scan`] — the scans-vs-writers scenario: pinned MVCC snapshot
//!   scans auditing a conservation invariant while transfer writers commit
//!   concurrently;
//! * [`durability`] — the durable-writers scenario: logged commits with a
//!   configurable fraction waiting on the group-commit fsync, reporting
//!   acknowledgment latency quantiles;
//! * [`report`] — plain-text and CSV emitters shaped like the paper's figures
//!   and tables;
//! * [`gate`] — the CI regression gate over Criterion medians;
//! * [`trajectory`] — the committed `BENCH_trajectory.json` format and the
//!   `traversal/` cases it shares with the Criterion group.
//!
//! Each binary in `src/bin` regenerates one figure or table; see
//! `docs/BENCHMARKS.md` for the mapping and every option.

#![warn(missing_docs)]

pub mod adapters;
pub mod durability;
pub mod gate;
pub mod report;
pub mod snapshot_scan;
pub mod trajectory;
pub mod transfer;
pub mod trial;
pub mod workload;

pub use adapters::{BenchMap, MapKind};
pub use workload::Workload;

use std::collections::HashMap;
use std::str::FromStr;
use std::time::Duration;

/// Command-line options shared by the benchmark drivers.
///
/// Parsing is deliberately tiny (`--key value` pairs) so the drivers stay
/// dependency-free.  Keys a driver does not read are ignored; a malformed
/// value for a key it reads ends the process with exit status 2 and a
/// message naming the key.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    raw: HashMap<String, String>,
}

impl BenchOptions {
    /// Parse `--key value` pairs from the process arguments.
    pub fn from_args() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse `--key value` pairs from an iterator (testable entry point).
    // Deliberately NOT the std FromIterator trait: this is a constructor
    // taking raw argv strings, and call sites read better as an inherent fn.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut raw = HashMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::from("true"),
                };
                raw.insert(key.to_string(), value);
            }
        }
        Self { raw }
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.raw.get(key).map(String::as_str)
    }

    /// Numeric option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_parsed(key, default)
    }

    /// Any other parsed option with default.
    pub fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .map_or(default, |raw| or_exit(parse_value(key, raw)))
    }

    /// Boolean flag.
    pub fn get_flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Comma-separated list of integers with default.
    pub fn get_u64_list(&self, key: &str, default: &[u64]) -> Vec<u64> {
        match self.get(key) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .map(|part| or_exit(parse_value(key, part)))
                .collect(),
        }
    }

    /// Trial duration (`--duration-ms`, default `default_ms`).
    pub fn duration(&self, default_ms: u64) -> Duration {
        Duration::from_millis(self.get_u64("duration-ms", default_ms))
    }
}

/// Parse one option value, or say which key it was malformed for.
fn parse_value<T: FromStr>(key: &str, raw: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("malformed value {raw:?} for --{key}"))
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Default thread counts to sweep: 1, 2, 4, ... up to twice the available
/// parallelism (mirroring the paper's sweep up to 2x hardware threads, scaled
/// to this machine).
pub fn default_thread_grid() -> Vec<u64> {
    let max = cores() * 2;
    let mut grid = vec![1];
    let mut t = 2;
    while t <= max {
        grid.push(t);
        t *= 2;
    }
    grid
}

/// Default thread count of each role in a two-role trial (Figure 6's
/// updaters and rangers): half the available parallelism, at least one.
pub fn default_role_threads() -> u64 {
    (cores() / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let opts = BenchOptions::from_iter(
            ["--universe", "5000", "--quick", "--threads", "1,2,4"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(opts.get_u64("universe", 1), 5000);
        assert!(opts.get_flag("quick"));
        assert_eq!(opts.get_u64_list("threads", &[8]), vec![1, 2, 4]);
        assert_eq!(opts.get_u64_list("missing", &[8]), vec![8]);
        assert_eq!(opts.get_u64("absent", 7), 7);
        assert_eq!(opts.duration(250), Duration::from_millis(250));
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_value::<u64>("threads", " 4"), Ok(4));
        assert_eq!(parse_value::<f64>("max-regression", "0.25"), Ok(0.25));
    }

    #[test]
    fn malformed_values_name_their_key() {
        for (key, raw) in [("duration-ms", "1s"), ("threads", "x"), ("universe", "-5")] {
            let message = parse_value::<u64>(key, raw).unwrap_err();
            assert!(message.contains(&format!("--{key}")), "{message}");
            assert!(message.contains(raw), "{message}");
        }
    }

    #[test]
    fn thread_grid_starts_at_one_and_is_monotonic() {
        let grid = default_thread_grid();
        assert_eq!(grid[0], 1);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(default_role_threads() >= 1);
    }
}
