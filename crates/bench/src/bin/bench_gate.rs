//! CI benchmark regression gate.
//!
//! Reads two JSON-lines artifacts produced by the criterion shim (run the
//! benches with `CRITERION_JSON=<path>`), compares the medians of every
//! benchmark id under any of the comma-separated `--prefix` groups (default:
//! `gate::GATED_PREFIXES`), and exits non-zero when any of them slowed down
//! by more than `--max-regression`.
//!
//! ```text
//! bench_gate --baseline bench-baseline.json --current bench-current.json \
//!            --prefix epoch/,commit_path/ --max-regression 0.25
//! ```

use std::process::ExitCode;

use skiphash_bench::gate::{compare_prefixes, parse_records, GATED_PREFIXES};
use skiphash_bench::BenchOptions;

fn main() -> ExitCode {
    let options = BenchOptions::from_args();
    let baseline_path = options.get("baseline").unwrap_or("bench-baseline.json");
    let current_path = options.get("current").unwrap_or("bench-current.json");
    let prefixes: Vec<&str> = match options.get("prefix") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect(),
        None => GATED_PREFIXES.to_vec(),
    };
    let max_regression = options.get_parsed("max-regression", 0.25);

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(contents) => Some(parse_records(&contents)),
        Err(err) => {
            eprintln!("bench_gate: cannot read {path}: {err}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(baseline_path), read(current_path)) else {
        return ExitCode::from(2);
    };
    if baseline.is_empty() {
        eprintln!("bench_gate: baseline {baseline_path} holds no records; refusing to gate");
        return ExitCode::from(2);
    }

    let report = compare_prefixes(&baseline, &current, &prefixes, max_regression);
    println!(
        "bench_gate: gating prefixes {prefixes:?} at +{:.0}% median\n",
        max_regression * 100.0
    );
    for comparison in &report.compared {
        println!("{comparison}");
    }
    for id in &report.missing_in_current {
        println!("{id:<55} present in baseline only (renamed or removed?)");
    }
    for id in &report.missing_in_baseline {
        println!("{id:<55} new benchmark (no baseline yet)");
    }
    if report.compared.is_empty() {
        println!("bench_gate: no gated ids in common; nothing to compare");
    }

    if report.passed() {
        println!("\nbench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        let count = report.regressions().count();
        println!("\nbench_gate: FAIL ({count} median regression(s) beyond the threshold)");
        ExitCode::FAILURE
    }
}
