//! The benchmark against its own contract: `BENCHMARK.json` and the metric
//! tables say the same, every workload prints exactly those names and units,
//! and a wrong answer fails the run.
//!
//! Runs go through the real binary at 1/20 scale for one second.

use std::path::Path;
use std::process::Command;

use skiphash_benchmark::json::Json;
use skiphash_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use skiphash_benchmark::workload::Workload;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit, better, bound)` of every entry of a `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String, String, Option<f64>)> {
    let text = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_owned();
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|e| {
            (
                text(e, "name"),
                text(e, "unit"),
                text(e, "better"),
                e.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn tabled(table: &[Metric], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
    table
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.word().to_owned(),
                bounded.then_some(m.bound),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_metric_tables_agree() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), tabled(END_TO_END, true));
    assert_eq!(declared(&doc, "per_layer"), tabled(PER_LAYER, false));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    // The contract's own limits on the end-to-end list.
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(m.bound <= setup.bound, "setup_s has the largest bound");
    }
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

struct Finished {
    code: i32,
    result: Json,
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Finished {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{trace}-{}", extra.join("")));
    let output = Command::new(env!("CARGO_BIN_EXE_skiphash-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "20", "--out"])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    Finished {
        code: output.status.code().unwrap(),
        result: Json::parse(last).expect("the last line is one JSON object"),
    }
}

fn assert_prints_exactly(workload: Workload, trace: &str, table: &[Metric]) {
    let done = run(workload.name(), trace, &[]);
    let members = done.result.as_object().unwrap();
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        done.result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload:?}"
    );
    assert_eq!(done.result.get("failed"), Some(&Json::Num(0.0)));
    assert!(done.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(done.code, 0);

    let printed: Vec<(&str, &str)> = done
        .result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap())
        })
        .collect();
    let expected: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, expected, "{workload:?} --trace {trace}");
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_metrics() {
    for workload in Workload::ALL {
        assert_prints_exactly(workload, "0", END_TO_END);
    }
}

#[test]
fn every_traced_workload_prints_exactly_the_layer_ledger() {
    for workload in Workload::ALL {
        assert_prints_exactly(workload, "1", PER_LAYER);
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let done = run("scan_vs_update", "0", &[]);
    for (name, m) in done
        .result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
    {
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{name}"
        );
    }
}

#[test]
fn the_durability_ledger_is_zero_exactly_where_the_layer_is_not_reached() {
    let value = |done: &Finished, name: &str| {
        done.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    let control = run("update_heavy", "1", &[]);
    let durable = run("durable_writes", "1", &[]);
    for name in [
        "durability.wal.records",
        "durability.storage.syncs",
        "durability.checkpoint.count",
        "durability.ack_p50_us",
        "durability.recover_s",
    ] {
        assert_eq!(value(&control, name), 0.0, "{name} on update_heavy");
        assert!(value(&durable, name) > 0.0, "{name} on durable_writes");
    }
}

#[test]
fn a_planted_wrong_answer_is_counted_and_fails_the_run() {
    for fault in ["get", "range"] {
        let done = run("read_mostly", "0", &["--inject-fault", fault]);
        assert_eq!(done.result.get("failed"), Some(&Json::Num(1.0)), "{fault}");
        assert_eq!(
            done.result.get("correct"),
            Some(&Json::Bool(false)),
            "{fault}"
        );
        assert_eq!(done.code, 1, "{fault}");
    }
}

#[test]
fn bad_usage_exits_with_its_own_code_and_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_skiphash-benchmark"))
        .args([
            "--workload",
            "snapshot_audit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
