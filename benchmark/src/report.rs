//! Turning a run into what the contract asks for: every metric by name with
//! its unit, one JSON object as the last line of standard output, and a
//! result file that also carries what is needed to distrust the numbers.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::runner::{RunConfig, RunOutcome};

/// The metrics this run must print: the end-to-end set untraced, the
/// per-layer set traced.  A ledger row the workload does not reach reads 0.
fn metric_values(cfg: &RunConfig, outcome: &RunOutcome) -> Vec<(&'static Metric, f64)> {
    let (table, values) = if cfg.trace {
        (PER_LAYER, &outcome.per_layer)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m, v)
        })
        .collect()
}

fn metrics_json(values: &[(&'static Metric, f64)]) -> Json {
    Json::obj(values.iter().map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(cfg: &RunConfig, outcome: &RunOutcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&metric_values(cfg, outcome))),
    ])
}

/// Every metric by name, value and unit, one per line.
pub fn metric_table(cfg: &RunConfig, outcome: &RunOutcome) -> String {
    metric_values(cfg, outcome)
        .iter()
        .map(|(m, v)| format!("{:<46} {:>18.4} {}\n", m.name, v, m.unit))
        .collect()
}

fn notes_json(cfg: &RunConfig, outcome: &RunOutcome) -> Json {
    let n = &outcome.notes;
    let c = n.counts;
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".to_owned()));
    let mut notes = vec![
        ("nproc", Json::Num(n.nproc as f64)),
        ("cpu_model", Json::str(&n.cpu_model)),
        ("clock", Json::str(&n.clock)),
        ("git_commit", env("SKH_BENCH_COMMIT")),
        ("rustc", env("SKH_BENCH_RUSTC")),
        ("workers", Json::Num(n.workers as f64)),
        ("populated_keys", Json::Num(n.populated as f64)),
        ("ref_ops_per_s", Json::Num(n.ref_ops_per_s)),
        ("ref_dram_ns", Json::Num(n.ref_dram_ns)),
        ("window_ops_per_s", Json::nums(n.window_ops.iter().copied())),
        ("window_iqr_share", Json::Num(n.window_iqr_share)),
        ("point_samples", Json::Num(n.point_samples as f64)),
        ("range_samples", Json::Num(n.range_samples as f64)),
        (
            "window_quantiles_ns",
            Json::obj(
                ["point_p50", "point_p95", "range_p50", "range_p95"]
                    .into_iter()
                    .zip(&n.window_quantiles)
                    .map(|(name, series)| (name, Json::nums(series.iter().copied()))),
            ),
        ),
        ("whole_run_p99", Json::nums(n.whole_run_p99)),
        ("samples_dropped", Json::Num(n.samples_dropped as f64)),
        ("clock_read_ns", Json::Num(n.clock_read_ns)),
        (
            "measured_ops",
            Json::obj([
                ("gets", Json::Num(c.gets as f64)),
                ("puts", Json::Num(c.puts as f64)),
                ("removes", Json::Num(c.removes as f64)),
                ("ranges", Json::Num(c.ranges as f64)),
                ("logged", Json::Num(c.logged as f64)),
            ]),
        ),
        ("checkpoints", Json::Num(n.checkpoints as f64)),
        (
            "phases_s",
            Json::Arr(
                n.phases_s
                    .iter()
                    .map(|(name, s)| Json::obj([(*name, Json::Num(*s))]))
                    .collect(),
            ),
        ),
        (
            "check_failures",
            Json::Arr(n.check_failures.iter().map(Json::str).collect()),
        ),
    ];
    if let Some((p50, samples)) = n.ack_p50_us {
        notes.push(("ack_p50_us", Json::Num(p50)));
        notes.push(("ack_samples", Json::Num(samples as f64)));
    }
    if let Some(s) = n.recover_s {
        notes.push(("recover_s", Json::Num(s)));
    }
    if cfg.trace {
        notes.push(("spans_dropped", Json::Num(n.spans_dropped as f64)));
        notes.push((
            "span_totals",
            Json::obj(n.span_totals.iter().map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })),
        ));
    }
    Json::obj(notes)
}

/// Where a run's result file goes inside `out_dir`.
pub fn result_path(out_dir: &Path, cfg: &RunConfig) -> PathBuf {
    out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ))
}

/// The result file: the run's arguments, the result object's members, and
/// the notes.
pub fn result_file(cfg: &RunConfig, outcome: &RunOutcome) -> Json {
    let Json::Obj(result) = result_line(cfg, outcome) else {
        unreachable!("result_line builds an object")
    };
    let mut doc = vec![
        ("workload".to_owned(), Json::str(cfg.workload.name())),
        ("seed".to_owned(), Json::Num(cfg.seed as f64)),
        ("seconds".to_owned(), Json::Num(cfg.seconds)),
        (
            "trace".to_owned(),
            Json::Num(f64::from(u8::from(cfg.trace))),
        ),
        ("scale".to_owned(), Json::Num(cfg.scale.divisor as f64)),
    ];
    doc.extend(result);
    doc.push(("notes".to_owned(), notes_json(cfg, outcome)));
    Json::Obj(doc)
}
