//! `compare A B`: judge two sets of untraced runs by the benchmark's own
//! bounds, one row per workload and end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workload::Workload;

/// The values of one set: workload → metric → one value per run.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// What the bound says about one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and both
    /// sets are steady enough to say so.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own spread is too wide and the runs interleave: the sets
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Read every untraced result file (`*-trace0.json`) in `dir`.
pub fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with("-trace0.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        let slot = set.entry(workload.to_owned()).or_default();
        for (metric, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {metric} has no value", path.display()))?;
            slot.entry(metric.clone()).or_default().push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no *-trace0.json result files", dir.display()));
    }
    Ok(set)
}

/// Share of A's median by which B's median is worse (negative: better).
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A set's own spread; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 2 {
        iqr_share(values).abs()
    } else {
        0.0
    }
}

/// Judge B against the base A on one metric.
///
/// `worse` needs sets that each spread no wider than the bound; `ok` needs
/// sets that spread no wider than a third of it, the steadiness the benchmark
/// is held to, because sets looser than that cannot tell a regression of half
/// the bound from none.  Anything else is `unresolved`, unless every run of B
/// beats every run of A.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let widest = spread(a).max(spread(b));
    if widest <= metric.bound && worsening(metric, median(a), median(b)) > metric.bound {
        return Verdict::Worse;
    }
    let fold = |v: &[f64], f: fn(f64, f64) -> f64| v.iter().copied().reduce(f).unwrap_or(0.0);
    let separated = match metric.better {
        Better::Lower => fold(b, f64::max) < fold(a, f64::min),
        Better::Higher => fold(b, f64::min) > fold(a, f64::max),
    };
    if widest <= metric.bound / 3.0 || separated {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// The comparison table, and whether any pair is [`Verdict::Worse`].
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut table = String::new();
    let mut any_worse = false;
    writeln!(
        table,
        "{:<15} {:<18} {:>3} {:>14} {:>7} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "n", "A median", "A iqr", "B median", "B iqr", "B/A", "bound"
    )
    .unwrap();
    for workload in Workload::ALL {
        let (Some(sa), Some(sb)) = (a.get(workload.name()), b.get(workload.name())) else {
            continue;
        };
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (sa.get(metric.name), sb.get(metric.name)) else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            any_worse |= verdict == Verdict::Worse;
            writeln!(
                table,
                "{:<15} {:<18} {:>3} {:>14.3} {:>6.1}% {:>14.3} {:>6.1}% {:>7.3} {:>5.0}%  {}",
                workload.name(),
                metric.name,
                va.len().min(vb.len()),
                median(va),
                spread(va) * 100.0,
                median(vb),
                spread(vb) * 100.0,
                median(vb) / median(va),
                metric.bound * 100.0,
                verdict.word()
            )
            .unwrap();
        }
    }
    table.push_str("B/A is B's median over A's: A is the base.  iqr is the distance between the\n");
    table.push_str("first and third quartile of a set's runs as a share of their median.\n");
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let metric = |name, better| Metric {
            name,
            unit: "",
            better,
            bound: 0.10,
        };
        let ops = &metric("ops_per_s", Better::Higher);
        let p50 = &metric("point_p50_ns", Better::Lower);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let scaled = |f: f64| steady.map(|v| v * f);

        assert_eq!(judge(ops, &steady, &scaled(0.95)), Verdict::Ok);
        assert_eq!(judge(ops, &steady, &scaled(0.85)), Verdict::Worse);
        assert_eq!(
            judge(ops, &steady, &scaled(1.30)),
            Verdict::Ok,
            "better is never worse"
        );
        assert_eq!(judge(p50, &steady, &scaled(1.15)), Verdict::Worse);
        assert_eq!(judge(p50, &steady, &scaled(0.50)), Verdict::Ok);

        // A set that spreads wider than the bound cannot convict...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(ops, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(ops, &noisy, &scaled(0.5)), Verdict::Unresolved);
        // ...but clears B when every run of B beats every run of A.
        assert_eq!(judge(ops, &noisy, &scaled(2.0)), Verdict::Ok);
        assert_eq!(judge(p50, &noisy, &scaled(0.5)), Verdict::Ok);

        // A set that spreads wider than a third of the bound (here 6 % of
        // 10 %) can convict but cannot acquit.
        let loose = [97.0, 100.0, 103.0, 98.0, 102.0];
        assert!(spread(&loose) > 0.10 / 3.0 && spread(&loose) < 0.10);
        assert_eq!(judge(ops, &steady, &loose), Verdict::Unresolved);
        assert_eq!(
            judge(ops, &steady, &loose.map(|v| v * 0.85)),
            Verdict::Worse
        );
        assert_eq!(judge(ops, &steady, &loose.map(|v| v * 1.30)), Verdict::Ok);

        assert!((worsening(ops, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn table_names_the_base_and_flags_worse_pairs() {
        let set = |ops: f64| -> Set {
            let metrics = BTreeMap::from([("ops_per_s".to_owned(), vec![ops, ops * 1.01])]);
            BTreeMap::from([("read_mostly".to_owned(), metrics)])
        };
        let (table, worse) = compare(&set(1000.0), &set(990.0));
        assert!(!worse);
        assert!(table.contains("read_mostly") && table.contains("ok"));
        assert!(table.contains("A is the base"));
        let (table, worse) = compare(&set(1000.0), &set(700.0));
        assert!(worse && table.contains("worse"));
    }
}
