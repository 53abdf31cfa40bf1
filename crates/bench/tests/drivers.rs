//! End-to-end smoke test of the figure/table drivers and the trajectory
//! tool: each runs at tiny parameters, must exit 0 and print its figure
//! titles and CSV headers; a malformed option value must exit 2 naming the
//! key; and a freshly generated trajectory, like the committed
//! `BENCH_trajectory.json`, must pass `--check`.

use std::path::Path;
use std::process::Command;

use skiphash_bench::MapKind;

const TINY: &[&str] = &["--universe", "4096", "--duration-ms", "20"];

/// Run `bin` with `args`; returns the exit code, stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    (
        output.status.code().expect("driver exited by signal"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Run a driver at [`TINY`] plus `extra`; it must succeed and print every
/// line of `expected` as a whole line.
fn assert_prints(bin: &str, extra: &[&str], expected: &[String]) {
    let args: Vec<&str> = TINY.iter().chain(extra).copied().collect();
    let (code, stdout, stderr) = run(bin, &args);
    assert_eq!(code, 0, "{bin} {args:?} failed:\n{stderr}");
    for line in expected {
        assert!(
            stdout.lines().any(|l| l == line),
            "{bin} did not print {line:?}:\n{stdout}"
        );
    }
}

fn csv_header(x_label: &str, kinds: &[MapKind]) -> String {
    let labels = kinds.iter().map(|k| k.label().replace(',', ";"));
    std::iter::once(x_label.to_string())
        .chain(labels)
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn fig5_prints_every_workload() {
    let mut expected = vec![csv_header("threads", MapKind::all())];
    expected.push(csv_header("threads", MapKind::range_capable()));
    for (letter, mix) in [
        ("a", "100% lookup, 0% update, 0% range"),
        ("c", "0% lookup, 0% update, 100% range"),
        ("f", "1% lookup, 98% update, 1% range"),
    ] {
        expected.push(format!("# Figure 5{letter}: {mix}"));
    }
    assert_prints(env!("CARGO_BIN_EXE_fig5"), &["--threads", "1"], &expected);
}

#[test]
fn fig6_prints_both_charts() {
    let header = csv_header("range length", MapKind::range_capable());
    let expected = [
        "# Figure 6 (top): update throughput vs range length".to_string(),
        "# Figure 6 (bottom): range throughput vs range length".to_string(),
        header,
    ];
    let extra = ["--min-exp", "4", "--max-exp", "4"];
    assert_prints(env!("CARGO_BIN_EXE_fig6"), &extra, &expected);
}

#[test]
fn table1_prints_its_header() {
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_table1"),
        &[TINY, &["--min-exp", "10", "--max-exp", "10"]].concat(),
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.starts_with("# Table 1 reproduction"), "{stdout}");
    let header = stdout.lines().nth(1).unwrap_or("");
    for column in [
        "Range Length",
        "Aborts",
        "Successes",
        "Gave up",
        "Aborts/Success",
    ] {
        assert!(header.contains(column), "{stdout}");
    }
    assert!(stdout.contains("2^10 (1024)"), "{stdout}");
}

#[test]
fn fig_transfer_prints_both_mixes() {
    let expected = [
        "# Transfer scenario (transfer-heavy): 50% transfer, 25% audit, 25% lookup",
        "# Transfer scenario (audit-heavy): 10% transfer, 60% audit, 30% lookup",
        "threads,total,transfers,audits,lookups",
    ]
    .map(String::from);
    assert_prints(
        env!("CARGO_BIN_EXE_fig_transfer"),
        &["--threads", "1"],
        &expected,
    );
}

#[test]
fn fig_durability_prints_both_charts() {
    let expected = [
        "# Durable writers: throughput vs flush interval",
        "# Durable writers: ack latency vs flush interval",
        "# Durable writers: records per batch vs flush interval",
        "flush interval (us),total",
        "flush interval (us),ack p50,ack p99,ack max",
        "flush interval (us),records/batch",
    ]
    .map(String::from);
    assert_prints(
        env!("CARGO_BIN_EXE_fig_durability"),
        &["--intervals-us", "1000", "--threads", "1"],
        &expected,
    );
}

#[test]
fn malformed_option_values_exit_2_naming_the_key() {
    for (bin, key, value) in [
        (env!("CARGO_BIN_EXE_fig5"), "duration-ms", "1s"),
        (env!("CARGO_BIN_EXE_fig5"), "threads", "1,x"),
        (env!("CARGO_BIN_EXE_fig6"), "max-exp", "ten"),
        (env!("CARGO_BIN_EXE_table1"), "universe", "-4096"),
        (env!("CARGO_BIN_EXE_fig_transfer"), "trials", "1.5"),
        (
            env!("CARGO_BIN_EXE_fig_durability"),
            "intervals-us",
            "100,,1000",
        ),
        (env!("CARGO_BIN_EXE_bench_gate"), "max-regression", "25%"),
    ] {
        let flag = format!("--{key}");
        let (code, _, stderr) = run(bin, &[&flag, value]);
        assert_eq!(code, 2, "{bin} {flag} {value}: {stderr}");
        assert!(stderr.contains(&flag), "{bin}: {stderr}");
    }
}

#[test]
fn trajectory_generates_and_checks() {
    let bin = env!("CARGO_BIN_EXE_bench_trajectory");
    let fresh = std::env::temp_dir().join(format!("trajectory-smoke-{}.json", std::process::id()));
    let fresh = fresh.to_str().expect("temp path is UTF-8");
    let (code, _, stderr) = run(bin, &["--duration-ms", "20", "--reps", "1", "--out", fresh]);
    assert_eq!(code, 0, "generate failed:\n{stderr}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trajectory.json");
    for path in [fresh, committed.to_str().expect("repo path is UTF-8")] {
        let (code, stdout, stderr) = run(bin, &["--check", path]);
        assert_eq!(code, 0, "{path} failed --check:\n{stderr}");
        assert!(stdout.contains("OK (16 points)"), "{stdout}");
    }
    let _ = std::fs::remove_file(fresh);
}
