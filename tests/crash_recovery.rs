//! SIGKILL crash campaign for the durability layer.
//!
//! The parent test re-spawns this test binary as a child (selecting the
//! `crash_child` test by name, activated through environment variables),
//! lets it hammer a [`DurableMap`] on the real file system, and SIGKILLs
//! it at a seed-chosen moment — mid-commit, mid-checkpoint, or
//! mid-truncation depending on the mode.  Each (mode, seed) cell runs two
//! kill rounds against the same directory, so recovery itself is also
//! crashed into.
//!
//! ## The contract being verified
//!
//! The child acknowledges an operation only after `DurableMap::sync`
//! returns `Ok` for it, recording `key value` in a per-thread ack file.
//! One writer commits through a logged read-modify-write (`compute` inside
//! `DurableMap::transact`), the others through `upsert_durable`.  Values
//! per key increase by one per commit, so after the kill:
//!
//! 1. **Recovery never panics or errors** — a SIGKILL at any point leaves
//!    a directory `DurableMap::open` accepts.
//! 2. **Acknowledged writes survive**: for every acked `(k, v)`, the
//!    recovered value of `k` is `>= v` (later, unacknowledged commits may
//!    legitimately have reached disk too — but never fewer).
//! 3. **The recovered state is exactly what the bytes say**: an
//!    independent oracle in this file re-parses the checkpoint images and
//!    WAL segments with the public format APIs and replays them; the map
//!    `open` builds must match it entry for entry.
//! 4. **Recovery is idempotent**: a second open of the same directory
//!    yields the same entries.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use skiphash_repro::durability::checkpoint::{decode_checkpoint, parse_checkpoint_name};
use skiphash_repro::durability::wal::{
    decode_record, parse_segment_header, parse_segment_name, FrameIter, Op,
};
use skiphash_repro::durability::{DurableMapBuilder, WalConfig};
use skiphash_repro::Compute;

const ROLE_ENV: &str = "SKH_CRASH_ROLE";
const DIR_ENV: &str = "SKH_CRASH_DIR";
const MODE_ENV: &str = "SKH_CRASH_MODE";

const WRITER_THREADS: u64 = 3;
const KEYS_PER_THREAD: u64 = 8;

fn wal_config(mode: &str) -> WalConfig {
    WalConfig {
        flush_interval: Duration::from_millis(1),
        // Truncation mode: tiny segments force constant rotation, so the
        // kill lands inside rotation/truncation windows too.
        segment_max_bytes: if mode == "truncate" {
            2 << 10
        } else {
            32 << 20
        },
    }
}

fn open_map(dir: &Path, mode: &str) -> std::io::Result<skiphash_repro::DurableMap<u64, u64>> {
    let mut builder = DurableMapBuilder::new(dir).wal_config(wal_config(mode));
    if mode == "checkpoint" || mode == "truncate" {
        builder = builder.checkpoint_every_ops(32);
    }
    builder.open()
}

/// The child half: spin durable writers until SIGKILLed.  A plain `#[test]`
/// so the parent can select it by name; without the env activation it is
/// an immediate no-op pass.
#[test]
fn crash_child() {
    if std::env::var(ROLE_ENV).as_deref() != Ok("child") {
        return;
    }
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("child needs a directory"));
    let mode = std::env::var(MODE_ENV).expect("child needs a mode");
    let map = std::sync::Arc::new(open_map(&dir, &mode).expect("child open"));

    if mode == "checkpoint" || mode == "truncate" {
        // A dedicated checkpointer keeps a checkpoint (and, with tiny
        // segments, a truncation) perpetually in flight for the kill to
        // land inside.
        let map = std::sync::Arc::clone(&map);
        std::thread::spawn(move || loop {
            let _ = map.checkpoint();
            std::thread::sleep(Duration::from_millis(2));
        });
    }

    let mut workers = Vec::new();
    for t in 0..WRITER_THREADS {
        let map = std::sync::Arc::clone(&map);
        let ack_path = dir.join(format!("acks-{t}.txt"));
        workers.push(std::thread::spawn(move || {
            let mut acks = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&ack_path)
                .expect("child ack file");
            // A kill can land between `writeln!`'s fragment writes, leaving
            // a torn line with no newline ("16" from "16 17\n").  If the
            // next lifetime appended straight onto it, the two would merge
            // into a well-formed line with a phantom key ("1616 9").  Start
            // every lifetime by terminating whatever the last one tore, and
            // emit each ack as a single write so a tear stays on one line.
            if acks.write_all(b"\n").is_err() {
                return;
            }
            // Resume per-key counters from the recovered state: round two
            // of the campaign continues where the first kill left off.
            let keys: Vec<u64> = (t * KEYS_PER_THREAD..(t + 1) * KEYS_PER_THREAD).collect();
            let mut next: BTreeMap<u64, u64> = keys
                .iter()
                .map(|&k| (k, map.get(&k).unwrap_or(0) + 1))
                .collect();
            loop {
                for &k in &keys {
                    let v = next[&k];
                    let synced = if t == 0 {
                        // The logged read-modify-write: `compute` logs a put
                        // of the value it stores, so the oracle and the ack
                        // check hold for it unchanged.
                        let stored = map.transact(|view| {
                            view.compute(k, |cur| Compute::Put(cur.map_or(1, |c| c + 1)))
                        });
                        if stored != Some(v) {
                            // This writer owns `k`, so `compute` must have
                            // seen `v - 1`.  `run_one_round` reports the abort.
                            std::process::abort();
                        }
                        map.sync()
                    } else {
                        map.upsert_durable(k, v).map(drop)
                    };
                    if synced.is_err() {
                        return; // log poisoned; stop acking
                    }
                    // Only now — after the durability barrier — is the
                    // write acknowledged.
                    let line = format!("{k} {v}\n");
                    if acks.write_all(line.as_bytes()).is_err() || acks.sync_data().is_err() {
                        return;
                    }
                    *next.get_mut(&k).expect("owned key") = v + 1;
                }
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Read every ack file in `dir`, keeping the last acknowledged value per
/// key.  The final line may be torn by the kill; malformed lines are
/// skipped.  (A torn numeric prefix like "16 1" of "16 17\n" still parses,
/// but only weakens the dominance check — values on a key only grow, so a
/// truncated value is always a smaller, already-durable one.)
fn read_acks(dir: &Path) -> BTreeMap<u64, u64> {
    let mut acked = BTreeMap::new();
    for t in 0..WRITER_THREADS {
        let Ok(text) = std::fs::read_to_string(dir.join(format!("acks-{t}.txt"))) else {
            continue;
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            if let (Some(Ok(k)), Some(Ok(v))) = (
                parts.next().map(str::parse::<u64>),
                parts.next().map(str::parse::<u64>),
            ) {
                acked.insert(k, v);
            }
        }
    }
    acked
}

/// Independent replay oracle: re-parse the directory with the public
/// format APIs (not `recover`) and rebuild the expected entries.
fn oracle_replay(dir: &Path) -> Vec<(u64, u64)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("oracle read_dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();

    // Newest checkpoint image that validates.
    let mut state: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ckpt_version = 0u64;
    let mut ckpts: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n))
        .collect();
    ckpts.sort_unstable();
    for &at in ckpts.iter().rev() {
        let bytes =
            std::fs::read(dir.join(skiphash_repro::durability::checkpoint::checkpoint_name(at)))
                .expect("oracle checkpoint read");
        if let Some((version, entries)) = decode_checkpoint::<u64, u64>(&bytes) {
            ckpt_version = version;
            state = entries.into_iter().collect();
            break;
        }
    }

    // Surviving WAL records: segments in order.  Damage in the last
    // segment ends the scan (torn tail); damage in an earlier one is a
    // scar from an older crash — its readable prefix counts and later
    // segments (written by later process lifetimes) still apply.  This
    // mirrors the recovery contract exactly.
    let mut seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
    seqs.sort_unstable();
    let last_seq = seqs.last().copied();
    let mut records: Vec<(u64, Vec<Op<u64, u64>>)> = Vec::new();
    for &seq in &seqs {
        let bytes = std::fs::read(dir.join(skiphash_repro::durability::wal::segment_name(seq)))
            .expect("oracle segment read");
        let mut damaged = false;
        match parse_segment_header(&bytes) {
            Some((header_seq, body)) if header_seq == seq => {
                let mut frames = FrameIter::new(body);
                for payload in &mut frames {
                    match decode_record::<u64, u64>(payload) {
                        Some(record) => records.push(record),
                        None => {
                            damaged = true;
                            break;
                        }
                    }
                }
                damaged |= frames.truncated();
            }
            _ => damaged = true,
        }
        if damaged && Some(seq) == last_seq {
            break;
        }
    }
    records.sort_by_key(|(stamp, _)| *stamp);
    let mut last = ckpt_version;
    for (stamp, ops) in records {
        if stamp <= last {
            continue;
        }
        last = stamp;
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    state.insert(k, v);
                }
                Op::Remove(k) => {
                    state.remove(&k);
                }
            }
        }
    }
    state.into_iter().collect()
}

/// Forensic helper: dump a campaign directory's checkpoint + WAL records.
/// Run by hand: `SKH_DUMP_DIR=/tmp/... cargo test --test crash_recovery -- --ignored forensic_dump --nocapture`
#[test]
#[ignore]
fn forensic_dump() {
    let Ok(dir) = std::env::var("SKH_DUMP_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read_dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        if let Some(at) = parse_checkpoint_name(name) {
            match decode_checkpoint::<u64, u64>(&bytes) {
                Some((version, entries)) => {
                    let k15: Vec<_> = entries.iter().filter(|(k, _)| *k == 15).collect();
                    println!(
                        "{name}: VALID at={version} ({at}) entries={} k15={k15:?}",
                        entries.len()
                    );
                }
                None => println!("{name}: INVALID image, {} bytes", bytes.len()),
            }
        } else if let Some(seq) = parse_segment_name(name) {
            match parse_segment_header(&bytes) {
                Some((hseq, body)) => {
                    let mut frames = FrameIter::new(body);
                    let mut n = 0;
                    let mut min_s = u64::MAX;
                    let mut max_s = 0;
                    let mut k15 = Vec::new();
                    for payload in &mut frames {
                        match decode_record::<u64, u64>(payload) {
                            Some((stamp, ops)) => {
                                n += 1;
                                min_s = min_s.min(stamp);
                                max_s = max_s.max(stamp);
                                for op in &ops {
                                    if matches!(op, Op::Put(15, _) | Op::Remove(15)) {
                                        k15.push((stamp, op.clone()));
                                    }
                                }
                            }
                            None => println!("  {name}: undecodable CRC-valid frame"),
                        }
                    }
                    println!(
                        "{name}: seq={hseq} ({seq}) frames={n} stamps=[{min_s},{max_s}] torn={} k15={k15:?}",
                        frames.truncated()
                    );
                }
                None => println!("{name}: DAMAGED header, {} bytes", bytes.len()),
            }
        } else {
            println!("{name}: {} bytes", bytes.len());
        }
    }
}

fn run_one_round(dir: &Path, mode: &str, sleep_ms: u64) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "crash_child", "--test-threads=1", "--nocapture"])
        .env(ROLE_ENV, "child")
        .env(DIR_ENV, dir)
        .env(MODE_ENV, mode)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn crash child");
    std::thread::sleep(Duration::from_millis(sleep_ms));
    if let Some(status) = child.try_wait().expect("poll crash child") {
        assert!(
            status.success(),
            "crash child failed before the kill: {status}"
        );
    }
    child.kill().expect("SIGKILL child"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap child");
}

fn verify_after_kill(dir: &Path, mode: &str, cell: &str) -> (usize, u64) {
    let acked = read_acks(dir);
    let expected = oracle_replay(dir);

    // 1. Recovery accepts whatever the kill left behind.
    let map = open_map(dir, mode).unwrap_or_else(|e| panic!("{cell}: recovery must not fail: {e}"));
    let recovered: BTreeMap<u64, u64> = map.to_vec().into_iter().collect();
    let info = map.recovery_info();

    // 2. Every acknowledged write survived (possibly superseded by a
    //    later commit on the same key — values only grow).
    for (&k, &v) in &acked {
        let got = recovered
            .get(&k)
            .copied()
            .unwrap_or_else(|| panic!("{cell}: acked key {k} (value {v}) missing after recovery"));
        assert!(
            got >= v,
            "{cell}: key {k} recovered {got}, older than acknowledged {v}"
        );
    }

    // 3. The recovered map equals the independent byte-level oracle.
    let recovered_vec: Vec<(u64, u64)> = recovered.into_iter().collect();
    assert_eq!(
        recovered_vec, expected,
        "{cell}: recovered map diverges from the format oracle"
    );

    // 4. Idempotence: opening again recovers the same state.  (The first
    //    open started a fresh empty segment; replaying it is a no-op.)
    drop(map);
    let again = open_map(dir, mode)
        .unwrap_or_else(|e| panic!("{cell}: second recovery must not fail: {e}"));
    assert_eq!(
        again.to_vec(),
        recovered_vec,
        "{cell}: second recovery disagrees with the first"
    );

    (acked.len(), info.records_replayed)
}

#[test]
fn kill_campaign_recovers_every_acknowledged_commit() {
    let base = std::env::temp_dir().join(format!("skh-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut total_acked = 0usize;
    let mut total_replayed = 0u64;

    // CI's crash-recovery matrix widens coverage by running the campaign
    // once per seed set; locally the default set keeps one run short.
    let seeds: Vec<u64> = match std::env::var("SKH_CRASH_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("SKH_CRASH_SEEDS: comma-separated integers")
            })
            .collect(),
        Err(_) => vec![11, 29, 47],
    };

    for mode in ["commit", "checkpoint", "truncate"] {
        for &seed in &seeds {
            let dir = base.join(format!("{mode}-{seed}"));
            std::fs::create_dir_all(&dir).expect("campaign dir");
            // Two rounds per cell: the second child recovers the first
            // kill's directory and is then killed itself.
            for round in 0..2u64 {
                let sleep_ms = 40 + (seed * 37 + round * 53) % 140;
                run_one_round(&dir, mode, sleep_ms);
                let cell = format!("mode={mode} seed={seed} round={round}");
                let (acks, replayed) = verify_after_kill(&dir, mode, &cell);
                total_acked += acks;
                total_replayed += replayed;
            }
        }
    }

    // The campaign must have actually exercised the machinery: across all
    // kills (two per mode x seed cell), some operations were acknowledged
    // and some WAL records replayed.  (Any single cell may legitimately
    // die too early.)
    assert!(total_acked > 0, "no operation was ever acknowledged");
    assert!(total_replayed > 0, "recovery never replayed a WAL record");
    let _ = std::fs::remove_dir_all(&base);
}
