//! A persistent key/value store in ~60 lines: the durability tier end to
//! end — logged commits, a durable acknowledgment, a checkpoint, and a
//! simulated restart that recovers everything.
//!
//! ```console
//! $ cargo run --release --example persistent_kv
//! ```
//!
//! The store lives in a temporary directory; run it twice with
//! `PERSISTENT_KV_DIR=/some/path` to watch state survive a real process
//! boundary.

use skiphash_repro::durability::DurableMapBuilder;
use skiphash_repro::Compute;

fn store_dir() -> std::path::PathBuf {
    std::env::var_os("PERSISTENT_KV_DIR")
        .map(Into::into)
        .unwrap_or_else(|| std::env::temp_dir().join("skiphash-persistent-kv"))
}

fn main() -> std::io::Result<()> {
    let dir = store_dir();
    println!("store directory: {}", dir.display());

    // -- First lifetime: write, acknowledge, checkpoint ------------------
    {
        let map = DurableMapBuilder::new(&dir)
            .checkpoint_every_ops(10_000) // opportunistic background checkpoints
            .open::<u64, u64>()?;
        let info = map.recovery_info();
        println!(
            "opened: {} entries recovered (checkpoint v{}, {} WAL records, torn tail: {})",
            map.len(),
            info.checkpoint_version,
            info.records_replayed,
            info.truncated_tail,
        );

        // Sealed single ops log their commit records asynchronously: the
        // group-commit writer batches them into one fsync.
        for key in 0..100u64 {
            map.upsert(key, key * key);
        }

        // A composed transaction becomes ONE commit record: after a crash
        // either all three ops replay or none do.  The body is the ordinary
        // `TxView`, so a read-modify-write like `compute` is logged too.
        map.transact(|view| {
            let moved = view.take(&7)?.unwrap_or(0);
            view.upsert(1007, moved)?;
            view.compute(0, |cur| Compute::Put(cur.map_or(1, |c| c + 1)))
        });

        // The durable variant returns only after the record is fsynced —
        // this is the write a caller may acknowledge to *its* clients.
        map.upsert_durable(42, 4242)?;
        println!("acknowledged key 42 durably; {} entries live", map.len());

        // A checkpoint bounds replay: it snapshots the map at one pinned
        // version, writes the image atomically, and truncates every WAL
        // segment the image covers.
        let at = map.checkpoint()?;
        println!("checkpoint written at version {at}");

        map.upsert(43, 4343); // lands in the WAL suffix after the checkpoint
        map.sync()?; // barrier: everything above is now on stable storage
    } // drop = clean shutdown (an abrupt kill would recover identically)

    // -- Second lifetime: recover and verify -----------------------------
    let map = DurableMapBuilder::new(&dir).open::<u64, u64>()?;
    let info = map.recovery_info();
    println!(
        "reopened: {} entries (checkpoint v{}, {} WAL records replayed on top)",
        map.len(),
        info.checkpoint_version,
        info.records_replayed,
    );
    assert_eq!(
        map.get(&42),
        Some(4242),
        "durably acknowledged write survived"
    );
    assert_eq!(map.get(&43), Some(4343), "post-checkpoint write survived");
    assert_eq!(map.get(&7), None, "the composed transaction replayed whole");
    assert_eq!(map.get(&1007), Some(49), "...including the moved value");
    assert_eq!(map.get(&0), Some(1), "...and the logged read-modify-write");
    println!("all recovery invariants hold");
    Ok(())
}
