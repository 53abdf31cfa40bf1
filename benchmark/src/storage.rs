//! The benchmark's own in-memory crash storage.
//!
//! `skiphash_durability::MemStorage` forgets nothing on a "crash": its
//! `sync` is a no-op, so every appended byte survives.  This storage
//! remembers each file's length at its last `sync` and its
//! [`CrashStorage::crash_image`] keeps only those bytes, which is what a
//! power cut leaves of a real file — killing a process would not do, the
//! operating system's cache survives that.  It also counts what the
//! durability tier asks of the device.  Only counts are reported: memory is
//! not a disk, so no device latency is claimed.
//!
//! Directory operations (create, rename, remove) are durable at once; the
//! durability tier syncs the directory after each one anyway.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use skiphash_durability::{Storage, StorageFile};

#[derive(Debug, Default)]
struct FileData {
    bytes: Vec<u8>,
    /// `bytes.len()` at the last `sync`; what a crash keeps.
    synced_len: usize,
}

/// What the durability tier asked of the device so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes appended to any file.
    pub bytes: u64,
    /// Bytes appended to write-ahead-log segments (`wal-*`).
    pub wal_bytes: u64,
    /// Bytes appended to checkpoint images (anything else but the lock).
    pub checkpoint_bytes: u64,
    /// File `sync` calls.
    pub syncs: u64,
}

impl DeviceCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    appends: AtomicU64,
    bytes: AtomicU64,
    wal_bytes: AtomicU64,
    checkpoint_bytes: AtomicU64,
    syncs: AtomicU64,
}

type Files = BTreeMap<PathBuf, Arc<Mutex<FileData>>>;

/// In-memory [`Storage`] with a sync watermark per file.  Clones share the
/// same files.
#[derive(Debug, Clone, Default)]
pub struct CrashStorage {
    files: Arc<Mutex<Files>>,
    counters: Arc<Counters>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking benchmark thread must not hide its cause behind poison.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn not_found() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "no such file")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Wal,
    Checkpoint,
    Lock,
}

fn kind_of(path: &Path) -> FileKind {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with("wal-") {
        FileKind::Wal
    } else if name == "LOCK" {
        FileKind::Lock
    } else {
        FileKind::Checkpoint
    }
}

impl CrashStorage {
    /// An empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests counted so far.
    pub fn counts(&self) -> DeviceCounts {
        let c = &self.counters;
        DeviceCounts {
            appends: c.appends.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            wal_bytes: c.wal_bytes.load(Ordering::Relaxed),
            checkpoint_bytes: c.checkpoint_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
        }
    }

    /// What a power cut right now would leave: every file cut back to its
    /// last `sync`, on a fresh device with fresh counters.  The lock file is
    /// left out — its holder died with the crash, which a reopen from the
    /// same process could not tell from its `/proc` entry.
    pub fn crash_image(&self) -> CrashStorage {
        let files = lock(&self.files);
        let image: Files = files
            .iter()
            .filter(|(path, _)| kind_of(path) != FileKind::Lock)
            .map(|(path, data)| {
                let data = lock(data);
                let kept = FileData {
                    bytes: data.bytes[..data.synced_len].to_vec(),
                    synced_len: data.synced_len,
                };
                (path.clone(), Arc::new(Mutex::new(kept)))
            })
            .collect();
        CrashStorage {
            files: Arc::new(Mutex::new(image)),
            counters: Arc::default(),
        }
    }

    fn handle(&self, path: &Path, data: Arc<Mutex<FileData>>) -> Box<dyn StorageFile> {
        Box::new(CrashFile {
            data,
            kind: kind_of(path),
            counters: Arc::clone(&self.counters),
        })
    }
}

struct CrashFile {
    data: Arc<Mutex<FileData>>,
    kind: FileKind,
    counters: Arc<Counters>,
}

impl StorageFile for CrashFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        lock(&self.data).bytes.extend_from_slice(data);
        let n = data.len() as u64;
        let c = &self.counters;
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(n, Ordering::Relaxed);
        match self.kind {
            FileKind::Wal => c.wal_bytes.fetch_add(n, Ordering::Relaxed),
            FileKind::Checkpoint => c.checkpoint_bytes.fetch_add(n, Ordering::Relaxed),
            FileKind::Lock => 0,
        };
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut data = lock(&self.data);
        data.synced_len = data.bytes.len();
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_to_vec(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        out.extend_from_slice(&lock(&self.data).bytes);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(lock(&self.data).bytes.len() as u64)
    }
}

impl Storage for CrashStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let data = Arc::new(Mutex::new(FileData::default()));
        lock(&self.files).insert(path.to_path_buf(), Arc::clone(&data));
        Ok(self.handle(path, data))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut files = lock(&self.files);
        if files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "file already exists",
            ));
        }
        let data = Arc::new(Mutex::new(FileData::default()));
        files.insert(path.to_path_buf(), Arc::clone(&data));
        drop(files);
        Ok(self.handle(path, data))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let data = lock(&self.files).get(path).cloned().ok_or_else(not_found)?;
        Ok(self.handle(path, data))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.open_append(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(lock(&self.files)
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name()?.to_str().map(str::to_owned))
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let data = files.remove(from).ok_or_else(not_found)?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(not_found)
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_image_keeps_only_synced_bytes_and_drops_the_lock() {
        let s = CrashStorage::new();
        let dir = Path::new("/d");
        let mut wal = s.create(&dir.join("wal-000000000001.log")).unwrap();
        wal.append(b"acked").unwrap();
        wal.sync().unwrap();
        wal.append(b"-lost").unwrap();
        let mut ckpt = s.create(&dir.join("checkpoint.tmp")).unwrap();
        ckpt.append(b"never synced").unwrap();
        s.create_new(&dir.join("LOCK"))
            .unwrap()
            .append(b"1\n")
            .unwrap();
        assert!(s.create_new(&dir.join("LOCK")).is_err());

        let c = s.counts();
        assert_eq!((c.appends, c.syncs), (4, 1));
        assert_eq!((c.wal_bytes, c.checkpoint_bytes, c.bytes), (10, 12, 24));

        let image = s.crash_image();
        assert_eq!(image.counts(), DeviceCounts::default());
        let mut names = image.list(dir).unwrap();
        names.sort();
        assert_eq!(names, ["checkpoint.tmp", "wal-000000000001.log"]);
        let mut out = Vec::new();
        image
            .open_read(&dir.join("wal-000000000001.log"))
            .unwrap()
            .read_to_vec(&mut out)
            .unwrap();
        assert_eq!(out, b"acked");
        assert_eq!(
            image
                .open_read(&dir.join("checkpoint.tmp"))
                .unwrap()
                .len()
                .unwrap(),
            0
        );
        // The image is a copy: the crashed device keeps its unsynced tail.
        assert_eq!(wal.len().unwrap(), 10);
    }

    #[test]
    fn rename_and_remove_move_the_same_file() {
        let s = CrashStorage::new();
        let (a, b) = (Path::new("/d/a"), Path::new("/d/b"));
        let mut f = s.create(a).unwrap();
        f.append(b"x").unwrap();
        s.rename(a, b).unwrap();
        assert!(s.open_read(a).is_err());
        f.append(b"y").unwrap();
        assert_eq!(s.open_read(b).unwrap().len().unwrap(), 2);
        s.remove(b).unwrap();
        assert!(s.remove(b).is_err());
    }
}
