//! The pluggable byte-storage abstraction the journal appends through.
//!
//! A [`Storage`] is an append-mostly byte sequence with an explicit
//! durability barrier: [`Storage::append`] makes bytes *visible* (a
//! subsequent read sees them) but not *durable*; only a returned
//! [`Storage::sync`] promises they survive a crash. [`MemStorage`]
//! models that distinction literally with separate durable and volatile
//! buffers plus a [`MemStorage::crash`] that drops the volatile part —
//! which is what lets the fault-injection suite state crash outcomes
//! exactly. [`FileStorage`] maps the same contract onto a real file
//! (`sync` → fsync, `replace` → temp-file + atomic rename).

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Errors from a storage backend, plus the journal's refusal to write
/// an oversized record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A real I/O failure (message-carrying; `io::Error` values are
    /// neither `Clone` nor comparable).
    Io(String),
    /// A scheduled fault fired: the `call`-th invocation of `op` on a
    /// [`crate::fault::FaultyStorage`] failed by plan.
    Injected {
        /// Which operation failed (`"append"`, `"sync"`, `"replace"`).
        op: &'static str,
        /// 0-based per-operation call index that matched the schedule.
        call: usize,
    },
    /// A scheduled short write: only `written` of `requested` bytes of
    /// the `call`-th append were persisted before the failure.
    ShortWrite {
        /// 0-based append call index.
        call: usize,
        /// Bytes that made it into storage.
        written: usize,
        /// Bytes the caller asked for.
        requested: usize,
    },
    /// A journal record payload longer than
    /// [`MAX_RECORD_LEN`](crate::record::MAX_RECORD_LEN) was refused
    /// before any of its bytes reached storage.
    RecordTooLarge {
        /// The refused payload's length in bytes.
        len: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StoreError::Injected { op, call } => {
                write!(f, "injected fault: {op} call #{call} failed by schedule")
            }
            StoreError::ShortWrite {
                call,
                written,
                requested,
            } => write!(
                f,
                "injected short write: append #{call} persisted {written}/{requested} bytes"
            ),
            StoreError::RecordTooLarge { len } => write!(
                f,
                "journal record of {len} bytes exceeds the {} byte bound; nothing written",
                crate::record::MAX_RECORD_LEN
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Append-mostly byte storage with an explicit durability barrier.
///
/// Contract: after [`Storage::sync`] returns `Ok`, every byte appended
/// before the call survives a crash. Bytes appended after the last
/// successful `sync` may or may not survive — a recovery reader must
/// treat them as a possibly-torn tail. [`Storage::replace`] is atomic
/// *and* durable: after it returns `Ok` the content is exactly `bytes`;
/// after a crash anywhere around it, the content is either the old or
/// the new bytes, never a mixture.
pub trait Storage {
    /// Total visible length in bytes (durable + not-yet-synced).
    fn len(&self) -> u64;

    /// `true` when nothing has ever been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the entire visible content into `out` (replacing it).
    fn read_all(&mut self, out: &mut Vec<u8>) -> Result<(), StoreError>;

    /// Appends bytes at the end (visible immediately, durable at the
    /// next successful [`Storage::sync`]).
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Durability barrier: flushes every appended byte to stable
    /// storage.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Truncates to `len` bytes, durably (recovery uses this to cut a
    /// torn tail; the cut must not resurrect).
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;

    /// Atomically and durably replaces the whole content (the
    /// checkpoint primitive — see the trait docs for the crash
    /// guarantee).
    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
}

/// In-memory storage with an explicit durable/volatile split.
///
/// `append` lands in the volatile buffer; `sync` moves the volatile
/// buffer into the durable one; [`MemStorage::crash`] returns what a
/// machine crash would leave behind — the durable prefix only. This is
/// the reference model the durability contract is tested against.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Storage whose durable content is `bytes` (for reconstructing a
    /// post-crash state from raw bytes in tests and tools).
    pub fn from_bytes(bytes: Vec<u8>) -> MemStorage {
        MemStorage {
            durable: bytes,
            volatile: Vec::new(),
        }
    }

    /// The storage a crash would leave behind: the durable prefix, with
    /// every unsynced append gone.
    pub fn crash(&self) -> MemStorage {
        MemStorage {
            durable: self.durable.clone(),
            volatile: Vec::new(),
        }
    }

    /// Bytes currently guaranteed to survive a crash.
    pub fn durable_len(&self) -> u64 {
        self.durable.len() as u64
    }
}

impl Storage for MemStorage {
    fn len(&self) -> u64 {
        (self.durable.len() + self.volatile.len()) as u64
    }

    fn read_all(&mut self, out: &mut Vec<u8>) -> Result<(), StoreError> {
        out.clear();
        out.extend_from_slice(&self.durable);
        out.extend_from_slice(&self.volatile);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.volatile.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.durable.append(&mut self.volatile);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        let len = len as usize;
        if len <= self.durable.len() {
            self.durable.truncate(len);
            self.volatile.clear();
        } else {
            self.volatile.truncate(len - self.durable.len());
            // a truncate is durable: what remains must survive a crash
            self.durable.append(&mut self.volatile);
        }
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.durable = bytes.to_vec();
        self.volatile.clear();
        Ok(())
    }
}

/// File-backed storage. `sync` is `File::sync_all`; `replace` writes a
/// sibling temp file, syncs it, and renames it over the original —
/// atomic on POSIX filesystems.
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
}

impl FileStorage {
    /// Opens (creating if absent) the journal file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileStorage, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(FileStorage { file, path, len })
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Storage for FileStorage {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_all(&mut self, out: &mut Vec<u8>) -> Result<(), StoreError> {
        out.clear();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(out)?;
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        self.len = len;
        self.file.sync_all()?;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("journal.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // reopen: the renamed file is the storage now
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        file.sync_all()?;
        self.file = file;
        self.len = bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_separates_durable_from_volatile() {
        let mut s = MemStorage::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.len(), 3, "appends are visible");
        assert_eq!(s.durable_len(), 0, "but not durable before sync");
        assert_eq!(s.crash().len(), 0, "a crash drops unsynced appends");
        s.sync().unwrap();
        s.append(b"de").unwrap();
        let crashed = s.crash();
        assert_eq!(crashed.durable.as_slice(), b"abc");
        let mut all = Vec::new();
        s.read_all(&mut all).unwrap();
        assert_eq!(all.as_slice(), b"abcde", "reads see volatile bytes");
    }

    #[test]
    fn mem_truncate_cuts_both_regions() {
        let mut s = MemStorage::new();
        s.append(b"abcdef").unwrap();
        s.sync().unwrap();
        s.append(b"ghi").unwrap();
        s.truncate(7).unwrap();
        let mut all = Vec::new();
        s.read_all(&mut all).unwrap();
        assert_eq!(all.as_slice(), b"abcdefg");
        assert_eq!(
            s.crash().durable.as_slice(),
            b"abcdefg",
            "truncate is durable"
        );
        s.truncate(2).unwrap();
        assert_eq!(s.crash().durable.as_slice(), b"ab");
    }

    #[test]
    fn mem_replace_is_total() {
        let mut s = MemStorage::new();
        s.append(b"old").unwrap();
        s.sync().unwrap();
        s.append(b"tail").unwrap();
        s.replace(b"new-content").unwrap();
        assert_eq!(s.crash().durable.as_slice(), b"new-content");
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fdi-store-test-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileStorage::open(&path).unwrap();
            assert!(s.is_empty());
            s.append(b"hello ").unwrap();
            s.append(b"world").unwrap();
            s.sync().unwrap();
            assert_eq!(s.len(), 11);
        }
        {
            // reopen: content persisted
            let mut s = FileStorage::open(&path).unwrap();
            assert_eq!(s.len(), 11);
            let mut all = Vec::new();
            s.read_all(&mut all).unwrap();
            assert_eq!(all.as_slice(), b"hello world");
            s.truncate(5).unwrap();
            s.append(b"!").unwrap();
            s.read_all(&mut all).unwrap();
            assert_eq!(all.as_slice(), b"hello!");
            s.replace(b"fresh").unwrap();
            s.read_all(&mut all).unwrap();
            assert_eq!(all.as_slice(), b"fresh");
            assert_eq!(s.len(), 5);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
