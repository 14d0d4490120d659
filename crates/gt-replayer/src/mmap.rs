//! Memory-mapped stream file source.
//!
//! For multi-GB replays the buffered reader's copy-into-a-line-buffer step
//! is measurable. This module maps the stream file read-only into the
//! address space instead and runs the reader body of [`crate::reader`]
//! over the mapping: lines are validated and parsed one at a time as
//! borrowed slices of it (so replay starts with the first page, not after
//! a pass over the file), and the only per-event heap traffic left is the
//! owned conversion at the channel boundary ([`SharedEntry`]) — the same
//! boundary the buffered path uses, so downstream consumers cannot tell
//! the sources apart.
//!
//! The mapping is done with a direct `mmap(2)` FFI call (std already links
//! libc on unix; no new dependency). On non-unix targets, or if the map
//! fails (e.g. an empty file or an exotic filesystem), [`MmapFile::open`]
//! transparently falls back to reading the file into memory — callers get
//! the same `&[u8]` view either way.

use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use gt_core::prelude::*;

use crate::reader::{read_entries, spawn_reader, EntryReceiver};

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

enum Backing {
    /// A live `mmap(2)` mapping, unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Map {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    /// Fallback: the whole file read into memory.
    Buf(Vec<u8>),
}

// The mapping is read-only for its whole lifetime, so sharing the raw
// pointer across threads is safe.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// A read-only view of a whole stream file, memory-mapped where possible.
pub struct MmapFile {
    backing: Backing,
}

impl MmapFile {
    /// Opens `path` and maps it read-only. Falls back to a buffered read
    /// of the whole file when mapping is unavailable (non-unix targets,
    /// empty files, filesystems that refuse `mmap`).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len > 0 {
                // SAFETY: a fresh private read-only mapping of `len` bytes
                // over a file descriptor we own; no aliasing writes exist
                // and the pointer is checked against MAP_FAILED below.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr != usize::MAX as *mut std::ffi::c_void {
                    return Ok(MmapFile {
                        backing: Backing::Map { ptr, len },
                    });
                }
                // Map refused — fall through to the buffered read.
            }
        }
        Ok(MmapFile {
            backing: Backing::Buf(std::fs::read(path)?),
        })
    }

    /// The file contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map { ptr, len } => {
                // SAFETY: the mapping stays valid and read-only until drop.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Buf(buf) => buf,
        }
    }

    /// Whether the contents are served by a live memory mapping (false on
    /// the buffered fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map { .. } => true,
            Backing::Buf(_) => false,
        }
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Map { ptr, len } = self.backing {
            // SAFETY: unmapping the exact region mapped in `open`.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

/// Spawns a reader thread over a memory-mapped stream file: the mmap'd
/// twin of [`crate::reader::spawn_file_reader`], running the same reader
/// body over the mapping — same receiver, same chunked hand-off, lines
/// validated and parsed one at a time as the pages are touched, thread
/// ends at EOF, on the first bad line, or when the receiver hangs up.
pub fn spawn_mmap_reader(
    path: impl Into<PathBuf>,
    buffer: usize,
) -> (EntryReceiver, JoinHandle<Result<u64, CoreError>>) {
    let path = path.into();
    spawn_reader("gt-mmap-reader", buffer, move |tx| {
        let map = MmapFile::open(&path)?;
        // A byte slice is its own `BufRead`: one buffer, the whole file.
        read_entries(map.as_bytes(), tx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_stream_file(content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gt-replayer-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stream-{:x}.csv", {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            content.hash(&mut h);
            h.finish()
        }));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn maps_and_reads_all_entries() {
        let path = temp_stream_file("ADD_VERTEX,1,\n# note\nADD_EDGE,1-2,w\nMARKER,end,\n");
        let (rx, handle) = spawn_mmap_reader(&path, 16);
        let entries: Vec<SharedEntry> = rx.iter().collect();
        assert_eq!(entries.len(), 3);
        assert!(entries[2].is_marker());
        assert_eq!(handle.join().unwrap().unwrap(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_yields_no_entries() {
        let path = temp_stream_file("");
        let (rx, handle) = spawn_mmap_reader(&path, 4);
        assert!(rx.iter().next().is_none());
        assert_eq!(handle.join().unwrap().unwrap(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let path = temp_stream_file("ADD_VERTEX,1,\nGARBAGE\n");
        let (rx, handle) = spawn_mmap_reader(&path, 4);
        let entries: Vec<SharedEntry> = rx.iter().collect();
        assert_eq!(entries.len(), 1);
        let err = handle.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "got: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let (rx, handle) = spawn_mmap_reader("/nonexistent/gt-stream.csv", 4);
        assert!(rx.iter().next().is_none());
        assert!(handle.join().unwrap().is_err());
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn nonempty_files_actually_map() {
        let path = temp_stream_file("ADD_VERTEX,1,\n");
        let map = MmapFile::open(&path).unwrap();
        assert!(map.is_mapped());
        assert_eq!(map.as_bytes(), b"ADD_VERTEX,1,\n");
        std::fs::remove_file(path).ok();
    }

    /// The two sources must be indistinguishable downstream: byte-for-byte
    /// identical entry sequences over the same file.
    #[test]
    fn mmap_and_buffered_sources_agree() {
        let content: String = (0..500)
            .map(|i| {
                if i % 100 == 99 {
                    format!("MARKER,w-{i},\n")
                } else {
                    format!("ADD_VERTEX,{i},state={i}\n")
                }
            })
            .collect();
        let path = temp_stream_file(&content);
        let (mmap_rx, mmap_handle) = spawn_mmap_reader(&path, 64);
        let (file_rx, file_handle) = crate::reader::spawn_file_reader(&path, 64);
        let via_mmap: Vec<SharedEntry> = mmap_rx.iter().collect();
        let via_file: Vec<SharedEntry> = file_rx.iter().collect();
        assert_eq!(via_mmap.len(), via_file.len());
        for (a, b) in via_mmap.iter().zip(&via_file) {
            assert_eq!(**a, **b);
        }
        assert_eq!(
            mmap_handle.join().unwrap().unwrap(),
            file_handle.join().unwrap().unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    /// ... including on a file that goes bad: both deliver the valid
    /// prefix, then report the error.
    #[test]
    fn invalid_utf8_in_the_last_line_ends_both_sources_alike() {
        let mut content: Vec<u8> = (0..1_000)
            .flat_map(|i| format!("ADD_VERTEX,{i},state={i}\n").into_bytes())
            .collect();
        content.extend_from_slice(b"ADD_VERTEX,1000,\xff\xfe\n");
        let dir = std::env::temp_dir().join("gt-replayer-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-last-line.csv");
        std::fs::write(&path, &content).unwrap();

        let (mmap_rx, mmap_handle) = spawn_mmap_reader(&path, 64);
        let (file_rx, file_handle) = crate::reader::spawn_file_reader(&path, 64);
        let via_mmap: Vec<SharedEntry> = mmap_rx.iter().collect();
        let via_file: Vec<SharedEntry> = file_rx.iter().collect();
        assert_eq!(via_mmap.len(), 1_000);
        assert_eq!(via_mmap, via_file);
        let mmap_err = mmap_handle.join().unwrap().unwrap_err();
        assert!(file_handle.join().unwrap().is_err());
        assert!(
            mmap_err.to_string().contains("line 1001"),
            "got: {mmap_err}"
        );
        std::fs::remove_file(path).ok();
    }
}
