//! Injectable `/proc` readers.
//!
//! The sampler never touches the filesystem directly — it reads through a
//! [`ProcSource`], so the whole derivation pipeline is testable without a
//! live `/proc` (and CI stays green on non-Linux hosts, where the live
//! source simply errors and the monitor degrades to an empty series).

use std::io;

/// The four `/proc` files the Level-0 monitor reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcFile {
    /// `/proc/<pid>/stat` — scheduler stats, one line.
    PidStat,
    /// `/proc/<pid>/status` — key-value process status.
    PidStatus,
    /// `/proc/<pid>/io` — I/O accounting.
    PidIo,
    /// `/proc/stat` — host-wide CPU accounting.
    HostStat,
}

/// A source of raw `/proc` file contents.
pub trait ProcSource: Send {
    /// Reads the current contents of `file`.
    fn read(&self, file: ProcFile) -> io::Result<String>;

    /// Short label for error messages (e.g. `pid 4242`, `self`).
    fn describe(&self) -> String;
}

/// The live `/proc` filesystem, watching either the current process or an
/// external pid (the black-box system under test).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveProc {
    pid: Option<u32>,
}

impl LiveProc {
    /// Watches the current process via `/proc/self`.
    pub(crate) fn current() -> Self {
        LiveProc { pid: None }
    }

    /// Watches an external process by pid.
    pub(crate) fn pid(pid: u32) -> Self {
        LiveProc { pid: Some(pid) }
    }

    fn path(&self, file: ProcFile) -> String {
        let base = match self.pid {
            Some(pid) => format!("/proc/{pid}"),
            None => "/proc/self".to_owned(),
        };
        match file {
            ProcFile::PidStat => format!("{base}/stat"),
            ProcFile::PidStatus => format!("{base}/status"),
            ProcFile::PidIo => format!("{base}/io"),
            ProcFile::HostStat => "/proc/stat".to_owned(),
        }
    }
}

impl ProcSource for LiveProc {
    fn read(&self, file: ProcFile) -> io::Result<String> {
        std::fs::read_to_string(self.path(file))
    }

    fn describe(&self) -> String {
        match self.pid {
            Some(pid) => format!("pid {pid}"),
            None => "self".to_owned(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// An in-memory `/proc` for tests and simulations. Cloning shares the
    /// underlying files, so a test can update counters while a sampler holds
    /// the other handle — exactly how the live `/proc` behaves.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct FakeProc {
        files: Arc<Mutex<HashMap<ProcFile, String>>>,
    }

    impl FakeProc {
        /// An empty fake: every read fails with `NotFound` until `set`.
        pub(crate) fn new() -> Self {
            Self::default()
        }

        /// Sets (or replaces) the contents of one file.
        pub(crate) fn set(&self, file: ProcFile, contents: impl Into<String>) {
            self.files
                .lock()
                .expect("fake proc poisoned")
                .insert(file, contents.into());
        }

        /// Removes a file, making subsequent reads fail (e.g. to simulate a
        /// pid exiting mid-run or a permission-restricted `io` file).
        pub(crate) fn remove(&self, file: ProcFile) {
            self.files.lock().expect("fake proc poisoned").remove(&file);
        }
    }

    impl ProcSource for FakeProc {
        fn read(&self, file: ProcFile) -> io::Result<String> {
            self.files
                .lock()
                .expect("fake proc poisoned")
                .get(&file)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{file:?} not set")))
        }

        fn describe(&self) -> String {
            "fake".to_owned()
        }
    }

    #[test]
    fn live_paths() {
        let own = LiveProc::current();
        assert_eq!(own.path(ProcFile::PidStat), "/proc/self/stat");
        assert_eq!(own.path(ProcFile::HostStat), "/proc/stat");
        assert_eq!(own.describe(), "self");
        let ext = LiveProc::pid(4242);
        assert_eq!(ext.path(ProcFile::PidIo), "/proc/4242/io");
        assert_eq!(ext.path(ProcFile::PidStatus), "/proc/4242/status");
        assert_eq!(ext.describe(), "pid 4242");
    }

    #[test]
    fn fake_is_shared_and_updatable() {
        let fake = FakeProc::new();
        assert!(fake.read(ProcFile::PidStat).is_err());
        let clone = fake.clone();
        fake.set(ProcFile::PidStat, "a");
        assert_eq!(clone.read(ProcFile::PidStat).unwrap(), "a");
        clone.set(ProcFile::PidStat, "b");
        assert_eq!(fake.read(ProcFile::PidStat).unwrap(), "b");
        fake.remove(ProcFile::PidStat);
        assert!(clone.read(ProcFile::PidStat).is_err());
    }

    #[test]
    fn live_self_reads_on_linux() {
        // Only meaningful where /proc exists; elsewhere the error path is
        // the graceful-degradation contract.
        let live = LiveProc::current();
        if let Ok(stat) = live.read(ProcFile::PidStat) {
            assert!(stat.contains('('), "stat line has a comm field");
        }
    }
}
