//! A default `ReplaySession` holds its queue's bound of the stream and no
//! more: replaying a stream ten times longer neither raises the heap nor
//! makes more allocations, when the sink keeps nothing.
//!
//! The heap is read through a counting global allocator, so the tests of
//! this binary take turns (`SERIAL`): another test's allocations would
//! land in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gt_core::prelude::*;
use gt_replayer::reader::MAX_CHUNK;
use gt_replayer::{EventSink, ReplaySession, ReplaySessionConfig, ReplayerConfig};

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrank(layout.size() - new_size);
        }
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

const KIB: u64 = 1024;

/// Counts graph events and keeps nothing, batches included. The first
/// delivery waits long enough for the reader to fill the queue, so every
/// run reaches the session's whole bound (a reader behind its emitter
/// makes fewer chunks, as many as its scheduling lets it get ahead).
struct Counting(u64);

impl EventSink for Counting {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        if self.0 == 0 {
            std::thread::sleep(Duration::from_millis(200));
        }
        self.0 += u64::from(entry.is_graph());
        Ok(())
    }
}

/// A stream file of `events` vertex additions: no markers, no payloads,
/// so reading an entry allocates nothing of its own.
fn stream_file(name: &str, events: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt-session-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let text: String = (0..events).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
    std::fs::write(&path, text).unwrap();
    path
}

/// How far the heap rose, and how many allocations were made, while a
/// default session replayed `path` unpaced into a sink that keeps nothing.
fn replay(path: &Path, events: u64) -> (u64, u64) {
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1e9,
            ..ReplayerConfig::default()
        },
        ..ReplaySessionConfig::default()
    });
    let mut sink = Counting(0);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let report = session.run(path, &mut sink).unwrap();
    let rise = PEAK.load(Ordering::Relaxed) - base;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    assert_eq!((report.entries_read, sink.0), (events, events));
    (rise, allocs)
}

#[test]
fn a_default_session_holds_its_queue_and_no_more() {
    let _serial = gt_core::sync::lock(&SERIAL);
    let (small, large) = (20_000, 200_000);
    let small_path = stream_file("small.csv", small);
    let large_path = stream_file("large.csv", large);
    let (small_rise, small_allocs) = replay(&small_path, small);
    let (large_rise, large_allocs) = replay(&large_path, large);
    println!(
        "at {small} events: +{} KiB, {small_allocs} allocations; \
         at {large} events: +{} KiB, {large_allocs} allocations",
        small_rise / KIB,
        large_rise / KIB
    );

    // Every chunk the session can make at once — the queued ones, the
    // reader's and the emitter's — full of entries: the bound of what it
    // may hold of the stream.
    let buffer = ReplaySessionConfig::default().buffer;
    let chunks = (buffer / MAX_CHUNK + 2) as u64;
    let entry = std::mem::size_of::<SharedEntry>() + 16 + std::mem::size_of::<StreamEntry>();
    let queue = chunks * MAX_CHUNK as u64 * entry as u64;
    // The reader's 256 KiB read buffer, the line reader, the thread and
    // the report.
    let fixed = 320 * KIB;
    for rise in [small_rise, large_rise] {
        assert!(
            rise <= queue + fixed,
            "+{} KiB, bound {} KiB",
            rise / KIB,
            (queue + fixed) / KIB
        );
    }
    // Ten times the stream, the same rise: no more of it is held.
    let slack = 2 * MAX_CHUNK as u64 * entry as u64;
    assert!(
        large_rise <= small_rise + slack,
        "+{} KiB at {large} events against +{} KiB at {small}",
        large_rise / KIB,
        small_rise / KIB
    );
    // A chunk of fresh entries is `chunk_len` allocations and its vector
    // one; a session makes at most `depth + 2` chunks and refills them
    // after that, a short one too.
    let most = chunks * (MAX_CHUNK as u64 + 1) + 64;
    for allocs in [small_allocs, large_allocs] {
        assert!(allocs <= most, "{allocs} allocations, bound {most}");
    }
    std::fs::remove_file(small_path).ok();
    std::fs::remove_file(large_path).ok();
}
