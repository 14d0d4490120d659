//! The routing pass end to end: a stream file routed to load clients
//! over TCP neither hangs when a client dies nor holds more of the stream
//! than its bounded queues.
//!
//! The heap is read through a counting global allocator, so the tests of
//! this binary take turns (`SERIAL`): another test's allocations would
//! land in the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gt_core::prelude::*;
use gt_load::{run_load, ConnectorFactory, LoadOutcome, LoadPlan, LoopModel};
use gt_metrics::{Clock, WallClock};
use gt_netem::{NetemPlan, NetemSchedule};
use gt_replayer::reader::DEFAULT_BUFFER;
use gt_replayer::EventSink;

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
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

const MIB: u64 = 1024 * 1024;

/// A connector counting graph events and logging markers, shared by all
/// connections.
struct Counting {
    events: Arc<AtomicU64>,
    markers: Arc<Mutex<Vec<String>>>,
}

impl EventSink for Counting {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        match entry {
            StreamEntry::Graph(_) => {
                self.events.fetch_add(1, Ordering::Relaxed);
            }
            StreamEntry::Marker(name) => self.markers.lock().unwrap().push(name.clone()),
            StreamEntry::Control(_) => {}
        }
        Ok(())
    }
}

fn counting(events: &Arc<AtomicU64>, markers: &Arc<Mutex<Vec<String>>>) -> ConnectorFactory {
    let (events, markers) = (Arc::clone(events), Arc::clone(markers));
    Box::new(move || {
        Ok(Box::new(Counting {
            events: Arc::clone(&events),
            markers: Arc::clone(&markers),
        }) as Box<dyn EventSink + Send>)
    })
}

/// A stream file of `events` vertex additions, with marker `m<i>` before
/// event `i` for every `i` a multiple of `marker_every`.
fn stream_file(name: &str, events: u64, marker_every: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt-load-feed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut text = String::new();
    for i in 0..events {
        if i % marker_every == 0 {
            text.push_str(&format!("MARKER,m{i},\n"));
        }
        text.push_str(&format!("ADD_VERTEX,{i},\n"));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn run(path: &Path, plan: &LoadPlan) -> (LoadOutcome, u64, Vec<String>) {
    let (events, markers) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(Mutex::new(Vec::new())),
    );
    let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
    let outcome = run_load(path, plan, counting(&events, &markers), clock).unwrap();
    let markers = markers.lock().unwrap().clone();
    (outcome, events.load(Ordering::Relaxed), markers)
}

#[test]
fn a_client_killed_at_the_start_leaves_the_rest_of_the_run_whole() {
    let _serial = gt_core::sync::lock(&SERIAL);
    let path = stream_file("killed.csv", 100_000, 1_000);
    // About a second of traffic; the kill lands in its first tenth.
    let netem = NetemPlan::new(NetemSchedule::parse("kill@100ms,mode=rst,conns=0", 3).unwrap());
    let plan = LoadPlan::single(4, 100_000.0, LoopModel::Open, 11).with_netem(netem);
    let (outcome, delivered, markers) = run(&path, &plan);

    assert_eq!(outcome.clients.len(), 3);
    assert_eq!(
        outcome.client_failures.len(),
        1,
        "{:?}",
        outcome.client_failures
    );
    assert_eq!(outcome.netem.as_ref().unwrap().kills_rst, 1);
    let want: Vec<String> = (0..100).map(|i| format!("m{}", i * 1_000)).collect();
    assert_eq!(markers, want, "every marker once, in order");
    assert_eq!(outcome.listener.marker_violations, 0);
    // The three survivors deliver all of their own events.
    let survivors: u64 = outcome.clients.iter().map(|c| c.sent).sum();
    assert!(delivered >= survivors, "{delivered} < {survivors}");
    assert!(survivors > 0);
    std::fs::remove_file(path).ok();
}

/// How far the heap rose while `path` was routed to two unpaced clients,
/// and the bytes the client reports hold at the end (schedule and sojourn
/// vectors, 24 B per event and their slack).
fn heap_peak(path: &Path, events: u64) -> (u64, u64) {
    let plan = LoadPlan::single(2, 1e9, LoopModel::Open, 7);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (outcome, delivered, _) = run(path, &plan);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(delivered, events);
    let reports = outcome
        .clients
        .iter()
        .map(|c| (c.schedule_micros.capacity() * 8 + c.sojourn.capacity() * 16) as u64)
        .sum();
    (peak, reports)
}

/// The most the routing pass's queues hold of a stream of `entries`.
fn queued_bytes(entries: u64) -> u64 {
    entries.min(DEFAULT_BUFFER as u64) * std::mem::size_of::<StreamEntry>() as u64
}

#[test]
fn the_heap_grows_with_the_stream_only_by_the_client_reports() {
    let _serial = gt_core::sync::lock(&SERIAL);
    let (small, large) = (20_000, 200_000);
    let small_path = stream_file("small.csv", small, 10_000);
    let large_path = stream_file("large.csv", large, 10_000);
    let (small_peak, small_reports) = heap_peak(&small_path, small);
    let (large_peak, large_reports) = heap_peak(&large_path, large);
    let mib = |bytes: u64| bytes as f64 / MIB as f64;
    println!(
        "heap peak at {small} events {:.2} MiB (reports {:.2}), at {large} events {:.2} MiB (reports {:.2})",
        mib(small_peak),
        mib(small_reports),
        mib(large_peak),
        mib(large_reports),
    );
    // Besides the reports, a run holds at most its queues' bound of the
    // stream (the front that read the stream whole and split it held
    // 96 B per entry: 18 MiB here).
    assert!(
        large_peak <= large_reports + queued_bytes(large) + MIB,
        "{:.2} MiB above the reports",
        mib(large_peak - large_reports)
    );
    // So from 20 000 to 200 000 events the peak grows by the reports and
    // by the part of the bound a 20 000-entry stream cannot fill.
    let growth = large_reports - small_reports + queued_bytes(large) - queued_bytes(small);
    assert!(
        large_peak <= small_peak + growth + MIB,
        "grew {:.2} MiB, reports and queues {:.2} MiB",
        mib(large_peak - small_peak),
        mib(growth)
    );
    std::fs::remove_file(small_path).ok();
    std::fs::remove_file(large_path).ok();
}
