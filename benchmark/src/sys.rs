//! What the benchmark reads from the allocator and the operating system:
//! allocation counts and live heap, process CPU time, and the facts of
//! the run manifest (commit, toolchain, cores).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with counters in front: every `alloc` and
/// `realloc` in the process (generator, harness and SUT threads alike)
/// bumps [`alloc_calls`], and the bytes handed out and taken back keep
/// [`HeapMark`]'s live and peak figures.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // A plain load first: the peak moves rarely, the read-modify-write
    // would bounce its cache line on every allocation.
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's contract is passed straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Allocation calls made by the process so far.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// The heap level when a pass began; [`HeapMark::peak_above_mb`] is how
/// far above it the process's live heap rose since.
pub struct HeapMark {
    base_bytes: u64,
}

impl HeapMark {
    /// Restarts the peak at the current live heap and remembers it.
    pub fn set() -> Self {
        let base_bytes = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(base_bytes, Ordering::Relaxed);
        HeapMark { base_bytes }
    }

    pub fn peak_above_mb(&self) -> f64 {
        let peak = PEAK_BYTES.load(Ordering::Relaxed);
        peak.saturating_sub(self.base_bytes) as f64 / (1024.0 * 1024.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time consumed by every thread of the process,
/// nanoseconds (0 if the clock is unavailable).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target the benchmark supports)
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `None` when it cannot
/// run or fails (the benchmark also runs in checkouts that are not git
/// repositories).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut command = Command::new(program);
    command.args(args).current_dir(manifest_dir);
    // The checkout is this crate's parent directory; a repository found
    // further up is not this code's.
    if let Some(above_checkout) = manifest_dir.ancestors().nth(2) {
        command.env("GIT_CEILING_DIRECTORIES", above_checkout);
    }
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Some(text.lines().next().unwrap_or("").trim().to_owned())
}

/// `(commit sha, dirty flag)` of the checkout, `("unknown", false)`
/// outside a git repository.
pub fn git_state() -> (String, bool) {
    match first_line("git", &["rev-parse", "HEAD"]) {
        Some(sha) if !sha.is_empty() => {
            let changed = first_line("git", &["status", "--porcelain"]);
            (sha, changed.is_some_and(|line| !line.is_empty()))
        }
        _ => ("unknown".to_owned(), false),
    }
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned())
}
