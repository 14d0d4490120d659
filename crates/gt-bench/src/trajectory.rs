//! Persistent performance trajectory for the hot paths.
//!
//! `gt-bench trajectory` measures the paths this repo keeps
//! re-optimising — §4.2 CSV parsing, graph-event ingest and the load
//! client — and writes the results to `BENCH_parse.json` /
//! `BENCH_ingest.json` / `BENCH_load.json` at the repo root. The files
//! are committed, so every PR that touches a hot path leaves a measured
//! before/after trail instead of a claim in prose.
//!
//! Each run prints a delta against the previous committed numbers; with
//! `--check` a >15% median-ns/event regression in any suite fails the
//! run (allocation counters only warn — they are exact, but machine-
//! independent thresholds for them are not meaningful).
//!
//! The JSON is written and read back through `gt_core::json`: one suite
//! per line, fixed key order, flat numeric fields. See [`BenchRecord`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gt_core::json::{extract_num, extract_str, quote, ObjectWriter};

/// A global allocator wrapper that counts allocations, for measuring the
/// allocation rate of the hot paths. Install it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: gt_bench::trajectory::CountingAlloc = CountingAlloc;
/// ```
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

/// Allocations observed so far in this process (0 until a binary installs
/// [`CountingAlloc`] as its `#[global_allocator]`).
pub(crate) fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// One measured suite: the unit every `BENCH_*.json` line stores.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Suite name, e.g. `parse/borrowed`.
    pub name: String,
    /// Median over rounds of (wall ns / events).
    pub median_ns_per_event: f64,
    /// Throughput implied by the median round.
    pub events_per_sec: f64,
    /// Median over rounds of (allocations / events). Exact when the
    /// counting allocator is installed, 0 otherwise.
    pub allocs_per_event: f64,
    /// Events per round.
    pub events: u64,
    /// Measurement rounds taken.
    pub rounds: u32,
}

/// Measures `f` over `rounds` repetitions of `events` events and reduces
/// to medians. `f` must perform exactly `events` events per call.
pub fn measure(name: &str, events: u64, rounds: u32, mut f: impl FnMut()) -> BenchRecord {
    assert!(events > 0 && rounds > 0);
    // One warm-up round outside the sample set (page faults, lazy init).
    f();
    let mut ns: Vec<f64> = Vec::with_capacity(rounds as usize);
    let mut allocs: Vec<f64> = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let a0 = alloc_count();
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_nanos() as f64;
        let da = (alloc_count() - a0) as f64;
        ns.push(dt / events as f64);
        allocs.push(da / events as f64);
    }
    let median_ns = median(&mut ns);
    BenchRecord {
        name: name.to_owned(),
        median_ns_per_event: median_ns,
        events_per_sec: if median_ns > 0.0 {
            1e9 / median_ns
        } else {
            0.0
        },
        allocs_per_event: median(&mut allocs),
        events,
        rounds,
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Serializes one trajectory area (`parse`, `ingest`, `load`) to the
/// committed JSON format: one suite object per line, fixed key order.
///
/// Panics if the area or a suite name holds `"` or `\`
/// ([`gt_core::json::quote`]).
pub fn to_json(area: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let area = quote(area).expect("area names hold no quote or backslash");
    let _ = writeln!(out, "  \"area\": {area},");
    let _ = writeln!(out, "  \"suites\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let (ns, rate, allocs) = (r.median_ns_per_event, r.events_per_sec, r.allocs_per_event);
        let suite = ObjectWriter::new(true)
            .str("name", &r.name)
            .num("median_ns_per_event", format!("{ns:.2}"))
            .num("events_per_sec", format!("{rate:.0}"))
            .num("allocs_per_event", format!("{allocs:.3}"))
            .num("events", r.events)
            .num("rounds", r.rounds)
            .finish()
            .expect("suite names hold no quote or backslash");
        let _ = writeln!(out, "    {suite}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parses the format written by [`to_json`], one suite per line, through
/// the shared flat-JSON field reader ([`gt_core::json`]).
pub fn from_json(text: &str) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for line in text.lines() {
        let Ok(name) = extract_str(line, "name") else {
            continue;
        };
        records.push(BenchRecord {
            name: name.to_owned(),
            median_ns_per_event: extract_num(line, "median_ns_per_event").unwrap_or(0.0),
            events_per_sec: extract_num(line, "events_per_sec").unwrap_or(0.0),
            allocs_per_event: extract_num(line, "allocs_per_event").unwrap_or(0.0),
            events: extract_num(line, "events").unwrap_or(0),
            rounds: extract_num(line, "rounds").unwrap_or(0),
        });
    }
    records
}

/// Outcome of comparing a fresh run against the committed numbers.
#[derive(Debug, Default)]
pub struct Delta {
    /// Suites whose median ns/event regressed beyond the threshold:
    /// `(name, old_ns, new_ns)`.
    pub regressions: Vec<(String, f64, f64)>,
    /// Suites whose allocation counter grew: `(name, old, new)`.
    pub alloc_warnings: Vec<(String, f64, f64)>,
}

/// Allowed median-ns/event growth before [`compare`] flags a regression.
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// Compares fresh records against previously committed ones, printing a
/// per-suite delta line and collecting regressions beyond
/// [`REGRESSION_THRESHOLD`] plus any allocation-counter growth (both
/// fail `gt-bench --check`).
pub fn compare(previous: &[BenchRecord], fresh: &[BenchRecord]) -> Delta {
    let mut delta = Delta::default();
    for new in fresh {
        let Some(old) = previous.iter().find(|r| r.name == new.name) else {
            println!(
                "  {:<28} {:>9.1} ns/event  {:>12.0} events/s  {:>7.3} allocs/event  (new suite)",
                new.name, new.median_ns_per_event, new.events_per_sec, new.allocs_per_event
            );
            continue;
        };
        if old.events != new.events {
            // Per-event medians are only comparable at equal scale — a
            // changed event count resets the baseline rather than gating.
            println!(
                "  {:<28} {:>9.1} ns/event  {:>12.0} events/s  {:>7.3} allocs/event  (scale changed, baseline reset)",
                new.name, new.median_ns_per_event, new.events_per_sec, new.allocs_per_event
            );
            continue;
        }
        let pct = if old.median_ns_per_event > 0.0 {
            (new.median_ns_per_event - old.median_ns_per_event) / old.median_ns_per_event * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<28} {:>9.1} ns/event  {:>12.0} events/s  {:>7.3} allocs/event  ({pct:+.1}% vs committed)",
            new.name, new.median_ns_per_event, new.events_per_sec, new.allocs_per_event
        );
        if pct > REGRESSION_THRESHOLD * 100.0 {
            delta.regressions.push((
                new.name.clone(),
                old.median_ns_per_event,
                new.median_ns_per_event,
            ));
        }
        // Tolerance matches the file's 3-decimal serialization so a
        // re-read baseline never warns against its own measurement.
        if new.allocs_per_event > old.allocs_per_event + 5e-3 {
            delta.alloc_warnings.push((
                new.name.clone(),
                old.allocs_per_event,
                new.allocs_per_event,
            ));
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, ns: f64, allocs: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            median_ns_per_event: ns,
            events_per_sec: if ns > 0.0 { 1e9 / ns } else { 0.0 },
            allocs_per_event: allocs,
            events: 1000,
            rounds: 5,
        }
    }

    #[test]
    fn json_round_trips() {
        let records = vec![
            rec("parse/borrowed", 41.25, 0.0),
            rec("parse/owned", 93.5, 1.004),
        ];
        let text = to_json("parse", &records);
        let back = from_json(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "parse/borrowed");
        assert!((back[0].median_ns_per_event - 41.25).abs() < 1e-9);
        assert!((back[1].allocs_per_event - 1.004).abs() < 1e-9);
        assert_eq!(back[1].events, 1000);
        assert_eq!(back[1].rounds, 5);
    }

    #[test]
    fn measure_produces_sane_numbers() {
        let r = measure("noop-ish", 1000, 3, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        });
        assert_eq!(r.events, 1000);
        assert_eq!(r.rounds, 3);
        assert!(r.median_ns_per_event >= 0.0);
        assert!(r.events_per_sec > 0.0);
    }

    #[test]
    fn compare_flags_regressions_and_alloc_growth() {
        let old = vec![rec("a", 100.0, 1.0), rec("b", 100.0, 1.0)];
        let new = vec![rec("a", 120.0, 1.0), rec("b", 105.0, 2.0)];
        let delta = compare(&old, &new);
        assert_eq!(delta.regressions.len(), 1);
        assert_eq!(delta.regressions[0].0, "a");
        assert_eq!(delta.alloc_warnings.len(), 1);
        assert_eq!(delta.alloc_warnings[0].0, "b");
    }

    #[test]
    fn compare_skips_mismatched_scales() {
        let mut old = rec("a", 100.0, 1.0);
        old.events = 500; // committed at a different scale
        let delta = compare(&[old], &[rec("a", 200.0, 2.0)]);
        assert!(delta.regressions.is_empty());
        assert!(delta.alloc_warnings.is_empty());
    }

    #[test]
    fn compare_tolerates_new_suites() {
        let delta = compare(&[], &[rec("fresh", 50.0, 0.0)]);
        assert!(delta.regressions.is_empty());
        assert!(delta.alloc_warnings.is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
