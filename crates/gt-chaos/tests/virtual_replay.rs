//! A file replayed through `ReplaySession` → `ChaosSink` → sink on a
//! `ManualClock`: pacing, the chaos stall, the stage stall timers and the
//! journal all run on the one clock, so every number is exact and the same
//! on every run.

use std::path::PathBuf;
use std::sync::Arc;

use gt_chaos::{ChaosEvent, ChaosEventKind, ChaosJournal, ChaosSink, FaultSchedule};
use gt_metrics::ManualClock;
use gt_replayer::{CollectSink, ReplaySession, ReplaySessionConfig, ReplayerConfig};

/// 100 vertices and a closing marker.
fn stream_file() -> PathBuf {
    let dir = std::env::temp_dir().join("gt-chaos-virtual-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    let mut content: String = (0..100).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
    content.push_str("MARKER,end,\n");
    std::fs::write(&path, content).unwrap();
    path
}

/// What one run measured, in the units it was measured in.
#[derive(Debug, PartialEq)]
struct Observed {
    duration_micros: u64,
    sink_stall_micros: u64,
    reader_stall_micros: u64,
    markers: Vec<(String, u64)>,
    journal: Vec<ChaosEvent>,
    rate_series: Vec<(f64, f64)>,
    delivered: usize,
}

/// 1 000 events/s in 40 ms buckets; event 40 stalls the sink for 50 ms.
fn run(path: &PathBuf) -> Observed {
    let clock = Arc::new(ManualClock::new());
    let journal = ChaosJournal::new();
    let schedule = FaultSchedule::parse("stall@40,ms=50", 7).unwrap();
    let mut collect = CollectSink::new();
    let mut sink = ChaosSink::new(&mut collect, &schedule, journal.clone(), clock.clone());
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1_000.0,
            rate_bucket_secs: 0.04,
            ..Default::default()
        },
        buffer: 64,
    })
    .with_clock(clock);
    let report = session.run(path, &mut sink).unwrap();
    drop(sink);
    Observed {
        duration_micros: report.replay.duration_micros,
        sink_stall_micros: report.sink_stall_micros,
        reader_stall_micros: report.reader_stall_micros,
        markers: report.replay.markers,
        journal: journal.events(),
        rate_series: report.replay.rate_series,
        delivered: collect.entries.len(),
    }
}

#[test]
fn chaos_stall_replays_in_exact_virtual_time() {
    let path = stream_file();
    let first = run(&path);
    // Events 1–39 leave on their 1 ms slots. Event 40 leaves at 40 ms and
    // stalls the sink until 90 ms; events 41–90 are then due and leave
    // together at 90 ms, and 91–100 on their slots again. The marker
    // follows the last event at 100 ms.
    assert_eq!(first.duration_micros, 100_000);
    assert_eq!(first.sink_stall_micros, 50_000);
    assert_eq!(first.reader_stall_micros, 0);
    assert_eq!(first.markers, vec![("end".to_owned(), 100_000)]);
    let entry = |t_micros, kind, description: &str| ChaosEvent {
        t_micros,
        seq: 40,
        kind,
        description: description.to_owned(),
        events_lost: 0,
    };
    assert_eq!(
        first.journal,
        vec![
            entry(40_000, ChaosEventKind::Fault, "stall(ms=50)"),
            entry(90_000, ChaosEventKind::Recovery, "stall ended after 50 ms"),
        ]
    );
    // 39 events in [0, 40) ms, none in [40, 80), 61 in the 20 ms the run
    // spent of [80, 120) — event 40 is booked when its stalled flush ends.
    let want = [(0.0, 39.0 / 0.04), (0.04, 0.0), (0.08, 61.0 / 0.02)];
    assert_eq!(first.rate_series.len(), want.len());
    for (&(start, rate), (want_start, want_rate)) in first.rate_series.iter().zip(want) {
        assert!((start - want_start).abs() < 1e-9, "bucket at {start} s");
        assert!(
            (rate - want_rate).abs() < 1e-6,
            "bucket at {start} s: {rate}/s, want {want_rate}/s"
        );
    }
    assert_eq!(first.delivered, 101);
    for _ in 0..2 {
        assert_eq!(run(&path), first);
    }
    std::fs::remove_file(path).ok();
}
