//! A file replayed through `ReplaySession` → `ChaosSink` → sink on a
//! `ManualClock`: pacing, the chaos stall, the stage stall timers and the
//! journal all run on the one clock, so every number is exact and the same
//! on every run.

use std::path::PathBuf;
use std::sync::Arc;

use gt_chaos::{ChaosEvent, ChaosEventKind, ChaosJournal, ChaosSink, FaultSchedule};
use gt_metrics::ManualClock;
use gt_replayer::{CollectSink, ReplaySession, ReplaySessionConfig, ReplayerConfig};

/// 1 100 vertices and a closing marker.
fn stream_file() -> PathBuf {
    let dir = std::env::temp_dir().join("gt-chaos-virtual-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    let mut content: String = (0..1_100).map(|i| format!("ADD_VERTEX,{i},\n")).collect();
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

/// 1 000 events/s in the report's 1 s buckets; event 990 stalls the sink
/// for 1 050 ms, past the whole second bucket.
fn run(path: &PathBuf) -> Observed {
    let clock = Arc::new(ManualClock::new());
    let journal = ChaosJournal::new();
    let schedule = FaultSchedule::parse("stall@990,ms=1050", 7).unwrap();
    let mut collect = CollectSink::new();
    let mut sink = ChaosSink::new(&mut collect, &schedule, journal.clone(), clock.clone());
    let session = ReplaySession::new(ReplaySessionConfig {
        replayer: ReplayerConfig {
            target_rate: 1_000.0,
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
    // Events 1–989 leave on their 1 ms slots. Event 990 leaves at 990 ms
    // and stalls the sink until 2 040 ms. That is more than the pacer's
    // 100 ms catch-up bound behind, so it re-anchors instead of bursting:
    // event 991 leaves at 2 040 ms and 992–1 100 on fresh 1 ms slots after
    // it. The marker follows the last event at 2 149 ms.
    assert_eq!(first.duration_micros, 2_149_000);
    assert_eq!(first.sink_stall_micros, 1_050_000);
    assert_eq!(first.reader_stall_micros, 0);
    assert_eq!(first.markers, vec![("end".to_owned(), 2_149_000)]);
    let entry = |t_micros, kind, description: &str| ChaosEvent {
        t_micros,
        seq: 990,
        kind,
        description: description.to_owned(),
        events_lost: 0,
    };
    assert_eq!(
        first.journal,
        vec![
            entry(990_000, ChaosEventKind::Fault, "stall(ms=1050)"),
            entry(
                2_040_000,
                ChaosEventKind::Recovery,
                "stall ended after 1050 ms"
            ),
        ]
    );
    // 989 events in [0, 1) s, none in [1, 2), 111 in the 0.149 s the run
    // spent of [2, 3) — event 990 is booked when its stalled flush ends.
    // The empty middle bucket is the dip recovery analysis reads.
    let want = [(0.0, 989.0), (1.0, 0.0), (2.0, 111.0 / 0.149)];
    assert_eq!(first.rate_series.len(), want.len());
    for (&(start, rate), (want_start, want_rate)) in first.rate_series.iter().zip(want) {
        assert!((start - want_start).abs() < 1e-9, "bucket at {start} s");
        assert!(
            (rate - want_rate).abs() < 1e-6,
            "bucket at {start} s: {rate}/s, want {want_rate}/s"
        );
    }
    assert_eq!(first.delivered, 1_101);
    for _ in 0..2 {
        assert_eq!(run(&path), first);
    }
    std::fs::remove_file(path).ok();
}
