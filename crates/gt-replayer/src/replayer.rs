//! The replay driver.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gt_core::prelude::*;
use gt_metrics::hub::Counter;
use gt_metrics::{Clock, Histogram, WallClock};
use gt_trace::Probe;

use crate::errors::ReplayError;
use crate::pacing::PacerCore;
use crate::pattern::RatePattern;
use crate::sink::EventSink;

/// Longest single wait inside a `PAUSE`: how long a watchdog abort can go
/// unnoticed.
const PAUSE_SLICE_MICROS: u64 = 20_000;

/// Replayer configuration.
#[derive(Debug, Clone)]
pub struct ReplayerConfig {
    /// Target emission rate in events per second (speed factor 1.0).
    pub target_rate: f64,
    /// Width of the ingress-rate buckets in the report, seconds.
    pub rate_bucket_secs: f64,
    /// Whether `PAUSE` control events actually wait. Disable for
    /// maximum-throughput benchmarking of the replayer itself.
    pub honor_pauses: bool,
    /// Upper bound on how many behind-schedule events are coalesced into a
    /// single [`EventSink::send_batch`] call. Events that arrive on time
    /// are still delivered one per pacing slot; only events whose deadline
    /// has already passed (catch-up bursts, rates beyond the sink's
    /// ceiling) are batched.
    pub max_batch: usize,
    /// Rate-variability shape (§4.4): how the offered rate varies over
    /// the run. [`RatePattern::Uniform`] is the paper's constant pacing.
    pub pattern: RatePattern,
    /// Seed for stochastic patterns (Pareto burst trains); same seed,
    /// same traffic shape.
    pub pattern_seed: u64,
}

impl Default for ReplayerConfig {
    fn default() -> Self {
        ReplayerConfig {
            target_rate: 1_000.0,
            rate_bucket_secs: 1.0,
            honor_pauses: true,
            max_batch: 256,
            pattern: RatePattern::Uniform,
            pattern_seed: 0,
        }
    }
}

/// What a replay run measured (§4.3 "Streaming Metrics").
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Graph events emitted.
    pub graph_events: u64,
    /// Marker events emitted, with their run-clock timestamps in
    /// microseconds — the watermark correlation data of §4.5.
    pub markers: Vec<(String, u64)>,
    /// Total time of the replay on the replayer's clock, microseconds.
    pub duration_micros: u64,
    /// Time spent in honored `PAUSE` control events, microseconds. Always
    /// `<= duration_micros`.
    pub paused_micros: u64,
    /// Events per second, bucketed over the run.
    pub rate_series: Vec<(f64, f64)>,
    /// Mean achieved rate over the *active* (non-paused) part of the run
    /// (graph events only) — a paused replayer is obeying the stream, not
    /// falling behind, so pauses must not depress this number.
    pub achieved_rate: f64,
    /// Whether the replay was cut short by an abort flag (experiment
    /// watchdog) before the stream ended. Everything delivered up to the
    /// abort is still accounted in the fields above.
    pub aborted: bool,
}

/// The rate-controlled replayer.
pub struct Replayer {
    config: ReplayerConfig,
    clock: Arc<dyn Clock>,
    /// Optional shared ingress counter (events emitted), for live
    /// observation by metric loggers while the replay runs.
    ingress_counter: Option<Counter>,
    /// Optional emit-latency histogram: per graph event, how far past its
    /// pacing deadline the emission happened, in microseconds.
    emit_latency: Option<Histogram>,
    /// Optional Level-2 tracepoint at the paced-emit stage: stamps sampled
    /// graph events just before they are handed to the sink.
    trace_probe: Option<Probe>,
    /// Optional shared abort flag (set by an experiment watchdog): checked
    /// between entries and during pauses; when raised, the replay stops
    /// early, flushes what it has, and reports `aborted = true`.
    abort: Option<Arc<AtomicBool>>,
}

impl Replayer {
    /// A replayer with its own wall clock.
    pub fn new(config: ReplayerConfig) -> Self {
        Replayer {
            config,
            clock: Arc::new(WallClock::start()),
            ingress_counter: None,
            emit_latency: None,
            trace_probe: None,
            abort: None,
        }
    }

    /// Uses a shared run clock (so marker timestamps align with metric
    /// logger timestamps). The replayer also paces and pauses on it.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Registers a counter incremented per emitted graph event.
    pub fn with_ingress_counter(mut self, counter: Counter) -> Self {
        self.ingress_counter = Some(counter);
        self
    }

    /// Registers a histogram recording each graph event's deadline miss
    /// (microseconds late relative to the pacing schedule).
    pub fn with_emit_latency(mut self, histogram: Histogram) -> Self {
        self.emit_latency = Some(histogram);
        self
    }

    /// Registers a Level-2 tracepoint probe (normally
    /// [`gt_trace::Stage::PacedEmit`]) stamped once per graph event just
    /// before delivery to the sink. Sampling happens inside the probe.
    pub fn with_trace_probe(mut self, probe: Probe) -> Self {
        self.trace_probe = Some(probe);
        self
    }

    /// Registers a shared abort flag. When another thread (normally the
    /// experiment watchdog) sets it, the replay stops at the next entry
    /// boundary — or mid-pause — delivers the pending batch, closes the
    /// sink, and returns a report with `aborted = true` instead of
    /// running the stream to its end.
    pub fn with_abort_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    fn abort_requested(&self) -> bool {
        self.abort
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Delivers the pending batch and attributes its events to the metrics
    /// (ingress counter, rate buckets) with a single clock read.
    fn flush_batch<S: EventSink + ?Sized>(
        &self,
        batch: &mut Vec<SharedEntry>,
        sink: &mut S,
        started: u64,
        bucket_micros: u64,
        graph_events: &mut u64,
        buckets: &mut Vec<u64>,
    ) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Stamp before dispatch so downstream stages always observe a
        // later time than the emit stamp. The batch holds only graph
        // events (markers and control never enter it), so every slot
        // advances the trace sequence.
        if let Some(probe) = &self.trace_probe {
            probe.stamp_n(batch.len() as u64);
        }
        sink.send_batch(batch)?;
        let n = batch.len() as u64;
        batch.clear();
        *graph_events += n;
        if let Some(c) = &self.ingress_counter {
            c.add(n);
        }
        let elapsed = self.clock.now_micros().saturating_sub(started);
        let bucket = (elapsed / bucket_micros.max(1)) as usize;
        if buckets.len() <= bucket {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] += n;
        Ok(())
    }

    /// Replays entries into the sink at the configured rate, honouring
    /// control events. Returns the streaming metrics report.
    ///
    /// Accepts owned [`StreamEntry`] items or pre-shared [`SharedEntry`]
    /// handles (the file pipeline allocates once on the reader thread).
    /// Events that are on schedule are delivered one per pacing slot; once
    /// the replayer falls behind, due events are coalesced into
    /// [`EventSink::send_batch`] bursts of at most
    /// [`ReplayerConfig::max_batch`] entries. The pending batch is always
    /// flushed before a marker or pause, so a marker is only delivered
    /// after every graph event streamed before it — and before pulling
    /// from a source whose [`Iterator::size_hint`] lower bound is zero (it
    /// has nothing ready, so the pull may block), so due events never wait
    /// on the source.
    ///
    /// Pacing deadlines, waits, pauses and every timestamp in the report
    /// are on the replayer's [`Clock`]; on a `ManualClock` a replay runs in
    /// virtual time.
    pub fn replay<I, S>(&self, entries: I, sink: &mut S) -> io::Result<ReplayReport>
    where
        I: IntoIterator,
        I::Item: Into<SharedEntry>,
        S: EventSink + ?Sized,
    {
        let clock = &*self.clock;
        let mut pacer = PacerCore::new(self.config.target_rate)
            .with_pattern(self.config.pattern.compile(self.config.pattern_seed));
        sink.open()?;
        // Deadlines, the rate pattern and the rate buckets count from here.
        let started = clock.now_micros();
        let nanos_since_start = |now: u64| now.saturating_sub(started) * 1_000;
        pacer.reset(0);
        let mut graph_events = 0u64;
        let mut paused_micros = 0u64;
        let mut markers = Vec::new();
        let bucket_micros = (self.config.rate_bucket_secs * 1e6) as u64;
        let mut buckets: Vec<u64> = Vec::new();
        let max_batch = self.config.max_batch.max(1);
        let mut batch: Vec<SharedEntry> = Vec::with_capacity(max_batch);

        macro_rules! flush_pending {
            () => {
                self.flush_batch(
                    &mut batch,
                    sink,
                    started,
                    bucket_micros,
                    &mut graph_events,
                    &mut buckets,
                )?
            };
        }

        let mut entries = entries.into_iter();
        let mut aborted = false;
        loop {
            // Nothing ready at the source: what is due goes out before a
            // pull that may block.
            if !batch.is_empty() && entries.size_hint().0 == 0 {
                flush_pending!();
            }
            let Some(entry) = entries.next() else {
                break;
            };
            if self.abort_requested() {
                aborted = true;
                break;
            }
            let entry: SharedEntry = entry.into();
            match entry.as_ref() {
                StreamEntry::Graph(_) => {
                    let now = clock.now_micros();
                    let schedule = pacer.schedule(nanos_since_start(now));
                    if let Some(h) = &self.emit_latency {
                        h.record(schedule.lateness_nanos / 1_000);
                    }
                    // The clock reads whole microseconds: a deadline less
                    // than one away is due now, so an unpaced replay never
                    // waits.
                    let wait_micros = schedule.wait_nanos / 1_000;
                    if wait_micros > 0 {
                        // On schedule: deliver whatever coalesced while
                        // catching up, wait out the slot, then deliver
                        // this event in it.
                        flush_pending!();
                        clock.wait_until(now + wait_micros);
                        batch.push(entry);
                        flush_pending!();
                    } else {
                        // Behind schedule: coalesce with everything else
                        // that is already due — one batched dispatch per
                        // burst instead of one sink call per event.
                        batch.push(entry);
                        if batch.len() >= max_batch {
                            flush_pending!();
                        }
                    }
                }
                StreamEntry::Marker(name) => {
                    // Markers flow through to the system under test *and*
                    // are timestamped locally for later correlation. All
                    // graph events streamed before the marker are
                    // delivered (and flushed) first.
                    flush_pending!();
                    sink.send(&entry)?;
                    sink.flush()?;
                    markers.push((name.clone(), clock.now_micros()));
                }
                StreamEntry::Control(ControlEvent::SetSpeed(factor)) => {
                    // The file parser rejects bad SPEED payloads at parse
                    // time; programmatic in-memory streams can still carry
                    // one. Fail fast with a typed error — the pacer would
                    // ignore the factor, silently replaying at the wrong
                    // rate.
                    if !(factor.is_finite() && *factor > 0.0) {
                        return Err(ReplayError::InvalidControl {
                            control: format!("SPEED({factor})"),
                            reason: "speed factor must be positive and finite".to_owned(),
                        }
                        .into_io());
                    }
                    pacer.set_speed(*factor);
                }
                StreamEntry::Control(ControlEvent::Pause(duration)) => {
                    flush_pending!();
                    sink.flush()?;
                    if self.config.honor_pauses {
                        let pause_start = clock.now_micros();
                        let pause_end = pause_start + duration.as_micros() as u64;
                        // Wait in slices so a watchdog abort does not
                        // have to wait out a long scripted pause.
                        loop {
                            let now = clock.now_micros();
                            if now >= pause_end {
                                break;
                            }
                            if self.abort_requested() {
                                aborted = true;
                                break;
                            }
                            clock.wait_until(pause_end.min(now + PAUSE_SLICE_MICROS));
                        }
                        paused_micros += clock.now_micros().saturating_sub(pause_start);
                        if aborted {
                            break;
                        }
                    }
                    pacer.reset(nanos_since_start(clock.now_micros()));
                }
            }
        }
        flush_pending!();
        sink.close()?;

        let duration_micros = clock.now_micros().saturating_sub(started).max(1);
        let last = buckets.len().saturating_sub(1);
        let rate_series: Vec<(f64, f64)> = buckets
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let start_secs = i as f64 * self.config.rate_bucket_secs;
                // The run usually ends partway through the final bucket;
                // dividing by the full bucket width would understate the
                // closing rate, so scale by the actual elapsed width.
                let width = if i == last {
                    (duration_micros as f64 / 1e6 - start_secs)
                        .clamp(1e-6, self.config.rate_bucket_secs)
                } else {
                    self.config.rate_bucket_secs
                };
                (start_secs, count as f64 / width)
            })
            .collect();
        let active_micros = duration_micros.saturating_sub(paused_micros).max(1);
        Ok(ReplayReport {
            graph_events,
            markers,
            duration_micros,
            paused_micros,
            rate_series,
            achieved_rate: graph_events as f64 / (active_micros as f64 / 1e6),
            aborted,
        })
    }

    /// Replays a whole in-memory stream.
    pub fn replay_stream<S: EventSink + ?Sized>(
        &self,
        stream: &GraphStream,
        sink: &mut S,
    ) -> io::Result<ReplayReport> {
        self.replay(stream.entries().iter().cloned(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use gt_metrics::ManualClock;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    fn vertices(n: u64) -> GraphStream {
        (0..n)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect()
    }

    /// A replayer on a fresh [`ManualClock`]: every wait jumps the clock,
    /// so a run's times are exact functions of the stream and the rate.
    fn virtual_replayer(config: ReplayerConfig) -> Replayer {
        Replayer::new(config).with_clock(Arc::new(ManualClock::new()))
    }

    #[test]
    fn replays_everything_in_order() {
        let mut stream = vertices(50);
        stream.push(StreamEntry::marker("end"));
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.graph_events, 50);
        assert_eq!(sink.entries.len(), 51);
        assert_eq!(report.markers.len(), 1);
        assert_eq!(report.markers[0].0, "end");
    }

    #[test]
    fn achieves_target_rate_approximately() {
        // 500 events, one every 200 µs: the last slot is at 100 ms.
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 5_000.0,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&vertices(500), &mut sink).unwrap();
        assert_eq!(report.duration_micros, 100_000);
        assert_eq!(report.achieved_rate, 5_000.0);
    }

    #[test]
    fn speed_control_takes_effect() {
        // 200 events at base rate, then 200 at 4x: the second half must be
        // substantially faster.
        let mut stream = vertices(200);
        stream.push(StreamEntry::speed(4.0));
        stream.extend(vertices(200));
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 4_000.0,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.graph_events, 400);
        // 200 slots of 250 µs end at 50 ms; slot 201 was issued before
        // the change (50.25 ms), the other 199 come every 62.5 µs — the
        // last at 62 687.5 µs, which the whole-microsecond clock reaches
        // at 62 687. All at base rate would have taken 100 ms.
        assert_eq!(report.duration_micros, 62_687);
    }

    #[test]
    fn invalid_speed_payload_fails_fast_with_typed_error() {
        // Regression: a zero/negative/NaN SPEED payload in a programmatic
        // stream used to reach the pacer, where the saturating interval
        // cast turned it into a u64::MAX-nanosecond stall (or, later, a
        // panic on the replay thread). It must instead surface as a typed
        // ReplayError::InvalidControl before any pacing state changes.
        for bad in [0.0, -1.0, f64::NAN] {
            let mut stream = vertices(3);
            stream.push(StreamEntry::speed(bad));
            stream.extend(vertices(3));
            let clock = Arc::new(ManualClock::new());
            let replayer = Replayer::new(ReplayerConfig {
                target_rate: 1e6,
                ..Default::default()
            })
            .with_clock(clock.clone());
            let mut sink = CollectSink::new();
            let err = replayer
                .replay_stream(&stream, &mut sink)
                .expect_err("bad factor must fail the replay");
            // Three 1 µs slots, not a stall of any length.
            assert_eq!(clock.now_micros(), 3, "factor {bad}");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "factor {bad}");
            match ReplayError::from_sink_error(err) {
                ReplayError::InvalidControl { control, reason } => {
                    assert!(control.contains("SPEED"), "control {control}");
                    assert!(reason.contains("positive"), "reason {reason}");
                }
                other => panic!("wrong variant for factor {bad}: {other:?}"),
            }
            // No event after the bad control was delivered (those before
            // it may still sit in the unflushed pending batch).
            assert!(sink.entries.len() <= 3, "delivered {}", sink.entries.len());
        }
    }

    #[test]
    fn pause_control_delays_emission() {
        let mut stream = vertices(5);
        stream.push(StreamEntry::pause(Duration::from_millis(80)));
        stream.extend(vertices(5));
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 1e5,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        // Five 10 µs slots, the 80 ms pause, then five slots counted
        // afresh from its end.
        assert_eq!(report.paused_micros, 80_000);
        assert_eq!(report.duration_micros, 50 + 80_000 + 50);
    }

    #[test]
    fn pauses_can_be_disabled() {
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(5)));
        stream.extend(vertices(2));
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 1e6,
            honor_pauses: false,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        // Four 1 µs slots; the 5 s pause costs nothing.
        assert_eq!(report.duration_micros, 4);
    }

    #[test]
    fn ingress_counter_tracks_events() {
        let hub = gt_metrics::MetricsHub::new();
        let counter = hub.counter("ingress");
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        })
        .with_ingress_counter(counter.clone());
        let mut sink = CollectSink::new();
        replayer.replay_stream(&vertices(30), &mut sink).unwrap();
        assert_eq!(counter.get(), 30);
    }

    /// Integrates a report's rate series over each bucket's own width —
    /// full buckets except the final one, which ends at the run's end but
    /// is never narrower than the report's 1 µs floor — after checking
    /// that no bucket starts past that end.
    fn series_total(report: &ReplayReport, bucket_secs: f64) -> f64 {
        let end_secs = report.duration_micros as f64 / 1e6;
        let last = report.rate_series.len() - 1;
        let (last_start, _) = report.rate_series[last];
        assert!(
            last_start <= end_secs,
            "bucket at {last_start} s, run ended at {end_secs} s"
        );
        let width = |i: usize, start: f64| {
            if i == last {
                (end_secs - start).max(1e-6)
            } else {
                bucket_secs
            }
        };
        let series = report.rate_series.iter().enumerate();
        series
            .map(|(i, &(start, rate))| rate * width(i, start))
            .sum()
    }

    #[test]
    fn rate_series_covers_run() {
        // 1 900 events at 20 000/s end mid-bucket (95 ms into 50 ms
        // buckets); the boundary case has its own test below.
        let stream = vertices(1_900);
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 20_000.0,
            rate_bucket_secs: 0.05,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.duration_micros, 95_000);
        // Slot k is at k × 50 µs: 999 slots before 50 ms, 901 from it on.
        assert_eq!(report.rate_series.len(), 2);
        assert_eq!(report.rate_series[0], (0.0, 999.0 / 0.05));
        let total = series_total(&report, 0.05);
        assert!((total - 1_900.0).abs() < 1e-3, "series total {total}");
    }

    /// A sink on whose clock every event costs a fixed time.
    struct TickingSink {
        clock: Arc<ManualClock>,
        micros_per_event: u64,
    }

    impl EventSink for TickingSink {
        fn send(&mut self, _entry: &StreamEntry) -> io::Result<()> {
            self.clock.advance_micros(self.micros_per_event);
            Ok(())
        }
    }

    #[test]
    fn a_run_ending_on_a_bucket_boundary_keeps_every_event_in_the_series() {
        // 2 000 events × 50 µs end the run at exactly 100 000 µs: the last
        // flush and `duration_micros` share the microsecond that opens
        // bucket 2 of 50 ms, however the events were batched. That bucket
        // has no width of its own; the report gives it its 1 µs floor
        // rather than dropping what was booked there.
        let clock = Arc::new(ManualClock::new());
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e9,
            rate_bucket_secs: 0.05,
            ..Default::default()
        })
        .with_clock(clock.clone());
        let mut sink = TickingSink {
            clock,
            micros_per_event: 50,
        };
        let report = replayer.replay_stream(&vertices(2_000), &mut sink).unwrap();
        assert_eq!(report.graph_events, 2_000);
        assert_eq!(report.duration_micros, 100_000);
        let &(last_start, last_rate) = report.rate_series.last().unwrap();
        assert_eq!((report.rate_series.len(), last_start), (3, 0.1));
        assert!(
            last_rate * 1e-6 >= 1.0,
            "final bucket holds {last_rate} × 1 µs"
        );
        let total = series_total(&report, 0.05);
        assert!((total - 2_000.0).abs() < 1e-3, "series total {total}");
    }

    #[test]
    fn tail_bucket_rate_not_deflated() {
        // 1s buckets with a run lasting well under a second: the old
        // full-width division reported ~1/20th of the true rate.
        let stream = vertices(500);
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 10_000.0,
            rate_bucket_secs: 1.0,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.duration_micros, 50_000);
        assert_eq!(report.rate_series.len(), 1);
        let (_, rate) = report.rate_series[0];
        assert!((rate - 10_000.0).abs() < 1e-6, "tail bucket rate {rate}");
    }

    #[test]
    fn achieved_rate_excludes_honored_pauses() {
        // 200 events at 10k/s (20 ms active) around a 100 ms pause. Over
        // the whole run the rate is 200 / 0.12 s; over active time it is
        // the target.
        let mut stream = vertices(100);
        stream.push(StreamEntry::pause(Duration::from_millis(100)));
        stream.extend(vertices(100));
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 10_000.0,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.paused_micros, 100_000);
        assert_eq!(report.duration_micros, 120_000);
        assert!((report.achieved_rate - 10_000.0).abs() < 1e-6);
    }

    /// Records the delivery pattern: which entries arrived singly vs.
    /// batched, and the lifecycle calls.
    #[derive(Default)]
    struct PatternSink {
        deliveries: Vec<Vec<StreamEntry>>,
        opened: u32,
        closed: u32,
    }

    impl EventSink for PatternSink {
        fn open(&mut self) -> io::Result<()> {
            self.opened += 1;
            Ok(())
        }

        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            self.deliveries.push(vec![entry.clone()]);
            Ok(())
        }

        fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
            self.deliveries
                .push(batch.iter().map(|e| e.as_ref().clone()).collect());
            Ok(())
        }

        fn close(&mut self) -> io::Result<()> {
            self.closed += 1;
            Ok(())
        }
    }

    #[test]
    fn behind_schedule_events_coalesce_into_batches() {
        // Pacing effectively disabled: every event is due immediately, so
        // the emitter should deliver large bursts, not per-event calls.
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e9,
            ..Default::default()
        });
        let mut sink = PatternSink::default();
        let report = replayer.replay_stream(&vertices(1_000), &mut sink).unwrap();
        assert_eq!(report.graph_events, 1_000);
        let total: usize = sink.deliveries.iter().map(Vec::len).sum();
        assert_eq!(total, 1_000);
        assert!(
            sink.deliveries.len() < 100,
            "expected coalesced bursts, got {} deliveries",
            sink.deliveries.len()
        );
        let largest = sink.deliveries.iter().map(Vec::len).max().unwrap();
        assert!(largest > 1, "no batching happened");
        assert!(largest <= 256, "batch exceeded max_batch: {largest}");
        assert_eq!(sink.opened, 1);
        assert_eq!(sink.closed, 1);
    }

    #[test]
    fn marker_flushes_pending_batch_first() {
        let mut stream = vertices(100);
        stream.push(StreamEntry::marker("mid"));
        stream.extend(vertices(100));
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e9,
            ..Default::default()
        });
        let mut sink = PatternSink::default();
        replayer.replay_stream(&stream, &mut sink).unwrap();
        let flat: Vec<StreamEntry> = sink.deliveries.into_iter().flatten().collect();
        assert_eq!(flat.len(), 201);
        // Every graph event streamed before the marker is delivered before
        // it, in stream order.
        let marker_pos = flat.iter().position(|e| e.is_marker()).unwrap();
        assert_eq!(marker_pos, 100);
        assert_eq!(flat, stream.entries());
    }

    #[test]
    fn batch_cap_is_respected() {
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e9,
            max_batch: 16,
            ..Default::default()
        });
        let mut sink = PatternSink::default();
        replayer.replay_stream(&vertices(200), &mut sink).unwrap();
        assert!(sink.deliveries.iter().all(|d| d.len() <= 16));
    }

    #[test]
    fn abort_flag_stops_replay_and_marks_report() {
        // The flag is pre-set: the replay must stop at the first entry
        // boundary, deliver nothing further, and still close the sink.
        let flag = Arc::new(AtomicBool::new(true));
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        })
        .with_abort_flag(Arc::clone(&flag));
        let mut sink = PatternSink::default();
        let report = replayer.replay_stream(&vertices(100), &mut sink).unwrap();
        assert!(report.aborted);
        assert_eq!(report.graph_events, 0);
        assert_eq!(sink.closed, 1, "abort must still close the sink");

        // And an unset flag changes nothing.
        flag.store(false, Ordering::Relaxed);
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&vertices(100), &mut sink).unwrap();
        assert!(!report.aborted);
        assert_eq!(report.graph_events, 100);
    }

    #[test]
    fn abort_cuts_scripted_pause_short() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(30)));
        stream.extend(vertices(2));
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e6,
            ..Default::default()
        })
        .with_abort_flag(Arc::clone(&flag));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                flag.store(true, Ordering::Relaxed);
            })
        };
        let started = std::time::Instant::now();
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        setter.join().unwrap();
        assert!(report.aborted);
        assert_eq!(report.graph_events, 2, "pre-pause events delivered");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "abort had to wait out the pause"
        );
    }

    #[test]
    fn ignored_pauses_do_not_count_as_paused_time() {
        let mut stream = vertices(2);
        stream.push(StreamEntry::pause(Duration::from_secs(5)));
        stream.extend(vertices(2));
        let replayer = Replayer::new(ReplayerConfig {
            target_rate: 1e6,
            honor_pauses: false,
            ..Default::default()
        });
        let mut sink = CollectSink::new();
        let report = replayer.replay_stream(&stream, &mut sink).unwrap();
        assert_eq!(report.paused_micros, 0);
    }

    /// Has `ready` entries on hand and would block for the rest: the pull
    /// that would block records how many graph events the sink had by
    /// then.
    struct StallingSource {
        entries: std::vec::IntoIter<StreamEntry>,
        ready: usize,
        delivered: Rc<Cell<u64>>,
        delivered_at_block: Option<u64>,
    }

    impl Iterator for StallingSource {
        type Item = StreamEntry;

        fn next(&mut self) -> Option<StreamEntry> {
            if self.ready == 0 && self.delivered_at_block.is_none() {
                self.delivered_at_block = Some(self.delivered.get());
            }
            self.ready = self.ready.saturating_sub(1);
            self.entries.next()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.ready, None)
        }
    }

    /// Counts the graph events that reach it.
    struct CountingSink(Rc<Cell<u64>>);

    impl EventSink for CountingSink {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            if entry.is_graph() {
                self.0.set(self.0.get() + 1);
            }
            Ok(())
        }
    }

    #[test]
    fn due_events_reach_the_sink_before_the_source_blocks() {
        // Regression: late events waited in the pending batch for
        // `max_batch`, a marker, an on-time event or the stream's end —
        // behind a trickling source, for as long as it blocked.
        let delivered = Rc::new(Cell::new(0));
        let mut source = StallingSource {
            entries: vertices(5).into_entries().into_iter(),
            ready: 3,
            delivered: Rc::clone(&delivered),
            delivered_at_block: None,
        };
        let replayer = virtual_replayer(ReplayerConfig {
            target_rate: 1e9,
            ..Default::default()
        });
        let report = replayer
            .replay(&mut source, &mut CountingSink(delivered))
            .unwrap();
        assert_eq!(source.delivered_at_block, Some(3));
        assert_eq!(report.graph_events, 5);
    }

    #[test]
    #[ignore = "wall-clock pacing accuracy; run via the CI timing job"]
    fn paces_to_target_on_the_wall_clock() {
        // The replayer on its default `WallClock`: 400 events at 4k/s take
        // 0.1 s, and SPEED,,2 from the start halves that.
        let run = |speed: f64| {
            let mut stream: GraphStream = std::iter::once(StreamEntry::speed(speed)).collect();
            stream.extend(vertices(400));
            let replayer = Replayer::new(ReplayerConfig {
                target_rate: 4_000.0,
                ..Default::default()
            });
            let report = replayer
                .replay_stream(&stream, &mut CollectSink::new())
                .unwrap();
            report.duration_micros as f64
        };
        let base = run(1.0);
        assert!(
            (75_000.0..125_000.0).contains(&base),
            "400 events at 4k/s took {base} µs"
        );
        let doubled = run(2.0);
        assert!(
            (0.4..0.6).contains(&(doubled / base)),
            "SPEED,,2 took {doubled} µs against {base} µs"
        );
    }
}
