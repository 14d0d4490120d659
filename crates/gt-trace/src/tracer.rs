//! The tracer: probe factory, collector thread, and the trace report.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gt_metrics::{Clock, Histogram, MetricRecord, MetricsHub};

use crate::ring::Ring;
use crate::stage::{Stage, STAGE_COUNT};

/// Source label on all emitted trace records and hub histograms.
pub const TRACE_SOURCE: &str = "trace";

/// The stage pairs the collector reports, as
/// `(earlier stage, later stage, metric name)`. Metric names double as
/// hub histogram names under the `trace` source, so a Level-1
/// `HubSampler` publishes `<name>.count` / `.mean` / `.p99` / `.max`
/// series while the run is live.
pub(crate) const PAIR_METRICS: [(Stage, Stage, &str); 4] = [
    (
        Stage::ReaderDequeue,
        Stage::PacedEmit,
        "reader_to_emit_micros",
    ),
    (Stage::PacedEmit, Stage::SinkWrite, "emit_to_sink_micros"),
    (
        Stage::PacedEmit,
        Stage::ConnectorRecv,
        "emit_to_connector_micros",
    ),
    (
        Stage::ConnectorRecv,
        Stage::EngineApply,
        "connector_to_apply_micros",
    ),
];

/// Stamp slots per probe ring. A full ring drops stamps (counted) rather
/// than blocking the pipeline.
const RING_CAPACITY: usize = 4096;

/// How often the collector thread drains the rings.
const DRAIN_INTERVAL: Duration = Duration::from_millis(2);

/// Cap on concurrently pending (partially matched) sequence numbers; the
/// oldest are evicted beyond this.
const MAX_PENDING: usize = 65_536;

/// Cap on accumulated per-sample records (histograms keep counting past
/// it).
const MAX_RECORDS: usize = 100_000;

/// Tracing parameters. The default bounds overhead to well under the 5%
/// ingest budget (see the `ingest/tracing` bench rows): non-sampled
/// events cost one counter increment and one modulo test.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Sample 1-in-N graph events (by global stream position). 1 traces
    /// everything — useful in tests, too hot for production rates.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 64 }
    }
}

impl TraceConfig {
    /// Sets the sampling rate (builder style).
    #[must_use]
    pub fn sampling(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }
}

/// State shared between the tracer handles and the collector thread.
struct Shared {
    rings: Mutex<Vec<Arc<Ring>>>,
    stop: AtomicBool,
}

/// What one finished trace collected.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// One record per matched stage pair of a sampled event (source
    /// [`TRACE_SOURCE`], metric from `PAIR_METRICS`, integer value =
    /// stage-to-stage latency in microseconds, timestamped at the later
    /// stage). Merge these into the run's `ResultLog` to slice latency
    /// by marker window.
    pub records: Vec<MetricRecord>,
    /// Stage-pair latencies recorded (across all pairs).
    pub matched: u64,
    /// Stamps lost to full probe rings.
    pub dropped: u64,
    /// Partially matched sequences evicted by the pending cap.
    pub evicted: u64,
    /// Matched pairs beyond the record cap (100 000) that were counted in
    /// the histograms but not kept as records.
    pub truncated: u64,
}

/// A per-producer-thread tracepoint.
///
/// Obtain one from [`Tracer::probe`] per (thread, stage). For stages
/// that see events in stream order the probe counts them itself
/// ([`Probe::stamp`] / [`Probe::stamp_n`]); stages that process out of
/// order stamp an externally carried sequence number
/// ([`Probe::stamp_seq`]). Non-sampled events cost one counter bump and
/// one modulo test — no clock read, no shared-memory write.
pub struct Probe {
    ring: Arc<Ring>,
    clock: Arc<dyn Clock>,
    sample_every: u64,
    next_seq: Cell<u64>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("stage", &self.ring.stage())
            .field("sample_every", &self.sample_every)
            .field("next_seq", &self.next_seq.get())
            .finish()
    }
}

impl Probe {
    /// Stamps the next graph event in stream order.
    #[inline]
    pub fn stamp(&self) {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        if seq % self.sample_every == 0 {
            self.ring.push(seq, self.clock.now_micros());
        }
    }

    /// Stamps `n` consecutive stream-order graph events with a single
    /// clock read (batch dispatch).
    #[inline]
    pub fn stamp_n(&self, n: u64) {
        if n == 0 {
            return;
        }
        let first = self.next_seq.get();
        self.next_seq.set(first + n);
        let rem = first % self.sample_every;
        let mut seq = if rem == 0 {
            first
        } else {
            first + (self.sample_every - rem)
        };
        if seq >= first + n {
            return;
        }
        let t = self.clock.now_micros();
        while seq < first + n {
            self.ring.push(seq, t);
            seq += self.sample_every;
        }
    }

    /// Stamps the graph event with the given global stream sequence
    /// number (stages that process events out of stream order, e.g.
    /// sharded appliers).
    #[inline]
    pub fn stamp_seq(&self, seq: u64) {
        if seq % self.sample_every == 0 {
            self.ring.push(seq, self.clock.now_micros());
        }
    }
}

/// Per-sequence match state in the collector.
#[derive(Default)]
struct SeqState {
    t: [Option<u64>; STAGE_COUNT],
    recorded: u8,
}

/// The trace controller: hands out [`Probe`]s and runs the collector
/// thread that drains their rings, matches stamps by sequence number,
/// and publishes stage-pair latencies.
///
/// Cloning shares the tracer; [`Tracer::stop`] (first call wins) joins
/// the collector and returns the [`TraceReport`].
#[derive(Clone)]
pub struct Tracer {
    config: TraceConfig,
    clock: Arc<dyn Clock>,
    shared: Arc<Shared>,
    collector: Arc<Mutex<Option<JoinHandle<TraceReport>>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Starts a tracer (and its collector thread). Stage-pair histograms
    /// named per `PAIR_METRICS` are registered in `hub`; `clock` must
    /// be the run clock shared with the replayer so trace timestamps
    /// align with markers.
    pub fn new(config: TraceConfig, clock: Arc<dyn Clock>, hub: &MetricsHub) -> Self {
        let mut config = config;
        config.sample_every = config.sample_every.max(1);
        let shared = Arc::new(Shared {
            rings: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let hists: Vec<Histogram> = PAIR_METRICS
            .iter()
            .map(|(_, _, name)| hub.histogram(name))
            .collect();
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gt-trace".into())
                .spawn(move || collector_loop(&shared, &hists))
                .expect("spawn gt-trace collector thread")
        };
        Tracer {
            config,
            clock,
            shared,
            collector: Arc::new(Mutex::new(Some(handle))),
        }
    }

    /// Creates a tracepoint for one (thread, stage). Probes may be
    /// created at any time — platform threads that outlive tracer
    /// installation register lazily — and their rings are picked up by
    /// the collector on its next drain.
    pub fn probe(&self, stage: Stage) -> Probe {
        let ring = Arc::new(Ring::new(stage, RING_CAPACITY));
        self.shared
            .rings
            .lock()
            .expect("ring registry poisoned")
            .push(Arc::clone(&ring));
        Probe {
            ring,
            clock: Arc::clone(&self.clock),
            sample_every: self.config.sample_every,
            next_seq: Cell::new(0),
        }
    }

    /// Stops the collector (after a final drain) and returns everything
    /// it matched. Subsequent calls on any clone return an empty report.
    pub fn stop(&self) -> TraceReport {
        self.shared.stop.store(true, Ordering::Relaxed);
        let handle = self
            .collector
            .lock()
            .expect("collector handle poisoned")
            .take();
        match handle {
            Some(h) => {
                // Wake the collector out of its drain-interval park so
                // stop returns promptly instead of waiting a full cycle.
                h.thread().unpark();
                h.join().unwrap_or_default()
            }
            None => TraceReport::default(),
        }
    }
}

/// The collector thread body: drain → match → publish, every
/// [`DRAIN_INTERVAL`], with one final drain after stop.
fn collector_loop(shared: &Shared, hists: &[Histogram]) -> TraceReport {
    let mut pending: BTreeMap<u64, SeqState> = BTreeMap::new();
    let mut report = TraceReport::default();
    let mut buf: Vec<(u64, u64)> = Vec::with_capacity(RING_CAPACITY);
    loop {
        let stopping = shared.stop.load(Ordering::Relaxed);
        // Re-read the registry every cycle: probes created after the
        // thread started (lazy platform-side registration) must be seen.
        let rings: Vec<Arc<Ring>> = shared.rings.lock().expect("ring registry poisoned").clone();
        for ring in &rings {
            buf.clear();
            ring.drain(&mut buf);
            let stage = ring.stage().index();
            for &(seq, t) in &buf {
                ingest(&mut pending, &mut report, hists, stage, seq, t);
            }
        }
        if stopping {
            report.dropped = rings.iter().map(|r| r.dropped()).sum();
            return report;
        }
        sleep_interruptible(DRAIN_INTERVAL, &shared.stop);
    }
}

/// Folds one stamp into the match state, publishing every stage pair it
/// completes.
fn ingest(
    pending: &mut BTreeMap<u64, SeqState>,
    report: &mut TraceReport,
    hists: &[Histogram],
    stage: usize,
    seq: u64,
    t: u64,
) {
    let state = pending.entry(seq).or_default();
    if state.t[stage].is_none() {
        state.t[stage] = Some(t);
    }
    for (i, (a, b, name)) in PAIR_METRICS.iter().enumerate() {
        if state.recorded & (1 << i) != 0 {
            continue;
        }
        if let (Some(ta), Some(tb)) = (state.t[a.index()], state.t[b.index()]) {
            state.recorded |= 1 << i;
            // Stamps are taken in pipeline order, so tb >= ta up to clock
            // granularity; saturate as belt and braces.
            let delta = tb.saturating_sub(ta);
            hists[i].record(delta);
            report.matched += 1;
            if report.records.len() < MAX_RECORDS {
                report
                    .records
                    .push(MetricRecord::int(tb, TRACE_SOURCE, name, delta as i64));
            } else {
                report.truncated += 1;
            }
        }
    }
    while pending.len() > MAX_PENDING {
        pending.pop_first();
        report.evicted += 1;
    }
}

/// Sleeps `total` in short slices so `stop` never waits a full interval.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    // Parked rather than slept: `Tracer::stop` unparks the collector, so
    // shutdown latency is bounded by one drain, not one interval. The
    // unpark token makes a wake-before-park return immediately, closing
    // the race with a stop raised between the flag check and the park.
    let deadline = std::time::Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let now = std::time::Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::park_timeout(deadline - now);
    }
}

/// A lazily installed tracer slot for platform threads that are spawned
/// *before* the harness can hand them a tracer (engines start eagerly in
/// `SystemUnderTest::start`, tracer installation happens afterwards).
///
/// Worker threads poll [`TracerCell::probe`] until it yields a probe:
/// while no tracer is installed, that is a single relaxed atomic load
/// per call — cheap enough for per-event use.
#[derive(Clone, Default)]
pub struct TracerCell(Arc<CellInner>);

#[derive(Default)]
struct CellInner {
    installed: AtomicBool,
    tracer: Mutex<Option<Tracer>>,
}

impl fmt::Debug for TracerCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracerCell")
            .field("installed", &self.0.installed.load(Ordering::Relaxed))
            .finish()
    }
}

impl TracerCell {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the shared tracer. Probes created from the
    /// previous tracer keep stamping into it.
    pub fn install(&self, tracer: &Tracer) {
        *self.0.tracer.lock().expect("tracer slot poisoned") = Some(tracer.clone());
        self.0.installed.store(true, Ordering::Release);
    }

    /// A probe for `stage` from the installed tracer, or `None` while no
    /// tracer is installed (the fast path: one atomic load).
    #[inline]
    pub fn probe(&self, stage: Stage) -> Option<Probe> {
        if !self.0.installed.load(Ordering::Acquire) {
            return None;
        }
        self.0
            .tracer
            .lock()
            .expect("tracer slot poisoned")
            .as_ref()
            .map(|t| t.probe(stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::ManualClock;

    fn manual() -> (Arc<ManualClock>, Arc<dyn Clock>) {
        let clock = Arc::new(ManualClock::new());
        (Arc::clone(&clock), clock as Arc<dyn Clock>)
    }

    #[test]
    fn matches_stage_pairs_by_sequence() {
        let (manual, clock) = manual();
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(1), clock, &hub);
        let emit = tracer.probe(Stage::PacedEmit);
        let conn = tracer.probe(Stage::ConnectorRecv);
        let apply = tracer.probe(Stage::EngineApply);

        for i in 0..10u64 {
            manual.set_micros(1_000 * i);
            emit.stamp();
            manual.set_micros(1_000 * i + 40);
            conn.stamp();
            // Shards apply out of order but carry the sequence.
            manual.set_micros(1_000 * i + 100);
            apply.stamp_seq(i);
        }
        let report = tracer.stop();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.evicted, 0);
        // Two pairs complete per event: emit→connector and
        // connector→apply.
        assert_eq!(report.matched, 20);
        let e2c: Vec<&MetricRecord> = report
            .records
            .iter()
            .filter(|r| r.metric == "emit_to_connector_micros")
            .collect();
        assert_eq!(e2c.len(), 10);
        for r in &e2c {
            assert_eq!(r.source, TRACE_SOURCE);
            assert_eq!(r.value.as_f64(), Some(40.0));
        }
        let c2a = report
            .records
            .iter()
            .filter(|r| r.metric == "connector_to_apply_micros")
            .count();
        assert_eq!(c2a, 10);
        // The hub histograms saw the same samples (live L1 publication).
        let hist = hub.histogram("emit_to_connector_micros").snapshot();
        assert_eq!(hist.count, 10);
        assert_eq!(hist.max, 40);
    }

    #[test]
    fn sampling_stamps_the_same_events_at_every_stage() {
        let (_, clock) = manual();
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(16), clock, &hub);
        let emit = tracer.probe(Stage::PacedEmit);
        let conn = tracer.probe(Stage::ConnectorRecv);
        // Emit stamps in mixed batch sizes, the connector one by one: the
        // sampled sequence set must still be identical.
        emit.stamp_n(10);
        emit.stamp_n(30);
        for _ in 0..60 {
            emit.stamp();
        }
        for _ in 0..100 {
            conn.stamp();
        }
        let report = tracer.stop();
        // Sampled seqs: 0, 16, …, 96 → 7 matched pairs.
        let pairs: Vec<&MetricRecord> = report
            .records
            .iter()
            .filter(|r| r.metric == "emit_to_connector_micros")
            .collect();
        assert_eq!(pairs.len(), 7, "expected 7 sampled events");
        assert_eq!(report.matched, 7);
    }

    #[test]
    fn unmatched_stages_report_nothing() {
        let (_, clock) = manual();
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(1), clock, &hub);
        let emit = tracer.probe(Stage::PacedEmit);
        emit.stamp_n(50);
        let report = tracer.stop();
        assert_eq!(report.matched, 0);
        assert!(report.records.is_empty());
        assert_eq!(hub.histogram("emit_to_connector_micros").count(), 0);
    }

    #[test]
    fn late_probes_are_picked_up() {
        // A platform worker registers its probe only after the run (and
        // the collector) started — the lazy TracerCell path.
        let (_, clock) = manual();
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(1), clock, &hub);
        let cell = TracerCell::new();
        assert!(cell.probe(Stage::EngineApply).is_none());

        let emit = tracer.probe(Stage::ConnectorRecv);
        emit.stamp_n(8);
        cell.install(&tracer);
        let apply = cell.probe(Stage::EngineApply).expect("installed");
        for seq in 0..8 {
            apply.stamp_seq(seq);
        }
        let report = tracer.stop();
        assert_eq!(report.matched, 8);
    }

    /// The collector's match state fed directly, stamp by stamp.
    fn pair_histograms(hub: &MetricsHub) -> Vec<Histogram> {
        PAIR_METRICS
            .iter()
            .map(|(_, _, name)| hub.histogram(name))
            .collect()
    }

    #[test]
    fn pending_cap_evicts_oldest() {
        let hists = pair_histograms(&MetricsHub::new());
        let (mut pending, mut report) = (BTreeMap::new(), TraceReport::default());
        // Forever-unmatched stamps past the cap: the pending map must stay
        // bounded, evicting the oldest.
        let stage = Stage::PacedEmit.index();
        let stamps = MAX_PENDING as u64 + 100;
        for seq in 0..stamps {
            ingest(&mut pending, &mut report, &hists, stage, seq, 0);
        }
        assert_eq!(pending.len(), MAX_PENDING);
        assert_eq!(pending.first_key_value().map(|(seq, _)| *seq), Some(100));
        assert_eq!((report.evicted, report.matched), (100, 0));
    }

    #[test]
    fn record_cap_truncates_but_histograms_keep_counting() {
        let hub = MetricsHub::new();
        let hists = pair_histograms(&hub);
        let (mut pending, mut report) = (BTreeMap::new(), TraceReport::default());
        let pairs = MAX_RECORDS as u64 + 10;
        for seq in 0..pairs {
            ingest(
                &mut pending,
                &mut report,
                &hists,
                Stage::PacedEmit.index(),
                seq,
                0,
            );
            ingest(
                &mut pending,
                &mut report,
                &hists,
                Stage::ConnectorRecv.index(),
                seq,
                1,
            );
        }
        assert_eq!(report.matched, pairs);
        assert_eq!(report.records.len(), MAX_RECORDS);
        assert_eq!(report.truncated, 10);
        assert_eq!(hub.histogram("emit_to_connector_micros").count(), pairs);
    }

    #[test]
    fn stop_is_idempotent_across_clones() {
        let (_, clock) = manual();
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default(), clock, &hub);
        let clone = tracer.clone();
        let _ = tracer.stop();
        let second = clone.stop();
        assert_eq!(second.matched, 0);
        assert!(second.records.is_empty());
    }

    // Wall-clock overhead guard: run by the dedicated CI timing job
    // (`cargo test --release -- --ignored`). The precise < 5% ingest
    // budget is measured by the benchmark's `trace_overhead_frac`; this
    // assertion is deliberately generous so shared runners don't flake.
    #[test]
    #[ignore = "wall-clock timing; run via the CI timing job"]
    fn sampled_tracing_overhead_stays_bounded() {
        use std::hint::black_box;
        use std::time::Instant;
        const EVENTS: u64 = 2_000_000;

        // Baseline: the per-event work of a dispatch loop without
        // tracing (a counter bump the optimizer cannot elide).
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..EVENTS {
            acc = acc.wrapping_add(black_box(i));
        }
        let baseline = start.elapsed();
        black_box(acc);

        let clock: Arc<dyn Clock> = Arc::new(gt_metrics::WallClock::start());
        let hub = MetricsHub::new();
        let tracer = Tracer::new(TraceConfig::default().sampling(64), clock, &hub);
        let probe = tracer.probe(Stage::PacedEmit);
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..EVENTS {
            acc = acc.wrapping_add(black_box(i));
            probe.stamp();
        }
        let traced = start.elapsed();
        black_box(acc);
        tracer.stop();

        // The absolute per-event cost is what the 5% ingest budget is
        // about: at 1-in-64 sampling a stamp must stay in the
        // few-nanosecond range (5% of the ~100 ns/event connector path).
        let per_event_nanos =
            (traced.as_nanos().saturating_sub(baseline.as_nanos())) as f64 / EVENTS as f64;
        assert!(
            per_event_nanos < 25.0,
            "sampled stamp costs {per_event_nanos:.1} ns/event (budget 25 ns)"
        );
    }
}
