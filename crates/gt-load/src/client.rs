//! One load client driving one connection under an explicit loop model.
//!
//! A client paces a substream into an [`EventSink`] (normally a
//! [`gt_replayer::TcpSink`] into the SUT-side listener) and runs on the
//! thread that calls it — it starts none of its own. Its entries come
//! from a slice ([`run_client`]) or, in a load run, from its queue of the
//! routing pass ([`crate::feed`]), a chunk at a time; its arrivals are
//! drawn as events are routed to it. How it couples arrivals to sink
//! progress is the [`LoopModel`]:
//!
//! * **open**: arrivals are the seeded [`ArrivalSchedule`], a pure
//!   function of the plan, so nothing has to "generate" them: the loop
//!   reads the clock, writes every event whose arrival has passed (in
//!   bursts), flushes, and charges each event `completion − scheduled
//!   arrival` as its *sojourn*. A stalled sink delays the loop but not
//!   the schedule: events that fell due meanwhile are the counted
//!   backlog, and their sojourn charges the stall to the SUT.
//! * **closed**: send, flush (the "ack"), then wait out the schedule's
//!   think time before the next send. A stalled sink stalls the client —
//!   offered load collapses, which is exactly the coordinated omission
//!   the open-loop model exists to expose.
//! * **partial open**: open loop until `window` events are outstanding;
//!   event `i` then arrives at `max(target_i, done_{i−window})`, so the
//!   schedule slips to the completion of its window predecessor.
//!
//! A client's schedule starts when its first entries are in hand. A wait
//! for entries after that, while an arrival is due, is the feed's fault,
//! not the sink's: it is counted apart ([`ClientReport::feed_stall_micros`]).

use std::io;
use std::sync::Arc;

use gt_core::prelude::*;
use gt_metrics::Clock;
use gt_replayer::pattern::RatePattern;
use gt_replayer::EventSink;

use crate::feed::FeedQueue;
use crate::model::LoopModel;
use crate::schedule::{ArrivalSchedule, Arrivals};

/// Maximum events one burst writes before flushing and stamping
/// completions — bounds both syscall rate and ack granularity.
const WRITE_BURST: usize = 256;

/// Configuration of one load client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client-class label (reported per class in the analysis).
    pub class: String,
    /// Arrival/ack coupling model.
    pub model: LoopModel,
    /// Offered rate of this connection, graph events per second.
    pub rate: f64,
    /// Seed of the Poisson arrival schedule.
    pub seed: u64,
    /// Draw Poisson arrivals (default); `false` paces uniformly.
    pub poisson: bool,
    /// Rate-variability shape (§4.4): the intensity this client's Poisson
    /// arrivals follow over time. [`RatePattern::Uniform`] is constant
    /// intensity; ignored by uniform (non-Poisson) pacing.
    pub pattern: RatePattern,
}

impl ClientConfig {
    /// A client of the given class, model, per-connection rate and seed,
    /// with Poisson arrivals.
    pub fn new(class: impl Into<String>, model: LoopModel, rate: f64, seed: u64) -> Self {
        ClientConfig {
            class: class.into(),
            model,
            rate,
            seed,
            poisson: true,
            pattern: RatePattern::Uniform,
        }
    }

    /// Shapes this client's arrival intensity by a rate pattern
    /// (builder style).
    #[must_use]
    pub(crate) fn with_pattern(mut self, pattern: RatePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// This client's arrival process, drawn lazily.
    fn arrivals(&self) -> Arrivals {
        if !self.poisson {
            return Arrivals::uniform(self.rate);
        }
        match self.pattern {
            RatePattern::Uniform => Arrivals::poisson(self.rate, self.seed),
            ref shaped => Arrivals::patterned(self.rate, self.seed, shaped.compile(self.seed)),
        }
    }

    /// The arrival schedule this client will emit for `events` graph
    /// events — a pure function of the config, never of the SUT.
    pub fn schedule(&self, events: usize) -> ArrivalSchedule {
        ArrivalSchedule::first(self.arrivals(), events)
    }
}

/// What one client did: counts, backlog, and per-event sojourn samples.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Client-class label.
    pub class: String,
    /// The model the client ran.
    pub model: LoopModel,
    /// Graph events whose arrival fell due (offered load).
    pub offered: u64,
    /// Graph events whose write into the sink completed.
    pub sent: u64,
    /// Largest number of arrived-but-unwritten events seen at a clock
    /// reading, among the events routed to the client so far.
    pub backlog_peak: u64,
    /// The arrivals the client offered, microsecond offsets from client
    /// start: in open loop the seeded schedule itself, whatever the
    /// sink did (the coordinated-omission guard compares this across sink
    /// behaviours); slipped arrivals in partial-open, send times in
    /// closed loop.
    pub schedule_micros: Vec<u64>,
    /// Per-event `(completion t_micros on the run clock, sojourn_micros)`
    /// samples; sojourn is write completion minus scheduled arrival.
    pub sojourn: Vec<(u64, u64)>,
    /// Time the client waited for entries while an arrival was due,
    /// microseconds: the routing pass fell behind this client (0 for a
    /// client paced from a slice).
    pub feed_stall_micros: u64,
    /// Run-clock time the client started, microseconds.
    pub started_micros: u64,
    /// Run-clock time the client finished, microseconds.
    pub finished_micros: u64,
}

impl ClientReport {
    /// Offered rate over the client's lifetime, events per second.
    pub fn offered_rate(&self) -> f64 {
        let span = self.finished_micros.saturating_sub(self.started_micros);
        if span == 0 {
            return 0.0;
        }
        self.offered as f64 / (span as f64 / 1e6)
    }
}

/// Where a client's entries come from, a chunk at a time.
pub(crate) trait Feed {
    /// The current chunk.
    fn chunk(&self) -> &[StreamEntry];

    /// Graph events routed to the feed so far: handed out, in hand or
    /// queued. Never below the events handed out, so every event in hand
    /// has its arrival drawn.
    fn events(&self) -> usize;

    /// Moves to the next chunk; `false` at the end of the stream.
    /// `before_wait` runs if the call is about to block for it.
    fn refill(&mut self, before_wait: impl FnOnce()) -> bool;
}

/// A whole slice as one chunk.
struct Whole<'a> {
    rest: Option<&'a [StreamEntry]>,
    chunk: &'a [StreamEntry],
    events: usize,
}

impl Feed for Whole<'_> {
    fn chunk(&self) -> &[StreamEntry] {
        self.chunk
    }

    fn events(&self) -> usize {
        self.events
    }

    fn refill(&mut self, _before_wait: impl FnOnce()) -> bool {
        self.chunk = self.rest.take().unwrap_or_default();
        !self.chunk.is_empty()
    }
}

impl Feed for FeedQueue {
    fn chunk(&self) -> &[StreamEntry] {
        FeedQueue::chunk(self)
    }

    fn events(&self) -> usize {
        self.routed_events() as usize
    }

    fn refill(&mut self, before_wait: impl FnOnce()) -> bool {
        FeedQueue::refill(self, before_wait)
    }
}

/// Runs one client to completion: emits `entries` into `sink` under the
/// configured loop model, measuring against `clock`.
///
/// Graph events are paced by the client's [`ArrivalSchedule`]; markers
/// and control events ride along in stream position. The returned report
/// carries the offered schedule (for the coordinated-omission guard) and
/// per-event sojourn samples.
pub fn run_client(
    entries: &[StreamEntry],
    config: &ClientConfig,
    sink: Box<dyn EventSink + Send>,
    clock: Arc<dyn Clock>,
) -> io::Result<ClientReport> {
    let feed = Whole {
        rest: Some(entries),
        chunk: &[],
        events: entries.iter().filter(|e| e.is_graph()).count(),
    };
    drive(feed, config, sink, clock)
}

/// Runs one client to completion over the entries of `feed`.
pub(crate) fn drive(
    feed: impl Feed,
    config: &ClientConfig,
    sink: Box<dyn EventSink + Send>,
    clock: Arc<dyn Clock>,
) -> io::Result<ClientReport> {
    match config.model {
        LoopModel::Open => run_scheduled(feed, config, None, sink, clock),
        // A zero window could never admit an event; treat it as one.
        LoopModel::PartialOpen { window } => {
            run_scheduled(feed, config, Some(window.max(1)), sink, clock)
        }
        LoopModel::Closed => run_closed(feed, config, sink, clock),
    }
}

/// A client's per-event record: its arrivals or send times, its sojourn
/// samples, and its wait on the feed.
struct Ledger {
    draws: Arrivals,
    schedule: Vec<u64>,
    sojourn: Vec<(u64, u64)>,
    feed_stall: u64,
}

impl Ledger {
    fn new(config: &ClientConfig) -> Self {
        Ledger {
            draws: config.arrivals(),
            schedule: Vec::new(),
            sojourn: Vec::new(),
            feed_stall: 0,
        }
    }

    /// Makes room in both vectors for `events` events in all. A full
    /// vector grows by an eighth, not twice over: these are the client's
    /// only per-event memory. A slice, whose count is known at the start,
    /// sizes them exactly.
    fn make_room(&mut self, events: usize) {
        fn grow<T>(v: &mut Vec<T>, to: usize) {
            if v.capacity() < to {
                v.reserve_exact((to - v.len()).max(v.len() / 8));
            }
        }
        grow(&mut self.schedule, events);
        grow(&mut self.sojourn, events);
    }

    /// Draws the arrivals of the events routed to `feed`.
    fn draw(&mut self, feed: &impl Feed) {
        let events = feed.events();
        if let Some(more) = events.checked_sub(self.schedule.len()).filter(|&n| n > 0) {
            self.make_room(events);
            self.draws.draw_into(&mut self.schedule, more);
        }
    }

    /// The target offset of the next event to write, drawn ahead when its
    /// event has not been routed yet.
    fn next_arrival(&mut self) -> u64 {
        match self.schedule.get(self.sojourn.len()) {
            Some(&offset) => offset,
            None => self.draws.peek(),
        }
    }

    /// Moves `feed` to its next chunk; `false` at the end of the stream. A
    /// wait for the chunk past `due_micros` (an arrival that fell due) is
    /// feed stall.
    fn refill(&mut self, feed: &mut impl Feed, clock: &dyn Clock, due_micros: u64) -> bool {
        let mut waited_from = None;
        let more = feed.refill(|| waited_from = Some(clock.now_micros()));
        if let Some(from) = waited_from {
            self.feed_stall += clock.now_micros().saturating_sub(from.max(due_micros));
        }
        more
    }

    fn report(self, config: &ClientConfig, backlog_peak: usize, t0: u64, t1: u64) -> ClientReport {
        ClientReport {
            class: config.class.clone(),
            model: config.model,
            offered: self.schedule.len() as u64,
            sent: self.sojourn.len() as u64,
            backlog_peak: backlog_peak as u64,
            schedule_micros: self.schedule,
            sojourn: self.sojourn,
            feed_stall_micros: self.feed_stall,
            started_micros: t0,
            finished_micros: t1,
        }
    }
}

/// Open and partial-open (`window`) loop: each turn reads the clock,
/// writes the graph events that have arrived by then as one burst, and
/// stamps them after the flush; with nothing arrived it waits for the
/// next arrival. Markers and control entries go out in stream position,
/// alone between two flushes.
fn run_scheduled(
    mut feed: impl Feed,
    config: &ClientConfig,
    window: Option<usize>,
    mut sink: Box<dyn EventSink + Send>,
    clock: Arc<dyn Clock>,
) -> io::Result<ClientReport> {
    sink.open()?;
    // `ledger.schedule` holds the arrival offsets from `t0` of the events
    // the feed has had so far, by event index: those written, those in
    // hand and those still queued. Open loop only reads them;
    // partial-open raises an entry when its window predecessor completed
    // after the event's target. `ledger.sojourn` holds one `(completion,
    // sojourn)` per written event, so its length is also the index of
    // the next event to write.
    let mut ledger = Ledger::new(config);
    let mut live = ledger.refill(&mut feed, &*clock, u64::MAX);
    let t0 = clock.now_micros();
    let mut pos = 0; // next entry of the chunk
    let mut due = 0; // events whose target has passed
    let mut backlog_peak = 0;
    while live {
        let Some(entry) = feed.chunk().get(pos) else {
            let next = t0 + ledger.next_arrival();
            live = ledger.refill(&mut feed, &*clock, next);
            pos = 0;
            continue;
        };
        if !entry.is_graph() {
            sink.flush()?;
            sink.send(entry)?;
            sink.flush()?;
            pos += 1;
            continue;
        }
        ledger.draw(&feed);
        let Ledger {
            schedule: arrivals,
            sojourn,
            ..
        } = &mut ledger;
        let first = sojourn.len();
        let now = clock.now_micros();
        due += arrivals[due..].partition_point(|&offset| t0 + offset <= now);
        // Partial open: event `i` cannot arrive before event `i − window`
        // completed, and nothing past `first` has.
        let arrived = window.map_or(due, |window| due.min(first + window));
        backlog_peak = backlog_peak.max(arrived - first);
        if arrived == first {
            clock.wait_until(t0 + arrivals[first]);
            continue;
        }
        let burst_end = arrived.min(first + WRITE_BURST);
        let mut next = first;
        while next < burst_end {
            match feed.chunk().get(pos) {
                Some(entry) if entry.is_graph() => sink.send(entry)?,
                _ => break,
            }
            next += 1;
            pos += 1;
        }
        sink.flush()?;
        // The flush completed: every event of the burst is in the sink.
        let done = clock.now_micros();
        for (i, arrival) in (first..next).zip(&mut arrivals[first..next]) {
            if let Some(predecessor) = window.and_then(|window| i.checked_sub(window)) {
                *arrival = (*arrival).max(sojourn[predecessor].0.saturating_sub(t0));
            }
            sojourn.push((done, done.saturating_sub(t0 + *arrival)));
        }
    }
    sink.close()?;
    let finished = clock.now_micros();
    Ok(ledger.report(config, backlog_peak, t0, finished))
}

fn run_closed(
    mut feed: impl Feed,
    config: &ClientConfig,
    mut sink: Box<dyn EventSink + Send>,
    clock: Arc<dyn Clock>,
) -> io::Result<ClientReport> {
    sink.open()?;
    let mut ledger = Ledger::new(config);
    let mut live = ledger.refill(&mut feed, &*clock, u64::MAX);
    ledger.make_room(feed.events());
    let t0 = clock.now_micros();
    let mut pos = 0;
    let mut earliest_send = t0;
    let mut previous = 0; // the schedule's last offset
    while live {
        let Some(entry) = feed.chunk().get(pos) else {
            live = ledger.refill(&mut feed, &*clock, earliest_send);
            ledger.make_room(feed.events());
            pos = 0;
            continue;
        };
        pos += 1;
        if !entry.is_graph() {
            sink.flush()?;
            sink.send(entry)?;
            sink.flush()?;
            continue;
        }
        // Think time: the schedule's inter-arrival gap, measured from the
        // previous completion (send-after-ack).
        clock.wait_until(earliest_send);
        let sent_at = clock.now_micros();
        ledger.schedule.push(sent_at - t0);
        sink.send(entry)?;
        sink.flush()?;
        let done = clock.now_micros();
        ledger.sojourn.push((done, done.saturating_sub(sent_at)));
        let offset = ledger.draws.next().expect("arrivals never end");
        earliest_send = done + (offset - previous);
        previous = offset;
    }
    sink.close()?;
    let finished = clock.now_micros();
    Ok(ledger.report(config, 0, t0, finished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::{ManualClock, WallClock};
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;

    /// A sink recording entries, optionally stalling on the Nth flush.
    struct TestSink {
        entries: Arc<Mutex<Vec<StreamEntry>>>,
        stall_at_event: Option<u64>,
        stall: Duration,
        seen: u64,
        stalled: bool,
    }

    impl TestSink {
        fn new(entries: Arc<Mutex<Vec<StreamEntry>>>) -> Self {
            TestSink {
                entries,
                stall_at_event: None,
                stall: Duration::ZERO,
                seen: 0,
                stalled: false,
            }
        }

        fn stalling(mut self, at_event: u64, stall: Duration) -> Self {
            self.stall_at_event = Some(at_event);
            self.stall = stall;
            self
        }
    }

    impl EventSink for TestSink {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            if entry.is_graph() {
                self.seen += 1;
                if !self.stalled && Some(self.seen) == self.stall_at_event {
                    self.stalled = true;
                    thread::sleep(self.stall);
                }
            }
            self.entries.lock().unwrap().push(entry.clone());
            Ok(())
        }
    }

    fn stream_entries(n: u64) -> Vec<StreamEntry> {
        let mut entries = vec![StreamEntry::marker("start")];
        for i in 0..n {
            entries.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            }));
        }
        entries.push(StreamEntry::marker("end"));
        entries
    }

    fn run(model: LoopModel, entries: &[StreamEntry], sink: TestSink) -> ClientReport {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let config = ClientConfig::new("test", model, 20_000.0, 7);
        run_client(entries, &config, Box::new(sink), clock).unwrap()
    }

    #[test]
    fn open_loop_delivers_everything_in_order() {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let entries = stream_entries(200);
        let report = run(
            LoopModel::Open,
            &entries,
            TestSink::new(Arc::clone(&delivered)),
        );
        assert_eq!(report.offered, 200);
        assert_eq!(report.sent, 200);
        assert_eq!(report.sojourn.len(), 200);
        let delivered = delivered.lock().unwrap();
        assert_eq!(delivered.as_slice(), &entries[..], "order preserved");
    }

    #[test]
    fn open_loop_offered_survives_a_stall_and_sojourn_spikes() {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let entries = stream_entries(400);
        let stall = Duration::from_millis(200);
        let report = run(
            LoopModel::Open,
            &entries,
            TestSink::new(Arc::clone(&delivered)).stalling(50, stall),
        );
        assert_eq!(report.offered, 400, "open loop keeps offering under stall");
        assert_eq!(report.sent, 400);
        assert!(
            report.backlog_peak > 10,
            "stall must grow a counted backlog, saw {}",
            report.backlog_peak
        );
        let max_sojourn = report.sojourn.iter().map(|&(_, s)| s).max().unwrap();
        assert!(
            max_sojourn >= 150_000,
            "queued events must be charged the stall, max sojourn {max_sojourn}us"
        );
    }

    #[test]
    fn closed_loop_collapses_offered_rate_under_stall() {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let entries = stream_entries(100);
        let stall = Duration::from_millis(200);
        let report = run(
            LoopModel::Closed,
            &entries,
            TestSink::new(Arc::clone(&delivered)).stalling(10, stall),
        );
        assert_eq!(report.offered, 100);
        // 100 events at 20k/s ≈ 5ms nominal; the stall dominates the
        // run, so the achieved offered rate collapses far below nominal.
        assert!(
            report.offered_rate() < 2_000.0,
            "closed loop should slow down with the sink, got {:.0} e/s",
            report.offered_rate()
        );
    }

    #[test]
    fn partial_open_bounds_backlog_at_the_window() {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let entries = stream_entries(300);
        let report = run(
            LoopModel::PartialOpen { window: 16 },
            &entries,
            TestSink::new(Arc::clone(&delivered)).stalling(20, Duration::from_millis(100)),
        );
        assert_eq!(report.offered, 300);
        assert!(
            report.backlog_peak <= 16,
            "window must bound the backlog, saw {}",
            report.backlog_peak
        );
    }

    #[test]
    fn sink_error_propagates() {
        struct FailingSink;
        impl EventSink for FailingSink {
            fn send(&mut self, _entry: &StreamEntry) -> io::Result<()> {
                Err(io::Error::other("boom"))
            }
        }
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let config = ClientConfig::new("test", LoopModel::Open, 50_000.0, 0);
        let err =
            run_client(&stream_entries(50), &config, Box::new(FailingSink), clock).unwrap_err();
        assert_eq!(err.to_string(), "boom");
    }

    // --- The client in virtual time: a `ManualClock` that waits by
    // jumping, and a sink whose flushes cost scripted virtual time. Every
    // value below is exact; nothing sleeps.

    /// What a [`ScriptedSink`] saw, in call order.
    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Send(StreamEntry),
        Flush,
    }

    /// A sink on a [`ManualClock`]: a flush that has graph events to push
    /// advances the clock by `flush_micros` (`stall_micros` instead for the
    /// flush carrying graph event number `stall_at`, 1-based); `fail_at`
    /// makes the send of that graph event fail.
    struct ScriptedSink {
        clock: ManualClock,
        ops: Arc<Mutex<Vec<Op>>>,
        flush_micros: u64,
        stall_at: u64,
        stall_micros: u64,
        fail_at: u64,
        sent: u64,
        flushed: u64,
    }

    impl ScriptedSink {
        fn new(clock: &ManualClock, flush_micros: u64) -> Self {
            ScriptedSink {
                clock: clock.clone(),
                ops: Arc::new(Mutex::new(Vec::new())),
                flush_micros,
                stall_at: 0,
                stall_micros: 0,
                fail_at: 0,
                sent: 0,
                flushed: 0,
            }
        }
    }

    impl EventSink for ScriptedSink {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            if entry.is_graph() {
                self.sent += 1;
                if self.sent == self.fail_at {
                    return Err(io::Error::other("scripted failure"));
                }
            }
            self.ops.lock().unwrap().push(Op::Send(entry.clone()));
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.ops.lock().unwrap().push(Op::Flush);
            if self.sent > self.flushed {
                let stalls = (self.flushed + 1..=self.sent).contains(&self.stall_at);
                self.clock.advance_micros(if stalls {
                    self.stall_micros
                } else {
                    self.flush_micros
                });
                self.flushed = self.sent;
            }
            Ok(())
        }
    }

    /// A uniform 1 000 events/s client: event `i` (0-based) is due at
    /// `(i + 1)` ms.
    fn uniform_config(model: LoopModel) -> ClientConfig {
        let mut config = ClientConfig::new("virtual", model, 1_000.0, 0);
        config.poisson = false;
        config
    }

    fn graph_entries(n: u64) -> Vec<StreamEntry> {
        stream_entries(n)
            .into_iter()
            .filter(StreamEntry::is_graph)
            .collect()
    }

    #[test]
    fn virtual_open_loop_charges_a_scripted_stall_exactly() {
        let manual = ManualClock::new();
        let mut sink = ScriptedSink::new(&manual, 10);
        sink.stall_at = 50;
        sink.stall_micros = 200_000;
        let config = uniform_config(LoopModel::Open);
        let report = run_client(
            &graph_entries(300),
            &config,
            Box::new(sink),
            Arc::new(manual),
        )
        .unwrap();

        assert_eq!(report.offered, 300, "offered is the schedule, stall or not");
        assert_eq!(report.sent, 300);
        assert_eq!(
            report.schedule_micros.as_slice(),
            config.schedule(300).offsets_micros()
        );
        // Events 1..=49 go out alone, on time, each flush costing 10 us.
        // Event 50's flush takes 200 ms: it completes at 250 000. Events
        // 51..=250 fell due meanwhile and leave as one burst completing at
        // 250 010, each charged its whole wait; 251.. are on time again.
        let expected: Vec<(u64, u64)> = (1..=300u64)
            .map(|i| match i {
                1..=49 => (i * 1_000 + 10, 10),
                50 => (250_000, 200_000),
                51..=250 => (250_010, 250_010 - i * 1_000),
                _ => (i * 1_000 + 10, 10),
            })
            .collect();
        assert_eq!(report.sojourn, expected);
        assert_eq!(report.backlog_peak, 200, "the events due during the stall");
        assert_eq!(report.finished_micros, 300_010);
    }

    #[test]
    fn virtual_partial_open_slips_arrivals_to_the_window_predecessor() {
        const WINDOW: usize = 8;
        let manual = ManualClock::new();
        let mut sink = ScriptedSink::new(&manual, 10);
        sink.stall_at = 20;
        sink.stall_micros = 100_000;
        let config = uniform_config(LoopModel::PartialOpen { window: WINDOW });
        let report = run_client(
            &graph_entries(200),
            &config,
            Box::new(sink),
            Arc::new(manual),
        )
        .unwrap();

        assert_eq!(report.offered, 200);
        assert_eq!(report.sent, 200);
        assert!(report.backlog_peak <= WINDOW as u64);
        assert_eq!(report.backlog_peak, WINDOW as u64, "the stall fills it");
        let targets = config.schedule(200);
        let targets = targets.offsets_micros();
        let mut slipped = 0;
        for (i, &target) in targets.iter().enumerate() {
            // arrival_i = max(target_i, done_{i-W}), on the client's clock
            // (which started at 0), and sojourn_i = done_i - arrival_i.
            let arrival = match i.checked_sub(WINDOW) {
                Some(predecessor) => target.max(report.sojourn[predecessor].0),
                None => target,
            };
            assert_eq!(report.schedule_micros[i], arrival, "event {i}");
            assert_eq!(report.sojourn[i].1, report.sojourn[i].0 - arrival);
            slipped += usize::from(arrival > target);
        }
        // 100 ms of stall at 1 event/ms: about a hundred arrivals slip,
        // and the tail is back on the precomputed schedule.
        assert!((90..=110).contains(&slipped), "{slipped} arrivals slipped");
        assert_eq!(report.schedule_micros[199], targets[199]);
    }

    // A client paced from its routing-pass queue is the client paced from
    // a slice, in every model: same schedule, sojourn samples and backlog
    // under a scripted stall, and no feed stall (the whole stream is
    // queued before the client starts).
    #[test]
    fn virtual_queue_fed_client_equals_the_slice_fed_client() {
        let mut entries = graph_entries(300);
        entries.insert(120, StreamEntry::marker("mid"));
        let source = GraphStream::from_entries(entries.clone());
        let run = |model: LoopModel, queued: bool| {
            let manual = ManualClock::new();
            let mut sink = ScriptedSink::new(&manual, 10);
            sink.stall_at = 50;
            sink.stall_micros = 200_000;
            let config = uniform_config(model);
            let (sink, clock) = (Box::new(sink), Arc::new(manual));
            if !queued {
                return run_client(&entries, &config, sink, clock).unwrap();
            }
            let (router, mut queues) = crate::Router::new(crate::SeededPartitioner::new(1, 0));
            router.route((&source).into()).unwrap();
            drive(queues.remove(0), &config, sink, clock).unwrap()
        };
        for model in [
            LoopModel::Open,
            LoopModel::PartialOpen { window: 8 },
            LoopModel::Closed,
        ] {
            let (slice, queue) = (run(model, false), run(model, true));
            assert_eq!(queue.schedule_micros, slice.schedule_micros, "{model}");
            assert_eq!(queue.sojourn, slice.sojourn, "{model}");
            assert_eq!(queue.backlog_peak, slice.backlog_peak, "{model}");
            assert_eq!(queue.feed_stall_micros, 0, "{model}");
            assert_eq!(queue.finished_micros, slice.finished_micros, "{model}");
        }
        assert_eq!(run(LoopModel::Open, true).backlog_peak, 200);
    }

    #[test]
    fn virtual_markers_keep_stream_position_between_two_flushes() {
        let manual = ManualClock::new();
        let mut entries = stream_entries(6);
        entries.insert(4, StreamEntry::marker("mid"));
        // A 3.5 ms stall on the first event makes 2..=4 fall due together:
        // the burst must still end at "mid", not run through it.
        let mut sink = ScriptedSink::new(&manual, 10);
        sink.stall_at = 1;
        sink.stall_micros = 3_500;
        let ops = Arc::clone(&sink.ops);
        run_client(
            &entries,
            &uniform_config(LoopModel::Open),
            Box::new(sink),
            Arc::new(manual),
        )
        .unwrap();

        // One letter per sink call: `e` an event, `m` a marker, `F` a flush
        // (the last one is `close`). Events 2 and 3 share a burst that ends
        // at "mid"; event 4, due as well, waits behind the marker.
        let calls: String = ops
            .lock()
            .unwrap()
            .iter()
            .map(|op| match op {
                Op::Send(entry) if entry.is_graph() => 'e',
                Op::Send(_) => 'm',
                Op::Flush => 'F',
            })
            .collect();
        assert_eq!(calls, "FmFeFeeFFmFeFeFeFFmFF");
        let sent: Vec<StreamEntry> = ops
            .lock()
            .unwrap()
            .iter()
            .filter_map(|op| match op {
                Op::Send(entry) => Some(entry.clone()),
                Op::Flush => None,
            })
            .collect();
        assert_eq!(sent, entries, "stream order");
    }

    #[test]
    fn virtual_sink_error_mid_burst_is_the_clients_error() {
        let manual = ManualClock::new();
        let mut sink = ScriptedSink::new(&manual, 10);
        // Event 1's flush stalls 5 ms, so events 2..=6 form one burst;
        // its third send fails.
        sink.stall_at = 1;
        sink.stall_micros = 5_500;
        sink.fail_at = 4;
        let ops = Arc::clone(&sink.ops);
        let err = run_client(
            &graph_entries(20),
            &uniform_config(LoopModel::Open),
            Box::new(sink),
            Arc::new(manual),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "scripted failure");
        let sends = ops
            .lock()
            .unwrap()
            .iter()
            .filter(|op| matches!(op, Op::Send(_)))
            .count();
        assert_eq!(sends, 3, "nothing is sent past the failure");
    }

    /// CPU time the calling thread has used, nanoseconds.
    #[cfg(target_os = "linux")]
    fn thread_cpu_nanos() -> u64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) and the clock id is a kernel constant.
        assert_eq!(
            unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) },
            0
        );
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    /// One client of `store-tcp-150k` (75k events/s, open loop) on the
    /// wall clock: its events must leave on schedule while the client
    /// thread sleeps through part of each gap instead of spinning it.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "wall-clock pacing precision and CPU; run via the CI timing job"]
    fn open_loop_client_at_75k_is_on_time_without_a_core_of_spin() {
        struct CountingSink(u64);
        impl EventSink for CountingSink {
            fn send(&mut self, _entry: &StreamEntry) -> io::Result<()> {
                self.0 += 1;
                Ok(())
            }
        }
        const RATE: u64 = 75_000;
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let config = ClientConfig::new("guard", LoopModel::Open, RATE as f64, 7);
        let cpu_start = thread_cpu_nanos();
        let report = run_client(
            &graph_entries(RATE),
            &config,
            Box::new(CountingSink(0)),
            clock,
        )
        .unwrap();
        let cpu = thread_cpu_nanos() - cpu_start;
        assert_eq!(report.sent, RATE);
        let on_time = report.sojourn.iter().filter(|&&(_, s)| s <= 5_000).count();
        let on_time_frac = on_time as f64 / report.sojourn.len() as f64;
        let wall = (report.finished_micros - report.started_micros) * 1_000;
        let cpu_frac = cpu as f64 / wall as f64;
        println!(
            "on time (<= 5 ms) {on_time_frac:.5}, client thread CPU {:.0} % of wall",
            cpu_frac * 100.0
        );
        assert!(on_time_frac >= 0.999, "on-time fraction {on_time_frac}");
        assert!(
            cpu_frac < 0.9,
            "client thread CPU {:.0} % of wall",
            cpu_frac * 100.0
        );
    }
}
