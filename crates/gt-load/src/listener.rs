//! The SUT-side multi-connection listener.
//!
//! The TCP front-end of load runs: a nonblocking accept loop admits N
//! client connections, one reader thread per connection parses the line
//! protocol and feeds a *per-connection* platform connector through the
//! batched [`EventSink`] path, and a marker barrier re-establishes the
//! total marker order the single connection used to provide for free.
//!
//! # Marker ordering
//!
//! The load partitioner broadcasts every marker to every substream, so
//! each connection carries the same marker sequence interleaved with its
//! share of the graph events. When a reader hits its k-th marker it
//! flushes its connector (everything it streamed before the marker is
//! now in the platform) and arrives at barrier k; the last arriver
//! forwards the marker — exactly once — through a dedicated control
//! connector and releases the others. No event that follows marker k on
//! any connection is delivered before marker k itself: the platform's
//! existing sequencer therefore sees markers totally ordered against all
//! events, exactly as in single-connection replay. Connections that
//! disconnect early are excused from later barriers; a connection whose
//! k-th marker name disagrees with the sequence is counted as a marker
//! violation.

use std::io::{self, BufReader};
use std::mem;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use gt_core::event::refill;
use gt_core::prelude::*;
use gt_metrics::Clock;
use gt_replayer::EventSink;

/// How a listener builds one platform connector per accepted connection.
pub(crate) type ConnectorFn = Box<dyn FnMut() -> io::Result<Box<dyn EventSink + Send>> + Send>;

/// Events per batch handed to a connector's [`EventSink::send_batch`].
const READER_BATCH: usize = 64;

/// Connection-lifecycle tuning for a load listener.
///
/// The defaults are generous enough that healthy runs never trip them; they
/// exist so a partitioned or killed client degrades typed — a
/// `connections_lost` counter plus a degradation record — instead of wedging
/// the marker barrier or the reader join forever.
#[derive(Debug, Clone, Copy)]
pub struct ListenerConfig {
    /// Per-read socket timeout; the granularity at which readers notice
    /// stalls and stop requests.
    pub read_timeout: Duration,
    /// Continuous idle time after which a reader counts one stall episode.
    pub stall_warn: Duration,
    /// Continuous idle time after which a reader gives its connection up
    /// for dead.
    pub stall_limit: Duration,
    /// How long an arrived reader waits at a marker barrier before the
    /// laggards are excused and the marker quorum-forwards.
    pub barrier_deadline: Duration,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            read_timeout: Duration::from_millis(100),
            stall_warn: Duration::from_secs(1),
            stall_limit: Duration::from_secs(10),
            barrier_deadline: Duration::from_secs(15),
        }
    }
}

/// What the listener saw over a whole run.
#[derive(Debug, Clone, Default)]
pub struct ListenerReport {
    /// Connections accepted.
    pub connections: u64,
    /// Stream entries parsed across all connections.
    pub entries: u64,
    /// Graph events delivered to connectors.
    pub graph_events: u64,
    /// Lines that failed to parse (counted, not fatal).
    pub parse_errors: u64,
    /// Markers forwarded, in delivery order, with run-clock timestamps.
    pub markers: Vec<(String, u64)>,
    /// Marker-sequence disagreements between connections.
    pub marker_violations: u64,
    /// Connections excused from the run after dying, stalling past the
    /// stall limit, or holding a marker barrier past its deadline.
    pub connections_lost: u64,
    /// Stall episodes (continuous idle past `stall_warn`) across readers.
    pub reader_stalls: u64,
    /// Typed degradations, `(description, t_micros)` in occurrence order.
    pub degradations: Vec<(String, u64)>,
}

/// Shared marker-barrier state.
struct BarrierInner {
    /// Markers each connection has announced.
    reached: Vec<u64>,
    /// Whether each connection is still reading.
    active: Vec<bool>,
    /// Markers forwarded to the control connector so far.
    delivered: u64,
    /// The marker-name sequence, as first announced.
    names: Vec<String>,
    /// Name disagreements seen.
    violations: u64,
    /// `(name, t_micros)` per forwarded marker.
    log: Vec<(String, u64)>,
    /// Set when the control connector failed; readers give up waiting.
    poisoned: bool,
    /// Connections excused after dying or stalling.
    lost: u64,
    /// Per-connection flag: already counted in `lost` (prevents a stall
    /// give-up after a deadline excusal from double-counting).
    lost_counted: Vec<bool>,
    /// Typed degradation records, `(description, t_micros)`.
    degradations: Vec<(String, u64)>,
}

struct Barrier {
    inner: Mutex<BarrierInner>,
    cond: Condvar,
    control: Mutex<Box<dyn EventSink + Send>>,
    clock: Arc<dyn Clock>,
    /// Max wait at one barrier before laggards are excused.
    deadline: Duration,
}

impl Barrier {
    fn new(
        connections: usize,
        control: Box<dyn EventSink + Send>,
        clock: Arc<dyn Clock>,
        deadline: Duration,
    ) -> Self {
        Barrier {
            inner: Mutex::new(BarrierInner {
                reached: vec![0; connections],
                active: vec![true; connections],
                delivered: 0,
                names: Vec::new(),
                violations: 0,
                log: Vec::new(),
                poisoned: false,
                lost: 0,
                lost_counted: vec![false; connections],
                degradations: Vec::new(),
            }),
            cond: Condvar::new(),
            control: Mutex::new(control),
            clock,
            deadline,
        }
    }

    /// Forwards every marker all active connections have passed. Called
    /// with the state lock held; takes the control-sink lock inside.
    fn deliver_ready(&self, inner: &mut BarrierInner) {
        loop {
            let next = inner.delivered;
            if (next as usize) >= inner.names.len() {
                return;
            }
            let all_arrived = inner
                .reached
                .iter()
                .zip(&inner.active)
                .filter(|&(_, active)| *active)
                .all(|(&reached, _)| reached > next);
            if !all_arrived {
                return;
            }
            let name = inner.names[next as usize].clone();
            let marker = StreamEntry::marker(name.clone());
            let mut control = self.control.lock().unwrap();
            let sent = control.send(&marker).and_then(|()| control.flush());
            drop(control);
            if sent.is_err() {
                inner.poisoned = true;
                self.cond.notify_all();
                return;
            }
            inner.log.push((name, self.clock.now_micros()));
            inner.delivered += 1;
            self.cond.notify_all();
        }
    }

    /// Connection `conn` announced its next marker `name`; blocks until
    /// that marker has been forwarded (or the barrier is poisoned).
    fn arrive(&self, conn: usize, name: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.reached[conn] += 1;
        let k = inner.reached[conn];
        if inner.names.len() < k as usize {
            inner.names.push(name.to_owned());
        } else if inner.names[k as usize - 1] != name {
            inner.violations += 1;
        }
        self.deliver_ready(&mut inner);
        while inner.delivered < k && !inner.poisoned {
            let (guard, timeout) = self.cond.wait_timeout(inner, self.deadline).unwrap();
            inner = guard;
            if timeout.timed_out() && inner.delivered < k && !inner.poisoned {
                // Deadline: some active connection never arrived at barrier
                // `delivered + 1`. Excuse the laggards and quorum-forward so
                // the run degrades typed instead of hanging.
                let next = inner.delivered;
                let excused: Vec<usize> = (0..inner.reached.len())
                    .filter(|&i| inner.active[i] && inner.reached[i] <= next)
                    .collect();
                if excused.is_empty() {
                    continue;
                }
                for &i in &excused {
                    inner.active[i] = false;
                    inner.lost += 1;
                    inner.lost_counted[i] = true;
                }
                inner.degradations.push((
                    format!(
                        "barrier_deadline: excused connections {excused:?} \
                         waiting for marker {}",
                        next + 1
                    ),
                    self.clock.now_micros(),
                ));
                self.deliver_ready(&mut inner);
                self.cond.notify_all();
            }
        }
        if inner.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "marker control connector failed",
            ));
        }
        Ok(())
    }

    /// Connection `conn` finished; later barriers no longer wait for it.
    fn leave(&self, conn: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.active[conn] = false;
        self.deliver_ready(&mut inner);
        self.cond.notify_all();
    }

    /// Connection `conn` died or stalled out: excuse it and record a typed
    /// degradation so the run completes with evidence instead of an error.
    fn abandon(&self, conn: usize, reason: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.active[conn] = false;
        if !inner.lost_counted[conn] {
            inner.lost += 1;
            inner.lost_counted[conn] = true;
        }
        inner.degradations.push((
            format!("connection {conn} lost: {reason}"),
            self.clock.now_micros(),
        ));
        self.deliver_ready(&mut inner);
        self.cond.notify_all();
    }

    fn finish(&self) -> BarrierOutcome {
        let mut inner = self.inner.lock().unwrap();
        // Every connection carries every marker, so a connection that ended
        // (even with a clean EOF — which is what a netem kill looks like
        // from this side of the proxy) having announced fewer markers than
        // the stream contains died mid-stream. Count it as lost.
        let total = inner.names.len() as u64;
        for conn in 0..inner.reached.len() {
            if !inner.lost_counted[conn] && inner.reached[conn] < total {
                inner.lost += 1;
                inner.lost_counted[conn] = true;
                let announced = inner.reached[conn];
                inner.degradations.push((
                    format!(
                        "connection {conn} ended early: announced {announced} \
                         of {total} markers"
                    ),
                    self.clock.now_micros(),
                ));
            }
        }
        BarrierOutcome {
            markers: inner.log.clone(),
            violations: inner.violations,
            lost: inner.lost,
            degradations: inner.degradations.clone(),
        }
    }
}

/// What the marker barrier observed over the whole run, drained once at
/// listener shutdown.
struct BarrierOutcome {
    markers: Vec<(String, u64)>,
    violations: u64,
    lost: u64,
    degradations: Vec<(String, u64)>,
}

/// Per-run totals shared by the reader threads.
#[derive(Default)]
struct Totals {
    entries: AtomicU64,
    graph_events: AtomicU64,
    parse_errors: AtomicU64,
    reader_stalls: AtomicU64,
}

/// A bound, not-yet-started multi-connection listener.
pub struct LoadListener {
    listener: TcpListener,
}

impl LoadListener {
    /// Binds on an OS-assigned localhost port.
    pub fn bind() -> io::Result<Self> {
        Ok(LoadListener {
            listener: TcpListener::bind("127.0.0.1:0")?,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop: admits exactly `expected` connections,
    /// building one platform connector per connection via `connect` (plus
    /// one up-front control connector for markers), and returns a handle
    /// to join for the final report.
    pub fn start(
        self,
        expected: usize,
        connect: ConnectorFn,
        clock: Arc<dyn Clock>,
    ) -> io::Result<ListenerHandle> {
        self.start_with_config(expected, connect, clock, ListenerConfig::default())
    }

    /// [`LoadListener::start`] with explicit connection-lifecycle tuning.
    pub fn start_with_config(
        self,
        expected: usize,
        mut connect: ConnectorFn,
        clock: Arc<dyn Clock>,
        config: ListenerConfig,
    ) -> io::Result<ListenerHandle> {
        let control = connect()?;
        let barrier = Arc::new(Barrier::new(
            expected,
            control,
            clock,
            config.barrier_deadline,
        ));
        let totals = Arc::new(Totals::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_barrier = Arc::clone(&barrier);
        let accept_totals = Arc::clone(&totals);
        let listener = self.listener;
        listener.set_nonblocking(true)?;
        let handle = thread::Builder::new()
            .name("gt-load-accept".into())
            .spawn(move || {
                accept_loop(
                    listener,
                    expected,
                    &mut connect,
                    accept_barrier,
                    accept_totals,
                    accept_stop,
                    config,
                )
            })?;
        Ok(ListenerHandle { handle, stop })
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    expected: usize,
    connect: &mut ConnectorFn,
    barrier: Arc<Barrier>,
    totals: Arc<Totals>,
    stop: Arc<AtomicBool>,
    config: ListenerConfig,
) -> io::Result<ListenerReport> {
    let mut readers = Vec::with_capacity(expected);
    while readers.len() < expected {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                let conn = readers.len();
                let sink = connect()?;
                let barrier = Arc::clone(&barrier);
                let totals = Arc::clone(&totals);
                readers.push(
                    thread::Builder::new()
                        .name(format!("gt-load-reader-{conn}"))
                        .spawn(move || {
                            reader_loop(conn, stream, sink, &barrier, &totals, config)
                        })?,
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // `stop` ends the wait for connections that never come,
                // not the admission of those already here: a client that
                // connected, wrote its whole substream into the socket
                // buffers and hung up before this thread first ran is in
                // the backlog, and is admitted before the flag is looked
                // at.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    let accepted = readers.len();
    let mut first_error = None;
    for reader in readers {
        match reader.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            Err(_) => {
                first_error =
                    first_error.or_else(|| Some(io::Error::other("listener reader panicked")))
            }
        }
    }
    {
        let mut control = barrier.control.lock().unwrap();
        control.close()?;
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let outcome = barrier.finish();
    Ok(ListenerReport {
        connections: accepted as u64,
        entries: totals.entries.load(Ordering::Relaxed),
        graph_events: totals.graph_events.load(Ordering::Relaxed),
        parse_errors: totals.parse_errors.load(Ordering::Relaxed),
        markers: outcome.markers,
        marker_violations: outcome.violations,
        connections_lost: outcome.lost,
        reader_stalls: totals.reader_stalls.load(Ordering::Relaxed),
        degradations: outcome.degradations,
    })
}

/// Why a reader stopped short of a clean EOF.
enum ReadAbort {
    /// The client-side connection died or stalled out: a degradation, not a
    /// run failure.
    Stream(io::Error),
    /// The platform connector (or the marker control path) failed: fatal —
    /// the measurement itself is broken.
    Sink(io::Error),
}

/// Reads one connection to EOF, feeding the batched connector path.
/// Stream-side failures abandon the connection with a typed degradation;
/// sink-side failures propagate as run errors.
fn reader_loop(
    conn: usize,
    stream: TcpStream,
    mut sink: Box<dyn EventSink + Send>,
    barrier: &Barrier,
    totals: &Totals,
    config: ListenerConfig,
) -> io::Result<()> {
    let result = read_connection(conn, stream, &mut sink, barrier, totals, config);
    match &result {
        Ok(()) => barrier.leave(conn),
        Err(ReadAbort::Stream(e)) => barrier.abandon(conn, &e.to_string()),
        Err(ReadAbort::Sink(_)) => barrier.leave(conn),
    }
    let close = sink.close();
    match result {
        Ok(()) => close,
        Err(ReadAbort::Stream(_)) => Ok(()),
        Err(ReadAbort::Sink(e)) => Err(e),
    }
}

/// What a reader has parsed but not yet handed on: the graph events
/// waiting for the connector, and the entries not yet added to the shared
/// totals (one atomic add per delivery instead of one per event).
struct Pending {
    /// The waiting graph events are `batch[..events]`. Past them lie
    /// events delivered before, for the next ones to [`refill`] in place.
    batch: Vec<SharedEntry>,
    events: usize,
    entries: u64,
}

impl Pending {
    /// Hands the batch to the connector and settles the counts.
    fn deliver(
        &mut self,
        sink: &mut Box<dyn EventSink + Send>,
        totals: &Totals,
    ) -> Result<(), ReadAbort> {
        if self.entries == 0 {
            return Ok(()); // and so no batch either: every push counts an entry
        }
        totals.entries.fetch_add(self.entries, Ordering::Relaxed);
        self.entries = 0;
        let events = mem::take(&mut self.events);
        if events == 0 {
            return Ok(());
        }
        totals
            .graph_events
            .fetch_add(events as u64, Ordering::Relaxed);
        sink.send_batch(&self.batch[..events])
            .map_err(ReadAbort::Sink)
    }
}

fn read_connection(
    conn: usize,
    stream: TcpStream,
    sink: &mut Box<dyn EventSink + Send>,
    barrier: &Barrier,
    totals: &Totals,
    config: ListenerConfig,
) -> Result<(), ReadAbort> {
    sink.open().map_err(ReadAbort::Sink)?;
    stream
        .set_read_timeout(Some(config.read_timeout))
        .map_err(ReadAbort::Stream)?;
    let mut lines = LineReader::new(BufReader::new(stream));
    let mut pending = Pending {
        batch: Vec::with_capacity(READER_BATCH),
        events: 0,
        entries: 0,
    };
    // Continuous idle time; one stall episode is counted per continuous
    // stretch past `stall_warn`, and `stall_limit` gives the connection up.
    let mut idle = Duration::ZERO;
    let mut stall_counted = false;
    loop {
        let pumped = lines.pump(|line| {
            let entry = match line {
                Ok(Some(entry)) => entry,
                Ok(None) => return Ok(()),
                Err(_) => {
                    totals.parse_errors.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            };
            pending.entries += 1;
            match entry {
                StreamEntryRef::Graph(_) => {
                    let entry = entry.to_entry();
                    match pending.batch.get_mut(pending.events) {
                        Some(slot) => refill(slot, entry),
                        None => pending.batch.push(SharedEntry::new(entry)),
                    }
                    pending.events += 1;
                    if pending.events >= READER_BATCH {
                        pending.deliver(sink, totals)?;
                    }
                }
                StreamEntryRef::Marker(name) => {
                    pending.deliver(sink, totals)?;
                    sink.flush().map_err(ReadAbort::Sink)?;
                    barrier.arrive(conn, name).map_err(ReadAbort::Sink)?;
                }
                StreamEntryRef::Control(_) => {
                    // Control events are per-connection pacing hints;
                    // forward them in position on this connection's
                    // connector.
                    pending.deliver(sink, totals)?;
                    sink.send(&entry.to_entry()).map_err(ReadAbort::Sink)?;
                }
            }
            Ok(())
        })?;
        // The read buffer is used up, and the next read may block for as
        // long as the client stays quiet: the platform gets what has
        // arrived first, even when the buffer ended mid-line.
        pending.deliver(sink, totals)?;
        match pumped {
            Ok(true) => {
                idle = Duration::ZERO;
                stall_counted = false;
            }
            Ok(false) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += config.read_timeout;
                if !stall_counted && idle >= config.stall_warn {
                    totals.reader_stalls.fetch_add(1, Ordering::Relaxed);
                    stall_counted = true;
                }
                if idle >= config.stall_limit {
                    return Err(ReadAbort::Stream(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("reader idle for {:.1}s, giving up", idle.as_secs_f64()),
                    )));
                }
            }
            Err(e) => return Err(ReadAbort::Stream(e)),
        }
    }
    sink.flush().map_err(ReadAbort::Sink)
}

/// A running listener; join it after the clients finish.
pub struct ListenerHandle {
    handle: thread::JoinHandle<io::Result<ListenerReport>>,
    stop: Arc<AtomicBool>,
}

impl ListenerHandle {
    /// Asks the accept loop to stop waiting for connections that have not
    /// arrived; those already in the backlog are still admitted.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for all connections to finish and returns the report.
    pub fn join(self) -> io::Result<ListenerReport> {
        self.handle
            .join()
            .map_err(|_| io::Error::other("listener accept thread panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::format::entry_to_line;
    use gt_metrics::WallClock;
    use std::io::Write;
    use std::sync::Mutex as StdMutex;

    /// A connector collecting everything into a shared, tagged log.
    #[derive(Clone)]
    struct SharedCollect {
        log: Arc<StdMutex<Vec<(usize, StreamEntry)>>>,
        tag: usize,
    }

    impl EventSink for SharedCollect {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            self.log.lock().unwrap().push((self.tag, entry.clone()));
            Ok(())
        }

        fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
            let mut log = self.log.lock().unwrap();
            for entry in batch {
                log.push((self.tag, (**entry).clone()));
            }
            Ok(())
        }
    }

    fn write_lines(stream: &mut TcpStream, entries: &[StreamEntry]) {
        for entry in entries {
            let mut line = entry_to_line(entry);
            line.push('\n');
            stream.write_all(line.as_bytes()).unwrap();
        }
        stream.flush().unwrap();
    }

    /// Clients small enough to fit the socket buffers can connect, write
    /// everything and hang up before the accept thread has run once; the
    /// runner then calls `stop()` at once. They were in the backlog before
    /// the flag was raised, so they must be admitted and read all the same.
    #[test]
    fn stop_admits_connections_already_in_the_backlog() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        // Connected, written and closed before the listener even starts.
        for i in 0..2u64 {
            let mut stream = TcpStream::connect(addr).unwrap();
            let entries: Vec<StreamEntry> = (0..10)
                .map(|k| {
                    StreamEntry::graph(GraphEvent::AddVertex {
                        id: VertexId(i * 100 + k),
                        state: State::empty(),
                    })
                })
                .chain([StreamEntry::marker("end")])
                .collect();
            write_lines(&mut stream, &entries);
        }
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_log = Arc::clone(&log);
        let handle = listener
            .start(
                2,
                Box::new(move || {
                    Ok(Box::new(SharedCollect {
                        log: Arc::clone(&factory_log),
                        tag: 0,
                    }) as Box<dyn EventSink + Send>)
                }),
                clock,
            )
            .unwrap();
        handle.stop();
        let report = handle.join().unwrap();
        assert_eq!(report.connections, 2);
        assert_eq!(report.graph_events, 20);
        assert_eq!(report.markers.len(), 1);
        assert_eq!(report.connections_lost, 0);
    }

    #[test]
    fn markers_totally_ordered_across_connections() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let connectors = Arc::new(StdMutex::new(0usize));
        let factory_log = Arc::clone(&log);
        let handle = listener
            .start(
                3,
                Box::new(move || {
                    let mut n = connectors.lock().unwrap();
                    let tag = *n;
                    *n += 1;
                    Ok(Box::new(SharedCollect {
                        log: Arc::clone(&factory_log),
                        tag,
                    }) as Box<dyn EventSink + Send>)
                }),
                clock,
            )
            .unwrap();

        let mut streams: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Each connection: its own events, then the same two markers,
        // then more events after the first marker.
        for (i, stream) in streams.iter_mut().enumerate() {
            let base = (i as u64) * 100;
            let mut entries = Vec::new();
            for k in 0..10 {
                entries.push(StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(base + k),
                    state: State::empty(),
                }));
            }
            entries.push(StreamEntry::marker("m1"));
            for k in 10..20 {
                entries.push(StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(base + k),
                    state: State::empty(),
                }));
            }
            entries.push(StreamEntry::marker("m2"));
            let stream_clone = stream.try_clone().unwrap();
            let mut stream = stream_clone;
            thread::spawn(move || {
                write_lines(&mut stream, &entries);
            });
        }
        drop(streams);
        let report = handle.join().unwrap();
        assert_eq!(report.connections, 3);
        assert_eq!(report.graph_events, 60);
        assert_eq!(report.entries, 66, "60 events and 3 x 2 markers");
        assert_eq!(report.parse_errors, 0);
        assert_eq!(report.marker_violations, 0);
        assert_eq!(
            report
                .markers
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );

        // Total order: in the merged log, no event streamed after m1 on
        // any connection may precede m1, and all 30 pre-m1 events must.
        let log = log.lock().unwrap();
        let m1_pos = log
            .iter()
            .position(|(_, e)| matches!(e, StreamEntry::Marker(n) if n == "m1"))
            .expect("m1 delivered");
        let before: Vec<u64> = log[..m1_pos]
            .iter()
            .filter_map(|(_, e)| e.as_graph())
            .map(|g| match g {
                GraphEvent::AddVertex { id, .. } => id.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(before.len(), 30, "all pre-m1 events precede m1");
        assert!(
            before.iter().all(|&v| v % 100 < 10),
            "only pre-m1 events precede m1: {before:?}"
        );
    }

    #[test]
    fn early_disconnect_does_not_deadlock_barriers() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_log = Arc::clone(&log);
        let handle = listener
            .start(
                2,
                Box::new(move || {
                    Ok(Box::new(SharedCollect {
                        log: Arc::clone(&factory_log),
                        tag: 0,
                    }) as Box<dyn EventSink + Send>)
                }),
                clock,
            )
            .unwrap();
        // Connection A sends one event and disconnects without markers;
        // connection B sends a marker that must still be delivered.
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        write_lines(
            &mut a,
            &[StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(1),
                state: State::empty(),
            })],
        );
        drop(a);
        thread::sleep(Duration::from_millis(50));
        write_lines(&mut b, &[StreamEntry::marker("only")]);
        drop(b);
        let report = handle.join().unwrap();
        assert_eq!(report.markers.len(), 1);
        assert_eq!(report.marker_violations, 0);
        assert_eq!(report.graph_events, 1);
        assert_eq!(report.entries, 2);
    }

    /// A connector forwarding each graph event into a channel.
    struct Forward(std::sync::mpsc::Sender<StreamEntry>);
    impl EventSink for Forward {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            if entry.is_graph() {
                self.0.send(entry.clone()).ok();
            }
            Ok(())
        }
    }

    // Regression: a reader used to hold its batch until it had 64 events
    // or a marker, and a read timeout just went back to reading — on a
    // slow connection the platform saw nothing until EOF. Every event must
    // reach the connector while the client is quiet, before the next one
    // is even written.
    #[test]
    fn a_quiet_connection_does_not_park_events_in_the_reader() {
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let config = ListenerConfig {
            read_timeout: Duration::from_millis(10),
            ..ListenerConfig::default()
        };
        let handle = listener
            .start_with_config(
                1,
                Box::new(move || Ok(Box::new(Forward(tx.clone())) as Box<dyn EventSink + Send>)),
                clock,
                config,
            )
            .unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..10 {
            let event = StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            });
            write_lines(&mut stream, std::slice::from_ref(&event));
            let delivered = rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("event {i} is parked in the reader"));
            assert_eq!(delivered, event);
        }
        drop(stream);
        let report = handle.join().unwrap();
        assert_eq!(report.graph_events, 10);
        assert_eq!(report.entries, 10);
    }

    // Regression: a read buffer that ended mid-line used to hold the whole
    // events before the cut until the tail arrived or one `read_timeout`
    // passed. They must reach the connector before the next blocking read,
    // however long the read timeout.
    #[test]
    fn a_half_received_line_does_not_hold_the_events_before_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let config = ListenerConfig {
            read_timeout: Duration::from_secs(10),
            ..ListenerConfig::default()
        };
        let handle = listener
            .start_with_config(
                1,
                Box::new(move || Ok(Box::new(Forward(tx.clone())) as Box<dyn EventSink + Send>)),
                clock,
                config,
            )
            .unwrap();

        let events: Vec<StreamEntry> = (0..2)
            .map(|i| {
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(i),
                    state: State::empty(),
                })
            })
            .collect();
        let second = entry_to_line(&events[1]);
        let (head, tail) = second.split_at(second.len() / 2);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("{}\n{head}", entry_to_line(&events[0])).as_bytes())
            .unwrap();
        let delivered = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the whole event is parked behind the half-received one");
        assert_eq!(delivered, events[0]);
        stream.write_all(format!("{tail}\n").as_bytes()).unwrap();
        drop(stream);
        let report = handle.join().unwrap();
        assert_eq!(rx.recv().unwrap(), events[1]);
        assert_eq!(report.graph_events, 2);
        assert_eq!(report.entries, 2);
    }

    // Regression: a connection that dies before reaching a marker used to
    // wedge the other readers' condvar waits forever — only the harness
    // watchdog saved the run. Now the dead connection must be excused with
    // a typed `connections_lost` degradation and the marker must still
    // deliver.
    #[test]
    fn killed_connection_is_excused_and_markers_still_deliver() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_log = Arc::clone(&log);
        let config = ListenerConfig {
            read_timeout: Duration::from_millis(10),
            stall_warn: Duration::from_millis(50),
            stall_limit: Duration::from_millis(500),
            barrier_deadline: Duration::from_millis(500),
        };
        let handle = listener
            .start_with_config(
                4,
                Box::new(move || {
                    Ok(Box::new(SharedCollect {
                        log: Arc::clone(&factory_log),
                        tag: 0,
                    }) as Box<dyn EventSink + Send>)
                }),
                clock,
                config,
            )
            .unwrap();

        let mut streams: Vec<TcpStream> =
            (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Connections 1-3 send events then the marker; connection 0 sends
        // events and is killed abruptly (unread data queued → RST) before
        // ever reaching the marker.
        for (i, stream) in streams.iter_mut().enumerate().skip(1) {
            let base = (i as u64) * 100;
            let mut entries = Vec::new();
            for k in 0..5 {
                entries.push(StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(base + k),
                    state: State::empty(),
                }));
            }
            entries.push(StreamEntry::marker("mid"));
            write_lines(stream, &entries);
        }
        write_lines(
            &mut streams[0],
            &[StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(1),
                state: State::empty(),
            })],
        );
        // Abrupt kill of connection 0 mid-stream.
        drop(streams.remove(0));
        drop(streams);

        let report = handle.join().unwrap();
        assert_eq!(report.connections, 4);
        assert_eq!(
            report
                .markers
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["mid"],
            "marker delivers despite the dead connection"
        );
        assert_eq!(report.marker_violations, 0);
        // The killed connection is excused exactly once — either its reader
        // observed the death directly or the barrier deadline excused it.
        assert_eq!(report.connections_lost, 1);
        assert!(
            !report.degradations.is_empty(),
            "a typed degradation is recorded"
        );
    }

    // A connection that goes idle while staying open (a blackholed client)
    // must be given up after `stall_limit` — with a stall episode counted —
    // instead of wedging the reader join.
    #[test]
    fn idle_open_connection_stalls_out_typed() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let listener = LoadListener::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_log = Arc::clone(&log);
        let config = ListenerConfig {
            read_timeout: Duration::from_millis(10),
            stall_warn: Duration::from_millis(30),
            stall_limit: Duration::from_millis(200),
            barrier_deadline: Duration::from_millis(300),
        };
        let handle = listener
            .start_with_config(
                2,
                Box::new(move || {
                    Ok(Box::new(SharedCollect {
                        log: Arc::clone(&factory_log),
                        tag: 0,
                    }) as Box<dyn EventSink + Send>)
                }),
                clock,
                config,
            )
            .unwrap();

        let mut healthy = TcpStream::connect(addr).unwrap();
        let idle = TcpStream::connect(addr).unwrap();
        write_lines(
            &mut healthy,
            &[
                StreamEntry::graph(GraphEvent::AddVertex {
                    id: VertexId(7),
                    state: State::empty(),
                }),
                StreamEntry::marker("only"),
            ],
        );
        drop(healthy);
        // `idle` stays open and silent; the run must still complete.
        let report = handle.join().unwrap();
        drop(idle);
        assert_eq!(report.markers.len(), 1);
        assert_eq!(report.graph_events, 1);
        assert_eq!(report.entries, 2);
        assert_eq!(report.connections_lost, 1);
        assert!(report.reader_stalls >= 1, "stall episode counted");
        assert!(report
            .degradations
            .iter()
            .any(|(d, _)| d.contains("lost") || d.contains("barrier_deadline")));
    }
}
