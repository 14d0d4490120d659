//! The netem front for single-sink runs: a TCP hop the fault proxy can
//! break.
//!
//! In-process SUT connectors give the replayer nothing a network fault
//! could touch, so when a plan carries a [`NetemPlan`] the SUT runners
//! insert a real TCP path in front of the connector:
//!
//! ```text
//! replayer → ReconnectingTcpSink → NetemProxy → bridge listener → connector
//! ```
//!
//! The *bridge* is a loopback listener that parses the line protocol back
//! into [`gt_core::prelude::StreamEntry`]s and feeds the platform
//! connector; the [`gt_netem::NetemProxy`] sits between the replayer's
//! sink and the bridge, injecting the scheduled faults. The sink is a
//! [`ReconnectingTcpSink`] seeded from the schedule, so connection kills
//! exercise the real reconnect/backoff path and every disconnect is
//! classified by cause.
//!
//! Corruption faults can turn arbitrary bytes loose on the bridge, so it
//! never trusts the wire: it reads through gt-core's one line reader
//! ([`LineReader`], as the load listener does), and invalid UTF-8 and
//! malformed lines are counted as `parse_errors` and skipped, never
//! panicked on.

use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gt_core::prelude::*;
use gt_metrics::{Clock, MetricRecord};
use gt_netem::{NetemHandle, NetemPlan, NetemProxy, NetemReport, NETEM_SOURCE};
use gt_replayer::{EventSink, ReconnectPolicy, ReconnectingTcpSink};

/// Bridge-side socket read timeout: the granularity at which the bridge
/// notices stop requests while a connection is quiet.
const BRIDGE_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Accept-poll interval while no connection is live.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Write timeout on the replayer's sink: a blackholed proxy connection
/// surfaces as a timed-out write (and a reconnect round) instead of
/// wedging the replay thread.
const SINK_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Handles to a running netem front; [`NetemFront::finish`] after the
/// replay to stop the proxy, join the bridge, and collect the report.
pub(crate) struct NetemFront {
    proxy: NetemHandle,
    bridge: JoinHandle<io::Result<()>>,
    stop: Arc<AtomicBool>,
    lines: Arc<AtomicU64>,
    parse_errors: Arc<AtomicU64>,
    accepted: Arc<AtomicU64>,
}

/// What the netem front saw over a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NetemFrontReport {
    /// The fault proxy's traffic counters.
    pub proxy: NetemReport,
    /// Stream entries the bridge parsed and forwarded to the connector.
    pub lines_forwarded: u64,
    /// Wire lines the bridge rejected (corruption faults land here).
    pub parse_errors: u64,
    /// Connections the bridge accepted — 1 plus one per sink reconnect.
    pub bridge_connections: u64,
}

impl NetemFrontReport {
    /// Renders the report as int records under [`NETEM_SOURCE`], ready to
    /// fold into the merged result log: the proxy's counters
    /// ([`NetemReport::records`]) and the bridge's own three.
    pub(crate) fn records(&self, t_micros: u64) -> Vec<MetricRecord> {
        let mut out = self.proxy.records(t_micros);
        for (metric, value) in [
            ("bridge_connections", self.bridge_connections),
            ("lines_forwarded", self.lines_forwarded),
            ("parse_errors", self.parse_errors),
        ] {
            out.push(MetricRecord::int(
                t_micros,
                NETEM_SOURCE,
                metric,
                value as i64,
            ));
        }
        out
    }
}

/// Renders a sink's reconnect statistics as records under
/// [`NETEM_SOURCE`] (`sink.reconnects`, `sink.disconnects.<cause>`), so
/// the run log shows how the replayer experienced the injected faults.
pub(crate) fn sink_records(sink: &ReconnectingTcpSink, t_micros: u64) -> Vec<MetricRecord> {
    let mut out = vec![MetricRecord::int(
        t_micros,
        NETEM_SOURCE,
        "sink.reconnects",
        sink.reconnects() as i64,
    )];
    for (label, count) in sink.disconnect_counts() {
        if count > 0 {
            out.push(MetricRecord::int(
                t_micros,
                NETEM_SOURCE,
                &format!("sink.disconnects.{label}"),
                count as i64,
            ));
        }
    }
    out
}

/// Starts the full netem front around `connector`: bridge listener, fault
/// proxy, and a reconnecting sink dialing the proxy. The sink's reconnect
/// policy is seeded from the schedule so backoff jitter is as
/// deterministic as the faults themselves.
pub(crate) fn start_netem_front(
    netem: &NetemPlan,
    connector: Box<dyn EventSink + Send>,
    clock: Arc<dyn Clock>,
) -> io::Result<(ReconnectingTcpSink, NetemFront)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let bridge_addr = listener.local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let lines = Arc::new(AtomicU64::new(0));
    let parse_errors = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let bridge = {
        let stop = Arc::clone(&stop);
        let lines = Arc::clone(&lines);
        let parse_errors = Arc::clone(&parse_errors);
        let accepted = Arc::clone(&accepted);
        std::thread::Builder::new()
            .name("gt-netem-bridge".into())
            .spawn(move || {
                bridge_loop(listener, connector, &stop, &lines, &parse_errors, &accepted)
            })?
    };

    let proxy = NetemProxy::start(bridge_addr, netem, Arc::clone(&clock))?;
    let sink = ReconnectingTcpSink::connect(proxy.local_addr())?
        .with_policy(ReconnectPolicy::default().with_seed(netem.schedule.seed))
        .with_clock(clock)
        .with_write_timeout(Some(SINK_WRITE_TIMEOUT));

    Ok((
        sink,
        NetemFront {
            proxy,
            bridge,
            stop,
            lines,
            parse_errors,
            accepted,
        },
    ))
}

impl NetemFront {
    /// Stops the proxy (fast-forwarding any unfired schedule events into
    /// the journal), joins the bridge — which drops the connector, letting
    /// the platform see end-of-stream — and returns the front's report.
    ///
    /// Call after the replay has finished and the sink has been dropped:
    /// the sink's close is what lets the in-flight connection drain to
    /// EOF before the stop flag is honored.
    pub(crate) fn finish(self) -> io::Result<NetemFrontReport> {
        self.proxy.stop();
        let proxy = self.proxy.join()?;
        self.stop.store(true, Ordering::SeqCst);
        match self.bridge.join() {
            Ok(result) => result?,
            Err(_) => return Err(io::Error::other("netem bridge thread panicked")),
        }
        Ok(NetemFrontReport {
            proxy,
            lines_forwarded: self.lines.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            bridge_connections: self.accepted.load(Ordering::Relaxed),
        })
    }
}

/// Accepts proxy-upstream connections one at a time (the sink holds one
/// connection; a reconnect produces the next) and feeds each through the
/// parse loop until EOF.
fn bridge_loop(
    listener: TcpListener,
    mut connector: Box<dyn EventSink + Send>,
    stop: &AtomicBool,
    lines: &AtomicU64,
    parse_errors: &AtomicU64,
    accepted: &AtomicU64,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                accepted.fetch_add(1, Ordering::Relaxed);
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(BRIDGE_READ_TIMEOUT))?;
                bridge_connection(stream, &mut *connector, stop, lines, parse_errors)?;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    connector.flush()
}

/// Reads one bridge connection to EOF, forwarding parsed entries to the
/// connector. Malformed or non-UTF-8 lines (corruption faults) are
/// counted and skipped; a partial line surviving a read timeout is kept
/// for the next read.
fn bridge_connection(
    stream: TcpStream,
    connector: &mut (dyn EventSink + Send),
    stop: &AtomicBool,
    lines: &AtomicU64,
    parse_errors: &AtomicU64,
) -> io::Result<()> {
    let mut reader = LineReader::new(BufReader::new(stream));
    loop {
        let pumped = reader.pump(|line| {
            match line {
                Ok(Some(entry)) => {
                    connector.send(&entry.to_entry())?;
                    if let StreamEntryRef::Marker(_) = entry {
                        connector.flush()?;
                    }
                    lines.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => {}
                Err(_) => {
                    parse_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok::<_, io::Error>(())
        })?;
        match pumped {
            Ok(true) => {}
            Ok(false) => break,
            // A quiet connection: keep waiting unless the run is over.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Connection-level error (reset mid-fault): this connection is
            // done; the sink will reconnect and the next accept resumes.
            Err(_) => break,
        }
    }
    connector.flush()
}

#[cfg(test)]
mod tests {
    //! Reader agreement: one corpus through every reader of the stream
    //! format — `parse_csv`, `read_from_file`, the replay session, the
    //! load front's routing pass, a load listener connection and this
    //! bridge (the one reader only its own crate can reach).

    use super::*;
    use std::io::Write;
    use std::net::SocketAddr;
    use std::sync::Mutex;

    use gt_load::{ListenerConfig, LoadListener, Router, SeededPartitioner};
    use gt_metrics::WallClock;
    use gt_replayer::{
        CollectSink, ReplayError, ReplaySession, ReplaySessionConfig, ReplayerConfig,
    };

    /// CRLF, a two-byte character, a comment, blank lines, a marker and
    /// both controls; [`BAD`] follows as line 11.
    const HEAD: [&[u8]; 10] = [
        b"ADD_VERTEX,1,caf\xc3\xa9\r\n",
        b"# a comment\n",
        b"\n",
        b"  \r\n",
        b"ADD_VERTEX,2,\n",
        b"ADD_EDGE,1-2,w=1,x\n",
        b"MARKER,m1,\n",
        b"SPEED,,2\n",
        b"PAUSE,,5\r\n",
        b"UPDATE_VERTEX,1,{\"a\":1}\n",
    ];
    /// Not UTF-8 — and, decoded lossily, not a command either.
    const BAD: &[u8] = b"\xffADD_VERTEX,3,\n";
    /// Ends in a last line without a newline.
    const TAIL: [&[u8]; 3] = [b"ADD_VERTEX,4,x\n", b"MARKER,m2,\n", b"REMOVE_EDGE,1-2,"];
    /// Where the two-byte character of the first line starts.
    const SPLIT: usize = b"ADD_VERTEX,1,caf".len();

    fn corpus(bad: bool) -> Vec<u8> {
        let bad: &[&[u8]] = if bad { &[BAD] } else { &[] };
        [&HEAD[..], bad, &TAIL[..]].concat().concat()
    }

    /// The entries of `lines`, each parsed on its own.
    fn entries_of(lines: &[&[u8]]) -> Vec<StreamEntry> {
        lines
            .iter()
            .filter_map(|line| {
                let text = std::str::from_utf8(line).unwrap();
                gt_core::parse_line(text.trim_end_matches(['\r', '\n'])).unwrap()
            })
            .collect()
    }

    fn bad_line(err: &CoreError) -> Option<usize> {
        match err {
            CoreError::Parse(e) => e.line,
            CoreError::Io(_) => None,
        }
    }

    /// A connector logging into a log shared by all its clones.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<StreamEntry>>>);

    impl EventSink for Shared {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            self.0.lock().unwrap().push(entry.clone());
            Ok(())
        }
    }

    /// Writes `corpus` to `addr` one byte per segment, resting past every
    /// read timeout in the middle of the two-byte character.
    fn trickle(addr: SocketAddr, corpus: Vec<u8>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            for (i, byte) in corpus.iter().enumerate() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                let rest = if i == SPLIT { 150_000 } else { 200 };
                std::thread::sleep(Duration::from_micros(rest));
            }
        })
    }

    /// Entries and parse errors through a load listener connection.
    fn via_listener(corpus: Vec<u8>) -> (Vec<StreamEntry>, u64) {
        let listener = LoadListener::bind().unwrap();
        let writer = trickle(listener.local_addr().unwrap(), corpus);
        let log = Shared::default();
        let connector = log.clone();
        let config = ListenerConfig {
            read_timeout: Duration::from_millis(10),
            ..ListenerConfig::default()
        };
        let report = listener
            .start_with_config(
                1,
                Box::new(move || Ok(Box::new(connector.clone()) as Box<dyn EventSink + Send>)),
                Arc::new(WallClock::start()),
                config,
            )
            .unwrap()
            .join()
            .unwrap();
        writer.join().unwrap();
        let entries = log.0.lock().unwrap().clone();
        (entries, report.parse_errors)
    }

    /// Entries and parse errors through the bridge.
    fn via_bridge(corpus: Vec<u8>) -> (Vec<StreamEntry>, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = trickle(listener.local_addr().unwrap(), corpus);
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(BRIDGE_READ_TIMEOUT)).unwrap();
        let mut log = Shared::default();
        let (lines, parse_errors) = (AtomicU64::new(0), AtomicU64::new(0));
        let stop = AtomicBool::new(false);
        bridge_connection(stream, &mut log, &stop, &lines, &parse_errors).unwrap();
        writer.join().unwrap();
        let entries = log.0.lock().unwrap().clone();
        assert_eq!(lines.into_inner(), entries.len() as u64);
        (entries, parse_errors.into_inner())
    }

    /// What a replay session delivers to its sink — every entry but the
    /// controls, which steer its pacer — and how its reading ended.
    fn via_session(path: &std::path::Path) -> (Vec<StreamEntry>, Result<u64, CoreError>) {
        let config = ReplaySessionConfig {
            replayer: ReplayerConfig {
                target_rate: 1e9,
                honor_pauses: false,
                ..ReplayerConfig::default()
            },
            buffer: 4,
        };
        let mut sink = CollectSink::new();
        let ended = match ReplaySession::new(config).run(path, &mut sink) {
            Ok(report) => Ok(report.entries_read),
            Err(ReplayError::Source(e)) => Err(e),
            Err(e) => panic!("the replay failed: {e}"),
        };
        (sink.entries, ended)
    }

    /// `entries` without the controls.
    fn delivered(entries: &[StreamEntry]) -> Vec<StreamEntry> {
        let steers = |entry: &&StreamEntry| matches!(entry, StreamEntry::Control(_));
        entries.iter().filter(|e| !steers(e)).cloned().collect()
    }

    /// Queues the routing pass routes to.
    const QUEUES: usize = 3;

    fn partitioner() -> SeededPartitioner {
        SeededPartitioner::new(QUEUES, 9)
    }

    /// Each queue's entries through the routing pass, and how it ended.
    fn via_router(path: &std::path::Path) -> (Vec<Vec<StreamEntry>>, Result<u64, CoreError>) {
        let (router, queues) = Router::new(partitioner());
        let drains: Vec<_> = queues
            .into_iter()
            .map(|mut queue| {
                std::thread::spawn(move || {
                    let mut entries = Vec::new();
                    while queue.refill(|| {}) {
                        entries.extend_from_slice(queue.chunk());
                    }
                    entries
                })
            })
            .collect();
        let ended = router.route(path.into());
        let queues = drains.into_iter().map(|d| d.join().unwrap()).collect();
        (queues, ended)
    }

    /// What `SeededPartitioner::split` makes of `stream`.
    fn split_of(stream: &GraphStream) -> Vec<Vec<StreamEntry>> {
        let parts = partitioner().split(stream);
        parts.iter().map(|part| part.entries().to_vec()).collect()
    }

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gt-harness-reader-agreement");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn every_reader_yields_the_same_entries() {
        let corpus = corpus(false);
        let want = entries_of(&[&HEAD[..], &TAIL[..]].concat());
        let text = std::str::from_utf8(&corpus).unwrap();
        assert_eq!(GraphStream::parse_csv(text).unwrap().entries(), want);
        let path = temp_file("clean.csv", &corpus);
        assert_eq!(GraphStream::read_from_file(&path).unwrap().entries(), want);
        let (entries, ended) = via_session(&path);
        assert_eq!(
            (entries, ended.unwrap()),
            (delivered(&want), want.len() as u64)
        );
        let (queues, ended) = via_router(&path);
        let read = GraphStream::read_from_file(&path).unwrap();
        assert_eq!(queues, split_of(&read), "each queue, in order");
        assert_eq!(ended.unwrap(), want.len() as u64);
        assert_eq!(via_listener(corpus.clone()), (want.clone(), 0));
        assert_eq!(via_bridge(corpus.clone()), (want.clone(), 0));

        // The line reader under all five, fed one byte per read.
        let mut lines = LineReader::new(io::BufReader::with_capacity(1, &corpus[..]));
        let mut entries = Vec::new();
        while lines
            .pump(|line| {
                entries.extend(line?.map(|entry| entry.to_entry()));
                Ok::<_, ParseError>(())
            })
            .unwrap()
            .unwrap()
        {}
        assert_eq!(entries, want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_readers_stop_at_the_bad_line_and_socket_readers_count_it() {
        let corpus = corpus(true);
        let before = entries_of(&HEAD);
        let all = entries_of(&[&HEAD[..], &TAIL[..]].concat());
        let bad_line_no = Some(HEAD.len() + 1);

        let lossy = String::from_utf8_lossy(&corpus);
        let err = GraphStream::parse_csv(&lossy).unwrap_err();
        assert_eq!(bad_line(&err), bad_line_no, "parse_csv: {err}");
        let path = temp_file("bad.csv", &corpus);
        let err = GraphStream::read_from_file(&path).unwrap_err();
        assert_eq!(bad_line(&err), bad_line_no, "read_from_file: {err}");
        let (entries, ended) = via_session(&path);
        assert_eq!(entries, delivered(&before), "the valid prefix is delivered");
        let err = ended.unwrap_err();
        assert_eq!(bad_line(&err), bad_line_no, "the replay session: {err}");
        let (queues, ended) = via_router(&path);
        let prefix = GraphStream::from_entries(before.clone());
        assert_eq!(queues, split_of(&prefix), "the valid prefix is routed");
        let err = ended.unwrap_err();
        assert_eq!(bad_line(&err), bad_line_no, "the routing pass: {err}");
        assert_eq!(bad_line_no, Some(11));

        assert_eq!(via_listener(corpus.clone()), (all.clone(), 1));
        assert_eq!(via_bridge(corpus), (all, 1));
        std::fs::remove_file(path).ok();
    }
}
