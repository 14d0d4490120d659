//! A fault-tolerant TCP connector: reconnect with capped exponential
//! backoff, at-least-once delivery across connection loss.
//!
//! The paper's harness drives external systems over plain sockets; a
//! system under test that restarts mid-experiment (crash-recovery runs
//! are an explicit GraphTides scenario) kills the connection. A plain
//! [`crate::TcpSink`] aborts the whole replay; [`ReconnectingTcpSink`]
//! instead re-dials with exponential backoff and replays every line not
//! yet confirmed flushed, resuming the stream where it left off.
//!
//! Delivery across a reconnect is *at-least-once*: lines buffered since
//! the last successful flush are re-sent on the new connection, so a
//! consumer that persisted some of them before the drop sees duplicates.
//! The periodic auto-flush (`flush_every`) bounds that window.

use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use gt_core::prelude::*;
use gt_metrics::{Clock, WallClock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::errors::ReplayError;
use crate::sink::{DisconnectCause, EventSink, SinkEvent, SinkEventKind};

/// How a [`ReconnectingTcpSink`] retries a lost connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconnectPolicy {
    /// Consecutive failed dial attempts before giving up with
    /// [`ReplayError::SinkGaveUp`]. Zero means fail on the first loss.
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub initial_backoff: Duration,
    /// Cap on the per-retry wait.
    pub max_backoff: Duration,
    /// Backoff growth factor per failed attempt.
    pub multiplier: f64,
    /// Fraction of each backoff that is randomized: attempt `k`'s wait is
    /// drawn uniformly from `base_k * [1 - jitter, 1 + jitter]` (then
    /// capped at `max_backoff`). Without jitter, hundreds of load clients
    /// cut off by one SUT restart re-dial in lockstep — a thundering herd
    /// that turns recovery itself into a load spike. `0.0` disables.
    pub jitter: f64,
    /// Seed for the jitter draw. The jitter is *seeded-deterministic*:
    /// the full backoff schedule is a pure function of the policy, so
    /// chaos-run signatures stay reproducible. Give each client a
    /// distinct seed (e.g. its connection index) so their retries
    /// desynchronize; the same seed replays the same schedule.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl ReconnectPolicy {
    /// Sets the jitter seed (builder style) — one distinct seed per
    /// client is what desynchronizes a reconnect herd.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The full per-attempt wait schedule for outage number `round`
    /// (0-based count of disconnects this sink has seen), jitter applied.
    ///
    /// Pure and deterministic: `(policy, round) → waits`, no clock or
    /// socket involved, so tests can assert desynchronization without
    /// sleeping. Successive rounds draw different jitter (the round is
    /// folded into the seed) but remain reproducible run-to-run.
    pub(crate) fn backoff_schedule(&self, round: u64) -> Vec<Duration> {
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter {} outside [0, 1]",
            self.jitter
        );
        // SplitMix64-style fold so round 0/1/2… give unrelated draws.
        let mut rng = StdRng::seed_from_u64(self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let max = self.max_backoff.as_secs_f64();
        let mut base = self.initial_backoff.as_secs_f64().min(max);
        (0..self.max_attempts)
            .map(|_| {
                let factor = if self.jitter > 0.0 {
                    1.0 - self.jitter + 2.0 * self.jitter * rng.random::<f64>()
                } else {
                    1.0
                };
                let wait = (base * factor).min(max);
                base = (base * self.multiplier).min(max);
                Duration::from_secs_f64(wait.max(0.0))
            })
            .collect()
    }
}

/// A TCP sink that survives connection loss.
pub struct ReconnectingTcpSink {
    addr: String,
    writer: Option<BufWriter<TcpStream>>,
    policy: ReconnectPolicy,
    clock: Arc<dyn Clock>,
    /// Lines written since the last successful flush — replayed onto a
    /// fresh connection after a drop.
    pending: Vec<String>,
    /// Successful reconnects so far.
    reconnects: u64,
    /// Disconnects so far — the jitter round, so successive outages draw
    /// fresh (but still seeded-deterministic) backoff schedules.
    disconnects: u64,
    /// Flush automatically once this many lines are pending, bounding
    /// both userspace buffering and the at-least-once duplicate window.
    flush_every: usize,
    /// Write timeout applied to every dialed connection, so a blackholed
    /// peer surfaces as a timed-out write instead of blocking forever.
    write_timeout: Option<Duration>,
    /// Disconnects bucketed by [`DisconnectCause`] (see
    /// [`DisconnectCause::index`]).
    disconnects_by_cause: [u64; 4],
    /// The most recent disconnect's cause, carried into a final give-up.
    last_cause: DisconnectCause,
    events: Vec<SinkEvent>,
    buf: String,
}

const SOCKET_BUFFER: usize = 64 * 1024;

impl ReconnectingTcpSink {
    /// Connects to `addr`, failing fast if the first dial fails (a target
    /// that was never up is a configuration error, not a fault to ride
    /// out).
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<Self> {
        let addr_string = addr.to_string();
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true)?;
        Ok(ReconnectingTcpSink {
            addr: addr_string,
            writer: Some(BufWriter::with_capacity(SOCKET_BUFFER, stream)),
            policy: ReconnectPolicy::default(),
            clock: Arc::new(WallClock::start()),
            pending: Vec::new(),
            reconnects: 0,
            disconnects: 0,
            flush_every: 256,
            write_timeout: None,
            disconnects_by_cause: [0; 4],
            last_cause: DisconnectCause::Other,
            events: Vec::new(),
            buf: String::with_capacity(64),
        })
    }

    /// Sets the reconnect policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Uses a shared run clock so sink events line up with replay marker
    /// timestamps. Backoff waits run on it too.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the auto-flush cadence in lines.
    #[must_use]
    pub fn with_flush_every(mut self, lines: usize) -> Self {
        self.flush_every = lines.max(1);
        self
    }

    /// Applies a write timeout to the current and all future connections,
    /// so a blackholed (partitioned) peer turns into a [`DisconnectCause::
    /// Stalled`] reconnect instead of an unbounded block.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        if let Some(w) = self.writer.as_ref() {
            w.get_ref().set_write_timeout(self.write_timeout).ok();
        }
        self
    }

    /// Per-cause disconnect counters, as `(label, count)` pairs in
    /// `DisconnectCause::ALL` order.
    pub fn disconnect_counts(&self) -> Vec<(&'static str, u64)> {
        DisconnectCause::ALL
            .iter()
            .map(|c| (c.label(), self.disconnects_by_cause[c.index()]))
            .collect()
    }

    /// Successful reconnects so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn push_event(&mut self, kind: SinkEventKind, detail: String) {
        self.events.push(SinkEvent {
            t_micros: self.clock.now_micros(),
            kind,
            detail,
        });
    }

    /// One dial attempt: connect and replay all pending lines.
    fn try_dial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(self.write_timeout)?;
        let mut writer = BufWriter::with_capacity(SOCKET_BUFFER, stream);
        for line in &self.pending {
            writer.write_all(line.as_bytes())?;
        }
        self.writer = Some(writer);
        Ok(())
    }

    /// Refines the error-kind classification of `trigger` with a
    /// nonblocking probe read of the dying socket: a queued FIN shows up as
    /// EOF (the peer closed gracefully even though our write error said
    /// only "timed out"), a queued RST as `ConnectionReset`, and silence
    /// confirms a stall.
    fn probe_cause(trigger: &io::Error, writer: Option<&BufWriter<TcpStream>>) -> DisconnectCause {
        let classified = DisconnectCause::classify(trigger);
        if classified == DisconnectCause::Reset {
            // A reset write error is definitive; the probe would see EOF
            // because the kernel already consumed the pending socket error.
            return classified;
        }
        let Some(writer) = writer else {
            return classified;
        };
        let stream = writer.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return classified;
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => DisconnectCause::ClosedByPeer,
            Ok(_) => classified,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => classified,
            Err(e) => DisconnectCause::classify(&e),
        }
    }

    /// Whether the peer has half-closed (sent FIN) on a connection whose
    /// writes still succeed. Checked after each successful flush: a
    /// gracefully shut-down server otherwise goes unnoticed until buffers
    /// fill, silently absorbing the stream into a dead socket. The probe
    /// is one nonblocking `peek`; blocking mode is restored afterwards.
    fn peer_sent_fin(writer: &BufWriter<TcpStream>) -> bool {
        let stream = writer.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let fin = matches!(stream.peek(&mut probe), Ok(0));
        stream.set_nonblocking(false).ok();
        fin
    }

    /// Reconnect loop with capped exponential backoff and seeded jitter.
    /// On success the new connection already carries the replayed pending
    /// lines.
    fn reconnect(&mut self, trigger: &io::Error) -> io::Result<()> {
        let cause = Self::probe_cause(trigger, self.writer.as_ref());
        self.writer = None;
        self.disconnects_by_cause[cause.index()] += 1;
        self.last_cause = cause;
        self.push_event(
            SinkEventKind::Disconnected { cause },
            format!("{}: {trigger}", cause.label()),
        );
        let schedule = self.policy.backoff_schedule(self.disconnects);
        self.disconnects += 1;
        let mut last = io::Error::new(io::ErrorKind::NotConnected, trigger.to_string());
        for (i, backoff) in schedule.iter().enumerate() {
            self.clock
                .wait_until(self.clock.now_micros() + backoff.as_micros() as u64);
            match self.try_dial() {
                Ok(()) => {
                    self.reconnects += 1;
                    self.push_event(
                        SinkEventKind::Reconnected {
                            attempt: i as u32 + 1,
                        },
                        format!("replayed {} pending lines", self.pending.len()),
                    );
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(ReplayError::SinkGaveUp {
            attempts: self.policy.max_attempts,
            last,
            cause,
        }
        .into_io())
    }

    fn flush_inner(&mut self) -> io::Result<()> {
        // Bounded recovery: each round either flushes, or reconnects (which
        // itself is bounded by the policy) and tries again. A peer that
        // accepts and immediately drops forever is cut off here rather
        // than looping endlessly.
        for _ in 0..=self.policy.max_attempts {
            let writer = match self.writer.as_mut() {
                Some(w) => w,
                None => {
                    let e = io::Error::new(io::ErrorKind::NotConnected, "no connection");
                    self.reconnect(&e)?;
                    continue;
                }
            };
            match writer.flush() {
                Ok(()) => {
                    self.pending.clear();
                    if self.writer.as_ref().is_some_and(Self::peer_sent_fin) {
                        let e = io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer half-closed (FIN) after flush",
                        );
                        self.reconnect(&e)?;
                    }
                    return Ok(());
                }
                Err(e) => self.reconnect(&e)?,
            }
        }
        Err(ReplayError::SinkGaveUp {
            attempts: self.policy.max_attempts,
            last: io::Error::new(
                io::ErrorKind::ConnectionReset,
                "peer kept dropping the connection during flush recovery",
            ),
            cause: self.last_cause,
        }
        .into_io())
    }
}

impl EventSink for ReconnectingTcpSink {
    fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
        self.buf.clear();
        gt_core::format::write_line(entry, &mut self.buf);
        self.buf.push('\n');
        let line = std::mem::take(&mut self.buf);
        // The line joins the replay window first so a failed write (or a
        // reconnect triggered by it) re-sends it too.
        self.pending.push(line);
        let result = match self.writer.as_mut() {
            Some(w) => w.write_all(self.pending.last().expect("just pushed").as_bytes()),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        if let Err(e) = result {
            // reconnect() replays all pending lines, including this one.
            self.reconnect(&e)?;
        }
        if self.pending.len() >= self.flush_every {
            self.flush_inner()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_inner()
    }

    fn drain_events(&mut self) -> Vec<SinkEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy that never reconnects: first loss is fatal.
    fn give_up_immediately() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 0,
            ..Default::default()
        }
    }
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn vertex(i: u64) -> StreamEntry {
        StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::empty(),
        })
    }

    #[test]
    fn delivers_like_a_plain_sink() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(stream)
                .lines()
                .map(|l| l.unwrap())
                .collect::<Vec<_>>()
        });
        let mut sink = ReconnectingTcpSink::connect(addr).unwrap();
        for i in 0..10 {
            sink.send(&vertex(i)).unwrap();
        }
        sink.flush().unwrap();
        assert!(sink.pending.is_empty());
        assert_eq!(sink.reconnects(), 0);
        assert!(sink.drain_events().is_empty());
        drop(sink);
        assert_eq!(reader.join().unwrap().len(), 10);
    }

    #[test]
    fn reconnects_after_listener_restart() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // First accept: read two lines, then drop the connection.
        let first = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(stream).lines();
            let a = lines.next().unwrap().unwrap();
            let b = lines.next().unwrap().unwrap();
            // Listener and connection both drop here, freeing the port.
            (a, b)
        });

        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_policy(ReconnectPolicy {
                max_attempts: 50,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                multiplier: 2.0,
                ..Default::default()
            });
        sink.send(&vertex(0)).unwrap();
        sink.send(&vertex(1)).unwrap();
        sink.flush().unwrap();
        let (a, b) = first.join().unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("ADD_VERTEX,0,", "ADD_VERTEX,1,"));

        // Restart the listener on the same port while the sink keeps
        // sending; the sink must ride the gap.
        let second = std::thread::spawn(move || {
            let listener = TcpListener::bind(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(stream)
                .lines()
                .map(|l| l.unwrap())
                .collect::<Vec<_>>()
        });

        // Send until the sink notices the dead connection and re-dials.
        // Lines flushed into the kernel buffer before the OS reports the
        // reset are lost — TCP gives no delivery confirmation — so the
        // at-least-once guarantee starts at the reconnect-triggering line.
        let mut i = 2u64;
        while sink.reconnects() == 0 {
            sink.send(&vertex(i)).unwrap();
            sink.flush().unwrap();
            i += 1;
            assert!(i < 10_000, "sink never noticed the drop");
        }
        let first_guaranteed = i;
        for j in first_guaranteed..first_guaranteed + 20 {
            sink.send(&vertex(j)).unwrap();
        }
        sink.flush().unwrap();
        let events = sink.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SinkEventKind::Disconnected { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SinkEventKind::Reconnected { .. })));
        drop(sink);

        let lines = second.join().unwrap();
        for j in first_guaranteed..first_guaranteed + 20 {
            let expected = format!("ADD_VERTEX,{j},");
            assert!(lines.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn gives_up_with_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediately sever
        });
        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_policy(ReconnectPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                multiplier: 2.0,
                ..Default::default()
            });
        accept.join().unwrap();
        // The listener is gone: sends eventually exhaust the budget.
        let mut gave_up = None;
        for i in 0..10_000 {
            if let Err(e) = sink.send(&vertex(i)).and_then(|_| sink.flush()) {
                gave_up = Some(e);
                break;
            }
        }
        let err = gave_up.expect("sink never gave up");
        match ReplayError::from_sink_error(err) {
            ReplayError::SinkGaveUp { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected SinkGaveUp, got {other:?}"),
        }
    }

    // Regression: backoff had no jitter, so N clients cut off by one SUT
    // restart re-dialed in lockstep (thundering herd). The jitter must be
    // seeded-deterministic: different seeds desynchronize, the same seed
    // reproduces the exact schedule.
    #[test]
    fn different_seeds_desynchronize_backoff() {
        let policy = |seed| ReconnectPolicy {
            max_attempts: 16,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.5,
            seed,
        };
        let a = policy(1).backoff_schedule(0);
        let b = policy(2).backoff_schedule(0);
        assert_eq!(a.len(), 16);
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(
            differing >= 12,
            "two seeds stayed in lockstep on {} of 16 attempts",
            16 - differing
        );
        // Same seed → bit-identical schedule (chaos signatures reproduce).
        assert_eq!(a, policy(1).backoff_schedule(0));
        // A later outage draws fresh jitter but is still deterministic.
        let round1 = policy(1).backoff_schedule(1);
        assert_ne!(a, round1);
        assert_eq!(round1, policy(1).backoff_schedule(1));
    }

    #[test]
    fn jitter_stays_within_bounds_and_zero_disables() {
        let base = ReconnectPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.0,
            seed: 99,
        };
        // jitter 0.0: exact capped exponential, regardless of seed.
        let exact = base.backoff_schedule(0);
        assert_eq!(exact[0], Duration::from_millis(100));
        assert_eq!(exact[1], Duration::from_millis(200));
        assert_eq!(exact[9], Duration::from_secs(1), "capped at max_backoff");
        assert_eq!(exact, base.clone().with_seed(7).backoff_schedule(0));
        // jitter 0.5: each wait within [0.5, 1.5]× its base, never above max.
        let jittered = ReconnectPolicy {
            jitter: 0.5,
            ..base
        }
        .backoff_schedule(0);
        for (j, e) in jittered.iter().zip(&exact) {
            let (j, e) = (j.as_secs_f64(), e.as_secs_f64());
            assert!(j >= e * 0.5 - 1e-9 && j <= (e * 1.5).min(1.0) + 1e-9);
        }
    }

    #[test]
    fn auto_flush_bounds_pending_window() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(stream).lines().count()
        });
        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_flush_every(8);
        for i in 0..20 {
            sink.send(&vertex(i)).unwrap();
        }
        // Two auto-flushes (at 8 and 16) already confirmed 16 lines.
        assert_eq!(sink.pending.len(), 4);
        sink.flush().unwrap();
        assert!(sink.pending.is_empty());
        drop(sink);
        assert_eq!(reader.join().unwrap(), 20);
    }

    /// A ~1KiB entry so a few thousand sends overflow kernel socket
    /// buffers quickly in the stall/FIN tests.
    fn fat_vertex(i: u64) -> StreamEntry {
        StreamEntry::graph(GraphEvent::AddVertex {
            id: VertexId(i),
            state: State::new("x".repeat(1024)),
        })
    }

    /// Drives `sink` until a send/flush fails, returning the typed error.
    /// Panics if the sink never fails within the write budget.
    fn drive_until_error(sink: &mut ReconnectingTcpSink, writes: u64) -> ReplayError {
        for i in 0..writes {
            if let Err(e) = sink.send(&fat_vertex(i)).and_then(|_| sink.flush()) {
                return ReplayError::from_sink_error(e);
            }
        }
        panic!("sink never observed the injected fault");
    }

    // Abrupt kill: the peer drops the socket with client data still unread,
    // which the kernel answers with RST. The sink must classify it as
    // `Reset`, not a generic disconnect.
    #[test]
    fn rst_kill_classifies_as_reset() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Wait until the client has data in our receive queue, then
            // drop without reading: close-with-unread-data elicits RST.
            ready_rx.recv().unwrap();
            drop(stream);
        });
        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_policy(give_up_immediately());
        for i in 0..8 {
            sink.send(&fat_vertex(i)).unwrap();
        }
        sink.flush().unwrap();
        ready_tx.send(()).unwrap();
        server.join().unwrap();

        let err = drive_until_error(&mut sink, 100_000);
        match err {
            ReplayError::SinkGaveUp { cause, .. } => {
                assert_eq!(cause, DisconnectCause::Reset, "got {cause:?}");
            }
            other => panic!("expected SinkGaveUp, got {other:?}"),
        }
        assert_eq!(sink.disconnects_by_cause[DisconnectCause::Reset.index()], 1);
        assert_eq!(
            sink.disconnects_by_cause[DisconnectCause::Stalled.index()],
            0
        );
    }

    // Graceful kill: the peer sends a FIN (shutdown both directions) but
    // keeps the socket alive, so nothing RSTs. Writes eventually stall on
    // full buffers; the probe read then sees the queued EOF and refines the
    // classification to `ClosedByPeer`.
    #[test]
    fn fin_kill_classifies_as_closed_by_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.shutdown(std::net::Shutdown::Both).unwrap();
            // Park the socket: keep the fd alive so no RST is generated.
            park_rx.recv().ok();
            drop(stream);
        });
        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_policy(give_up_immediately())
            .with_write_timeout(Some(Duration::from_millis(100)));

        let err = drive_until_error(&mut sink, 100_000);
        match err {
            ReplayError::SinkGaveUp { cause, .. } => {
                assert_eq!(cause, DisconnectCause::ClosedByPeer, "got {cause:?}");
            }
            other => panic!("expected SinkGaveUp, got {other:?}"),
        }
        assert_eq!(
            sink.disconnects_by_cause[DisconnectCause::ClosedByPeer.index()],
            1
        );
        park_tx.send(()).ok();
        server.join().unwrap();
    }

    // Blackhole: the peer accepts and then never reads — no FIN, no RST.
    // With a write timeout the stalled write surfaces as `Stalled`; without
    // one the sink would block forever (the pre-netem behavior).
    #[test]
    fn blackhole_classifies_as_stalled() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Never read; never close. TCP backpressure does the rest.
            park_rx.recv().ok();
            drop(stream);
        });
        let mut sink = ReconnectingTcpSink::connect(addr)
            .unwrap()
            .with_policy(give_up_immediately())
            .with_write_timeout(Some(Duration::from_millis(100)));

        let err = drive_until_error(&mut sink, 100_000);
        match err {
            ReplayError::SinkGaveUp { cause, .. } => {
                assert_eq!(cause, DisconnectCause::Stalled, "got {cause:?}");
            }
            other => panic!("expected SinkGaveUp, got {other:?}"),
        }
        assert_eq!(
            sink.disconnects_by_cause[DisconnectCause::Stalled.index()],
            1
        );
        assert_eq!(
            sink.disconnect_counts(),
            vec![
                ("reset", 0),
                ("closed_by_peer", 0),
                ("stalled", 1),
                ("other", 0)
            ]
        );
        park_tx.send(()).ok();
        server.join().unwrap();
    }
}
