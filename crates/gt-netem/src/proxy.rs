//! The fault-injecting TCP proxy.
//!
//! One accept loop sits on an ephemeral listener; every accepted client
//! connection gets a forwarder thread that shovels bytes to a fresh upstream
//! connection, consulting that connection's [`ConnState`] on every read. A
//! single timer thread owns the schedule: it fires faults at their planned
//! offsets, journals each apply/heal into the shared [`ChaosJournal`], and on
//! stop fast-forwards any not-yet-fired events so the journal
//! [`ChaosJournal::signature`] depends only on the `(schedule, seed)` pair —
//! never on how long the run happened to last.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gt_chaos::{ChaosEvent, ChaosEventKind, ChaosJournal};
use gt_metrics::{Clock, MetricRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::schedule::{ConnRange, KillMode, NetemFault, NetemFaultKind, NetemSchedule};
use crate::{NetemPlan, NETEM_SOURCE};

/// How long a forwarder blocks in one downstream read before re-checking
/// fault state and the stop flag.
const READ_SLICE: Duration = Duration::from_millis(10);
/// Poll interval for the nonblocking accept loop and partitioned forwarders.
const POLL_SLICE: Duration = Duration::from_millis(1);
/// Upper bound on a single throttle pause so a tiny cap cannot stall a
/// forwarder past the watchdog.
const MAX_THROTTLE_PAUSE: Duration = Duration::from_millis(500);
/// Forwarder copy-buffer size.
const COPY_BUF: usize = 8 * 1024;

const KILL_NONE: u8 = 0;
const KILL_FIN: u8 = 1;
const KILL_RST: u8 = 2;

/// Per-connection fault state, written by the timer thread and read by the
/// connection's forwarder on every pass.
#[derive(Debug, Default)]
struct ConnState {
    partitioned: AtomicBool,
    delay_micros: AtomicU64,
    jitter_micros: AtomicU64,
    throttle_kbps: AtomicU64,
    kill: AtomicU8,
    corrupt_budget: AtomicU64,
    truncate_budget: AtomicU64,
}

/// Registry of live connections plus the currently-open fault windows, so a
/// connection accepted mid-window inherits the window's effects.
#[derive(Default)]
struct Registry {
    conns: Vec<(u32, Arc<ConnState>)>,
    ongoing: Vec<(usize, NetemFault)>,
}

impl Registry {
    /// Recomputes one connection's windowed state from the open windows, in
    /// schedule order (a later delay/throttle window overrides an earlier
    /// one; any open partition window partitions).
    fn refresh_conn(&self, conn: u32, state: &ConnState) {
        let mut partitioned = false;
        let mut delay = 0u64;
        let mut jitter = 0u64;
        let mut kbps = 0u64;
        for (_, fault) in &self.ongoing {
            if !fault.conns.contains(conn) {
                continue;
            }
            match &fault.kind {
                NetemFaultKind::Partition { .. } => partitioned = true,
                NetemFaultKind::Delay {
                    delay: d,
                    jitter: j,
                    ..
                } => {
                    delay = d.as_micros() as u64;
                    jitter = j.as_micros() as u64;
                }
                NetemFaultKind::Throttle { kbps: k, .. } => kbps = *k,
                _ => {}
            }
        }
        state.partitioned.store(partitioned, Ordering::SeqCst);
        state.delay_micros.store(delay, Ordering::SeqCst);
        state.jitter_micros.store(jitter, Ordering::SeqCst);
        state.throttle_kbps.store(kbps, Ordering::SeqCst);
    }

    fn refresh_all(&self) {
        for (conn, state) in &self.conns {
            self.refresh_conn(*conn, state);
        }
    }

    /// Applies fault `index`'s windowed or one-shot effect.
    fn apply(&mut self, index: usize, fault: &NetemFault) {
        match &fault.kind {
            NetemFaultKind::Partition { .. }
            | NetemFaultKind::Delay { .. }
            | NetemFaultKind::Throttle { .. } => {
                self.ongoing.push((index, fault.clone()));
                self.refresh_all();
            }
            NetemFaultKind::Kill { mode } => {
                let code = match mode {
                    KillMode::Fin => KILL_FIN,
                    KillMode::Rst => KILL_RST,
                };
                for (conn, state) in &self.conns {
                    if fault.conns.contains(*conn) {
                        state.kill.store(code, Ordering::SeqCst);
                    }
                }
            }
            NetemFaultKind::Corrupt { bytes } => {
                for (conn, state) in &self.conns {
                    if fault.conns.contains(*conn) {
                        state.corrupt_budget.fetch_add(*bytes, Ordering::SeqCst);
                    }
                }
            }
            NetemFaultKind::Truncate { bytes } => {
                for (conn, state) in &self.conns {
                    if fault.conns.contains(*conn) {
                        state.truncate_budget.fetch_add(*bytes, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Closes fault `index`'s window and recomputes every connection.
    fn clear(&mut self, index: usize) {
        self.ongoing.retain(|(i, _)| *i != index);
        self.refresh_all();
    }
}

/// Counters shared between the accept loop, forwarders, and the report.
#[derive(Default)]
struct Shared {
    registry: Mutex<Registry>,
    connections: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_corrupted: AtomicU64,
    bytes_dropped: AtomicU64,
    kills_rst: AtomicU64,
    kills_fin: AtomicU64,
    dial_failures: AtomicU64,
}

/// What the proxy did over its lifetime, returned by [`NetemHandle::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetemReport {
    /// Client connections accepted and bridged upstream.
    pub connections: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes forwarded upstream (after truncation).
    pub bytes_out: u64,
    /// Bytes XOR-corrupted in flight.
    pub bytes_corrupted: u64,
    /// Bytes silently dropped by truncate faults.
    pub bytes_dropped: u64,
    /// Connections killed abruptly (RST).
    pub kills_rst: u64,
    /// Connections killed gracefully (FIN).
    pub kills_fin: u64,
    /// Accepted client connections the proxy could not bridge upstream.
    pub dial_failures: u64,
}

impl NetemReport {
    /// Renders all eight counters as int records under [`NETEM_SOURCE`]
    /// (the accepted connections as `proxy_connections`), ready to fold
    /// into the merged result log.
    pub fn records(&self, t_micros: u64) -> Vec<MetricRecord> {
        [
            ("proxy_connections", self.connections),
            ("bytes_in", self.bytes_in),
            ("bytes_out", self.bytes_out),
            ("bytes_corrupted", self.bytes_corrupted),
            ("bytes_dropped", self.bytes_dropped),
            ("kills_rst", self.kills_rst),
            ("kills_fin", self.kills_fin),
            ("dial_failures", self.dial_failures),
        ]
        .into_iter()
        .map(|(metric, value)| MetricRecord::int(t_micros, NETEM_SOURCE, metric, value as i64))
        .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Apply,
    Clear,
}

/// A running fault-injection proxy. Obtain one via [`NetemProxy::start`].
pub struct NetemHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: thread::JoinHandle<io::Result<()>>,
    timer: thread::JoinHandle<()>,
    shared: Arc<Shared>,
}

impl NetemHandle {
    /// The address clients should connect to instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every proxy thread to wind down. Idempotent; `join` also
    /// stops first.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the proxy, joins its threads, and returns the traffic report.
    /// Pending schedule events are fast-forwarded into the journal so the
    /// determinism witness is independent of run length.
    pub fn join(self) -> io::Result<NetemReport> {
        self.stop.store(true, Ordering::SeqCst);
        let accept = self
            .accept
            .join()
            .map_err(|_| io::Error::other("netem accept thread panicked"))?;
        self.timer
            .join()
            .map_err(|_| io::Error::other("netem timer thread panicked"))?;
        accept?;
        let s = &self.shared;
        Ok(NetemReport {
            connections: s.connections.load(Ordering::SeqCst),
            bytes_in: s.bytes_in.load(Ordering::SeqCst),
            bytes_out: s.bytes_out.load(Ordering::SeqCst),
            bytes_corrupted: s.bytes_corrupted.load(Ordering::SeqCst),
            bytes_dropped: s.bytes_dropped.load(Ordering::SeqCst),
            kills_rst: s.kills_rst.load(Ordering::SeqCst),
            kills_fin: s.kills_fin.load(Ordering::SeqCst),
            dial_failures: s.dial_failures.load(Ordering::SeqCst),
        })
    }
}

/// Entry point: binds an ephemeral listener and spawns the proxy threads.
pub struct NetemProxy;

impl NetemProxy {
    /// Starts a proxy in front of `upstream` driven by `plan`'s schedule.
    /// Fault applies and heals are journaled into `plan.journal`.
    pub fn start(
        upstream: SocketAddr,
        plan: &NetemPlan,
        clock: Arc<dyn Clock>,
    ) -> io::Result<NetemHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::default());

        let timer = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let schedule = plan.schedule.clone();
            let journal = plan.journal.clone();
            thread::Builder::new()
                .name("gt-netem-timer".into())
                .spawn(move || timer_loop(&schedule, &journal, &shared, &stop, clock))?
        };

        let accept = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let seed = plan.schedule.seed;
            thread::Builder::new()
                .name("gt-netem-accept".into())
                .spawn(move || accept_loop(listener, upstream, seed, &shared, &stop))?
        };

        Ok(NetemHandle {
            addr,
            stop,
            accept,
            timer,
            shared,
        })
    }
}

/// Fires schedule events at their offsets; fast-forwards the tail on stop.
fn timer_loop(
    schedule: &NetemSchedule,
    journal: &ChaosJournal,
    shared: &Shared,
    stop: &AtomicBool,
    clock: Arc<dyn Clock>,
) {
    let mut events: Vec<(Duration, usize, Phase)> = Vec::new();
    for (index, fault) in schedule.faults.iter().enumerate() {
        events.push((fault.at, index, Phase::Apply));
        if let Some(window) = fault.kind.clear_after() {
            events.push((fault.at + window, index, Phase::Clear));
        }
    }
    events.sort();

    let started = Instant::now();
    for (due, index, phase) in events {
        while started.elapsed() < due && !stop.load(Ordering::SeqCst) {
            let remaining = due - started.elapsed();
            thread::sleep(remaining.min(Duration::from_millis(5)));
        }
        fire(schedule, journal, shared, &clock, due, index, phase);
    }
}

fn fire(
    schedule: &NetemSchedule,
    journal: &ChaosJournal,
    shared: &Shared,
    clock: &Arc<dyn Clock>,
    due: Duration,
    index: usize,
    phase: Phase,
) {
    let fault = &schedule.faults[index];
    let mut registry = shared.registry.lock().expect("netem registry lock");
    let (kind, description) = match phase {
        Phase::Apply => {
            registry.apply(index, fault);
            (ChaosEventKind::Fault, fault.describe())
        }
        Phase::Clear => {
            registry.clear(index);
            let conns = if fault.conns == ConnRange::All {
                String::new()
            } else {
                format!(", conns={}", fault.conns)
            };
            (
                ChaosEventKind::Recovery,
                format!("heal({}{})", fault.describe(), conns),
            )
        }
    };
    drop(registry);
    journal.push(ChaosEvent {
        t_micros: clock.now_micros(),
        seq: due.as_millis() as u64,
        kind,
        description,
        events_lost: 0,
    });
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    seed: u64,
    shared: &Arc<Shared>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut forwarders = Vec::new();
    let mut next_conn: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((downstream, _)) => {
                let conn = next_conn;
                next_conn += 1;
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let up = match TcpStream::connect(upstream) {
                    Ok(up) => up,
                    Err(_) => {
                        shared.dial_failures.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                };
                downstream.set_nodelay(true).ok();
                up.set_nodelay(true).ok();
                let state = Arc::new(ConnState::default());
                {
                    let mut registry = shared.registry.lock().expect("netem registry lock");
                    registry.refresh_conn(conn, &state);
                    registry.conns.push((conn, Arc::clone(&state)));
                }
                let shared = Arc::clone(shared);
                let stop = Arc::clone(stop);
                let handle = thread::Builder::new()
                    .name(format!("gt-netem-conn-{conn}"))
                    .spawn(move || {
                        forward(conn, downstream, up, &state, seed, &shared, &stop);
                    })?;
                forwarders.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_SLICE),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for handle in forwarders {
        handle.join().ok();
    }
    Ok(())
}

/// Shovels bytes client → upstream for one connection, applying the
/// connection's fault state on every pass.
fn forward(
    conn: u32,
    downstream: TcpStream,
    up: TcpStream,
    state: &ConnState,
    seed: u64,
    shared: &Shared,
    stop: &AtomicBool,
) {
    let mut downstream = downstream;
    let mut up = up;
    downstream.set_read_timeout(Some(READ_SLICE)).ok();
    let mut rng = StdRng::seed_from_u64(seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut buf = [0u8; COPY_BUF];

    loop {
        match state.kill.swap(KILL_NONE, Ordering::SeqCst) {
            KILL_RST => {
                // Abrupt kill: close the client socket while leaving any
                // already-queued bytes unread — the kernel answers further
                // client traffic with RST. Deliberately no drain first.
                shared.kills_rst.fetch_add(1, Ordering::SeqCst);
                up.shutdown(Shutdown::Both).ok();
                return;
            }
            KILL_FIN => {
                // Graceful kill: FIN the client and stop forwarding, but
                // keep the socket parked (no reads, no close) so further
                // client writes back-pressure instead of eliciting an RST.
                // A FIN-probing sink ([`gt_replayer::ReconnectingTcpSink`])
                // notices the half-close and reconnects promptly; a plain
                // sink stalls into its write timeout. Parked bytes are
                // discarded at stop and counted as dropped.
                shared.kills_fin.fetch_add(1, Ordering::SeqCst);
                up.shutdown(Shutdown::Both).ok();
                downstream.shutdown(Shutdown::Write).ok();
                while !stop.load(Ordering::SeqCst) {
                    thread::sleep(POLL_SLICE);
                }
                downstream.set_nonblocking(true).ok();
                while let Ok(n) = downstream.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    shared.bytes_dropped.fetch_add(n as u64, Ordering::SeqCst);
                }
                return;
            }
            _ => {}
        }

        if state.partitioned.load(Ordering::SeqCst) {
            // Blackhole: stop reading entirely; TCP backpressure stalls the
            // client until the heal event flips the flag back.
            if stop.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(POLL_SLICE);
            continue;
        }

        let n = match downstream.read(&mut buf) {
            Ok(0) => {
                // Client is done: pass the FIN upstream and wind down.
                up.shutdown(Shutdown::Write).ok();
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => {
                up.shutdown(Shutdown::Both).ok();
                return;
            }
        };
        shared.bytes_in.fetch_add(n as u64, Ordering::SeqCst);

        let mut chunk = &mut buf[..n];
        let drop_n = take_budget(&state.truncate_budget, chunk.len() as u64) as usize;
        if drop_n > 0 {
            shared
                .bytes_dropped
                .fetch_add(drop_n as u64, Ordering::SeqCst);
            chunk = &mut chunk[drop_n..];
        }
        let corrupt_n = take_budget(&state.corrupt_budget, chunk.len() as u64) as usize;
        if corrupt_n > 0 {
            for byte in chunk[..corrupt_n].iter_mut() {
                *byte ^= rng.random_range(1..=255u8);
            }
            shared
                .bytes_corrupted
                .fetch_add(corrupt_n as u64, Ordering::SeqCst);
        }

        let delay = state.delay_micros.load(Ordering::SeqCst);
        if delay > 0 {
            let jitter = state.jitter_micros.load(Ordering::SeqCst);
            let offset = if jitter > 0 {
                rng.random_range(0..=2 * jitter) as i64 - jitter as i64
            } else {
                0
            };
            let pause = (delay as i64 + offset).max(0) as u64;
            thread::sleep(Duration::from_micros(pause));
        }

        if !chunk.is_empty() {
            if up.write_all(chunk).is_err() {
                downstream.shutdown(Shutdown::Both).ok();
                return;
            }
            shared
                .bytes_out
                .fetch_add(chunk.len() as u64, Ordering::SeqCst);
        }

        let kbps = state.throttle_kbps.load(Ordering::SeqCst);
        if kbps > 0 {
            let secs = n as f64 / (kbps as f64 * 1024.0);
            thread::sleep(Duration::from_secs_f64(secs).min(MAX_THROTTLE_PAUSE));
        }
    }
}

/// Atomically consumes up to `want` from a budget counter, returning how much
/// was actually taken.
fn take_budget(budget: &AtomicU64, want: u64) -> u64 {
    let mut current = budget.load(Ordering::SeqCst);
    loop {
        if current == 0 || want == 0 {
            return 0;
        }
        let take = current.min(want);
        match budget.compare_exchange(current, current - take, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return take,
            Err(actual) => current = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_metrics::WallClock;
    use std::io::{BufRead, BufReader};

    /// A line-echo upstream: accepts connections and records received
    /// lines. It reads bytes, not UTF-8: a corrupted byte must not end the
    /// reader, or the proxy's later writes fail and go uncounted.
    fn upstream_server() -> (SocketAddr, Arc<Mutex<Vec<String>>>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let lines = Arc::clone(&lines);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut readers = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let lines = Arc::clone(&lines);
                            readers.push(thread::spawn(move || {
                                let reader = BufReader::new(stream);
                                for line in reader.split(b'\n').map_while(Result::ok) {
                                    let line = String::from_utf8_lossy(&line).into_owned();
                                    lines.lock().unwrap().push(line);
                                }
                            }));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(1)),
                    }
                }
                for r in readers {
                    r.join().ok();
                }
            });
        }
        (addr, lines, stop)
    }

    fn start_proxy(upstream: SocketAddr, plan: &NetemPlan) -> NetemHandle {
        NetemProxy::start(upstream, plan, Arc::new(WallClock::start())).unwrap()
    }

    #[test]
    fn passes_traffic_through_with_an_empty_schedule() {
        let (addr, lines, server_stop) = upstream_server();
        let plan = NetemPlan::new(NetemSchedule::new(1));
        let handle = start_proxy(addr, &plan);

        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        for i in 0..100 {
            writeln!(client, "line-{i}").unwrap();
        }
        drop(client);

        let deadline = Instant::now() + Duration::from_secs(5);
        while lines.lock().unwrap().len() < 100 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let got = lines.lock().unwrap().clone();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0], "line-0");
        assert_eq!(got[99], "line-99");

        let report = handle.join().unwrap();
        server_stop.store(true, Ordering::SeqCst);
        assert_eq!(report.connections, 1);
        assert!(report.bytes_in >= 100);
        assert_eq!(report.bytes_in, report.bytes_out);
        assert!(plan.journal.signature().is_empty());
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (addr, lines, server_stop) = upstream_server();
        let schedule = NetemSchedule::parse("partition@50ms,dur=150ms", 3).expect("valid schedule");
        let plan = NetemPlan::new(schedule);
        let handle = start_proxy(addr, &plan);

        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        let start = Instant::now();
        // Write continuously for ~400ms; during the partition nothing should
        // arrive upstream, afterwards everything must.
        let mut sent = 0u64;
        while start.elapsed() < Duration::from_millis(400) {
            writeln!(client, "event-{sent}").unwrap();
            sent += 1;
            thread::sleep(Duration::from_millis(2));
        }
        drop(client);

        let deadline = Instant::now() + Duration::from_secs(5);
        while (lines.lock().unwrap().len() as u64) < sent && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            lines.lock().unwrap().len() as u64,
            sent,
            "all events arrive after heal"
        );

        handle.join().unwrap();
        server_stop.store(true, Ordering::SeqCst);
        assert_eq!(
            plan.journal.signature(),
            vec![
                (50, "partition(dur=150ms)@50ms".to_owned()),
                (200, "heal(partition(dur=150ms)@50ms)".to_owned()),
            ]
        );
    }

    #[test]
    fn rst_kill_surfaces_as_a_client_write_error() {
        let (addr, _lines, server_stop) = upstream_server();
        let schedule = NetemSchedule::parse("kill@50ms,mode=rst,conns=0", 3).unwrap();
        let plan = NetemPlan::new(schedule);
        let handle = start_proxy(addr, &plan);

        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.set_nodelay(true).unwrap();
        let payload = vec![b'x'; 4096];
        let mut failed = false;
        for _ in 0..2000 {
            if client
                .write_all(&payload)
                .and_then(|_| client.flush())
                .is_err()
            {
                failed = true;
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert!(failed, "client write should fail after RST kill");

        let report = handle.join().unwrap();
        server_stop.store(true, Ordering::SeqCst);
        assert_eq!(report.kills_rst, 1);
        assert_eq!(plan.journal.signature().len(), 1);
    }

    #[test]
    fn corrupt_and_truncate_budgets_are_accounted() {
        let (addr, lines, server_stop) = upstream_server();
        // One-shot budgets land on connections live at fire time, so connect
        // first and let the 100ms trigger find the connection.
        let schedule =
            NetemSchedule::parse("truncate@100ms,bytes=8; corrupt@100ms,bytes=4", 11).unwrap();
        let plan = NetemPlan::new(schedule);
        let handle = start_proxy(addr, &plan);

        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        thread::sleep(Duration::from_millis(200));
        for i in 0..50 {
            writeln!(client, "payload-{i:04}").unwrap();
        }
        drop(client);

        let deadline = Instant::now() + Duration::from_secs(5);
        while lines.lock().unwrap().len() < 40 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let report = handle.join().unwrap();
        server_stop.store(true, Ordering::SeqCst);
        assert_eq!(report.bytes_dropped, 8);
        assert_eq!(report.bytes_corrupted, 4);
        assert_eq!(report.bytes_out, report.bytes_in - 8);
    }

    #[test]
    fn three_runs_with_one_seed_produce_identical_signatures() {
        let spec = "partition@20ms,dur=30ms,conns=0-3; delay@40ms,ms=1,jitter=1,dur=20ms; \
                    kill@60ms,mode=fin,conns=1; corrupt@80ms,bytes=4";
        let mut signatures = Vec::new();
        for run in 0..3 {
            let (addr, _lines, server_stop) = upstream_server();
            let plan = NetemPlan::new(NetemSchedule::parse(spec, 42).unwrap());
            let handle = start_proxy(addr, &plan);
            let mut client = TcpStream::connect(handle.local_addr()).unwrap();
            // Vary run length per run: signatures must not care.
            let writes = 10 + run * 40;
            for i in 0..writes {
                writeln!(client, "r{run}-{i}").ok();
                thread::sleep(Duration::from_millis(1));
            }
            drop(client);
            handle.join().unwrap();
            server_stop.store(true, Ordering::SeqCst);
            signatures.push(plan.journal.signature());
        }
        assert_eq!(signatures[0], signatures[1]);
        assert_eq!(signatures[1], signatures[2]);
        // Every scheduled event fired exactly once: 4 applies + 2 heals.
        assert_eq!(signatures[0].len(), 6);
    }

    #[test]
    fn stop_fast_forwards_unfired_events_into_the_journal() {
        let (addr, _lines, server_stop) = upstream_server();
        // Scheduled far in the future; joining immediately must still fire it.
        let plan = NetemPlan::new(NetemSchedule::parse("partition@60s,dur=1s", 5).unwrap());
        let handle = start_proxy(addr, &plan);
        handle.join().unwrap();
        server_stop.store(true, Ordering::SeqCst);
        assert_eq!(
            plan.journal.signature(),
            vec![
                (60_000, "partition(dur=1s)@60s".to_owned()),
                (61_000, "heal(partition(dur=1s)@60s)".to_owned()),
            ]
        );
    }
}
