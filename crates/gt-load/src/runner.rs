//! The composed fan-out: start the listener and all clients, route the
//! stream to them, and collect both sides' reports.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gt_core::prelude::*;
use gt_metrics::Clock;
use gt_netem::{NetemProxy, NetemReport};
use gt_replayer::{StreamSource, TcpSink};

use crate::client::{drive, ClientConfig, ClientReport};
use crate::feed::Router;
use crate::listener::{ListenerReport, LoadListener};
use crate::partition::SeededPartitioner;
use crate::plan::LoadPlan;

/// How the runner builds one platform connector per accepted connection
/// (re-export of the listener's factory type).
pub type ConnectorFactory = crate::listener::ConnectorFn;

/// Attempts a client makes to reach the listener before giving up —
/// hundreds of simultaneous connects can transiently overflow the accept
/// backlog.
const CONNECT_ATTEMPTS: u32 = 100;
const CONNECT_RETRY_DELAY: Duration = Duration::from_millis(10);

/// Write timeout on client sockets when a netem proxy is in the path: a
/// blackholed connection must surface as a typed timeout error, not a
/// client thread wedged in `write(2)` forever.
const NETEM_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Both sides of a finished load run.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Per-client reports, in connection order (class mix order). Clients
    /// that failed (e.g. killed by a netem fault) are absent here and
    /// listed in [`LoadOutcome::client_failures`] instead.
    pub clients: Vec<ClientReport>,
    /// `(connection index, error)` per client whose run ended in an I/O
    /// error. Non-empty failures degrade the outcome instead of failing
    /// the whole run — unless *every* client failed.
    pub client_failures: Vec<(usize, String)>,
    /// The SUT-side listener's report.
    pub listener: ListenerReport,
    /// Traffic counters of the fault proxy, when the plan carried one.
    pub netem: Option<NetemReport>,
}

impl LoadOutcome {
    /// Graph events offered across all clients.
    pub fn offered(&self) -> u64 {
        self.clients.iter().map(|c| c.offered).sum()
    }

    /// Graph events written across all clients.
    pub fn sent(&self) -> u64 {
        self.clients.iter().map(|c| c.sent).sum()
    }

    /// Aggregate offered rate, events per second (earliest client start
    /// to latest client finish).
    pub fn offered_rate(&self) -> f64 {
        self.aggregate_rate(|c| c.offered)
    }

    /// Aggregate achieved (written) rate, events per second.
    pub fn achieved_rate(&self) -> f64 {
        self.aggregate_rate(|c| c.sent)
    }

    /// Time the clients waited on their queues while an arrival was due,
    /// summed, microseconds.
    pub fn feed_stall_micros(&self) -> u64 {
        self.clients.iter().map(|c| c.feed_stall_micros).sum()
    }

    /// Achieved/offered ratio in [0, 1]; 1.0 when nothing was offered.
    pub fn achieved_ratio(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 1.0;
        }
        self.sent() as f64 / offered as f64
    }

    fn aggregate_rate(&self, count: impl Fn(&ClientReport) -> u64) -> f64 {
        let start = self.clients.iter().map(|c| c.started_micros).min();
        let end = self.clients.iter().map(|c| c.finished_micros).max();
        match (start, end) {
            (Some(start), Some(end)) if end > start => {
                let total: u64 = self.clients.iter().map(count).sum();
                total as f64 / ((end - start) as f64 / 1e6)
            }
            _ => 0.0,
        }
    }

    /// The reports of one client class.
    pub fn class_reports<'a>(
        &'a self,
        class: &'a str,
    ) -> impl Iterator<Item = &'a ClientReport> + Clone {
        self.clients.iter().filter(move |c| c.class == class)
    }
}

/// Connects to the listener with bounded retries.
fn connect_with_retry(addr: SocketAddr, write_timeout: Option<Duration>) -> io::Result<TcpSink> {
    let mut last = None;
    for _ in 0..CONNECT_ATTEMPTS {
        match TcpSink::connect_with(addr, write_timeout) {
            Ok(sink) => return Ok(sink),
            Err(e) => {
                last = Some(e);
                thread::sleep(CONNECT_RETRY_DELAY);
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("listener unreachable")))
}

/// Runs a full load experiment: starts the multi-connection listener with
/// one platform connector per connection from `connect`, starts every
/// client of every class, and routes `source` to them on this thread
/// ([`Router::route`]: each graph event to one client, markers to all)
/// while they drive their connections concurrently over TCP; returns
/// both sides' reports.
///
/// Client `i` gets arrival-schedule seed `plan.seed + i`, so schedules
/// are distinct but the whole run is a deterministic function of the
/// plan (modulo wall-clock scheduling).
///
/// A bad line in a stream file ends the routing pass: the entries before
/// it are delivered, the run winds down, and the error comes back as an
/// [`io::Error`] whose inner error is the line-numbered [`CoreError`]
/// `GraphStream::read_from_file` gives ([`source_error`] takes it out).
pub fn run_load<'a>(
    source: impl Into<StreamSource<'a>>,
    plan: &LoadPlan,
    connect: ConnectorFactory,
    clock: Arc<dyn Clock>,
) -> io::Result<LoadOutcome> {
    let total = plan.total_connections();
    if total == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "load plan has no connections",
        ));
    }
    let (router, queues) = Router::new(SeededPartitioner::new(total, plan.seed));
    let mut queues = queues.into_iter();
    let listener = LoadListener::bind()?;
    let addr = listener.local_addr()?;
    let handle = listener.start(total, connect, Arc::clone(&clock))?;

    // With a netem plan, clients dial the fault proxy instead of the
    // listener directly, and carry a write timeout so a blackholed
    // connection errors out instead of wedging its thread.
    let netem_handle = match &plan.netem {
        Some(netem) => Some(NetemProxy::start(addr, netem, Arc::clone(&clock))?),
        None => None,
    };
    let (dial_addr, write_timeout) = match &netem_handle {
        Some(proxy) => (proxy.local_addr(), Some(NETEM_WRITE_TIMEOUT)),
        None => (addr, None),
    };

    let mut workers = Vec::with_capacity(total);
    let mut conn = 0usize;
    for class in &plan.classes {
        for _ in 0..class.connections {
            // Each client thread owns its queue; a client that ends, in
            // error too, drops it and so closes it to the router.
            let queue = queues
                .next()
                .expect("the router makes one queue per connection");
            let config = ClientConfig::new(
                class.name.clone(),
                class.model,
                class.rate_per_connection,
                plan.seed.wrapping_add(conn as u64),
            )
            .with_pattern(plan.pattern.clone());
            let clock = Arc::clone(&clock);
            workers.push((
                conn,
                thread::Builder::new()
                    .name(format!("gt-load-client-{conn}"))
                    .spawn(move || -> io::Result<ClientReport> {
                        let sink = connect_with_retry(dial_addr, write_timeout)?;
                        drive(queue, &config, Box::new(sink), clock)
                    })?,
            ));
            conn += 1;
        }
    }
    let routed = router.route(source.into());

    let mut clients = Vec::with_capacity(total);
    let mut client_failures = Vec::new();
    for (conn, worker) in workers {
        match worker.join() {
            Ok(Ok(report)) => clients.push(report),
            Ok(Err(e)) => client_failures.push((conn, e.to_string())),
            Err(_) => client_failures.push((conn, "client panicked".to_owned())),
        }
    }

    // Client sockets are closed now. Stop the proxy first — a forwarder
    // mid-partition isn't reading, so only the stop flag guarantees the
    // proxied sockets close and the listener's readers reach EOF.
    let netem_report = match netem_handle {
        Some(proxy) => {
            proxy.stop();
            Some(proxy.join()?)
        }
        None => None,
    };
    handle.stop();
    let listener_report = handle.join()?;

    if let Err(e) = routed {
        let kind = match &e {
            CoreError::Io(e) => e.kind(),
            CoreError::Parse(_) => io::ErrorKind::InvalidData,
        };
        return Err(io::Error::new(kind, e));
    }
    // Failed clients degrade the outcome (typed, alongside the listener's
    // `connections_lost`); only a fully failed fleet fails the run.
    if clients.is_empty() {
        let detail = client_failures
            .first()
            .map(|(conn, e)| format!("all {total} clients failed; first: conn {conn}: {e}"))
            .unwrap_or_else(|| "no clients ran".to_owned());
        return Err(io::Error::other(detail));
    }
    Ok(LoadOutcome {
        clients,
        client_failures,
        listener: listener_report,
        netem: netem_report,
    })
}

/// The stream source's error inside an error of [`run_load`], if that is
/// what ended the run.
pub fn source_error(error: io::Error) -> Result<CoreError, io::Error> {
    if !error.get_ref().is_some_and(|inner| inner.is::<CoreError>()) {
        return Err(error);
    }
    let inner = error.into_inner().expect("checked above");
    Ok(*inner.downcast::<CoreError>().expect("checked above"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LoopModel;
    use gt_metrics::WallClock;
    use gt_replayer::EventSink;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A connector counting events and recording markers globally.
    struct CountingSink {
        events: Arc<AtomicU64>,
        markers: Arc<Mutex<Vec<String>>>,
    }

    impl EventSink for CountingSink {
        fn send(&mut self, entry: &StreamEntry) -> io::Result<()> {
            match entry {
                StreamEntry::Graph(_) => {
                    self.events.fetch_add(1, Ordering::Relaxed);
                }
                StreamEntry::Marker(name) => self.markers.lock().unwrap().push(name.clone()),
                StreamEntry::Control(_) => {}
            }
            Ok(())
        }

        fn send_batch(&mut self, batch: &[SharedEntry]) -> io::Result<()> {
            for entry in batch {
                self.send(entry)?;
            }
            Ok(())
        }
    }

    fn sample_stream(n: u64) -> GraphStream {
        let mut stream = GraphStream::new();
        for i in 0..n {
            stream.push(StreamEntry::graph(GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            }));
            if i == n / 2 {
                stream.push(StreamEntry::marker("mid"));
            }
        }
        stream.push(StreamEntry::marker("end"));
        stream
    }

    #[test]
    fn fan_out_delivers_every_event_once_and_markers_once() {
        let events = Arc::new(AtomicU64::new(0));
        let markers = Arc::new(Mutex::new(Vec::new()));
        let stream = sample_stream(600);
        let plan = LoadPlan::single(6, 120_000.0, LoopModel::Open, 11);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_events = Arc::clone(&events);
        let factory_markers = Arc::clone(&markers);
        let outcome = run_load(
            &stream,
            &plan,
            Box::new(move || {
                Ok(Box::new(CountingSink {
                    events: Arc::clone(&factory_events),
                    markers: Arc::clone(&factory_markers),
                }) as Box<dyn EventSink + Send>)
            }),
            clock,
        )
        .unwrap();
        assert_eq!(outcome.offered(), 600);
        assert_eq!(outcome.sent(), 600);
        assert_eq!(
            events.load(Ordering::Relaxed),
            600,
            "each event exactly once"
        );
        assert_eq!(
            markers.lock().unwrap().as_slice(),
            &["mid".to_owned(), "end".to_owned()],
            "each marker exactly once, in order"
        );
        assert_eq!(outcome.listener.connections, 6);
        assert_eq!(outcome.listener.marker_violations, 0);
        assert!(outcome.achieved_ratio() > 0.999);
    }

    #[test]
    fn class_mix_reports_per_class() {
        let events = Arc::new(AtomicU64::new(0));
        let markers = Arc::new(Mutex::new(Vec::new()));
        let stream = sample_stream(300);
        let mut plan = LoadPlan::single(3, 60_000.0, LoopModel::Open, 5);
        plan.classes.push(crate::plan::ClientClass::new(
            "probe",
            1,
            20_000.0,
            LoopModel::Closed,
        ));
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_events = Arc::clone(&events);
        let factory_markers = Arc::clone(&markers);
        let outcome = run_load(
            &stream,
            &plan,
            Box::new(move || {
                Ok(Box::new(CountingSink {
                    events: Arc::clone(&factory_events),
                    markers: Arc::clone(&factory_markers),
                }) as Box<dyn EventSink + Send>)
            }),
            clock,
        )
        .unwrap();
        assert_eq!(outcome.clients.len(), 4);
        assert_eq!(outcome.class_reports("main").count(), 3);
        assert_eq!(outcome.class_reports("probe").count(), 1);
        let probe = outcome.class_reports("probe").next().unwrap();
        assert_eq!(probe.model, LoopModel::Closed);
        assert_eq!(outcome.offered(), 300);
    }

    // Satellite regression: kill 1 of 4 clients mid-stream through the
    // fault proxy. The run must complete with the death typed — a
    // `client_failures` entry, a listener `connections_lost` count — and
    // the surviving connections' markers must still deliver in order.
    #[test]
    fn netem_kill_degrades_one_client_without_failing_the_run() {
        let events = Arc::new(AtomicU64::new(0));
        let markers = Arc::new(Mutex::new(Vec::new()));
        let stream = sample_stream(400);
        let netem = gt_netem::NetemPlan::new(
            gt_netem::NetemSchedule::parse("kill@300ms,mode=rst,conns=0", 3).unwrap(),
        );
        let journal = netem.journal.clone();
        let plan = LoadPlan::single(4, 400.0, LoopModel::Open, 11).with_netem(netem);
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let factory_events = Arc::clone(&events);
        let factory_markers = Arc::clone(&markers);
        let outcome = run_load(
            &stream,
            &plan,
            Box::new(move || {
                Ok(Box::new(CountingSink {
                    events: Arc::clone(&factory_events),
                    markers: Arc::clone(&factory_markers),
                }) as Box<dyn EventSink + Send>)
            }),
            clock,
        )
        .unwrap();
        assert_eq!(outcome.clients.len() + outcome.client_failures.len(), 4);
        assert_eq!(
            outcome.client_failures.len(),
            1,
            "exactly the killed client fails: {:?}",
            outcome.client_failures
        );
        let netem_report = outcome.netem.as_ref().expect("netem report present");
        assert_eq!(netem_report.kills_rst, 1);
        assert_eq!(netem_report.connections, 4);
        assert!(outcome.listener.connections_lost >= 1);
        assert_eq!(outcome.listener.marker_violations, 0);
        assert_eq!(
            markers.lock().unwrap().as_slice(),
            &["mid".to_owned(), "end".to_owned()],
            "surviving connections still deliver every marker once"
        );
        let signature = journal.signature();
        assert_eq!(signature.len(), 1);
        assert_eq!(signature[0].0, 300);
        assert!(signature[0].1.contains("kill"), "{signature:?}");
    }

    #[test]
    fn empty_plan_rejected() {
        let stream = sample_stream(1);
        let plan = LoadPlan {
            classes: Vec::new(),
            seed: 0,
            pattern: gt_replayer::pattern::RatePattern::Uniform,
            netem: None,
        };
        let clock: Arc<dyn Clock> = Arc::new(WallClock::start());
        let err = run_load(&stream, &plan, Box::new(|| unreachable!()), clock).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
