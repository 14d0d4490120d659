//! The sharded store runtime: client → entity-affine router → N batched
//! per-shard sequencers.
//!
//! The serial [`crate::TideStore`] deliberately funnels every transaction
//! through one timestamper thread — the Weaver-style bottleneck the paper
//! measures (fig 3b/3c). This module is the scaling counter-move: the
//! global sequencer is replaced by a lock-free router that assigns each
//! event a global sequence number ([`std::sync::atomic::AtomicU64`]) and
//! forwards it to the shard owning its entity ([`crate::store::shard_for`]
//! — the same pure routing function the serial store's writers use). Each
//! shard runs its *own* sequencer, paying the ordering cost once per
//! received batch instead of once per transaction on a single thread, so
//! ordering work parallelizes N ways while the total order *within* each
//! partition is preserved: one entity's events always meet the same shard
//! in submission order.
//!
//! # Equivalence to the serial store
//!
//! The global sequence numbers are assigned at routing time, before any
//! shard queue is touched. With a single connector this numbering equals
//! the serial timestamper's commit order, so merging the per-shard logs
//! by sequence number at shutdown must reconstruct a bit-identical graph
//! — the property the differential harness
//! ([`gt_harness::differential`](../gt_harness/index.html)) pins.
//!
//! # Markers
//!
//! A marker records its *cut* — the router's sequence counter at the
//! moment the marker is submitted — and is then broadcast to every shard
//! (each shard logs it exactly once; [`ShardedClient::marker_barrier`]
//! additionally waits for every live shard to acknowledge). The cut is
//! recorded at the router rather than inside any shard, so it survives
//! shard crashes, and log entries below the cut are exactly the events
//! submitted before the marker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use gt_core::prelude::*;
use gt_metrics::hub::Counter;
use gt_metrics::MetricsHub;
use gt_sut::WorkerSupervisor;
use gt_trace::TracerCell;
use parking_lot::Mutex;

use crate::shard::{ShardLog, ShardMsg, ShardPool, StoreSupervisor};
use crate::store::{shard_for, shard_for_key, StoreClosed, StoreConfig, StoreStats, Transaction};

/// Shared internals of the sharded runtime: the shard pool plus the
/// router's state.
struct ShardedCore {
    /// The shards pay `timestamper_cost_per_tx` once per received batch —
    /// the "batched per-shard sequencer".
    pool: Arc<ShardPool>,
    /// The router's global event sequence: assigned at submit time,
    /// before any queue send, so it is crash-safe and (with a single
    /// connector) equals the serial store's commit order.
    global_seq: AtomicU64,
    /// Marker cuts in submission order: `(name, sequence at the cut)`.
    cuts: Mutex<Vec<(String, u64)>>,
    /// `store.tx` / `store.events`, as in the serial store.
    tx: Counter,
    events: Counter,
    /// `store.marker_skips`: markers a dead shard never saw.
    marker_skips: Counter,
}

/// The running sharded store.
pub struct ShardedStore {
    core: Arc<ShardedCore>,
}

/// A router client handle; cloneable. Each submit routes the
/// transaction's events to their owner shards under the pool's routing
/// guard, stamping each with the next global sequence number.
#[derive(Clone)]
pub struct ShardedClient {
    core: Arc<ShardedCore>,
}

impl ShardedStore {
    /// Starts the sharded store: `config.shards` sequencer threads and no
    /// central timestamper. `config.timestamper_cost_per_tx` is paid once
    /// per *shard batch* by the owning shard's sequencer;
    /// `config.shard_cost_per_event` per event as in the serial store.
    /// Metrics are registered on `hub` under the serial store's names
    /// (`store.tx`, `store.events`, `shard-N.busy_micros`, …) plus
    /// `store.marker_skips`.
    pub fn start(config: StoreConfig, hub: &MetricsHub) -> Self {
        let batch_cost = config.timestamper_cost_per_tx;
        let core = Arc::new(ShardedCore {
            pool: ShardPool::start(config, batch_cost, hub),
            global_seq: AtomicU64::new(0),
            cuts: Mutex::new(Vec::new()),
            tx: hub.counter("store.tx"),
            events: hub.counter("store.events"),
            marker_skips: hub.counter("store.marker_skips"),
        });
        ShardedStore { core }
    }

    /// A new router client handle.
    pub fn client(&self) -> ShardedClient {
        ShardedClient {
            core: Arc::clone(&self.core),
        }
    }

    /// The tracer slot shared with the shard threads (apply stamps are
    /// keyed by global sequence number, as in the serial store).
    pub fn tracer_cell(&self) -> &TracerCell {
        &self.core.pool.tracer_cell
    }

    /// The store's crash/restart control surface, for chaos runs.
    pub fn supervisor(&self) -> Arc<dyn WorkerSupervisor> {
        Arc::new(StoreSupervisor(Arc::clone(&self.core.pool)))
    }

    /// Events routed (sequenced) so far.
    pub fn events_routed(&self) -> u64 {
        self.core.global_seq.load(Ordering::SeqCst)
    }

    /// Blocks until every live shard has applied every event routed to it
    /// before the call, or the timeout elapses (routing happens on the
    /// submitting thread, so there is no ingestion stage to wait for).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.core.pool.quiesce(timeout, || true)
    }

    /// Per-shard marker sightings so far: `(name, shard)` in processing
    /// order.
    pub fn shard_markers(&self) -> Vec<(String, usize)> {
        let sightings = self.core.pool.shard_markers.lock();
        sightings
            .iter()
            .map(|(name, shard)| (name.to_string(), *shard))
            .collect()
    }

    /// Stops all shards, joins them tolerantly, and merges their logs by
    /// global sequence number into the committed graph — the same
    /// reconstruction the serial store performs over commit timestamps.
    pub fn shutdown(self) -> ShardedStats {
        let core = &self.core;
        let logs = core.pool.join();
        // A restarted slot appends to its dead thread's (empty) list,
        // which keeps the rebuilt order.
        let mut per_shard_seqs: Vec<Vec<u64>> = vec![Vec::new(); core.pool.config.shards];
        for (shard, log) in &logs {
            per_shard_seqs[*shard].extend(log.iter().map(|(seq, _)| *seq));
        }
        let cuts = std::mem::take(&mut *core.cuts.lock());
        ShardedStats {
            store: core.pool.stats(core.tx.get(), cuts, logs),
            per_shard_seqs,
            shard_markers: self.shard_markers(),
            marker_skips: core.marker_skips.get(),
        }
    }
}

/// Final statistics of a sharded run: the merged [`StoreStats`] view plus
/// the per-shard evidence the shard contract tests assert on.
#[derive(Debug)]
pub struct ShardedStats {
    /// The merged view — same shape as the serial store's stats, with
    /// sequence numbers in the timestamp slots.
    pub store: StoreStats,
    /// Apply-order sequence numbers per shard slot. With a single
    /// connector and no faults each list is strictly increasing and
    /// equals the input subsequence routed to that shard.
    pub per_shard_seqs: Vec<Vec<u64>>,
    /// Marker sightings `(name, shard)` in processing order — every
    /// marker must appear exactly once per live shard.
    pub shard_markers: Vec<(String, usize)>,
    /// Markers that could not be delivered because a shard was dead.
    pub marker_skips: u64,
}

impl ShardedClient {
    /// Routes a transaction's events to their owner shards, stamping each
    /// with the next global sequence number. Blocks while an owner
    /// shard's queue is full (per-shard backpressure); events owed to a
    /// dead shard are counted lost, exactly like the serial store.
    pub fn submit(&self, transaction: Transaction) -> Result<(), Transaction> {
        let pool = &self.core.pool;
        if pool.stopping.load(Ordering::SeqCst) {
            return Err(transaction);
        }
        let routes = pool.routes();
        let shards = routes.len();
        let supervised = pool.config.supervised;
        let mut slices: Vec<ShardLog> = vec![Vec::new(); shards];
        for event in transaction.events {
            let seq = self.core.global_seq.fetch_add(1, Ordering::SeqCst);
            if supervised {
                pool.retained.lock().push((seq, event.clone()));
            }
            let shard = shard_for(event.event(), shards as u64) as usize;
            slices[shard].push((seq, event));
        }
        for (shard, slice) in slices.into_iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let n = slice.len() as u64;
            if pool.post(&routes, shard, slice) {
                self.core.events.add(n);
            } else {
                pool.counters.events_lost.add(n);
            }
        }
        self.core.tx.inc();
        Ok(())
    }

    /// Submits a watermark: records its cut (the router's sequence
    /// counter right now) and broadcasts it to every shard. Dead shards
    /// are skipped and counted (`store.marker_skips`) — a degradation
    /// record, never a hang. Returns the number of shards reached.
    pub fn marker(&self, name: &str) -> usize {
        self.marker_with(name, None)
    }

    /// Like [`Self::marker`], but waits (up to `timeout`) until every
    /// shard that received the marker has processed it — the marker
    /// barrier. Returns the number of acknowledgements received.
    pub fn marker_barrier(&self, name: &str, timeout: Duration) -> usize {
        let (ack_tx, ack_rx) = bounded::<()>(self.core.pool.config.shards);
        let sent = self.marker_with(name, Some(ack_tx));
        let deadline = Instant::now() + timeout;
        let mut acked = 0usize;
        while acked < sent {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || ack_rx.recv_timeout(left).is_err() {
                break;
            }
            acked += 1;
        }
        acked
    }

    fn marker_with(&self, name: &str, ack: Option<Sender<()>>) -> usize {
        // The cut is recorded at the router, not inside any shard: it
        // survives shard crashes and needs no cross-shard coordination.
        let cut = self.core.global_seq.load(Ordering::SeqCst);
        self.core.cuts.lock().push((name.to_owned(), cut));
        // Intern once; the per-shard fan-out clones refcounts, not Strings.
        let name = gt_core::intern::intern(name);
        let mut reached = 0usize;
        for tx in self.core.pool.routes().iter() {
            if tx
                .send(ShardMsg::Marker(Arc::clone(&name), ack.clone()))
                .is_ok()
            {
                reached += 1;
            } else {
                self.core.marker_skips.inc();
            }
        }
        reached
    }

    /// Sends a read to the owner of `key` and waits for the reply.
    fn read(
        &self,
        key: u64,
        msg: impl FnOnce(Sender<Option<State>>) -> ShardMsg,
    ) -> Result<Option<State>, StoreClosed> {
        let (reply_tx, reply_rx) = bounded(1);
        {
            let routes = self.core.pool.routes();
            let shard = shard_for_key(key, routes.len() as u64) as usize;
            routes[shard].send(msg(reply_tx)).map_err(|_| StoreClosed)?;
        }
        reply_rx.recv().map_err(|_| StoreClosed)
    }

    /// Reads a vertex's current state from its owner shard, ordered
    /// behind every write this client routed to that shard before.
    pub fn read_vertex(&self, id: VertexId) -> Result<Option<State>, StoreClosed> {
        self.read(id.0, |reply| ShardMsg::ReadVertex(id, reply))
    }

    /// Reads an edge's current state from the shard owning its source.
    pub fn read_edge(&self, id: EdgeId) -> Result<Option<State>, StoreClosed> {
        self.read(id.src.0, |reply| ShardMsg::ReadEdge(id, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(shards: usize) -> StoreConfig {
        StoreConfig {
            shards,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 64,
            supervised: false,
        }
    }

    fn vertex_events(n: u64) -> Vec<GraphEvent> {
        (0..n)
            .map(|i| GraphEvent::AddVertex {
                id: VertexId(i),
                state: State::empty(),
            })
            .collect()
    }

    #[test]
    fn sharded_store_commits_and_reconstructs() {
        let hub = MetricsHub::new();
        let store = ShardedStore::start(fast_config(4), &hub);
        let client = store.client();
        for event in vertex_events(100) {
            client.submit(Transaction::single(event)).unwrap();
        }
        assert!(store.quiesce(Duration::from_secs(5)));
        let stats = store.shutdown();
        assert_eq!(stats.store.events, 100);
        assert_eq!(stats.store.graph.vertex_count(), 100);
        // Sequence numbers cover 0..100 exactly once after the merge.
        let seqs: Vec<u64> = stats.store.log.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn per_shard_logs_preserve_submission_order() {
        let hub = MetricsHub::new();
        let store = ShardedStore::start(fast_config(3), &hub);
        let client = store.client();
        let events = vertex_events(200);
        for event in &events {
            client.submit(Transaction::single(event.clone())).unwrap();
        }
        assert!(store.quiesce(Duration::from_secs(5)));
        let stats = store.shutdown();
        for (shard, seqs) in stats.per_shard_seqs.iter().enumerate() {
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "shard {shard} log out of order: {seqs:?}"
            );
            let expected: Vec<u64> = (0..200u64)
                .filter(|i| shard_for(&events[*i as usize], 3) == shard as u64)
                .collect();
            assert_eq!(seqs, &expected, "shard {shard}");
        }
    }

    #[test]
    fn markers_cut_and_reach_every_shard() {
        let hub = MetricsHub::new();
        let store = ShardedStore::start(fast_config(4), &hub);
        let client = store.client();
        for event in vertex_events(10) {
            client.submit(Transaction::single(event)).unwrap();
        }
        let acked = client.marker_barrier("mid", Duration::from_secs(5));
        assert_eq!(acked, 4);
        for event in vertex_events(10).into_iter().map(|e| match e {
            GraphEvent::AddVertex { id, state } => GraphEvent::AddVertex {
                id: VertexId(id.0 + 100),
                state,
            },
            other => other,
        }) {
            client.submit(Transaction::single(event)).unwrap();
        }
        assert!(store.quiesce(Duration::from_secs(5)));
        let stats = store.shutdown();
        assert_eq!(stats.store.markers, vec![("mid".to_owned(), 10)]);
        let sightings: Vec<usize> = stats
            .shard_markers
            .iter()
            .filter(|(name, _)| name == "mid")
            .map(|(_, shard)| *shard)
            .collect();
        let mut sorted = sightings.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "exactly once per shard");
        assert_eq!(stats.marker_skips, 0);
    }

    #[test]
    fn crash_and_supervised_restart_rebuild_the_shard() {
        let hub = MetricsHub::new();
        let store = ShardedStore::start(
            StoreConfig {
                supervised: true,
                ..fast_config(2)
            },
            &hub,
        );
        let client = store.client();
        let events = vertex_events(50);
        for event in &events[..25] {
            client.submit(Transaction::single(event.clone())).unwrap();
        }
        let supervisor = store.supervisor();
        assert!(supervisor.inject_crash(0));
        assert!(supervisor.restart_worker(0));
        for event in &events[25..] {
            client.submit(Transaction::single(event.clone())).unwrap();
        }
        assert!(store.quiesce(Duration::from_secs(5)));
        let stats = store.shutdown();
        // Replay rebuilt the crashed shard: the merged graph is complete.
        assert_eq!(stats.store.graph.vertex_count(), 50);
        assert_eq!(stats.store.crashes, 1);
        assert_eq!(stats.store.restarts, 1);
    }
}
