//! The store's heap follows the live graph, not the stream length.
//!
//! A churn stream keeps the live graph at a fixed size — a few thousand
//! vertices, then updates, edge adds and edge removals that hold the edge
//! count under a cap — and is fed through a zero-cost store. Once the
//! store has quiesced, nothing it holds may depend on how many events it
//! has seen: the live heap after 200 000 events must be within 10 % of the
//! live heap after 50 000. A counting global allocator (this test binary
//! only) measures the heap; the one test in this file keeps other tests'
//! allocations out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gt_core::prelude::*;
use gt_metrics::MetricsHub;
use tide_store::{StoreConfig, TideStore, Transaction};

/// Bytes currently allocated (wrapping, so a free may briefly run ahead
/// of its allocation's count on another thread).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const VERTICES: u64 = 3_000;
/// The most edges the churn keeps live at once.
const EDGES: usize = 6_000;

/// A seeded churn stream, generated as it is read: every vertex once,
/// then updates, edge adds and edge removals. An add past the edge cap
/// becomes the removal of the oldest edge added, so the live graph never
/// outgrows `VERTICES` vertices and `EDGES` edges.
struct Churn {
    x: u64,
    vertices_added: u64,
    edges: VecDeque<EdgeId>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Churn {
            x: seed | 1,
            vertices_added: 0,
            edges: VecDeque::with_capacity(EDGES),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.x >> 33
    }

    fn vertex(&mut self) -> VertexId {
        VertexId(self.next_u64() % VERTICES)
    }

    fn next_event(&mut self) -> GraphEvent {
        if self.vertices_added < VERTICES {
            self.vertices_added += 1;
            return GraphEvent::AddVertex {
                id: VertexId(self.vertices_added - 1),
                state: State::new("v"),
            };
        }
        let state = State::weight((self.next_u64() % 9 + 1) as f64);
        match self.next_u64() % 10 {
            0..=3 if self.edges.len() == EDGES => GraphEvent::RemoveEdge {
                id: self.edges.pop_front().expect("at the cap"),
            },
            0..=3 => {
                let (src, dst) = (self.vertex(), self.vertex());
                let id = EdgeId::new(src, dst);
                self.edges.push_back(id);
                GraphEvent::AddEdge { id, state }
            }
            4..=6 if !self.edges.is_empty() => {
                let at = self.next_u64() as usize % self.edges.len();
                GraphEvent::UpdateEdge {
                    id: self.edges[at],
                    state,
                }
            }
            _ => GraphEvent::UpdateVertex {
                id: self.vertex(),
                state,
            },
        }
    }
}

#[test]
fn live_heap_after_quiesce_does_not_grow_with_the_stream() {
    let hub = MetricsHub::new();
    let store = TideStore::start(
        StoreConfig {
            shards: 2,
            timestamper_cost_per_tx: Duration::ZERO,
            shard_cost_per_event: Duration::ZERO,
            queue_capacity: 64,
            supervised: false,
        },
        &hub,
    );
    let mut client = store.client();
    let mut churn = Churn::new(7);
    let mut fed = 0u64;
    let mut live_heap_at = |events: u64| {
        while fed < events {
            let transaction = (0..10).map(|_| churn.next_event()).collect();
            let transaction = Transaction {
                events: transaction,
            };
            client.submit(transaction).unwrap();
            fed += 10;
        }
        assert!(
            store.quiesce(Duration::from_secs(30)),
            "quiesce at {events}"
        );
        LIVE.load(Ordering::Relaxed)
    };
    let early = live_heap_at(50_000);
    let late = live_heap_at(200_000);
    let growth = late as f64 / early as f64 - 1.0;
    assert!(
        growth.abs() <= 0.10,
        "live heap {early} B after 50 000 events, {late} B after 200 000 ({:+.1} %)",
        growth * 100.0
    );
    let stats = store.shutdown();
    assert_eq!(stats.events, 200_000);
    assert_eq!(stats.graph.vertex_count(), VERTICES as usize);
    assert!(stats.graph.edge_count() <= EDGES);
}
