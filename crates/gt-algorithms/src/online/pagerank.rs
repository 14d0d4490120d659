//! Online PageRank — the paper's running example of a *converging
//! computation* on an evolving graph (§4.4.2, and the "online influence
//! rank" of the Chronograph experiment, §5.3.2).
//!
//! The computation maintains a rank vector and amortizes warm-started power
//! iteration over event ingestion: every event deposits `sweep_rate` units
//! of work, and whenever a whole unit accumulates, one full sweep runs over
//! the *current* graph from the current vector. Query at any time and you
//! get an approximation whose accuracy reflects how much computation has
//! kept up with how much change — exactly the latency/accuracy trade-off
//! the framework measures.

use std::collections::BTreeMap;

use gt_core::prelude::*;

use crate::OnlineComputation;

/// Tuning for [`OnlinePageRank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePageRankConfig {
    /// Damping factor.
    pub damping: f64,
    /// Sweeps of power iteration deposited per ingested event. `0.01`
    /// means one full sweep every 100 events.
    pub sweep_rate: f64,
}

impl Default for OnlinePageRankConfig {
    fn default() -> Self {
        OnlinePageRankConfig {
            damping: 0.85,
            sweep_rate: 0.02,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Node {
    rank: f64,
    out: Vec<VertexId>,
}

/// Incremental, approximate PageRank over an evolving graph.
#[derive(Debug, Clone)]
pub struct OnlinePageRank {
    config: OnlinePageRankConfig,
    nodes: BTreeMap<VertexId, Node>,
    pending_work: f64,
    sweeps_run: u64,
}

impl OnlinePageRank {
    /// Creates an empty computation.
    pub fn new(config: OnlinePageRankConfig) -> Self {
        OnlinePageRank {
            config,
            nodes: BTreeMap::new(),
            pending_work: 0.0,
            sweeps_run: 0,
        }
    }

    /// Runs `k` full sweeps immediately (e.g. to let the computation catch
    /// up after the stream ends, as in the paper's Figure 3d tail).
    pub fn run_sweeps(&mut self, k: usize) {
        for _ in 0..k {
            self.sweep();
        }
    }

    /// One synchronous power-iteration sweep over the current graph.
    fn sweep(&mut self) {
        let n = self.nodes.len();
        if n == 0 {
            return;
        }
        let n_f = n as f64;
        let d = self.config.damping;

        let mut next: BTreeMap<VertexId, f64> = BTreeMap::new();
        let mut dangling_mass = 0.0;
        for node in self.nodes.values() {
            if node.out.is_empty() {
                dangling_mass += node.rank;
            } else {
                let per_edge = node.rank / node.out.len() as f64;
                for dst in &node.out {
                    *next.entry(*dst).or_insert(0.0) += per_edge;
                }
            }
        }
        let teleport = (1.0 - d) / n_f + d * dangling_mass / n_f;
        for (id, node) in &mut self.nodes {
            node.rank = teleport + d * next.get(id).copied().unwrap_or(0.0);
        }
        self.sweeps_run += 1;
    }

    fn deposit_work(&mut self) {
        self.pending_work += self.config.sweep_rate;
        while self.pending_work >= 1.0 {
            self.pending_work -= 1.0;
            self.sweep();
        }
    }
}

impl OnlineComputation for OnlinePageRank {
    /// Rank per live vertex.
    type Result = BTreeMap<VertexId, f64>;

    fn apply_event(&mut self, event: &GraphEvent) {
        match event {
            GraphEvent::AddVertex { id, .. } => {
                if !self.nodes.contains_key(id) {
                    // New vertices join with the uniform share; the next
                    // sweeps re-normalize the vector.
                    let initial = 1.0 / (self.nodes.len() as f64 + 1.0);
                    self.nodes.insert(
                        *id,
                        Node {
                            rank: initial,
                            out: Vec::new(),
                        },
                    );
                }
            }
            GraphEvent::RemoveVertex { id } => {
                if self.nodes.remove(id).is_some() {
                    for node in self.nodes.values_mut() {
                        node.out.retain(|v| v != id);
                    }
                }
            }
            GraphEvent::AddEdge { id, .. } => {
                if id.is_self_loop() || !self.nodes.contains_key(&id.dst) {
                    return;
                }
                if let Some(src) = self.nodes.get_mut(&id.src) {
                    if !src.out.contains(&id.dst) {
                        src.out.push(id.dst);
                    }
                }
            }
            GraphEvent::RemoveEdge { id } => {
                if let Some(src) = self.nodes.get_mut(&id.src) {
                    src.out.retain(|v| *v != id.dst);
                }
            }
            GraphEvent::UpdateVertex { .. } | GraphEvent::UpdateEdge { .. } => {}
        }
        self.deposit_work();
    }

    fn result(&self) -> BTreeMap<VertexId, f64> {
        self.nodes.iter().map(|(id, n)| (*id, n.rank)).collect()
    }

    fn name(&self) -> &'static str {
        "online-pagerank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank, PageRankConfig};
    use gt_graph::{builders, CsrSnapshot, EvolvingGraph};

    /// Feeds a stream into both the online computation and a shadow graph.
    fn feed(stream: &GraphStream, config: OnlinePageRankConfig) -> (OnlinePageRank, EvolvingGraph) {
        let mut online = OnlinePageRank::new(config);
        let mut graph = EvolvingGraph::new();
        for event in stream.graph_events() {
            online.apply_event(event);
            graph.apply(event).unwrap();
        }
        (online, graph)
    }

    fn l1_error(online: &OnlinePageRank, graph: &EvolvingGraph) -> f64 {
        let csr = CsrSnapshot::from_graph(graph);
        let exact = pagerank(&csr, &PageRankConfig::default());
        online
            .result()
            .iter()
            .map(|(id, r)| {
                let idx = csr.index_of(*id).expect("same vertex set");
                (r - exact.ranks[idx as usize]).abs()
            })
            .sum()
    }

    #[test]
    fn converges_to_batch_after_quiescence() {
        let stream = builders::BarabasiAlbert {
            n: 150,
            m0: 6,
            m: 3,
            seed: 9,
        }
        .generate();
        let (mut online, graph) = feed(&stream, OnlinePageRankConfig::default());
        // Let the computation catch up once the stream is quiescent.
        online.run_sweeps(100);
        let err = l1_error(&online, &graph);
        assert!(err < 1e-6, "L1 error after catch-up: {err}");
    }

    #[test]
    fn accuracy_improves_with_sweep_rate() {
        let stream = builders::BarabasiAlbert {
            n: 200,
            m0: 6,
            m: 3,
            seed: 3,
        }
        .generate();
        let (lazy, graph) = feed(
            &stream,
            OnlinePageRankConfig {
                sweep_rate: 0.001,
                ..Default::default()
            },
        );
        let (eager, _) = feed(
            &stream,
            OnlinePageRankConfig {
                sweep_rate: 0.2,
                ..Default::default()
            },
        );
        let lazy_err = l1_error(&lazy, &graph);
        let eager_err = l1_error(&eager, &graph);
        assert!(
            eager_err < lazy_err,
            "eager {eager_err} should beat lazy {lazy_err}"
        );
    }

    #[test]
    fn tolerates_hostile_events() {
        let mut online = OnlinePageRank::new(OnlinePageRankConfig::default());
        online.apply_event(&GraphEvent::AddEdge {
            id: EdgeId::from((1, 2)),
            state: State::empty(),
        });
        online.apply_event(&GraphEvent::RemoveVertex { id: VertexId(5) });
        online.apply_event(&GraphEvent::AddVertex {
            id: VertexId(1),
            state: State::empty(),
        });
        online.apply_event(&GraphEvent::AddEdge {
            id: EdgeId::from((1, 1)),
            state: State::empty(),
        });
        assert_eq!(online.result().len(), 1);
    }

    #[test]
    fn removal_keeps_vector_well_formed() {
        let stream = builders::ring(20);
        let (mut online, _) = feed(&stream, OnlinePageRankConfig::default());
        for id in 0..10u64 {
            online.apply_event(&GraphEvent::RemoveVertex { id: VertexId(id) });
        }
        online.run_sweeps(150);
        let sum: f64 = online.result().values().sum();
        assert!((sum - 1.0).abs() < 1e-6, "rank mass {sum}");
        assert_eq!(online.result().len(), 10);
    }

    #[test]
    fn the_hub_ranks_highest() {
        // Spokes point at vertex 0.
        let mut online = OnlinePageRank::new(OnlinePageRankConfig::default());
        for id in 0..20u64 {
            online.apply_event(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            });
        }
        for id in 1..20u64 {
            online.apply_event(&GraphEvent::AddEdge {
                id: EdgeId::from((id, 0)),
                state: State::empty(),
            });
        }
        online.run_sweeps(30);
        let (hub, _) = online
            .nodes
            .iter()
            .max_by(|a, b| a.1.rank.total_cmp(&b.1.rank))
            .unwrap();
        assert_eq!(*hub, VertexId(0));
    }

    #[test]
    fn sweep_counter_advances_with_rate() {
        let config = OnlinePageRankConfig {
            sweep_rate: 0.5,
            ..Default::default()
        };
        let mut online = OnlinePageRank::new(config);
        for id in 0..10u64 {
            online.apply_event(&GraphEvent::AddVertex {
                id: VertexId(id),
                state: State::empty(),
            });
        }
        assert_eq!(online.sweeps_run, 5);
    }
}
