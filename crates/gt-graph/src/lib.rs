#![warn(missing_docs)]

//! # gt-graph
//!
//! The evolving, directed, stateful property graph at the heart of the
//! GraphTides system model, plus:
//!
//! * strict/lenient application of graph stream events ([`apply`]),
//! * degree-adaptive per-vertex adjacency storage ([`hybrid`]) and the
//!   one slab-indexed store of vertices and edges built on it ([`store`]),
//! * a compact read-only snapshot in CSR form for analytics ([`csr`]),
//! * classic bootstrap-graph builders — Barabási–Albert, Erdős–Rényi, and
//!   deterministic fixtures ([`builders`]),
//! * structural property measurements ([`properties`]).
//!
//! The graph follows the paper's model (§3.2 “Graph Types”): directed,
//! stateful vertices and edges, unique vertex IDs, no multigraphs, no self
//! loops. Undirected workloads are modeled by ignoring direction; stateless
//! ones by ignoring payloads.
//!
//! ```
//! use gt_core::prelude::*;
//! use gt_graph::EvolvingGraph;
//!
//! let mut g = EvolvingGraph::new();
//! g.apply(&GraphEvent::AddVertex { id: VertexId(1), state: State::empty() }).unwrap();
//! g.apply(&GraphEvent::AddVertex { id: VertexId(2), state: State::empty() }).unwrap();
//! g.apply(&GraphEvent::AddEdge {
//!     id: EdgeId::new(VertexId(1), VertexId(2)),
//!     state: State::weight(0.5),
//! }).unwrap();
//! assert_eq!(g.vertex_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! ```

pub mod apply;
pub mod builders;
pub mod csr;
pub mod graph;
pub mod hybrid;
pub mod properties;
pub mod snapshots;
pub mod store;

pub use apply::{Applied, ApplyError, ApplyPolicy};
pub use csr::CsrSnapshot;
pub use graph::EvolvingGraph;
pub use hybrid::HybridAdjacency;
pub use properties::{DegreeDistribution, GraphProperties};
pub use snapshots::{Epoch, SnapshotStore};
pub use store::AdjacencyStore;
